//! Per-operator provenance rules (the provenance column of Table 10).
//!
//! The computation mirrors Algorithm 1: it decomposes the formula into its
//! sub-formulas, computes the output provenance `P_O` of each, accumulates
//! their union into the execution provenance `P_E`, and collects every cell
//! of every mentioned column into `P_C`. The output provenance of each
//! operator follows Table 10:
//!
//! * joins and comparison joins contribute the matching cells of their
//!   selection column,
//! * projections contribute the projected cells,
//! * intersections intersect their operands' output cells while unions union
//!   them,
//! * superlatives contribute the winning cells of the ranking column,
//! * aggregates and differences contribute their operands' cells plus an
//!   operator marker that the highlighter attaches to the column header.

use std::collections::BTreeSet;

use wtq_dcs::{Denotation, Evaluator, Formula};
use wtq_table::{CellRef, Table};

use crate::model::{OpMarker, ProvenanceChain};

/// Compute the multilevel cell-based provenance `Prov(Q, T) = (P_O, P_E,
/// P_C)` of `formula` executed on `table`.
///
/// Returns an error if the formula does not evaluate on the table (unknown
/// column, ill-typed composition, …): provenance is only defined for queries
/// that execute.
pub fn provenance(formula: &Formula, table: &Table) -> wtq_dcs::Result<ProvenanceChain> {
    provenance_with(formula, &Evaluator::new(table))
}

/// [`provenance`] on an existing evaluator session of the table, reusing
/// its shared index and warm denotation memo instead of building both anew.
/// The chain is the same as on a fresh evaluator, errors included.
pub fn provenance_with(
    formula: &Formula,
    evaluator: &Evaluator<'_>,
) -> wtq_dcs::Result<ProvenanceChain> {
    let table = evaluator.table();
    let mut chain = ProvenanceChain::new();

    // P_C: every cell of every mentioned column (Equation 3).
    for column_name in formula.columns_mentioned() {
        if let Some(column) = table.column_index(&column_name) {
            chain.columns.extend(table.column_cells(column));
        }
    }

    // P_O of the whole query plus P_E as the union of P_O over sub-formulas
    // (Equations 1 and 2), computed in one recursive pass.
    let output = output_provenance(formula, evaluator, &mut chain)?;
    chain.output = output;

    // The chain is nested by construction; clamp defensively so the
    // Definition 4.1 hierarchy holds even for degenerate formulas (e.g. a
    // bare constant whose cells lie outside any mentioned column).
    chain.execution = chain.execution.union(&chain.output).copied().collect();
    chain.execution = chain
        .execution
        .intersection(&chain.columns)
        .copied()
        .collect();
    chain.output = chain
        .output
        .intersection(&chain.execution)
        .copied()
        .collect();
    Ok(chain)
}

/// Recursively compute `P_O` of `formula`, adding every sub-formula's output
/// provenance (including `formula`'s own) to `chain.execution` and operator
/// markers to `chain.markers`.
fn output_provenance(
    formula: &Formula,
    evaluator: &Evaluator<'_>,
    chain: &mut ProvenanceChain,
) -> wtq_dcs::Result<BTreeSet<CellRef>> {
    let table = evaluator.table();
    let output: BTreeSet<CellRef> = match formula {
        // A constant on its own examines nothing; the operator using it
        // (join, comparison, …) contributes the matching cells.
        Formula::Const(_) => BTreeSet::new(),
        // The set of all records names no column and examines no cell.
        Formula::AllRecords => BTreeSet::new(),
        Formula::Join { column, values } => {
            let _ = output_provenance(values, evaluator, chain)?;
            let column_idx = require_column(table, column)?;
            let wanted = evaluator.eval(values)?;
            let wanted = wanted.values();
            let mut cells = BTreeSet::new();
            for value in &wanted {
                cells.extend(evaluator.kb().matching_cells(column_idx, value));
            }
            cells
        }
        Formula::CompareJoin { column, op, value } => {
            let _ = output_provenance(value, evaluator, chain)?;
            let column_idx = require_column(table, column)?;
            let threshold = evaluator.eval(value)?;
            let threshold = threshold
                .as_single_number()
                .ok_or(wtq_dcs::DcsError::Cardinality {
                    operator: "comparison",
                    expected: "a single numeric value",
                    got: threshold.len(),
                })?;
            table
                .column_cells(column_idx)
                .filter(|cell| {
                    table
                        .number_at(cell.record, cell.column)
                        .map(|n| op.compare(n, threshold))
                        .unwrap_or(false)
                })
                .collect()
        }
        Formula::ColumnValues { column, records } => {
            let _ = output_provenance(records, evaluator, chain)?;
            let column_idx = require_column(table, column)?;
            let records = evaluator.eval(records)?;
            match records {
                Denotation::Records(records) => records
                    .iter()
                    .map(|&record| CellRef::new(record, column_idx))
                    .collect(),
                _ => BTreeSet::new(),
            }
        }
        Formula::Prev(sub) | Formula::Next(sub) => {
            // The shift itself outputs no new cells; the anchoring cells are
            // contributed by the inner formula.
            output_provenance(sub, evaluator, chain)?
        }
        Formula::Intersect(a, b) => {
            let left = output_provenance(a, evaluator, chain)?;
            let right = output_provenance(b, evaluator, chain)?;
            left.intersection(&right).copied().collect()
        }
        Formula::Union(a, b) => {
            let left = output_provenance(a, evaluator, chain)?;
            let right = output_provenance(b, evaluator, chain)?;
            left.union(&right).copied().collect()
        }
        Formula::Aggregate { op, sub } => {
            let inner = output_provenance(sub, evaluator, chain)?;
            chain
                .markers
                .push((marker_column(table, sub), OpMarker::Aggregate(*op)));
            inner
        }
        Formula::Sub(a, b) => {
            let left = output_provenance(a, evaluator, chain)?;
            let right = output_provenance(b, evaluator, chain)?;
            chain
                .markers
                .push((marker_column(table, formula), OpMarker::Difference));
            left.union(&right).copied().collect()
        }
        Formula::SuperlativeRecords {
            records, column, ..
        } => {
            let _ = output_provenance(records, evaluator, chain)?;
            let column_idx = require_column(table, column)?;
            let selected = evaluator.eval(formula)?;
            match selected {
                Denotation::Records(selected) => selected
                    .iter()
                    .map(|&record| CellRef::new(record, column_idx))
                    .collect(),
                _ => BTreeSet::new(),
            }
        }
        Formula::RecordIndexSuperlative { records, .. } => {
            let inner = output_provenance(records, evaluator, chain)?;
            let selected = evaluator.eval(formula)?;
            match selected {
                Denotation::Records(selected) => inner
                    .into_iter()
                    .filter(|cell| selected.contains(&cell.record))
                    .collect(),
                _ => BTreeSet::new(),
            }
        }
        Formula::MostCommonValue { values, column, .. } => {
            let _ = output_provenance(values, evaluator, chain)?;
            let column_idx = require_column(table, column)?;
            let winners = evaluator.eval(formula)?;
            let mut cells = BTreeSet::new();
            for value in winners.values() {
                cells.extend(evaluator.kb().matching_cells(column_idx, &value));
            }
            cells
        }
        Formula::CompareValues {
            values,
            key_column,
            value_column,
            op,
        } => {
            let _ = output_provenance(values, evaluator, chain)?;
            let key_idx = require_column(table, key_column)?;
            let value_idx = require_column(table, value_column)?;
            // Candidate rows contribute their key cells to the execution set
            // (they are compared against each other), winners contribute
            // their value cells to the output.
            let candidates = evaluator.eval(values)?;
            let mut candidate_rows: BTreeSet<usize> = BTreeSet::new();
            for value in candidates.values() {
                candidate_rows.extend(evaluator.kb().join(value_idx, &value).iter().copied());
            }
            chain.execution.extend(
                candidate_rows
                    .iter()
                    .map(|&record| CellRef::new(record, key_idx)),
            );
            chain.execution.extend(
                candidate_rows
                    .iter()
                    .map(|&record| CellRef::new(record, value_idx)),
            );
            let winners = evaluator.eval(&Formula::CompareValues {
                op: *op,
                values: values.clone(),
                key_column: key_column.clone(),
                value_column: value_column.clone(),
            })?;
            winners.traced_cells().into_iter().collect()
        }
    };
    chain.execution.extend(output.iter().copied());
    Ok(output)
}

/// Column a marker is attributed to: the projected / counted column of the
/// operand, when there is exactly one natural choice.
fn marker_column(table: &Table, formula: &Formula) -> Option<usize> {
    let inner = match formula {
        Formula::Aggregate { sub, .. } => sub,
        Formula::Sub(a, _) => a,
        other => other,
    };
    match inner {
        Formula::ColumnValues { column, .. } => table.column_index(column),
        Formula::Join { column, .. } | Formula::CompareJoin { column, .. } => {
            table.column_index(column)
        }
        Formula::Aggregate { sub, .. } => marker_column(table, sub),
        _ => inner
            .columns_mentioned()
            .first()
            .and_then(|c| table.column_index(c)),
    }
}

fn require_column(table: &Table, name: &str) -> wtq_dcs::Result<usize> {
    table
        .column_index(name)
        .ok_or_else(|| wtq_dcs::DcsError::UnknownColumn(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::{parse_formula, AggregateOp};
    use wtq_table::samples;

    fn chain_for(text: &str, table: &Table) -> ProvenanceChain {
        let formula = parse_formula(text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        provenance(&formula, table).unwrap_or_else(|e| panic!("provenance {text:?}: {e}"))
    }

    #[test]
    fn example_4_3_column_values_provenance() {
        // R[Year].City.Athens over the Olympics table.
        let table = samples::olympics();
        let chain = chain_for("R[Year].City.Athens", &table);
        let year = table.column_index("Year").unwrap();
        let city = table.column_index("City").unwrap();
        // P_O: Year cells of the Athens records (rows 0 and 5).
        assert_eq!(
            chain.output,
            BTreeSet::from([CellRef::new(0, year), CellRef::new(5, year)])
        );
        // P_E additionally contains the City cells with value Athens.
        assert!(chain.execution.contains(&CellRef::new(0, city)));
        assert!(chain.execution.contains(&CellRef::new(5, city)));
        assert_eq!(chain.execution.len(), 4);
        // P_C is every cell of columns Year and City.
        assert_eq!(chain.columns.len(), 2 * table.num_records());
        assert!(chain.is_well_formed());
    }

    #[test]
    fn example_5_2_difference_highlight_sets() {
        // sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga) over the medal table.
        let table = samples::medals();
        let chain = chain_for("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)", &table);
        let nation = table.column_index("Nation").unwrap();
        let total = table.column_index("Total").unwrap();
        let fiji_row = 3;
        let tonga_row = 6;
        // Colored cells: the two Total values 130 and 20.
        assert_eq!(
            chain.output,
            BTreeSet::from([
                CellRef::new(fiji_row, total),
                CellRef::new(tonga_row, total)
            ])
        );
        // Framed cells additionally include the Nation cells Fiji and Tonga.
        assert!(chain.execution.contains(&CellRef::new(fiji_row, nation)));
        assert!(chain.execution.contains(&CellRef::new(tonga_row, nation)));
        assert_eq!(chain.execution.len(), 4);
        // Lit cells are all of columns Nation and Total.
        assert_eq!(chain.columns.len(), 2 * table.num_records());
        // A difference marker is attached to the Total column.
        assert!(chain
            .markers
            .iter()
            .any(|(col, marker)| *col == Some(total) && *marker == OpMarker::Difference));
        assert!(chain.is_well_formed());
    }

    #[test]
    fn figure_one_aggregate_marks_the_year_header() {
        let table = samples::olympics();
        let chain = chain_for("max(R[Year].Country.Greece)", &table);
        let year = table.column_index("Year").unwrap();
        assert!(chain
            .markers
            .iter()
            .any(|(col, marker)| *col == Some(year)
                && *marker == OpMarker::Aggregate(AggregateOp::Max)));
        // Output cells are the Year values of the Greece rows (they feed the max).
        assert_eq!(chain.output.len(), 2);
        assert!(chain.is_well_formed());
    }

    #[test]
    fn figure_four_comparison_provenance() {
        let table = samples::squad();
        let chain = chain_for("Games.(> 4)", &table);
        let games = table.column_index("Games").unwrap();
        // Output cells: the Games cells with value > 4 (rows 4, 7, 8, 9).
        assert_eq!(chain.output.len(), 4);
        assert!(chain.output.iter().all(|cell| cell.column == games));
        assert_eq!(chain.columns.len(), table.num_records());
        assert!(chain.is_well_formed());
    }

    #[test]
    fn intersection_intersects_output_cells() {
        let table = samples::olympics();
        let chain = chain_for("(City.London and Country.UK)", &table);
        // London appears in City for the same rows where Country is UK, but
        // the two joins touch different columns, so their intersection of
        // output cells is empty while execution keeps both sides.
        assert!(chain.output.is_empty());
        assert_eq!(chain.execution.len(), 4);
        assert!(chain.is_well_formed());
    }

    #[test]
    fn union_unions_output_cells() {
        let table = samples::olympics();
        let chain = chain_for("(Country.Greece or Country.China)", &table);
        assert_eq!(chain.output.len(), 3);
        assert!(chain.is_well_formed());
    }

    #[test]
    fn superlative_outputs_only_winning_cells() {
        let table = samples::olympics();
        let chain = chain_for("argmax(Rows, Year)", &table);
        let year = table.column_index("Year").unwrap();
        assert_eq!(chain.output, BTreeSet::from([CellRef::new(8, year)]));
        assert!(chain.is_well_formed());
    }

    #[test]
    fn compare_values_examines_candidate_keys() {
        // Figure 5: between London or Beijing who has the highest Year.
        let table = samples::olympics();
        let chain = chain_for("compare_max((London or Beijing), Year, City)", &table);
        let year = table.column_index("Year").unwrap();
        let city = table.column_index("City").unwrap();
        // Winner: the London cell of row 7.
        assert_eq!(chain.output, BTreeSet::from([CellRef::new(7, city)]));
        // Execution includes the Year cells of every candidate row (3, 6, 7).
        for row in [3usize, 6, 7] {
            assert!(
                chain.execution.contains(&CellRef::new(row, year)),
                "missing year of row {row}"
            );
        }
        assert!(chain.is_well_formed());
    }

    #[test]
    fn last_row_provenance_restricts_to_selected_record() {
        let table = samples::usl_league();
        let chain = chain_for("R[Year].last(League.\"USL A-League\")", &table);
        let year = table.column_index("Year").unwrap();
        // Output is the Year cell of the last USL A-League row (row 2, 2004).
        assert_eq!(chain.output, BTreeSet::from([CellRef::new(2, year)]));
        assert!(chain.is_well_formed());
    }

    #[test]
    fn queries_with_identical_highlights_can_differ() {
        // §5.2: "more than 4" and "at least 5 and less than 17" highlight the
        // same cells even though the formulas differ.
        let table = samples::squad();
        let a = chain_for("Games.(> 4)", &table);
        let b = chain_for("(Games.(>= 5) and Games.(< 17))", &table);
        assert_eq!(a.output, b.output);
        assert_eq!(a.columns, b.columns);
    }

    #[test]
    fn all_paper_operators_produce_well_formed_chains() {
        let olympics = samples::olympics();
        let wrecks = samples::shipwrecks();
        let cases: Vec<(&str, &Table)> = vec![
            ("City.Athens", &olympics),
            ("R[Year].City.Athens", &olympics),
            ("R[Year].Prev.City.Athens", &olympics),
            ("R[Year].R[Prev].City.Athens", &olympics),
            ("sum(R[Year].City.Athens)", &olympics),
            ("sub(R[Year].City.London, R[Year].City.Beijing)", &olympics),
            ("sub(count(City.Athens), count(City.London))", &olympics),
            ("(Country.China or Country.Greece)", &olympics),
            ("(City.London and Country.UK)", &olympics),
            ("argmax(Rows, Year)", &olympics),
            ("R[Year].argmax(City.Athens, Index)", &olympics),
            ("most_common((Athens or London), City)", &olympics),
            ("compare_max((London or Beijing), Year, City)", &olympics),
            ("most_common(R[Lake].Rows, Lake)", &wrecks),
        ];
        for (text, table) in cases {
            let chain = chain_for(text, table);
            assert!(chain.is_well_formed(), "chain not well formed for {text}");
            assert!(!chain.columns.is_empty(), "no column provenance for {text}");
        }
    }
}
