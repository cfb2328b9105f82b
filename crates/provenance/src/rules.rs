//! Per-operator provenance rules (the provenance column of Table 10).
//!
//! The computation mirrors Algorithm 1: it decomposes the formula into its
//! sub-formulas, computes the output provenance `P_O` of each, accumulates
//! their union into the execution provenance `P_E`, and collects every
//! mentioned column into `P_C`. The output provenance of each operator
//! follows Table 10:
//!
//! * joins and comparison joins contribute the matching cells of their
//!   selection column,
//! * projections contribute the projected cells,
//! * intersections intersect their operands' output cells while unions union
//!   them,
//! * superlatives contribute the winning cells of the ranking column,
//! * aggregates and differences contribute their operands' cells plus an
//!   operator marker that the highlighter attaches to the column header.
//!
//! Each of these is the cells of some records in one column, or a union or
//! intersection of such sets, so every set is held per column (see
//! [`crate::model`]) and `P_C` is the list of mentioned columns. The walk
//! runs over the formula's ids in the session's arena: a candidate of the
//! parse is interned already, so interning it again is a lookup, and the
//! record sets its operators read are the session memo's shared slices
//! ([`Evaluator::eval_id`]).

use wtq_dcs::{
    ColumnId, DcsError, Denotation, Evaluator, Formula, FormulaId, Node, SharedDenotation,
    TracedValue,
};
use wtq_table::{RecordIdx, Table, Value};

use crate::model::{CellSet, ColumnSet, OpMarker, ProvenanceChain};

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
/// its warm denotation memo instead of starting a fresh one.
/// The chain is the same as on a fresh evaluator, errors included.
pub fn provenance_with(
    formula: &Formula,
    evaluator: &Evaluator<'_>,
) -> wtq_dcs::Result<ProvenanceChain> {
    let table = evaluator.table();
    let mut walk = Walk {
        evaluator,
        table,
        execution: CellSet::new(),
        columns: Vec::new(),
        markers: Vec::new(),
    };
    // P_O of the whole query plus P_E as the union of P_O over sub-formulas
    // (Equations 1 and 2), computed in one recursive pass that also collects
    // the columns of P_C (Equation 3): a walk that succeeds resolves every
    // column the formula mentions. The chain is nested by construction
    // (Definition 4.1): `output` adds every sub-formula's `P_O` to `P_E`,
    // the root's included, and no rule outputs a cell outside a column it
    // resolved.
    let output = walk.output(evaluator.intern(formula))?;
    let chain = ProvenanceChain {
        output,
        execution: walk.execution,
        columns: ColumnSet::new(walk.columns, table.num_records()),
        markers: walk.markers,
    };
    debug_assert!(chain.is_well_formed());
    Ok(chain)
}

/// One provenance computation: the session it reads, and `P_E`, the
/// columns of `P_C` and the markers gathered so far.
struct Walk<'w, 'a> {
    evaluator: &'w Evaluator<'a>,
    table: &'w Table,
    execution: CellSet,
    /// Every column resolved so far, in walk order, with repeats.
    columns: Vec<usize>,
    markers: Vec<(Option<usize>, OpMarker)>,
}

impl Walk<'_, '_> {
    /// `P_O` of formula `id`, after adding every sub-formula's output
    /// provenance (its own included) to `P_E` and operator markers to the
    /// markers. Operands come first, then the operator's own columns and
    /// evaluations, so errors surface in the order a recursive evaluation
    /// meets them.
    fn output(&mut self, id: FormulaId) -> wtq_dcs::Result<CellSet> {
        let output = match self.node(id) {
            // A constant on its own examines nothing; the operator using it
            // (join, comparison, …) contributes the matching cells. The set
            // of all records names no column and examines no cell.
            Node::Const(_) | Node::AllRecords => CellSet::new(),
            Node::Join { column, values } => {
                self.output(values)?;
                let column = self.require(column)?;
                let wanted = self.operand(values)?;
                CellSet::column(column, self.matching(column, &wanted))
            }
            Node::CompareJoin { column, op, value } => {
                self.output(value)?;
                let column = self.require(column)?;
                let threshold = Denotation::from(self.operand(value)?);
                let threshold = threshold.as_single_number().ok_or(DcsError::Cardinality {
                    operator: "comparison",
                    expected: "a single numeric value",
                    got: threshold.len(),
                })?;
                let table = self.table;
                let records = table
                    .record_indices()
                    .filter(|&record| {
                        table
                            .number_at(record, column)
                            .is_some_and(|n| op.compare(n, threshold))
                    })
                    .collect();
                CellSet::column(column, records)
            }
            Node::ColumnValues { column, records } => {
                self.output(records)?;
                let column = self.require(column)?;
                match self.evaluator.eval_id(records)? {
                    SharedDenotation::Records(records) => CellSet::column(column, records.to_vec()),
                    _ => CellSet::new(),
                }
            }
            // The shift itself outputs no new cells; the anchoring cells are
            // contributed by the inner formula.
            Node::Prev(sub) | Node::Next(sub) => self.output(sub)?,
            Node::Intersect(a, b) => {
                let mut left = self.output(a)?;
                left.intersect_with(&self.output(b)?);
                left
            }
            Node::Union(a, b) => {
                let mut left = self.output(a)?;
                left.union_with(&self.output(b)?);
                left
            }
            Node::Aggregate { op, sub } => {
                let inner = self.output(sub)?;
                let column = self.marker_column(sub);
                self.markers.push((column, OpMarker::Aggregate(op)));
                inner
            }
            Node::Sub(a, b) => {
                let mut left = self.output(a)?;
                left.union_with(&self.output(b)?);
                let column = self.marker_column(id);
                self.markers.push((column, OpMarker::Difference));
                left
            }
            Node::SuperlativeRecords {
                records, column, ..
            } => {
                self.output(records)?;
                let column = self.require(column)?;
                match self.evaluator.eval_id(id)? {
                    SharedDenotation::Records(selected) => {
                        CellSet::column(column, selected.to_vec())
                    }
                    _ => CellSet::new(),
                }
            }
            Node::RecordIndexSuperlative { records, .. } => {
                let mut inner = self.output(records)?;
                match self.evaluator.eval_id(id)? {
                    SharedDenotation::Records(selected) => {
                        inner.retain_records(&selected);
                        inner
                    }
                    _ => CellSet::new(),
                }
            }
            Node::MostCommonValue { values, column, .. } => {
                self.output(values)?;
                let column = self.require(column)?;
                let winners = self.evaluator.eval_id(id)?;
                CellSet::column(column, self.matching(column, &winners))
            }
            Node::CompareValues {
                values,
                key_column,
                value_column,
                ..
            } => {
                self.output(values)?;
                let key = self.require(key_column)?;
                let value = self.require(value_column)?;
                // Candidate rows contribute their key and value cells to the
                // execution set (they are compared against each other),
                // winners contribute their value cells to the output.
                let candidates = self.operand(values)?;
                let rows = self.matching(value, &candidates);
                self.execution
                    .union_with(&CellSet::column(key, rows.clone()));
                self.execution.union_with(&CellSet::column(value, rows));
                match self.evaluator.eval_id(id)? {
                    SharedDenotation::Values(winners) => CellSet::from_cells(
                        winners
                            .iter()
                            .flat_map(|winner| winner.cells.iter().copied()),
                    ),
                    _ => CellSet::new(),
                }
            }
        };
        self.execution.union_with(&output);
        Ok(output)
    }

    /// What operand `id` evaluates to. A constant evaluates to itself and
    /// cannot fail, so it is read from the arena, untraced: the rules read
    /// only an operand's values.
    fn operand(&self, id: FormulaId) -> wtq_dcs::Result<SharedDenotation> {
        if let Node::Const(constant) = self.node(id) {
            let value = self.evaluator.arena().value(constant).clone();
            return Ok(SharedDenotation::Values(vec![TracedValue::untraced(value)]));
        }
        self.evaluator.eval_id(id)
    }

    /// Records whose cell in `column` holds one of `denotation`'s values,
    /// ascending: the cells a join over it matches (none for records).
    fn matching(&self, column: usize, denotation: &SharedDenotation) -> Vec<RecordIdx> {
        let kb = self.evaluator.kb();
        let mut records: Vec<RecordIdx> = match denotation {
            SharedDenotation::Records(_) => return Vec::new(),
            SharedDenotation::Number(n) => return kb.join(column, &Value::Num(*n)).to_vec(),
            SharedDenotation::Values(values) => values
                .iter()
                .flat_map(|traced| kb.join(column, &traced.value))
                .copied()
                .collect(),
        };
        records.sort_unstable();
        records.dedup();
        records
    }

    fn node(&self, id: FormulaId) -> Node {
        self.evaluator.arena().node(id)
    }

    /// The table column `column` names, added to `P_C`'s columns.
    fn require(&mut self, column: ColumnId) -> wtq_dcs::Result<usize> {
        let arena = self.evaluator.arena();
        let name = arena.column_name(column);
        let index = self
            .table
            .column_index(name)
            .ok_or_else(|| DcsError::UnknownColumn(name.to_string()))?;
        self.columns.push(index);
        Ok(index)
    }

    /// Column a marker is attributed to: the projected / counted column of
    /// the operand, when there is exactly one natural choice.
    fn marker_column(&self, id: FormulaId) -> Option<usize> {
        let inner = match self.node(id) {
            Node::Aggregate { sub, .. } => sub,
            Node::Sub(a, _) => a,
            _ => id,
        };
        let column = match self.node(inner) {
            Node::ColumnValues { column, .. }
            | Node::Join { column, .. }
            | Node::CompareJoin { column, .. } => Some(column),
            Node::Aggregate { sub, .. } => return self.marker_column(sub),
            _ => self.first_column(inner),
        };
        let arena = self.evaluator.arena();
        column.and_then(|column| self.table.column_index(arena.column_name(column)))
    }

    /// The first column formula `id` mentions, in the order of
    /// [`Formula::columns_mentioned`].
    fn first_column(&self, id: FormulaId) -> Option<ColumnId> {
        match self.node(id) {
            Node::Const(_) | Node::AllRecords => None,
            Node::Join { column, .. }
            | Node::CompareJoin { column, .. }
            | Node::ColumnValues { column, .. }
            | Node::SuperlativeRecords { column, .. }
            | Node::MostCommonValue { column, .. }
            | Node::CompareValues {
                key_column: column, ..
            } => Some(column),
            Node::Prev(sub)
            | Node::Next(sub)
            | Node::Aggregate { sub, .. }
            | Node::RecordIndexSuperlative { records: sub, .. } => self.first_column(sub),
            Node::Intersect(a, b) | Node::Union(a, b) | Node::Sub(a, b) => {
                self.first_column(a).or_else(|| self.first_column(b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::{parse_formula, AggregateOp};
    use wtq_table::{samples, CellRef};

    fn chain_for(text: &str, table: &Table) -> ProvenanceChain {
        let formula = parse_formula(text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        provenance(&formula, table).unwrap_or_else(|e| panic!("provenance {text:?}: {e}"))
    }

    fn cells(cells: &[(usize, usize)]) -> CellSet {
        CellSet::from_cells(
            cells
                .iter()
                .map(|&(record, column)| CellRef::new(record, column)),
        )
    }

    #[test]
    fn example_4_3_column_values_provenance() {
        // R[Year].City.Athens over the Olympics table.
        let table = samples::olympics();
        let chain = chain_for("R[Year].City.Athens", &table);
        let year = table.column_index("Year").unwrap();
        let city = table.column_index("City").unwrap();
        // P_O: Year cells of the Athens records (rows 0 and 5).
        assert_eq!(chain.output, cells(&[(0, year), (5, year)]));
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
            cells(&[(fiji_row, total), (tonga_row, total)])
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
        assert_eq!(chain.output, cells(&[(8, year)]));
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
        assert_eq!(chain.output, cells(&[(7, city)]));
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
        assert_eq!(chain.output, cells(&[(2, year)]));
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
