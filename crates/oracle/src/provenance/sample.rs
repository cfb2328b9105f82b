//! Scaling highlights to large tables (§5.3).
//!
//! Highlights explain the *query*, not its full answer, so a large table can
//! be summarized by a handful of representative rows: one from `R_O` (rows
//! with colored cells), one from `R_E \ R_O` (rows with framed cells only)
//! and one from `R_C \ R_E` (rows only lit). Queries computing an arithmetic
//! difference keep two rows from `R_O`, one per subtracted value, exactly as
//! in Figure 7. Sampled rows keep their original table order.

use wtq_dcs::Formula;
use wtq_table::{RecordIdx, Table, TableBuilder};

use super::highlight::Highlights;
use super::model::ProvenanceChain;

/// A sampled view of a highlighted table.
#[derive(Debug, Clone)]
pub struct SampledHighlights {
    /// The shrunken table containing only the sampled rows.
    pub table: Table,
    /// Highlights re-indexed against the shrunken table.
    pub highlights: Highlights,
    /// For each row of the shrunken table, the record index it came from in
    /// the original table.
    pub source_records: Vec<RecordIdx>,
}

/// Maximum number of rows a sampled view keeps (three provenance levels plus
/// one extra row for difference queries).
pub const MAX_SAMPLED_ROWS: usize = 4;

/// Sample at most [`MAX_SAMPLED_ROWS`] representative rows from a highlighted
/// table (§5.3). Returns the full table unchanged when it is already small
/// (fewer rows than the sample would contain).
pub fn sample_highlights(
    formula: &Formula,
    table: &Table,
    highlights: &Highlights,
) -> SampledHighlights {
    let output_records = highlights.output_records();
    let execution_records = highlights.execution_records();
    let column_records = highlights.column_records();

    let mut selected: Vec<RecordIdx> = Vec::new();
    // One record from R_O — or two for difference queries, one per operand.
    if is_difference(formula) {
        selected.extend(output_records.iter().take(2).copied());
    } else {
        selected.extend(output_records.first().copied());
    }
    // One record from R_E \ R_O.
    if let Some(record) = execution_records
        .iter()
        .find(|r| !selected.contains(r) && !output_records.contains(r))
    {
        selected.push(*record);
    }
    // One record from R_C \ R_E.
    if let Some(record) = column_records
        .iter()
        .find(|r| !selected.contains(r) && !execution_records.contains(r))
    {
        selected.push(*record);
    }
    // Degenerate queries (everything colored, or nothing highlighted): fall
    // back to the first rows so the sample is never empty.
    if selected.is_empty() {
        selected.extend(table.record_indices().take(MAX_SAMPLED_ROWS.min(3)));
    }
    selected.sort_unstable();
    selected.dedup();

    if selected.len() >= table.num_records() {
        return SampledHighlights {
            table: table.clone(),
            highlights: highlights.clone(),
            source_records: table.record_indices().collect(),
        };
    }

    let sampled_table = project_rows(table, &selected);
    let sampled_chain = reindex_chain(&highlights.chain, &selected);
    let sampled_highlights = Highlights::from_chain(sampled_chain, &sampled_table);
    SampledHighlights {
        table: sampled_table,
        highlights: sampled_highlights,
        source_records: selected,
    }
}

fn is_difference(formula: &Formula) -> bool {
    matches!(formula, Formula::Sub(_, _))
}

fn project_rows(table: &Table, records: &[RecordIdx]) -> Table {
    let mut builder =
        TableBuilder::new(table.name()).columns(table.columns().iter().map(|c| c.name.clone()));
    for &record in records {
        let row = table.record_values(record).expect("sampled record exists");
        builder = builder.row(row).expect("arity preserved");
    }
    builder
        .build()
        .expect("sampled table has the original columns")
}

fn reindex_chain(chain: &ProvenanceChain, records: &[RecordIdx]) -> ProvenanceChain {
    let position = |record: RecordIdx| records.iter().position(|&r| r == record);
    let remap = |cells: &std::collections::BTreeSet<wtq_table::CellRef>| {
        cells
            .iter()
            .filter_map(|cell| {
                position(cell.record).map(|row| wtq_table::CellRef::new(row, cell.column))
            })
            .collect()
    };
    ProvenanceChain {
        output: remap(&chain.output),
        execution: remap(&chain.execution),
        columns: remap(&chain.columns),
        markers: chain.markers.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::parse_formula;
    use wtq_provenance::HighlightKind;
    use wtq_table::{samples, CellRef};

    fn sampled(text: &str, table: &Table) -> SampledHighlights {
        let formula = parse_formula(text).unwrap();
        let highlights = Highlights::compute(&formula, table).unwrap();
        sample_highlights(&formula, table, &highlights)
    }

    #[test]
    fn figure_seven_keeps_three_representative_rows() {
        // "What was the highest growth rate of Madagascar in the 1980s?" over
        // a large table: the sample keeps an output row, an examined row and
        // a lit-only row.
        let table = samples::growth_rate();
        let s = sampled("max(R[\"Growth Rate\"].Country.Madagascar)", &table);
        assert!(s.table.num_records() <= MAX_SAMPLED_ROWS);
        assert!(s.table.num_records() >= 2);
        // The sampled rows preserve original order.
        let mut sorted = s.source_records.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, s.source_records);
        // At least one colored cell survives the sampling.
        let growth = s.table.column_index("Growth Rate").unwrap();
        let colored = (0..s.table.num_records())
            .any(|row| s.highlights.kind(CellRef::new(row, growth)) == HighlightKind::Colored);
        assert!(colored);
    }

    #[test]
    fn difference_queries_keep_two_output_rows() {
        let table = samples::medals();
        let s = sampled("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)", &table);
        let total = s.table.column_index("Total").unwrap();
        let colored_rows: Vec<usize> = (0..s.table.num_records())
            .filter(|&row| s.highlights.kind(CellRef::new(row, total)) == HighlightKind::Colored)
            .collect();
        assert_eq!(
            colored_rows.len(),
            2,
            "both subtracted values must be shown"
        );
    }

    #[test]
    fn small_tables_pass_through_unchanged() {
        let table =
            wtq_table::Table::from_rows("tiny", &["A", "B"], &[vec!["1", "x"], vec!["2", "y"]])
                .unwrap();
        let s = sampled("R[B].A.1", &table);
        assert_eq!(s.table.num_records(), table.num_records());
        assert_eq!(s.source_records, vec![0, 1]);
    }

    #[test]
    fn sampled_highlight_classes_match_original_rows() {
        let table = samples::growth_rate();
        let formula = parse_formula("max(R[\"Growth Rate\"].Country.Madagascar)").unwrap();
        let full = Highlights::compute(&formula, &table).unwrap();
        let s = sample_highlights(&formula, &table, &full);
        for (row, &source) in s.source_records.iter().enumerate() {
            for column in 0..table.num_columns() {
                assert_eq!(
                    s.highlights.kind(CellRef::new(row, column)),
                    full.kind(CellRef::new(source, column)),
                    "row {row} column {column} classification changed"
                );
            }
        }
    }

    #[test]
    fn queries_without_highlights_still_produce_a_sample() {
        let table = samples::growth_rate();
        // A join that matches nothing: no colored/framed rows, only lit cells.
        let s = sampled("Country.Atlantis", &table);
        assert!(s.table.num_records() >= 1);
    }
}
