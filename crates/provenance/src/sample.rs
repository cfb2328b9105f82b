//! Scaling highlights to large tables (§5.3).
//!
//! Highlights explain the *query*, not its full answer, so a large table can
//! be summarized by a handful of representative rows: one from `R_O` (rows
//! with colored cells), one from `R_E \ R_O` (rows with framed cells only)
//! and one from `R_C \ R_E` (rows only lit). Queries computing an arithmetic
//! difference keep two rows from `R_O`, one per subtracted value, exactly as
//! in Figure 7. Sampled rows keep their original table order.
//!
//! A sample is at most four record ids of the original table, picked from
//! the per-column record lists of `P_O` and `P_E` (`R_C` is every record
//! once any column is mentioned), and rendered straight from that table
//! with the full highlights.

use wtq_dcs::Formula;
use wtq_table::{RecordIdx, Table};

use crate::highlight::Highlights;
use crate::render;

/// A sampled view of a highlighted table: the rows it shows, read from the
/// original table with the original highlights. Nothing is copied: a
/// sampled row keeps its record index, its cells' classes and its table's
/// header labels, and the renderers size columns over the shown rows only.
#[derive(Debug, Clone)]
pub struct SampledHighlights<'a> {
    table: &'a Table,
    highlights: &'a Highlights,
    /// The records shown, ascending: at most [`MAX_SAMPLED_ROWS`], or every
    /// record of a table no larger than the sample.
    pub source_records: Vec<RecordIdx>,
}

impl SampledHighlights<'_> {
    /// [`render::render_text`] of the shown rows.
    pub fn render_text(&self) -> String {
        render::text_rows(
            self.table,
            self.highlights,
            self.source_records.iter().copied(),
        )
    }

    /// [`render::render_ansi`] of the shown rows.
    pub fn render_ansi(&self) -> String {
        render::ansi_rows(
            self.table,
            self.highlights,
            self.source_records.iter().copied(),
        )
    }

    /// [`render::render_html`] of the shown rows.
    pub fn render_html(&self) -> String {
        render::html_rows(
            self.table,
            self.highlights,
            self.source_records.iter().copied(),
        )
    }
}

/// Maximum number of rows a sampled view keeps (three provenance levels plus
/// one extra row for difference queries).
pub const MAX_SAMPLED_ROWS: usize = 4;

/// Sample at most [`MAX_SAMPLED_ROWS`] representative rows from a highlighted
/// table (§5.3). Keeps every row when the table is already small (no more
/// rows than the sample would contain).
pub fn sample_highlights<'a>(
    formula: &Formula,
    table: &'a Table,
    highlights: &'a Highlights,
) -> SampledHighlights<'a> {
    let output_records = highlights.output_records();
    let execution_records = highlights.execution_records();
    let is_output = |record: &RecordIdx| output_records.binary_search(record).is_ok();
    let is_examined = |record: &RecordIdx| execution_records.binary_search(record).is_ok();

    let mut selected: Vec<RecordIdx> = Vec::with_capacity(MAX_SAMPLED_ROWS);
    // One record from R_O — or two for difference queries, one per operand.
    let from_output = if is_difference(formula) { 2 } else { 1 };
    selected.extend(output_records.iter().take(from_output));
    // One record from R_E \ R_O.
    if let Some(&record) = execution_records
        .iter()
        .find(|r| !selected.contains(r) && !is_output(r))
    {
        selected.push(record);
    }
    // One record from R_C \ R_E: R_C is every record once a column is
    // mentioned.
    if !highlights.chain.columns.is_empty() {
        if let Some(record) = table
            .record_indices()
            .find(|r| !selected.contains(r) && !is_examined(r))
        {
            selected.push(record);
        }
    }
    // Degenerate queries (everything colored, or nothing highlighted): fall
    // back to the first rows so the sample is never empty.
    if selected.is_empty() {
        selected.extend(table.record_indices().take(MAX_SAMPLED_ROWS.min(3)));
    }
    selected.sort_unstable();
    selected.dedup();

    if selected.len() >= table.num_records() {
        selected = table.record_indices().collect();
    }
    SampledHighlights {
        table,
        highlights,
        source_records: selected,
    }
}

fn is_difference(formula: &Formula) -> bool {
    matches!(formula, Formula::Sub(_, _))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::highlight::HighlightKind;
    use wtq_dcs::parse_formula;
    use wtq_table::{samples, CellRef};

    /// The highlights of `text` over `table` and the records its sample
    /// shows.
    fn sampled(text: &str, table: &Table) -> (Highlights, Vec<RecordIdx>) {
        let formula = parse_formula(text).unwrap();
        let highlights = Highlights::compute(&formula, table).unwrap();
        let records = sample_highlights(&formula, table, &highlights).source_records;
        (highlights, records)
    }

    #[test]
    fn figure_seven_keeps_three_representative_rows() {
        // "What was the highest growth rate of Madagascar in the 1980s?" over
        // a large table: the sample keeps an output row, an examined row and
        // a lit-only row.
        let table = samples::growth_rate();
        let (highlights, records) = sampled("max(R[\"Growth Rate\"].Country.Madagascar)", &table);
        assert!(records.len() <= MAX_SAMPLED_ROWS);
        assert!(records.len() >= 2);
        // The sampled rows preserve original order.
        let mut sorted = records.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, records);
        // At least one colored cell survives the sampling.
        let growth = table.column_index("Growth Rate").unwrap();
        let colored = records
            .iter()
            .any(|&row| highlights.kind(CellRef::new(row, growth)) == HighlightKind::Colored);
        assert!(colored);
    }

    #[test]
    fn difference_queries_keep_two_output_rows() {
        let table = samples::medals();
        let (highlights, records) =
            sampled("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)", &table);
        let total = table.column_index("Total").unwrap();
        let colored_rows: Vec<usize> = records
            .iter()
            .copied()
            .filter(|&row| highlights.kind(CellRef::new(row, total)) == HighlightKind::Colored)
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
        let formula = parse_formula("R[B].A.1").unwrap();
        let highlights = Highlights::compute(&formula, &table).unwrap();
        let sample = sample_highlights(&formula, &table, &highlights);
        assert_eq!(sample.source_records, vec![0, 1]);
        assert_eq!(
            sample.render_text(),
            render::render_text(&table, &highlights)
        );
    }

    #[test]
    fn sampled_highlight_classes_match_original_rows() {
        // A sampled view shows each sampled record's own cells with their
        // classes: its rendering is the full rendering's lines of those
        // records, re-padded to the sampled rows' widths.
        let table = samples::growth_rate();
        let formula = parse_formula("max(R[\"Growth Rate\"].Country.Madagascar)").unwrap();
        let full = Highlights::compute(&formula, &table).unwrap();
        let sample = sample_highlights(&formula, &table, &full);
        let squeeze = |line: &str| line.split_whitespace().collect::<Vec<_>>().join(" ");
        let full_lines: Vec<String> = render::render_text(&table, &full)
            .lines()
            .map(squeeze)
            .collect();
        let sampled_lines: Vec<String> = sample.render_text().lines().map(squeeze).collect();
        assert_eq!(sampled_lines.len(), sample.source_records.len() + 1);
        assert_eq!(sampled_lines[0], full_lines[0], "header labels changed");
        for (line, &source) in sampled_lines[1..].iter().zip(&sample.source_records) {
            assert_eq!(*line, full_lines[source + 1], "record {source} changed");
        }
    }

    #[test]
    fn queries_without_highlights_still_produce_a_sample() {
        let table = samples::growth_rate();
        // A join that matches nothing: no colored/framed rows, only lit cells.
        let (_, records) = sampled("Country.Atlantis", &table);
        assert!(!records.is_empty());
    }
}
