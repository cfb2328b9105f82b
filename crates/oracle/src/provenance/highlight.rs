//! Provenance-based highlights (Algorithm 1, §5.2).
//!
//! The `Highlight(Q, T, output)` procedure divides the table's cells into
//! four categories based on the multilevel provenance chain:
//!
//! * **colored** cells are `P_O(Q, T)` — the output of the query or the cells
//!   feeding its aggregate result,
//! * **framed** cells are `P_E(Q, T)` — cells examined during execution,
//! * **lit** cells are `P_C(Q, T)` — cells of columns projected or aggregated
//!   on by the query,
//! * all other cells are unrelated and receive no highlight.
//!
//! Aggregate functions are marked on the header of the column they apply to
//! (the `MAX(Year)` header of Figure 1).

use std::collections::BTreeMap;

use wtq_dcs::{Evaluator, Formula};
use wtq_table::{CellRef, Table};

use wtq_provenance::{HighlightKind, OpMarker};

use super::model::ProvenanceChain;
use super::rules::provenance_with;

/// The result of running Algorithm 1 on a query and table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Highlights {
    /// The underlying provenance chain.
    pub chain: ProvenanceChain,
    /// Aggregate / difference markers per column header.
    pub header_marks: BTreeMap<usize, Vec<OpMarker>>,
    num_records: usize,
    num_columns: usize,
}

impl Highlights {
    /// Run `Highlight(Q, T, output = true)`: compute the provenance chain and
    /// derive the per-cell highlight classification.
    pub fn compute(formula: &Formula, table: &Table) -> wtq_dcs::Result<Highlights> {
        Highlights::compute_with(formula, &Evaluator::new(table))
    }

    /// [`Highlights::compute`] on an existing evaluator session of the table
    /// (see [`provenance_with`]).
    pub fn compute_with(
        formula: &Formula,
        evaluator: &Evaluator<'_>,
    ) -> wtq_dcs::Result<Highlights> {
        let chain = provenance_with(formula, evaluator)?;
        Ok(Highlights::from_chain(chain, evaluator.table()))
    }

    /// Build highlights from an already-computed provenance chain.
    pub fn from_chain(chain: ProvenanceChain, table: &Table) -> Highlights {
        let mut header_marks: BTreeMap<usize, Vec<OpMarker>> = BTreeMap::new();
        for (column, marker) in &chain.markers {
            if let Some(column) = column {
                let entry = header_marks.entry(*column).or_default();
                if !entry.contains(marker) {
                    entry.push(*marker);
                }
            }
        }
        Highlights {
            chain,
            header_marks,
            num_records: table.num_records(),
            num_columns: table.num_columns(),
        }
    }

    /// The highlight classification of one cell.
    pub fn kind(&self, cell: CellRef) -> HighlightKind {
        if self.chain.output.contains(&cell) {
            HighlightKind::Colored
        } else if self.chain.execution.contains(&cell) {
            HighlightKind::Framed
        } else if self.chain.columns.contains(&cell) {
            HighlightKind::Lit
        } else {
            HighlightKind::None
        }
    }

    /// The header decoration of a column, e.g. `MAX(Year)` for Figure 1.
    pub fn header_label(&self, table: &Table, column: usize) -> String {
        let name = table.column_name(column);
        match self.header_marks.get(&column) {
            Some(marks) if !marks.is_empty() => {
                let prefix: Vec<String> = marks.iter().map(|m| m.label()).collect();
                format!("{}({})", prefix.join("+"), name)
            }
            _ => name.to_string(),
        }
    }

    /// Number of cells in each class `(colored, framed-only, lit-only)`.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        (
            self.chain.output.len(),
            self.chain.examined_only().len(),
            self.chain.column_only().len(),
        )
    }

    /// Records (row indices) containing at least one colored cell (`R_O` of
    /// §5.3).
    pub fn output_records(&self) -> Vec<usize> {
        records_of(&self.chain.output)
    }

    /// Records containing at least one framed-or-colored cell (`R_E`).
    pub fn execution_records(&self) -> Vec<usize> {
        records_of(&self.chain.execution)
    }

    /// Records containing at least one lit cell (`R_C`).
    pub fn column_records(&self) -> Vec<usize> {
        records_of(&self.chain.columns)
    }

    /// The table shape these highlights were computed against.
    pub fn shape(&self) -> (usize, usize) {
        (self.num_records, self.num_columns)
    }

    /// Whether two highlight maps are visually identical (same classification
    /// for every cell and same header marks) — the §5.2 observation that
    /// different queries may share highlights.
    pub fn visually_equal(&self, other: &Highlights) -> bool {
        self.shape() == other.shape()
            && self.header_marks == other.header_marks
            && (0..self.num_records).all(|record| {
                (0..self.num_columns).all(|column| {
                    let cell = CellRef::new(record, column);
                    self.kind(cell) == other.kind(cell)
                })
            })
    }
}

fn records_of(cells: &std::collections::BTreeSet<CellRef>) -> Vec<usize> {
    let mut records: Vec<usize> = cells.iter().map(|cell| cell.record).collect();
    records.sort_unstable();
    records.dedup();
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::parse_formula;
    use wtq_table::samples;

    fn highlights(text: &str, table: &Table) -> Highlights {
        Highlights::compute(&parse_formula(text).unwrap(), table).unwrap()
    }

    #[test]
    fn figure_one_highlights() {
        let table = samples::olympics();
        let h = highlights("max(R[Year].Country.Greece)", &table);
        let year = table.column_index("Year").unwrap();
        let country = table.column_index("Country").unwrap();
        let city = table.column_index("City").unwrap();
        // The Year cells of the Greece rows feed the max: colored.
        assert_eq!(h.kind(CellRef::new(0, year)), HighlightKind::Colored);
        assert_eq!(h.kind(CellRef::new(5, year)), HighlightKind::Colored);
        // The Greece cells themselves were examined: framed.
        assert_eq!(h.kind(CellRef::new(0, country)), HighlightKind::Framed);
        assert_eq!(h.kind(CellRef::new(5, country)), HighlightKind::Framed);
        // Other cells of the two mentioned columns are lit.
        assert_eq!(h.kind(CellRef::new(1, year)), HighlightKind::Lit);
        assert_eq!(h.kind(CellRef::new(1, country)), HighlightKind::Lit);
        // The City column is unrelated.
        assert_eq!(h.kind(CellRef::new(0, city)), HighlightKind::None);
        // The Year header carries the MAX marker.
        assert_eq!(h.header_label(&table, year), "MAX(Year)");
        assert_eq!(h.header_label(&table, city), "City");
    }

    #[test]
    fn figure_six_class_counts() {
        let table = samples::medals();
        let h = highlights("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)", &table);
        let (colored, framed, lit) = h.class_counts();
        assert_eq!(colored, 2); // 130 and 20
        assert_eq!(framed, 2); // Fiji and Tonga
        assert_eq!(lit, 2 * table.num_records() - 4);
    }

    #[test]
    fn identical_highlights_for_different_queries() {
        // §5.2: different formulas can share a highlight map ("more than 4"
        // vs "at least 5"); the user must fall back to the utterances to tell
        // them apart.
        let table = samples::squad();
        let a = highlights("Games.(> 4)", &table);
        let b = highlights("Games.(>= 5)", &table);
        assert!(a.visually_equal(&b));
        // A genuinely different query does not.
        let c = highlights("Games.(< 3)", &table);
        assert!(!a.visually_equal(&c));
        // The paper's second phrasing ("at least 5 and also less than 17")
        // keeps the same colored cells and lit columns; only the framed set
        // may grow with the extra examined comparison.
        let d = highlights("(Games.(>= 5) and Games.(< 17))", &table);
        assert_eq!(a.chain.output, d.chain.output);
        assert_eq!(a.chain.columns, d.chain.columns);
    }

    #[test]
    fn record_sets_follow_the_chain() {
        let table = samples::olympics();
        let h = highlights("max(R[Year].Country.Greece)", &table);
        assert_eq!(h.output_records(), vec![0, 5]);
        assert_eq!(h.execution_records(), vec![0, 5]);
        assert_eq!(h.column_records().len(), table.num_records());
    }

    #[test]
    fn count_marks_the_counted_column() {
        // Figure 16: the number of rows where City is Athens.
        let table = samples::olympics();
        let h = highlights("count(City.Athens)", &table);
        let city = table.column_index("City").unwrap();
        assert_eq!(h.header_label(&table, city), "COUNT(City)");
    }
}
