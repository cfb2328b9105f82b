//! Knowledge-base view of a table (§3.1).
//!
//! The paper views a table as `K ⊆ E × P × E`: entities `E` are all cell
//! values plus all records, and each column header is a binary property
//! mapping a cell value to the records in which it appears. This module is a
//! thin view over the table's own [`TableIndex`] (which materializes the
//! inverted indexes): the evaluator and the semantic parser answer
//! `Column.value` joins and entity-linking lookups without scanning the
//! table repeatedly, and — because the table owns its index — without
//! rebuilding it per question or per evaluation session.

use crate::cell::CellRef;
use crate::index::TableIndex;
use crate::table::{RecordIdx, Table};
use crate::value::Value;

pub use crate::index::ColumnIndex;

/// The knowledge-base view of one table.
#[derive(Debug, Clone)]
pub struct KnowledgeBase<'a> {
    table: &'a Table,
    index: &'a TableIndex,
}

impl<'a> KnowledgeBase<'a> {
    /// The KB view of `table`, over the table's own index ([`Table::index`],
    /// built on first use).
    pub fn new(table: &'a Table) -> Self {
        KnowledgeBase {
            table,
            index: table.index(),
        }
    }

    /// The underlying table (borrowed for the view's full lifetime).
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// The table's columnar index backing this view.
    pub fn index(&self) -> &'a TableIndex {
        self.index
    }

    /// Index for a column.
    pub fn column(&self, column: usize) -> &ColumnIndex {
        self.index.column(column)
    }

    /// Records with `value` in `column` — the binary relation application
    /// `Column.value` (e.g. `Country.Greece`).
    pub fn join(&self, column: usize, value: &Value) -> &[RecordIdx] {
        self.index.records_with_value(column, value)
    }

    /// All cells in `column` whose value equals `value` (used by the
    /// provenance rule for *Column Records* in Table 10).
    pub fn matching_cells(&self, column: usize, value: &Value) -> Vec<CellRef> {
        self.index.matching_cells(column, value)
    }

    /// Every `(column, value)` pair of a distinct value with
    /// `value.matches_text(text)`, sorted by column then value — entity
    /// linking of question phrases to the table, answered from the shared
    /// index's text index (built on the first link against the table).
    pub fn link_text(&self, text: &str) -> Vec<(usize, Value)> {
        let mut out: Vec<(usize, Value)> = self
            .index
            .text()
            .matches(text)
            .into_iter()
            .map(|cell| (cell.column, self.value_of(cell)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        out
    }

    /// Every `(column, value)` pair of a distinct value whose lowercased
    /// text contains `word` as a word without being exactly `word`
    /// ("erie" → "Lake Erie"), column by column in first-appearance order.
    pub fn link_word<'s>(&'s self, word: &str) -> impl Iterator<Item = (usize, Value)> + 's {
        self.index
            .text()
            .containing_word(word)
            .map(|cell| (cell.column, self.value_of(cell)))
    }

    fn value_of(&self, cell: CellRef) -> Value {
        self.table
            .value_at(cell.record, cell.column)
            .expect("text index cells lie in the table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn olympics() -> Table {
        Table::from_rows(
            "olympics",
            &["Year", "Country", "City"],
            &[
                vec!["1896", "Greece", "Athens"],
                vec!["1900", "France", "Paris"],
                vec!["2004", "Greece", "Athens"],
                vec!["2008", "China", "Beijing"],
                vec!["2012", "UK", "London"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn join_returns_matching_records() {
        let table = olympics();
        let kb = KnowledgeBase::new(&table);
        let country = table.column_index("Country").unwrap();
        assert_eq!(kb.join(country, &Value::str("Greece")), &[0, 2]);
        assert_eq!(kb.join(country, &Value::str("Atlantis")), &[] as &[usize]);
    }

    #[test]
    fn matching_cells_point_into_the_right_column() {
        let table = olympics();
        let kb = KnowledgeBase::new(&table);
        let city = table.column_index("City").unwrap();
        let cells = kb.matching_cells(city, &Value::str("Athens"));
        assert_eq!(cells, vec![CellRef::new(0, city), CellRef::new(2, city)]);
    }

    #[test]
    fn link_text_finds_entities_case_insensitively() {
        let table = olympics();
        let kb = KnowledgeBase::new(&table);
        let links = kb.link_text("greece");
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, table.column_index("Country").unwrap());
        assert_eq!(links[0].1, Value::str("Greece"));
        // Numbers link too.
        let links = kb.link_text("2008");
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, table.column_index("Year").unwrap());
    }

    #[test]
    fn link_word_finds_values_containing_the_word() {
        let table = Table::from_rows(
            "wrecks",
            &["Lake", "Ships"],
            &[
                vec!["Lake Erie", "3"],
                vec!["Lake Huron", "5"],
                vec!["LAKE ERIE", "2"],
                vec!["Erie", "1"],
            ],
        )
        .unwrap();
        let kb = KnowledgeBase::new(&table);
        // "Erie" itself is the whole value, not a word inside it, and the
        // upper-case row repeats the first value.
        let links: Vec<(usize, Value)> = kb.link_word("erie").collect();
        assert_eq!(links, vec![(0, Value::str("Lake Erie"))]);
        assert_eq!(kb.link_word("lake").count(), 2);
        assert_eq!(kb.link_word("ontario").count(), 0);
    }

    #[test]
    fn distinct_counts_match_table() {
        let table = olympics();
        let kb = KnowledgeBase::new(&table);
        let country = table.column_index("Country").unwrap();
        assert_eq!(kb.column(country).num_distinct(), 4);
    }
}
