//! A named collection of tables.
//!
//! The WikiTableQuestions benchmark pairs each question with one of ~2,100
//! tables; a [`Catalog`] is the in-memory registry the dataset, parser and
//! study crates use to look tables up by name.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::TableError;
use crate::table::Table;
use crate::Result;

/// A serializable description of one registered table — what a serving
/// layer's `list_tables` surface hands to clients so they can reference
/// preloaded tables by name instead of shipping rows per request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSummary {
    /// The table's registry name (the key clients use in requests).
    pub name: String,
    /// Number of data records.
    pub records: usize,
    /// Column headers, in table order.
    pub columns: Vec<String>,
    /// The table's content fingerprint ([`Table::content_fingerprint`]) as
    /// a fixed-width hex string — hex rather than a JSON number because the
    /// full 64 bits do not survive an f64 round-trip.
    pub fingerprint: String,
}

impl TableSummary {
    /// Summarize one table.
    pub fn of(table: &Table) -> TableSummary {
        TableSummary {
            name: table.name().to_string(),
            records: table.num_records(),
            columns: table
                .columns()
                .iter()
                .map(|column| column.name.clone())
                .collect(),
            fingerprint: format!("{:016x}", table.content_fingerprint()),
        }
    }
}

/// A registry of tables keyed by their name.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Insert a table under its own name, replacing any previous table with
    /// the same name. Returns the previous table if one was replaced.
    pub fn insert(&mut self, table: Table) -> Option<Table> {
        self.tables.insert(table.name().to_string(), table)
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Look up a table by name, producing an error if absent.
    pub fn require(&self, name: &str) -> Result<&Table> {
        self.get(name)
            .ok_or_else(|| TableError::UnknownTable(name.to_string()))
    }

    /// Remove a table by name.
    pub fn remove(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name)
    }

    /// Number of tables in the catalog.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterate over tables in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Iterate over table names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Serializable summaries of every registered table, in name order —
    /// the registry listing a serving layer exposes to clients.
    pub fn summaries(&self) -> Vec<TableSummary> {
        self.tables.values().map(TableSummary::of).collect()
    }

    /// Summary of one table by name.
    pub fn summary(&self, name: &str) -> Option<TableSummary> {
        self.get(name).map(TableSummary::of)
    }
}

impl FromIterator<Table> for Catalog {
    fn from_iter<I: IntoIterator<Item = Table>>(iter: I) -> Self {
        let mut catalog = Catalog::new();
        for table in iter {
            catalog.insert(table);
        }
        catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Table {
        Table::from_rows(name, &["A"], &[vec!["1"]]).unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut catalog = Catalog::new();
        assert!(catalog.is_empty());
        assert!(catalog.insert(tiny("a")).is_none());
        assert!(catalog.insert(tiny("b")).is_none());
        assert_eq!(catalog.len(), 2);
        assert!(catalog.get("a").is_some());
        assert!(catalog.require("c").is_err());
        assert!(catalog.remove("a").is_some());
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn insert_replaces_and_returns_previous() {
        let mut catalog = Catalog::new();
        catalog.insert(tiny("a"));
        let replaced = catalog.insert(tiny("a"));
        assert!(replaced.is_some());
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn summaries_describe_the_registry() {
        let catalog: Catalog = vec![
            Table::from_rows("b", &["X", "Y"], &[vec!["1", "2"], vec!["3", "4"]]).unwrap(),
            tiny("a"),
        ]
        .into_iter()
        .collect();
        let summaries = catalog.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].name, "a");
        assert_eq!(summaries[1].name, "b");
        assert_eq!(summaries[1].records, 2);
        assert_eq!(summaries[1].columns, vec!["X", "Y"]);
        assert_eq!(summaries[1].fingerprint.len(), 16);
        assert_eq!(
            summaries[1].fingerprint,
            format!("{:016x}", catalog.get("b").unwrap().content_fingerprint())
        );
        assert_eq!(catalog.summary("a"), Some(summaries[0].clone()));
        assert_eq!(catalog.summary("missing"), None);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let catalog: Catalog = vec![tiny("zeta"), tiny("alpha"), tiny("mid")]
            .into_iter()
            .collect();
        let names: Vec<&str> = catalog.names().collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
