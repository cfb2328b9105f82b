//! The ordered web-table relation of §3.1, stored columnar.
//!
//! Records are ordered top to bottom; each record has a unique `Index`
//! (0, 1, 2, …) and a `Prev` pointer to the record above it. Columns are
//! named, and cell values are typed [`Value`]s.
//!
//! Storage is column-major, and every column is one dictionary: an id per
//! cell into the column's distinct values, interned exactly (see
//! `column.rs`). Consumers never see it: they read cells through four
//! accessors (`value_at`, `eq_at`, `number_at`, `cell_text`) and
//! `record_values`, each of which reads one entry and defers to [`Value`]
//! itself. Accelerated reads (joins, ranges, orders, groupings) go through
//! the table's [`TableIndex`]. The serde wire format still speaks rows —
//! the columnar layout is an in-memory detail, byte-invisible on the wire.
//!
//! A table owns its [`TableIndex`], built on the first [`Table::index`]
//! call and shared with every clone of the table, so one table never
//! pays for two indexes and no index can answer for another table.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::cell::CellRef;
use crate::column::ColumnData;
use crate::error::TableError;
use crate::index::TableIndex;
use crate::value::Value;
use crate::Result;

/// Index of a record (row) within a table; identical to the paper's `Index`
/// attribute.
pub type RecordIdx = usize;

/// The inferred dominant type of a column, used by the semantic parser to
/// decide which operations are applicable (e.g. `sum` needs numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// Mostly textual cells.
    Text,
    /// Mostly numeric cells.
    Number,
    /// Mostly date cells.
    Date,
    /// No clear majority.
    Mixed,
}

/// A named column together with its inferred type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Header text, e.g. `"Country"`. Unique within its table.
    pub name: String,
    /// Dominant value type of the column's cells.
    pub column_type: ColumnType,
}

/// A single web table: a header row plus an ordered list of records.
///
/// Construct with [`TableBuilder`] or [`Table::from_rows`].
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    /// One dictionary per header, each holding `num_records` cells. The
    /// only place in the crate that knows the storage layout.
    cols: Vec<ColumnData>,
    num_records: usize,
    /// Precomputed content fingerprint: a hash of the table's shape
    /// (record count, normalized headers, column types) extended with
    /// every cell's exact bytes. Two tables with equal content
    /// fingerprints answer every question identically (up to hash
    /// collision), which is what answer caches and admission key on.
    /// Derived state: never serialized, recomputed on deserialize (see the
    /// manual serde impls below), so a hand-edited data file cannot smuggle
    /// in a fingerprint describing other contents.
    content_fingerprint: u64,
    /// The table's index, built on first use and shared by its clones.
    /// Derived state: serde and equality ignore it.
    index: SharedIndex,
}

/// The cell a table's index is built in, shared by the table's clones. The
/// shared cell is allocated by the first clone or the first build, so a
/// table that is never cloned or queried (one built only to be serialized)
/// allocates nothing for it.
#[derive(Default)]
struct SharedIndex(OnceLock<Arc<OnceLock<TableIndex>>>);

impl SharedIndex {
    fn cell(&self) -> &OnceLock<TableIndex> {
        self.0.get_or_init(Arc::default)
    }
}

impl Clone for SharedIndex {
    fn clone(&self) -> Self {
        // Allocate the shared cell first, so that the clone shares it.
        self.cell();
        SharedIndex(self.0.clone())
    }
}

impl fmt::Debug for SharedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedIndex").finish_non_exhaustive()
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        // Same observable contents as the row-major derive produced:
        // name, columns, and every cell under `Value` equality.
        self.name == other.name
            && self.columns == other.columns
            && self.num_records == other.num_records
            && (0..self.num_records).all(|r| {
                (0..self.cols.len()).all(|c| match self.cols[c].value_at(r) {
                    Some(v) => other.cols[c].eq_at(r, &v),
                    None => false,
                })
            })
    }
}

impl Serialize for Table {
    fn to_value(&self) -> serde::Value {
        // Field-name map matching what `#[derive(Serialize)]` produced when
        // the table stored `rows: Vec<Vec<Value>>` — the wire format is
        // byte-identical: rows are materialized from the columns, cell
        // values bit-exact.
        let rows: Vec<Vec<Value>> = (0..self.num_records)
            .map(|r| {
                self.cols
                    .iter()
                    .map(|col| col.value_at(r).expect("record in range"))
                    .collect()
            })
            .collect();
        serde::Value::Map(vec![
            ("name".to_string(), self.name.to_value()),
            ("columns".to_string(), self.columns.to_value()),
            ("rows".to_string(), rows.to_value()),
        ])
    }
}

impl Deserialize for Table {
    fn from_value(value: &serde::Value) -> std::result::Result<Table, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Table"))?;
        let name = String::from_value(serde::map_get(entries, "name"))?;
        let columns = Vec::<Column>::from_value(serde::map_get(entries, "columns"))?;
        let rows = Vec::<Vec<Value>>::from_value(serde::map_get(entries, "rows"))?;
        Ok(Table::from_parts(name, columns, rows))
    }
}

impl Table {
    /// Build a table from a name, header names and rows of cell text that will
    /// be value-parsed. Convenience for tests, samples and examples.
    pub fn from_rows<S: AsRef<str>>(
        name: &str,
        headers: &[S],
        rows: &[Vec<&str>],
    ) -> Result<Table> {
        let mut builder = TableBuilder::new(name);
        for header in headers {
            builder = builder.column(header.as_ref());
        }
        for row in rows {
            builder = builder.row_text(row)?;
        }
        builder.build()
    }

    /// Assemble from already-validated parts, transposing row-major cells
    /// into column dictionaries. Short rows are padded with empty cells,
    /// extra cells dropped (data files are written by us, so ragged rows
    /// only arise from hand edits).
    fn from_parts(name: String, columns: Vec<Column>, rows: Vec<Vec<Value>>) -> Table {
        let num_records = rows.len();
        let mut per_column: Vec<Vec<Value>> = columns
            .iter()
            .map(|_| Vec::with_capacity(num_records))
            .collect();
        for row in rows {
            let mut cells = row.into_iter();
            for column in per_column.iter_mut() {
                column.push(cells.next().unwrap_or_else(|| Value::Str(String::new())));
            }
        }
        let cols: Vec<ColumnData> = per_column
            .into_iter()
            .map(ColumnData::from_values)
            .collect();
        // The fingerprint is derived, not trusted from the data file.
        let content_fingerprint =
            content_fingerprint(shape_fingerprint(&columns, num_records), &cols);
        Table {
            name,
            columns,
            cols,
            num_records,
            content_fingerprint,
            index: SharedIndex::default(),
        }
    }

    /// The table's name (used by [`crate::Catalog`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The precomputed content fingerprint: a 64-bit FNV-1a hash of the
    /// record count, column count, case-normalized header names and
    /// inferred column types, extended with every cell's exact bytes.
    /// Differing cells produce differing fingerprints (up to hash
    /// collision), so equal content fingerprints mean the tables answer
    /// every question identically — the property answer caches and
    /// admission need. The table *name* is excluded: renaming a table does
    /// not change its answers.
    pub fn content_fingerprint(&self) -> u64 {
        self.content_fingerprint
    }

    /// The table's [`TableIndex`], built on the first call and shared by
    /// every clone of the table. Concurrent first calls build it once.
    pub fn index(&self) -> &TableIndex {
        self.index.cell().get_or_init(|| TableIndex::new(self))
    }

    /// All columns in header order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of records (rows).
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Whether the table has no records.
    pub fn is_empty(&self) -> bool {
        self.num_records == 0
    }

    /// Index of the column with the given (case-insensitive) header.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name.trim()))
    }

    /// Like [`Table::column_index`] but returns an error naming the column.
    pub fn require_column(&self, name: &str) -> Result<usize> {
        self.column_index(name)
            .ok_or_else(|| TableError::UnknownColumn(name.to_string()))
    }

    /// Header name of a column by index.
    pub fn column_name(&self, column: usize) -> &str {
        &self.columns[column].name
    }

    /// Inferred type of a column by index.
    pub fn column_type(&self, column: usize) -> ColumnType {
        self.columns[column].column_type
    }

    /// Materialize the record (row) at `index` as owned values — the one
    /// sanctioned row materializer, for `SELECT *` projections, CSV export
    /// and sampling. Everything else should use the cell accessors below.
    pub fn record_values(&self, index: RecordIdx) -> Result<Vec<Value>> {
        if index >= self.num_records {
            return Err(TableError::RecordOutOfBounds {
                index,
                len: self.num_records,
            });
        }
        Ok(self
            .cols
            .iter()
            .map(|col| col.value_at(index).expect("record in range"))
            .collect())
    }

    /// Value of the cell at `(record, column)`, if in bounds. Owned: exactly
    /// the value the table was built with, bit for bit.
    pub fn value_at(&self, record: RecordIdx, column: usize) -> Option<Value> {
        self.cols.get(column).and_then(|col| col.value_at(record))
    }

    /// Display text of the cell at a [`CellRef`] — the provenance
    /// renderers' shim; equals `value.to_string()` of the cell. Panics on an
    /// out-of-range column (cell refs are only produced by evaluation over
    /// the same table, so OOB is a logic error).
    pub fn cell_text(&self, cell: CellRef) -> String {
        self.cols[cell.column].text_at(cell.record)
    }

    /// The cell's numeric content (`Value::as_number` semantics) without
    /// materializing a [`Value`]. `None` out of bounds or non-numeric.
    pub fn number_at(&self, record: RecordIdx, column: usize) -> Option<f64> {
        self.cols.get(column).and_then(|col| col.number_at(record))
    }

    /// Whether the cell at `(record, column)` equals `needle` under
    /// [`Value`] equality, without materializing the cell. `false` out of
    /// bounds.
    pub fn eq_at(&self, record: RecordIdx, column: usize, needle: &Value) -> bool {
        self.cols
            .get(column)
            .is_some_and(|col| col.eq_at(record, needle))
    }

    /// All record indices `0..n`, in table order.
    pub fn record_indices(&self) -> impl Iterator<Item = RecordIdx> {
        0..self.num_records()
    }

    /// The `Prev` pointer of §3.1: the record directly above, if any.
    pub fn prev_record(&self, record: RecordIdx) -> Option<RecordIdx> {
        if record == 0 || record >= self.num_records() {
            None
        } else {
            Some(record - 1)
        }
    }

    /// The inverse of `Prev` (`R[Prev]` in lambda DCS): the record directly
    /// below, if any.
    pub fn next_record(&self, record: RecordIdx) -> Option<RecordIdx> {
        let next = record + 1;
        (next < self.num_records()).then_some(next)
    }

    /// Distinct values appearing in `column`, in first-appearance order.
    pub fn distinct_column_values(&self, column: usize) -> Vec<Value> {
        let mut seen: HashSet<Value> = HashSet::new();
        let mut out = Vec::new();
        for record in 0..self.num_records {
            let v = self.cols[column].value_at(record).expect("record in range");
            if seen.insert(v.clone()) {
                out.push(v);
            }
        }
        out
    }

    /// Render as a plain-text grid (used by examples and error messages).
    pub fn to_text_grid(&self) -> String {
        let texts: Vec<Vec<String>> = (0..self.num_records)
            .map(|r| self.cols.iter().map(|col| col.text_at(r)).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name.len()).collect();
        for row in &texts {
            for (i, text) in row.iter().enumerate() {
                widths[i] = widths[i].max(text.len());
            }
        }
        let mut out = String::new();
        for (i, column) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", column.name, width = widths[i]));
        }
        out.push('\n');
        for row in &texts {
            for (i, text) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", text, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text_grid())
    }
}

/// Incremental builder for [`Table`].
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl TableBuilder {
    /// Start a new table with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Append a column header. Must be called before any rows are added.
    pub fn column(mut self, name: impl Into<String>) -> Self {
        self.columns.push(name.into());
        self
    }

    /// Append several column headers at once.
    pub fn columns<S: Into<String>, I: IntoIterator<Item = S>>(mut self, names: I) -> Self {
        self.columns.extend(names.into_iter().map(Into::into));
        self
    }

    /// Append a row of already-typed values.
    pub fn row(mut self, values: Vec<Value>) -> Result<Self> {
        if values.len() != self.columns.len() {
            return Err(TableError::RowArity {
                expected: self.columns.len(),
                got: values.len(),
                row: self.rows.len(),
            });
        }
        self.rows.push(values);
        Ok(self)
    }

    /// Append a row of textual cells that will be value-parsed.
    pub fn row_text<S: AsRef<str>>(self, cells: &[S]) -> Result<Self> {
        let values = cells.iter().map(|c| Value::parse(c.as_ref())).collect();
        self.row(values)
    }

    /// Finalize the table, inferring column types, validating headers and
    /// transposing the accumulated rows into column dictionaries.
    pub fn build(self) -> Result<Table> {
        if self.columns.is_empty() {
            return Err(TableError::EmptyTable);
        }
        let mut seen = HashSet::new();
        for name in &self.columns {
            if !seen.insert(name.to_ascii_lowercase()) {
                return Err(TableError::DuplicateColumn(name.clone()));
            }
        }
        let columns: Vec<Column> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, name)| Column {
                name: name.clone(),
                column_type: infer_column_type(&self.rows, i),
            })
            .collect();
        Ok(Table::from_parts(self.name, columns, self.rows))
    }
}

/// FNV-1a over the table's shape: record count, column count,
/// length-prefixed lowercase header names and column types. The seed of the
/// content fingerprint.
fn shape_fingerprint(columns: &[Column], num_records: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut write = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    write(&(num_records as u64).to_le_bytes());
    write(&(columns.len() as u64).to_le_bytes());
    for column in columns {
        // Length-prefixed so adjacent names cannot alias each other.
        write(&(column.name.len() as u64).to_le_bytes());
        for byte in column.name.bytes() {
            write(&[byte.to_ascii_lowercase()]);
        }
        write(&[column_type_tag(column.column_type)]);
    }
    hash
}

/// Extend the shape fingerprint with every column's cell contents (FNV-1a
/// over the canonical bytes each [`ColumnData`] emits). Seeding with the
/// shape hash means shape differences and content differences both
/// perturb the result.
fn content_fingerprint(shape: u64, cols: &[ColumnData]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = shape;
    let mut write = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    for col in cols {
        col.hash_content(&mut write);
    }
    hash
}

fn column_type_tag(column_type: ColumnType) -> u8 {
    match column_type {
        ColumnType::Text => 0,
        ColumnType::Number => 1,
        ColumnType::Date => 2,
        ColumnType::Mixed => 3,
    }
}

/// A column's type is the strict-majority type of its non-empty cells.
fn infer_column_type(rows: &[Vec<Value>], column: usize) -> ColumnType {
    let mut text = 0usize;
    let mut number = 0usize;
    let mut date = 0usize;
    let mut total = 0usize;
    for row in rows {
        match &row[column] {
            Value::Str(s) if s.is_empty() => continue,
            Value::Str(_) => text += 1,
            Value::Num(_) => number += 1,
            Value::Date(_) => date += 1,
        }
        total += 1;
    }
    if total == 0 {
        return ColumnType::Text;
    }
    let half = total / 2;
    if number > half {
        ColumnType::Number
    } else if date > half {
        ColumnType::Date
    } else if text > half {
        ColumnType::Text
    } else {
        ColumnType::Mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                vec!["2016", "Brazil", "Rio de Janeiro"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_and_reports_shape() {
        let t = olympics();
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.num_records(), 6);
        assert_eq!(t.column_name(1), "Country");
        assert_eq!(t.column_type(0), ColumnType::Number);
        assert_eq!(t.column_type(2), ColumnType::Text);
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let t = olympics();
        assert_eq!(t.column_index("country"), Some(1));
        assert_eq!(t.column_index(" CITY "), Some(2));
        assert_eq!(t.column_index("Missing"), None);
        assert!(t.require_column("Missing").is_err());
    }

    #[test]
    fn prev_and_next_record_pointers() {
        let t = olympics();
        assert_eq!(t.prev_record(0), None);
        assert_eq!(t.prev_record(3), Some(2));
        assert_eq!(t.next_record(5), None);
        assert_eq!(t.next_record(2), Some(3));
        assert_eq!(t.prev_record(99), None);
    }

    #[test]
    fn cell_accessors_agree_with_materialized_values() {
        let t = olympics();
        for r in t.record_indices() {
            for c in 0..t.num_columns() {
                let v = t.value_at(r, c).unwrap();
                assert!(t.eq_at(r, c, &v));
                assert_eq!(t.number_at(r, c), v.as_number());
                assert_eq!(t.cell_text(CellRef::new(r, c)), v.to_string());
            }
        }
        assert_eq!(t.value_at(6, 0), None);
        assert_eq!(t.number_at(6, 0), None);
        assert!(!t.eq_at(6, 0, &Value::num(1896.0)));
    }

    #[test]
    fn distinct_values_preserve_first_appearance_order() {
        let t = olympics();
        let col = t.column_index("Country").unwrap();
        let distinct = t.distinct_column_values(col);
        assert_eq!(distinct[0], Value::str("Greece"));
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn builder_rejects_bad_shapes() {
        let err = TableBuilder::new("t").build().unwrap_err();
        assert_eq!(err, TableError::EmptyTable);

        let err = TableBuilder::new("t")
            .column("A")
            .column("a")
            .row_text(&["1", "2"])
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumn(_)));

        let err = TableBuilder::new("t")
            .column("A")
            .row_text(&["1", "2"])
            .unwrap_err();
        assert!(matches!(
            err,
            TableError::RowArity {
                expected: 1,
                got: 2,
                row: 0
            }
        ));
    }

    #[test]
    fn record_out_of_bounds_is_an_error() {
        let t = olympics();
        assert!(t.record_values(5).is_ok());
        assert_eq!(
            t.record_values(2).unwrap(),
            vec![
                Value::num(2004.0),
                Value::str("Greece"),
                Value::str("Athens")
            ]
        );
        assert!(matches!(
            t.record_values(6),
            Err(TableError::RecordOutOfBounds { index: 6, len: 6 })
        ));
    }

    #[test]
    fn text_grid_contains_headers_and_cells() {
        let grid = olympics().to_text_grid();
        assert!(grid.contains("Country"));
        assert!(grid.contains("Rio de Janeiro"));
        assert_eq!(grid.lines().count(), 7);
    }

    #[test]
    fn content_fingerprint_captures_cell_contents_not_name() {
        let a = olympics();
        // Identical contents under a different name: same content
        // fingerprint (renaming a table does not change its answers).
        let renamed = Table::from_rows(
            "other-name",
            &["Year", "Country", "City"],
            &[
                vec!["1896", "Greece", "Athens"],
                vec!["1900", "France", "Paris"],
                vec!["2004", "Greece", "Athens"],
                vec!["2008", "China", "Beijing"],
                vec!["2012", "UK", "London"],
                vec!["2016", "Brazil", "Rio de Janeiro"],
            ],
        )
        .unwrap();
        assert_eq!(a.content_fingerprint(), renamed.content_fingerprint());
        // `a` under other headers, with the first record's cell in `column`
        // set to `cell`.
        let rebuilt = |names: &[&str], column: usize, cell: Value| {
            let mut builder = TableBuilder::new("olympics").columns(names.iter().copied());
            for r in a.record_indices() {
                let mut row = a.record_values(r).unwrap();
                if r == 0 {
                    row[column] = cell.clone();
                }
                builder = builder.row(row).unwrap();
            }
            builder.build().unwrap().content_fingerprint()
        };
        let headers = ["Year", "Country", "City"];
        let athens = || Value::str("Athens");
        // Headers count case-insensitively, like column lookup; renaming a
        // header changes the table's answers, and so its fingerprint.
        assert_eq!(
            rebuilt(&["YEAR", "country", "city"], 2, athens()),
            a.content_fingerprint()
        );
        assert_ne!(
            rebuilt(&["Year", "Country", "Town"], 2, athens()),
            a.content_fingerprint()
        );
        // A cell that changes only in its bits changes the fingerprint.
        assert_ne!(
            rebuilt(&headers, 2, Value::str("athens")),
            a.content_fingerprint()
        );
        assert_ne!(
            rebuilt(&headers, 0, Value::num(0.0)),
            rebuilt(&headers, 0, Value::num(-0.0))
        );
        // Same shape, one cell edited: the content fingerprint differs.
        let edited = Table::from_rows(
            "olympics",
            &["Year", "Country", "City"],
            &[
                vec!["1896", "Greece", "Athens"],
                vec!["1900", "France", "Paris"],
                vec!["2004", "Greece", "Athens"],
                vec!["2008", "China", "Shanghai"],
                vec!["2012", "UK", "London"],
                vec!["2016", "Brazil", "Rio de Janeiro"],
            ],
        )
        .unwrap();
        assert_eq!(a.columns(), edited.columns());
        assert_ne!(a.content_fingerprint(), edited.content_fingerprint());
        // It survives the serde roundtrip (recomputed, never serialized).
        let restored = Table::from_value(&a.to_value()).unwrap();
        assert_eq!(restored.content_fingerprint(), a.content_fingerprint());
    }

    #[test]
    fn serde_omits_the_fingerprint_and_recomputes_it() {
        let table = olympics();
        let serialized = table.to_value();
        // The wire format carries only the real data — no derived state a
        // hand-edited file could get wrong.
        let entries = serialized.as_map().unwrap();
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["name", "columns", "rows"]);
        let restored = Table::from_value(&serialized).unwrap();
        assert_eq!(restored, table);
        assert_eq!(restored.content_fingerprint(), table.content_fingerprint());
        // A pre-fingerprint data file (same three fields) still loads, and
        // the fingerprint always reflects the deserialized contents.
        let mut tampered_rows: Vec<Vec<Value>> = restored
            .record_indices()
            .map(|r| restored.record_values(r).unwrap())
            .collect();
        tampered_rows.pop();
        let tampered = serde::Value::Map(vec![
            ("name".to_string(), table.name.to_value()),
            ("columns".to_string(), table.columns.to_value()),
            ("rows".to_string(), tampered_rows.to_value()),
        ]);
        let shorter = Table::from_value(&tampered).unwrap();
        assert_ne!(shorter.content_fingerprint(), table.content_fingerprint());
    }

    #[test]
    fn the_index_is_built_once_and_shared_by_clones_only() {
        let table = olympics();
        let clone = table.clone();
        let index: *const TableIndex = table.index();
        assert!(std::ptr::eq(index, table.index()), "built once");
        assert!(std::ptr::eq(index, clone.index()), "shared by the clone");
        // Equal contents are not the same table: a deserialized copy and a
        // rebuilt twin each own their index, and equality ignores it.
        let restored = Table::from_value(&table.to_value()).unwrap();
        let twin = olympics();
        assert_eq!(restored, table);
        assert_eq!(twin, table);
        assert!(!std::ptr::eq(index, restored.index()));
        assert!(!std::ptr::eq(index, twin.index()));
        assert_eq!(twin.index().num_records(), table.num_records());
    }

    #[test]
    fn mixed_column_type_detected() {
        let t = Table::from_rows(
            "mixed",
            &["A"],
            &[vec!["1"], vec!["x"], vec!["2"], vec!["y"]],
        )
        .unwrap();
        assert_eq!(t.column_type(0), ColumnType::Mixed);
    }
}
