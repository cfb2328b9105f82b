//! The ordered web-table relation of §3.1, stored columnar.
//!
//! Records are ordered top to bottom; each record has a unique `Index`
//! (0, 1, 2, …) and a `Prev` pointer to the record above it. Columns are
//! named, and cell values are typed [`Value`]s.
//!
//! Storage is column-major: each column lives in the densest typed vector
//! its cells admit (see [`crate::column::ColumnData`]) — flat `f64`s with a
//! null bitmap, dictionary-encoded strings, packed date ordinals, or a
//! `Vec<Value>` fallback for heterogeneous columns. Consumers never see the
//! layout: they go through the accessor API (`value_at`, `eq_at`,
//! `number_at`, `cell_text`, `record_values`) or the batch kernels
//! (`filter_eq`, `filter_in`, `filter_num`), all of
//! which reproduce the exact per-row [`Value`] semantics the row-major
//! representation had. The serde wire format still speaks rows — the
//! columnar layout is an in-memory detail, byte-invisible on the wire.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

use crate::cell::CellRef;
use crate::column::ColumnData;
use crate::error::TableError;
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
    /// Typed column vectors, one per header, each holding `num_records`
    /// cells. The only place in the crate that knows the storage layout.
    cols: Vec<ColumnData>,
    num_records: usize,
    /// Precomputed shape fingerprint (record count, column count, normalized
    /// headers, column types), set once at construction. Lets
    /// [`crate::TableIndex::describes`] run as a single integer comparison on
    /// every cache lookup instead of re-walking (and re-lowercasing) the
    /// headers. Derived state: never serialized, recomputed on deserialize
    /// (see the manual serde impls below), so a hand-edited data file cannot
    /// smuggle in a fingerprint describing a different shape.
    fingerprint: u64,
    /// Precomputed *content* fingerprint: the shape fingerprint extended
    /// with every cell's canonical bytes (see
    /// [`crate::column::ColumnData::hash_content`]). Two tables with equal
    /// content fingerprints answer every question identically (up to hash
    /// collision), which is what answer caches key on — the shape
    /// fingerprint deliberately ignores cell contents and would alias
    /// them. Derived state, like `fingerprint`: never serialized.
    content_fingerprint: u64,
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
    /// into typed columns. Short rows are padded with empty cells, extra
    /// cells dropped (data files are written by us, so ragged rows only
    /// arise from hand edits).
    fn from_parts(name: String, columns: Vec<Column>, rows: Vec<Vec<Value>>) -> Table {
        let num_records = rows.len();
        // The fingerprint is derived, not trusted from the data file.
        let fingerprint = shape_fingerprint(&columns, num_records);
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
        let content_fingerprint = content_fingerprint(fingerprint, &cols);
        Table {
            name,
            columns,
            cols,
            num_records,
            fingerprint,
            content_fingerprint,
        }
    }

    /// The table's name (used by [`crate::Catalog`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The precomputed shape fingerprint: a 64-bit FNV-1a hash of the record
    /// count, column count, case-normalized header names and inferred column
    /// types. Two tables with equal fingerprints have (up to hash collision)
    /// the same shape; differing cell *contents* are deliberately not
    /// captured, exactly like the header walk this replaces — index caches
    /// must still be scoped to one catalog.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The precomputed content fingerprint: the shape fingerprint extended
    /// with every cell's canonical bytes. Unlike [`Table::fingerprint`],
    /// differing cell contents produce differing fingerprints (up to hash
    /// collision), so equal content fingerprints mean the tables answer
    /// every question identically — the property answer caches need. The
    /// table *name* is still excluded: renaming a table does not change
    /// its answers.
    pub fn content_fingerprint(&self) -> u64 {
        self.content_fingerprint
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

    /// Value of the cell at `(record, column)`, if in bounds. Owned:
    /// reconstructed bit-exact from the typed column storage.
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

    /// The dense numeric vector of `column` when every cell is numeric —
    /// the no-branch fast path for aggregate kernels.
    pub fn dense_f64(&self, column: usize) -> Option<&[f64]> {
        self.cols.get(column)?.dense_f64()
    }

    /// All cells of one column, top to bottom.
    pub fn column_cells(&self, column: usize) -> impl Iterator<Item = CellRef> + '_ {
        (0..self.num_records()).map(move |record| CellRef::new(record, column))
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

    /// Records whose cell in `column` equals `value`, ascending — the
    /// binary relation `Column.value` of the KB view (e.g. `Country.Greece`)
    /// as a batch kernel over the typed column. Semantics identical to a
    /// per-row `value_at == value` scan.
    pub fn filter_eq(&self, column: usize, value: &Value) -> Vec<RecordIdx> {
        self.cols[column].filter_eq(value)
    }

    /// Records whose cell in `column` equals *any* of `values`, ascending
    /// and deduplicated — the batch kernel behind `IN (…)` predicates.
    pub fn filter_in(&self, column: usize, values: &[Value]) -> Vec<RecordIdx> {
        let mut out: Vec<RecordIdx> = Vec::new();
        for value in values {
            out.extend(self.cols[column].filter_eq(value));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Records whose cell in `column` has numeric content satisfying `pred`
    /// — the batch kernel behind numeric comparisons. The predicate sees
    /// exactly the values `Value::as_number` would produce per row
    /// (including NaN cells); non-numeric cells never match.
    pub fn filter_num<F: Fn(f64) -> bool>(&self, column: usize, pred: F) -> Vec<RecordIdx> {
        self.cols[column].filter_num(pred)
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
    /// transposing the accumulated rows into typed columns.
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
/// length-prefixed lowercase header names and column types. Computed once at
/// construction and stored on the table.
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
    fn filter_eq_matches_paper_example() {
        // Country.Greece on the Figure 1 table returns records {0, 2} here
        // (the paper writes {0, n-4} for its elided table).
        let t = olympics();
        let col = t.column_index("Country").unwrap();
        let records = t.filter_eq(col, &Value::str("Greece"));
        assert_eq!(records, vec![0, 2]);
        // Case-insensitively, via the dictionary's folded lookup.
        assert_eq!(t.filter_eq(col, &Value::str("greece")), vec![0, 2]);
    }

    #[test]
    fn filter_in_unions_sorted_and_deduplicated() {
        let t = olympics();
        let col = t.column_index("Country").unwrap();
        let records = t.filter_in(
            col,
            &[
                Value::str("China"),
                Value::str("Greece"),
                Value::str("greece"),
            ],
        );
        assert_eq!(records, vec![0, 2, 3]);
    }

    #[test]
    fn filter_num_applies_predicate_to_numeric_contents() {
        let t = olympics();
        let year = t.column_index("Year").unwrap();
        let country = t.column_index("Country").unwrap();
        assert_eq!(t.filter_num(year, |n| n >= 2008.0), vec![3, 4, 5]);
        // A text column has no numeric contents.
        assert_eq!(t.filter_num(country, |_| true), Vec::<usize>::new());
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
        let year = t.column_index("Year").unwrap();
        assert_eq!(t.dense_f64(year).unwrap().len(), 6);
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
    fn fingerprint_captures_shape_not_contents_or_name() {
        let a = olympics();
        // Same headers (case-insensitively), record count and column types:
        // same fingerprint, whatever the name and cell contents.
        let b = Table::from_rows(
            "different-name",
            &["YEAR", "country", "city"],
            &[
                vec!["1", "a", "b"],
                vec!["2", "a", "b"],
                vec!["3", "a", "b"],
                vec!["4", "a", "b"],
                vec!["5", "a", "b"],
                vec!["6", "a", "b"],
            ],
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any shape difference changes it: record count, header, type.
        let shorter = Table::from_rows(
            "olympics",
            &["Year", "Country", "City"],
            &[vec!["1896", "Greece", "Athens"]],
        )
        .unwrap();
        assert_ne!(a.fingerprint(), shorter.fingerprint());
        let renamed = Table::from_rows(
            "olympics",
            &["Year", "Country", "Town"],
            &[
                vec!["1", "a", "b"],
                vec!["2", "a", "b"],
                vec!["3", "a", "b"],
                vec!["4", "a", "b"],
                vec!["5", "a", "b"],
                vec!["6", "a", "b"],
            ],
        )
        .unwrap();
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let retyped = Table::from_rows(
            "olympics",
            &["Year", "Country", "City"],
            &[
                vec!["1", "a", "9"],
                vec!["2", "a", "9"],
                vec!["3", "a", "9"],
                vec!["4", "a", "9"],
                vec!["5", "a", "9"],
                vec!["6", "a", "9"],
            ],
        )
        .unwrap();
        assert_ne!(a.fingerprint(), retyped.fingerprint());
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
        // Same shape, one cell edited: the shape fingerprint aliases, the
        // content fingerprint must not.
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
        assert_eq!(a.fingerprint(), edited.fingerprint());
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
        assert_eq!(restored.fingerprint(), table.fingerprint());
        // A pre-fingerprint data file (same three fields) still loads, and
        // the fingerprint always reflects the deserialized shape.
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
        assert_ne!(shorter.fingerprint(), table.fingerprint());
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
