//! Indexed columnar view of a table, built once and queried many times.
//!
//! The candidate generator executes hundreds of lambda DCS formulas per
//! question and the SQL engine re-runs translated queries for cross
//! validation; both used to re-scan table rows for every join, comparison and
//! superlative. A [`TableIndex`] materializes, per column:
//!
//! * a **class id** per cell: cells holding equal values (under [`Value`]'s
//!   hash and equality) share a class, numbered in first-appearance order,
//!   and each class keeps its ascending record list — the inverted index
//!   answering `Column.value` joins and `WHERE Column = v` filters in O(1),
//!   and the key the evaluator groups projections by,
//! * a **value-sorted permutation** of the records answering superlatives
//!   (`argmax` / `argmin`) without scanning the whole record set,
//! * a **sorted numeric projection** (`(number, record)` pairs) answering
//!   range comparisons (`Games.(> 4)`) by binary search,
//!
//! plus a lowercase column-name map so `column_index` is a hash lookup
//! instead of a linear case-insensitive scan, the table's record list (the
//! `Rows` record set every evaluation shares), and — built lazily, on the
//! first entity link against the table — a text index of the distinct
//! values for the semantic parser's lexicon.
//!
//! Each [`Table`] owns its index ([`Table::index`]): built on first use and
//! shared by the table's clones, it is borrowed by every knowledge-base
//! view and lambda DCS evaluator over the table. Tables are immutable after
//! construction, so an index never needs invalidation, and because no
//! index is looked up by name, none can answer for another table.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::cell::CellRef;
use crate::table::{ColumnType, RecordIdx, Table};
use crate::text::{to_u32, TextIndex};
use crate::value::{numbers_equal, Value};

/// Per-column indexes: value classes with their record lists, value-sorted
/// permutation and sorted numeric projection.
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    column_type: ColumnType,
    /// Each distinct value's class id.
    by_value: HashMap<Value, u32>,
    /// The class id of every record's cell.
    classes: Vec<u32>,
    /// The records of every class, class after class, ascending within a
    /// class: class `c` holds `class_records[class_starts[c]..class_starts[c + 1]]`.
    class_records: Vec<RecordIdx>,
    class_starts: Vec<u32>,
    /// Whether equality on the column's cells is an equivalence, so that
    /// two cells hold equal values exactly when they share a class: no NaN
    /// cell, and no two distinct numeric contents within
    /// [`numbers_equal`]'s tolerance.
    exact: bool,
    /// Records sorted ascending by their cell value (stable, so ties keep
    /// table order), built lazily on first superlative use (the sort keys
    /// allocate, and most columns are never a superlative key). `None` once
    /// built when the column contains a NaN numeric cell, which has no
    /// consistent position in the value order.
    value_order: OnceLock<Option<Vec<RecordIdx>>>,
    /// Whether a value order exists (no NaN cells); decided at build time.
    sortable: bool,
    /// `(number, record)` for every cell with numeric content (via
    /// [`Value::as_number`]), sorted ascending by number then record. NaN
    /// cells are excluded: no comparison operator ever matches them.
    numeric: Vec<(f64, RecordIdx)>,
}

impl ColumnIndex {
    /// Records whose cell in this column equals `value` (the `C.v` join),
    /// in ascending record order.
    pub fn records(&self, value: &Value) -> &[RecordIdx] {
        self.by_value
            .get(value)
            .map_or(&[], |&class| self.class_records(class))
    }

    /// Number of distinct values (classes) in the column.
    pub fn num_distinct(&self) -> usize {
        self.class_starts.len() - 1
    }

    /// Iterate over `(value, records)` pairs in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (&Value, &[RecordIdx])> {
        self.by_value
            .iter()
            .map(|(value, &class)| (value, self.class_records(class)))
    }

    /// The class id of every record's cell, indexed by record. Classes are
    /// numbered `0..num_distinct()` in first-appearance order.
    pub fn classes(&self) -> &[u32] {
        &self.classes
    }

    /// The records of class `class`, ascending.
    pub fn class_records(&self, class: u32) -> &[RecordIdx] {
        let class = class as usize;
        &self.class_records
            [self.class_starts[class] as usize..self.class_starts[class + 1] as usize]
    }

    /// How many records class `class` holds.
    pub fn class_size(&self, class: u32) -> usize {
        let class = class as usize;
        (self.class_starts[class + 1] - self.class_starts[class]) as usize
    }

    /// Whether two cells of this column hold equal values exactly when they
    /// share a class (see [`ColumnIndex::classes`]): `false` when the column
    /// holds a NaN or two distinct numbers within [`numbers_equal`]'s
    /// tolerance, where equality is not transitive.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Each class's value in class order (the value of its first cell).
    pub(crate) fn class_values(&self) -> Vec<&Value> {
        let mut values = vec![None; self.num_distinct()];
        for (value, &class) in &self.by_value {
            values[class as usize] = Some(value);
        }
        values
            .into_iter()
            .map(|value| value.expect("every class has a value"))
            .collect()
    }

    /// The column's inferred type.
    pub fn column_type(&self) -> ColumnType {
        self.column_type
    }

    /// All `(number, record)` pairs of the column's numeric cells, sorted
    /// ascending by number.
    pub fn numeric_entries(&self) -> &[(f64, RecordIdx)] {
        &self.numeric
    }

    /// Numeric cells with `number < threshold` (or `<=` when `inclusive`),
    /// as a slice of the sorted numeric projection.
    pub fn numeric_below(&self, threshold: f64, inclusive: bool) -> &[(f64, RecordIdx)] {
        if threshold.is_nan() {
            return &[];
        }
        let cut = if inclusive {
            self.numeric.partition_point(|(n, _)| *n <= threshold)
        } else {
            self.numeric.partition_point(|(n, _)| *n < threshold)
        };
        &self.numeric[..cut]
    }

    /// Numeric cells with `number > threshold` (or `>=` when `inclusive`),
    /// as a slice of the sorted numeric projection.
    pub fn numeric_above(&self, threshold: f64, inclusive: bool) -> &[(f64, RecordIdx)] {
        if threshold.is_nan() {
            return &[];
        }
        let cut = if inclusive {
            self.numeric.partition_point(|(n, _)| *n < threshold)
        } else {
            self.numeric.partition_point(|(n, _)| *n <= threshold)
        };
        &self.numeric[cut..]
    }
}

/// The indexed columnar view of one table. See the module docs for what is
/// precomputed; build cost is `O(cells · log rows)`, query cost is `O(1)` for
/// name and value lookups and `O(log rows)` for numeric ranges.
#[derive(Debug, Clone)]
pub struct TableIndex {
    by_name: HashMap<String, usize>,
    columns: Vec<ColumnIndex>,
    numeric_columns: Vec<usize>,
    text_columns: Vec<usize>,
    /// Every record, ascending: the `Rows` record set, shared by every
    /// evaluation of it.
    all_records: Arc<[RecordIdx]>,
    /// Entity-linking index of the distinct values, built on first use so
    /// that indexes which never link (the SQL engine's, a standalone
    /// evaluator's) do not pay for it.
    text: OnceLock<TextIndex>,
}

impl TableIndex {
    /// Build an index for `table` in one pass over its cells (plus one sort
    /// per column). Callers that query a table use the one it owns,
    /// [`Table::index`]; this builds a standalone one.
    pub fn new(table: &Table) -> Self {
        let by_name = table
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.to_ascii_lowercase(), i))
            .collect();
        let columns: Vec<ColumnIndex> = (0..table.num_columns())
            .map(|column| build_column(table, column))
            .collect();
        let numeric_columns = (0..table.num_columns())
            .filter(|&c| matches!(table.column_type(c), ColumnType::Number | ColumnType::Date))
            .collect();
        let text_columns = (0..table.num_columns())
            .filter(|&c| matches!(table.column_type(c), ColumnType::Text | ColumnType::Mixed))
            .collect();
        TableIndex {
            by_name,
            columns,
            numeric_columns,
            text_columns,
            all_records: table.record_indices().collect(),
            text: OnceLock::new(),
        }
    }

    /// Index of the column with the given (case-insensitive) header — the
    /// O(1) counterpart of [`Table::column_index`].
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(&name.trim().to_ascii_lowercase()).copied()
    }

    /// Per-column indexes for `column`.
    pub fn column(&self, column: usize) -> &ColumnIndex {
        &self.columns[column]
    }

    /// Number of indexed columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of records in the indexed table.
    pub fn num_records(&self) -> usize {
        self.all_records.len()
    }

    /// Every record of the indexed table, ascending, as one shared slice.
    pub fn all_records(&self) -> &Arc<[RecordIdx]> {
        &self.all_records
    }

    /// Inferred type of `column` (mirrors [`Table::column_type`] without
    /// needing the table).
    pub fn column_type(&self, column: usize) -> ColumnType {
        self.columns[column].column_type
    }

    /// Columns whose dominant type is numeric or date — the columns eligible
    /// for aggregates, comparisons and superlative keys.
    pub fn numeric_columns(&self) -> &[usize] {
        &self.numeric_columns
    }

    /// Columns whose dominant type is text (or mixed) — the columns eligible
    /// for most-common-value questions.
    pub fn text_columns(&self) -> &[usize] {
        &self.text_columns
    }

    /// Records of `column` in ascending cell-value order (stable: ties keep
    /// table order), if the column's values admit a total order (they always
    /// do unless a cell holds a NaN number). Built on first use and
    /// memoized; `table` must be the table this index was built from.
    pub fn value_order(&self, table: &Table, column: usize) -> Option<&[RecordIdx]> {
        debug_assert_eq!(table.num_records(), self.num_records());
        let entry = &self.columns[column];
        entry
            .value_order
            .get_or_init(|| {
                entry.sortable.then(|| {
                    let mut order: Vec<RecordIdx> = (0..table.num_records()).collect();
                    // Sort by a precomputed key equivalent to `Value::cmp` —
                    // avoids per-comparison lowercase allocations.
                    order.sort_by_cached_key(|&record| {
                        SortKey::of(&table.value_at(record, column).expect("in range"))
                    });
                    order
                })
            })
            .as_deref()
    }

    /// The entity-linking index of the table's distinct values, built on
    /// first use and shared by every later caller of this index.
    pub(crate) fn text(&self) -> &TextIndex {
        self.text.get_or_init(|| TextIndex::build(&self.columns))
    }

    /// Records whose cell in `column` equals `value`, ascending.
    pub fn records_with_value(&self, column: usize, value: &Value) -> &[RecordIdx] {
        self.columns[column].records(value)
    }

    /// Cells in `column` whose value equals `value`, ascending by record.
    pub fn matching_cells(&self, column: usize, value: &Value) -> Vec<CellRef> {
        self.records_with_value(column, value)
            .iter()
            .map(|&record| CellRef::new(record, column))
            .collect()
    }
}

fn build_column(table: &Table, column: usize) -> ColumnIndex {
    let mut by_value: HashMap<Value, u32> = HashMap::new();
    let mut classes: Vec<u32> = Vec::with_capacity(table.num_records());
    let mut class_sizes: Vec<u32> = Vec::new();
    let mut numeric: Vec<(f64, RecordIdx)> = Vec::new();
    let mut sortable = true;
    for record in table.record_indices() {
        let value = table
            .value_at(record, column)
            .expect("record index in range");
        if let Some(number) = value.as_number() {
            if number.is_nan() {
                sortable = false;
            } else {
                numeric.push((number, record));
            }
        }
        let next = to_u32(class_sizes.len());
        let class = *by_value.entry(value).or_insert(next);
        if class == next {
            class_sizes.push(0);
        }
        class_sizes[class as usize] += 1;
        classes.push(class);
    }
    numeric.sort_by(|a, b| a.partial_cmp(b).expect("NaN keys excluded"));
    // Sorted, so any two distinct numbers within tolerance of each other
    // leave a pair of neighbours within tolerance too.
    let exact = sortable
        && numeric
            .windows(2)
            .all(|pair| pair[0].0 == pair[1].0 || !numbers_equal(pair[0].0, pair[1].0));
    // Lay the classes' records out class after class (a counting sort).
    let mut class_starts = Vec::with_capacity(class_sizes.len() + 1);
    let mut end = 0;
    class_starts.push(end);
    for size in &class_sizes {
        end += size;
        class_starts.push(end);
    }
    let mut next_slot: Vec<u32> = class_starts[..class_sizes.len()].to_vec();
    let mut class_records = vec![0; classes.len()];
    for (record, &class) in classes.iter().enumerate() {
        let slot = &mut next_slot[class as usize];
        class_records[*slot as usize] = record;
        *slot += 1;
    }
    ColumnIndex {
        column_type: table.column_type(column),
        by_value,
        classes,
        class_records,
        class_starts,
        exact,
        value_order: OnceLock::new(),
        sortable,
        numeric,
    }
}

/// Precomputed sort key whose ordering is identical to [`Value::cmp`] for
/// NaN-free values: numbers and dates interleave by numeric magnitude (a
/// number sorting before an equal-year date), strings sort last by their
/// lowercase form.
#[derive(Debug, Clone, PartialEq)]
enum SortKey {
    /// `(magnitude, is_date, month, day)` — mirrors the `Num`/`Date` arms of
    /// `Value::cmp`, including the `then(Less)` tie-break that puts a number
    /// before the equal-year date.
    Numeric(f64, u8, u8, u8),
    /// Lowercased string; `Value::cmp` orders strings after all numerics.
    Text(String),
}

impl SortKey {
    fn of(value: &Value) -> SortKey {
        match value {
            Value::Num(n) => SortKey::Numeric(*n, 0, 0, 0),
            Value::Date(d) => SortKey::Numeric(
                f64::from(d.year),
                1,
                d.month.unwrap_or(0),
                d.day.unwrap_or(0),
            ),
            Value::Str(s) => SortKey::Text(s.to_ascii_lowercase()),
        }
    }
}

impl Eq for SortKey {}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (SortKey::Numeric(a, ad, am, aday), SortKey::Numeric(b, bd, bm, bday)) => a
                .partial_cmp(b)
                .expect("NaN keys excluded from sortable columns")
                .then_with(|| (ad, am, aday).cmp(&(bd, bm, bday))),
            (SortKey::Numeric(..), SortKey::Text(_)) => Ordering::Less,
            (SortKey::Text(_), SortKey::Numeric(..)) => Ordering::Greater,
            (SortKey::Text(a), SortKey::Text(b)) => a.cmp(b),
        }
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
    fn column_name_lookup_matches_table_scan() {
        let table = olympics();
        let index = TableIndex::new(&table);
        for query in ["Year", "country", " CITY ", "Missing", ""] {
            assert_eq!(index.column_index(query), table.column_index(query));
        }
    }

    #[test]
    fn inverted_index_matches_scan() {
        let table = olympics();
        let index = TableIndex::new(&table);
        for column in 0..table.num_columns() {
            for value in table.distinct_column_values(column) {
                let scan: Vec<usize> = table
                    .record_indices()
                    .filter(|&r| table.eq_at(r, column, &value))
                    .collect();
                assert_eq!(index.records_with_value(column, &value), scan.as_slice());
            }
        }
        assert!(index
            .records_with_value(1, &Value::str("Atlantis"))
            .is_empty());
    }

    #[test]
    fn value_order_sorts_each_column() {
        let table = olympics();
        let index = TableIndex::new(&table);
        for column in 0..table.num_columns() {
            let order = index.value_order(&table, column).expect("no NaN cells");
            assert_eq!(order.len(), table.num_records());
            for pair in order.windows(2) {
                let a = table.value_at(pair[0], column).unwrap();
                let b = table.value_at(pair[1], column).unwrap();
                assert!(a.cmp(&b) != std::cmp::Ordering::Greater);
            }
        }
    }

    #[test]
    fn numeric_ranges_match_scan() {
        let table = olympics();
        let index = TableIndex::new(&table);
        let year = table.column_index("Year").unwrap();
        let col = index.column(year);
        assert_eq!(col.numeric_entries().len(), 5);
        // > 1900 → 2004, 2008, 2012.
        assert_eq!(col.numeric_above(1900.0, false).len(), 3);
        // >= 1900 → four records.
        assert_eq!(col.numeric_above(1900.0, true).len(), 4);
        // < 1900 → 1896 only; <= 1900 → two.
        assert_eq!(col.numeric_below(1900.0, false).len(), 1);
        assert_eq!(col.numeric_below(1900.0, true).len(), 2);
        // NaN thresholds match nothing.
        assert!(col.numeric_below(f64::NAN, true).is_empty());
        assert!(col.numeric_above(f64::NAN, true).is_empty());
    }

    #[test]
    fn column_type_partitions() {
        let table = olympics();
        let index = TableIndex::new(&table);
        assert_eq!(index.numeric_columns(), &[0]);
        assert_eq!(index.text_columns(), &[1, 2]);
        assert_eq!(index.column_type(0), ColumnType::Number);
        assert_eq!(index.column(2).column_type(), ColumnType::Text);
    }

    #[test]
    fn sort_key_order_is_identical_to_value_cmp() {
        let values: Vec<Value> = [
            "2004",
            "1896",
            "-3",
            "2004.5",
            "0",
            "Athens",
            "athens",
            "ZZ",
            "",
            "June 8, 2013",
            "October 1983",
            "2013-06-08",
            "1983-01-01",
            "1e300",
        ]
        .iter()
        .map(|t| Value::parse(t))
        .chain([Value::year(2004), Value::num(f64::INFINITY)])
        .collect();
        for a in &values {
            for b in &values {
                assert_eq!(
                    SortKey::of(a).cmp(&SortKey::of(b)),
                    a.cmp(b),
                    "keys diverge for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn text_index_is_built_on_first_link_only() {
        let table = olympics();
        let index = TableIndex::new(&table);
        assert!(index.text.get().is_none(), "TableIndex::new built it");
        let first: *const TextIndex = index.text();
        assert!(std::ptr::eq(first, index.text()), "rebuilt on reuse");
    }

    #[test]
    fn class_ids_follow_first_appearance_and_value_equality() {
        let table = olympics();
        let index = TableIndex::new(&table);
        let country = index.column(1);
        // Greece, France, Greece, China, UK.
        assert_eq!(country.classes(), &[0, 1, 0, 2, 3]);
        assert_eq!(country.num_distinct(), 4);
        assert_eq!(country.class_records(0), &[0, 2]);
        assert_eq!(country.class_records(3), &[4]);
        assert_eq!(country.records(&Value::str("GREECE")), &[0, 2]);
        let mut entries: Vec<(String, Vec<RecordIdx>)> = country
            .entries()
            .map(|(value, records)| (value.to_string(), records.to_vec()))
            .collect();
        entries.sort();
        assert_eq!(entries[0], ("China".to_string(), vec![3]));
        assert_eq!(entries.len(), 4);
    }

    #[test]
    fn exact_flag_marks_columns_where_equality_is_transitive() {
        use crate::table::TableBuilder;
        let num = Value::num;
        let columns = [
            // (header, cells, exact)
            ("Ints", vec![num(1.0), num(2.0), num(1.0)], true),
            (
                "Case",
                vec![
                    Value::str("Athens"),
                    Value::str("athens"),
                    Value::str("ATHENS"),
                ],
                true,
            ),
            // A year-only date equals the same number: one class, no doubt.
            (
                "Years",
                vec![Value::year(2004), num(2004.0), Value::date(2004, 6, 1)],
                true,
            ),
            ("Zeros", vec![num(0.0), num(-0.0), num(0.0)], true),
            ("Apart", vec![num(1e9), num(1e9 + 10.0), num(3.0)], true),
            // Distinct numbers within 1e-9 relative of each other.
            ("Near", vec![num(1.0), num(1.0 + 1e-10), num(3.0)], false),
            ("Billions", vec![num(1e9), num(1e9 + 1.0), num(3.0)], false),
            (
                "NearYear",
                vec![Value::year(2004), num(2004.000001), num(7.0)],
                false,
            ),
            ("Nan", vec![num(1.0), num(f64::NAN), num(2.0)], false),
            // Infinity is within tolerance of every number.
            (
                "Infinite",
                vec![num(f64::INFINITY), num(5.0), num(5.0)],
                false,
            ),
        ];
        let mut builder = TableBuilder::new("flags").columns(columns.iter().map(|c| c.0));
        for row in 0..3 {
            builder = builder
                .row(columns.iter().map(|c| c.1[row].clone()).collect())
                .unwrap();
        }
        let table = builder.build().unwrap();
        let index = TableIndex::new(&table);
        for (column, (header, _, exact)) in columns.iter().enumerate() {
            assert_eq!(index.column(column).is_exact(), *exact, "column {header}");
        }
        assert_eq!(index.column(1).classes(), &[0, 0, 0]);
        assert_eq!(index.column(2).classes(), &[0, 0, 1]);
        assert_eq!(index.column(3).classes(), &[0, 0, 0]);
    }

    #[test]
    fn nan_cells_disable_value_order_but_not_joins() {
        use crate::table::TableBuilder;
        let table = TableBuilder::new("nan")
            .column("A")
            .row(vec![Value::Num(1.0)])
            .unwrap()
            .row(vec![Value::Num(f64::NAN)])
            .unwrap()
            .row(vec![Value::Num(2.0)])
            .unwrap()
            .build()
            .unwrap();
        let index = TableIndex::new(&table);
        assert!(index.value_order(&table, 0).is_none());
        // NaN is excluded from the numeric projection (no comparison matches
        // it) but plain value joins still work for the finite cells.
        assert_eq!(index.column(0).numeric_entries().len(), 2);
        assert_eq!(index.records_with_value(0, &Value::num(2.0)), &[2]);
    }
}
