//! Typed column vectors — the storage layer behind [`crate::Table`].
//!
//! A table used to hold `rows: Vec<Vec<Value>>`; every cell was a tagged
//! enum with its own heap string, and every scan chased two pointers per
//! cell. This module stores each column in the densest typed form its cells
//! admit:
//!
//! * [`ColumnData::F64`] — all-numeric columns (empty cells allowed) as a
//!   flat `Vec<f64>` plus a null bitmap, one bit per record,
//! * [`ColumnData::Dict`] — all-string columns dictionary-encoded: each
//!   record is a `u32` id into an interned string table, with a
//!   case-folded lookup map and per-entry parsed numbers precomputed so
//!   equality and numeric kernels never re-fold or re-parse text,
//! * [`ColumnData::Date`] — all-date columns as order-preserving packed
//!   ordinals (`year << 20 | month-code << 10 | day-code`),
//! * [`ColumnData::Mixed`] — the fallback for heterogeneous columns,
//!   keeping the original `Vec<Value>`.
//!
//! Reconstruction is **bit-exact**: `value_at` returns exactly the `Value`
//! the builder was given (floats by bits, strings by bytes, dates by
//! field), which is what keeps the serde wire format byte-identical to the
//! row-major era. The batch kernels (`filter_eq`, `filter_in`,
//! `filter_num`, `stats_*`) reproduce the row-scan semantics of
//! [`Value`]'s equality and `as_number` exactly — they are drop-in
//! replacements for interpreted per-row predicates, not approximations.

use std::collections::HashMap;

use crate::table::RecordIdx;
use crate::value::{numbers_equal, parse_number, Date, Value};

/// Id of an interned string in a dictionary-encoded column.
pub type DictId = u32;

/// One-bit-per-record null markers of an [`ColumnData::F64`] column.
/// A set bit means the cell was the empty string (the only non-numeric
/// cell the F64 layout admits).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    words: Vec<u64>,
    any: bool,
}

impl NullBitmap {
    fn with_len(len: usize) -> Self {
        NullBitmap {
            words: vec![0; len.div_ceil(64)],
            any: false,
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
        self.any = true;
    }

    /// Whether record `i` is null (empty cell).
    pub fn is_null(&self, i: usize) -> bool {
        self.any && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Whether any record is null.
    pub fn any_null(&self) -> bool {
        self.any
    }
}

/// Dictionary-encoded string column: per-record ids into an interned
/// entry table, plus derived lookup structures built once.
#[derive(Debug, Clone)]
pub struct DictData {
    ids: Vec<DictId>,
    /// Interned entries, exact original bytes, in first-appearance order.
    entries: Vec<String>,
    /// `parse_number(entry)` per entry — `Value::as_number` without
    /// re-parsing text on every kernel call.
    numbers: Vec<Option<f64>>,
    /// ASCII-lowercased entry text → ids folding to it. `Value`'s string
    /// equality is `eq_ignore_ascii_case`, so one folded key can cover
    /// several distinct entries ("Athens" / "athens").
    by_folded: HashMap<String, Vec<DictId>>,
}

impl DictData {
    fn from_strings(texts: Vec<String>) -> DictData {
        let mut intern: HashMap<String, DictId> = HashMap::new();
        let mut entries: Vec<String> = Vec::new();
        let mut ids = Vec::with_capacity(texts.len());
        for text in texts {
            let id = match intern.get(&text) {
                Some(&id) => id,
                None => {
                    let id = entries.len() as DictId;
                    intern.insert(text.clone(), id);
                    entries.push(text);
                    id
                }
            };
            ids.push(id);
        }
        let numbers = entries.iter().map(|e| parse_number(e)).collect();
        let mut by_folded: HashMap<String, Vec<DictId>> = HashMap::new();
        for (id, entry) in entries.iter().enumerate() {
            by_folded
                .entry(entry.to_ascii_lowercase())
                .or_default()
                .push(id as DictId);
        }
        DictData {
            ids,
            entries,
            numbers,
            by_folded,
        }
    }

    /// Ids whose entry equals `text` case-insensitively.
    fn matching_ids(&self, text: &str) -> &[DictId] {
        self.by_folded
            .get(&text.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Pack a [`Date`] into an order-preserving `i64` ordinal. The month and
/// day codes are `component + 1` with `0` meaning absent, which keeps the
/// packed order identical to `Date::sort_key` (absent sorts before any
/// present component) and makes the packing injective.
pub fn date_ordinal(d: Date) -> i64 {
    let month_code = d.month.map(|m| i64::from(m) + 1).unwrap_or(0);
    let day_code = d.day.map(|d| i64::from(d) + 1).unwrap_or(0);
    (i64::from(d.year) << 20) | (month_code << 10) | day_code
}

/// Inverse of [`date_ordinal`].
pub fn date_from_ordinal(ord: i64) -> Date {
    let day_code = ord & 0x3ff;
    let month_code = (ord >> 10) & 0x3ff;
    Date {
        year: (ord >> 20) as i32,
        month: (month_code > 0).then(|| (month_code - 1) as u8),
        day: (day_code > 0).then(|| (day_code - 1) as u8),
    }
}

/// Whether an ordinal encodes a year-only date (no month, no day) — the
/// dates that bridge to plain numbers under [`Value`]'s equality.
fn ordinal_is_year_only(ord: i64) -> bool {
    ord & 0xfffff == 0
}

/// Typed storage of one column. See the module docs for layout selection.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Every cell numeric, empties as null bits.
    F64 { values: Vec<f64>, nulls: NullBitmap },
    /// Every cell a string, dictionary-encoded.
    Dict(DictData),
    /// Every cell a date, packed ordinals.
    Date { ords: Vec<i64> },
    /// Heterogeneous fallback: the original values, row order.
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Choose the densest layout the cells admit and convert.
    pub fn from_values(values: Vec<Value>) -> ColumnData {
        let numeric_ok = values
            .iter()
            .all(|v| matches!(v, Value::Num(_)) || matches!(v, Value::Str(s) if s.is_empty()));
        let any_num = values.iter().any(|v| matches!(v, Value::Num(_)));
        if numeric_ok && any_num {
            let mut nulls = NullBitmap::with_len(values.len());
            let packed = values
                .iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Value::Num(n) => *n,
                    _ => {
                        nulls.set(i);
                        0.0
                    }
                })
                .collect();
            return ColumnData::F64 {
                values: packed,
                nulls,
            };
        }
        if values.iter().all(|v| matches!(v, Value::Str(_))) {
            let texts = values
                .into_iter()
                .map(|v| match v {
                    Value::Str(s) => s,
                    _ => unreachable!("checked all-string"),
                })
                .collect();
            return ColumnData::Dict(DictData::from_strings(texts));
        }
        if values.iter().all(|v| matches!(v, Value::Date(_))) {
            let ords = values
                .iter()
                .map(|v| match v {
                    Value::Date(d) => date_ordinal(*d),
                    _ => unreachable!("checked all-date"),
                })
                .collect();
            return ColumnData::Date { ords };
        }
        ColumnData::Mixed(values)
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::F64 { values, .. } => values.len(),
            ColumnData::Dict(dict) => dict.ids.len(),
            ColumnData::Date { ords } => ords.len(),
            ColumnData::Mixed(values) => values.len(),
        }
    }

    /// Whether the column has no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstruct the cell value at `record` — bit-exact to what the
    /// builder was given. `None` out of bounds.
    pub fn value_at(&self, record: RecordIdx) -> Option<Value> {
        match self {
            ColumnData::F64 { values, nulls } => values.get(record).map(|&n| {
                if nulls.is_null(record) {
                    Value::Str(String::new())
                } else {
                    Value::Num(n)
                }
            }),
            ColumnData::Dict(dict) => dict
                .ids
                .get(record)
                .map(|&id| Value::Str(dict.entries[id as usize].clone())),
            ColumnData::Date { ords } => ords
                .get(record)
                .map(|&ord| Value::Date(date_from_ordinal(ord))),
            ColumnData::Mixed(values) => values.get(record).cloned(),
        }
    }

    /// Cell text at `record` without materializing a [`Value`] — the
    /// provenance renderers' shim.
    pub fn text_at(&self, record: RecordIdx) -> String {
        match self {
            ColumnData::Dict(dict) => dict
                .ids
                .get(record)
                .map(|&id| dict.entries[id as usize].clone())
                .unwrap_or_default(),
            other => other
                .value_at(record)
                .map(|v| v.to_string())
                .unwrap_or_default(),
        }
    }

    /// The cell's numeric content at `record` (`Value::as_number`
    /// semantics) without materializing a [`Value`].
    pub fn number_at(&self, record: RecordIdx) -> Option<f64> {
        match self {
            ColumnData::F64 { values, nulls } => values
                .get(record)
                .and_then(|&n| (!nulls.is_null(record)).then_some(n)),
            ColumnData::Dict(dict) => dict
                .ids
                .get(record)
                .and_then(|&id| dict.numbers[id as usize]),
            ColumnData::Date { ords } => ords.get(record).map(|&ord| (ord >> 20) as f64),
            ColumnData::Mixed(values) => values.get(record).and_then(Value::as_number),
        }
    }

    /// Whether the cell at `record` equals `needle` under [`Value`]'s
    /// equality, without materializing the cell. `false` out of bounds.
    pub fn eq_at(&self, record: RecordIdx, needle: &Value) -> bool {
        match self {
            ColumnData::F64 { values, nulls } => {
                let Some(&cell) = values.get(record) else {
                    return false;
                };
                if nulls.is_null(record) {
                    // The cell is `Str("")`: only the (case-insensitively)
                    // empty string equals it.
                    matches!(needle, Value::Str(s) if s.is_empty())
                } else {
                    match needle {
                        Value::Num(n) => numbers_equal(cell, *n),
                        Value::Date(d) => {
                            d.month.is_none()
                                && d.day.is_none()
                                && numbers_equal(cell, f64::from(d.year))
                        }
                        Value::Str(_) => false,
                    }
                }
            }
            ColumnData::Dict(dict) => {
                let Some(&id) = dict.ids.get(record) else {
                    return false;
                };
                match needle {
                    Value::Str(s) => dict.entries[id as usize].eq_ignore_ascii_case(s),
                    _ => false,
                }
            }
            ColumnData::Date { ords } => {
                let Some(&ord) = ords.get(record) else {
                    return false;
                };
                match needle {
                    Value::Date(d) => ord == date_ordinal(*d),
                    Value::Num(n) => {
                        ordinal_is_year_only(ord) && numbers_equal(*n, (ord >> 20) as f64)
                    }
                    Value::Str(_) => false,
                }
            }
            ColumnData::Mixed(values) => values.get(record) == Some(needle),
        }
    }

    /// Records whose cell equals `needle` (ascending) — the batch kernel
    /// behind `WHERE Column = v` and `Column.v` joins, identical to a
    /// per-row `value == needle` scan.
    pub fn filter_eq(&self, needle: &Value) -> Vec<RecordIdx> {
        match self {
            ColumnData::F64 { values, nulls } => {
                let wanted = match needle {
                    Value::Num(n) => Some(*n),
                    Value::Date(d) if d.month.is_none() && d.day.is_none() => {
                        Some(f64::from(d.year))
                    }
                    Value::Str(s) if s.is_empty() => {
                        // Only the null (empty) cells match the empty string.
                        return (0..values.len()).filter(|&r| nulls.is_null(r)).collect();
                    }
                    _ => None,
                };
                let Some(wanted) = wanted else {
                    return Vec::new();
                };
                values
                    .iter()
                    .enumerate()
                    .filter(|&(r, &v)| !nulls.is_null(r) && numbers_equal(v, wanted))
                    .map(|(r, _)| r)
                    .collect()
            }
            ColumnData::Dict(dict) => {
                let Value::Str(text) = needle else {
                    return Vec::new();
                };
                let wanted = dict.matching_ids(text);
                match wanted {
                    [] => Vec::new(),
                    [only] => dict
                        .ids
                        .iter()
                        .enumerate()
                        .filter(|&(_, id)| id == only)
                        .map(|(r, _)| r)
                        .collect(),
                    many => dict
                        .ids
                        .iter()
                        .enumerate()
                        .filter(|(_, id)| many.contains(id))
                        .map(|(r, _)| r)
                        .collect(),
                }
            }
            ColumnData::Date { ords } => match needle {
                Value::Date(d) => {
                    let wanted = date_ordinal(*d);
                    ords.iter()
                        .enumerate()
                        .filter(|&(_, &ord)| ord == wanted)
                        .map(|(r, _)| r)
                        .collect()
                }
                Value::Num(n) => ords
                    .iter()
                    .enumerate()
                    .filter(|&(_, &ord)| {
                        ordinal_is_year_only(ord) && numbers_equal(*n, (ord >> 20) as f64)
                    })
                    .map(|(r, _)| r)
                    .collect(),
                Value::Str(_) => Vec::new(),
            },
            ColumnData::Mixed(values) => values
                .iter()
                .enumerate()
                .filter(|(_, v)| *v == needle)
                .map(|(r, _)| r)
                .collect(),
        }
    }

    /// Records whose cell's numeric content satisfies `pred` — the batch
    /// kernel behind numeric comparisons, identical to a per-row
    /// `as_number().map(pred).unwrap_or(false)` scan (NaN cells included:
    /// the predicate sees them, exactly like the row loop).
    pub fn filter_num<F: Fn(f64) -> bool>(&self, pred: F) -> Vec<RecordIdx> {
        match self {
            ColumnData::F64 { values, nulls } => values
                .iter()
                .enumerate()
                .filter(|&(r, &v)| !nulls.is_null(r) && pred(v))
                .map(|(r, _)| r)
                .collect(),
            ColumnData::Dict(dict) => {
                // Evaluate the predicate once per dictionary entry, then
                // scan the id vector against the per-entry verdicts.
                let verdicts: Vec<bool> = dict
                    .numbers
                    .iter()
                    .map(|n| n.map(&pred).unwrap_or(false))
                    .collect();
                dict.ids
                    .iter()
                    .enumerate()
                    .filter(|&(_, &id)| verdicts[id as usize])
                    .map(|(r, _)| r)
                    .collect()
            }
            ColumnData::Date { ords } => ords
                .iter()
                .enumerate()
                .filter(|&(_, &ord)| pred((ord >> 20) as f64))
                .map(|(r, _)| r)
                .collect(),
            ColumnData::Mixed(values) => values
                .iter()
                .enumerate()
                .filter(|(_, v)| v.as_number().map(&pred).unwrap_or(false))
                .map(|(r, _)| r)
                .collect(),
        }
    }

    /// The dense numeric vector, when every cell is numeric (an
    /// [`ColumnData::F64`] column with no nulls) — the no-branch fast path
    /// for aggregate kernels.
    pub fn dense_f64(&self) -> Option<&[f64]> {
        match self {
            ColumnData::F64 { values, nulls } if !nulls.any_null() => Some(values),
            _ => None,
        }
    }

    /// Feed the column's cell *contents* to `write` as canonical bytes —
    /// the content half of [`crate::Table`]'s content fingerprint. Every
    /// byte sequence is layout-derived but value-determined: floats by
    /// bits, strings length-prefixed by exact bytes, dates by packed
    /// ordinal — so two columns hash alike iff their cells are bit-equal,
    /// regardless of how `from_values` happened to store them (the layout
    /// choice is itself a function of the values). A leading per-variant
    /// tag keeps e.g. the string `"1"` from aliasing the number `1`.
    pub fn hash_content(&self, write: &mut dyn FnMut(&[u8])) {
        match self {
            ColumnData::F64 { values, nulls } => {
                write(&[0]);
                for (i, v) in values.iter().enumerate() {
                    write(&[u8::from(nulls.is_null(i))]);
                    write(&v.to_bits().to_le_bytes());
                }
            }
            ColumnData::Dict(dict) => {
                write(&[1]);
                // Entries are interned in first-appearance order, which is
                // determined by the cell sequence — ids alone pin contents
                // once the entry table is folded in.
                write(&(dict.entries.len() as u64).to_le_bytes());
                for entry in &dict.entries {
                    write(&(entry.len() as u64).to_le_bytes());
                    write(entry.as_bytes());
                }
                for &id in &dict.ids {
                    write(&id.to_le_bytes());
                }
            }
            ColumnData::Date { ords } => {
                write(&[2]);
                for &ord in ords {
                    write(&ord.to_le_bytes());
                }
            }
            ColumnData::Mixed(values) => {
                write(&[3]);
                for value in values {
                    match value {
                        Value::Num(n) => {
                            write(&[0]);
                            write(&n.to_bits().to_le_bytes());
                        }
                        Value::Str(s) => {
                            write(&[1]);
                            write(&(s.len() as u64).to_le_bytes());
                            write(s.as_bytes());
                        }
                        Value::Date(d) => {
                            write(&[2]);
                            write(&date_ordinal(*d).to_le_bytes());
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(texts: &[&str]) -> Vec<Value> {
        texts.iter().map(|t| Value::parse(t)).collect()
    }

    #[test]
    fn layout_selection_matches_cell_types() {
        assert!(matches!(
            ColumnData::from_values(values(&["1", "2", ""])),
            ColumnData::F64 { .. }
        ));
        assert!(matches!(
            ColumnData::from_values(values(&["a", "b", ""])),
            ColumnData::Dict(_)
        ));
        assert!(matches!(
            ColumnData::from_values(values(&["June 8, 2013", "October 1983"])),
            ColumnData::Date { .. }
        ));
        assert!(matches!(
            ColumnData::from_values(values(&["1", "a"])),
            ColumnData::Mixed(_)
        ));
        // All-empty columns are all-string.
        assert!(matches!(
            ColumnData::from_values(values(&["", ""])),
            ColumnData::Dict(_)
        ));
    }

    #[test]
    fn reconstruction_is_bit_exact() {
        let originals = vec![
            Value::Num(2004.0),
            Value::Num(-0.0),
            Value::Num(f64::MAX),
            Value::Num(1e-300),
            Value::Str(String::new()),
        ];
        let col = ColumnData::from_values(originals.clone());
        for (i, original) in originals.iter().enumerate() {
            let restored = col.value_at(i).unwrap();
            match (original, &restored) {
                (Value::Num(a), Value::Num(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
        assert_eq!(col.value_at(5), None);
    }

    #[test]
    fn date_ordinal_roundtrip_and_order() {
        let dates = [
            Date::year(-44),
            Date::year(1983),
            Date::year_month(1983, 10),
            Date::ymd(1983, 10, 1),
            Date::ymd(2013, 6, 8),
        ];
        for d in dates {
            assert_eq!(date_from_ordinal(date_ordinal(d)), d);
        }
        for pair in dates.windows(2) {
            assert!(date_ordinal(pair[0]) < date_ordinal(pair[1]));
        }
    }

    #[test]
    fn filter_eq_matches_scan_semantics() {
        let cases: Vec<Vec<Value>> = vec![
            values(&["1", "2", "", "2", "3"]),
            values(&["Athens", "athens", "", "Paris"]),
            values(&["June 8, 2013", "October 1983", "June 8, 2013"]),
            values(&["1", "a", "", "June 8, 2013"]),
        ];
        let needles: Vec<Value> = values(&["2", "athens", "", "June 8, 2013", "1", "nope"])
            .into_iter()
            .chain([Value::year(1983), Value::Num(f64::NAN)])
            .collect();
        for cells in cases {
            let col = ColumnData::from_values(cells.clone());
            for needle in &needles {
                let scan: Vec<usize> = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| *v == needle)
                    .map(|(r, _)| r)
                    .collect();
                assert_eq!(col.filter_eq(needle), scan, "needle {needle:?}");
                for (r, v) in cells.iter().enumerate() {
                    assert_eq!(col.eq_at(r, needle), v == needle, "row {r} vs {needle:?}");
                }
            }
        }
    }

    #[test]
    fn filter_num_matches_as_number_scan() {
        let cases: Vec<Vec<Value>> = vec![
            values(&["1", "2", "", "-3"]),
            values(&["130", "abc", "$1,000", ""]),
            values(&["June 8, 2013", "October 1983"]),
            values(&["1", "a", "October 1983"]),
        ];
        for cells in cases {
            let col = ColumnData::from_values(cells.clone());
            for threshold in [0.0, 2.0, 1983.0] {
                let scan: Vec<usize> = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.as_number().map(|n| n >= threshold).unwrap_or(false))
                    .map(|(r, _)| r)
                    .collect();
                assert_eq!(col.filter_num(|n| n >= threshold), scan);
            }
        }
    }

    #[test]
    fn number_and_text_accessors() {
        let cells = values(&["130", "", "Fiji"]);
        let col = ColumnData::from_values(cells);
        assert_eq!(col.number_at(0), Some(130.0));
        assert_eq!(col.number_at(1), None);
        assert_eq!(col.number_at(2), None);
        assert_eq!(col.text_at(2), "Fiji");
        assert_eq!(col.text_at(1), "");
        let dates = ColumnData::from_values(values(&["June 8, 2013"]));
        assert_eq!(dates.number_at(0), Some(2013.0));
        assert_eq!(dates.text_at(0), "2013-06-08");
    }

    #[test]
    fn dense_f64_requires_no_nulls() {
        let dense = ColumnData::from_values(values(&["1", "2"]));
        assert_eq!(dense.dense_f64(), Some(&[1.0, 2.0][..]));
        let nullable = ColumnData::from_values(values(&["1", ""]));
        assert_eq!(nullable.dense_f64(), None);
    }
}
