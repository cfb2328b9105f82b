//! Column storage behind [`crate::Table`]: every column is one dictionary.
//!
//! A column holds a `u32` id per cell into its distinct values. The values
//! are interned *exactly*, in first-appearance order: strings by bytes,
//! numbers by bits (so `-0.0`, `0.0` and NaN payloads stay apart) and dates
//! by field. Each entry keeps its `as_number` beside it.
//!
//! Exact interning makes reconstruction bit-exact: `value_at` returns
//! exactly the `Value` the builder was given, which keeps the serde row
//! format byte-identical. Every other accessor reads one entry and defers
//! to [`Value`] itself: its equality (`eq_at`), its numeric content
//! (`number_at`) and its display (`text_at`). No accessor re-implements
//! them.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::table::RecordIdx;
use crate::value::Value;

/// One column: an id per cell into the column's distinct values.
#[derive(Debug, Clone)]
pub(crate) struct ColumnData {
    /// One id per record, indexing `entries`.
    ids: Vec<u32>,
    /// The distinct values, exactly as given, in first-appearance order.
    entries: Vec<Entry>,
}

/// One distinct value of a column.
#[derive(Debug, Clone)]
struct Entry {
    value: Value,
    /// `value.as_number()`, computed once.
    number: Option<f64>,
}

/// A value under exact identity: strings by bytes, numbers by bits, dates
/// by field. Unlike [`Value`]'s own equality it is transitive and
/// case-sensitive, so interning under it loses nothing.
struct Exact(Value);

impl PartialEq for Exact {
    fn eq(&self, other: &Exact) -> bool {
        match (&self.0, &other.0) {
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Exact {}

impl Hash for Exact {
    fn hash<H: Hasher>(&self, state: &mut H) {
        write_exact(&self.0, &mut |bytes| state.write(bytes));
    }
}

/// Feed `value`'s exact identity to `write` as canonical bytes: a type tag,
/// then a number's bits, a string's length and bytes, or a date's fields.
fn write_exact(value: &Value, write: &mut dyn FnMut(&[u8])) {
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
            write(&d.year.to_le_bytes());
            for part in [d.month, d.day] {
                write(&[u8::from(part.is_some()), part.unwrap_or(0)]);
            }
        }
    }
}

impl ColumnData {
    /// Intern `values`, one per record, into a dictionary.
    pub(crate) fn from_values(values: Vec<Value>) -> ColumnData {
        let mut interned: HashMap<Exact, u32> = HashMap::new();
        let ids = values
            .into_iter()
            .map(|value| {
                let next = u32::try_from(interned.len()).expect("under 2^32 distinct values");
                *interned.entry(Exact(value)).or_insert(next)
            })
            .collect();
        let mut entries: Vec<(u32, Value)> = interned
            .into_iter()
            .map(|(Exact(value), id)| (id, value))
            .collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        let entries = entries
            .into_iter()
            .map(|(_, value)| Entry {
                number: value.as_number(),
                value,
            })
            .collect();
        ColumnData { ids, entries }
    }

    fn entry(&self, record: RecordIdx) -> Option<&Entry> {
        self.ids.get(record).map(|&id| &self.entries[id as usize])
    }

    /// The cell value at `record`, exactly as the builder was given it.
    /// `None` out of bounds.
    pub(crate) fn value_at(&self, record: RecordIdx) -> Option<Value> {
        self.entry(record).map(|entry| entry.value.clone())
    }

    /// The cell's display text (`value.to_string()`); empty out of bounds.
    pub(crate) fn text_at(&self, record: RecordIdx) -> String {
        match self.entry(record) {
            // A clone allocates exactly the text, which `to_string` may not.
            Some(Entry {
                value: Value::Str(text),
                ..
            }) => text.clone(),
            Some(entry) => entry.value.to_string(),
            None => String::new(),
        }
    }

    /// The cell's `Value::as_number`. `None` out of bounds or non-numeric.
    pub(crate) fn number_at(&self, record: RecordIdx) -> Option<f64> {
        self.entry(record).and_then(|entry| entry.number)
    }

    /// Whether the cell at `record` equals `needle` under [`Value`]'s
    /// equality. `false` out of bounds.
    pub(crate) fn eq_at(&self, record: RecordIdx, needle: &Value) -> bool {
        self.entry(record)
            .is_some_and(|entry| entry.value == *needle)
    }

    /// Feed the column's cell contents to `write` as canonical bytes — the
    /// content half of [`crate::Table::content_fingerprint`]: the entries'
    /// exact bytes, then the ids. Entries are interned in first-appearance
    /// order, so both are determined by the cell sequence, and two columns
    /// hash alike iff their cells are bit-equal.
    pub(crate) fn hash_content(&self, write: &mut dyn FnMut(&[u8])) {
        write(&(self.entries.len() as u64).to_le_bytes());
        for entry in &self.entries {
            write_exact(&entry.value, write);
        }
        for &id in &self.ids {
            write(&id.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;

    fn values(texts: &[&str]) -> Vec<Value> {
        texts.iter().map(|t| Value::parse(t)).collect()
    }

    #[test]
    fn reconstruction_is_bit_exact() {
        let originals = vec![
            Value::Num(2004.0),
            Value::Num(-0.0),
            Value::Num(0.0),
            Value::Num(f64::MAX),
            Value::Num(1e-300),
            Value::Num(f64::NAN),
            Value::Num(-f64::NAN),
            Value::Str(String::new()),
            Value::str("Athens"),
            Value::str("athens"),
            Value::year(2004),
            Value::Date(Date::year_month(1983, 10)),
        ];
        let col = ColumnData::from_values(originals.clone());
        // Exact interning keeps every one of them apart.
        assert_eq!(col.entries.len(), originals.len());
        for (i, original) in originals.iter().enumerate() {
            let restored = col.value_at(i).unwrap();
            match (original, &restored) {
                (Value::Num(a), Value::Num(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
        assert_eq!(col.value_at(originals.len()), None);
    }

    #[test]
    fn repeated_cells_share_one_entry_in_first_appearance_order() {
        let col = ColumnData::from_values(values(&["Paris", "Athens", "Paris", "", "Athens"]));
        assert_eq!(col.ids, [0, 1, 0, 2, 1]);
        let entries: Vec<Value> = col.entries.iter().map(|e| e.value.clone()).collect();
        assert_eq!(entries, values(&["Paris", "Athens", ""]));
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
        assert_eq!(col.text_at(3), "");
        let dates = ColumnData::from_values(values(&["June 8, 2013"]));
        assert_eq!(dates.number_at(0), Some(2013.0));
        assert_eq!(dates.text_at(0), "2013-06-08");
    }
}
