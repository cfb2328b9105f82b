//! Text index of a table's distinct cell values, for entity linking.
//!
//! Entity linking asks two questions of a table for every question it
//! parses: which distinct cell values a phrase names (under
//! [`Value::matches_text`]), and which cell values contain a leftover
//! content token as a word ("Erie" → "Lake Erie"). A [`TextIndex`] answers
//! both with one hash lookup per phrase, plus one parse of the phrase for
//! numbers and dates, rather than a test of every distinct value.
//!
//! The index is built lazily by [`TableIndex::text`][crate::TableIndex::text]
//! (most index users never link) and is compact: it names each distinct
//! value by its column and the record where it first appears — the first
//! record of its [`ColumnIndex`] class, the representative
//! [`Table::distinct_column_values`][crate::Table::distinct_column_values]
//! keeps too — so it clones no cell values, and each key's entries are one
//! run of a flat list.

use std::collections::HashMap;

use crate::cell::CellRef;
use crate::index::ColumnIndex;
use crate::value::{numbers_equal, parse_date, parse_number, Date, Value};

/// A distinct value: `(column, record of its first appearance)`.
type Entry = (u32, u32);

/// Entity-linking lookups over one table's distinct cell values.
#[derive(Debug, Clone)]
pub(crate) struct TextIndex {
    /// ASCII-lowercased text of every string value, and the display text of
    /// every date value (digits and dashes, so lowercasing is the identity).
    texts: Postings,
    /// Every numeric value.
    numbers: Vec<(f64, Entry)>,
    /// Every date value.
    dates: Vec<(Date, Entry)>,
    /// Each word of a value's lowercased display text → the values holding
    /// it as a word without being exactly that word, in column-major,
    /// first-appearance order.
    words: Postings,
}

impl TextIndex {
    /// Index the distinct values of `columns`.
    pub(crate) fn build(columns: &[ColumnIndex]) -> TextIndex {
        let mut texts = Vec::new();
        let mut numbers = Vec::new();
        let mut dates = Vec::new();
        let mut words = Vec::new();
        for (column, index) in columns.iter().enumerate() {
            // Classes are numbered in first-appearance order, and each one's
            // record list starts at the record that introduced it.
            for (class, value) in index.class_values().into_iter().enumerate() {
                let record = index.class_records(to_u32(class))[0];
                let entry = (to_u32(column), to_u32(record));
                match value {
                    Value::Str(s) => texts.push((s.to_ascii_lowercase(), entry)),
                    Value::Num(n) => numbers.push((*n, entry)),
                    Value::Date(d) => {
                        dates.push((*d, entry));
                        texts.push((d.to_string(), entry));
                    }
                }
                let text = value.to_string().to_lowercase();
                let mut seen: Vec<&str> = Vec::new();
                for word in text.split(|c: char| !c.is_alphanumeric()) {
                    if !word.is_empty() && word != text && !seen.contains(&word) {
                        seen.push(word);
                        words.push((word.to_string(), entry));
                    }
                }
            }
        }
        TextIndex {
            texts: Postings::new(texts),
            numbers,
            dates,
            words: Postings::new(words),
        }
    }

    /// The distinct values `v` with `v.matches_text(phrase)`, each as the
    /// cell of its first appearance, ascending by `(column, record)`.
    pub(crate) fn matches(&self, phrase: &str) -> Vec<CellRef> {
        let mut found: Vec<Entry> = self.texts.get(&phrase.trim().to_ascii_lowercase()).to_vec();
        if let Some(number) = parse_number(phrase) {
            found.extend(
                self.numbers
                    .iter()
                    .filter(|(n, _)| numbers_equal(*n, number))
                    .map(|&(_, entry)| entry),
            );
        }
        if let Some(date) = parse_date(phrase) {
            found.extend(
                self.dates
                    .iter()
                    .filter(|(d, _)| *d == date)
                    .map(|&(_, entry)| entry),
            );
        }
        // A date can match both by its parse and by its display text.
        found.sort_unstable();
        found.dedup();
        found.into_iter().map(cell_of).collect()
    }

    /// The distinct values whose lowercased display text contains the
    /// non-empty `word` as a word (split at non-alphanumeric characters)
    /// without being exactly `word`, each as the cell of its first
    /// appearance, in column-major, first-appearance order.
    pub(crate) fn containing_word(&self, word: &str) -> impl Iterator<Item = CellRef> + '_ {
        self.words.get(word).iter().copied().map(cell_of)
    }
}

fn cell_of((column, record): Entry) -> CellRef {
    CellRef::new(record as usize, column as usize)
}

/// A table position or entry count as a compact `u32`.
pub(crate) fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("table positions and index sizes fit in u32")
}

/// String keys mapped to runs of one flat entry list; a run keeps the order
/// its entries were added in.
#[derive(Debug, Clone)]
struct Postings {
    runs: HashMap<Box<str>, (u32, u32)>,
    entries: Vec<Entry>,
}

impl Postings {
    fn new(mut pairs: Vec<(String, Entry)>) -> Postings {
        // Stable, so each key's entries stay in insertion order.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut postings = Postings {
            runs: HashMap::new(),
            entries: Vec::with_capacity(pairs.len()),
        };
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let start = to_u32(postings.entries.len());
            postings.entries.extend(run.iter().map(|&(_, entry)| entry));
            let end = to_u32(postings.entries.len());
            postings.runs.insert(run[0].0.as_str().into(), (start, end));
        }
        postings
    }

    fn get(&self, key: &str) -> &[Entry] {
        self.runs
            .get(key)
            .map(|&(start, end)| &self.entries[start as usize..end as usize])
            .unwrap_or(&[])
    }
}
