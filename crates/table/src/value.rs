//! Typed cell values.
//!
//! The paper's data model (§3.1) allows table cells to hold strings, numbers
//! or dates. Values need a *total* order because lambda DCS superlatives
//! (`argmax` / `argmin`) and comparisons (`>=`, `<`, …) are defined over them;
//! we order across types by a fixed type rank so that heterogeneous columns
//! still behave deterministically.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A calendar date with optional month / day precision (many web tables only
/// state a year, e.g. the Olympics table of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Date {
    pub year: i32,
    pub month: Option<u8>,
    pub day: Option<u8>,
}

impl Date {
    /// A date with year precision only.
    pub fn year(year: i32) -> Self {
        Date {
            year,
            month: None,
            day: None,
        }
    }

    /// A date with year and month precision.
    pub fn year_month(year: i32, month: u8) -> Self {
        Date {
            year,
            month: Some(month),
            day: None,
        }
    }

    /// A full year-month-day date.
    pub fn ymd(year: i32, month: u8, day: u8) -> Self {
        Date {
            year,
            month: Some(month),
            day: Some(day),
        }
    }

    /// A sortable key: missing month/day sort before present ones within the
    /// same year, which keeps year-only dates stable against full dates.
    fn sort_key(&self) -> (i32, u8, u8) {
        (self.year, self.month.unwrap_or(0), self.day.unwrap_or(0))
    }
}

impl PartialOrd for Date {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Date {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.month, self.day) {
            (Some(m), Some(d)) => write!(f, "{:04}-{:02}-{:02}", self.year, m, d),
            (Some(m), None) => write!(f, "{:04}-{:02}", self.year, m),
            _ => write!(f, "{}", self.year),
        }
    }
}

/// A typed cell value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Free text, e.g. `"Greece"`.
    Str(String),
    /// A numeric value, e.g. `2004` or `2.945`.
    Num(f64),
    /// A calendar date.
    Date(Date),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Construct a numeric value.
    pub fn num(n: impl Into<f64>) -> Self {
        Value::Num(n.into())
    }

    /// Construct a year-only date value.
    pub fn year(y: i32) -> Self {
        Value::Date(Date::year(y))
    }

    /// Construct a full date value.
    pub fn date(y: i32, m: u8, d: u8) -> Self {
        Value::Date(Date::ymd(y, m, d))
    }

    /// Whether this value is textual.
    pub fn is_str(&self) -> bool {
        matches!(self, Value::Str(_))
    }

    /// Whether this value is numeric.
    pub fn is_num(&self) -> bool {
        matches!(self, Value::Num(_))
    }

    /// The numeric content usable for aggregation, if any.
    ///
    /// Dates expose their year so that `max(R[Year]...)`-style queries over a
    /// date-typed column still produce a sensible number, matching how the
    /// paper treats the `Year` column of Figure 1.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Date(d) => Some(f64::from(d.year)),
            Value::Str(s) => parse_number(s),
        }
    }

    /// The textual content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Parse a textual cell into the most specific value type.
    ///
    /// Order of attempts: full date (`YYYY-MM-DD`, `Month D, YYYY`,
    /// `D Month YYYY`), number (with optional thousands separators, `%` and
    /// `$` markers), then plain string. Empty strings become empty `Str`.
    pub fn parse(text: &str) -> Value {
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Value::Str(String::new());
        }
        if let Some(date) = parse_date(trimmed) {
            return Value::Date(date);
        }
        if let Some(num) = parse_number(trimmed) {
            return Value::Num(num);
        }
        Value::Str(trimmed.to_string())
    }

    /// Case-insensitive equality used when matching NL question tokens and
    /// lambda DCS constants against cell contents. The table index's text
    /// index answers entity linking with exactly this relation, so a change
    /// here must change it too (`crates/parser/tests/differential_lexicon.rs`
    /// compares the two).
    pub fn matches_text(&self, text: &str) -> bool {
        match self {
            Value::Str(s) => s.eq_ignore_ascii_case(text.trim()),
            Value::Num(n) => parse_number(text)
                .map(|m| numbers_equal(*n, m))
                .unwrap_or(false),
            Value::Date(d) => {
                parse_date(text).map(|other| *d == other).unwrap_or(false)
                    || text.trim() == d.to_string()
            }
        }
    }

    /// Rank used to order values of different types: numbers < dates < strings.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Num(_) => 0,
            Value::Date(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

/// Two floats are considered equal if they agree to within 1e-9 relative
/// tolerance; table data never needs more precision than that and this keeps
/// answer comparison robust against formatting round-trips.
pub fn numbers_equal(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-9 * scale
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a.eq_ignore_ascii_case(b),
            (Value::Num(a), Value::Num(b)) => numbers_equal(*a, *b),
            (Value::Date(a), Value::Date(b)) => a == b,
            // A year-only date and the same number compare equal; web tables
            // frequently mix the two representations in one column.
            (Value::Num(n), Value::Date(d)) | (Value::Date(d), Value::Num(n)) => {
                d.month.is_none() && d.day.is_none() && numbers_equal(*n, f64::from(d.year))
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash a canonical form compatible with the (case-insensitive,
        // cross-type) equality above. Caveat: the tolerance-based numeric
        // equality is not transitive, so no hash can be perfectly consistent
        // with it — two numbers within the 1e-9 relative tolerance hash
        // identically unless they straddle a 6-significant-digit rounding
        // boundary (a ~1e-3 sliver of the already-rare equal-but-not-
        // identical pairs). Hash-based paths therefore keep such a boundary
        // pair apart: a `ColumnIndex::records` join (behind
        // `KnowledgeBase::join` and `matching_cells`) misses the other
        // number of the pair, and the hashed grouping of an inexact column
        // counts the two as separate groups. The oracle's scans compare
        // with `==` and merge them, so on such a pair the serving engine and
        // the scan reference (`filter_eq`) disagree.
        match self {
            Value::Str(s) => {
                state.write_u8(2);
                for byte in s.bytes() {
                    state.write_u8(byte.to_ascii_lowercase());
                }
            }
            Value::Num(n) => {
                state.write_u8(0);
                state.write_u64(canonical_f64_bits(*n));
            }
            Value::Date(d) => {
                if d.month.is_none() && d.day.is_none() {
                    // Year-only dates hash like the equivalent number, to stay
                    // consistent with the PartialEq bridge above.
                    state.write_u8(0);
                    state.write_u64(canonical_f64_bits(f64::from(d.year)));
                } else {
                    state.write_u8(1);
                    state.write_i32(d.year);
                    state.write_u8(d.month.unwrap_or(0));
                    state.write_u8(d.day.unwrap_or(0));
                }
            }
        }
    }
}

fn canonical_f64_bits(n: f64) -> u64 {
    // Collapse -0.0 to 0.0 and round to a granularity compatible with
    // `numbers_equal`'s tolerance at every magnitude: that tolerance is
    // relative (1e-9 · scale, floored at scale 1), so the rounding must be
    // relative too — 6 significant digits for |n| > 1, 1e-6 absolute below
    // (a fixed absolute precision would split equal values once |n| grows
    // past ~1e3, giving equal-but-differently-hashed numbers).
    if !n.is_finite() {
        return n.to_bits();
    }
    let rounded = if n.abs() <= 1.0 {
        (n * 1e6).round() / 1e6
    } else {
        // |n| ∈ (1, f64::MAX] keeps the exponent (and so the scale) finite.
        let exponent = n.abs().log10().floor() as i32;
        let scale = 10f64.powi(5 - exponent);
        (n * scale).round() / scale
    };
    if rounded == 0.0 {
        0f64.to_bits()
    } else {
        rounded.to_bits()
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            // Byte-wise on the ASCII-lowercased text, folded lazily: the
            // order of `a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase())`
            // without allocating either string.
            (Value::Str(a), Value::Str(b)) => a
                .bytes()
                .map(|byte| byte.to_ascii_lowercase())
                .cmp(b.bytes().map(|byte| byte.to_ascii_lowercase())),
            (Value::Num(n), Value::Date(d)) => n
                .partial_cmp(&f64::from(d.year))
                .unwrap_or(Ordering::Equal)
                .then(Ordering::Less),
            (Value::Date(d), Value::Num(n)) => f64::from(d.year)
                .partial_cmp(n)
                .unwrap_or(Ordering::Equal)
                .then(Ordering::Greater),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::parse(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::parse(&s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::Num(f64::from(n))
    }
}

/// Parse a number out of text, tolerating `$`, `%`, thousands separators and
/// surrounding whitespace (`"$150,000"` → `150000.0`).
pub fn parse_number(text: &str) -> Option<f64> {
    let cleaned: String = text
        .trim()
        .trim_start_matches('$')
        .trim_end_matches('%')
        .chars()
        .filter(|c| *c != ',')
        .collect();
    if cleaned.is_empty() {
        return None;
    }
    // Reject strings like "4th" or "1896 Greece" that start with digits but
    // are not numbers.
    cleaned.parse::<f64>().ok().filter(|n| n.is_finite())
}

const MONTHS: [&str; 12] = [
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
];

fn month_from_name(name: &str) -> Option<u8> {
    let lower = name.to_ascii_lowercase();
    MONTHS
        .iter()
        .position(|m| *m == lower || m.starts_with(&lower) && lower.len() >= 3)
        .map(|i| (i + 1) as u8)
}

/// Parse the date formats that show up in web tables:
/// `YYYY-MM-DD`, `YYYY/MM/DD`, `Month D, YYYY`, `D Month YYYY`, `Month YYYY`.
/// Bare 4-digit years are *not* parsed as dates here (they stay numbers),
/// because columns like `Year` are treated numerically by the paper's queries.
pub fn parse_date(text: &str) -> Option<Date> {
    let trimmed = text.trim();
    // ISO-like with separators.
    for sep in ['-', '/'] {
        let parts: Vec<&str> = trimmed.split(sep).collect();
        if parts.len() == 3 {
            if let (Ok(y), Ok(m), Ok(d)) = (
                parts[0].parse::<i32>(),
                parts[1].parse::<u8>(),
                parts[2].parse::<u8>(),
            ) {
                if (1000..=9999).contains(&y) && (1..=12).contains(&m) && (1..=31).contains(&d) {
                    return Some(Date::ymd(y, m, d));
                }
            }
        }
    }
    // "June 8, 2013" / "June 8 2013" / "8 June 2013" / "October 1983".
    let cleaned = trimmed.replace(',', " ");
    let tokens: Vec<&str> = cleaned.split_whitespace().collect();
    match tokens.as_slice() {
        [month, day, year] => {
            if let (Some(m), Ok(d), Ok(y)) = (
                month_from_name(month),
                day.parse::<u8>(),
                year.parse::<i32>(),
            ) {
                if (1..=31).contains(&d) {
                    return Some(Date::ymd(y, m, d));
                }
            }
            if let (Ok(d), Some(m), Ok(y)) = (
                month.parse::<u8>(),
                month_from_name(day),
                year.parse::<i32>(),
            ) {
                if (1..=31).contains(&d) {
                    return Some(Date::ymd(y, m, d));
                }
            }
            None
        }
        [month, year] => {
            let m = month_from_name(month)?;
            let y = year.parse::<i32>().ok()?;
            if (1000..=9999).contains(&y) {
                Some(Date {
                    year: y,
                    month: Some(m),
                    day: None,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_numbers_with_formatting() {
        assert_eq!(Value::parse("2004"), Value::num(2004.0));
        assert_eq!(Value::parse("$150,000"), Value::num(150_000.0));
        assert_eq!(Value::parse("2.945"), Value::num(2.945));
        assert_eq!(Value::parse("85%"), Value::num(85.0));
        assert_eq!(Value::parse("-17"), Value::num(-17.0));
    }

    #[test]
    fn parses_dates() {
        assert_eq!(Value::parse("June 8, 2013"), Value::date(2013, 6, 8));
        assert_eq!(Value::parse("8 June 2013"), Value::date(2013, 6, 8));
        assert_eq!(Value::parse("2013-06-08"), Value::date(2013, 6, 8));
        assert_eq!(
            Value::parse("October 1983"),
            Value::Date(Date {
                year: 1983,
                month: Some(10),
                day: None
            })
        );
    }

    #[test]
    fn bare_year_stays_numeric() {
        assert!(Value::parse("1896").is_num());
    }

    #[test]
    fn strings_fall_through() {
        assert_eq!(Value::parse("USL A-League"), Value::str("USL A-League"));
        assert_eq!(Value::parse("4th Round"), Value::str("4th Round"));
        assert_eq!(Value::parse("  Greece "), Value::str("Greece"));
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(Value::str("Greece"), Value::str("greece"));
        assert_ne!(Value::str("Greece"), Value::str("France"));
        assert!(Value::str("Athens").matches_text("ATHENS"));
    }

    #[test]
    fn year_date_equals_number() {
        assert_eq!(Value::year(2004), Value::num(2004.0));
        assert_ne!(Value::date(2004, 8, 1), Value::num(2004.0));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::num(3.0) < Value::num(17.0));
        assert!(Value::str("Athens") < Value::str("beijing"));
        assert!(Value::date(2004, 1, 1) < Value::date(2004, 2, 1));
        assert!(Value::year(1896) < Value::year(2016));
    }

    #[test]
    fn ordering_across_types_is_total_and_consistent() {
        let mut values = [
            Value::str("London"),
            Value::num(5.0),
            Value::year(1900),
            Value::num(-2.0),
            Value::str("Athens"),
        ];
        values.sort();
        // Numbers/dates first, then strings.
        assert!(values[0].is_num());
        assert!(values.last().unwrap().is_str());
    }

    #[test]
    fn display_roundtrip_for_integers() {
        assert_eq!(Value::num(2004.0).to_string(), "2004");
        assert_eq!(Value::num(2.945).to_string(), "2.945");
        assert_eq!(Value::date(2013, 6, 8).to_string(), "2013-06-08");
        assert_eq!(Value::str("Fiji").to_string(), "Fiji");
    }

    #[test]
    fn as_number_bridges_dates() {
        assert_eq!(Value::year(2012).as_number(), Some(2012.0));
        assert_eq!(Value::str("130").as_number(), Some(130.0));
        assert_eq!(Value::str("Fiji").as_number(), None);
    }

    #[test]
    fn numbers_equal_tolerance() {
        assert!(numbers_equal(0.1 + 0.2, 0.3));
        assert!(!numbers_equal(1.0, 1.001));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::str("Greece"));
        assert!(set.contains(&Value::str("GREECE")));
        set.insert(Value::num(2004.0));
        assert!(set.contains(&Value::year(2004)));
    }

    #[test]
    fn hash_consistent_with_eq_across_magnitudes() {
        use std::collections::HashSet;
        // Pairs within the relative equality tolerance must land in the
        // same hash bucket at every magnitude (the hash rounding is
        // relative, like the tolerance).
        for (a, b) in [
            (2004.0, 2004.000002),
            (1e9, 1e9 + 1.0),
            (-2004.0, -2004.000002),
            (0.5, 0.5 + 1e-10),
            (1e-300, 2e-300),
        ] {
            assert_eq!(Value::num(a), Value::num(b), "{a} vs {b} not equal");
            let mut set = HashSet::new();
            set.insert(Value::num(a));
            assert!(set.contains(&Value::num(b)), "{a} vs {b} hash differently");
        }
    }
}
