//! Error type for SQL execution.

use std::fmt;

/// Errors the SQL executor raises while running a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A column referenced by the query does not exist in the table.
    UnknownColumn(String),
    /// A scalar subquery returned a number of rows other than one.
    ScalarCardinality(usize),
    /// An expression was used in a context expecting a different kind
    /// (e.g. a non-numeric value in arithmetic).
    Type(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownColumn(name) => write!(f, "unknown column {name:?}"),
            ExecError::ScalarCardinality(n) => {
                write!(f, "scalar subquery returned {n} rows (expected exactly 1)")
            }
            ExecError::Type(msg) => write!(f, "type error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ExecError::UnknownColumn("Lake".into())
            .to_string()
            .contains("Lake"));
        assert!(ExecError::ScalarCardinality(3).to_string().contains('3'));
        assert!(ExecError::Type("boom".into()).to_string().contains("boom"));
    }
}
