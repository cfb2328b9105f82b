//! Error type for SQL translation.

use std::fmt;

/// Errors produced while translating lambda DCS to SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// The lambda DCS formula has no SQL translation in the supported
    /// fragment (should not happen for formulas built from Table 10).
    Untranslatable(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Untranslatable(msg) => write!(f, "no SQL translation: {msg}"),
        }
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SqlError::Untranslatable("ill-typed".into())
            .to_string()
            .contains("ill-typed"));
    }
}
