//! # wtq-sql
//!
//! SQL substrate for the *Explaining Queries over Web Tables to Non-Experts*
//! reproduction (§3.2 "Mapping to SQL" and Table 10).
//!
//! The paper positions lambda DCS as an expressive fragment of SQL by giving
//! a translation for every operator (Table 10), and shows each candidate's
//! SQL beside its utterance. This crate provides:
//!
//! * [`ast`] — a small SQL abstract syntax tree covering exactly the query
//!   shapes the translation produces (single-table `SELECT` with scalar and
//!   `IN` subqueries, aggregates, `UNION`, `GROUP BY … ORDER BY … LIMIT`,
//!   and arithmetic between scalar subqueries), with a pretty-printer,
//! * [`translate`](mod@translate) — the lambda DCS → SQL translation of Table 10.
//!
//! Serving only renders the translation. The in-memory executor that runs
//! it, to cross-validate the lambda DCS evaluator, lives in the dev-only
//! `wtq-oracle` crate.

pub mod ast;
pub mod error;
pub mod translate;

pub use ast::{SqlExpr, SqlOrder, SqlQuery, SqlSelect};
pub use error::SqlError;
pub use translate::translate;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SqlError>;
