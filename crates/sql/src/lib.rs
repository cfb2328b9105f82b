//! # wtq-sql
//!
//! SQL substrate for the *Explaining Queries over Web Tables to Non-Experts*
//! reproduction (§3.2 "Mapping to SQL" and Table 10).
//!
//! The paper positions lambda DCS as an expressive fragment of SQL by giving
//! a translation for every operator (Table 10). This crate provides:
//!
//! * [`ast`] — a small SQL abstract syntax tree covering exactly the query
//!   shapes the translation produces (single-table `SELECT` with scalar and
//!   `IN` subqueries, aggregates, `UNION`, `GROUP BY … ORDER BY … LIMIT`,
//!   and arithmetic between scalar subqueries), with a pretty-printer,
//! * [`translate`](mod@translate) — the lambda DCS → SQL translation of Table 10,
//! * [`engine`] — a cost-based in-memory executor for that SQL fragment
//!   over a single [`wtq_table::Table`], used to cross-validate the lambda
//!   DCS evaluator: for every operator the translated SQL must return the
//!   same answer as the direct lambda DCS execution. An [`SqlEngine`] runs
//!   queries under a [`PlanMode`]: `Auto` picks per predicate between the
//!   shared [`wtq_table::TableIndex`] and the table's columnar kernels by
//!   estimated selectivity (and never builds an index for a single cold
//!   query); `ForceScan` keeps the pre-index scan path as the oracle of the
//!   differential suites; `ForceIndex` pins the indexed path. `Auto`
//!   decisions are counted per engine in [`PlannerCounters`]; the serving
//!   layers share one set across their per-request engines and attach it
//!   to their metrics registry.

pub mod ast;
pub mod engine;
pub mod error;
pub mod stats;
pub mod translate;

pub use ast::{SqlExpr, SqlOrder, SqlQuery, SqlSelect};
pub use engine::{PlanMode, SqlEngine, SqlResult};
pub use error::SqlError;
pub use stats::PlannerCounters;
pub use translate::translate;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SqlError>;
