//! # wtq-dcs
//!
//! Lambda DCS (lambda dependency-based compositional semantics) over web
//! tables, as used by *Explaining Queries over Web Tables to Non-Experts*
//! (Berant et al., ICDE 2019, §3.2 and Table 10).
//!
//! Lambda DCS is a set-oriented query language: a formula executed against a
//! table denotes either a set of values (strings, numbers, dates), a set of
//! table records, or a single number produced by an aggregate / arithmetic
//! operation. The language is compositional — complex questions are expressed
//! by nesting a small catalogue of operators (join, reverse join, prev/next,
//! intersection, union, aggregation, superlatives, arithmetic difference,
//! comparisons).
//!
//! This crate provides:
//!
//! * [`Formula`] — the abstract syntax tree, covering every operator of the
//!   paper's Table 10,
//! * [`parse_formula`] — a concrete textual syntax (`R[Year].Country.Greece`,
//!   `max(...)`, `sub(...)`, …) with a round-trippable [`Display`]
//!   implementation,
//! * [`arena`](mod@arena) — a hash-consed [`FormulaArena`]: each distinct
//!   node stored once as a flat, `Copy` [`Node`] over [`FormulaId`]
//!   operands and interned column names and constants, with its size,
//!   depth and static type recorded, so equal formulas are equal ids,
//! * [`eval`](mod@eval) — the index-backed execution engine producing [`Denotation`]s
//!   with cell-level tracking (the raw material of the provenance model);
//!   [`Evaluator`] is a stateful per-table session that evaluates formulas
//!   as ids in its own arena, memoizes record-denoting subformulas and
//!   grouped projections by [`FormulaId`] across a candidate pool, and
//!   answers formulas without cell traces ([`Evaluator::answer`]); the
//!   arena is emptied with the memo once it passes [`FORMULA_ARENA_CAP`]
//!   nodes,
//! * [`typecheck`](mod@typecheck) — static classification of formulas into record-denoting /
//!   value-denoting / numeric, one typing rule per operator that the
//!   arena applies once per node (the semantic parser's candidate
//!   generation reads it from there),
//! * [`Answer`] — canonicalized query results used to compare a candidate
//!   query's output against a gold answer (the `r(z|T, y)` indicator of §6.2).
//!
//! The scan-based reference semantics the indexed engine is differentially
//! tested against live in the dev-only `wtq-oracle` crate.
//!
//! [`Display`]: std::fmt::Display

pub mod answer;
pub mod arena;
pub mod ast;
pub mod error;
pub mod eval;
pub mod parse;
pub mod typecheck;

pub use answer::Answer;
pub use arena::{ColumnId, ConstId, FormulaArena, FormulaId, Node, FORMULA_ARENA_CAP};
pub use ast::{AggregateOp, CompareOp, Formula, SuperlativeOp};
pub use error::DcsError;
pub use eval::{eval, Denotation, Evaluator, SharedDenotation, TracedValue};
pub use parse::parse_formula;
pub use typecheck::{typecheck, FormulaType};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, DcsError>;
