//! # wtq-provenance
//!
//! The multilevel cell-based provenance model of *Explaining Queries over Web
//! Tables to Non-Experts* (§4) and the provenance-based highlights built on
//! top of it (§5.2, Algorithm 1), including the large-table sampling of §5.3.
//!
//! For a query `Q` over a table `T` the model defines three cell sets:
//!
//! * `P_O(Q, T)` — the cells output by `Q(T)` (plus the aggregate function
//!   itself when the result is an aggregate / arithmetic value),
//! * `P_E(Q, T)` — the cells examined during execution: the union of `P_O`
//!   over every sub-formula of `Q`,
//! * `P_C(Q, T)` — every cell of every column that `Q` projects, selects on
//!   or aggregates.
//!
//! These form a chain `P_O ⊆ P_E ⊆ P_C` (Definition 4.1/4.2), and each level
//! maps to one visual treatment in the highlights: colored, framed and lit
//! cells respectively (all other cells are unhighlighted).
//!
//! * [`model`] holds the chain per column: `P_O` and `P_E` as one ascending
//!   record list per column ([`CellSet`]), `P_C` as the list of mentioned
//!   columns ([`ColumnSet`]), since every rule outputs the cells of some
//!   records in one column and `P_C` is whole columns,
//! * [`rules`] computes the three sets compositionally, one rule per lambda
//!   DCS operator (Table 10's provenance column), over the formula's ids in
//!   the evaluator session's arena and the record sets in its memo,
//! * [`highlight`] is Algorithm 1: it turns the provenance chain into a
//!   per-cell [`highlight::HighlightKind`] map plus aggregate markers on
//!   column headers,
//! * [`render`] draws highlighted tables as plain text, ANSI-colored text or
//!   HTML,
//! * [`sample`] picks a few representative records of a highlighted table
//!   for display over large tables (§5.3) and renders them straight from
//!   the table.
//!
//! The dev-only `wtq-oracle` crate keeps a cell-set implementation as the
//! specification; `tests/differential_provenance.rs` holds this crate to it
//! byte for byte.

pub mod highlight;
pub mod model;
pub mod render;
pub mod rules;
pub mod sample;

pub use highlight::{HighlightKind, Highlights};
pub use model::{CellSet, ColumnSet, OpMarker, ProvenanceChain};
pub use rules::{provenance, provenance_with};
pub use sample::{sample_highlights, SampledHighlights};
