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
//! * [`rules`] computes the three sets compositionally, one rule per lambda
//!   DCS operator (Table 10's provenance column),
//! * [`highlight`] is Algorithm 1: it turns the provenance chain into a
//!   per-cell [`highlight::HighlightKind`] map plus aggregate markers on
//!   column headers,
//! * [`render`] draws highlighted tables as plain text, ANSI-colored text or
//!   HTML,
//! * [`sample`] shrinks a highlighted table to a few representative rows for
//!   display over large tables (§5.3).

pub mod highlight;
pub mod model;
pub mod render;
pub mod rules;
pub mod sample;

pub use highlight::{HighlightKind, Highlights};
pub use model::{OpMarker, ProvenanceChain};
pub use rules::{provenance, provenance_with};
pub use sample::sample_highlights;
