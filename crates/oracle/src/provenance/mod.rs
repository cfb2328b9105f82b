//! The provenance of §4 and the highlights of §5.2–5.3 over plain cell
//! sets: the oracle of `wtq-provenance`, which holds the same chain per
//! column, in its differential suite.
//!
//! * [`rules`] computes `P_O ⊆ P_E ⊆ P_C` as three `BTreeSet<CellRef>`,
//!   `P_C` holding every cell of every mentioned column. It walks the
//!   `Formula` tree, calls [`wtq_dcs::Evaluator::eval`] for each operator
//!   and clamps the chain by building three more sets.
//! * [`highlight`] classifies cells by set membership and counts the
//!   classes by building the difference sets `P_E \ P_O` and `P_C \ P_E`.
//! * [`sample`] rebuilds a table of the sampled rows through
//!   [`wtq_table::TableBuilder`] and re-indexes the chain onto it.
//! * [`render`] draws a table and its highlights, every row of it.
//!
//! Cell kinds ([`wtq_provenance::HighlightKind`]) and header markers
//! ([`wtq_provenance::OpMarker`]) are the production types.

pub mod highlight;
pub mod model;
pub mod render;
pub mod rules;
pub mod sample;

pub use highlight::Highlights;
pub use model::ProvenanceChain;
pub use rules::{provenance, provenance_with};
pub use sample::{sample_highlights, SampledHighlights};
