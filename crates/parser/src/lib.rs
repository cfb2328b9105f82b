//! # wtq-parser
//!
//! A log-linear semantic parser mapping natural-language questions over a web
//! table to ranked candidate lambda DCS queries. It stands in for the
//! state-of-the-art parser of Zhang et al. \[37\] used by the paper (§2, §6.2):
//! the paper's contribution only requires a parser that (a) produces a ranked
//! list of candidate formal queries, (b) is imperfect at rank 1, and (c) can
//! be retrained from question–answer pairs (weak supervision, Eq. 6) and from
//! question–query annotations procured through query explanations (Eq. 7–8).
//!
//! Pipeline:
//!
//! 1. [`lexicon`] links question tokens to table cells, column headers and
//!    numbers,
//! 2. [`candidates`] composes typed lambda DCS formulas anchored to those
//!    links (joins, comparisons, projections, aggregates, superlatives,
//!    differences, …), keeping only formulas that execute to a non-empty
//!    result; formulas are composed, deduplicated, typed and evaluated as
//!    ids in the evaluator session's hash-consed [`wtq_dcs::FormulaArena`],
//! 3. [`features`] extracts the sparse feature vector `φ(x, T, z)` of Eq. 4
//!    as interned `(FeatureId, f64)` pairs over the [`symbols`] feature
//!    symbol table, walking each candidate's arena nodes against
//!    per-question facts about its constants and columns,
//! 4. [`model`] scores candidates with a log-linear distribution
//!    `p_θ(z | x, T) ∝ exp(φ(x, T, z)ᵀ θ)` (dense weights indexed by
//!    [`FeatureId`]) and ranks them; a parse for the top k
//!    ([`SemanticParser::parse_top_k_in_session`]) renders formula text to
//!    break ties, and builds formula trees, only for the candidates up to
//!    the k-th and those tied with it,
//! 5. [`train`] optimizes `θ` with AdaGrad and L1 regularization using the
//!    weak-supervision objective of Eq. 6, or the annotation-aware objective
//!    of Eq. 8 when user feedback is available.
//!
//! Feature ids are assigned in lexicographic name order, so every id-ordered
//! walk (scoring, serialization, gradient updates) reproduces the historical
//! string-keyed pipeline bit for bit — pinned against the dev-only
//! `wtq-oracle` crate, which keeps the original `BTreeMap<String, f64>`
//! implementation alive as a differential oracle. [`spans`] defines the per-stage parse timing spans
//! a parse leaves in its [`scratch`] space, next to the reusable
//! per-session working buffers. The parser keeps no process-wide state.

pub mod candidates;
pub mod features;
pub mod lexicon;
pub mod model;
pub mod scratch;
pub mod spans;
pub mod symbols;
pub mod train;

pub use candidates::{generate_candidates, generate_candidates_with, CandidateConfig};
pub use features::{extract_features, FeatureVec, QuestionContext};
pub use lexicon::{analyze_question, analyze_question_with, normalize_question, QuestionAnalysis};
pub use model::{formulas_equivalent, Candidate, LogLinearModel, SemanticParser};
pub use scratch::ScratchSpace;
pub use spans::ParseSpans;
pub use symbols::{feature_name, intern, lookup, FeatureId};
pub use train::{ParserEvaluation, TrainConfig, TrainExample, Trainer};
