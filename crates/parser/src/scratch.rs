//! Reusable per-session scratch buffers for the parse hot path.
//!
//! Parsing one question allocates the same handful of working buffers —
//! the unsorted feature-pair builder, the formula-constant list, the
//! per-candidate feature/score staging area — once per question when a
//! fresh scratch is used, or **zero** times per question when a serving
//! session threads one [`ScratchSpace`] through every parse (the buffers
//! keep their high-water-mark capacity).
//!
//! The scratch is also where a parse leaves its stage timings
//! ([`ScratchSpace::spans`]), so the session that owns it reads back
//! exactly its own parse's breakdown.

use crate::features::FeatureVec;
use crate::spans::ParseSpans;
use crate::symbols::FeatureId;

/// Reusable working memory for [`crate::SemanticParser::parse_in_session_with`].
/// Plain `Default`-constructed state; never holds candidates across calls,
/// only capacity and the last parse's spans.
#[derive(Debug, Default)]
pub struct ScratchSpace {
    /// Unsorted `(id, value)` pairs for one candidate's features.
    pub(crate) pairs: Vec<(FeatureId, f64)>,
    /// Lowered constant texts of one candidate's formula.
    pub(crate) constants: Vec<String>,
    /// Extracted feature vectors of the whole pool, in generation order.
    pub(crate) features: Vec<FeatureVec>,
    /// Stage spans of the most recent parse through this scratch.
    pub(crate) spans: ParseSpans,
}

impl ScratchSpace {
    /// A fresh, empty scratch space.
    pub fn new() -> ScratchSpace {
        ScratchSpace::default()
    }

    /// The stage spans of the most recent parse through this scratch
    /// (all zero before the first).
    pub fn spans(&self) -> ParseSpans {
        self.spans
    }
}
