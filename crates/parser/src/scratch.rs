//! Reusable per-session scratch buffers for the parse hot path.
//!
//! Parsing one question allocates the same handful of working buffers —
//! the unsorted feature-pair builder, the per-question facts about the
//! pool's constants and columns, the whole pool's feature entries and the
//! ranking staging area — once per question when a fresh scratch is used,
//! or **zero** times per question when a serving session threads one
//! [`ScratchSpace`] through every parse (the buffers keep their
//! high-water-mark capacity).
//!
//! The scratch is also where a parse leaves its stage timings
//! ([`ScratchSpace::spans`]), so the session that owns it reads back
//! exactly its own parse's breakdown.

use crate::features::IdFacts;
use crate::spans::ParseSpans;
use crate::symbols::FeatureId;

/// Reusable working memory for [`crate::SemanticParser::parse_in_session_with`].
/// Plain `Default`-constructed state; never holds candidates across calls,
/// only capacity and the last parse's spans.
#[derive(Debug, Default)]
pub struct ScratchSpace {
    /// Unsorted `(id, value)` pairs for one candidate's features.
    pub(crate) pairs: Vec<(FeatureId, f64)>,
    /// What the question's constants and columns contribute to features.
    pub(crate) ids: IdFacts,
    /// The feature entries of the whole pool, candidate after candidate in
    /// generation order; `bounds[i]` ends candidate `i`'s.
    pub(crate) entries: Vec<(FeatureId, f64)>,
    pub(crate) bounds: Vec<usize>,
    /// `(score, size, candidate)` per candidate, in ranking order.
    pub(crate) ranked: Vec<(f64, usize, usize)>,
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

    /// The feature entries of candidate `index` of the last featurized pool.
    pub(crate) fn features(&self, index: usize) -> &[(FeatureId, f64)] {
        let start = index
            .checked_sub(1)
            .map_or(0, |previous| self.bounds[previous]);
        &self.entries[start..self.bounds[index]]
    }
}
