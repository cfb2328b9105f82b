//! Parse-pipeline timing: the monotonic-clock spans of one question's
//! parse, stage by stage.
//!
//! Every [`crate::SemanticParser::parse_in_session_with`] call is
//! decomposed into tokenize, lexicon (entity linking), candidate
//! composition, candidate execution (`eval`), feature extraction and
//! scoring/ranking spans, measured once per question (nothing on the
//! per-candidate path) and left in the caller's [`crate::ScratchSpace`].
//! The parser keeps no counters of its own: whoever owns the session
//! decides where the spans go (the serving engine records them into its
//! metric handles and request traces; benches sum them).

use std::ops::AddAssign;

/// The stage spans of one parse, in nanoseconds (or, summed with `+=`,
/// of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseSpans {
    /// Normalization + tokenization time.
    pub tokenize_ns: u64,
    /// Entity linking time (value links, column links, numbers).
    pub lexicon_ns: u64,
    /// Candidate composition time, *excluding* formula execution.
    pub candidates_ns: u64,
    /// Formula execution time during candidate generation (the evaluator
    /// calls that filter record bases and denote candidates).
    pub eval_ns: u64,
    /// Feature extraction time (question context + per-candidate vectors).
    pub features_ns: u64,
    /// Scoring and ranking time (dot products + sort).
    pub score_ns: u64,
}

impl ParseSpans {
    /// The stage names, in pipeline order — the order of
    /// [`ParseSpans::stages`].
    pub const STAGES: [&'static str; 6] = [
        "tokenize",
        "lexicon",
        "candidates",
        "eval",
        "features",
        "score",
    ];

    /// The spans in [`ParseSpans::STAGES`] order.
    pub fn stages(&self) -> [u64; 6] {
        [
            self.tokenize_ns,
            self.lexicon_ns,
            self.candidates_ns,
            self.eval_ns,
            self.features_ns,
            self.score_ns,
        ]
    }

    /// Total time across all spans.
    pub fn total_ns(&self) -> u64 {
        self.stages().iter().sum()
    }
}

impl AddAssign for ParseSpans {
    fn add_assign(&mut self, other: ParseSpans) {
        self.tokenize_ns += other.tokenize_ns;
        self.lexicon_ns += other.lexicon_ns;
        self.candidates_ns += other.candidates_ns;
        self.eval_ns += other.eval_ns;
        self.features_ns += other.features_ns;
        self.score_ns += other.score_ns;
    }
}
