//! The log-linear candidate model and the parser front-end.
//!
//! The parser defines the distribution of Eq. 4,
//! `p_θ(z | x, T) ∝ exp(φ(x, T, z)ᵀ θ)`, over the candidates `Z_x` produced
//! for a question. At deployment the candidates are ranked by score and the
//! top-k are shown to the user with their explanations (§6.3).
//!
//! Weights are stored **densely**, indexed by [`FeatureId`]: scoring one
//! candidate is a walk over its sorted feature pairs with direct slot loads
//! instead of the historical per-feature B-tree string lookups. A parallel
//! `present` bitmap remembers which features *exist* in the model (including
//! explicit zeros the L1 regularizer shrank), so the serialized form — a
//! name-keyed map — stays byte-identical to the original
//! `BTreeMap<String, f64>` representation.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use wtq_dcs::{Answer, Evaluator, Formula};
use wtq_table::{Table, TableIndex};

use crate::candidates::{generate_candidates_timed, CandidateConfig, RawCandidate};
use crate::features::{extract_features_in, FeatureVec, QuestionContext};
use crate::lexicon::{link_stage, tokenize_stage, QuestionAnalysis};
use crate::scratch::ScratchSpace;
use crate::spans::ParseSpans;
use crate::symbols::{self, FeatureId, TRIGGER_KINDS};

/// A scored candidate query.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate lambda DCS formula.
    pub formula: Formula,
    /// Its canonical answer on the table.
    pub answer: Answer,
    /// The extracted feature vector `φ(x, T, z)`.
    pub features: FeatureVec,
    /// The model score `φᵀθ`.
    pub score: f64,
}

/// Log-linear model parameters `θ`: a dense weight vector indexed by
/// [`FeatureId`], plus a presence bitmap tracking which features the model
/// carries (zero-weight entries included — the historical sparse map kept
/// L1-shrunk zeros, and serialization preserves them).
#[derive(Debug, Clone, Default)]
pub struct LogLinearModel {
    weights: Vec<f64>,
    present: Vec<bool>,
}

/// The serialized form of [`LogLinearModel`]: the original name-keyed map,
/// so trained-model files are byte-compatible across the interning change.
#[derive(Serialize, Deserialize)]
struct LogLinearModelRepr {
    weights: BTreeMap<String, f64>,
}

impl Serialize for LogLinearModel {
    fn to_value(&self) -> serde::Value {
        LogLinearModelRepr {
            weights: self.sorted_weights(),
        }
        .to_value()
    }
}

impl Deserialize for LogLinearModel {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let repr = LogLinearModelRepr::from_value(value)?;
        Ok(LogLinearModel::from_named_weights(repr.weights))
    }
}

impl LogLinearModel {
    /// A model with all-zero weights (uniform candidate distribution).
    pub fn new() -> Self {
        LogLinearModel::default()
    }

    /// A model with hand-set prior weights favouring question/operator
    /// agreement — the starting point the trainer improves on, and a fair
    /// stand-in for the pretrained baseline parser of [37].
    pub fn with_prior() -> Self {
        let mut model = LogLinearModel::new();
        for (name, weight) in [
            ("const_coverage", 2.0),
            ("const_not_in_question", -2.5),
            ("unused_links", -1.2),
            ("col_coverage", 0.8),
            ("wh:number_match", 0.8),
            ("wh:number_mismatch", -0.8),
            ("wh:unexpected_number", -0.4),
            ("size", -0.3),
        ] {
            model.set_weight(name, weight);
        }
        for kind in TRIGGER_KINDS {
            model.set_weight(&format!("trig+op:{kind}"), 1.0);
            model.set_weight(&format!("trig-op:{kind}"), -0.6);
            model.set_weight(&format!("op-trig:{kind}"), -0.6);
        }
        model
    }

    /// A model from a name-keyed weight map (deserialization, migration).
    pub fn from_named_weights(weights: BTreeMap<String, f64>) -> Self {
        let mut model = LogLinearModel::new();
        for (name, weight) in weights {
            model.set_weight(&name, weight);
        }
        model
    }

    fn ensure_slot(&mut self, id: FeatureId) {
        let index = id.index();
        if index >= self.weights.len() {
            self.weights.resize(index + 1, 0.0);
            self.present.resize(index + 1, false);
        }
    }

    /// The weight of one feature by name (zero when absent).
    pub fn weight(&self, name: &str) -> f64 {
        symbols::lookup(name)
            .map(|id| self.weight_by_id(id))
            .unwrap_or(0.0)
    }

    /// The weight of one feature by id (zero when absent).
    pub fn weight_by_id(&self, id: FeatureId) -> f64 {
        self.weights.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Set one feature's weight by name, interning the name if needed. The
    /// feature becomes *present* (serialized even when the weight is zero).
    pub fn set_weight(&mut self, name: &str, weight: f64) {
        self.set_weight_by_id(symbols::intern(name), weight);
    }

    /// Set one feature's weight by id, marking it present.
    pub fn set_weight_by_id(&mut self, id: FeatureId, weight: f64) {
        self.ensure_slot(id);
        self.weights[id.index()] = weight;
        self.present[id.index()] = true;
    }

    /// The dense weight slice (indexed by [`FeatureId`]).
    pub fn dense_weights(&self) -> &[f64] {
        &self.weights
    }

    /// The present weights as a sorted name → weight map — the historical
    /// sparse representation (zero-weight entries included).
    pub fn sorted_weights(&self) -> BTreeMap<String, f64> {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, present)| **present)
            .map(|(index, _)| {
                (
                    symbols::feature_name(FeatureId::from_index(index)),
                    self.weights[index],
                )
            })
            .collect()
    }

    /// Number of non-zero weights.
    pub fn num_parameters(&self) -> usize {
        self.present
            .iter()
            .zip(&self.weights)
            .filter(|(present, weight)| **present && **weight != 0.0)
            .count()
    }

    /// Score a feature vector (`φᵀθ`, summed in feature-id order — which is
    /// name order, so scores are bit-identical to the string-keyed walk).
    pub fn score(&self, features: &FeatureVec) -> f64 {
        features.dot_dense(&self.weights)
    }
}

/// The candidate ordering used everywhere a pool is ranked: score
/// descending, then formula size ascending, then formula text. Each side is
/// `(score, formula.size(), formula text)`. Serving
/// ([`SemanticParser::parse`]) and the trainer's per-epoch re-scoring pass
/// both sort with this function, so the two paths cannot silently diverge.
pub(crate) fn ranking_order(a: (f64, usize, &str), b: (f64, usize, &str)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(b.2))
}

/// Softmax over candidate scores — the normalized `p_θ(z | x, T)` of Eq. 4.
pub fn softmax(scores: &[f64]) -> Vec<f64> {
    if scores.is_empty() {
        return Vec::new();
    }
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / total).collect()
}

/// Structural equivalence of formulas modulo the order of commutative
/// operands (union, intersection): the notion of "same query" used when
/// checking whether a candidate matches a gold or annotated query.
pub fn formulas_equivalent(a: &Formula, b: &Formula) -> bool {
    normalize(a) == normalize(b)
}

fn normalize(formula: &Formula) -> Formula {
    match formula {
        Formula::Union(a, b) => {
            let (a, b) = (normalize(a), normalize(b));
            if a.to_string() <= b.to_string() {
                Formula::Union(Box::new(a), Box::new(b))
            } else {
                Formula::Union(Box::new(b), Box::new(a))
            }
        }
        Formula::Intersect(a, b) => {
            let (a, b) = (normalize(a), normalize(b));
            if a.to_string() <= b.to_string() {
                Formula::Intersect(Box::new(a), Box::new(b))
            } else {
                Formula::Intersect(Box::new(b), Box::new(a))
            }
        }
        Formula::Join { column, values } => Formula::Join {
            column: column.clone(),
            values: Box::new(normalize(values)),
        },
        Formula::CompareJoin { column, op, value } => Formula::CompareJoin {
            column: column.clone(),
            op: *op,
            value: Box::new(normalize(value)),
        },
        Formula::ColumnValues { column, records } => Formula::ColumnValues {
            column: column.clone(),
            records: Box::new(normalize(records)),
        },
        Formula::Prev(sub) => Formula::Prev(Box::new(normalize(sub))),
        Formula::Next(sub) => Formula::Next(Box::new(normalize(sub))),
        Formula::Aggregate { op, sub } => Formula::Aggregate {
            op: *op,
            sub: Box::new(normalize(sub)),
        },
        Formula::SuperlativeRecords {
            op,
            records,
            column,
        } => Formula::SuperlativeRecords {
            op: *op,
            records: Box::new(normalize(records)),
            column: column.clone(),
        },
        Formula::RecordIndexSuperlative { op, records } => Formula::RecordIndexSuperlative {
            op: *op,
            records: Box::new(normalize(records)),
        },
        Formula::MostCommonValue { op, values, column } => Formula::MostCommonValue {
            op: *op,
            values: Box::new(normalize(values)),
            column: column.clone(),
        },
        Formula::CompareValues {
            op,
            values,
            key_column,
            value_column,
        } => Formula::CompareValues {
            op: *op,
            values: Box::new(normalize(values)),
            key_column: key_column.clone(),
            value_column: value_column.clone(),
        },
        Formula::Sub(a, b) => Formula::Sub(Box::new(normalize(a)), Box::new(normalize(b))),
        Formula::Const(_) | Formula::AllRecords => formula.clone(),
    }
}

/// The semantic parser: candidate generation plus log-linear ranking.
#[derive(Debug, Clone)]
pub struct SemanticParser {
    /// Model parameters.
    pub model: LogLinearModel,
    /// Candidate-generation limits.
    pub config: CandidateConfig,
}

impl Default for SemanticParser {
    fn default() -> Self {
        SemanticParser::with_prior()
    }
}

impl SemanticParser {
    /// A parser with zero weights (candidates in generation order).
    pub fn untrained() -> Self {
        SemanticParser {
            model: LogLinearModel::new(),
            config: CandidateConfig::default(),
        }
    }

    /// A parser with the hand-set prior weights (the "baseline parser").
    pub fn with_prior() -> Self {
        SemanticParser {
            model: LogLinearModel::with_prior(),
            config: CandidateConfig::default(),
        }
    }

    /// Parse a question into ranked candidates `Z_x`, highest score first.
    ///
    /// One [`TableIndex`] is built per call and shared between entity
    /// linking and candidate execution; the execution session's denotation
    /// cache is shared across the whole candidate pool.
    pub fn parse(&self, question: &str, table: &Table) -> Vec<Candidate> {
        self.parse_with_index(question, table, Arc::new(TableIndex::new(table)))
    }

    /// Like [`SemanticParser::parse`] but sharing an already-built index of
    /// `table`, so loops parsing many questions over the same tables (train,
    /// deploy) do not rebuild indexes — pair with [`wtq_table::IndexCache`].
    pub fn parse_with_index(
        &self,
        question: &str,
        table: &Table,
        index: Arc<TableIndex>,
    ) -> Vec<Candidate> {
        self.parse_in_session(question, &Evaluator::with_index(table, index))
    }

    /// Like [`SemanticParser::parse_with_index`] but reusing an existing
    /// evaluator session (and its cross-candidate denotation cache) — the
    /// entry point a per-request `Session` holds on to, so several questions
    /// answered against the same table within one request share both the
    /// index and the memoized record bases.
    pub fn parse_in_session(&self, question: &str, evaluator: &Evaluator<'_>) -> Vec<Candidate> {
        self.parse_in_session_with(question, evaluator, &mut ScratchSpace::new())
    }

    /// Like [`SemanticParser::parse_in_session`] but reusing the caller's
    /// [`ScratchSpace`], so a session answering many questions allocates its
    /// working buffers once. Leaves the per-stage timing spans in the
    /// scratch ([`ScratchSpace::spans`]).
    pub fn parse_in_session_with(
        &self,
        question: &str,
        evaluator: &Evaluator<'_>,
        scratch: &mut ScratchSpace,
    ) -> Vec<Candidate> {
        let start = Instant::now();
        let (lowered, tokens) = tokenize_stage(question);
        let tokenized = Instant::now();
        let analysis = link_stage(lowered, tokens, evaluator.kb());
        let linked = Instant::now();
        let mut eval_ns = 0u64;
        let raw = generate_candidates_timed(&analysis, evaluator, &self.config, &mut eval_ns);
        let generated = Instant::now();
        let (candidates, features_ns, score_ns) =
            self.rank_timed(raw, &analysis, evaluator.table(), scratch);
        scratch.spans = ParseSpans {
            tokenize_ns: (tokenized - start).as_nanos() as u64,
            lexicon_ns: (linked - tokenized).as_nanos() as u64,
            candidates_ns: ((generated - linked).as_nanos() as u64).saturating_sub(eval_ns),
            eval_ns,
            features_ns,
            score_ns,
        };
        candidates
    }

    /// Score and rank raw candidates, returning the feature-extraction and
    /// scoring span durations.
    ///
    /// The ordering lives in [`ranking_order`], shared with the trainer's
    /// re-scoring pass so serving and training can never rank differently.
    /// Question-level signals are hoisted into one [`QuestionContext`];
    /// ranking keys (`formula.size()`, `formula.to_string()`) are computed
    /// once per candidate instead of inside the sort comparator.
    fn rank_timed(
        &self,
        raw: Vec<RawCandidate>,
        analysis: &QuestionAnalysis,
        table: &Table,
        scratch: &mut ScratchSpace,
    ) -> (Vec<Candidate>, u64, u64) {
        let start = Instant::now();
        let context = QuestionContext::new(analysis, table);
        scratch.features.clear();
        for candidate in &raw {
            scratch.features.push(extract_features_in(
                analysis,
                &context,
                candidate,
                &mut scratch.pairs,
                &mut scratch.constants,
            ));
        }
        let extracted = Instant::now();
        let mut scored: Vec<(Candidate, usize, String)> = raw
            .into_iter()
            .zip(scratch.features.drain(..))
            .map(|(RawCandidate { formula, answer }, features)| {
                let score = self.model.score(&features);
                let size = formula.size();
                let key = formula.to_string();
                (
                    Candidate {
                        formula,
                        answer,
                        features,
                        score,
                    },
                    size,
                    key,
                )
            })
            .collect();
        scored.sort_by(|(a, a_size, a_key), (b, b_size, b_key)| {
            ranking_order((a.score, *a_size, a_key), (b.score, *b_size, b_key))
        });
        let candidates = scored
            .into_iter()
            .map(|(candidate, _, _)| candidate)
            .collect();
        let done = Instant::now();
        (
            candidates,
            (extracted - start).as_nanos() as u64,
            (done - extracted).as_nanos() as u64,
        )
    }

    /// The top-k candidates (the set shown to users at deployment).
    pub fn parse_top_k(&self, question: &str, table: &Table, k: usize) -> Vec<Candidate> {
        let mut candidates = self.parse(question, table);
        candidates.truncate(k);
        candidates
    }

    /// Normalized probabilities `p_θ(z | x, T)` over a candidate list.
    pub fn probabilities(&self, candidates: &[Candidate]) -> Vec<f64> {
        softmax(&candidates.iter().map(|c| c.score).collect::<Vec<f64>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::parse_formula;
    use wtq_table::samples;

    #[test]
    fn prior_parser_ranks_grounded_candidates_above_ungrounded_ones() {
        let table = samples::olympics();
        let parser = SemanticParser::with_prior();
        let candidates = parser.parse("Greece held its last Olympics in what year?", &table);
        assert!(candidates.len() >= 5);
        let gold = parse_formula("max(R[Year].Country.Greece)").unwrap();
        let gold_rank = candidates
            .iter()
            .position(|c| c.formula == gold)
            .expect("gold generated");
        let china = parse_formula("max(R[Year].Country.China)").unwrap();
        if let Some(china_rank) = candidates.iter().position(|c| c.formula == china) {
            assert!(
                gold_rank < china_rank,
                "ungrounded candidate outranked the gold query"
            );
        }
        // Scores are sorted descending.
        for pair in candidates.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let table = samples::medals();
        let parser = SemanticParser::with_prior();
        let candidates = parser.parse(
            "What is the difference in Total between Fiji and Tonga?",
            &table,
        );
        let probabilities = parser.probabilities(&candidates);
        assert_eq!(probabilities.len(), candidates.len());
        let total: f64 = probabilities.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(probabilities.iter().all(|p| *p >= 0.0 && *p <= 1.0));
    }

    #[test]
    fn top_k_truncates() {
        let table = samples::medals();
        let parser = SemanticParser::with_prior();
        let top = parser.parse_top_k("What is the highest Gold total?", &table, 7);
        assert!(top.len() <= 7);
        assert!(!top.is_empty());
    }

    #[test]
    fn softmax_handles_extremes() {
        assert!(softmax(&[]).is_empty());
        let p = softmax(&[1000.0, -1000.0]);
        assert!((p[0] - 1.0).abs() < 1e-9);
        assert!(p[1].abs() < 1e-9);
        let uniform = softmax(&[0.0, 0.0, 0.0, 0.0]);
        assert!(uniform.iter().all(|p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn formula_equivalence_ignores_commutative_order() {
        let a = parse_formula("(Country.Greece or Country.China)").unwrap();
        let b = parse_formula("(Country.China or Country.Greece)").unwrap();
        assert!(formulas_equivalent(&a, &b));
        let c = parse_formula("(City.London and Country.UK)").unwrap();
        let d = parse_formula("(Country.UK and City.London)").unwrap();
        assert!(formulas_equivalent(&c, &d));
        let e = parse_formula("sub(count(City.Athens), count(City.Paris))").unwrap();
        let f = parse_formula("sub(count(City.Paris), count(City.Athens))").unwrap();
        assert!(
            !formulas_equivalent(&e, &f),
            "difference is not commutative"
        );
        // Nested operands normalize too.
        let g = parse_formula("count((Country.Greece or Country.China))").unwrap();
        let h = parse_formula("count((Country.China or Country.Greece))").unwrap();
        assert!(formulas_equivalent(&g, &h));
    }

    #[test]
    fn model_parameter_bookkeeping() {
        let mut model = LogLinearModel::new();
        assert_eq!(model.num_parameters(), 0);
        model.set_weight("x", 1.5);
        model.set_weight("y", 0.0);
        assert_eq!(model.num_parameters(), 1);
        assert_eq!(model.weight("x"), 1.5);
        assert_eq!(model.weight("missing"), 0.0);
        assert!(LogLinearModel::with_prior().num_parameters() > 10);
        // "y" is present (serialized) even though it weighs zero.
        assert!(model.sorted_weights().contains_key("y"));
    }

    #[test]
    fn model_serialization_is_the_historical_name_keyed_map() {
        let model = LogLinearModel::with_prior();
        let json = serde_json::to_string(&model).expect("model serialize");
        // The wire form is {"weights":{"name":weight,...}} with names in
        // sorted order — exactly what the BTreeMap-backed struct produced.
        assert!(json.starts_with("{\"weights\":{"));
        assert!(json.contains("\"const_coverage\":2"));
        let back: LogLinearModel = serde_json::from_str(&json).expect("model parse");
        assert_eq!(back.sorted_weights(), model.sorted_weights());
        assert_eq!(
            serde_json::to_string(&back).expect("reserialize"),
            json,
            "roundtrip must be byte-identical"
        );
    }

    #[test]
    fn scratch_reuse_parses_identically() {
        let table = samples::olympics();
        let parser = SemanticParser::with_prior();
        let evaluator = Evaluator::new(&table);
        let mut scratch = ScratchSpace::new();
        let questions = [
            "Greece held its last Olympics in what year?",
            "Which city hosted in 2008?",
            "How many times did Athens host?",
        ];
        for question in questions {
            let fresh = parser.parse_in_session(question, &evaluator);
            let reused = parser.parse_in_session_with(question, &evaluator, &mut scratch);
            assert_eq!(fresh.len(), reused.len());
            for (a, b) in fresh.iter().zip(&reused) {
                assert_eq!(a.formula, b.formula);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.features, b.features);
            }
        }
    }
}
