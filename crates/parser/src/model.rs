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

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use wtq_dcs::{Answer, Evaluator, Formula, FormulaArena};
use wtq_table::{Table, TableIndex};

use crate::candidates::{generate_pool, CandidateConfig, PoolCandidate};
use crate::features::{dot_dense, extract_pool_features, FeatureVec};
use crate::lexicon::{link_stage, tokenize_stage};
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
    /// stand-in for the pretrained baseline parser of \[37\].
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

    /// [`LogLinearModel::score`] of feature entries sorted by id.
    pub(crate) fn score_entries(&self, entries: &[(FeatureId, f64)]) -> f64 {
        dot_dense(entries, &self.weights)
    }
}

/// Order a scored pool far enough to serve its best `k`. `ranked` holds
/// `(score, formula size, candidate)`; afterwards its first `min(k, len)`
/// entries are those of the full ranking — score descending, then size
/// ascending, then formula text ascending, ties in generation order. Text
/// breaks ties only inside a group of two or more candidates sharing a
/// (score, size) that starts before position `k`, so `key` (a candidate's
/// text) is asked for those alone; the rest stay in (score, size) order.
/// Serving ([`SemanticParser::parse_top_k_in_session`]) and the trainer's
/// per-epoch re-scoring both rank with this function, so the two paths
/// cannot silently diverge.
pub(crate) fn rank_top_k<K: Ord>(
    ranked: &mut [(f64, usize, usize)],
    k: usize,
    mut key: impl FnMut(usize) -> K,
) {
    let by_score_then_size = |a: &(f64, usize, usize), b: &(f64, usize, usize)| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.1.cmp(&b.1))
    };
    ranked.sort_by(by_score_then_size);
    let mut start = 0;
    while start < k.min(ranked.len()) {
        let first = ranked[start];
        let end = start
            + ranked[start..]
                .iter()
                .take_while(|entry| by_score_then_size(&first, entry) == Ordering::Equal)
                .count();
        if end - start > 1 {
            let mut group: Vec<(K, (f64, usize, usize))> = ranked[start..end]
                .iter()
                .map(|&entry| (key(entry.2), entry))
                .collect();
            group.sort_by(|a, b| a.0.cmp(&b.0));
            for (slot, (_, entry)) in ranked[start..end].iter_mut().zip(group) {
                *slot = entry;
            }
        }
        start = end;
    }
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
        self.parse_top_k_in_session(question, evaluator, scratch, usize::MAX)
    }

    /// [`SemanticParser::parse_in_session_with`] for the `k` best candidates
    /// only: exactly the first `k` of the full ranking, but ranking text is
    /// rendered, and formulas and feature vectors are built, only for as
    /// much of the pool as those `k` need. The candidates are generated,
    /// featurized and scored as ids in the session's formula arena.
    pub fn parse_top_k_in_session(
        &self,
        question: &str,
        evaluator: &Evaluator<'_>,
        scratch: &mut ScratchSpace,
        k: usize,
    ) -> Vec<Candidate> {
        let start = Instant::now();
        let (lowered, tokens) = tokenize_stage(question);
        let tokenized = Instant::now();
        let analysis = link_stage(lowered, tokens, evaluator.kb());
        let linked = Instant::now();
        let mut eval_ns = 0u64;
        let pool = generate_pool(&analysis, evaluator, &self.config, &mut eval_ns);
        let generated = Instant::now();
        let arena = evaluator.arena();
        extract_pool_features(&analysis, evaluator.table(), &arena, &pool, scratch);
        let extracted = Instant::now();
        let candidates = self.rank(pool, &arena, scratch, k);
        let done = Instant::now();
        scratch.spans = ParseSpans {
            tokenize_ns: (tokenized - start).as_nanos() as u64,
            lexicon_ns: (linked - tokenized).as_nanos() as u64,
            candidates_ns: ((generated - linked).as_nanos() as u64).saturating_sub(eval_ns),
            eval_ns,
            features_ns: (extracted - generated).as_nanos() as u64,
            score_ns: (done - extracted).as_nanos() as u64,
        };
        candidates
    }

    /// Score the featurized pool, rank it for its best `k` ([`rank_top_k`],
    /// ranking text rendered from materialized formulas) and build those
    /// `k` as [`Candidate`]s.
    fn rank(
        &self,
        mut pool: Vec<PoolCandidate>,
        arena: &FormulaArena,
        scratch: &mut ScratchSpace,
        k: usize,
    ) -> Vec<Candidate> {
        scratch.ranked.clear();
        for (index, candidate) in pool.iter().enumerate() {
            let score = self.model.score_entries(scratch.features(index));
            scratch
                .ranked
                .push((score, arena.size(candidate.id), index));
        }
        rank_top_k(&mut scratch.ranked, k, |index| {
            arena.materialize(pool[index].id).to_string()
        });
        scratch
            .ranked
            .iter()
            .take(k)
            .map(|&(score, _, index)| Candidate {
                formula: arena.materialize(pool[index].id),
                // Each candidate is built once: take its answer.
                answer: std::mem::replace(&mut pool[index].answer, Answer::Records(Vec::new())),
                features: FeatureVec::from_sorted(scratch.features(index)),
                score,
            })
            .collect()
    }

    /// The top-k candidates (the set shown to users at deployment).
    pub fn parse_top_k(&self, question: &str, table: &Table, k: usize) -> Vec<Candidate> {
        let evaluator = Evaluator::with_index(table, Arc::new(TableIndex::new(table)));
        self.parse_top_k_in_session(question, &evaluator, &mut ScratchSpace::new(), k)
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
    fn rank_top_k_breaks_ties_by_text_only_up_to_the_boundary() {
        // (score, size, text) per candidate, in generation order.
        let pool = [
            (2.0, 1, "c"),
            (3.0, 1, "z"),
            (2.0, 1, "a"),
            (1.0, 1, "y"),
            (2.0, 1, "b"),
            (2.0, 2, "x"),
            (1.0, 1, "w"),
        ];
        let full = [1, 2, 4, 0, 5, 6, 3];
        for (k, keyed) in [
            (0, vec![]),
            (1, vec![]),
            (2, vec![0, 2, 4]),
            (5, vec![0, 2, 4]),
            (6, vec![0, 2, 4, 3, 6]),
            (7, vec![0, 2, 4, 3, 6]),
            (usize::MAX, vec![0, 2, 4, 3, 6]),
        ] {
            let mut ranked: Vec<(f64, usize, usize)> = pool
                .iter()
                .enumerate()
                .map(|(index, &(score, size, _))| (score, size, index))
                .collect();
            let mut asked = Vec::new();
            rank_top_k(&mut ranked, k, |index| {
                asked.push(index);
                pool[index].2
            });
            let served: Vec<usize> = ranked.iter().take(k).map(|entry| entry.2).collect();
            assert_eq!(served, full[..k.min(full.len())], "k = {k}");
            asked.sort_unstable();
            let mut keyed = keyed;
            keyed.sort_unstable();
            assert_eq!(asked, keyed, "texts rendered for k = {k}");
        }
    }

    #[test]
    fn top_k_parses_are_prefixes_of_the_full_parse() {
        use rand::SeedableRng;
        let parser = SemanticParser::with_prior();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for (index, domain) in wtq_dataset::all_domains().iter().enumerate().take(6) {
            let table = wtq_dataset::generate_table(domain, index, &mut rng);
            let evaluator = Evaluator::new(&table);
            for question in wtq_dataset::generate_questions(&table, 5, &mut rng) {
                let full = parser.parse_in_session(&question.question, &evaluator);
                assert!(!full.is_empty());
                for k in [0, 1, 2, 7, 20, full.len()] {
                    let top = parser.parse_top_k_in_session(
                        &question.question,
                        &evaluator,
                        &mut ScratchSpace::new(),
                        k,
                    );
                    assert_eq!(top.len(), k.min(full.len()));
                    for (a, b) in top.iter().zip(&full) {
                        assert_eq!(a.formula, b.formula, "k = {k}");
                        assert_eq!(a.score.to_bits(), b.score.to_bits());
                        assert_eq!(a.answer, b.answer);
                        assert_eq!(a.features, b.features);
                    }
                }
            }
        }
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
