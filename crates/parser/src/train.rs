//! Training the semantic parser (§6.2, Eq. 5–8).
//!
//! The parser is trained from examples `{(x_i, T_i, y_i)}` by maximizing the
//! log-likelihood of producing the correct *answer* (weak supervision,
//! Eq. 6): the reward indicator `r(z | T, y)` is 1 for every candidate whose
//! execution matches the answer. When a subset of the examples additionally
//! carries question–query annotations procured through query explanations,
//! those examples switch to the indicator `r*(z | x, T)` of Eq. 7 — 1 only
//! for candidates equivalent to an annotated query — giving the combined
//! objective of Eq. 8. Optimization uses AdaGrad with L1 regularization,
//! following the paper (and \[30\]).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wtq_dcs::{Answer, Evaluator, Formula};
use wtq_table::{Catalog, IndexCache};

use crate::candidates::{generate_pool, PoolCandidate};
use crate::features::{extract_pool_features, FeatureVec};
use crate::lexicon::analyze_question_with;
use crate::model::{formulas_equivalent, rank_top_k, softmax, SemanticParser};
use crate::scratch::ScratchSpace;
use crate::symbols::FeatureId;

/// One training example: a question, its table, the gold answer, and (for
/// annotated examples) the set of user-validated correct queries `Q_x`.
#[derive(Debug, Clone)]
pub struct TrainExample {
    /// The natural-language question.
    pub question: String,
    /// Name of the table in the catalog.
    pub table: String,
    /// Gold answer `y` (always available — this is the weak supervision).
    pub answer: Answer,
    /// User-annotated correct queries `Q_x`, when feedback was collected.
    pub annotations: Vec<Formula>,
}

impl TrainExample {
    /// A weakly-supervised example (answer only).
    pub fn weak(question: impl Into<String>, table: impl Into<String>, answer: Answer) -> Self {
        TrainExample {
            question: question.into(),
            table: table.into(),
            answer,
            annotations: Vec::new(),
        }
    }

    /// Attach annotated queries (marking this example as a member of `A`).
    pub fn with_annotations(mut self, annotations: Vec<Formula>) -> Self {
        self.annotations = annotations;
        self
    }

    /// Whether the example carries annotations (`x ∈ A` in Eq. 8).
    pub fn is_annotated(&self) -> bool {
        !self.annotations.is_empty()
    }
}

/// Hyper-parameters of the AdaGrad trainer.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// AdaGrad base learning rate.
    pub learning_rate: f64,
    /// L1 regularization strength (the `λ‖θ‖₁` of Eq. 6).
    pub l1: f64,
    /// Shuffle seed (training is deterministic given the seed).
    pub seed: u64,
    /// Worker threads for the candidate-generation phase. Candidate pools
    /// and feature vectors are weight-independent, so they are generated in
    /// parallel up front; the AdaGrad updates themselves stay sequential, so
    /// the trained weights are identical for every worker count.
    pub workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            learning_rate: 0.2,
            l1: 1e-4,
            seed: 13,
            workers: wtq_runtime::default_workers(),
        }
    }
}

/// Evaluation metrics over a set of examples (the paper's correctness and
/// MRR, §7.1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParserEvaluation {
    /// Number of examples evaluated.
    pub examples: usize,
    /// Fraction of examples whose top-ranked candidate is a correct
    /// translation of the question.
    pub correctness: f64,
    /// Mean reciprocal rank of the first correct candidate.
    pub mrr: f64,
    /// Fraction of examples with a correct candidate anywhere in the top-k
    /// (the correctness bound of §7.2).
    pub bound_at_k: f64,
    /// Fraction of examples whose top-ranked candidate merely returns the
    /// gold answer (answer accuracy — the weaker metric the paper contrasts
    /// correctness with in Figure 8).
    pub answer_accuracy: f64,
}

/// One generated candidate of a training example, with everything the
/// gradient step needs precomputed: candidate generation and feature
/// extraction depend only on the question and the table — never on the
/// model weights — so they are computed once (in parallel across examples)
/// and reused by every epoch's scoring pass.
#[derive(Debug, Clone)]
struct PreparedCandidate {
    formula: Formula,
    answer: Answer,
    features: FeatureVec,
    /// Cached `formula.size()` — second-level ranking tie-break.
    size: usize,
    /// Cached `formula.to_string()` — final ranking tie-break.
    key: String,
}

/// A training example's precomputed candidate pool (generation order).
#[derive(Debug, Clone)]
struct PreparedExample {
    candidates: Vec<PreparedCandidate>,
}

/// Generate the weight-independent part of one SGD step: the candidate pool
/// and feature vectors for `example`. Thread-safe (`&IndexCache` is shared),
/// so the trainer fans this out over a worker pool.
fn prepare_example(
    parser: &SemanticParser,
    indexes: &IndexCache,
    example: &TrainExample,
    catalog: &Catalog,
) -> Option<PreparedExample> {
    let table = catalog.get(&example.table)?;
    let index = indexes.get_or_build(table);
    let evaluator = Evaluator::with_index(table, index);
    let analysis = analyze_question_with(&example.question, evaluator.kb());
    let pool = generate_pool(&analysis, &evaluator, &parser.config, &mut 0);
    let arena = evaluator.arena();
    let mut scratch = ScratchSpace::new();
    extract_pool_features(&analysis, table, &arena, &pool, &mut scratch);
    let candidates = pool
        .into_iter()
        .enumerate()
        .map(|(index, PoolCandidate { id, answer })| {
            let formula = arena.materialize(id);
            PreparedCandidate {
                size: arena.size(id),
                key: formula.to_string(),
                formula,
                answer,
                features: FeatureVec::from_sorted(scratch.features(index)),
            }
        })
        .collect();
    Some(PreparedExample { candidates })
}

/// AdaGrad trainer for the log-linear parser. Per-feature state is dense,
/// indexed by [`FeatureId`] — the gradient step walks the touched ids with
/// direct slot loads instead of B-tree string lookups.
pub struct Trainer {
    /// Accumulated squared gradients per feature (dense, by feature id).
    adagrad: Vec<f64>,
    /// Gradient accumulator reused across steps (dense, by feature id).
    gradient: Vec<f64>,
    /// Which `gradient` slots hold live values for the current step.
    in_gradient: Vec<bool>,
    /// The ids with live gradient slots, in first-touched order; sorted
    /// before applying updates so the L1 shrinkage visits features in the
    /// same (name) order the historical map-keyed loop did.
    touched: Vec<u32>,
    /// Shared table indexes, built once per table across epochs (and shared
    /// across the candidate-generation workers).
    indexes: IndexCache,
    config: TrainConfig,
}

impl Trainer {
    /// Create a trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            adagrad: Vec::new(),
            gradient: Vec::new(),
            in_gradient: Vec::new(),
            touched: Vec::new(),
            indexes: IndexCache::new(),
            config,
        }
    }

    /// Train `parser` in place on `examples` over tables from `catalog`.
    ///
    /// Annotated examples use the Eq. 7 indicator, all others the Eq. 5
    /// answer indicator; this is exactly the split objective of Eq. 8.
    ///
    /// Candidate generation (the expensive, weight-independent part of each
    /// step) runs once up front on a worker pool; the sequential epochs then
    /// only re-score the prepared pools with the current weights, so the
    /// resulting parser is byte-identical to fully sequential training.
    pub fn train(
        &mut self,
        parser: &mut SemanticParser,
        examples: &[TrainExample],
        catalog: &Catalog,
    ) {
        let prepared: Vec<Option<PreparedExample>> = {
            let parser: &SemanticParser = parser;
            let indexes = &self.indexes;
            wtq_runtime::run_batch(
                self.config.workers,
                examples.iter().collect(),
                |_, example| prepare_example(parser, indexes, example, catalog),
            )
        };
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for &index in &order {
                if let Some(prepared) = &prepared[index] {
                    self.step(parser, prepared, &examples[index]);
                }
            }
        }
    }

    /// One stochastic gradient step on a single example. Returns `true` when
    /// the example produced a usable gradient (at least one rewarded
    /// candidate).
    pub fn train_on_example(
        &mut self,
        parser: &mut SemanticParser,
        example: &TrainExample,
        catalog: &Catalog,
    ) -> bool {
        let Some(prepared) = prepare_example(parser, &self.indexes, example, catalog) else {
            return false;
        };
        self.step(parser, &prepared, example)
    }

    /// The weight-dependent half of a step: score the prepared pool with the
    /// current weights, rank it exactly like `SemanticParser::parse` would,
    /// and apply the AdaGrad update.
    fn step(
        &mut self,
        parser: &mut SemanticParser,
        prepared: &PreparedExample,
        example: &TrainExample,
    ) -> bool {
        if prepared.candidates.is_empty() {
            return false;
        }
        // Rank candidates under the current model — the whole pool, with
        // the ranking a parse uses — so each epoch sees the pool in the
        // order a fresh parse would have returned it.
        let candidates = &prepared.candidates;
        let mut order: Vec<(f64, usize, usize)> = candidates
            .iter()
            .enumerate()
            .map(|(index, candidate)| {
                (
                    parser.model.score(&candidate.features),
                    candidate.size,
                    index,
                )
            })
            .collect();
        let everything = order.len();
        rank_top_k(&mut order, everything, |index| {
            candidates[index].key.as_str()
        });
        let ranked: Vec<(&PreparedCandidate, f64)> = order
            .iter()
            .map(|&(score, _, index)| (&candidates[index], score))
            .collect();
        let scores: Vec<f64> = ranked.iter().map(|(_, score)| *score).collect();
        let probabilities = softmax(&scores);
        let rewards: Vec<f64> = ranked
            .iter()
            .map(|(candidate, _)| reward(&candidate.formula, &candidate.answer, example))
            .collect();
        let reward_mass: f64 = probabilities.iter().zip(&rewards).map(|(p, r)| p * r).sum();
        if reward_mass <= 0.0 {
            return false;
        }
        // q(z) ∝ r(z) p(z): the posterior over correct derivations.
        let posterior: Vec<f64> = probabilities
            .iter()
            .zip(&rewards)
            .map(|(p, r)| p * r / reward_mass)
            .collect();
        // Gradient of the log-likelihood: Σ_z (q(z) - p(z)) φ(z), accumulated
        // into the dense reusable buffer. A feature is "touched" (and gets an
        // L1 shrinkage pass) as soon as it appears in any candidate with a
        // non-zero delta — even when its summed gradient cancels to exactly
        // zero — matching the historical map-entry semantics.
        for (((candidate, _), q), p) in ranked.iter().zip(&posterior).zip(&probabilities) {
            let delta = q - p;
            if delta == 0.0 {
                continue;
            }
            for (id, value) in candidate.features.iter() {
                let index = id.index();
                if index >= self.gradient.len() {
                    self.gradient.resize(index + 1, 0.0);
                    self.in_gradient.resize(index + 1, false);
                }
                if !self.in_gradient[index] {
                    self.in_gradient[index] = true;
                    self.touched.push(index as u32);
                }
                self.gradient[index] += delta * value;
            }
        }
        // AdaGrad update with L1 shrinkage, visiting features in id order
        // (= name order, so the walk matches the old map iteration; the
        // per-feature updates are independent either way).
        self.touched.sort_unstable();
        for i in 0..self.touched.len() {
            let index = self.touched[i] as usize;
            let g = self.gradient[index];
            self.gradient[index] = 0.0;
            self.in_gradient[index] = false;
            if index >= self.adagrad.len() {
                self.adagrad.resize(index + 1, 0.0);
            }
            self.adagrad[index] += g * g;
            let step = self.config.learning_rate / (self.adagrad[index].sqrt() + 1e-8);
            let id = FeatureId::from_index(index);
            let mut weight = parser.model.weight_by_id(id) + step * g;
            // Soft-threshold toward zero (L1).
            let shrink = self.config.l1 * step;
            if weight > shrink {
                weight -= shrink;
            } else if weight < -shrink {
                weight += shrink;
            } else {
                weight = 0.0;
            }
            parser.model.set_weight_by_id(id, weight);
        }
        self.touched.clear();
        true
    }
}

/// The reward indicator: `r*` (Eq. 7) for annotated examples, `r` (Eq. 5)
/// otherwise.
pub fn reward(formula: &Formula, answer: &Answer, example: &TrainExample) -> f64 {
    if example.is_annotated() {
        if example
            .annotations
            .iter()
            .any(|gold| formulas_equivalent(gold, formula))
        {
            1.0
        } else {
            0.0
        }
    } else if answer == &example.answer {
        1.0
    } else {
        0.0
    }
}

/// Evaluate a parser: correctness, MRR, bound@k and answer accuracy.
///
/// A candidate counts as a *correct translation* when it is structurally
/// equivalent to the example's gold query; `gold_of` supplies that query
/// (for the synthetic dataset it is stored with each example).
pub fn evaluate<'a>(
    parser: &SemanticParser,
    examples: impl IntoIterator<Item = (&'a TrainExample, Formula)>,
    catalog: &Catalog,
    k: usize,
) -> ParserEvaluation {
    let items: Vec<(&TrainExample, Formula)> = examples.into_iter().collect();
    // Per-example parsing is independent and read-only; fan it out and fold
    // the per-example verdicts sequentially in input order, so the totals
    // are identical to a single-threaded pass.
    let indexes = IndexCache::new();
    let verdicts: Vec<Option<(Option<usize>, bool)>> = wtq_runtime::run_batch(
        wtq_runtime::default_workers(),
        items,
        |_, (example, gold)| {
            let table = catalog.get(&example.table)?;
            let index = indexes.get_or_build(table);
            let candidates = parser.parse_with_index(&example.question, table, index);
            let correct_rank = candidates
                .iter()
                .position(|candidate| formulas_equivalent(&candidate.formula, &gold));
            let answer_match = candidates
                .first()
                .map(|top| top.answer == example.answer)
                .unwrap_or(false);
            Some((correct_rank, answer_match))
        },
    );
    let mut evaluation = ParserEvaluation::default();
    let mut reciprocal_ranks = 0.0;
    for (correct_rank, answer_match) in verdicts.into_iter().flatten() {
        evaluation.examples += 1;
        if correct_rank == Some(0) {
            evaluation.correctness += 1.0;
        }
        if let Some(rank) = correct_rank {
            reciprocal_ranks += 1.0 / (rank as f64 + 1.0);
            if rank < k {
                evaluation.bound_at_k += 1.0;
            }
        }
        if answer_match {
            evaluation.answer_accuracy += 1.0;
        }
    }
    if evaluation.examples > 0 {
        let n = evaluation.examples as f64;
        evaluation.correctness /= n;
        evaluation.mrr = reciprocal_ranks / n;
        evaluation.bound_at_k /= n;
        evaluation.answer_accuracy /= n;
    }
    evaluation
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::ChaCha8Rng;
    use wtq_dataset::dataset::{Dataset, DatasetConfig};

    fn build_dataset(seed: u64) -> Dataset {
        let config = DatasetConfig {
            num_tables: 10,
            questions_per_table: 8,
            test_fraction: 0.3,
        };
        Dataset::generate(&config, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    fn to_examples(dataset: &Dataset, split: wtq_dataset::Split) -> Vec<(TrainExample, Formula)> {
        dataset
            .examples_of(split)
            .into_iter()
            .map(|e| {
                (
                    TrainExample::weak(e.question.clone(), e.table.clone(), e.answer.clone()),
                    e.formula(),
                )
            })
            .collect()
    }

    #[test]
    fn training_improves_correctness_over_the_untrained_parser() {
        let dataset = build_dataset(31);
        let catalog = dataset.catalog();
        let train: Vec<(TrainExample, Formula)> = to_examples(&dataset, wtq_dataset::Split::Train);
        let test: Vec<(TrainExample, Formula)> = to_examples(&dataset, wtq_dataset::Split::Test);
        assert!(train.len() >= 30);
        assert!(test.len() >= 10);

        let mut parser = SemanticParser::untrained();
        let before = evaluate(
            &parser,
            test.iter().map(|(e, g)| (e, g.clone())),
            &catalog,
            7,
        );

        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        });
        let train_examples: Vec<TrainExample> = train.iter().map(|(e, _)| e.clone()).collect();
        trainer.train(&mut parser, &train_examples, &catalog);

        let after = evaluate(
            &parser,
            test.iter().map(|(e, g)| (e, g.clone())),
            &catalog,
            7,
        );
        assert!(
            after.correctness > before.correctness,
            "training did not improve correctness ({} -> {})",
            before.correctness,
            after.correctness
        );
        assert!(after.mrr >= before.mrr);
        assert!(after.bound_at_k >= after.correctness);
        assert!(parser.model.num_parameters() > 0);
    }

    #[test]
    fn annotated_reward_only_accepts_annotated_queries() {
        let dataset = build_dataset(5);
        let catalog = dataset.catalog();
        let example = &dataset.examples[0];
        let gold = example.formula();
        let parser = SemanticParser::with_prior();
        let table = catalog.get(&example.table).unwrap();
        let candidates = parser.parse(&example.question, table);
        let annotated = TrainExample::weak(
            example.question.clone(),
            example.table.clone(),
            example.answer.clone(),
        )
        .with_annotations(vec![gold.clone()]);
        let weak = TrainExample::weak(
            example.question.clone(),
            example.table.clone(),
            example.answer.clone(),
        );
        let mut annotated_rewards = 0usize;
        let mut weak_rewards = 0usize;
        for candidate in &candidates {
            if reward(&candidate.formula, &candidate.answer, &annotated) > 0.0 {
                annotated_rewards += 1;
                assert!(formulas_equivalent(&candidate.formula, &gold));
            }
            if reward(&candidate.formula, &candidate.answer, &weak) > 0.0 {
                weak_rewards += 1;
            }
        }
        // Weak supervision rewards at least as many candidates as annotation
        // (spurious candidates returning the right answer).
        assert!(weak_rewards >= annotated_rewards);
    }

    #[test]
    fn training_on_annotations_is_at_least_as_good_as_weak_supervision() {
        // A larger test split than the other training tests: this one compares
        // two statistically close training objectives, so it needs more than a
        // handful of held-out questions for the tolerance below to be
        // meaningful.
        let config = DatasetConfig {
            num_tables: 16,
            questions_per_table: 8,
            test_fraction: 0.3,
        };
        let dataset = Dataset::generate(&config, &mut ChaCha8Rng::seed_from_u64(11));
        let catalog = dataset.catalog();
        let train = to_examples(&dataset, wtq_dataset::Split::Train);
        let test = to_examples(&dataset, wtq_dataset::Split::Test);
        let config = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };

        // Weak supervision.
        let mut weak_parser = SemanticParser::untrained();
        let weak_examples: Vec<TrainExample> = train.iter().map(|(e, _)| e.clone()).collect();
        Trainer::new(config.clone()).train(&mut weak_parser, &weak_examples, &catalog);
        let weak_eval = evaluate(
            &weak_parser,
            test.iter().map(|(e, g)| (e, g.clone())),
            &catalog,
            7,
        );

        // Annotated supervision: every training example annotated with its
        // gold query (the idealized upper bound of the §7.3 experiment).
        let mut annotated_parser = SemanticParser::untrained();
        let annotated_examples: Vec<TrainExample> = train
            .iter()
            .map(|(e, gold)| e.clone().with_annotations(vec![gold.clone()]))
            .collect();
        Trainer::new(config).train(&mut annotated_parser, &annotated_examples, &catalog);
        let annotated_eval = evaluate(
            &annotated_parser,
            test.iter().map(|(e, g)| (e, g.clone())),
            &catalog,
            7,
        );

        // On a single small split the two objectives can land within noise of
        // each other; what must never happen is annotations degrading the
        // parser substantially (the paper finds they help).
        assert!(
            annotated_eval.correctness + 0.08 >= weak_eval.correctness,
            "annotations hurt correctness ({} vs {})",
            annotated_eval.correctness,
            weak_eval.correctness
        );
        assert!(annotated_eval.bound_at_k >= annotated_eval.correctness);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let dataset = build_dataset(3);
        let catalog = dataset.catalog();
        let train = to_examples(&dataset, wtq_dataset::Split::Train);
        let examples: Vec<TrainExample> = train.iter().map(|(e, _)| e.clone()).collect();
        let run = || {
            let mut parser = SemanticParser::untrained();
            Trainer::new(TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            })
            .train(&mut parser, &examples, &catalog);
            let mut weights: Vec<(String, i64)> = parser
                .model
                .sorted_weights()
                .iter()
                .map(|(k, v)| (k.clone(), (v * 1e9) as i64))
                .collect();
            weights.sort();
            weights
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn evaluation_on_empty_input_is_zeroed() {
        let parser = SemanticParser::with_prior();
        let catalog = Catalog::new();
        let evaluation = evaluate(&parser, std::iter::empty(), &catalog, 7);
        assert_eq!(evaluation.examples, 0);
        assert_eq!(evaluation.correctness, 0.0);
    }
}
