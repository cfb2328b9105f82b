//! The interactive deployment experiment (§6.3, §7.2).
//!
//! For every test question the parser's top-k candidates are explained to a
//! simulated user, who either selects the candidate they believe correct or
//! marks *None*. Three correctness numbers are compared, exactly as in
//! Table 6:
//!
//! * **parser correctness** — the top-ranked candidate is a correct
//!   translation,
//! * **user correctness** — the candidate selected by the user is correct,
//! * **hybrid correctness** — the user's selection when they made one, the
//!   parser's top candidate otherwise,
//!
//! together with the **correctness bound** (a correct candidate exists in the
//! top-k at all) and the per-question success rate of Table 4. The
//! [`DeploymentExperiment::coverage_sweep`] reproduces the §7.2 analysis of k = 7 vs k = 14.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wtq_dcs::{Answer, Formula};
use wtq_parser::{formulas_equivalent, Candidate, SemanticParser};
use wtq_table::{Catalog, IndexCache};

use crate::user::{SimulatedUser, UserDecision};

/// A test question with its gold query, as used by the study.
#[derive(Debug, Clone)]
pub struct StudyExample {
    /// The natural-language question.
    pub question: String,
    /// Name of the table the question is about.
    pub table: String,
    /// The gold (correct-translation) query.
    pub gold: Formula,
    /// The gold answer.
    pub answer: Answer,
}

/// Aggregate results of one deployment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeploymentResult {
    /// Number of questions evaluated.
    pub questions: usize,
    /// Total number of candidate explanations shown to users.
    pub explanations_shown: usize,
    /// Fraction of questions whose top-ranked candidate was correct.
    pub parser_correctness: f64,
    /// Fraction of questions where the user selected a correct candidate.
    pub user_correctness: f64,
    /// Fraction of questions answered correctly by the hybrid policy.
    pub hybrid_correctness: f64,
    /// Fraction of questions with a correct candidate in the top-k.
    pub bound: f64,
    /// Mean reciprocal rank of the first correct candidate.
    pub mrr: f64,
    /// Table 4 success rate: correct selection, or None when warranted.
    pub user_success_rate: f64,
    /// Raw counts (correct questions) for significance testing.
    pub parser_correct_count: usize,
    /// Raw count of user-correct questions.
    pub user_correct_count: usize,
    /// Raw count of hybrid-correct questions.
    pub hybrid_correct_count: usize,
}

/// The deployment experiment driver.
#[derive(Debug, Clone)]
pub struct DeploymentExperiment {
    /// Number of candidates displayed to the user (the paper uses k = 7).
    pub top_k: usize,
    /// Whether candidates are shown in random order (the paper randomizes to
    /// avoid biasing workers toward the parser's top choice).
    pub shuffle_display: bool,
    /// Worker threads for the parsing phase. Parsing is read-only and
    /// rng-free, so it fans out over a pool; the simulated-user phase stays
    /// sequential, consuming the seeded RNG in example order — results are
    /// byte-identical for every worker count.
    pub workers: usize,
}

impl Default for DeploymentExperiment {
    fn default() -> Self {
        DeploymentExperiment {
            top_k: 7,
            shuffle_display: true,
            workers: wtq_runtime::default_workers(),
        }
    }
}

/// Parse every example's candidates in parallel over a shared index cache
/// (`None` where the catalog has no such table). Pure with respect to the
/// experiment RNG, so the fan-out cannot perturb downstream sampling.
fn parse_examples(
    parser: &SemanticParser,
    examples: &[StudyExample],
    catalog: &Catalog,
    workers: usize,
) -> Vec<Option<Vec<Candidate>>> {
    let indexes = IndexCache::new();
    wtq_runtime::run_batch(workers, examples.iter().collect(), |_, example| {
        let table = catalog.get(&example.table)?;
        let index = indexes.get_or_build(table);
        Some(parser.parse_with_index(&example.question, table, index))
    })
}

impl DeploymentExperiment {
    /// Run the experiment over `examples` with one simulated user profile.
    pub fn run(
        &self,
        parser: &SemanticParser,
        examples: &[StudyExample],
        catalog: &Catalog,
        user: &SimulatedUser,
        seed: u64,
    ) -> DeploymentResult {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut result = DeploymentResult::default();
        let mut reciprocal_ranks = 0.0;
        // Phase 1 (parallel): parse every question. Phase 2 (sequential):
        // replay the simulated users in example order with the seeded RNG.
        let parsed = parse_examples(parser, examples, catalog, self.workers);
        for (example, candidates) in examples.iter().zip(parsed) {
            let Some(candidates) = candidates else {
                continue;
            };
            result.questions += 1;
            let ranked_correct = candidates
                .iter()
                .position(|c| formulas_equivalent(&c.formula, &example.gold));
            if let Some(rank) = ranked_correct {
                reciprocal_ranks += 1.0 / (rank as f64 + 1.0);
            }
            let top: Vec<&Candidate> = candidates.iter().take(self.top_k).collect();
            result.explanations_shown += top.len();
            let parser_correct = ranked_correct == Some(0);
            let bound_hit = ranked_correct.map(|r| r < self.top_k).unwrap_or(false);

            // Display order shown to the user.
            let mut display: Vec<usize> = (0..top.len()).collect();
            if self.shuffle_display {
                display.shuffle(&mut rng);
            }
            let displayed_formulas: Vec<Formula> =
                display.iter().map(|&i| top[i].formula.clone()).collect();
            let decision = user.choose(&displayed_formulas, Some(&example.gold), &mut rng);
            let user_correct = matches!(
                &decision,
                UserDecision::Selected(index)
                    if formulas_equivalent(&displayed_formulas[*index], &example.gold)
            );
            let hybrid_correct = match &decision {
                UserDecision::Selected(index) => {
                    formulas_equivalent(&displayed_formulas[*index], &example.gold)
                }
                UserDecision::None => parser_correct,
            };
            if SimulatedUser::is_successful(&decision, &displayed_formulas, Some(&example.gold)) {
                result.user_success_rate += 1.0;
            }
            if parser_correct {
                result.parser_correct_count += 1;
            }
            if user_correct {
                result.user_correct_count += 1;
            }
            if hybrid_correct {
                result.hybrid_correct_count += 1;
            }
            if bound_hit {
                result.bound += 1.0;
            }
        }
        if result.questions > 0 {
            let n = result.questions as f64;
            result.parser_correctness = result.parser_correct_count as f64 / n;
            result.user_correctness = result.user_correct_count as f64 / n;
            result.hybrid_correctness = result.hybrid_correct_count as f64 / n;
            result.bound /= n;
            result.mrr = reciprocal_ranks / n;
            result.user_success_rate /= n;
        }
        result
    }

    /// For each `k`, the fraction of examples whose top-k candidates contain
    /// a correct translation (the §7.2 k-sweep).
    pub fn coverage_sweep(
        parser: &SemanticParser,
        examples: &[StudyExample],
        catalog: &Catalog,
        ks: &[usize],
    ) -> Vec<(usize, f64)> {
        let parsed = parse_examples(parser, examples, catalog, wtq_runtime::default_workers());
        let ranks: Vec<Option<usize>> = examples
            .iter()
            .zip(parsed)
            .filter_map(|(example, candidates)| {
                let candidates = candidates?;
                Some(
                    candidates
                        .iter()
                        .position(|c| formulas_equivalent(&c.formula, &example.gold)),
                )
            })
            .collect();
        ks.iter()
            .map(|&k| {
                let covered = ranks
                    .iter()
                    .filter(|rank| rank.map(|r| r < k).unwrap_or(false))
                    .count();
                (
                    k,
                    if ranks.is_empty() {
                        0.0
                    } else {
                        covered as f64 / ranks.len() as f64
                    },
                )
            })
            .collect()
    }
}

/// Convert dataset examples of one split into study examples.
pub fn study_examples_from<R: Rng>(
    dataset: &wtq_dataset::Dataset,
    split: wtq_dataset::Split,
    limit: usize,
    rng: &mut R,
) -> Vec<StudyExample> {
    let mut examples: Vec<StudyExample> = dataset
        .examples_of(split)
        .into_iter()
        .map(|e| StudyExample {
            question: e.question.clone(),
            table: e.table.clone(),
            gold: e.formula(),
            answer: e.answer.clone(),
        })
        .collect();
    examples.shuffle(rng);
    examples.truncate(limit);
    examples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::ExplanationMode;
    use wtq_dataset::{Dataset, Split};

    fn dataset() -> Dataset {
        // Big enough that the Table 6 orderings asserted below sit clear of
        // single-example noise in the simulated-user comparisons.
        let config = wtq_dataset::dataset::DatasetConfig {
            num_tables: 20,
            questions_per_table: 8,
            test_fraction: 0.3,
        };
        Dataset::generate(&config, &mut ChaCha8Rng::seed_from_u64(77))
    }

    #[test]
    fn hybrid_beats_user_beats_parser_and_bound_caps_all() {
        // The Table 6 ordering: parser <= user (usually), user <= hybrid,
        // everything <= bound.
        let dataset = dataset();
        let catalog = dataset.catalog();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let examples = study_examples_from(&dataset, Split::Test, 60, &mut rng);
        assert!(examples.len() >= 20);
        let parser = SemanticParser::with_prior();
        let experiment = DeploymentExperiment::default();
        let user = SimulatedUser::average();
        let result = experiment.run(&parser, &examples, &catalog, &user, 5);

        assert_eq!(result.questions, examples.len());
        assert!(result.explanations_shown >= result.questions);
        assert!(result.hybrid_correctness >= result.user_correctness - 1e-9);
        assert!(
            result.hybrid_correctness >= result.parser_correctness - 1e-9,
            "hybrid {} should not fall below the parser {}",
            result.hybrid_correctness,
            result.parser_correctness
        );
        assert!(result.bound >= result.hybrid_correctness - 1e-9);
        assert!(result.bound <= 1.0);
        assert!(result.mrr >= result.parser_correctness - 1e-9);
        assert!(result.user_success_rate > 0.5);
    }

    #[test]
    fn explained_users_beat_unexplained_users() {
        let dataset = dataset();
        let catalog = dataset.catalog();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let examples = study_examples_from(&dataset, Split::Test, 50, &mut rng);
        let parser = SemanticParser::with_prior();
        let experiment = DeploymentExperiment::default();
        let explained = experiment.run(&parser, &examples, &catalog, &SimulatedUser::average(), 9);
        let unexplained = experiment.run(
            &parser,
            &examples,
            &catalog,
            &SimulatedUser::with_mode(ExplanationMode::RawFormulas),
            9,
        );
        assert!(explained.user_correctness > unexplained.user_correctness);
        assert!(explained.user_success_rate > unexplained.user_success_rate);
    }

    #[test]
    fn coverage_sweep_is_monotone_in_k() {
        let dataset = dataset();
        let catalog = dataset.catalog();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let examples = study_examples_from(&dataset, Split::Test, 40, &mut rng);
        let parser = SemanticParser::with_prior();
        let sweep =
            DeploymentExperiment::coverage_sweep(&parser, &examples, &catalog, &[1, 3, 7, 14]);
        assert_eq!(sweep.len(), 4);
        for window in sweep.windows(2) {
            assert!(
                window[1].1 >= window[0].1,
                "coverage must grow with k: {sweep:?}"
            );
        }
        // Widening 7 -> 14 recovers little (the paper found only 5% of the
        // remaining failures), certainly not a jump to full coverage.
        let at7 = sweep[2].1;
        let at14 = sweep[3].1;
        assert!(at14 - at7 <= 0.25, "7->14 gained {:.2}", at14 - at7);
    }

    #[test]
    fn deterministic_given_seed() {
        let dataset = dataset();
        let catalog = dataset.catalog();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let examples = study_examples_from(&dataset, Split::Test, 30, &mut rng);
        let parser = SemanticParser::with_prior();
        let experiment = DeploymentExperiment::default();
        let user = SimulatedUser::average();
        let a = experiment.run(&parser, &examples, &catalog, &user, 42);
        let b = experiment.run(&parser, &examples, &catalog, &user, 42);
        assert_eq!(a, b);
    }
}
