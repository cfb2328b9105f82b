//! # wtq-bench
//!
//! Shared experiment drivers used by both the Criterion benches and the
//! `experiments` binary. Every table and figure of the paper's evaluation
//! (§7) maps to one function here; the binary prints the paper-vs-measured
//! comparison and the benches time the underlying components.

pub mod exec;
pub mod serve;

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wtq_core::{candidates_json, Engine, ExplainedCandidate};
use wtq_dataset::dataset::{Dataset, DatasetConfig};
use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::Split;
use wtq_parser::{SemanticParser, TrainConfig, TrainExample};
use wtq_provenance::Highlights;
use wtq_study::deploy::{study_examples_from, StudyExample};
use wtq_study::{
    chi_square_2x2, collect_annotations, DeploymentExperiment, DeploymentResult, ExplanationMode,
    FeedbackExperiment, FeedbackResult, SimulatedUser, WorkTimeModel,
};
use wtq_table::{Catalog, Table};

/// Seed used by every experiment so reported numbers are reproducible.
pub const EXPERIMENT_SEED: u64 = 20190416;

/// A generated benchmark environment: dataset, catalog and split examples.
pub struct Environment {
    /// The synthetic dataset.
    pub dataset: Dataset,
    /// Catalog of its tables.
    pub catalog: Catalog,
    /// Held-out study examples (test split).
    pub test_examples: Vec<StudyExample>,
    /// Training-split study examples (for annotation collection).
    pub train_examples: Vec<StudyExample>,
}

/// Build the standard experiment environment.
pub fn environment(
    num_tables: usize,
    questions_per_table: usize,
    test_limit: usize,
) -> Environment {
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED);
    let dataset = Dataset::generate(
        &DatasetConfig {
            num_tables,
            questions_per_table,
            test_fraction: 0.25,
        },
        &mut rng,
    );
    let catalog = dataset.catalog();
    let test_examples = study_examples_from(&dataset, Split::Test, test_limit, &mut rng);
    let train_examples = study_examples_from(&dataset, Split::Train, test_limit * 2, &mut rng);
    Environment {
        dataset,
        catalog,
        test_examples,
        train_examples,
    }
}

/// Table 4: user-study success rate (questions, explanations shown, success).
pub struct Table4Result {
    /// Distinct questions shown.
    pub questions: usize,
    /// Candidate explanations shown in total.
    pub explanations: usize,
    /// Fraction of questions answered successfully (correct pick or correct
    /// None).
    pub success_rate: f64,
}

/// Run the Table 4 experiment.
pub fn table4(env: &Environment) -> Table4Result {
    let parser = SemanticParser::with_prior();
    let experiment = DeploymentExperiment::default();
    let result = experiment.run(
        &parser,
        &env.test_examples,
        &env.catalog,
        &SimulatedUser::average(),
        EXPERIMENT_SEED,
    );
    Table4Result {
        questions: result.questions,
        explanations: result.explanations_shown,
        success_rate: result.user_success_rate,
    }
}

/// Table 5: work time in minutes per 20-question session for the two
/// explanation modes `(with highlights, utterances only)`, as
/// `(avg, median, min, max)` tuples.
pub fn table5(env: &Environment, workers_per_group: usize) -> [(f64, f64, f64, f64); 2] {
    let parser = SemanticParser::with_prior();
    let model = WorkTimeModel::default();
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED + 5);
    // Utterance word counts of the top-7 candidates of 20 questions.
    let questions: Vec<Vec<usize>> = env
        .test_examples
        .iter()
        .take(20)
        .map(|example| {
            let table = env.catalog.get(&example.table).expect("table exists");
            parser
                .parse_top_k(&example.question, table, 7)
                .iter()
                .map(|c| wtq_explain::utter(&c.formula).split_whitespace().count())
                .collect()
        })
        .collect();
    let mut results = [(0.0, 0.0, 0.0, 0.0); 2];
    for (index, with_highlights) in [(0usize, true), (1usize, false)] {
        let sessions: Vec<f64> = (0..workers_per_group)
            .map(|_| model.session_minutes(&questions, with_highlights, &mut rng))
            .collect();
        let avg = wtq_study::metrics::mean(&sessions);
        let median = wtq_study::metrics::median(&sessions);
        let min = sessions.iter().copied().fold(f64::INFINITY, f64::min);
        let max = sessions.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        results[index] = (avg, median, min, max);
    }
    results
}

/// Table 6: deployment correctness plus χ² significance of the user and
/// hybrid improvements over the parser.
pub struct Table6Result {
    /// The deployment result (parser / user / hybrid / bound correctness).
    pub deployment: DeploymentResult,
    /// χ² statistic and significance of users vs parser.
    pub user_vs_parser: (f64, bool),
    /// χ² statistic and significance of hybrid vs parser.
    pub hybrid_vs_parser: (f64, bool),
}

/// Run the Table 6 experiment.
pub fn table6(env: &Environment) -> Table6Result {
    let parser = SemanticParser::with_prior();
    let experiment = DeploymentExperiment::default();
    let deployment = experiment.run(
        &parser,
        &env.test_examples,
        &env.catalog,
        &SimulatedUser::average(),
        EXPERIMENT_SEED + 6,
    );
    let n = deployment.questions;
    let user_vs_parser = chi_square_2x2(
        deployment.user_correct_count,
        n,
        deployment.parser_correct_count,
        n,
    );
    let hybrid_vs_parser = chi_square_2x2(
        deployment.hybrid_correct_count,
        n,
        deployment.parser_correct_count,
        n,
    );
    Table6Result {
        deployment,
        user_vs_parser,
        hybrid_vs_parser,
    }
}

/// The §7.2 k-sweep: coverage of the correct query within the top-k.
pub fn k_sweep(env: &Environment, ks: &[usize]) -> Vec<(usize, f64)> {
    let parser = SemanticParser::with_prior();
    DeploymentExperiment::coverage_sweep(&parser, &env.test_examples, &env.catalog, ks)
}

/// Table 7: average per-question execution time (seconds) of candidate
/// generation, utterance generation and highlight generation, plus the
/// encoding of the served body.
pub struct Table7Result {
    /// Questions measured.
    pub questions: usize,
    /// Average seconds to generate candidates for a question.
    pub candidate_generation: f64,
    /// Candidate generation split by parse stage, in
    /// [`wtq_parser::ParseSpans::STAGES`] order: average seconds per
    /// question, read from the engine's `parse_stage_duration` histograms.
    /// The stages lie inside the parse, so they sum to no more than
    /// `candidate_generation`.
    pub parse_stages: [f64; 6],
    /// Parses each stage's histogram observed: one per question.
    pub parse_stage_observations: [u64; 6],
    /// Average seconds to generate the top-k utterances.
    pub utterance_generation: f64,
    /// Average seconds to generate the top-k highlights.
    pub highlight_generation: f64,
    /// Average seconds to encode the explained top k as the served body
    /// ([`candidates_json`]: class counts, the sampled rendering of §5.3
    /// and the JSON around them).
    pub encoding: f64,
}

/// Run the Table 7 measurement over the environment's test questions on the
/// served path, stage by stage: one [`Engine`] opens a session per question
/// and parses there with [`wtq_core::Session::parse_top_k`], which ranks
/// only as far as the top k, as a served question does (candidate
/// generation); then come the top k's utterances, their highlights on that
/// session's warm evaluator, and [`candidates_json`] of the explained top k
/// — what deployment pays.
/// Tables own their index, built once per table before its first question
/// and not timed.
pub fn table7(env: &Environment, top_k: usize) -> Table7Result {
    table7_over(
        env.test_examples.iter().filter_map(|example| {
            let table = env.catalog.get(&example.table)?;
            Some((example.question.as_str(), table))
        }),
        top_k,
    )
}

/// [`table7`] over `tables` seeded 256–512-row tables with `per_table`
/// generated questions each, like the tables of servebench's
/// `annotate_batch` workload.
pub fn table7_large(seed: u64, tables: usize, per_table: usize, top_k: usize) -> Table7Result {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let domains = wtq_dataset::all_domains();
    let generated: Vec<(Table, Vec<String>)> = (0..tables)
        .map(|index| {
            let rows = rng.gen_range(256..513);
            let domain = &domains[index % domains.len()];
            let table = generate_table_with_rows(domain, index, rows, &mut rng);
            let questions = wtq_dataset::generate_questions(&table, per_table, &mut rng)
                .into_iter()
                .map(|generated| generated.question)
                .collect();
            (table, questions)
        })
        .collect();
    table7_over(
        generated.iter().flat_map(|(table, questions)| {
            questions
                .iter()
                .map(move |question| (question.as_str(), table))
        }),
        top_k,
    )
}

/// [`table7`] over `(question, table)` pairs.
fn table7_over<'t>(
    questions: impl IntoIterator<Item = (&'t str, &'t Table)>,
    top_k: usize,
) -> Table7Result {
    let engine = Engine::new();
    let mut candidate_time = 0.0;
    let mut utterance_time = 0.0;
    let mut highlight_time = 0.0;
    let mut encoding_time = 0.0;
    let mut count = 0usize;
    for (question, table) in questions {
        table.index();
        count += 1;
        let start = Instant::now();
        let session = engine.session(table);
        let candidates = session.parse_top_k(question, top_k);
        candidate_time += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let utterances: Vec<String> = candidates
            .iter()
            .map(|c| wtq_explain::utter(&c.formula))
            .collect();
        utterance_time += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let highlights: Vec<_> = candidates
            .iter()
            .map(|c| Highlights::compute_with(&c.formula, session.evaluator()).ok())
            .collect();
        highlight_time += start.elapsed().as_secs_f64();

        // The explained candidates the engine would serve; their SQL is not
        // timed (Table 7 has no SQL row).
        let explained: Vec<ExplainedCandidate> = candidates
            .into_iter()
            .zip(utterances)
            .zip(highlights)
            .filter_map(|((candidate, utterance), highlights)| {
                Some(ExplainedCandidate {
                    sql: wtq_sql::translate(&candidate.formula)
                        .ok()
                        .map(|query| query.to_sql()),
                    highlights: highlights?,
                    utterance,
                    formula: candidate.formula,
                    score: candidate.score,
                    answer: candidate.answer,
                })
            })
            .collect();
        let start = Instant::now();
        std::hint::black_box(candidates_json(&explained, table));
        encoding_time += start.elapsed().as_secs_f64();
    }
    let n = count.max(1) as f64;
    let stages = engine
        .metrics()
        .parse_stage_duration
        .each_ref()
        .map(|histogram| histogram.snapshot());
    Table7Result {
        questions: count,
        candidate_generation: candidate_time / n,
        parse_stages: stages.each_ref().map(|stage| stage.sum as f64 * 1e-9 / n),
        parse_stage_observations: stages.each_ref().map(|stage| stage.count),
        utterance_generation: utterance_time / n,
        highlight_generation: highlight_time / n,
        encoding: encoding_time / n,
    }
}

/// Table 9: feedback retraining at two training-set scales, with and without
/// annotations. Returns rows `(train_examples, annotations, correctness, mrr)`.
pub fn table9(env: &Environment, annotated_budget: usize, epochs: usize) -> Vec<FeedbackResult> {
    let parser = SemanticParser::with_prior();
    let user = SimulatedUser::average();
    let annotated_pool: Vec<StudyExample> = env
        .train_examples
        .iter()
        .take(annotated_budget)
        .cloned()
        .collect();
    let annotated = collect_annotations(
        &parser,
        &annotated_pool,
        &env.catalog,
        7,
        3,
        2,
        &user,
        EXPERIMENT_SEED + 9,
    );
    // Development set: the held-out test examples.
    let dev: Vec<(TrainExample, wtq_dcs::Formula)> = env
        .test_examples
        .iter()
        .map(|e| {
            (
                TrainExample::weak(e.question.clone(), e.table.clone(), e.answer.clone()),
                e.gold.clone(),
            )
        })
        .collect();
    let experiment = FeedbackExperiment {
        train_config: TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
        top_k: 7,
    };

    // Scenario 1: train on the annotated examples only, with vs without
    // annotations.
    let with_small = experiment.train_and_evaluate(&annotated, &dev, &env.catalog, true);
    let without_small = experiment.train_and_evaluate(&annotated, &dev, &env.catalog, false);

    // Scenario 2: the full training pool, with the annotated subset keeping
    // its annotations vs pure weak supervision.
    let full: Vec<(TrainExample, wtq_dcs::Formula)> = env
        .train_examples
        .iter()
        .map(|e| {
            let annotated_match = annotated
                .iter()
                .find(|(a, _)| a.question == e.question && a.table == e.table);
            let example = match annotated_match {
                Some((a, _)) => a.clone(),
                None => TrainExample::weak(e.question.clone(), e.table.clone(), e.answer.clone()),
            };
            (example, e.gold.clone())
        })
        .collect();
    let with_full = experiment.train_and_evaluate(&full, &dev, &env.catalog, true);
    let without_full = experiment.train_and_evaluate(&full, &dev, &env.catalog, false);

    vec![with_small, without_small, with_full, without_full]
}

/// The no-explanation control of Table 4's discussion: success rate when the
/// user only sees raw lambda DCS.
pub fn raw_formula_control(env: &Environment) -> f64 {
    let parser = SemanticParser::with_prior();
    let experiment = DeploymentExperiment::default();
    experiment
        .run(
            &parser,
            &env.test_examples,
            &env.catalog,
            &SimulatedUser::with_mode(ExplanationMode::RawFormulas),
            EXPERIMENT_SEED + 4,
        )
        .user_success_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> Environment {
        environment(8, 5, 20)
    }

    #[test]
    fn environment_has_disjoint_splits_and_enough_questions() {
        let env = tiny_env();
        assert!(env.test_examples.len() >= 8);
        assert!(env.train_examples.len() >= 8);
        assert!(env.dataset.tables.len() == 8);
    }

    #[test]
    fn table4_and_table6_report_consistent_shapes() {
        let env = tiny_env();
        let t4 = table4(&env);
        assert_eq!(t4.questions, env.test_examples.len());
        assert!(t4.explanations >= t4.questions);
        assert!(t4.success_rate > 0.4);

        let t6 = table6(&env);
        assert!(t6.deployment.hybrid_correctness >= t6.deployment.parser_correctness - 1e-9);
        assert!(t6.deployment.bound >= t6.deployment.hybrid_correctness - 1e-9);

        let control = raw_formula_control(&env);
        assert!(control < t4.success_rate);
    }

    #[test]
    fn table5_shows_the_highlight_saving() {
        let env = tiny_env();
        let [with, without] = table5(&env, 6);
        assert!(
            with.0 < without.0,
            "avg with highlights {} >= without {}",
            with.0,
            without.0
        );
        assert!(with.2 <= with.3);
    }

    #[test]
    fn table7_orders_utterances_fastest() {
        let env = tiny_env();
        let t7 = table7(&env, 7);
        assert_eq!(t7.questions, env.test_examples.len());
        assert!(t7.utterance_generation < t7.candidate_generation);
        assert!(t7.candidate_generation > 0.0);
        assert!(t7.highlight_generation > 0.0);
        assert!(t7.encoding > 0.0);
        let large = table7_large(1, 1, 2, 7);
        assert_eq!(large.questions, 2);
        assert!(large.encoding > 0.0);
        // Every stage of every parse is observed, and the stages lie
        // inside the candidates row.
        for result in [&t7, &large] {
            assert_eq!(
                result.parse_stage_observations,
                [result.questions as u64; 6]
            );
            assert!(result.parse_stages.iter().sum::<f64>() <= result.candidate_generation);
        }
    }

    #[test]
    fn k_sweep_is_monotone() {
        let env = tiny_env();
        let sweep = k_sweep(&env, &[1, 7, 14]);
        assert!(sweep[1].1 >= sweep[0].1);
        assert!(sweep[2].1 >= sweep[1].1);
    }
}
