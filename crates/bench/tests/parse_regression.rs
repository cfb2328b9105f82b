//! Parse-pipeline performance regression gate: on each of the five operator
//! workloads, the interned feature pipeline (`FeatureId` symbol table,
//! sorted sparse vectors, dense weights, reused scratch) must never lose to
//! the string-keyed reference (`wtq_oracle::parser`) end to end. This is
//! the regression the interning rework was built to close: the old pipeline
//! allocated a `BTreeMap<String, f64>` per candidate and re-rendered every
//! feature name on every extraction.
//!
//! Timing discipline mirrors `planner_regression.rs`: the two pipelines are
//! measured interleaved (reference, interned, reference, interned, …) over
//! the same questions and warm evaluator session, and compared on medians
//! across rounds, so one-off scheduler hiccups cannot decide the verdict.

use std::time::{Duration, Instant};

use wtq_bench::parse::{family_questions, parse_table, parse_workloads};
use wtq_bench::EXPERIMENT_SEED;
use wtq_dcs::Evaluator;
use wtq_oracle::{parse_in_session_reference, ReferenceModel};
use wtq_parser::{ScratchSpace, SemanticParser};

const ROUNDS: usize = 7;

/// Mean µs per call over enough iterations to fill a small budget.
fn time_us<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(100));
    let budget = Duration::from_millis(10);
    let iters = (budget.as_nanos() / once.as_nanos()).clamp(1, 5_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

#[test]
fn interned_parse_never_loses_to_the_string_keyed_reference() {
    let table = parse_table();
    let parser = SemanticParser::with_prior();
    let reference = ReferenceModel::from_model(&parser.model);
    let mut covered = Vec::new();
    for (name, family) in parse_workloads() {
        let questions = family_questions(&table, family, 6, EXPERIMENT_SEED + covered.len() as u64);
        assert!(!questions.is_empty(), "no {name} questions generated");
        // One warm evaluator session shared by both pipelines: identical
        // candidate pools, identical denotation-cache state.
        let evaluator = Evaluator::new(&table);
        let mut scratch = ScratchSpace::new();
        for question in &questions {
            let _ = parser.parse_in_session_with(question, &evaluator, &mut scratch);
            let _ = parse_in_session_reference(&reference, &parser.config, question, &evaluator);
        }
        let mut reference_samples = Vec::with_capacity(ROUNDS);
        let mut interned_samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            reference_samples.push(time_us(|| {
                for question in &questions {
                    let _ = parse_in_session_reference(
                        &reference,
                        &parser.config,
                        question,
                        &evaluator,
                    );
                }
            }));
            interned_samples.push(time_us(|| {
                for question in &questions {
                    let _ = parser.parse_in_session_with(question, &evaluator, &mut scratch);
                }
            }));
        }
        let reference_us = median(reference_samples);
        let interned_us = median(interned_samples);
        let speedup = reference_us / interned_us;
        assert!(
            speedup >= 1.0,
            "interned pipeline regressed vs string-keyed reference on {name}: \
             reference {reference_us:.1} µs, interned {interned_us:.1} µs \
             ({speedup:.2}×)"
        );
        covered.push(name);
    }
    assert_eq!(
        covered,
        [
            "join",
            "compare",
            "superlative",
            "intersect",
            "project_aggregate"
        ],
        "the workload set changed; update the regression gate"
    );
}
