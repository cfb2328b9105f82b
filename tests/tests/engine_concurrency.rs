//! Concurrency correctness of the Engine/Session split.
//!
//! Two guarantees are enforced here, end to end across the workspace:
//!
//! 1. **Determinism** — `Engine::explain_batch` over a *shuffled* question
//!    set, on a multi-worker pool, produces explanations byte-identical to
//!    the sequential per-question path: same formulas, bit-identical
//!    scores, same utterances, same SQL, and the same provenance cell
//!    traces (checked through both the structured `Highlights` and the
//!    rendered highlight grid).
//! 2. **Shared-engine safety** — N threads × M questions hammering one
//!    `Engine` (one shared LRU index cache) all observe the same answers a
//!    single-threaded run produces.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wtq_core::{Engine, ExplainRequest, Explanation};
use wtq_dataset::dataset::{Dataset, DatasetConfig};
use wtq_table::Catalog;

fn environment() -> (Dataset, Catalog) {
    let config = DatasetConfig {
        num_tables: 6,
        questions_per_table: 5,
        test_fraction: 0.3,
    };
    let dataset = Dataset::generate(&config, &mut ChaCha8Rng::seed_from_u64(2024));
    let catalog = dataset.catalog();
    (dataset, catalog)
}

/// Every observable byte of one explanation, including the provenance cell
/// traces (the rendered grid marks exactly the traced cells).
fn fingerprint(explanation: &Explanation, catalog: &Catalog) -> String {
    let mut out = format!(
        "question={} table={} error={:?}\n",
        explanation.question, explanation.table, explanation.error
    );
    let table = catalog.get(&explanation.table);
    for candidate in &explanation.candidates {
        out.push_str(&format!(
            "formula={} score={:016x} answer={} utterance={} sql={:?}\nhighlights={:?}\n",
            candidate.formula,
            candidate.score.to_bits(),
            candidate.answer,
            candidate.utterance,
            candidate.sql,
            candidate.highlights,
        ));
        if let Some(table) = table {
            out.push_str(&candidate.render_highlights(table, false));
            out.push('\n');
        }
    }
    out
}

#[test]
fn shuffled_batch_is_byte_identical_to_the_sequential_path() {
    let (dataset, catalog) = environment();
    let mut requests: Vec<ExplainRequest> = dataset
        .examples
        .iter()
        .map(|example| ExplainRequest::new(example.question.clone(), example.table.clone()))
        .collect();
    requests.shuffle(&mut ChaCha8Rng::seed_from_u64(7));
    assert!(requests.len() >= 20);

    let engine = Engine::new();
    let parallel = engine.explain_batch_with(4, &catalog, &requests);
    // The sequential reference: one question at a time through the
    // single-question serving path on a *fresh* engine (empty cache), so
    // the comparison also proves cache state cannot leak into results.
    let reference_engine = Engine::new();
    let sequential: Vec<Explanation> = requests
        .iter()
        .map(|request| {
            let table = catalog.get(&request.table).expect("table exists");
            Explanation {
                question: request.question.clone(),
                table: request.table.clone(),
                candidates: reference_engine.explain_question(
                    &request.question,
                    table,
                    engine.config().top_k,
                ),
                error: None,
            }
        })
        .collect();

    assert_eq!(parallel.len(), sequential.len());
    let mut explained_candidates = 0usize;
    for (parallel, sequential) in parallel.iter().zip(&sequential) {
        assert_eq!(
            fingerprint(parallel, &catalog),
            fingerprint(sequential, &catalog)
        );
        explained_candidates += parallel.candidates.len();
    }
    // The comparison was not vacuous.
    assert!(explained_candidates >= requests.len());
}

#[test]
fn many_threads_sharing_one_engine_agree_with_the_sequential_run() {
    let (dataset, catalog) = environment();
    let questions: Vec<(String, String)> = dataset
        .examples
        .iter()
        .take(12)
        .map(|example| (example.question.clone(), example.table.clone()))
        .collect();

    let engine = Engine::new();
    // Sequential reference answers, computed once up front.
    let reference: Vec<String> = questions
        .iter()
        .map(|(question, table_name)| {
            let table = catalog.get(table_name).expect("table exists");
            engine
                .explain_question(question, table, 7)
                .iter()
                .map(|candidate| {
                    format!(
                        "{}|{:016x}|{}",
                        candidate.formula,
                        candidate.score.to_bits(),
                        candidate.answer
                    )
                })
                .collect::<Vec<String>>()
                .join(";")
        })
        .collect();

    // N threads × M questions over the same shared engine, each thread
    // walking the questions in a different rotation so cache accesses
    // interleave adversarially.
    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let engine = &engine;
            let catalog = &catalog;
            let questions = &questions;
            let reference = &reference;
            scope.spawn(move || {
                for offset in 0..questions.len() {
                    let position = (thread + offset) % questions.len();
                    let (question, table_name) = &questions[position];
                    let table = catalog.get(table_name).expect("table exists");
                    let session = engine.session(table);
                    let observed = session
                        .explain_question(question, 7)
                        .iter()
                        .map(|candidate| {
                            format!(
                                "{}|{:016x}|{}",
                                candidate.formula,
                                candidate.score.to_bits(),
                                candidate.answer
                            )
                        })
                        .collect::<Vec<String>>()
                        .join(";");
                    assert_eq!(&observed, &reference[position], "question {position}");
                }
            });
        }
    });
    let metrics = engine.index_cache().metrics();
    // Every table was indexed at most a handful of times (racing builds),
    // not once per lookup.
    assert!(metrics.hits.get() > metrics.misses.get());
}
