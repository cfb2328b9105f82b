//! Table 7: per-question execution time of candidate generation, utterance
//! generation and highlight generation, on the served path (an `Engine`
//! session per question; highlights on that session's evaluator).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use wtq_bench::environment;
use wtq_core::Engine;
use wtq_provenance::Highlights;

fn bench_table7(c: &mut Criterion) {
    let env = environment(10, 6, 24);
    let engine = Engine::new();
    let example = &env.test_examples[0];
    let table = env.catalog.get(&example.table).expect("table exists");
    let top_k = |session: &wtq_core::Session<'_>| session.parse_top_k(&example.question, 7);
    let session = engine.session(table);
    let candidates = top_k(&session);

    let mut group = c.benchmark_group("table7_exec_times");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("candidate_generation_per_question", |b| {
        b.iter(|| top_k(&engine.session(table)))
    });
    group.bench_function("utterance_generation_per_question", |b| {
        b.iter(|| {
            candidates
                .iter()
                .map(|c| wtq_explain::utter(&c.formula))
                .collect::<Vec<String>>()
        })
    });
    group.bench_function("highlight_generation_per_question", |b| {
        b.iter(|| {
            candidates
                .iter()
                .filter_map(|c| Highlights::compute_with(&c.formula, session.evaluator()).ok())
                .count()
        })
    });
    group.finish();

    // Print the Table 7 row alongside the micro-benchmarks.
    let t7 = wtq_bench::table7(&env, 7);
    println!(
        "\nTable 7 (measured, {} questions): candidates {:.6}s, utterances {:.6}s, highlights {:.6}s, \
         served body {:.6}s per question\n\
         Paper: 1.22s / 0.22s / 1.36s — utterances remain the cheapest stage.",
        t7.questions,
        t7.candidate_generation,
        t7.utterance_generation,
        t7.highlight_generation,
        t7.encoding
    );
}

criterion_group!(benches, bench_table7);
criterion_main!(benches);
