//! Answer-cache replay throughput: a Zipfian question trace through the
//! bare `Engine` vs a `CachedEngine`, plus the pure-hit lookup cost. The
//! ratio between the first two groups is what the deduplicating cache
//! buys under skewed request streams; the third is the cache's own
//! overhead floor.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

use wtq_bench::cache::zipf_trace;
use wtq_bench::exec::bench_table;
use wtq_bench::serve::question_workload;
use wtq_cache::CacheConfig;
use wtq_core::{CachedEngine, Engine};

fn bench_cache_hit_rate(c: &mut Criterion) {
    let table = bench_table(512);
    let questions: Vec<String> = question_workload(&table, 16)
        .into_iter()
        .map(|body| body.question)
        .collect();
    let trace = zipf_trace(questions.len(), 64, 1.1);
    let engine = Arc::new(Engine::new());
    engine.index_for(&table);

    let mut group = c.benchmark_group("cache_hit_rate");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    group.bench_function("zipf_replay_uncached", |b| {
        b.iter(|| {
            for &index in &trace {
                let explained = engine.explain_question(&questions[index], &table, 3);
                assert!(!explained.is_empty());
            }
        })
    });

    group.bench_function("zipf_replay_cached", |b| {
        // A fresh cache per iteration: each replay pays its misses, so the
        // measurement matches the experiments section's cached_qps.
        b.iter(|| {
            let cached = CachedEngine::new(engine.clone(), CacheConfig::default());
            for &index in &trace {
                let answer = cached.explain_question(&questions[index], &table, 3);
                assert_ne!(answer.as_slice(), b"[]");
            }
        })
    });

    // Pure hit path: the cache pre-warmed, every lookup an Arc clone.
    let warm = CachedEngine::new(engine.clone(), CacheConfig::default());
    for question in &questions {
        let _ = warm.explain_question(question, &table, 3);
    }
    group.bench_function("zipf_replay_all_hits", |b| {
        b.iter(|| {
            for &index in &trace {
                let answer = warm.explain_question(&questions[index], &table, 3);
                assert_ne!(answer.as_slice(), b"[]");
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache_hit_rate);
criterion_main!(benches);
