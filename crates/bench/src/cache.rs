//! Caching-layer measurements: Zipfian question replay through the
//! deduplicating answer cache (`wtq-cache` via [`CachedEngine`]).
//!
//! Shared by the `cache_hit_rate` Criterion bench and the `experiments`
//! binary's `--section cache`, which folds the report into
//! `BENCH_exec.json` as the `caching` section. The workload is the
//! paper's deployment shape: a fixed pool of questions over one table,
//! replayed with Zipf-distributed popularity (real question streams are
//! heavily skewed — a few phrasings dominate), at skews s ∈ {0.8, 1.1,
//! 1.4}. Each skew is replayed twice — once through the bare [`Engine`]
//! and once through a fresh [`CachedEngine`] — so the qps ratio isolates
//! what the answer cache buys end to end.

use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use wtq_cache::CacheConfig;
use wtq_core::{CachedEngine, Engine};
use wtq_server::{Client, ServerConfig};
use wtq_table::Table;

use crate::exec::bench_table;
use crate::serve::{loopback_server, question_workload, replay_workload, stat};
use crate::EXPERIMENT_SEED;

/// The Zipf skews the caching section replays, ascending. s = 1.1 is the
/// headline number (web request streams cluster around slightly-super-1
/// skew); 0.8 is the pessimistic flat-ish tail, 1.4 the optimistic one.
pub const CACHE_SKEWS: [f64; 3] = [0.8, 1.1, 1.4];

/// An inverse-CDF Zipf sampler over ranks `0..n` with weight
/// `1 / (rank + 1)^skew`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Precompute the normalized cumulative weights for `n` ranks.
    pub fn new(n: usize, skew: f64) -> Zipf {
        assert!(n > 0, "empty Zipf support");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(skew);
            cumulative.push(total);
        }
        for weight in &mut cumulative {
            *weight /= total;
        }
        Zipf { cumulative }
    }

    /// Sample one rank by binary search on the cumulative distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cumulative
            .partition_point(|&weight| weight <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// A deterministic Zipf-distributed replay trace: `requests` indices into
/// a pool of `pool` questions.
pub fn zipf_trace(pool: usize, requests: usize, skew: f64) -> Vec<usize> {
    let zipf = Zipf::new(pool, skew);
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED + 4);
    (0..requests).map(|_| zipf.sample(&mut rng)).collect()
}

/// One skew's in-process replay: bare engine vs cached engine.
#[derive(Debug, Clone, Serialize)]
pub struct CachingSkewCase {
    /// Zipf skew parameter s.
    pub skew: f64,
    /// Requests replayed (same trace for both variants).
    pub requests: usize,
    /// Distinct questions the trace actually touched.
    pub distinct_questions: usize,
    /// Cache hits / lookups over the cached replay.
    pub hit_rate: f64,
    /// Questions/second through the bare engine.
    pub uncached_qps: f64,
    /// Questions/second through a fresh [`CachedEngine`] (misses included).
    pub cached_qps: f64,
    /// `cached_qps / uncached_qps`.
    pub speedup: f64,
}

/// The served-over-TCP variant: the same Zipfian trace replayed through
/// loopback `wtq-server` instances whose answer cache keeps nothing
/// (`cache_capacity = 0`) and keeps the default 4096 entries.
#[derive(Debug, Clone, Serialize)]
pub struct ServedCachingCase {
    /// Zipf skew parameter s.
    pub skew: f64,
    /// Requests replayed per variant.
    pub requests: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Questions/second against a server with `cache_capacity = 0`.
    pub uncached_qps: f64,
    /// Questions/second against a server with the default cache.
    pub cached_qps: f64,
    /// `cached_qps / uncached_qps`.
    pub speedup: f64,
    /// Hit rate reported by the cached server's own stats endpoint.
    pub hit_rate: f64,
    /// Single-flight collapses reported by the cached server (waiters that
    /// reused a concurrent leader's execution instead of re-executing).
    pub collapsed_waiters: u64,
}

/// The full caching report (the `caching` section of `BENCH_exec.json`).
#[derive(Debug, Clone, Serialize)]
pub struct CachingReport {
    /// Rows of the benchmark table the questions run over.
    pub rows: usize,
    /// Size of the question pool the Zipf trace draws from.
    pub question_pool: usize,
    /// In-process replays, one per skew in [`CACHE_SKEWS`].
    pub skews: Vec<CachingSkewCase>,
    /// The served-over-TCP replay at the headline skew (s = 1.1).
    pub served: ServedCachingCase,
}

fn distinct(trace: &[usize]) -> usize {
    let mut seen: Vec<usize> = trace.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Replay `trace` over `questions` once through the bare engine and once
/// through a fresh cached engine, both warm-indexed.
fn skew_case(
    engine: &Arc<Engine>,
    table: &Table,
    questions: &[String],
    requests: usize,
    skew: f64,
    top_k: usize,
) -> CachingSkewCase {
    let trace = zipf_trace(questions.len(), requests, skew);

    let start = Instant::now();
    for &index in &trace {
        let explained = engine.explain_question(&questions[index], table, top_k);
        assert!(!explained.is_empty(), "bench question parses");
    }
    let uncached_qps = trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let cached = CachedEngine::new(engine.clone(), CacheConfig::default());
    let start = Instant::now();
    for &index in &trace {
        let answer = cached.explain_question(&questions[index], table, top_k);
        assert_ne!(answer.as_slice(), b"[]", "cached bench question parses");
    }
    let cached_qps = trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let metrics = cached.cache().metrics();
    let (hits, misses) = (metrics.hits.get(), metrics.misses.get());
    CachingSkewCase {
        skew,
        requests: trace.len(),
        distinct_questions: distinct(&trace),
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        uncached_qps,
        cached_qps,
        speedup: cached_qps / uncached_qps.max(1e-9),
    }
}

/// Replay the headline-skew trace against two loopback servers — an answer
/// cache that keeps nothing vs the default one — through `connections`
/// concurrent clients.
fn served_case(
    table: &Table,
    pool: usize,
    requests: usize,
    skew: f64,
    connections: usize,
) -> ServedCachingCase {
    let workload = question_workload(table, pool);
    let trace = zipf_trace(workload.len(), requests, skew);
    let replay: Vec<wtq_server::ExplainBody> =
        trace.iter().map(|&index| workload[index].clone()).collect();

    let mut qps = [0.0f64; 2];
    let mut hit_rate = 0.0;
    let mut collapsed_waiters = 0;
    for (slot, cache_capacity) in [(0, 0), (1, ServerConfig::default().cache_capacity)] {
        let config = ServerConfig {
            cache_capacity,
            ..ServerConfig::default()
        };
        let handle = loopback_server(table.clone(), config);
        let addr = handle.local_addr();
        // Build the table's index so both variants measure steady-state serving.
        {
            let mut client = Client::connect(addr).expect("warm-up client connects");
            let first = &workload[0];
            let _ = client.explain(&first.question, &first.table, Some(1));
        }
        let start = Instant::now();
        let (latencies, rejected) = replay_workload(addr, &replay, connections);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(rejected, 0, "cache bench must not hit backpressure");
        qps[slot] = latencies.len() as f64 / elapsed.max(1e-9);
        if cache_capacity > 0 {
            let stats = handle.stats();
            let op = |op: &str| {
                stat(
                    &stats,
                    &format!("wtq_answer_cache_ops_total{{op=\"{op}\"}}"),
                )
            };
            hit_rate = op("hit") as f64 / (op("hit") + op("miss")).max(1) as f64;
            collapsed_waiters = op("collapsed");
        }
        handle.shutdown();
    }

    ServedCachingCase {
        skew,
        requests: replay.len(),
        connections,
        uncached_qps: qps[0],
        cached_qps: qps[1],
        speedup: qps[1] / qps[0].max(1e-9),
        hit_rate,
        collapsed_waiters,
    }
}

/// Run the full caching comparison: Zipf replays of `requests` questions
/// drawn from a `pool`-question workload over a `rows`-row table, at each
/// of [`CACHE_SKEWS`] in process plus the served variant at s = 1.1
/// through `connections` clients.
pub fn caching_report(
    rows: usize,
    pool: usize,
    requests: usize,
    connections: usize,
) -> CachingReport {
    let table = bench_table(rows);
    let questions: Vec<String> = question_workload(&table, pool)
        .into_iter()
        .map(|body| body.question)
        .collect();
    let top_k = 3;

    let engine = Arc::new(Engine::new());
    table.index(); // build once; both variants share the index

    let skews = CACHE_SKEWS
        .iter()
        .map(|&skew| skew_case(&engine, &table, &questions, requests, skew, top_k))
        .collect();
    let served = served_case(&table, pool, requests, 1.1, connections);

    CachingReport {
        rows,
        question_pool: questions.len(),
        skews,
        served,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let zipf = Zipf::new(16, 1.1);
        let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED);
        let mut counts = [0usize; 16];
        for _ in 0..4000 {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 16);
            counts[rank] += 1;
        }
        // Rank 0 dominates the tail and the ordering is roughly monotone.
        assert!(counts[0] > counts[8] && counts[0] > counts[15]);
        assert!(counts[0] as f64 > 4000.0 / 16.0 * 2.0, "{counts:?}");
    }

    #[test]
    fn zipf_trace_is_deterministic() {
        assert_eq!(zipf_trace(8, 32, 1.1), zipf_trace(8, 32, 1.1));
        assert_ne!(zipf_trace(8, 64, 0.8), zipf_trace(8, 64, 1.4));
    }

    #[test]
    fn caching_report_measures_all_skews() {
        // Tiny sizes: this runs in debug CI. The real numbers come from
        // `experiments --section cache` in release mode.
        let report = caching_report(48, 6, 18, 2);
        assert_eq!(report.question_pool, 6);
        assert_eq!(report.skews.len(), CACHE_SKEWS.len());
        for (case, skew) in report.skews.iter().zip(CACHE_SKEWS) {
            assert_eq!(case.skew, skew);
            assert_eq!(case.requests, 18);
            assert!(case.distinct_questions <= 6);
            assert!(case.hit_rate > 0.0 && case.hit_rate < 1.0, "{case:?}");
            assert!(case.uncached_qps > 0.0 && case.cached_qps > 0.0);
        }
        // A replay longer than the pool must repeat questions, so the
        // cached server observed real hits.
        assert!(report.served.hit_rate > 0.0, "{:?}", report.served);
        assert!(report.served.uncached_qps > 0.0 && report.served.cached_qps > 0.0);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("hit_rate") && json.contains("collapsed_waiters"));
    }
}
