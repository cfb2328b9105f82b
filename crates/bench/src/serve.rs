//! Serving-layer measurements: a loopback `wtq-server` driven by blocking
//! clients, reporting end-to-end request latency percentiles.
//!
//! Shared by the `server_throughput` Criterion bench and the `experiments`
//! binary's `--section serve`, which folds the report into
//! `BENCH_exec.json` as the `serving` section.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use wtq_core::Engine;
use wtq_server::{Client, ExplainBody, Server, ServerConfig, ServerHandle, StatsBody};
use wtq_table::{Catalog, Table};

use crate::exec::bench_table;
use crate::EXPERIMENT_SEED;

/// Latency percentiles of a loopback serving run (milliseconds).
#[derive(Debug, Clone, Serialize)]
pub struct ServingReport {
    /// Rows of the served benchmark table.
    pub rows: usize,
    /// Total requests sent across all connections.
    pub questions: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// End-to-end requests/second across the whole run (connect + frame +
    /// parse + explain + respond).
    pub qps: f64,
    /// Mean per-request latency, ms.
    pub mean_ms: f64,
    /// Median per-request latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Worst observed latency, ms.
    pub max_ms: f64,
    /// Requests rejected by backpressure during the run (0 unless the
    /// in-flight bound is set below the connection count).
    pub rejected: u64,
    /// Answer-cache hits observed by the server during the run (the
    /// default config serves with the deduplicating cache enabled).
    pub cache_hits: u64,
    /// Answer-cache misses observed by the server during the run.
    pub cache_misses: u64,
    /// Concurrent identical requests that reused an in-flight leader's
    /// execution instead of re-executing (single-flight collapse).
    pub cache_collapsed_waiters: u64,
}

/// Boot a loopback server over `table` (plus the engine defaults), ready
/// for `connections` clients.
pub fn loopback_server(table: Table, config: ServerConfig) -> ServerHandle {
    let engine = Arc::new(Engine::new());
    let catalog: Arc<Catalog> = Arc::new([table].into_iter().collect());
    Server::bind("127.0.0.1:0", engine, catalog, config).expect("bind loopback server")
}

/// The value of `series` in a `Stats` body, as a count (`0` when the
/// registry does not carry it).
pub fn stat(stats: &StatsBody, series: &str) -> u64 {
    stats.get(series).unwrap_or(0.0) as u64
}

/// A deterministic question workload over `table`.
pub fn question_workload(table: &Table, questions: usize) -> Vec<ExplainBody> {
    let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED + 3);
    wtq_dataset::generate_questions(table, questions, &mut rng)
        .into_iter()
        .map(|question| ExplainBody {
            question: question.question,
            table: table.name().to_string(),
            top_k: Some(3),
        })
        .collect()
}

/// Replay `workload` through `connections` concurrent framed clients
/// against `addr` (round-robin split); returns the completed requests'
/// latencies and the number of backpressure rejections. Only a server-side
/// `Overloaded` rejection counts as rejected — any other failure (broken
/// connection, unknown table, internal error) panics, so a sick bench run
/// fails loudly instead of skewing the report.
pub fn replay_workload(
    addr: SocketAddr,
    workload: &[ExplainBody],
    connections: usize,
) -> (Vec<Duration>, u64) {
    let connections = connections.clamp(1, workload.len().max(1));
    let mut latencies: Vec<Duration> = Vec::with_capacity(workload.len());
    let mut rejected = 0u64;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for connection in 0..connections {
            let slice: Vec<&ExplainBody> = workload
                .iter()
                .skip(connection)
                .step_by(connections)
                .collect();
            workers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("bench client connects");
                let mut latencies = Vec::with_capacity(slice.len());
                let mut rejected = 0u64;
                for request in slice {
                    let start = Instant::now();
                    match client.explain(&request.question, &request.table, request.top_k) {
                        Ok(_) => latencies.push(start.elapsed()),
                        Err(wtq_server::ClientError::Server(err))
                            if err.code == wtq_server::ErrorCode::Overloaded =>
                        {
                            rejected += 1;
                        }
                        Err(err) => panic!("bench request failed: {err}"),
                    }
                }
                (latencies, rejected)
            }));
        }
        for worker in workers {
            let (worker_latencies, worker_rejected) = worker.join().expect("bench worker clean");
            latencies.extend(worker_latencies);
            rejected += worker_rejected;
        }
    });
    (latencies, rejected)
}

/// Replay a fixed question workload through `connections` concurrent
/// clients against a loopback server on a `rows`-row table, and report
/// latency percentiles.
pub fn serving_report(rows: usize, questions: usize, connections: usize) -> ServingReport {
    let table = bench_table(rows);
    let workload = question_workload(&table, questions);
    let handle = loopback_server(table, ServerConfig::default());
    let addr = handle.local_addr();

    // Warm the index cache so percentiles measure serving, not the one-off
    // index build.
    {
        let mut client = Client::connect(addr).expect("warm-up client connects");
        let first = workload.first().expect("non-empty workload");
        let _ = client.explain(&first.question, &first.table, Some(1));
    }

    let connections = connections.clamp(1, workload.len());
    let started = Instant::now();
    let (latencies, rejected) = replay_workload(addr, &workload, connections);
    let elapsed = started.elapsed().as_secs_f64();
    let stats = handle.stats();
    let cache_op = |op: &str| {
        stat(
            &stats,
            &format!("wtq_answer_cache_ops_total{{op=\"{op}\"}}"),
        )
    };
    handle.shutdown();
    let mut latencies_ms: Vec<f64> = latencies
        .iter()
        .map(|latency| latency.as_secs_f64() * 1e3)
        .collect();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let served = latencies_ms.len();
    let mean_ms = latencies_ms.iter().sum::<f64>() / served.max(1) as f64;
    ServingReport {
        rows,
        questions: workload.len(),
        connections,
        qps: served as f64 / elapsed.max(1e-9),
        mean_ms,
        p50_ms: percentile(&latencies_ms, 0.50),
        p90_ms: percentile(&latencies_ms, 0.90),
        p99_ms: percentile(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        rejected,
        cache_hits: cache_op("hit"),
        cache_misses: cache_op("miss"),
        cache_collapsed_waiters: cache_op("collapsed"),
    }
}

/// Connection-scaling measurement: many idle sockets held open while a few
/// active clients run the workload (milliseconds / requests-per-second).
#[derive(Debug, Clone, Serialize)]
pub struct IdleConnectionsReport {
    /// Idle connections requested by the caller.
    pub requested_idle: usize,
    /// Idle connections actually held open concurrently (clamped by the
    /// process fd limit — raised toward the hard limit first).
    pub idle_connections: usize,
    /// Active (request-issuing) connections alongside the idle ones.
    pub active_connections: usize,
    /// Requests sent across the active connections.
    pub questions: usize,
    /// Requests/second with every idle connection still open.
    pub qps: f64,
    /// Median per-request latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// The server's own open-connections gauge at peak — the proof the
    /// reactor really held them all.
    pub server_open_connections: u64,
    /// Reactor (event-loop) threads that carried every socket.
    pub reactor_threads: u64,
    /// Dispatch worker threads — with idle connections in the thousands,
    /// `reactor_threads + dispatch_threads` ≪ connections is the point.
    pub dispatch_threads: u64,
    /// The soft fd limit in effect during the run.
    pub nofile_soft_limit: u64,
}

/// Raise the process fd limit toward what `target` loopback connections
/// need (two fds each in-process, plus headroom for the server's own
/// machinery) and clamp the target to what the limit actually allows.
/// Returns `(clamped_target, soft_limit_in_effect)`.
pub fn clamp_idle_target(target: usize) -> (usize, u64) {
    let wanted_fds = (target * 2 + 512) as u64;
    let soft_limit = wtq_net::raise_nofile_limit(wanted_fds)
        .or_else(|_| wtq_net::nofile_limit().map(|(soft, _)| soft))
        .unwrap_or(1024);
    let clamped = target.min((soft_limit.saturating_sub(512) / 2) as usize);
    (clamped, soft_limit)
}

/// Hold `idle_target` idle connections open against a loopback server on a
/// `rows`-row table while `active` clients replay a `questions`-request
/// workload; report throughput and the server's connection gauges. The
/// idle count is clamped to what the process fd limit allows (see
/// [`clamp_idle_target`]).
pub fn idle_connections_report(
    idle_target: usize,
    active: usize,
    questions: usize,
    rows: usize,
) -> IdleConnectionsReport {
    let (idle, soft_limit) = clamp_idle_target(idle_target);

    let table = bench_table(rows);
    let workload = question_workload(&table, questions);
    let handle = loopback_server(table, ServerConfig::default());
    let addr = handle.local_addr();

    // Open the idle herd and wait until the reactors have registered all
    // of them — open_connections is the reactor-side gauge, so reaching
    // the target proves ownership, not just a deep accept backlog.
    let mut idle_conns: Vec<std::net::TcpStream> = Vec::with_capacity(idle);
    for _ in 0..idle {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => idle_conns.push(stream),
            Err(_) => break, // fd pressure after all; report what we held
        }
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while stat(&handle.stats(), "wtq_server_open_connections") < idle_conns.len() as u64
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Warm the index cache, then measure with the herd still connected.
    {
        let mut client = Client::connect(addr).expect("warm-up client connects");
        let first = workload.first().expect("non-empty workload");
        let _ = client.explain(&first.question, &first.table, Some(1));
    }
    let started = Instant::now();
    let (latencies, _rejected) = replay_workload(addr, &workload, active.max(1));
    let elapsed = started.elapsed().as_secs_f64();
    let stats = handle.stats();

    let mut latencies_ms: Vec<f64> = latencies
        .iter()
        .map(|latency| latency.as_secs_f64() * 1e3)
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let report = IdleConnectionsReport {
        requested_idle: idle_target,
        idle_connections: idle_conns.len(),
        active_connections: active.max(1),
        questions: workload.len(),
        qps: latencies_ms.len() as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        server_open_connections: stat(&stats, "wtq_server_open_connections"),
        reactor_threads: stat(&stats, "wtq_server_reactor_threads"),
        dispatch_threads: stat(&stats, "wtq_server_dispatch_threads"),
        nofile_soft_limit: soft_limit,
    };
    drop(idle_conns);
    handle.shutdown();
    report
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], quantile: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * quantile).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), 2.0);
        assert_eq!(percentile(&sorted, 0.90), 4.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn idle_connections_report_holds_the_herd_open() {
        // Small herd for debug-mode CI; the real scaling run (5000 idle)
        // is the idle_connections bench / experiments --section serve.
        let report = idle_connections_report(64, 2, 4, 48);
        assert_eq!(report.requested_idle, 64);
        assert!(report.idle_connections > 0);
        assert!(
            report.server_open_connections >= report.idle_connections as u64,
            "{report:?}"
        );
        assert!(report.qps > 0.0);
        // The thread counts are fixed by config, independent of the herd
        // size (the ≪-connections comparison is meaningful at the bench's
        // 5000-idle scale, not at this CI-sized 64).
        assert!(report.reactor_threads >= 1 && report.dispatch_threads >= 1);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("server_open_connections"));
    }

    #[test]
    fn serving_report_measures_a_small_loopback_run() {
        // Small enough for debug-mode CI.
        let report = serving_report(48, 4, 2);
        assert_eq!(report.rows, 48);
        assert_eq!(report.questions, 4);
        assert_eq!(report.connections, 2);
        assert_eq!(report.rejected, 0);
        assert!(report.qps > 0.0);
        assert!(report.p50_ms > 0.0);
        assert!(report.p50_ms <= report.p90_ms);
        assert!(report.p90_ms <= report.p99_ms);
        assert!(report.p99_ms <= report.max_ms);
        // The default server config serves through the answer cache, so
        // every request registered as a lookup.
        assert!(report.cache_hits + report.cache_misses >= report.questions as u64);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("p99_ms"));
        assert!(json.contains("cache_hits"));
    }
}
