//! Observability-layer measurements: latency percentiles recovered from a
//! `/metrics` scrape and the throughput cost of request tracing.
//!
//! Shared by the `experiments` binary's `--section obs`, which folds the
//! report into `BENCH_exec.json` as the `observability` section, and the
//! `obs_overhead` regression gate, which asserts that tracing at the
//! default sampling rate keeps at least 95% of the untraced throughput.

use std::time::Instant;

use serde::Serialize;

use wtq_server::{Client, ServerConfig};

use crate::exec::{bench_table, median};
use crate::serve::{loopback_server, question_workload, replay_workload};

/// One histogram recovered from Prometheus text exposition: cumulative
/// `(le_seconds, count)` buckets plus the `_count` / `_sum` series.
#[derive(Debug, Clone)]
pub struct ScrapedHistogram {
    /// Total observations (`_count`).
    pub count: u64,
    /// Sum of observed values in seconds (`_sum`).
    pub sum_seconds: f64,
    /// Cumulative buckets `(upper bound in seconds, observations ≤ bound)`,
    /// ascending; the `+Inf` bucket is kept with an infinite bound.
    pub buckets: Vec<(f64, u64)>,
}

impl ScrapedHistogram {
    /// The `q`-quantile in milliseconds, resolved to the upper bound of the
    /// bucket holding the rank (the same resolution a Prometheus
    /// `histogram_quantile` query has). `0` when empty.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        for &(le, cumulative) in &self.buckets {
            if le.is_finite() && cumulative >= rank {
                return le * 1e3;
            }
        }
        // Only the +Inf bucket holds the rank; the mean is the best finite
        // stand-in the scrape offers.
        self.mean_ms()
    }

    /// Mean observation in milliseconds (`0` when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_seconds * 1e3 / self.count as f64
        }
    }
}

/// Parse one histogram family out of Prometheus `text`, keeping only the
/// series whose label set contains `label` (e.g. `("stage", "eval")`) when
/// one is given. Returns `None` when the family (or its `_count`/`_sum`
/// series) is absent — a scrape regression, not an empty histogram.
pub fn scrape_histogram(
    text: &str,
    family: &str,
    label: Option<(&str, &str)>,
) -> Option<ScrapedHistogram> {
    let bucket_series = format!("{family}_bucket");
    let count_series = format!("{family}_count");
    let sum_series = format!("{family}_sum");
    let wanted = label.map(|(key, value)| format!("{key}=\"{value}\""));
    let matches = |labels: &str| wanted.as_deref().is_none_or(|pair| labels.contains(pair));

    let mut buckets: Vec<(f64, u64)> = Vec::new();
    let mut count = None;
    let mut sum = None;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = match series.find('{') {
            Some(brace) => (&series[..brace], &series[brace..]),
            None => (series, ""),
        };
        if name == bucket_series && matches(labels) {
            let le = labels
                .split_once("le=\"")
                .and_then(|(_, rest)| rest.split_once('"'))
                .map(|(le, _)| le)?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            buckets.push((bound, value.parse().ok()?));
        } else if name == count_series && matches(labels) {
            count = value.parse::<u64>().ok();
        } else if name == sum_series && matches(labels) {
            sum = value.parse::<f64>().ok();
        }
    }
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite-or-inf bounds"));
    Some(ScrapedHistogram {
        count: count?,
        sum_seconds: sum?,
        buckets,
    })
}

/// Latency percentiles of one request stage, scraped from
/// `wtq_request_stage_duration_seconds{stage="…"}`.
#[derive(Debug, Clone, Serialize)]
pub struct StageLatency {
    /// Stage label (`decode`, `queue_wait`, `cache_probe`,
    /// `admission_wait`, `eval`, `encode`).
    pub stage: String,
    /// Observations recorded for the stage.
    pub observations: u64,
    /// Median stage latency, ms (bucket upper-bound resolution).
    pub p50_ms: f64,
    /// 99th-percentile stage latency, ms.
    pub p99_ms: f64,
    /// Mean stage latency, ms (exact, from `_sum`/`_count`).
    pub mean_ms: f64,
}

/// Throughput cost of request tracing: interleaved loopback runs against a
/// server tracing at the default sampling rate and one with tracing
/// disabled, reported as median questions/second each.
#[derive(Debug, Clone, Serialize)]
pub struct TracingOverhead {
    /// Interleaved measurement rounds per variant.
    pub rounds: usize,
    /// Requests replayed per round.
    pub questions_per_round: usize,
    /// Median questions/second with `trace_sample_rate: 0.0`.
    pub qps_disabled: f64,
    /// Median questions/second at the default sampling rate.
    pub qps_sampled: f64,
    /// `qps_sampled / qps_disabled` — the regression gate asserts ≥ 0.95.
    pub ratio: f64,
}

/// The observability section of `BENCH_exec.json`: end-to-end and per-stage
/// latency percentiles recovered from a `/metrics` scrape, the trace-ring
/// population, and the measured tracing overhead.
#[derive(Debug, Clone, Serialize)]
pub struct ObsReport {
    /// Rows of the served benchmark table.
    pub rows: usize,
    /// Requests replayed before the scrape.
    pub questions: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// `wtq_request_duration_seconds_count` at scrape time.
    pub requests_observed: u64,
    /// Median request latency from the scraped histogram, ms.
    pub request_p50_ms: f64,
    /// 90th-percentile request latency, ms.
    pub request_p90_ms: f64,
    /// 99th-percentile request latency, ms.
    pub request_p99_ms: f64,
    /// Mean request latency, ms (exact, from `_sum`/`_count`).
    pub request_mean_ms: f64,
    /// Per-stage percentiles for every stage with observations.
    pub stages: Vec<StageLatency>,
    /// Trace sampling period of the scraped server (1 = every request).
    pub trace_sample_period: u64,
    /// Requests traced during the run.
    pub traces_sampled: u64,
    /// Traces in the recent ring at scrape time.
    pub recent_traces: usize,
    /// Traces in the slowest ring at scrape time.
    pub slowest_traces: usize,
    /// Tracing cost at the default sampling rate vs disabled.
    pub overhead: TracingOverhead,
}

/// The stage labels the server records, in request order.
pub const STAGES: [&str; 6] = [
    "decode",
    "queue_wait",
    "cache_probe",
    "admission_wait",
    "eval",
    "encode",
];

/// Measure the throughput cost of tracing: two loopback servers over the
/// same `rows`-row table — one tracing at the default sampling rate, one
/// with tracing disabled — each replaying the same `questions`-request
/// workload `rounds` times in interleaved order. Medians per variant, so
/// machine-load drift hits both alike.
pub fn tracing_overhead(
    rows: usize,
    questions: usize,
    connections: usize,
    rounds: usize,
) -> TracingOverhead {
    let table = bench_table(rows);
    let workload = question_workload(&table, questions);
    let sampled = loopback_server(table.clone(), ServerConfig::default());
    let disabled = loopback_server(
        table,
        ServerConfig {
            trace_sample_rate: 0.0,
            ..ServerConfig::default()
        },
    );

    // Build the tables' indexes first so the rounds measure serving, not the
    // one-off index build.
    for handle in [&sampled, &disabled] {
        let mut client = Client::connect(handle.local_addr()).expect("warm-up client connects");
        let first = workload.first().expect("non-empty workload");
        let _ = client.explain(&first.question, &first.table, Some(1));
    }

    let run = |addr| {
        let started = Instant::now();
        let (latencies, _rejected) = replay_workload(addr, &workload, connections);
        latencies.len() as f64 / started.elapsed().as_secs_f64().max(1e-9)
    };
    let rounds = rounds.max(1);
    let mut sampled_qps = Vec::with_capacity(rounds);
    let mut disabled_qps = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        sampled_qps.push(run(sampled.local_addr()));
        disabled_qps.push(run(disabled.local_addr()));
    }
    sampled.shutdown();
    disabled.shutdown();

    let qps_sampled = median(sampled_qps);
    let qps_disabled = median(disabled_qps);
    TracingOverhead {
        rounds,
        questions_per_round: workload.len(),
        qps_disabled,
        qps_sampled,
        ratio: qps_sampled / qps_disabled.max(1e-9),
    }
}

/// Run the observability measurement: replay a workload against a loopback
/// server tracing every request, scrape `/metrics` and the trace rings, and
/// measure the tracing overhead at the default sampling rate.
pub fn obs_report(rows: usize, questions: usize, connections: usize, rounds: usize) -> ObsReport {
    let overhead = tracing_overhead(rows, questions, connections, rounds);

    // The scrape server traces every request so the report's ring counts
    // show a populated ring, not a sampling artifact; histograms are
    // recorded unconditionally either way.
    let table = bench_table(rows);
    let workload = question_workload(&table, questions);
    let handle = loopback_server(
        table,
        ServerConfig {
            trace_sample_rate: 1.0,
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    {
        let mut client = Client::connect(addr).expect("warm-up client connects");
        let first = workload.first().expect("non-empty workload");
        let _ = client.explain(&first.question, &first.table, Some(1));
    }
    let connections = connections.clamp(1, workload.len());
    let (_latencies, _rejected) = replay_workload(addr, &workload, connections);

    let mut client = Client::connect(addr).expect("scrape client connects");
    let text = client.metrics().expect("metrics scrape succeeds");
    let traces = client.trace_recent().expect("trace snapshot succeeds");
    handle.shutdown();

    let request = scrape_histogram(&text, "wtq_request_duration_seconds", None)
        .expect("request-duration histogram present in scrape");
    let stages: Vec<StageLatency> = STAGES
        .iter()
        .filter_map(|stage| {
            let scraped = scrape_histogram(
                &text,
                "wtq_request_stage_duration_seconds",
                Some(("stage", stage)),
            )?;
            (scraped.count > 0).then(|| StageLatency {
                stage: (*stage).to_string(),
                observations: scraped.count,
                p50_ms: scraped.percentile_ms(0.50),
                p99_ms: scraped.percentile_ms(0.99),
                mean_ms: scraped.mean_ms(),
            })
        })
        .collect();

    ObsReport {
        rows,
        questions: workload.len(),
        connections,
        requests_observed: request.count,
        request_p50_ms: request.percentile_ms(0.50),
        request_p90_ms: request.percentile_ms(0.90),
        request_p99_ms: request.percentile_ms(0.99),
        request_mean_ms: request.mean_ms(),
        stages,
        trace_sample_period: traces.sample_period,
        traces_sampled: traces.sampled,
        recent_traces: traces.recent.len(),
        slowest_traces: traces.slowest.len(),
        overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP wtq_request_duration_seconds End-to-end request latency.
# TYPE wtq_request_duration_seconds histogram
wtq_request_duration_seconds_bucket{le=\"0.001\"} 6
wtq_request_duration_seconds_bucket{le=\"0.004\"} 9
wtq_request_duration_seconds_bucket{le=\"+Inf\"} 10
wtq_request_duration_seconds_sum 0.05
wtq_request_duration_seconds_count 10
wtq_request_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.002\"} 4
wtq_request_stage_duration_seconds_bucket{stage=\"eval\",le=\"+Inf\"} 4
wtq_request_stage_duration_seconds_sum{stage=\"eval\"} 0.004
wtq_request_stage_duration_seconds_count{stage=\"eval\"} 4
wtq_request_stage_duration_seconds_bucket{stage=\"decode\",le=\"+Inf\"} 9
wtq_request_stage_duration_seconds_sum{stage=\"decode\"} 0.0009
wtq_request_stage_duration_seconds_count{stage=\"decode\"} 9
";

    #[test]
    fn scrape_recovers_buckets_and_percentiles() {
        let scraped =
            scrape_histogram(SAMPLE, "wtq_request_duration_seconds", None).expect("family present");
        assert_eq!(scraped.count, 10);
        assert!((scraped.sum_seconds - 0.05).abs() < 1e-12);
        assert_eq!(scraped.buckets.len(), 3);
        // Rank 5 of 10 lands in the first bucket; rank 9 in the second.
        assert!((scraped.percentile_ms(0.50) - 1.0).abs() < 1e-9);
        assert!((scraped.percentile_ms(0.90) - 4.0).abs() < 1e-9);
        // Rank 10 only fits the +Inf bucket: the mean stands in.
        assert!((scraped.percentile_ms(0.99) - 5.0).abs() < 1e-9);
        assert!((scraped.mean_ms() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scrape_filters_by_label() {
        let eval = scrape_histogram(
            SAMPLE,
            "wtq_request_stage_duration_seconds",
            Some(("stage", "eval")),
        )
        .expect("eval series present");
        assert_eq!(eval.count, 4);
        let decode = scrape_histogram(
            SAMPLE,
            "wtq_request_stage_duration_seconds",
            Some(("stage", "decode")),
        )
        .expect("decode series present");
        assert_eq!(decode.count, 9);
        assert!(scrape_histogram(SAMPLE, "wtq_missing_seconds", None).is_none());
    }

    #[test]
    fn obs_report_measures_a_small_loopback_run() {
        // Small enough for debug-mode CI; the real numbers come from
        // `experiments --section obs` in release mode.
        let report = obs_report(48, 4, 2, 1);
        // Warm-up + replay all land in the request-duration histogram; the
        // scrape itself renders before its own observation completes.
        assert_eq!(report.requests_observed, 5);
        assert!(report.request_p50_ms > 0.0);
        assert!(report.request_p50_ms <= report.request_p90_ms);
        assert!(report.request_p90_ms <= report.request_p99_ms);
        let eval = report
            .stages
            .iter()
            .find(|stage| stage.stage == "eval")
            .expect("eval stage observed");
        assert!(eval.observations >= report.questions as u64);
        let decode = report
            .stages
            .iter()
            .find(|stage| stage.stage == "decode")
            .expect("decode stage observed");
        // Decode/queue-wait are observed before dispatch, so the metrics
        // request itself is already in its own scrape: 6, not 5.
        assert_eq!(decode.observations, 6);
        // Every request was traced (sample rate 1.0 on the scrape server).
        assert_eq!(report.trace_sample_period, 1);
        assert!(report.traces_sampled >= 5);
        assert!(report.recent_traces >= 5);
        assert!(report.slowest_traces >= 5);
        assert!(report.overhead.qps_disabled > 0.0);
        assert!(report.overhead.qps_sampled > 0.0);
        assert!(report.overhead.ratio > 0.0);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("request_p99_ms"));
        assert!(json.contains("overhead"));
    }
}
