//! Sampled per-request traces: a [`Tracer`] decides which requests get a
//! [`RequestTrace`] handle, the handle accumulates named spans as the
//! request moves through the pipeline, and finished traces land in two
//! fixed-size rings — the most *recent* and the *slowest* — that the
//! `/trace/recent` surface snapshots.
//!
//! Sampling is deterministic every-Nth (`every = round(1 / rate)`): cheap
//! (one relaxed `fetch_add` per request), bias-free for steady workloads,
//! and exact at the common rates (1.0 → every request, 1/16 → every 16th).
//! A rate of zero disables the counter entirely, so the disabled
//! configuration pays nothing on the request path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::{Counter, Registry};

/// One timed region inside a finished trace. Times are microseconds:
/// `start_us` is the offset from the start of the request, `duration_us`
/// the span length.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanSnapshot {
    pub name: String,
    pub start_us: f64,
    pub duration_us: f64,
}

/// A finished, serializable trace. `seq` is the tracer-wide sample number
/// (monotonic, so clients can dedup across polls of `/trace/recent`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSnapshot {
    pub seq: u64,
    pub endpoint: String,
    pub detail: String,
    pub status: String,
    pub total_us: f64,
    pub spans: Vec<SpanSnapshot>,
}

/// A live trace for one sampled request. Created by [`Tracer::start`],
/// carried through the pipeline, and consumed by [`Tracer::finish`].
/// Span recording is plain vector pushes — no locks, no allocation beyond
/// the span names the caller already owns as `&'static str`s or `String`s.
#[derive(Debug)]
pub struct RequestTrace {
    seq: u64,
    started: Instant,
    endpoint: &'static str,
    detail: String,
    spans: Vec<Span>,
}

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    duration_ns: u64,
}

impl RequestTrace {
    /// Name the endpoint handling this request (`explain`, `metrics`, …).
    pub fn set_endpoint(&mut self, endpoint: &'static str) {
        self.endpoint = endpoint;
    }

    /// Attach a short free-form detail (e.g. the table id or question).
    pub fn set_detail(&mut self, detail: String) {
        self.detail = detail;
    }

    /// The instant this request entered the server (set by the tracer).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Record a span measured with two `Instant`s on the request clock.
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.started).as_nanos() as u64;
        let duration_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            duration_ns,
        });
    }

    /// Record a span from pre-measured offsets (used when the timing was
    /// captured before the trace existed, e.g. decode time on the reactor).
    pub fn record_ns(&mut self, name: impl Into<String>, start_ns: u64, duration_ns: u64) {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            duration_ns,
        });
    }

    fn into_snapshot(self, status: &str, total_ns: u64) -> TraceSnapshot {
        TraceSnapshot {
            seq: self.seq,
            endpoint: self.endpoint.to_string(),
            detail: self.detail,
            status: status.to_string(),
            total_us: total_ns as f64 / 1_000.0,
            spans: self
                .spans
                .into_iter()
                .map(|span| SpanSnapshot {
                    name: span.name,
                    start_us: span.start_ns as f64 / 1_000.0,
                    duration_us: span.duration_ns as f64 / 1_000.0,
                })
                .collect(),
        }
    }
}

#[derive(Default)]
struct Rings {
    /// Most recent finished traces, oldest first.
    recent: std::collections::VecDeque<TraceSnapshot>,
    /// Slowest finished traces, fastest first (so eviction pops index 0).
    slowest: Vec<TraceSnapshot>,
}

/// The per-server trace collector. Shared behind an `Arc` by every
/// connection; all methods take `&self`.
pub struct Tracer {
    /// Sample every Nth request; 0 disables tracing entirely.
    every: u64,
    ring_size: usize,
    requests: AtomicU64,
    /// Traces sampled so far; each trace's `seq` is its sample number.
    sampled: Arc<Counter>,
    rings: Mutex<Rings>,
}

impl Tracer {
    /// `sample_rate` is the fraction of requests to trace (`0.0..=1.0`),
    /// realized as deterministic every-Nth sampling. `ring_size` caps both
    /// the recent and the slowest ring.
    pub fn new(sample_rate: f64, ring_size: usize) -> Tracer {
        let every = if sample_rate <= 0.0 {
            0
        } else {
            (1.0 / sample_rate.min(1.0)).round().max(1.0) as u64
        };
        Tracer {
            every,
            ring_size: ring_size.max(1),
            requests: AtomicU64::new(0),
            sampled: Arc::default(),
            rings: Mutex::new(Rings::default()),
        }
    }

    /// True when the configured rate samples nothing.
    pub fn disabled(&self) -> bool {
        self.every == 0
    }

    /// The effective every-Nth period (0 when disabled).
    pub fn period(&self) -> u64 {
        self.every
    }

    /// Count of traces sampled so far.
    pub fn sampled(&self) -> u64 {
        self.sampled.get()
    }

    /// Attach the sampled-trace counter to `registry`.
    pub fn register(&self, registry: &Registry) {
        registry.attach(
            "wtq_traces_sampled_total",
            "Requests sampled into the trace ring",
            &self.sampled,
        );
    }

    /// Decide whether this request is sampled; if so, hand back a live
    /// trace anchored at `started` (the moment the request's first bytes
    /// arrived). Unsampled requests cost one relaxed `fetch_add`; with
    /// sampling disabled, nothing at all.
    pub fn start(&self, started: Instant) -> Option<RequestTrace> {
        if self.every == 0 {
            return None;
        }
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.every) {
            return None;
        }
        let seq = self.sampled.inc();
        Some(RequestTrace {
            seq,
            started,
            endpoint: "unknown",
            detail: String::new(),
            spans: Vec::with_capacity(8),
        })
    }

    /// File a finished trace into the rings. `total_ns` is the full
    /// request residency (first byte to response encoded).
    pub fn finish(&self, trace: RequestTrace, status: &str, total_ns: u64) {
        let snapshot = trace.into_snapshot(status, total_ns);
        let mut rings = self.rings.lock().expect("tracer poisoned");
        if rings.recent.len() == self.ring_size {
            rings.recent.pop_front();
        }
        rings.recent.push_back(snapshot.clone());
        let at = rings
            .slowest
            .partition_point(|t| t.total_us <= snapshot.total_us);
        rings.slowest.insert(at, snapshot);
        if rings.slowest.len() > self.ring_size {
            rings.slowest.remove(0);
        }
    }

    /// Copy out the rings: `(recent, slowest)`, recent newest-last and
    /// slowest slowest-last.
    pub fn snapshot(&self) -> (Vec<TraceSnapshot>, Vec<TraceSnapshot>) {
        let rings = self.rings.lock().expect("tracer poisoned");
        (
            rings.recent.iter().cloned().collect(),
            rings.slowest.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn finish_with_total(tracer: &Tracer, total_ns: u64) {
        let trace = tracer.start(Instant::now()).expect("sampled");
        tracer.finish(trace, "ok", total_ns);
    }

    #[test]
    fn rate_one_samples_every_request() {
        let tracer = Tracer::new(1.0, 8);
        assert_eq!(tracer.period(), 1);
        for _ in 0..5 {
            assert!(tracer.start(Instant::now()).is_some());
        }
        assert_eq!(tracer.sampled(), 5);
    }

    #[test]
    fn fractional_rate_samples_every_nth() {
        let tracer = Tracer::new(0.25, 8);
        assert_eq!(tracer.period(), 4);
        let sampled = (0..16)
            .filter(|_| tracer.start(Instant::now()).is_some())
            .count();
        assert_eq!(sampled, 4);
    }

    #[test]
    fn zero_rate_disables_sampling() {
        let tracer = Tracer::new(0.0, 8);
        assert!(tracer.disabled());
        for _ in 0..10 {
            assert!(tracer.start(Instant::now()).is_none());
        }
        assert_eq!(tracer.requests.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn spans_are_anchored_to_request_start() {
        let tracer = Tracer::new(1.0, 8);
        let started = Instant::now();
        let mut trace = tracer.start(started).expect("sampled");
        trace.set_endpoint("explain");
        trace.set_detail("t0".to_string());
        let a = started + Duration::from_micros(10);
        let b = started + Duration::from_micros(35);
        trace.record("eval", a, b);
        trace.record_ns("decode", 0, 5_000);
        tracer.finish(trace, "ok", 40_000);

        let (recent, slowest) = tracer.snapshot();
        assert_eq!(recent.len(), 1);
        assert_eq!(slowest.len(), 1);
        let t = &recent[0];
        assert_eq!(t.endpoint, "explain");
        assert_eq!(t.detail, "t0");
        assert_eq!(t.status, "ok");
        assert_eq!(t.total_us, 40.0);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "eval");
        assert!((t.spans[0].start_us - 10.0).abs() < 0.5);
        assert!((t.spans[0].duration_us - 25.0).abs() < 0.5);
        assert_eq!(t.spans[1].duration_us, 5.0);
    }

    #[test]
    fn rings_cap_and_keep_the_slowest() {
        let tracer = Tracer::new(1.0, 3);
        for total_us in [5u64, 50, 1, 30, 2, 40] {
            finish_with_total(&tracer, total_us * 1_000);
        }
        let (recent, slowest) = tracer.snapshot();
        assert_eq!(recent.len(), 3);
        // Recent keeps the newest three, in arrival order.
        let recent_totals: Vec<f64> = recent.iter().map(|t| t.total_us).collect();
        assert_eq!(recent_totals, vec![30.0, 2.0, 40.0]);
        // Slowest keeps the global top three, ascending.
        let slow_totals: Vec<f64> = slowest.iter().map(|t| t.total_us).collect();
        assert_eq!(slow_totals, vec![30.0, 40.0, 50.0]);
    }

    #[test]
    fn seq_is_monotonic_for_dedup() {
        let tracer = Tracer::new(1.0, 8);
        for total in [3u64, 1, 2] {
            finish_with_total(&tracer, total);
        }
        let (recent, _) = tracer.snapshot();
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let tracer = Tracer::new(1.0, 4);
        let mut trace = tracer.start(Instant::now()).expect("sampled");
        trace.set_endpoint("explain");
        trace.record_ns("eval", 1_000, 2_000);
        tracer.finish(trace, "ok", 10_000);
        let (recent, _) = tracer.snapshot();
        let json = serde_json::to_string(&recent).expect("serializes");
        assert!(json.contains("\"endpoint\":\"explain\""));
        let back: Vec<TraceSnapshot> = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back[0].spans[0].name, "eval");
    }
}
