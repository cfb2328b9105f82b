//! The server's observability surface: one [`Registry`] every metric
//! renders from, and one [`Tracer`] collecting sampled request traces.
//!
//! The registry holds no values of its own. It attaches the live handles
//! of every instance behind this server — the server's [`ServerMetrics`],
//! the engine's serving counters and parse-stage histograms, its index
//! cache and planner, the answer cache, the tracer — and reads them when
//! rendering. `/metrics` and `Stats` are two prints of that one walk; the
//! only value computed at render time is the uptime.
//!
//! The server's own handles are recorded on the request path (relaxed
//! atomics; a histogram observation is two `fetch_add`s). Some are state
//! the server runs on: the in-flight gauge *is* the slot gate, and the
//! open-connection and reactor-queue gauges are the reactors' own
//! accounting.
//!
//! Histogram values are nanoseconds internally and render as seconds in
//! the Prometheus exposition (bucket bounds included), matching the
//! `_seconds` metric names.

use std::sync::Arc;
use std::time::Instant;

use wtq_core::CachedEngine;
use wtq_obs::{Counter, Gauge, Histogram, Registry, Sample, Tracer};

use crate::server::ServerConfig;

/// The handles the server itself owns and records into.
#[derive(Default)]
pub(crate) struct ServerMetrics {
    pub(crate) connections: Arc<Counter>,
    /// Connections currently registered with a reactor.
    pub(crate) open_connections: Arc<Gauge>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) http_requests: Arc<Counter>,
    pub(crate) rejected_overload: Arc<Counter>,
    pub(crate) rejected_table_busy: Arc<Counter>,
    pub(crate) protocol_errors: Arc<Counter>,
    /// Requests holding a slot of the bounded in-flight queue — the gate
    /// itself ([`Gauge::try_inc_below`]).
    pub(crate) in_flight: Arc<Gauge>,
    /// Commands queued toward reactors but not yet applied: the observable
    /// depth of the I/O layer itself, distinct from the in-flight queue.
    pub(crate) reactor_queue_depth: Arc<Gauge>,
    /// Responses that could not encode and were answered with a
    /// structured `Internal` error instead (never an empty frame).
    pub(crate) encode_failures: Arc<Counter>,

    // Per-endpoint request counters.
    pub(crate) explain_requests: Arc<Counter>,
    pub(crate) explain_batch_requests: Arc<Counter>,
    pub(crate) stats_requests: Arc<Counter>,
    pub(crate) tables_requests: Arc<Counter>,
    pub(crate) metrics_requests: Arc<Counter>,
    pub(crate) trace_requests: Arc<Counter>,

    // Latency histograms (nanosecond observations).
    pub(crate) request_duration: Arc<Histogram>,
    pub(crate) stage_decode: Arc<Histogram>,
    pub(crate) stage_queue_wait: Arc<Histogram>,
    pub(crate) stage_cache_probe: Arc<Histogram>,
    pub(crate) stage_admission_wait: Arc<Histogram>,
    pub(crate) stage_eval: Arc<Histogram>,
    pub(crate) stage_encode: Arc<Histogram>,
}

impl ServerMetrics {
    fn register(&self, registry: &Registry) {
        registry.attach(
            "wtq_server_connections_total",
            "Connections accepted",
            &self.connections,
        );
        registry.attach(
            "wtq_server_open_connections",
            "Connections currently registered",
            &self.open_connections,
        );
        registry.attach(
            "wtq_server_requests_total",
            "Requests answered successfully",
            &self.requests,
        );
        registry.attach(
            "wtq_server_http_requests_total",
            "Requests served over HTTP",
            &self.http_requests,
        );
        registry.attach_labeled(
            "wtq_server_rejected_total",
            "reason",
            "Requests rejected with a retry hint, by reason",
            [
                ("overload", &self.rejected_overload),
                ("table_busy", &self.rejected_table_busy),
            ],
        );
        registry.attach(
            "wtq_server_protocol_errors_total",
            "Protocol-level error responses",
            &self.protocol_errors,
        );
        registry.attach(
            "wtq_server_in_flight",
            "Requests holding an in-flight slot",
            &self.in_flight,
        );
        registry.attach(
            "wtq_server_reactor_queue_depth",
            "Reactor commands queued, not yet applied",
            &self.reactor_queue_depth,
        );
        registry.attach(
            "wtq_server_encode_failures_total",
            "Responses that failed to encode and degraded to a structured Internal error",
            &self.encode_failures,
        );
        registry.attach_labeled(
            "wtq_server_endpoint_requests_total",
            "endpoint",
            "Requests handled, by endpoint",
            [
                ("explain", &self.explain_requests),
                ("explain_batch", &self.explain_batch_requests),
                ("stats", &self.stats_requests),
                ("tables", &self.tables_requests),
                ("metrics", &self.metrics_requests),
                ("trace", &self.trace_requests),
            ],
        );
        registry.attach(
            "wtq_request_duration_seconds",
            "End-to-end request latency, first byte to response encoded",
            &self.request_duration,
        );
        registry.attach_labeled(
            "wtq_request_stage_duration_seconds",
            "stage",
            "Per-stage request latency",
            [
                ("decode", &self.stage_decode),
                ("queue_wait", &self.stage_queue_wait),
                ("cache_probe", &self.stage_cache_probe),
                ("admission_wait", &self.stage_admission_wait),
                ("eval", &self.stage_eval),
                ("encode", &self.stage_encode),
            ],
        );
    }
}

/// Everything `/metrics`, `Stats` and `/trace/recent` serve. One per
/// server, shared behind the server's `Shared` state.
pub(crate) struct Obs {
    registry: Registry,
    tracer: Tracer,
    started: Instant,
    uptime_seconds: Arc<Gauge>,
}

impl Obs {
    /// A registry attaching `metrics`, the engine's handles and the answer
    /// cache's, plus the pool sizes and table count fixed at bind
    /// (`workers` is the scheduler's pool).
    pub(crate) fn new(
        config: &ServerConfig,
        tables: usize,
        workers: usize,
        metrics: &ServerMetrics,
        cached: &CachedEngine,
    ) -> Obs {
        let registry = Registry::new();
        let tracer = Tracer::new(config.trace_sample_rate, config.trace_ring_size);
        metrics.register(&registry);
        cached.engine().register(&registry);
        cached.register(&registry);
        tracer.register(&registry);
        let fixed = |family: &str, help: &'static str, value: usize| {
            let gauge = Arc::new(Gauge::default());
            gauge.set(value as i64);
            registry.attach(family, help, &gauge);
        };
        fixed(
            "wtq_server_tables",
            "Tables registered in the catalog",
            tables,
        );
        fixed(
            "wtq_server_reactor_threads",
            "Reactor (event-loop) threads serving all connections",
            config.resolved_reactor_threads(),
        );
        fixed(
            "wtq_server_dispatch_threads",
            "Scheduler worker threads running admitted engine work",
            workers,
        );
        let uptime_seconds = Arc::new(Gauge::default());
        registry.attach(
            "wtq_server_uptime_seconds",
            "Seconds since the server started",
            &uptime_seconds,
        );
        Obs {
            registry,
            tracer,
            started: Instant::now(),
            uptime_seconds,
        }
    }

    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The whole registry as Prometheus text.
    pub(crate) fn render(&self) -> String {
        self.tick_uptime();
        self.registry.render()
    }

    /// The samples [`Obs::render`] prints, as data (the `Stats` body).
    pub(crate) fn samples(&self) -> Vec<Sample> {
        self.tick_uptime();
        self.registry.samples()
    }

    fn tick_uptime(&self) {
        self.uptime_seconds
            .set(self.started.elapsed().as_secs() as i64);
    }
}
