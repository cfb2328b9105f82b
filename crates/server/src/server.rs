//! The serving layer: accept loop, per-connection protocol handling,
//! backpressure and per-table admission control over a shared
//! [`Engine`](wtq_core::Engine).
//!
//! ## Scheduling model
//!
//! Every data-plane request (`Explain`, `ExplainBatch`) must first take a
//! slot in the **bounded in-flight queue** (`max_in_flight`). When the queue
//! is full the request is *rejected immediately* with
//! [`ErrorCode::Overloaded`] and a `retry_after_ms` hint — the server never
//! buffers without bound, so memory under overload stays flat and clients
//! get explicit backpressure instead of unbounded latency. `ListTables` and
//! `Stats` are control-plane: they bypass the queue so operators can observe
//! an overloaded server.
//!
//! Holding a slot, the request then passes **per-table admission control**
//! (two layers, see [`TableGate`]): the table must be below its share of
//! the in-flight queue (`max_table_in_flight`, rejected with a retry hint
//! otherwise — a hot table's waiters must not fill the whole queue), and
//! at most `per_table_tokens` requests may execute concurrently against
//! tables sharing one shape fingerprint ([`wtq_table::Table::fingerprint`]).
//! Excess requests for a hot (or giant) table wait within their bounded
//! share while requests for other tables keep executing, so one table
//! cannot starve the pool.
//!
//! ## Protocols
//!
//! Connections are sniffed on their first four bytes: an HTTP method prefix
//! selects the hand-rolled HTTP/1.1 adapter ([`crate::http`]); anything else
//! is treated as the length-prefix of the framed JSON protocol
//! ([`crate::wire`]). The two share one dispatch core, so semantics
//! (backpressure, admission, errors) are identical.
//!
//! ## I/O model
//!
//! Connection I/O is a nonblocking readiness loop ([`crate::reactor`]):
//! one blocking acceptor hands sockets to a small pool of epoll reactor
//! threads whose per-connection state machines ([`crate::conn`]) parse
//! frames incrementally; complete requests run on a fixed dispatch pool
//! (where the blocking admission waits live) and responses are written
//! back on writability. Thread count scales with in-flight *work*
//! (`dispatch_threads`), never with connection count — tens of thousands
//! of idle clients cost buffered state, not stacks.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wtq_cache::{Begin, CacheConfig};
use wtq_core::{CachedAnswer, CachedCandidates, CachedEngine, Engine, ExplainRequest, Explanation};
use wtq_obs::{Gauge, RequestTrace};
use wtq_parser::ParseSpans;
use wtq_runtime::{BatchError, CancelToken};
use wtq_table::Catalog;

use crate::obs::{Obs, ServerMetrics};
use crate::reactor::{self, Command, Reactor, ReactorShared};
use crate::wire::{
    self, ErrorCode, ExplainBatchBody, ExplainBody, MetricsBody, RequestBody, RequestEnvelope,
    ResponseBody, ResponseEnvelope, StatsBody, TablesBody, TraceRecentBody, WireBatch, WireError,
    WireExplanation,
};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on concurrently admitted data-plane requests; a full queue
    /// rejects with [`ErrorCode::Overloaded`].
    pub max_in_flight: usize,
    /// Concurrent executions allowed per table shape fingerprint.
    pub per_table_tokens: usize,
    /// Bound on the share of the in-flight queue one table may occupy
    /// (executing + waiting); a table over its share rejects with
    /// [`ErrorCode::Overloaded`] so a hot table cannot fill the whole
    /// queue and starve the others. Clamped to at least
    /// `per_table_tokens`.
    pub max_table_in_flight: usize,
    /// Maximum accepted frame payload length.
    pub max_frame_len: u32,
    /// Maximum questions per `ExplainBatch` request.
    pub max_batch: usize,
    /// The `retry_after_ms` hint attached to overload rejections.
    pub retry_after_ms: u64,
    /// Upper bound on how long a request may wait for its table's
    /// execution tokens before being rejected with a retry hint — caps
    /// worst-case latency and guarantees a contended multi-token batch
    /// cannot hang its client forever.
    pub admission_timeout_ms: u64,
    /// Reactor (epoll event-loop) threads owning the sockets. Connections
    /// are spread round-robin; a handful suffices for tens of thousands of
    /// connections because reactors never block on protocol work.
    pub reactor_threads: usize,
    /// Dispatch worker threads running requests (admission waits and
    /// engine calls block *here*, not on reactors). `0` auto-sizes to
    /// `max_in_flight + 2`: enough for every admitted request to block in
    /// per-table admission while headroom remains for control-plane
    /// requests and immediate overload rejections.
    pub dispatch_threads: usize,
    /// Entry capacity of the deduplicating answer cache; `0` disables
    /// caching entirely. Cache lookups run *before* the in-flight queue
    /// gate (control-plane-style), so a request the cache can answer is
    /// never rejected with `Overloaded`.
    pub cache_capacity: usize,
    /// TTL of answer-cache entries in milliseconds; `0` means entries
    /// never expire by age (LRU and epoch invalidation still apply).
    pub cache_ttl_ms: u64,
    /// Fraction of requests sampled into the trace rings (deterministic
    /// every-Nth with `N = round(1/rate)`). `0.0` disables tracing
    /// entirely — sampled-out requests cost one relaxed counter increment.
    pub trace_sample_rate: f64,
    /// Capacity of each trace ring (most-recent and slowest); see
    /// `GET /trace/recent`.
    pub trace_ring_size: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight: 64,
            per_table_tokens: 4,
            max_table_in_flight: 16,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            max_batch: 256,
            retry_after_ms: 50,
            admission_timeout_ms: 30_000,
            reactor_threads: 2,
            dispatch_threads: 0,
            cache_capacity: 4096,
            cache_ttl_ms: 0,
            trace_sample_rate: 0.0625,
            trace_ring_size: 128,
        }
    }
}

impl ServerConfig {
    /// The reactor pool size actually spawned.
    pub(crate) fn resolved_reactor_threads(&self) -> usize {
        self.reactor_threads.max(1)
    }

    /// The dispatch pool size actually spawned (see `dispatch_threads`).
    pub(crate) fn resolved_dispatch_threads(&self) -> usize {
        if self.dispatch_threads == 0 {
            self.max_in_flight + 2
        } else {
            self.dispatch_threads
        }
    }
}

/// A handler's answer: either a fully structured body the encoder
/// serializes as before, or a cache hit whose candidates JSON was already
/// serialized at flight completion — the wire layers splice those bytes
/// into the response instead of re-encoding (the encode-once path).
pub(crate) enum Reply {
    Full(ResponseBody),
    CachedExplanation {
        /// The request's question text, echoed verbatim (cache keys are
        /// normalized, so only the candidate bytes are key-invariant).
        question: String,
        /// The request's table name, echoed verbatim.
        table: String,
        /// The serialized `candidates` JSON array, shared with the cache.
        body: Arc<Vec<u8>>,
    },
}

/// A framed request's answer, mirroring [`Reply`] with the envelope id
/// attached: `Full` serializes the whole envelope, `Cached` splices.
pub(crate) enum FrameResponse {
    Full(ResponseEnvelope),
    Cached {
        id: u64,
        question: String,
        table: String,
        body: Arc<Vec<u8>>,
    },
}

/// Counters of one admission gate, both keyed by table shape fingerprint
/// and guarded by the gate's single mutex.
#[derive(Debug, Default)]
struct GateState {
    /// Requests currently *executing* against each table (≤ `tokens`).
    executing: HashMap<u64, usize>,
    /// Requests currently *occupying an in-flight slot* for each table —
    /// executing or waiting for a token (≤ `max_queued`).
    queued: HashMap<u64, usize>,
}

fn count_of(map: &HashMap<u64, usize>, fingerprint: u64) -> usize {
    map.get(&fingerprint).copied().unwrap_or(0)
}

fn decrement(map: &mut HashMap<u64, usize>, fingerprint: u64, amount: usize) {
    if let Some(count) = map.get_mut(&fingerprint) {
        *count = count.saturating_sub(amount);
        if *count == 0 {
            map.remove(&fingerprint);
        }
    }
}

/// Per-table admission control, two-layered:
///
/// * **Occupancy** ([`TableGate::try_occupy`], non-blocking): bounds how
///   many in-flight-queue slots one table may hold at once (executing *or*
///   waiting). Without this, a hot table's waiters would fill the entire
///   bounded queue and every other table's requests would bounce off
///   `Overloaded` — exactly the cross-table starvation admission control
///   exists to prevent.
/// * **Execution tokens** ([`TableGate::acquire`], blocking): at most
///   `tokens` requests execute concurrently per table. Tokens are claimed
///   **incrementally in ascending fingerprint order** — the classic
///   hierarchical-locking order, so multi-table batches cannot deadlock
///   against each other, and a batch *camps* on the tokens it already
///   holds, so sustained single-table traffic cannot livelock it out of
///   ever seeing all its tables free at once.
#[derive(Debug)]
struct TableGate {
    tokens: usize,
    max_queued: usize,
    state: Mutex<GateState>,
    freed: Condvar,
}

impl TableGate {
    fn new(tokens: usize, max_queued: usize) -> TableGate {
        let tokens = tokens.max(1);
        TableGate {
            tokens,
            // A queue share below the execution bound could never fill it.
            max_queued: max_queued.max(tokens),
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
        }
    }

    /// Claim one in-flight-queue share per fingerprint, all-or-nothing and
    /// without blocking. `None` when any of the tables has exhausted its
    /// share — the caller rejects with a retry hint.
    fn try_occupy(&self, fingerprints: Vec<u64>) -> Option<OccupancyGuard<'_>> {
        let mut state = self.state.lock().expect("table gate poisoned");
        if fingerprints
            .iter()
            .any(|&fp| count_of(&state.queued, fp) >= self.max_queued)
        {
            return None;
        }
        for fp in &fingerprints {
            *state.queued.entry(*fp).or_insert(0) += 1;
        }
        Some(OccupancyGuard {
            gate: self,
            fingerprints,
        })
    }

    /// Claim `weight` execution tokens per fingerprint (clamped to the
    /// per-table bound), blocking as needed — a batch that fans out over an
    /// N-worker engine pool claims N tokens, so admission bounds the
    /// *work* hitting a table, not just the request count. `fingerprints`
    /// must be sorted ascending and deduplicated. The wait is bounded by
    /// `timeout` so a contended multi-token request cannot hang its client
    /// forever; tokens already claimed are released on both timeout and
    /// shutdown.
    fn acquire<'a>(
        &'a self,
        fingerprints: Vec<u64>,
        weight: usize,
        timeout: Duration,
        shutdown: &AtomicBool,
    ) -> Acquire<'a> {
        debug_assert!(fingerprints.windows(2).all(|pair| pair[0] < pair[1]));
        let weight = weight.clamp(1, self.tokens);
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("table gate poisoned");
        let mut held = 0;
        while held < fingerprints.len() {
            let bail = if shutdown.load(Ordering::Acquire) {
                Some(Acquire::ShuttingDown)
            } else if std::time::Instant::now() >= deadline {
                Some(Acquire::TimedOut)
            } else {
                None
            };
            if let Some(outcome) = bail {
                for &fp in &fingerprints[..held] {
                    decrement(&mut state.executing, fp, weight);
                }
                drop(state);
                self.freed.notify_all();
                return outcome;
            }
            let next = fingerprints[held];
            if count_of(&state.executing, next) + weight <= self.tokens {
                *state.executing.entry(next).or_insert(0) += weight;
                held += 1;
                continue;
            }
            // Re-check the shutdown flag and the deadline periodically:
            // shutdown() cannot know which condvars have waiters.
            let (guard, _timeout) = self
                .freed
                .wait_timeout(state, Duration::from_millis(50))
                .expect("table gate poisoned");
            state = guard;
        }
        Acquire::Acquired(TableGuard {
            gate: self,
            fingerprints,
            weight,
        })
    }
}

/// Outcome of [`TableGate::acquire`].
enum Acquire<'a> {
    /// Tokens claimed; released when the guard drops.
    Acquired(TableGuard<'a>),
    /// The admission timeout elapsed — reject with a retry hint.
    TimedOut,
    /// The server is shutting down.
    ShuttingDown,
}

/// RAII release of claimed in-flight-queue shares.
struct OccupancyGuard<'a> {
    gate: &'a TableGate,
    fingerprints: Vec<u64>,
}

impl Drop for OccupancyGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("table gate poisoned");
        for &fp in &self.fingerprints {
            decrement(&mut state.queued, fp, 1);
        }
    }
}

/// RAII release of claimed execution tokens.
struct TableGuard<'a> {
    gate: &'a TableGate,
    fingerprints: Vec<u64>,
    weight: usize,
}

impl Drop for TableGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("table gate poisoned");
        for &fp in &self.fingerprints {
            decrement(&mut state.executing, fp, self.weight);
        }
        drop(state);
        self.gate.freed.notify_all();
    }
}

/// RAII slot in the bounded in-flight queue.
struct InFlightGuard<'a>(&'a Gauge);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// State shared between the acceptor, the reactors, the dispatch pool and
/// the [`ServerHandle`].
pub(crate) struct Shared {
    engine: Arc<Engine>,
    /// The deduplicating answer cache over `engine`, when
    /// `cache_capacity > 0`. Lookups happen before the in-flight gate;
    /// single-flight collapse means a thundering herd on one hot question
    /// costs one engine run.
    cached: Option<CachedEngine>,
    catalog: Arc<Catalog>,
    config: ServerConfig,
    admission: TableGate,
    shutdown: AtomicBool,
    cancel: CancelToken,
    /// The server's own counters, gauges and latency histograms.
    pub(crate) metrics: ServerMetrics,
    /// The registry attaching every handle behind this server, and the
    /// request tracer (see [`crate::obs`]).
    obs: Obs,
}

impl Shared {
    /// Take a slot in the bounded in-flight queue, or `None` when full.
    fn try_admit(&self) -> Option<InFlightGuard<'_>> {
        let in_flight = &self.metrics.in_flight;
        // Lazily: a guard built for a refused slot would release one on drop.
        in_flight
            .try_inc_below(self.config.max_in_flight as i64)
            .then(|| InFlightGuard(in_flight))
    }

    /// The overload rejection, with the configured retry hint.
    fn overloaded(&self) -> ResponseBody {
        self.metrics.rejected_overload.inc();
        ResponseBody::Error(WireError {
            code: ErrorCode::Overloaded,
            message: format!(
                "in-flight queue full ({} requests)",
                self.config.max_in_flight
            ),
            retry_after_ms: Some(self.config.retry_after_ms),
        })
    }

    /// The per-table queue-share rejection (still retryable by the client,
    /// hence the same `Overloaded` code with a retry hint).
    fn table_busy(&self) -> ResponseBody {
        self.metrics.rejected_table_busy.inc();
        ResponseBody::Error(WireError {
            code: ErrorCode::Overloaded,
            message: format!(
                "table's in-flight queue share full ({} requests per table)",
                self.admission.max_queued
            ),
            retry_after_ms: Some(self.config.retry_after_ms),
        })
    }

    /// The observability surface (registry and tracer).
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Whether graceful shutdown has begun.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn max_frame_len(&self) -> u32 {
        self.config.max_frame_len
    }

    fn admission_timeout(&self) -> Duration {
        Duration::from_millis(self.config.admission_timeout_ms)
    }

    /// Answer one typed request body — the dispatch core shared by the
    /// framed protocol and the HTTP adapter. Engine work runs under
    /// `catch_unwind`, so a panicking job becomes an `Internal` error
    /// response instead of killing the connection handler (and is invisible
    /// to the accept loop either way). `trace` is the request's sampled
    /// trace, when it drew a sampling slot — handlers append stage spans
    /// to it.
    pub(crate) fn handle_request(
        &self,
        body: RequestBody,
        trace: &mut Option<RequestTrace>,
    ) -> Reply {
        match body {
            RequestBody::ListTables => {
                self.metrics.tables_requests.inc();
                if let Some(trace) = trace {
                    trace.set_endpoint("tables");
                }
                Reply::Full(ResponseBody::Tables(TablesBody {
                    tables: self.catalog.summaries(),
                }))
            }
            RequestBody::Stats => {
                self.metrics.stats_requests.inc();
                if let Some(trace) = trace {
                    trace.set_endpoint("stats");
                }
                Reply::Full(ResponseBody::Stats(StatsBody {
                    samples: self.obs.samples(),
                }))
            }
            RequestBody::Metrics => {
                self.metrics.metrics_requests.inc();
                if let Some(trace) = trace {
                    trace.set_endpoint("metrics");
                }
                Reply::Full(ResponseBody::Metrics(MetricsBody {
                    text: self.obs.render(),
                }))
            }
            RequestBody::TraceRecent => {
                self.metrics.trace_requests.inc();
                if let Some(trace) = trace {
                    trace.set_endpoint("trace");
                }
                let (recent, slowest) = self.obs.tracer().snapshot();
                Reply::Full(ResponseBody::TraceRecent(TraceRecentBody {
                    sample_period: self.obs.tracer().period(),
                    sampled: self.obs.tracer().sampled(),
                    recent,
                    slowest,
                }))
            }
            RequestBody::Explain(request) => {
                self.metrics.explain_requests.inc();
                if let Some(trace) = trace {
                    trace.set_endpoint("explain");
                    trace.set_detail(format!("{} @ {}", request.question, request.table));
                }
                self.handle_explain(request, trace)
            }
            RequestBody::ExplainBatch(batch) => {
                self.metrics.explain_batch_requests.inc();
                if let Some(trace) = trace {
                    trace.set_endpoint("explain_batch");
                    trace.set_detail(format!("{} questions", batch.requests.len()));
                }
                Reply::Full(self.handle_batch(batch, trace))
            }
        }
    }

    /// Answer an explain request from a completed flight's value: the
    /// candidate bytes serialized at completion, spliced by the wire layer
    /// behind the request's own question and table echoes.
    fn explanation_reply(&self, question: String, table: String, value: &CachedAnswer) -> Reply {
        self.metrics.requests.inc();
        Reply::CachedExplanation {
            body: Arc::clone(value.body()),
            question,
            table,
        }
    }

    fn handle_explain(&self, request: ExplainBody, trace: &mut Option<RequestTrace>) -> Reply {
        // Table resolution and the cache probe run *before* the in-flight
        // gate, control-plane-style: a request the cache can answer (or
        // reject as unknown) must never bounce off `Overloaded`, so
        // clients never receive a `retry_after_ms` hint for an answer the
        // server already holds.
        let Some(table) = self.catalog.get(&request.table) else {
            return Reply::Full(ResponseBody::Error(WireError::new(
                ErrorCode::UnknownTable,
                format!("unknown table: {}", request.table),
            )));
        };
        let probe_start = Instant::now();
        let key = self
            .cached
            .as_ref()
            .map(|cached| cached.key_for(&request.question, table, request.top_k));
        let probed = match (&self.cached, &key) {
            (Some(cached), Some(key)) => cached.probe(key),
            _ => None,
        };
        let probe_end = Instant::now();
        self.metrics
            .stage_cache_probe
            .observe(span_ns(probe_start, probe_end));
        if let Some(trace) = trace.as_mut() {
            trace.record("cache_probe", probe_start, probe_end);
        }
        if let Some(value) = probed {
            return self.explanation_reply(request.question, request.table, &value);
        }
        let admit_start = Instant::now();
        let Some(_slot) = self.try_admit() else {
            return Reply::Full(self.overloaded());
        };
        let fingerprint = table.fingerprint();
        let Some(_share) = self.admission.try_occupy(vec![fingerprint]) else {
            return Reply::Full(self.table_busy());
        };
        // Join or lead the single-flight before blocking on execution
        // tokens: concurrent identical requests collapse onto one leader's
        // engine run, receiving its answer without claiming tokens of
        // their own (they do hold queue slots — collapsed waiters are
        // still bounded load).
        let flight = match (&self.cached, key) {
            (Some(cached), Some(key)) => match cached.begin(&key) {
                Begin::Hit(value) | Begin::Collapsed(value) => {
                    return self.explanation_reply(request.question, request.table, &value);
                }
                Begin::Lead(guard) => Some(guard),
            },
            _ => None,
        };
        // From here on, every early return drops `flight`, abandoning it —
        // collapsed waiters wake and retry as leaders, degrading to
        // exactly the uncached behavior instead of hanging.
        let _tokens = match self.admission.acquire(
            vec![fingerprint],
            1,
            self.admission_timeout(),
            &self.shutdown,
        ) {
            Acquire::Acquired(tokens) => tokens,
            Acquire::TimedOut => return Reply::Full(self.table_busy()),
            Acquire::ShuttingDown => {
                return Reply::Full(ResponseBody::Error(WireError::new(
                    ErrorCode::Internal,
                    "server shutting down",
                )))
            }
        };
        let admit_end = Instant::now();
        self.metrics
            .stage_admission_wait
            .observe(span_ns(admit_start, admit_end));
        if let Some(trace) = trace.as_mut() {
            trace.record("admission_wait", admit_start, admit_end);
        }
        let top_k = request.top_k.unwrap_or(self.engine.config().top_k);
        let explained = catch_unwind(AssertUnwindSafe(|| match (self.cached.as_ref(), flight) {
            (Some(cached), Some(guard)) => {
                cached.execute_flight(guard, &request.question, table, top_k)
            }
            // Without a cache the candidates still serialize here, once,
            // on the worker that computed them — the encode-once path is
            // the same either way, only nothing is retained.
            _ => {
                let (candidates, spans) =
                    self.engine
                        .explain_question_with_spans(&request.question, table, top_k);
                (Arc::new(CachedCandidates::new(candidates, table)), spans)
            }
        }));
        let eval_end = Instant::now();
        self.metrics
            .stage_eval
            .observe(span_ns(admit_end, eval_end));
        if let Some(trace) = trace.as_mut() {
            trace.record("eval", admit_end, eval_end);
        }
        match explained {
            Ok((value, spans)) => {
                // This request led the parse: its trace gets the leader's
                // stage breakdown (the engine's histograms already have it).
                if let Some(trace) = trace.as_mut() {
                    record_parse_spans(trace, admit_end, &spans);
                }
                self.explanation_reply(request.question, request.table, &value)
            }
            Err(_) => Reply::Full(ResponseBody::Error(WireError::new(
                ErrorCode::Internal,
                "explanation job panicked",
            ))),
        }
    }

    fn handle_batch(
        &self,
        batch: ExplainBatchBody,
        trace: &mut Option<RequestTrace>,
    ) -> ResponseBody {
        if batch.requests.len() > self.config.max_batch {
            return ResponseBody::Error(WireError::new(
                ErrorCode::BatchTooLarge,
                format!(
                    "batch of {} exceeds the {}-question limit",
                    batch.requests.len(),
                    self.config.max_batch
                ),
            ));
        }
        let requests: Vec<ExplainRequest> = batch
            .requests
            .into_iter()
            .map(|request| ExplainRequest {
                question: request.question,
                table: request.table,
                top_k: request.top_k,
            })
            .collect();

        if let Some(cached) = &self.cached {
            // Probe every item before any gate: cached items cost no
            // admission weight, and a fully-cached batch (like a scalar
            // cache hit) skips the in-flight queue entirely — it can
            // never be rejected with a retry hint.
            let plan = cached.plan_batch(&self.catalog, &requests);
            if plan.is_fully_cached() {
                let eval_start = Instant::now();
                let result = cached.execute_batch(plan, &self.catalog, &requests, &self.cancel);
                self.observe_batch_eval(eval_start, trace);
                return self.batch_response(result);
            }
            let admit_start = Instant::now();
            let Some(_slot) = self.try_admit() else {
                return self.overloaded();
            };
            // Admission tokens only for tables that still *execute*;
            // weight scales with the deduplicated misses, not the batch
            // size, so a mostly-cached batch claims proportionally little.
            let mut fingerprints: Vec<u64> = plan
                .pending_request_indices()
                .filter_map(|index| self.catalog.get(&requests[index].table))
                .map(|table| table.fingerprint())
                .collect();
            fingerprints.sort_unstable();
            fingerprints.dedup();
            let Some(_share) = self.admission.try_occupy(fingerprints.clone()) else {
                return self.table_busy();
            };
            let weight = self.engine.config().workers.clamp(1, plan.missing().max(1));
            let _tokens = match self.admission.acquire(
                fingerprints,
                weight,
                self.admission_timeout(),
                &self.shutdown,
            ) {
                Acquire::Acquired(tokens) => tokens,
                Acquire::TimedOut => return self.table_busy(),
                Acquire::ShuttingDown => {
                    return ResponseBody::Error(WireError::new(
                        ErrorCode::Internal,
                        "server shutting down",
                    ))
                }
            };
            let eval_start = self.observe_batch_admission(admit_start, trace);
            let result = cached.execute_batch(plan, &self.catalog, &requests, &self.cancel);
            self.observe_batch_eval(eval_start, trace);
            return self.batch_response(result);
        }

        let admit_start = Instant::now();
        let Some(_slot) = self.try_admit() else {
            return self.overloaded();
        };
        // Admission tokens for every distinct table the batch touches;
        // unknown tables pass through (the engine answers those with a
        // per-question error, matching the direct batch path).
        let mut fingerprints: Vec<u64> = requests
            .iter()
            .filter_map(|request| self.catalog.get(&request.table))
            .map(|table| table.fingerprint())
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        let Some(_share) = self.admission.try_occupy(fingerprints.clone()) else {
            return self.table_busy();
        };
        // A batch fans out over the engine's worker pool (clamped to the
        // batch size by the runtime), so it claims one token per worker it
        // will actually run — admission bounds the concurrent *work* per
        // table, not just the request count.
        let weight = self.engine.config().workers.clamp(1, requests.len().max(1));
        let _tokens = match self.admission.acquire(
            fingerprints,
            weight,
            self.admission_timeout(),
            &self.shutdown,
        ) {
            Acquire::Acquired(tokens) => tokens,
            Acquire::TimedOut => return self.table_busy(),
            Acquire::ShuttingDown => {
                return ResponseBody::Error(WireError::new(
                    ErrorCode::Internal,
                    "server shutting down",
                ))
            }
        };
        let eval_start = self.observe_batch_admission(admit_start, trace);
        let result = self
            .engine
            .explain_batch_cancellable(&self.catalog, &requests, &self.cancel);
        self.observe_batch_eval(eval_start, trace);
        self.batch_response(result)
    }

    /// Close a batch's admission-wait span and return the eval start point.
    /// (Batch parses fan out over worker threads, so batches record no
    /// per-question parse breakdown — only the coarse stage spans.)
    fn observe_batch_admission(
        &self,
        admit_start: Instant,
        trace: &mut Option<RequestTrace>,
    ) -> Instant {
        let admit_end = Instant::now();
        self.metrics
            .stage_admission_wait
            .observe(span_ns(admit_start, admit_end));
        if let Some(trace) = trace.as_mut() {
            trace.record("admission_wait", admit_start, admit_end);
        }
        admit_end
    }

    /// Close a batch's eval span.
    fn observe_batch_eval(&self, eval_start: Instant, trace: &mut Option<RequestTrace>) {
        let eval_end = Instant::now();
        self.metrics
            .stage_eval
            .observe(span_ns(eval_start, eval_end));
        if let Some(trace) = trace.as_mut() {
            trace.record("eval", eval_start, eval_end);
        }
    }

    /// Render a batch outcome to the wire — shared by the cached and
    /// uncached batch paths so responses are structurally identical.
    fn batch_response(&self, result: Result<Vec<Explanation>, BatchError>) -> ResponseBody {
        match result {
            Ok(explanations) => {
                self.metrics.requests.inc();
                ResponseBody::Batch(WireBatch {
                    explanations: explanations
                        .iter()
                        .map(|explanation| {
                            WireExplanation::from_explanation(
                                explanation,
                                self.catalog.get(&explanation.table),
                            )
                        })
                        .collect(),
                })
            }
            Err(BatchError::Cancelled) => {
                ResponseBody::Error(WireError::new(ErrorCode::Internal, "server shutting down"))
            }
            Err(BatchError::JobPanicked { index, message }) => ResponseBody::Error(WireError::new(
                ErrorCode::Internal,
                format!("batch job {index} panicked: {message}"),
            )),
        }
    }
}

/// The serving front-end. [`Server::bind`] spawns the acceptor, the
/// reactor pool and the dispatch pool, and returns a [`ServerHandle`] for
/// observation and graceful shutdown.
pub struct Server;

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral test port) and start
    /// serving `engine` over `catalog`'s tables.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        catalog: Arc<Catalog>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let admission = TableGate::new(config.per_table_tokens, config.max_table_in_flight);
        let cached = (config.cache_capacity > 0).then(|| {
            CachedEngine::new(
                engine.clone(),
                CacheConfig {
                    capacity: config.cache_capacity,
                    ttl: (config.cache_ttl_ms > 0)
                        .then(|| Duration::from_millis(config.cache_ttl_ms)),
                    ..CacheConfig::default()
                },
            )
        });
        let metrics = ServerMetrics::default();
        let obs = Obs::new(&config, catalog.len(), &metrics, &engine, cached.as_ref());
        let shared = Arc::new(Shared {
            engine,
            cached,
            catalog,
            config,
            admission,
            shutdown: AtomicBool::new(false),
            cancel: CancelToken::new(),
            metrics,
            obs,
        });

        let (job_sender, job_receiver) = mpsc::channel();
        let job_receiver = Arc::new(Mutex::new(job_receiver));
        let mut dispatch_threads = Vec::new();
        let mut reactors = Vec::new();
        let mut reactor_threads = Vec::new();

        let spawned = Self::spawn_layers(
            &shared,
            listener,
            &job_sender,
            &job_receiver,
            &mut dispatch_threads,
            &mut reactors,
            &mut reactor_threads,
        );
        let accept_thread = match spawned {
            Ok(accept_thread) => accept_thread,
            Err(err) => {
                // A partial failure (e.g. thread or fd exhaustion mid-way)
                // must not leak the layers already spawned: reactors get a
                // Shutdown command, and once their `jobs` Sender clones die
                // with them, dropping ours drains the dispatch pool too.
                shared.shutdown.store(true, Ordering::Release);
                for rshared in &reactors {
                    rshared.push(Command::Shutdown);
                }
                for thread in reactor_threads {
                    let _ = thread.join();
                }
                drop(job_sender);
                for thread in dispatch_threads {
                    let _ = thread.join();
                }
                return Err(err);
            }
        };

        Ok(ServerHandle {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            reactors,
            reactor_threads,
            job_sender: Some(job_sender),
            dispatch_threads,
        })
    }

    /// Spawn the dispatch pool, the reactor pool and the acceptor, pushing
    /// every created handle into the caller's vectors so a mid-way failure
    /// leaves the caller holding everything that needs tearing down.
    #[allow(clippy::too_many_arguments)]
    fn spawn_layers(
        shared: &Arc<Shared>,
        listener: TcpListener,
        job_sender: &mpsc::Sender<reactor::Job>,
        job_receiver: &Arc<Mutex<mpsc::Receiver<reactor::Job>>>,
        dispatch_threads: &mut Vec<JoinHandle<()>>,
        reactors: &mut Vec<Arc<ReactorShared>>,
        reactor_threads: &mut Vec<JoinHandle<()>>,
    ) -> std::io::Result<JoinHandle<()>> {
        // Dispatch pool: where admission waits and engine calls block.
        for index in 0..shared.config.resolved_dispatch_threads() {
            let worker_shared = shared.clone();
            let worker_jobs = job_receiver.clone();
            dispatch_threads.push(
                std::thread::Builder::new()
                    .name(format!("wtq-dispatch-{index}"))
                    .spawn(move || reactor::dispatch_worker(worker_shared, worker_jobs))?,
            );
        }

        // Reactor pool: owns every socket.
        for index in 0..shared.config.resolved_reactor_threads() {
            let (reactor, rshared) = Reactor::new(shared.clone(), job_sender.clone())?;
            reactors.push(rshared);
            reactor_threads.push(
                std::thread::Builder::new()
                    .name(format!("wtq-reactor-{index}"))
                    .spawn(move || reactor.run())?,
            );
        }

        let accept_shared = shared.clone();
        let accept_reactors = reactors.clone();
        std::thread::Builder::new()
            .name("wtq-server-accept".to_string())
            .spawn(move || reactor::accept_loop(listener, accept_shared, accept_reactors))
    }
}

/// Handle on a running server: address, stats, graceful shutdown.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    reactors: Vec<Arc<ReactorShared>>,
    reactor_threads: Vec<JoinHandle<()>>,
    /// Dropped at shutdown so dispatch workers observe a closed channel.
    job_sender: Option<mpsc::Sender<reactor::Job>>,
    dispatch_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-chosen port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The `Stats` body — every registry sample `/metrics` prints —
    /// without a network round-trip.
    pub fn stats(&self) -> StatsBody {
        StatsBody {
            samples: self.shared.obs.samples(),
        }
    }

    /// Graceful shutdown: stop accepting, cancel queued batch work, unblock
    /// admission waiters, close open connections and join every layer.
    /// In-flight engine calls finish; queued batch questions do not start.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Block until the server stops (i.e. until another holder of the
    /// process calls for shutdown or the accept loop dies). Used by the
    /// `serve` binary, which runs until killed.
    pub fn wait(mut self) {
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cancel.cancel();
        // Unblock accept() with a throwaway connection to our own port and
        // retire the acceptor first, so no new sockets race the reactor
        // teardown below.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        // Reactors close every connection on their way out: clients
        // blocked in read() observe EOF/reset.
        for rshared in &self.reactors {
            rshared.push(Command::Shutdown);
        }
        for thread in self.reactor_threads.drain(..) {
            let _ = thread.join();
        }
        // A closed channel drains the dispatch pool; workers blocked in
        // admission observe the shutdown flag within its poll interval.
        drop(self.job_sender.take());
        for thread in self.dispatch_threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some()
            || !self.reactor_threads.is_empty()
            || !self.dispatch_threads.is_empty()
        {
            self.shutdown_inner();
        }
    }
}

/// Nanoseconds between two instants (0 when `end` precedes `start`).
fn span_ns(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

/// Attach one parse's stage breakdown as sub-spans of the `eval` span.
/// The stages run sequentially, so laying their durations back-to-back
/// from the eval start reconstructs the real timeline (any unattributed
/// eval time — SQL translation, highlight rendering — trails at the end).
fn record_parse_spans(trace: &mut RequestTrace, eval_start: Instant, spans: &ParseSpans) {
    let base = eval_start
        .saturating_duration_since(trace.started())
        .as_nanos() as u64;
    let mut offset = 0u64;
    for (stage, ns) in ParseSpans::STAGES.iter().zip(spans.stages()) {
        trace.record_ns(format!("parse:{stage}"), base + offset, ns);
        offset += ns;
    }
}

/// Decode one frame payload into a request and answer it. Decode failures
/// become structured `Malformed`/`UnsupportedVersion` errors.
pub(crate) fn dispatch_frame(
    shared: &Shared,
    payload: &[u8],
    trace: &mut Option<RequestTrace>,
) -> FrameResponse {
    let text = match std::str::from_utf8(payload) {
        Ok(text) => text,
        Err(_) => {
            shared.metrics.protocol_errors.inc();
            return FrameResponse::Full(error_envelope(
                0,
                ErrorCode::Malformed,
                "frame payload is not UTF-8",
            ));
        }
    };
    let envelope: RequestEnvelope = match serde_json::from_str(text) {
        Ok(envelope) => envelope,
        Err(err) => {
            shared.metrics.protocol_errors.inc();
            return FrameResponse::Full(error_envelope(
                0,
                ErrorCode::Malformed,
                format!("invalid request: {err}"),
            ));
        }
    };
    if envelope.v != wire::PROTOCOL_VERSION {
        shared.metrics.protocol_errors.inc();
        return FrameResponse::Full(error_envelope(
            envelope.id,
            ErrorCode::UnsupportedVersion,
            format!(
                "protocol version {} not supported (server speaks {})",
                envelope.v,
                wire::PROTOCOL_VERSION
            ),
        ));
    }
    let id = envelope.id;
    match shared.handle_request(envelope.body, trace) {
        Reply::Full(body) => FrameResponse::Full(ResponseEnvelope {
            v: wire::PROTOCOL_VERSION,
            id,
            body,
        }),
        Reply::CachedExplanation {
            question,
            table,
            body,
        } => FrameResponse::Cached {
            id,
            question,
            table,
            body,
        },
    }
}

pub(crate) fn error_envelope(
    id: u64,
    code: ErrorCode,
    message: impl Into<String>,
) -> ResponseEnvelope {
    ResponseEnvelope {
        v: wire::PROTOCOL_VERSION,
        id,
        body: ResponseBody::Error(WireError::new(code, message)),
    }
}
