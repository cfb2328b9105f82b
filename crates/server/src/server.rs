//! The serving layer: accept loop, per-connection protocol handling,
//! backpressure and per-table admission control over a shared
//! [`wtq_core::Engine`].
//!
//! ## Scheduling model
//!
//! The reactor that decoded a request answers it on the spot whenever it
//! needs no engine work: `ListTables`, `Stats`, `Metrics`, `TraceRecent`,
//! answer-cache hits (single explains and fully cached batches) and every
//! rejection. A request the cache can answer is therefore never rejected.
//!
//! A miss must take a slot in the **bounded in-flight queue**
//! (`max_in_flight`). When the queue is full the request is *rejected
//! immediately* with [`ErrorCode::Overloaded`] and a `retry_after_ms` hint —
//! the server never buffers without bound, so memory under overload stays
//! flat and clients get explicit backpressure instead of unbounded latency.
//!
//! Holding a slot, the miss takes one share of the queue per table it
//! executes against (`max_table_in_flight`, rejected with a retry hint
//! otherwise — a hot table's requests must not fill the whole queue) and
//! joins the **scheduler**: one FIFO under one mutex, served by a small
//! worker pool. A worker takes the oldest job whose tables all have
//! execution tokens free (`per_table_tokens` per table shape fingerprint,
//! [`wtq_table::Table::fingerprint`]) and that shares no table with an
//! older waiting job, claims all its tokens at once, runs it and gives them
//! back. No thread waits for a token: a job that cannot run stays queued,
//! and one still queued after `admission_timeout_ms` is rejected with a
//! retry hint, unevaluated. The pool has at least one worker more than a
//! table can hold tokens, so one hot or giant table cannot stop other
//! tables' requests from executing.
//!
//! ## Protocols
//!
//! Connections are sniffed on their first four bytes: an HTTP method prefix
//! selects the hand-rolled HTTP/1.1 adapter (`http`); anything else
//! is treated as the length-prefix of the framed JSON protocol
//! ([`crate::wire`]). The two share one request core, so semantics
//! (backpressure, admission, errors) are identical.
//!
//! ## I/O model
//!
//! Connection I/O is a nonblocking readiness loop (`reactor`):
//! one blocking acceptor hands sockets to a small pool of epoll reactor
//! threads whose per-connection state machines (`conn`) parse
//! frames incrementally. Reactors answer what needs no engine; scheduler
//! workers answer the rest, and responses are written back on writability.
//! Thread count is fixed at bind — reactors plus about one worker per core
//! — and never grows with connection count: tens of thousands of idle
//! clients cost buffered state, not stacks.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wtq_cache::{Begin, CacheConfig, CacheKey};
use wtq_core::{BatchItem, BatchPlan, CachedAnswer, CachedEngine, Engine, ExplainRequest};
use wtq_obs::{Counter, Gauge, RequestTrace};
use wtq_parser::ParseSpans;
use wtq_runtime::{BatchError, CancelToken};
use wtq_table::Catalog;

use crate::obs::{Obs, ServerMetrics};
use crate::reactor::{self, Command, Reactor, ReactorShared, Ticket};
use crate::wire::{
    self, ErrorCode, ExplainBatchBody, ExplainBody, MetricsBody, RequestBody, RequestEnvelope,
    ResponseBody, StatsBody, TablesBody, TraceRecentBody, WireError,
};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on admitted requests that need the engine (queued or
    /// running); a full queue rejects with [`ErrorCode::Overloaded`].
    pub max_in_flight: usize,
    /// Execution tokens per table shape fingerprint: how much engine work
    /// may run against one table at once (a batch claims one token per
    /// engine worker it fans out over).
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
    /// Upper bound on how long an admitted request may wait in the
    /// scheduler for its tables' execution tokens. A request still queued
    /// past it is rejected with a retry hint and never evaluated, so
    /// worst-case latency stays capped and a contended multi-table batch
    /// cannot hang its client.
    pub admission_timeout_ms: u64,
    /// Reactor (epoll event-loop) threads owning the sockets. Connections
    /// are spread round-robin; a handful suffices for tens of thousands of
    /// connections because reactors never block on protocol work.
    pub reactor_threads: usize,
    /// Entry capacity of the deduplicating answer cache; `0` keeps no
    /// answers, while concurrent duplicate misses still collapse onto one
    /// execution. Reactors probe the cache before the in-flight queue gate,
    /// so a request the cache can answer is never rejected with
    /// `Overloaded`.
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
}

/// A handler's answer: either a fully structured body the encoder
/// serializes, or explanations whose candidates JSON was already serialized
/// at flight completion — the wire layers splice those bytes into the
/// response instead of re-encoding (the encode-once path).
pub(crate) enum Reply {
    Full(ResponseBody),
    CachedExplanation {
        /// The request's question text, echoed verbatim (cache keys are
        /// normalized, so only the candidate bytes are key-invariant).
        question: String,
        /// The request's table name, echoed verbatim.
        table: String,
        /// The serialized `candidates` JSON array, shared with the cache.
        body: CachedAnswer,
    },
    /// A batch's items in request order, each with its cached body or
    /// error, spliced by [`wire::write_batch_body`].
    Batch(Vec<(ExplainRequest, BatchItem)>),
}

/// A structured error reply without a retry hint.
fn error_reply(code: ErrorCode, message: impl Into<String>) -> Reply {
    Reply::Full(ResponseBody::Error(WireError::new(code, message)))
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

/// A job in the scheduler, with what it holds.
struct Queued<T> {
    /// Shape fingerprints of the tables it executes against, deduplicated.
    fingerprints: Vec<u64>,
    /// Execution tokens it claims on each of those tables.
    weight: usize,
    /// When it was admitted; it expires one admission timeout later.
    admitted: Instant,
    job: T,
}

/// The scheduler's state, all under one mutex: admitted jobs in FIFO
/// order, plus per-table counts of queue shares (`max_table_in_flight`,
/// taken at admission) and execution tokens (`per_table_tokens`, claimed
/// when a worker picks the job). Generic over the job so that tests can
/// drive it directly.
struct Queue<T> {
    tokens: usize,
    max_queued: usize,
    timeout: Duration,
    /// Tokens held per fingerprint by running jobs.
    executing: HashMap<u64, usize>,
    /// Shares held per fingerprint by waiting and running jobs.
    queued: HashMap<u64, usize>,
    /// Admitted jobs no worker has picked yet, oldest first.
    waiting: VecDeque<Queued<T>>,
    /// Shutdown began: nothing is queued or picked any more.
    closed: bool,
}

impl<T> Queue<T> {
    fn new(tokens: usize, max_queued: usize, timeout: Duration) -> Queue<T> {
        let tokens = tokens.max(1);
        Queue {
            tokens,
            // A queue share below the execution bound could never fill it.
            max_queued: max_queued.max(tokens),
            timeout,
            executing: HashMap::new(),
            queued: HashMap::new(),
            waiting: VecDeque::new(),
            closed: false,
        }
    }

    /// Admit `job` with one queue share per table, all or nothing; `Err`
    /// hands it back when any of its tables has used up its share. `now`
    /// must not run backwards between calls (callers read the clock under
    /// the lock), so queue order is deadline order. After shutdown began
    /// the job is dropped unstarted, like the ones already queued.
    fn push(
        &mut self,
        fingerprints: Vec<u64>,
        weight: usize,
        now: Instant,
        job: T,
    ) -> Result<(), T> {
        if self.closed {
            return Ok(());
        }
        if fingerprints
            .iter()
            .any(|&fp| count_of(&self.queued, fp) >= self.max_queued)
        {
            return Err(job);
        }
        for &fp in &fingerprints {
            *self.queued.entry(fp).or_insert(0) += 1;
        }
        self.waiting.push_back(Queued {
            fingerprints,
            weight: weight.clamp(1, self.tokens),
            admitted: now,
            job,
        });
        Ok(())
    }

    /// Remove the jobs queued past the admission timeout and give back
    /// their shares. Queue order is deadline order, so they are a prefix.
    fn expire(&mut self, now: Instant) -> Vec<Queued<T>> {
        let count = self
            .waiting
            .iter()
            .take_while(|queued| {
                self.deadline(queued)
                    .is_some_and(|deadline| deadline <= now)
            })
            .count();
        let expired: Vec<Queued<T>> = self.waiting.drain(..count).collect();
        for queued in &expired {
            self.release(&queued.fingerprints, 0);
        }
        expired
    }

    /// Take the oldest job whose tables all have its weight in tokens free
    /// and that shares no table with an older waiting job, claiming all its
    /// tokens at once. A younger job never overtakes an older one on a
    /// table they share, so each table runs its jobs in FIFO order and a
    /// multi-table batch cannot be starved by single-table traffic.
    fn pick(&mut self) -> Option<Queued<T>> {
        let mut blocked: Vec<u64> = Vec::new();
        let position = self.waiting.iter().position(|queued| {
            let runnable = queued.fingerprints.iter().all(|fp| {
                !blocked.contains(fp)
                    && count_of(&self.executing, *fp) + queued.weight <= self.tokens
            });
            if !runnable {
                blocked.extend(&queued.fingerprints);
            }
            runnable
        })?;
        let queued = self
            .waiting
            .remove(position)
            .expect("position is in the queue");
        for &fp in &queued.fingerprints {
            *self.executing.entry(fp).or_insert(0) += queued.weight;
        }
        Some(queued)
    }

    /// Give back a job's queue shares and the `tokens` it claimed on each
    /// of its tables (0 for a job that never ran).
    fn release(&mut self, fingerprints: &[u64], tokens: usize) {
        for &fp in fingerprints {
            decrement(&mut self.queued, fp, 1);
            decrement(&mut self.executing, fp, tokens);
        }
    }

    /// When `queued` expires; `None` for a timeout too long to represent,
    /// which never expires.
    fn deadline(&self, queued: &Queued<T>) -> Option<Instant> {
        queued.admitted.checked_add(self.timeout)
    }

    /// When the oldest waiting job expires.
    fn next_deadline(&self) -> Option<Instant> {
        self.deadline(self.waiting.front()?)
    }
}

/// The admission scheduler: the [`Queue`] under its one mutex, and the
/// condvar idle workers sleep on until a job is queued, tokens come back,
/// the oldest job's deadline passes or shutdown begins.
struct Scheduler {
    queue: Mutex<Queue<Job>>,
    wake: Condvar,
}

impl Scheduler {
    fn lock(&self) -> MutexGuard<'_, Queue<Job>> {
        self.queue.lock().expect("scheduler poisoned")
    }
}

/// A request admitted to the scheduler: its engine work, the in-flight
/// slot it holds until answered, its sampled trace, and where the answer
/// goes.
struct Job {
    work: Work,
    slot: Slot,
    trace: Option<RequestTrace>,
    ticket: Ticket,
}

/// The engine work of an admitted request.
enum Work {
    /// A single explain the cache could not answer, with its cache key.
    Explain { request: ExplainBody, key: CacheKey },
    /// A batch with misses, planned against the cache.
    Batch {
        requests: Vec<ExplainRequest>,
        plan: BatchPlan,
    },
}

/// RAII slot in the bounded in-flight queue.
struct Slot(Arc<Gauge>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// State shared between the acceptor, the reactors, the scheduler's
/// workers and the [`ServerHandle`].
pub(crate) struct Shared {
    /// The engine behind its deduplicating answer cache. Reactors probe the
    /// cache before the in-flight gate; single-flight collapse means a
    /// thundering herd on one hot question costs one engine run.
    cached: CachedEngine,
    catalog: Arc<Catalog>,
    config: ServerConfig,
    scheduler: Scheduler,
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
    fn try_admit(&self) -> Option<Slot> {
        let in_flight = &self.metrics.in_flight;
        // Lazily: a guard built for a refused slot would release one on drop.
        in_flight
            .try_inc_below(self.config.max_in_flight as i64)
            .then(|| Slot(in_flight.clone()))
    }

    /// A retryable rejection: `Overloaded` with the configured retry hint,
    /// counted under its `reason`.
    fn reject(&self, reason: &Counter, message: String) -> Reply {
        reason.inc();
        Reply::Full(ResponseBody::Error(WireError {
            code: ErrorCode::Overloaded,
            message,
            retry_after_ms: Some(self.config.retry_after_ms),
        }))
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

    /// The reactor's pass over one typed request, framed or HTTP: the reply
    /// when no engine work is needed (control plane, cache hits,
    /// rejections), or `None` once the request is admitted to the
    /// scheduler, whose worker answers through `ticket`. `trace` is the
    /// request's sampled trace; handlers append stage spans to it, and an
    /// admitted request takes it along.
    pub(crate) fn handle_request(
        &self,
        body: RequestBody,
        trace: &mut Option<RequestTrace>,
        ticket: Ticket,
    ) -> Option<Reply> {
        let (requests, endpoint) = match &body {
            RequestBody::ListTables => (&self.metrics.tables_requests, "tables"),
            RequestBody::Stats => (&self.metrics.stats_requests, "stats"),
            RequestBody::Metrics => (&self.metrics.metrics_requests, "metrics"),
            RequestBody::TraceRecent => (&self.metrics.trace_requests, "trace"),
            RequestBody::Explain(_) => (&self.metrics.explain_requests, "explain"),
            RequestBody::ExplainBatch(_) => (&self.metrics.explain_batch_requests, "explain_batch"),
        };
        requests.inc();
        if let Some(trace) = trace.as_mut() {
            trace.set_endpoint(endpoint);
        }
        let body = match body {
            RequestBody::ListTables => ResponseBody::Tables(TablesBody {
                tables: self.catalog.summaries(),
            }),
            RequestBody::Stats => ResponseBody::Stats(StatsBody {
                samples: self.obs.samples(),
            }),
            RequestBody::Metrics => ResponseBody::Metrics(MetricsBody {
                text: self.obs.render(),
            }),
            RequestBody::TraceRecent => {
                let (recent, slowest) = self.obs.tracer().snapshot();
                ResponseBody::TraceRecent(TraceRecentBody {
                    sample_period: self.obs.tracer().period(),
                    sampled: self.obs.tracer().sampled(),
                    recent,
                    slowest,
                })
            }
            RequestBody::Explain(request) => {
                if let Some(trace) = trace {
                    trace.set_detail(format!("{} @ {}", request.question, request.table));
                }
                return self.handle_explain(request, trace, ticket);
            }
            RequestBody::ExplainBatch(batch) => {
                if let Some(trace) = trace {
                    trace.set_detail(format!("{} questions", batch.requests.len()));
                }
                return self.handle_batch(batch, trace, ticket);
            }
        };
        Some(Reply::Full(body))
    }

    /// Answer an explain request from a completed flight's value: the
    /// candidate bytes serialized at completion, spliced by the wire layer
    /// behind the request's own question and table echoes.
    fn explanation_reply(&self, question: String, table: String, body: &CachedAnswer) -> Reply {
        self.metrics.requests.inc();
        Reply::CachedExplanation {
            body: Arc::clone(body),
            question,
            table,
        }
    }

    fn handle_explain(
        &self,
        request: ExplainBody,
        trace: &mut Option<RequestTrace>,
        ticket: Ticket,
    ) -> Option<Reply> {
        // Table resolution and the cache probe come before any gate: a
        // request the cache can answer (or reject as unknown) must never
        // bounce off `Overloaded`, so clients never receive a
        // `retry_after_ms` hint for an answer the server already holds.
        let Some(table) = self.catalog.get(&request.table) else {
            return Some(error_reply(
                ErrorCode::UnknownTable,
                format!("unknown table: {}", request.table),
            ));
        };
        let probe_start = Instant::now();
        let key = self.cached.key_for(&request.question, table, request.top_k);
        let probed = self.cached.probe(&key);
        let probe_end = Instant::now();
        self.metrics
            .stage_cache_probe
            .observe(span_ns(probe_start, probe_end));
        if let Some(trace) = trace.as_mut() {
            trace.record("cache_probe", probe_start, probe_end);
        }
        if let Some(value) = probed {
            return Some(self.explanation_reply(request.question, request.table, &value));
        }
        let fingerprints = vec![table.fingerprint()];
        self.admit(
            Work::Explain { request, key },
            fingerprints,
            1,
            trace,
            ticket,
        )
    }

    fn handle_batch(
        &self,
        batch: ExplainBatchBody,
        trace: &mut Option<RequestTrace>,
        ticket: Ticket,
    ) -> Option<Reply> {
        if batch.requests.len() > self.config.max_batch {
            return Some(error_reply(
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
        // Probe every item before any gate: cached items cost no admission
        // weight, and a fully cached batch (like a single hit) is answered
        // here — it can never be rejected with a retry hint.
        let plan = self.cached.plan_batch(&self.catalog, &requests);
        if plan.is_fully_cached() {
            return Some(self.run_batch(requests, plan, trace));
        }
        // Tokens only for the tables that still execute: the deduplicated
        // misses. A batch fans out over the engine's worker pool, so it
        // claims one token per worker it will run — admission bounds the
        // concurrent *work* per table, not just the request count.
        let mut fingerprints: Vec<u64> = plan
            .pending_request_indices()
            .filter_map(|index| self.catalog.get(&requests[index].table))
            .map(|table| table.fingerprint())
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        let workers = self.cached.engine().config().workers;
        let weight = workers.min(plan.missing()).max(1);
        self.admit(
            Work::Batch { requests, plan },
            fingerprints,
            weight,
            trace,
            ticket,
        )
    }

    /// The one admission step of every request that needs the engine: an
    /// in-flight slot, then one queue share per table and a place in the
    /// scheduler. Returns the rejection to answer at once, or `None` once
    /// the job is queued (it takes `trace` along).
    fn admit(
        &self,
        work: Work,
        fingerprints: Vec<u64>,
        weight: usize,
        trace: &mut Option<RequestTrace>,
        ticket: Ticket,
    ) -> Option<Reply> {
        let Some(slot) = self.try_admit() else {
            return Some(self.reject(
                &self.metrics.rejected_overload,
                format!(
                    "in-flight queue full ({} requests)",
                    self.config.max_in_flight
                ),
            ));
        };
        let job = Job {
            work,
            slot,
            trace: trace.take(),
            ticket,
        };
        let mut queue = self.scheduler.lock();
        let Err(job) = queue.push(fingerprints, weight, Instant::now(), job) else {
            drop(queue);
            self.scheduler.wake.notify_one();
            return None;
        };
        let share = queue.max_queued;
        drop(queue);
        *trace = job.trace;
        Some(self.reject(
            &self.metrics.rejected_table_busy,
            format!("table's in-flight queue share full ({share} requests per table)"),
        ))
    }

    /// Run a picked job on a scheduler worker: its engine work under the
    /// tokens it claimed, which then go back before the answer is encoded.
    /// A panic costs the request a structured `Internal` error, never the
    /// worker.
    fn execute(&self, queued: Queued<Job>) {
        let Job {
            work,
            slot,
            mut trace,
            ticket,
        } = queued.job;
        let claimed = Instant::now();
        self.metrics
            .stage_admission_wait
            .observe(span_ns(queued.admitted, claimed));
        if let Some(trace) = trace.as_mut() {
            trace.record("admission_wait", queued.admitted, claimed);
        }
        let reply = catch_unwind(AssertUnwindSafe(|| self.run(work, &mut trace)))
            .unwrap_or_else(|_| error_reply(ErrorCode::Internal, "request handler panicked"));
        (self.scheduler.lock()).release(&queued.fingerprints, queued.weight);
        self.scheduler.wake.notify_all();
        drop(slot);
        ticket.answer(self, reply, trace);
    }

    /// Answer a job that waited out `admission_timeout_ms` in the
    /// scheduler, unevaluated.
    fn reject_expired(&self, job: Job) {
        drop(job.slot);
        let reply = self.reject(
            &self.metrics.rejected_table_busy,
            format!(
                "waited over admission_timeout_ms ({} ms) for its table's execution tokens",
                self.config.admission_timeout_ms
            ),
        );
        job.ticket.answer(self, reply, job.trace);
    }

    fn run(&self, work: Work, trace: &mut Option<RequestTrace>) -> Reply {
        match work {
            Work::Explain { request, key } => self.run_explain(request, key, trace),
            Work::Batch { requests, plan } => self.run_batch(requests, plan, trace),
        }
    }

    fn run_explain(
        &self,
        request: ExplainBody,
        key: CacheKey,
        trace: &mut Option<RequestTrace>,
    ) -> Reply {
        let table = self
            .catalog
            .get(&request.table)
            .expect("an admitted request's table is in the immutable catalog");
        let eval_start = Instant::now();
        // Lead or join the single flight only now, holding tokens: a
        // collapsed request waits only on a leader that is already running.
        // A leader that panics drops its guard, abandoning the flight —
        // waiters wake and retry as leaders instead of hanging.
        let (value, spans) = match self.cached.begin(&key) {
            Begin::Hit(value) | Begin::Collapsed(value) => {
                return self.explanation_reply(request.question, request.table, &value);
            }
            Begin::Lead(guard) => {
                self.cached
                    .execute_flight(guard, &request.question, table, key.top_k)
            }
        };
        self.observe_eval(eval_start, trace);
        // This request led the parse: its trace gets the leader's stage
        // breakdown (the engine's histograms already have it).
        if let Some(trace) = trace.as_mut() {
            record_parse_spans(trace, eval_start, &spans);
        }
        self.explanation_reply(request.question, request.table, &value)
    }

    /// Close an eval span (histogram and trace). Batch parses fan out over
    /// worker threads, so batches record no per-question parse breakdown.
    fn observe_eval(&self, eval_start: Instant, trace: &mut Option<RequestTrace>) {
        let eval_end = Instant::now();
        self.metrics
            .stage_eval
            .observe(span_ns(eval_start, eval_end));
        if let Some(trace) = trace.as_mut() {
            trace.record("eval", eval_start, eval_end);
        }
    }

    /// Answer a planned batch: execute its misses (none when it is fully
    /// cached) and pair every request with its body or error, in order.
    fn run_batch(
        &self,
        requests: Vec<ExplainRequest>,
        plan: BatchPlan,
        trace: &mut Option<RequestTrace>,
    ) -> Reply {
        let eval_start = Instant::now();
        let result = self
            .cached
            .execute_batch(plan, &self.catalog, &requests, &self.cancel);
        self.observe_eval(eval_start, trace);
        match result {
            Ok(items) => {
                self.metrics.requests.inc();
                Reply::Batch(requests.into_iter().zip(items).collect())
            }
            Err(BatchError::Cancelled) => error_reply(ErrorCode::Internal, "server shutting down"),
            Err(BatchError::JobPanicked { index, message }) => error_reply(
                ErrorCode::Internal,
                format!("batch job {index} panicked: {message}"),
            ),
        }
    }
}

/// One scheduler worker (thread `wtq-dispatch-{i}`): answers the jobs that
/// expired, runs the oldest runnable one, and otherwise sleeps until woken
/// or until the oldest job's deadline. Returns at shutdown.
fn work(shared: &Shared) {
    let scheduler = &shared.scheduler;
    let mut queue = scheduler.lock();
    while !queue.closed {
        let now = Instant::now();
        let expired = queue.expire(now);
        let picked = queue.pick();
        if expired.is_empty() && picked.is_none() {
            queue = match queue.next_deadline() {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(now);
                    scheduler
                        .wake
                        .wait_timeout(queue, wait)
                        .expect("scheduler poisoned")
                        .0
                }
                None => scheduler.wake.wait(queue).expect("scheduler poisoned"),
            };
            continue;
        }
        drop(queue);
        for queued in expired {
            shared.reject_expired(queued.job);
            // It may have been all that blocked younger jobs.
            scheduler.wake.notify_all();
        }
        if let Some(queued) = picked {
            shared.execute(queued);
        }
        queue = scheduler.lock();
    }
}

/// The serving front-end. [`Server::bind`] spawns the acceptor, the
/// reactor pool and the scheduler's workers, and returns a
/// [`ServerHandle`] for observation and graceful shutdown.
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
        let cached = CachedEngine::new(
            engine,
            CacheConfig {
                capacity: config.cache_capacity,
                ttl: (config.cache_ttl_ms > 0).then(|| Duration::from_millis(config.cache_ttl_ms)),
                ..CacheConfig::default()
            },
        );
        // One worker per core, and at least one more than a single table's
        // tokens can keep busy.
        let cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
        let workers = cores.max(config.per_table_tokens.max(1) + 1);
        let metrics = ServerMetrics::default();
        let obs = Obs::new(&config, catalog.len(), workers, &metrics, &cached);
        let queue = Queue::new(
            config.per_table_tokens,
            config.max_table_in_flight,
            Duration::from_millis(config.admission_timeout_ms),
        );
        let shared = Arc::new(Shared {
            cached,
            catalog,
            config,
            scheduler: Scheduler {
                queue: Mutex::new(queue),
                wake: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            cancel: CancelToken::new(),
            metrics,
            obs,
        });
        let mut handle = ServerHandle {
            local_addr,
            shared,
            accept_thread: None,
            reactors: Vec::new(),
            reactor_threads: Vec::new(),
            worker_threads: Vec::new(),
        };
        // A failure mid-way (thread or fd exhaustion) drops `handle`, whose
        // shutdown tears down every layer already spawned.
        handle.spawn_layers(listener, workers)?;
        Ok(handle)
    }
}

/// Handle on a running server: address, stats, graceful shutdown.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    reactors: Vec<Arc<ReactorShared>>,
    reactor_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
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

    /// Graceful shutdown: stop accepting, drop queued work, cancel queued
    /// batch questions, close open connections and join every layer.
    /// Running engine calls finish; queued jobs never start.
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

    /// Spawn the scheduler's workers, the reactor pool and the acceptor,
    /// keeping every handle so that shutdown can join it.
    fn spawn_layers(&mut self, listener: TcpListener, workers: usize) -> std::io::Result<()> {
        for index in 0..workers {
            let shared = self.shared.clone();
            self.worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("wtq-dispatch-{index}"))
                    .spawn(move || work(&shared))?,
            );
        }
        for index in 0..self.shared.config.resolved_reactor_threads() {
            let (reactor, rshared) = Reactor::new(self.shared.clone())?;
            self.reactors.push(rshared);
            self.reactor_threads.push(
                std::thread::Builder::new()
                    .name(format!("wtq-reactor-{index}"))
                    .spawn(move || reactor.run())?,
            );
        }
        let (shared, reactors) = (self.shared.clone(), self.reactors.clone());
        self.accept_thread = Some(
            std::thread::Builder::new()
                .name("wtq-server-accept".to_string())
                .spawn(move || reactor::accept_loop(listener, shared, reactors))?,
        );
        Ok(())
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cancel.cancel();
        // Queued jobs never start (dropping them frees their slots); idle
        // workers exit now, busy ones once their engine call returns.
        let mut queue = self.shared.scheduler.lock();
        queue.closed = true;
        let dropped = std::mem::take(&mut queue.waiting);
        drop(queue);
        drop(dropped);
        self.shared.scheduler.wake.notify_all();
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
        for thread in self.worker_threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some()
            || !self.reactor_threads.is_empty()
            || !self.worker_threads.is_empty()
        {
            self.shutdown_inner();
        }
    }
}

/// Nanoseconds between two instants (0 when `end` precedes `start`).
pub(crate) fn span_ns(start: Instant, end: Instant) -> u64 {
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

/// Decode one frame payload into its envelope id and request, or the
/// structured `Malformed`/`UnsupportedVersion` error to answer with (id 0
/// when the frame is too malformed to carry one).
pub(crate) fn decode_frame(shared: &Shared, payload: &[u8]) -> (u64, Result<RequestBody, Reply>) {
    let decoded = std::str::from_utf8(payload)
        .map_err(|_| "frame payload is not UTF-8".to_string())
        .and_then(|text| {
            serde_json::from_str::<RequestEnvelope>(text)
                .map_err(|err| format!("invalid request: {err}"))
        });
    let (id, result) = match decoded {
        Err(message) => (0, Err(error_reply(ErrorCode::Malformed, message))),
        Ok(envelope) if envelope.v != wire::PROTOCOL_VERSION => {
            let message = format!(
                "protocol version {} not supported (server speaks {})",
                envelope.v,
                wire::PROTOCOL_VERSION
            );
            let error = error_reply(ErrorCode::UnsupportedVersion, message);
            (envelope.id, Err(error))
        }
        Ok(envelope) => (envelope.id, Ok(envelope.body)),
    };
    if result.is_err() {
        shared.metrics.protocol_errors.inc();
    }
    (id, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = 0xA;
    const B: u64 = 0xB;
    const TIMEOUT: Duration = Duration::from_secs(1);

    /// Admit `job` on `tables` with weight 1 at `now`.
    fn push(queue: &mut Queue<&'static str>, tables: &[u64], now: Instant, job: &'static str) {
        assert!(
            queue.push(tables.to_vec(), 1, now, job).is_ok(),
            "{job} admitted"
        );
    }

    #[test]
    fn a_batch_claims_all_its_tokens_at_once_or_none() {
        let now = Instant::now();
        let mut queue = Queue::new(1, 16, TIMEOUT);
        push(&mut queue, &[A], now, "single on A");
        push(&mut queue, &[A, B], now, "batch on A and B");
        push(&mut queue, &[B], now, "single on B");
        let single = queue.pick().expect("A is free");
        // The batch waits for A without holding B, and the younger single
        // on B waits behind it instead of overtaking it on B.
        assert!(queue.pick().is_none());
        assert_eq!(count_of(&queue.executing, B), 0);
        queue.release(&single.fingerprints, single.weight);
        let batch = queue.pick().expect("both tables free");
        assert_eq!(batch.job, "batch on A and B");
        assert_eq!(queue.executing, HashMap::from([(A, 1), (B, 1)]));
        queue.release(&batch.fingerprints, batch.weight);
        assert_eq!(queue.pick().expect("B is free").job, "single on B");
    }

    #[test]
    fn jobs_on_one_table_run_in_admission_order() {
        let now = Instant::now();
        let mut queue = Queue::new(1, 16, TIMEOUT);
        let jobs = ["first", "second", "third"];
        for job in jobs {
            push(&mut queue, &[A], now, job);
        }
        for job in jobs {
            let queued = queue.pick().expect("the token is free");
            assert_eq!(queued.job, job);
            assert!(queue.pick().is_none(), "one token, one running job");
            queue.release(&queued.fingerprints, queued.weight);
        }
        assert!(queue.executing.is_empty() && queue.queued.is_empty());
    }

    #[test]
    fn a_table_holds_at_most_its_tokens_and_other_tables_still_run() {
        let now = Instant::now();
        let mut queue = Queue::new(2, 16, TIMEOUT);
        for job in ["a1", "a2", "a3"] {
            push(&mut queue, &[A], now, job);
        }
        push(&mut queue, &[B], now, "b1");
        // Three workers (tokens + 1): two take A's tokens, the third finds
        // B's job behind the blocked third job on A.
        let picked: Vec<&str> = std::iter::from_fn(|| queue.pick().map(|q| q.job)).collect();
        assert_eq!(picked, ["a1", "a2", "b1"]);
        assert_eq!(count_of(&queue.executing, A), 2);
        // A batch weight above the table's tokens is clamped to them.
        assert!(queue.push(vec![B], 5, now, "heavy").is_ok());
        assert_eq!(queue.waiting.back().expect("queued").weight, 2);
    }

    #[test]
    fn expired_jobs_leave_the_queue_and_give_back_their_shares() {
        let start = Instant::now();
        let mut queue = Queue::new(1, 3, TIMEOUT);
        push(&mut queue, &[A], start, "running");
        let running = queue.pick().expect("A is free");
        push(&mut queue, &[A], start, "early");
        push(&mut queue, &[A, B], start + TIMEOUT / 2, "late");
        // A's share of three is taken: one job running, two waiting.
        assert!(queue.push(vec![A], 1, start, "refused").is_err());
        let expire = |queue: &mut Queue<&'static str>, at: Duration| -> Vec<&'static str> {
            queue.expire(start + at).iter().map(|q| q.job).collect()
        };
        assert_eq!(queue.next_deadline(), Some(start + TIMEOUT));
        assert!(expire(&mut queue, TIMEOUT / 2).is_empty());
        assert_eq!(expire(&mut queue, TIMEOUT), ["early"]);
        assert_eq!(queue.next_deadline(), Some(start + TIMEOUT * 3 / 2));
        assert_eq!(expire(&mut queue, TIMEOUT * 2), ["late"]);
        assert!(queue.waiting.is_empty() && queue.pick().is_none());
        assert_eq!(queue.queued, HashMap::from([(A, 1)]));
        queue.release(&running.fingerprints, running.weight);
        assert!(queue.executing.is_empty() && queue.queued.is_empty());
    }
}
