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
//! Holding a slot, the request takes one queue share per table it
//! executes against (`max_table_in_flight`, all or nothing, rejected with a
//! retry hint otherwise — a hot table's requests must not fill the whole
//! queue) and joins the **scheduler**, one FIFO under one mutex served by a
//! small worker pool, as one job per question it still has to answer. A
//! worker takes the oldest job whose table has an execution token free
//! (`per_table_tokens` per table content fingerprint,
//! [`wtq_table::Table::content_fingerprint`], so tables of one shape but
//! different cells never share a budget) and whose request runs fewer jobs
//! than the host has cores, and answers its question through the answer
//! cache (a hit, a collapse onto a running flight, or leading it). The
//! request's last job answers it. No thread waits for a token, and a
//! request none of whose jobs started within `admission_timeout_ms` is
//! rejected with a retry hint, unevaluated. The pool has at least one
//! worker more than a table can hold tokens, so one hot or giant table
//! cannot stop other tables' requests from executing.
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

use wtq_cache::{CacheConfig, CacheKey};
use wtq_core::{BatchItem, BatchPlan, CachedAnswer, CachedEngine, Engine, ExplainRequest};
use wtq_obs::{Counter, Gauge, RequestTrace};
use wtq_parser::ParseSpans;
use wtq_table::Catalog;

use crate::obs::{Obs, ServerMetrics};
use crate::reactor::{self, Command, Reactor, ReactorShared, Ticket};
use crate::wire::{
    self, ErrorCode, ExplainBatchBody, MetricsBody, RequestBody, RequestEnvelope, ResponseBody,
    StatsBody, TablesBody, TraceRecentBody, WireError,
};

/// Maximum questions per `ExplainBatch` request; a larger batch is
/// rejected with [`ErrorCode::BatchTooLarge`].
pub const MAX_BATCH: usize = 256;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on admitted requests that need the engine (queued or
    /// running); a full queue rejects with [`ErrorCode::Overloaded`].
    pub max_in_flight: usize,
    /// Execution tokens per table content fingerprint: how many questions
    /// may run against one table at once. Each running job — a single
    /// explain, or one missing question of a batch — holds one token.
    pub per_table_tokens: usize,
    /// Bound on the share of the in-flight queue one table (by content
    /// fingerprint) may occupy (executing + waiting); a table over its
    /// share rejects with [`ErrorCode::Overloaded`] so a hot table cannot
    /// fill the whole queue and starve the others. Clamped to at least
    /// `per_table_tokens`.
    pub max_table_in_flight: usize,
    /// Maximum accepted frame payload length.
    pub max_frame_len: u32,
    /// The `retry_after_ms` hint attached to overload rejections.
    pub retry_after_ms: u64,
    /// Upper bound on how long an admitted request may wait in the
    /// scheduler before any of its jobs starts. A request none of whose
    /// jobs has started past it is rejected with a retry hint and never
    /// evaluated, so a client never hangs behind a hot table. A started
    /// request never expires: a batch is answered whole or not evaluated.
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
    /// Fraction of requests sampled into the trace rings (deterministic
    /// every-Nth with `N = round(1/rate)`). `0.0` disables tracing
    /// entirely — sampled-out requests cost one relaxed counter increment.
    pub trace_sample_rate: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight: 64,
            per_table_tokens: 4,
            max_table_in_flight: 16,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            retry_after_ms: 50,
            admission_timeout_ms: 30_000,
            reactor_threads: 2,
            cache_capacity: 4096,
            trace_sample_rate: 0.0625,
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

fn decrement(map: &mut HashMap<u64, usize>, fingerprint: u64) {
    if let Some(count) = map.get_mut(&fingerprint) {
        *count -= 1;
        if *count == 0 {
            map.remove(&fingerprint);
        }
    }
}

/// A job in the scheduler: one question of an admitted request.
struct Queued<T> {
    /// The request it belongs to (its [`Queue::requests`] key).
    request: u64,
    /// Content fingerprint of the table it runs against: it holds one
    /// execution token there while it runs.
    table: u64,
    /// When its request was admitted.
    admitted: Instant,
    job: T,
}

/// What the scheduler keeps of one admitted request.
struct Entry {
    /// Content fingerprints of its jobs' tables, deduplicated: it holds one
    /// queue share on each until its last job is done or it expires.
    tables: Vec<u64>,
    /// Its jobs not yet done, waiting or running.
    left: usize,
    /// Its jobs running now.
    running: usize,
    /// Whether a worker has claimed one of its jobs. A started request
    /// never expires, so it is answered whole or rejected unevaluated.
    started: bool,
}

/// The scheduler's state, all under one mutex: admitted requests, their
/// jobs in FIFO order, plus per-table counts of queue shares
/// (`max_table_in_flight`, one per request, taken at admission) and
/// execution tokens (`per_table_tokens`, one per running job). Generic
/// over the job so that tests can drive it directly.
struct Queue<T> {
    tokens: usize,
    /// Jobs one request may run at once: the host's cores, so that a big
    /// batch alone cannot crowd the reactors off the CPUs.
    per_request: usize,
    max_queued: usize,
    timeout: Duration,
    /// Tokens held per fingerprint by running jobs.
    executing: HashMap<u64, usize>,
    /// Shares held per fingerprint by admitted requests.
    queued: HashMap<u64, usize>,
    /// Admitted requests by id.
    requests: HashMap<u64, Entry>,
    next_request: u64,
    /// Jobs no worker has claimed yet, oldest first.
    waiting: VecDeque<Queued<T>>,
    /// Shutdown began: nothing is queued or picked any more.
    closed: bool,
}

impl<T> Queue<T> {
    fn new(tokens: usize, per_request: usize, max_queued: usize, timeout: Duration) -> Queue<T> {
        let tokens = tokens.max(1);
        Queue {
            tokens,
            per_request: per_request.max(1),
            // A queue share below the execution bound could never fill it.
            max_queued: max_queued.max(tokens),
            timeout,
            executing: HashMap::new(),
            queued: HashMap::new(),
            requests: HashMap::new(),
            next_request: 0,
            waiting: VecDeque::new(),
            closed: false,
        }
    }

    /// Admit a request of `jobs`, each on its table, taking one queue
    /// share per distinct table, all or nothing; `Err` hands the jobs back
    /// when any of those tables has used up its share. `now` must not run
    /// backwards between calls (callers read the clock under the lock), so
    /// queue order is deadline order. After shutdown began the jobs are
    /// dropped unstarted, like the ones already queued.
    fn push(&mut self, jobs: Vec<(u64, T)>, now: Instant) -> Result<(), Vec<(u64, T)>> {
        if self.closed {
            return Ok(());
        }
        let mut tables: Vec<u64> = jobs.iter().map(|&(table, _)| table).collect();
        tables.sort_unstable();
        tables.dedup();
        if tables
            .iter()
            .any(|&fp| count_of(&self.queued, fp) >= self.max_queued)
        {
            return Err(jobs);
        }
        for &fp in &tables {
            *self.queued.entry(fp).or_insert(0) += 1;
        }
        let request = self.next_request;
        self.next_request += 1;
        let entry = Entry {
            tables,
            left: jobs.len(),
            running: 0,
            started: false,
        };
        self.requests.insert(request, entry);
        self.waiting
            .extend(jobs.into_iter().map(|(table, job)| Queued {
                request,
                table,
                admitted: now,
                job,
            }));
        Ok(())
    }

    /// Remove the requests that waited out the admission timeout with none
    /// of their jobs started, and give back their shares; returns their
    /// jobs. Queue order is deadline order, so only the prefix of jobs past
    /// their deadline is looked at.
    fn expire(&mut self, now: Instant) -> Vec<Queued<T>> {
        let mut expired: Vec<u64> = Vec::new();
        let past_deadline = (self.waiting.iter()).take_while(|queued| {
            self.deadline(queued)
                .is_some_and(|deadline| deadline <= now)
        });
        for queued in past_deadline {
            if !self.requests[&queued.request].started && !expired.contains(&queued.request) {
                expired.push(queued.request);
            }
        }
        if expired.is_empty() {
            return Vec::new();
        }
        for request in &expired {
            let entry = self.requests.remove(request).expect("a job's request");
            self.release(&entry.tables);
        }
        let (gone, kept): (VecDeque<_>, _) = std::mem::take(&mut self.waiting)
            .into_iter()
            .partition(|queued| expired.contains(&queued.request));
        self.waiting = kept;
        gone.into()
    }

    /// Claim the oldest job whose table has a token free and whose request
    /// runs fewer than `per_request` jobs. Every job weighs one token, so a
    /// younger job overtakes an older one on a table only while the older
    /// one's request runs its share.
    fn pick(&mut self) -> Option<Queued<T>> {
        let position = self.waiting.iter().position(|queued| {
            count_of(&self.executing, queued.table) < self.tokens
                && self.requests[&queued.request].running < self.per_request
        })?;
        let queued = self
            .waiting
            .remove(position)
            .expect("position is in the queue");
        *self.executing.entry(queued.table).or_insert(0) += 1;
        let entry = self
            .requests
            .get_mut(&queued.request)
            .expect("a job's request");
        entry.running += 1;
        entry.started = true;
        Some(queued)
    }

    /// A claimed job of `request` finished: give back its token on
    /// `table` and, when it was the request's last job, the request's
    /// queue shares. Returns whether it was the last.
    fn done(&mut self, request: u64, table: u64) -> bool {
        decrement(&mut self.executing, table);
        let entry = self.requests.get_mut(&request).expect("a job's request");
        entry.running -= 1;
        entry.left -= 1;
        if entry.left > 0 {
            return false;
        }
        let entry = self.requests.remove(&request).expect("entry just seen");
        self.release(&entry.tables);
        true
    }

    /// Give back one queue share on each of `tables`.
    fn release(&mut self, tables: &[u64]) {
        for &fp in tables {
            decrement(&mut self.queued, fp);
        }
    }

    /// When `queued` expires, unless its request started; `None` for a
    /// timeout too long to represent, which never expires.
    fn deadline(&self, queued: &Queued<T>) -> Option<Instant> {
        queued.admitted.checked_add(self.timeout)
    }

    /// When the oldest request none of whose jobs started expires.
    fn next_deadline(&self) -> Option<Instant> {
        let unstarted = |queued: &&Queued<T>| !self.requests[&queued.request].started;
        let oldest = self.waiting.iter().find(unstarted)?;
        self.deadline(oldest)
    }
}

/// The admission scheduler: the [`Queue`] under its one mutex, and the
/// condvar idle workers sleep on until a job is queued, tokens come back,
/// the oldest unstarted request's deadline passes or shutdown begins.
struct Scheduler {
    queue: Mutex<Queue<Job>>,
    wake: Condvar,
}

impl Scheduler {
    fn lock(&self) -> MutexGuard<'_, Queue<Job>> {
        self.queue.lock().expect("scheduler poisoned")
    }
}

/// One question of an admitted request: the job answering the request's
/// `misses[index]`.
struct Job {
    request: Arc<Request>,
    index: usize,
}

/// A request admitted to the scheduler, shared by its jobs.
struct Request {
    /// The items as asked: a single explain's one, or a batch's all.
    items: Vec<ExplainRequest>,
    /// A batch's plan against the cache; `None` for a single explain.
    plan: Option<BatchPlan>,
    /// What each job answers: a cache key and the item that asked it.
    misses: Vec<(CacheKey, usize)>,
    /// What it holds until answered. Whoever answers it — its last job,
    /// or expiry when none of its jobs started — takes this out; a request
    /// whose jobs were dropped at shutdown drops it with its last job.
    pending: Mutex<Option<Pending>>,
}

impl Request {
    /// Job `index`'s cache key and item.
    fn question(&self, index: usize) -> (&CacheKey, &ExplainRequest) {
        let (key, item) = &self.misses[index];
        (key, &self.items[*item])
    }

    fn pending(&self) -> MutexGuard<'_, Option<Pending>> {
        self.pending.lock().expect("request poisoned")
    }
}

/// What an admitted request holds until it is answered.
struct Pending {
    /// Each job's body: `None` until the job finishes, and for good if it
    /// panicked.
    answers: Vec<Option<CachedAnswer>>,
    /// When its first job was claimed: where its `eval` stage starts.
    eval_start: Option<Instant>,
    slot: Slot,
    trace: Option<RequestTrace>,
    ticket: Ticket,
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

    /// Answer a planned batch in item order from its plan-time hits and
    /// the bodies of its misses.
    fn batch_reply(
        &self,
        requests: Vec<ExplainRequest>,
        plan: &BatchPlan,
        answers: Vec<CachedAnswer>,
    ) -> Reply {
        let items = self.cached.finish_batch(plan, &requests, answers);
        self.metrics.requests.inc();
        Reply::Batch(requests.into_iter().zip(items).collect())
    }

    fn handle_explain(
        &self,
        request: ExplainRequest,
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
        self.admit(vec![request], None, vec![(key, 0)], trace, ticket)
    }

    fn handle_batch(
        &self,
        batch: ExplainBatchBody,
        trace: &mut Option<RequestTrace>,
        ticket: Ticket,
    ) -> Option<Reply> {
        let requests = batch.requests;
        if requests.len() > MAX_BATCH {
            return Some(error_reply(
                ErrorCode::BatchTooLarge,
                format!(
                    "batch of {} exceeds the {MAX_BATCH}-question limit",
                    requests.len()
                ),
            ));
        }
        // Probe every item before any gate: cached items become no jobs,
        // and a fully cached batch (like a single hit) is answered here —
        // it can never be rejected with a retry hint.
        let plan = self.cached.plan_batch(&self.catalog, &requests);
        if plan.is_fully_cached() {
            return Some(self.batch_reply(requests, &plan, Vec::new()));
        }
        let misses = plan.misses().to_vec();
        self.admit(requests, Some(plan), misses, trace, ticket)
    }

    /// The one admission step of every request that needs the engine: an
    /// in-flight slot, then one queue share per table and one scheduler
    /// job per missing question (`misses`: each one's cache key and the
    /// item that asked it). Returns the rejection to answer at once, or
    /// `None` once the jobs are queued (the request takes `trace` along).
    fn admit(
        &self,
        items: Vec<ExplainRequest>,
        plan: Option<BatchPlan>,
        misses: Vec<(CacheKey, usize)>,
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
        let pending = Pending {
            answers: vec![None; misses.len()],
            eval_start: None,
            slot,
            trace: trace.take(),
            ticket,
        };
        let request = Arc::new(Request {
            items,
            plan,
            misses,
            pending: Mutex::new(Some(pending)),
        });
        let jobs: Vec<_> = (request.misses.iter().enumerate())
            .map(|(index, (key, _))| {
                let request = Arc::clone(&request);
                (key.fingerprint, Job { request, index })
            })
            .collect();
        let mut queue = self.scheduler.lock();
        if queue.push(jobs, Instant::now()).is_ok() {
            drop(queue);
            // One worker per job: waking more would only find them taken.
            for _ in &request.misses {
                self.scheduler.wake.notify_one();
            }
            return None;
        }
        let share = queue.max_queued;
        drop(queue);
        // The refused jobs are gone: the request's slot goes with it.
        let refused = request.pending().take();
        *trace = refused.expect("a refused request is unanswered").trace;
        Some(self.reject(
            &self.metrics.rejected_table_busy,
            format!("table's in-flight queue share full ({share} requests per table)"),
        ))
    }

    /// Run a claimed job on a scheduler worker: answer its question under
    /// the token it holds (hit, collapse onto a running flight, or lead),
    /// record the body and the question's spans, and give the token back.
    /// The request's last job answers it. A panic costs the request a
    /// structured `Internal` error, never the worker.
    fn execute(&self, queued: Queued<Job>) {
        let Queued {
            request: id,
            table: fingerprint,
            admitted,
            job,
        } = queued;
        let request = &job.request;
        let start = Instant::now();
        let answered = catch_unwind(AssertUnwindSafe(|| {
            let (key, item) = request.question(job.index);
            let table = (self.catalog.get(&item.table))
                .expect("an admitted request's table is in the immutable catalog");
            self.cached.answer(key, &item.question, table)
        }));
        let end = Instant::now();
        if let Some(pending) = request.pending().as_mut() {
            let eval_start = pending.eval_start.get_or_insert(start);
            *eval_start = (*eval_start).min(start);
            if let Some(trace) = pending.trace.as_mut() {
                trace.record("admission_wait", admitted, start);
                trace.record("eval", start, end);
                // This job led the parse: the trace gets the leader's stage
                // breakdown (the engine's histograms already have it).
                if let Ok((_, Some(spans))) = &answered {
                    record_parse_spans(trace, start, spans);
                }
            }
            pending.answers[job.index] = answered.ok().map(|(body, _)| body);
        }
        let last = self.scheduler.lock().done(id, fingerprint);
        // The token it gave back can run one waiting job.
        self.scheduler.wake.notify_one();
        if !last {
            return;
        }
        let Some(pending) = request.pending().take() else {
            return;
        };
        let eval_start = pending.eval_start.unwrap_or(start);
        (self.metrics.stage_admission_wait).observe(span_ns(admitted, eval_start));
        (self.metrics.stage_eval).observe(span_ns(eval_start, end));
        let answers = pending.answers;
        let reply = catch_unwind(AssertUnwindSafe(|| match answers.into_iter().collect() {
            None => error_reply(ErrorCode::Internal, "request handler panicked"),
            Some(answers) => match &request.plan {
                Some(plan) => self.batch_reply(request.items.clone(), plan, answers),
                None => {
                    let item = &request.items[0];
                    let (question, table) = (item.question.clone(), item.table.clone());
                    self.explanation_reply(question, table, &answers[0])
                }
            },
        }))
        .unwrap_or_else(|_| error_reply(ErrorCode::Internal, "request handler panicked"));
        drop(pending.slot);
        pending.ticket.answer(self, reply, pending.trace);
    }

    /// Answer a request none of whose jobs started within
    /// `admission_timeout_ms`, unevaluated. Its other expired jobs find it
    /// answered.
    fn reject_expired(&self, job: Job) {
        let Some(pending) = job.request.pending().take() else {
            return;
        };
        drop(pending.slot);
        let reply = self.reject(
            &self.metrics.rejected_table_busy,
            format!(
                "waited over admission_timeout_ms ({} ms) for its table's execution tokens",
                self.config.admission_timeout_ms
            ),
        );
        pending.ticket.answer(self, reply, pending.trace);
    }
}

/// One scheduler worker (thread `wtq-dispatch-{i}`): answers the requests
/// that expired, runs the oldest runnable job, and otherwise sleeps until
/// woken or until the oldest unstarted request's deadline. Returns at
/// shutdown.
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
                ..CacheConfig::default()
            },
        );
        // One worker per core, and at least one more than a single table's
        // tokens can keep busy; one request runs at most a job per core.
        let cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
        let workers = cores.max(config.per_table_tokens.max(1) + 1);
        let metrics = ServerMetrics::default();
        let obs = Obs::new(&config, catalog.len(), workers, &metrics, &cached);
        let queue = Queue::new(
            config.per_table_tokens,
            cores,
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

    /// Graceful shutdown: stop accepting, drop queued jobs, close open
    /// connections and join every layer. Running jobs finish their
    /// question; queued jobs never start, and a request that loses any of
    /// its jobs is never answered (its slot goes with its last job).
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
        // Queued jobs never start: dropping them drops their requests,
        // slots and tickets included, once no running job holds them. Idle
        // workers exit now, busy ones once their question is answered.
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
    const C: u64 = 0xC;
    /// A per-request cap no test request reaches, unless a test says so.
    const CORES: usize = 16;
    const TIMEOUT: Duration = Duration::from_secs(1);

    /// Admit a request of one `job` on each of `tables` at `now`.
    fn push(queue: &mut Queue<&'static str>, tables: &[u64], now: Instant, job: &'static str) {
        let jobs = tables.iter().map(|&table| (table, job)).collect();
        assert!(queue.push(jobs, now).is_ok(), "{job} admitted");
    }

    #[test]
    fn a_request_takes_one_share_per_table_whatever_its_question_count() {
        let now = Instant::now();
        let mut queue = Queue::new(1, CORES, 1, TIMEOUT);
        push(&mut queue, &[A, A, A, B, B], now, "batch");
        assert_eq!(queue.queued, HashMap::from([(A, 1), (B, 1)]));
        assert_eq!(queue.waiting.len(), 5, "one job per question");
        // A and B have used up their one share each; C has its own.
        assert!(queue.push(vec![(A, "refused")], now).is_err());
        assert!(queue.push(vec![(C, "other"), (B, "refused")], now).is_err());
        push(&mut queue, &[C], now, "single on C");
        assert_eq!(queue.queued, HashMap::from([(A, 1), (B, 1), (C, 1)]));
    }

    #[test]
    fn every_job_holds_one_token_and_the_last_gives_back_the_shares() {
        let now = Instant::now();
        let mut queue = Queue::new(2, CORES, 16, TIMEOUT);
        push(&mut queue, &[A, A, B], now, "batch");
        push(&mut queue, &[A], now, "single");
        // The batch's two jobs on A take A's two tokens and its job on B
        // one of B's; the younger single waits for a token on A.
        let jobs: Vec<_> = std::iter::from_fn(|| queue.pick()).collect();
        assert_eq!(jobs.iter().map(|q| q.job).collect::<Vec<_>>(), ["batch"; 3]);
        assert_eq!(queue.executing, HashMap::from([(A, 2), (B, 1)]));
        assert!(!queue.done(jobs[0].request, jobs[0].table));
        assert_eq!(queue.pick().expect("a token came back").job, "single");
        assert!(!queue.done(jobs[1].request, jobs[1].table));
        assert_eq!(queue.queued, HashMap::from([(A, 2), (B, 1)]));
        assert!(queue.done(jobs[2].request, jobs[2].table), "the last job");
        assert_eq!(queue.queued, HashMap::from([(A, 1)]), "the single's share");
    }

    #[test]
    fn a_request_runs_at_most_a_job_per_core() {
        let now = Instant::now();
        let mut queue = Queue::new(4, 2, 16, TIMEOUT);
        push(&mut queue, &[A, A, A], now, "batch");
        push(&mut queue, &[A], now, "single");
        // Two cores: the batch runs two of its jobs and the younger single
        // takes a third token on A, ahead of the batch's third job.
        let picked: Vec<_> = std::iter::from_fn(|| queue.pick()).collect();
        assert_eq!(
            picked.iter().map(|q| q.job).collect::<Vec<_>>(),
            ["batch", "batch", "single"]
        );
        assert_eq!(count_of(&queue.executing, A), 3);
        queue.done(picked[0].request, picked[0].table);
        assert_eq!(
            queue.pick().expect("the batch runs one job less").job,
            "batch"
        );
    }

    #[test]
    fn a_started_request_never_expires() {
        let start = Instant::now();
        let mut queue = Queue::new(1, CORES, 16, TIMEOUT);
        push(&mut queue, &[A, A], start, "started");
        push(&mut queue, &[A], start, "unstarted");
        let running = queue.pick().expect("A is free");
        assert_eq!(running.job, "started");
        // Long past both deadlines, only the request that has not started
        // leaves; the started one keeps its waiting job.
        let expired = queue.expire(start + TIMEOUT * 10);
        assert_eq!(
            expired.iter().map(|q| q.job).collect::<Vec<_>>(),
            ["unstarted"]
        );
        assert_eq!(queue.next_deadline(), None, "nothing left to expire");
        assert!(!queue.done(running.request, running.table));
        let rest = queue.pick().expect("the token came back");
        assert_eq!(rest.job, "started");
        assert!(queue.done(rest.request, rest.table));
        assert!(queue.queued.is_empty() && queue.waiting.is_empty());
    }

    #[test]
    fn jobs_on_one_table_run_in_admission_order() {
        let now = Instant::now();
        let mut queue = Queue::new(1, CORES, 16, TIMEOUT);
        let jobs = ["first", "second", "third"];
        for job in jobs {
            push(&mut queue, &[A], now, job);
        }
        for job in jobs {
            let queued = queue.pick().expect("the token is free");
            assert_eq!(queued.job, job);
            assert!(queue.pick().is_none(), "one token, one running job");
            queue.done(queued.request, queued.table);
        }
        assert!(queue.executing.is_empty() && queue.queued.is_empty());
    }

    #[test]
    fn a_table_holds_at_most_its_tokens_and_other_tables_still_run() {
        let now = Instant::now();
        let mut queue = Queue::new(2, CORES, 16, TIMEOUT);
        for job in ["a1", "a2", "a3"] {
            push(&mut queue, &[A], now, job);
        }
        push(&mut queue, &[B], now, "b1");
        // Three workers (tokens + 1): two take A's tokens, the third finds
        // B's job behind the blocked third job on A.
        let picked: Vec<&str> = std::iter::from_fn(|| queue.pick().map(|q| q.job)).collect();
        assert_eq!(picked, ["a1", "a2", "b1"]);
        assert_eq!(count_of(&queue.executing, A), 2);
    }

    #[test]
    fn expired_jobs_leave_the_queue_and_give_back_their_shares() {
        let start = Instant::now();
        let mut queue = Queue::new(1, CORES, 3, TIMEOUT);
        push(&mut queue, &[A], start, "running");
        let running = queue.pick().expect("A is free");
        push(&mut queue, &[A], start, "early");
        push(&mut queue, &[A, B], start + TIMEOUT / 2, "late");
        // A's share of three is taken: one job running, two waiting.
        assert!(queue.push(vec![(A, "refused")], start).is_err());
        let expire = |queue: &mut Queue<&'static str>, at: Duration| -> Vec<&'static str> {
            queue.expire(start + at).iter().map(|q| q.job).collect()
        };
        assert_eq!(queue.next_deadline(), Some(start + TIMEOUT));
        assert!(expire(&mut queue, TIMEOUT / 2).is_empty());
        assert_eq!(expire(&mut queue, TIMEOUT), ["early"]);
        assert_eq!(queue.next_deadline(), Some(start + TIMEOUT * 3 / 2));
        assert_eq!(expire(&mut queue, TIMEOUT * 2), ["late", "late"]);
        assert!(queue.waiting.is_empty() && queue.pick().is_none());
        assert_eq!(queue.queued, HashMap::from([(A, 1)]));
        queue.done(running.request, running.table);
        assert!(queue.executing.is_empty() && queue.queued.is_empty());
    }
}
