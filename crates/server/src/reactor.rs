//! The readiness loop: a small pool of reactor threads owns every client
//! socket, a single blocking acceptor feeds them, and the scheduler's small
//! worker pool runs engine work — thread count is fixed, never scaling
//! with connection count or load.
//!
//! ```text
//!            ┌──────────┐   Register     ┌───────────────┐
//!  accept()  │ acceptor │ ─────────────► │ reactor 0..R  │  epoll_wait
//!            └──────────┘  (round robin) │  Conn slab    │ ◄──────────┐
//!                                        │  inline: hits,│            │
//!                                        │  control plane│            │
//!                                        │  rejections   │            │
//!                                        └──────┬────────┘            │
//!                             admitted miss     │    ▲ Complete       │
//!                                               ▼    │ (waker pipe)   │
//!                                        ┌───────────┴───┐            │
//!                                        │ scheduler +   │ ───────────┘
//!                                        │ workers (token│   responses
//!                                        │ claims, Engine│
//!                                        │ work, encode) │
//!                                        └───────────────┘
//! ```
//!
//! Each reactor multiplexes its connections over one `wtq_net::Poller`
//! (epoll), parsing incrementally via the [`Conn`] state machines. It
//! answers a complete request itself whenever no engine work is needed
//! (`Shared::handle_request`); an admitted cache miss goes to the
//! scheduler, whose worker pushes the response bytes back through the
//! reactor's command queue + waker pipe. The reactor writes responses out
//! on writability. Ten thousand idle connections therefore cost ten
//! thousand slab entries and epoll registrations — not ten thousand stacks.

use std::collections::VecDeque;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wtq_net::{Interest, Poller, WakeReceiver, Waker};
use wtq_obs::RequestTrace;

use crate::conn::{Conn, IoOutcome, JobKind, JobMeta, Response};
use crate::http;
use crate::server::{decode_frame, span_ns, Reply, Shared};
use crate::wire::{self, ErrorCode, ResponseBody, ResponseEnvelope, WireError};

/// The token reserved for the waker pipe.
const WAKER_TOKEN: u64 = u64::MAX;

/// Buffers over this capacity are dropped instead of recycled — one giant
/// response must not pin its memory in the pool forever.
const POOL_MAX_RETAINED_CAPACITY: usize = 64 * 1024;

/// Bound on pooled buffers (matching a reactor's plausible in-flight
/// responses, not its connection count).
const POOL_MAX_BUFFERS: usize = 64;

/// A per-reactor free list of response write buffers. A response the
/// reactor answers inline encodes into a pooled buffer; every response's
/// buffer (a worker's included) returns here once its connection flushed
/// it — steady-state serving allocates few per-response head buffers.
pub(crate) struct BufferPool {
    free: Vec<Vec<u8>>,
}

impl BufferPool {
    pub(crate) fn new() -> BufferPool {
        BufferPool { free: Vec::new() }
    }

    /// An empty buffer, reusing a recycled allocation when one is free.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(4 * 1024))
    }

    /// Return a flushed buffer to the free list.
    pub(crate) fn recycle(&mut self, mut buffer: Vec<u8>) {
        if buffer.capacity() > POOL_MAX_RETAINED_CAPACITY || self.free.len() >= POOL_MAX_BUFFERS {
            return;
        }
        buffer.clear();
        self.free.push(buffer);
    }
}

/// Cross-thread input to a reactor, delivered via its command queue and
/// waker pipe.
pub(crate) enum Command {
    /// A freshly accepted socket to own.
    Register(TcpStream),
    /// A worker answered the request `(token, gen)` had in flight.
    Complete {
        token: u64,
        gen: u64,
        response: Response,
    },
    /// Close every connection and exit the loop.
    Shutdown,
}

/// The handle other threads use to reach a reactor.
pub(crate) struct ReactorShared {
    commands: Mutex<VecDeque<Command>>,
    waker: Waker,
    /// Set once the loop has exited: further commands are dropped (which
    /// closes any registered stream) instead of queueing forever.
    dead: std::sync::atomic::AtomicBool,
    shared: Arc<Shared>,
}

impl ReactorShared {
    pub(crate) fn push(&self, command: Command) {
        if self.dead.load(Ordering::Acquire) {
            return; // dropping a Register closes its socket
        }
        // Count before queueing, so a racing pop never drives the published
        // depth below zero.
        self.shared.metrics.reactor_queue_depth.add(1);
        {
            let mut commands = self.commands.lock().expect("reactor queue poisoned");
            commands.push_back(command);
        }
        self.waker.wake();
    }

    fn pop(&self) -> Option<Command> {
        let command = self
            .commands
            .lock()
            .expect("reactor queue poisoned")
            .pop_front();
        if command.is_some() {
            self.shared.metrics.reactor_queue_depth.add(-1);
        }
        command
    }
}

/// The protocol a request arrived on, which decides how its reply encodes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Protocol {
    /// The framed protocol, with the request envelope's id.
    Framed(u64),
    Http,
}

/// Where the answer to a request admitted to the scheduler goes: the
/// connection (its reactor, slab token and generation) and how to encode
/// the reply.
pub(crate) struct Ticket {
    reactor: Arc<ReactorShared>,
    token: u64,
    gen: u64,
    protocol: Protocol,
    /// When the request's first bytes arrived (the latency anchor).
    started: Instant,
}

impl Ticket {
    /// Encode `reply` and hand the response to the connection's reactor.
    pub(crate) fn answer(self, shared: &Shared, reply: Reply, trace: Option<RequestTrace>) {
        let (protocol, started) = (self.protocol, self.started);
        let encoded = catch_unwind(AssertUnwindSafe(|| {
            encode(shared, protocol, reply, Vec::new(), trace, started)
        }));
        let is_http = matches!(protocol, Protocol::Http);
        self.reactor.push(Command::Complete {
            token: self.token,
            gen: self.gen,
            response: encoded.unwrap_or_else(|_| fallback_internal_error(is_http)),
        });
    }
}

/// A minimal slab: stable `u64` tokens for epoll, O(1) insert/remove,
/// generation stamps against token reuse.
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
        }
    }

    fn insert(&mut self, stream: TcpStream) -> std::io::Result<(u64, &mut Conn)> {
        let gen = self.next_gen;
        self.next_gen += 1;
        let conn = Conn::new(stream, gen)?;
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index] = Some(conn);
                index
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        };
        Ok((
            index as u64,
            self.slots[index].as_mut().expect("just inserted"),
        ))
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        self.slots.get_mut(token as usize)?.as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<Conn> {
        let slot = self.slots.get_mut(token as usize)?;
        let conn = slot.take();
        if conn.is_some() {
            self.free.push(token as usize);
        }
        conn
    }

    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(index, _)| index as u64)
            .collect()
    }
}

/// One reactor thread: the poller, its connections, and the command queue
/// the acceptor and the scheduler's workers reach it through.
pub(crate) struct Reactor {
    poller: Poller,
    wake_receiver: WakeReceiver,
    conns: Slab,
    shared: Arc<Shared>,
    rshared: Arc<ReactorShared>,
    pool: BufferPool,
}

impl Reactor {
    /// Build a reactor and its shared handle.
    pub(crate) fn new(shared: Arc<Shared>) -> std::io::Result<(Reactor, Arc<ReactorShared>)> {
        let (waker, wake_receiver) = wtq_net::waker()?;
        let mut poller = Poller::new()?;
        poller.add(wake_receiver.fd(), WAKER_TOKEN, Interest::READABLE)?;
        let rshared = Arc::new(ReactorShared {
            commands: Mutex::new(VecDeque::new()),
            waker,
            dead: std::sync::atomic::AtomicBool::new(false),
            shared: shared.clone(),
        });
        Ok((
            Reactor {
                poller,
                wake_receiver,
                conns: Slab::new(),
                shared,
                rshared: rshared.clone(),
                pool: BufferPool::new(),
            },
            rshared,
        ))
    }

    /// The event loop; returns on [`Command::Shutdown`].
    pub(crate) fn run(mut self) {
        let mut events = Vec::new();
        let mut scratch = vec![0u8; 16 * 1024];
        loop {
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poller cannot make progress; treat it like
                // shutdown rather than spinning.
                break;
            }
            for event in events.drain(..) {
                if event.token == WAKER_TOKEN {
                    self.wake_receiver.drain();
                    continue;
                }
                self.handle_io(event.token, event.readable, event.writable, &mut scratch);
            }
            if self.drain_commands() {
                break;
            }
            self.expire_drains();
        }
        self.close_all();
        self.rshared.dead.store(true, Ordering::Release);
        // Drop (and thereby close) anything queued after the flag flipped.
        while self.rshared.pop().is_some() {}
    }

    /// A poll timeout only while lingering drains need a clock.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .slots
            .iter()
            .flatten()
            .filter_map(|conn| conn.drain_deadline())
            .map(|deadline| deadline.saturating_duration_since(now))
            .min()
            .map(|remaining| remaining.max(Duration::from_millis(10)))
    }

    /// Close lingering drains whose deadline passed.
    fn expire_drains(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| {
                let deadline = slot.as_ref()?.drain_deadline()?;
                (deadline <= now).then_some(index as u64)
            })
            .collect();
        for token in expired {
            self.close(token);
        }
    }

    fn handle_io(&mut self, token: u64, readable: bool, writable: bool, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(token) else {
            return; // stale event for a just-closed connection
        };
        if writable && conn.handle_writable(&mut self.pool) == IoOutcome::Close {
            self.close(token);
            return;
        }
        if readable {
            let outcome = {
                let shared = self.shared.clone();
                let conn = self.conns.get_mut(token).expect("checked above");
                conn.handle_readable(scratch, &shared)
            };
            if outcome == IoOutcome::Close {
                self.close(token);
                return;
            }
        }
        self.service(token);
    }

    /// Answer the connection's pending requests in order — inline until
    /// one goes to the scheduler, whose `Complete` the connection then
    /// waits for — then flush, apply close transitions, refresh interest.
    fn service(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            let gen = conn.gen;
            let Some((kind, meta)) = conn.next_job() else {
                break;
            };
            // A panic costs the request a structured error, never the reactor.
            let is_http = matches!(kind, JobKind::Http(_));
            let served = catch_unwind(AssertUnwindSafe(|| self.serve(token, gen, kind, meta)));
            let Some(response) = served.unwrap_or_else(|_| Some(fallback_internal_error(is_http)))
            else {
                break;
            };
            self.conns
                .get_mut(token)
                .expect("serving a request never closes its connection")
                .complete_response(response);
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        // Opportunistic flush: most responses fit the socket buffer, so
        // they complete without a writability round-trip.
        if conn.wants_write() && conn.handle_writable(&mut self.pool) == IoOutcome::Close {
            self.close(token);
            return;
        }
        if conn.after_flush() == IoOutcome::Close {
            self.close(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let interest = Interest {
            readable: conn.wants_read(),
            writable: conn.wants_write(),
        };
        if interest == conn.registered_interest {
            return; // the common readable→readable case: no syscall
        }
        conn.registered_interest = interest;
        let fd = conn.stream().as_raw_fd();
        if self.poller.modify(fd, token, interest).is_err() {
            self.close(token);
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let Ok((token, conn)) = self.conns.insert(stream) else {
            return; // set_nonblocking failed; the dropped stream closes
        };
        let fd = conn.stream().as_raw_fd();
        if self.poller.add(fd, token, Interest::READABLE).is_err() {
            self.conns.remove(token);
            return;
        }
        self.shared.metrics.open_connections.add(1);
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(token) {
            let _ = self.poller.delete(conn.stream().as_raw_fd());
            let _ = conn.stream().shutdown(Shutdown::Both);
            self.shared.metrics.open_connections.add(-1);
        }
    }

    fn close_all(&mut self) {
        for token in self.conns.tokens() {
            self.close(token);
        }
    }

    /// Handle one decoded request of connection `token`: its response when
    /// the reactor can answer it, or `None` once a worker has it (the
    /// answer arrives as [`Command::Complete`]). A sampled request's trace
    /// is born here: the decode and queue-wait spans from the connection's
    /// stamps, then the handlers' stage spans.
    fn serve(&mut self, token: u64, gen: u64, kind: JobKind, meta: JobMeta) -> Option<Response> {
        let shared = &self.shared;
        let wait_ns = span_ns(meta.started, Instant::now()).saturating_sub(meta.decode_ns);
        shared.metrics.stage_decode.observe(meta.decode_ns);
        shared.metrics.stage_queue_wait.observe(wait_ns);
        let mut trace = shared.obs().tracer().start(meta.started);
        if let Some(trace) = trace.as_mut() {
            trace.record_ns("decode", 0, meta.decode_ns);
            trace.record_ns("queue_wait", meta.decode_ns, wait_ns);
        }
        let (protocol, decoded) = match kind {
            JobKind::Frame(payload) => {
                let (id, decoded) = decode_frame(shared, &payload);
                (Protocol::Framed(id), decoded)
            }
            JobKind::Http(request) => {
                match http::route(shared, &request.method, &request.path, &request.body) {
                    Ok(body) => (Protocol::Http, Ok(body)),
                    Err(response) => {
                        let encode_start = Instant::now();
                        let mut head = self.pool.take();
                        http::response_bytes_into(&response, &mut head);
                        let status = response.status().to_string();
                        close(shared, encode_start, &status, trace, meta.started);
                        return Some(Response::whole(head));
                    }
                }
            }
        };
        let reply = match decoded {
            Ok(body) => {
                let ticket = Ticket {
                    reactor: self.rshared.clone(),
                    token,
                    gen,
                    protocol,
                    started: meta.started,
                };
                shared.handle_request(body, &mut trace, ticket)?
            }
            Err(reply) => reply,
        };
        let head = self.pool.take();
        Some(encode(shared, protocol, reply, head, trace, meta.started))
    }

    /// Apply queued commands; `true` means shutdown.
    fn drain_commands(&mut self) -> bool {
        while let Some(command) = self.rshared.pop() {
            match command {
                Command::Register(stream) => self.register(stream),
                Command::Complete {
                    token,
                    gen,
                    response,
                } => {
                    // A connection that died while its request ran (its slot
                    // maybe reused since) has no one to take the response.
                    if let Some(conn) = self.conns.get_mut(token).filter(|conn| conn.gen == gen) {
                        conn.complete_response(response);
                        self.service(token);
                    }
                }
                Command::Shutdown => return true,
            }
        }
        false
    }
}

/// The blocking accept loop: hand every socket to a reactor, round-robin.
pub(crate) fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    reactors: Vec<Arc<ReactorShared>>,
) {
    let mut next = 0usize;
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) if shared.is_shutting_down() => break,
            Err(_) => {
                // Persistent accept errors (e.g. fd exhaustion) would
                // otherwise busy-spin this thread at 100% CPU.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.is_shutting_down() {
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        shared.metrics.connections.inc();
        reactors[next % reactors.len()].push(Command::Register(stream));
        next = next.wrapping_add(1);
    }
}

/// Encode `reply` for `protocol` into the `head` buffer — an explanation
/// splices its stored candidate bytes as a separate segment, a batch copies
/// each item's stored bytes in behind the item's head — and close the
/// request's books. Runs on the reactor for inline answers and on a worker
/// for scheduled ones.
fn encode(
    shared: &Shared,
    protocol: Protocol,
    reply: Reply,
    mut head: Vec<u8>,
    trace: Option<RequestTrace>,
    started: Instant,
) -> Response {
    let encode_start = Instant::now();
    head.clear();
    let (response, status) = match (protocol, reply) {
        (
            Protocol::Framed(id),
            Reply::CachedExplanation {
                question,
                table,
                body,
            },
        ) => {
            let response = if wire::spliced_frame_head(&mut head, id, &question, &table, body.len())
            {
                Response {
                    head,
                    body: Some(body),
                    tail: wire::SPLICE_ENVELOPE_TAIL,
                }
            } else {
                frame_overflow(shared, id)
            };
            (response, "ok".to_string())
        }
        (Protocol::Framed(id), Reply::Batch(items)) => {
            let response = if wire::batch_frame(&mut head, id, &items) {
                Response::whole(head)
            } else {
                frame_overflow(shared, id)
            };
            (response, "ok".to_string())
        }
        (Protocol::Framed(id), Reply::Full(body)) => {
            let status = match &body {
                ResponseBody::Error(err) => format!("{:?}", err.code),
                _ => "ok".to_string(),
            };
            let envelope = ResponseEnvelope {
                v: wire::PROTOCOL_VERSION,
                id,
                body,
            };
            let encoded = serde_json::to_string(&envelope)
                .map_err(|err| format!("response serialization failed: {err}"))
                .and_then(|json| {
                    wire::encode_frame_into(json.as_bytes(), &mut head)
                        .map_err(|err| format!("response exceeds the frame format: {err}"))
                });
            let response = match encoded {
                Ok(()) => Response::whole(head),
                Err(message) => {
                    // An unencodable response answers with a structured
                    // `Internal` envelope (built by infallible direct byte
                    // writing) and is counted — never swallowed into an
                    // empty frame.
                    shared.metrics.encode_failures.inc();
                    Response::whole(wire::error_frame(
                        id,
                        &WireError::new(ErrorCode::Internal, message),
                    ))
                }
            };
            (response, status)
        }
        (
            Protocol::Http,
            Reply::CachedExplanation {
                question,
                table,
                body,
            },
        ) => {
            http::spliced_response_head(&mut head, &question, &table, body.len());
            let response = Response {
                head,
                body: Some(body),
                tail: wire::SPLICE_BODY_TAIL,
            };
            (response, "200".to_string())
        }
        (Protocol::Http, Reply::Batch(items)) => {
            http::batch_response_into(&items, &mut head);
            (Response::whole(head), "200".to_string())
        }
        (Protocol::Http, Reply::Full(body)) => {
            let plain = http::HttpResponse::from_body(&body);
            http::response_bytes_into(&plain, &mut head);
            (Response::whole(head), plain.status().to_string())
        }
    };
    close(shared, encode_start, &status, trace, started);
    response
}

/// The answer to a framed response that would overflow the u32 length
/// prefix: a structured error, never a garbage frame.
fn frame_overflow(shared: &Shared, id: u64) -> Response {
    shared.metrics.encode_failures.inc();
    Response::whole(wire::error_frame(
        id,
        &WireError::new(ErrorCode::Internal, "response exceeds the frame format"),
    ))
}

/// Close a request's books once its response is encoded: the encode span,
/// the end-to-end latency histogram and the sampled trace.
fn close(
    shared: &Shared,
    encode_start: Instant,
    status: &str,
    trace: Option<RequestTrace>,
    started: Instant,
) {
    let encode_end = Instant::now();
    let metrics = &shared.metrics;
    metrics
        .stage_encode
        .observe(span_ns(encode_start, encode_end));
    let total_ns = span_ns(started, encode_end);
    metrics.request_duration.observe(total_ns);
    if let Some(mut trace) = trace {
        trace.record("encode", encode_start, encode_end);
        shared.obs().tracer().finish(trace, status, total_ns);
    }
}

/// The response for a request whose handling panicked on the reactor —
/// the reactor must survive and the client must still hear something
/// structured.
fn fallback_internal_error(is_http: bool) -> Response {
    Response::whole(if is_http {
        let response = http::HttpResponse::error(ErrorCode::Internal, "request handler panicked");
        http::response_bytes(&response)
    } else {
        wire::error_frame(
            0,
            &WireError::new(ErrorCode::Internal, "request handler panicked"),
        )
    })
}
