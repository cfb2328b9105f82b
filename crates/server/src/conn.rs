//! The per-connection protocol state machine driven by the reactor.
//!
//! A [`Conn`] owns one nonblocking socket and turns readiness events into
//! protocol progress without ever blocking: reads feed the resumable
//! decoders ([`wire::FrameDecoder`] / [`crate::http::HttpParser`]) and park
//! complete requests in an ordered pending queue; writes drain the outbox.
//! The reactor takes pending requests one at a time (`busy`): it answers
//! what needs no engine at once and moves on, while a request sent to the
//! scheduler holds back the ones behind it until its answer arrives — the
//! answer-in-request-order guarantee for pipelined clients. The reactor
//! also applies the close choreography each protocol needs (immediate
//! close after an oversized frame, lingering drain after an HTTP response).

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{self, HttpParser, HttpRequest};
use crate::reactor::BufferPool;
use crate::server::Shared;
use crate::wire::{self, ErrorCode, FrameDecoder, FrameError, WireError};

/// Methods whose first four bytes select the HTTP adapter.
const HTTP_PREFIXES: [&[u8; 4]; 6] = [b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"OPTI"];

/// Bytes a lingering HTTP close will drain before giving up on the peer.
const DRAIN_LIMIT: usize = 64 * 1024;

/// Decoded-but-unanswered requests one connection may queue before the
/// reactor stops reading it — the blocking server never read ahead at all,
/// so a bounded read-ahead is strictly more permissive while still denying
/// a pipelining client unbounded server memory.
const PENDING_LIMIT: usize = 64;

/// Wall-clock bound on the lingering drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// One response in the outbox, segmented so a cache hit goes out without
/// intermediate copies: the per-response head (a pooled buffer holding the
/// frame prefix and spliced envelope head, or a whole conventionally
/// encoded response), the shared cached candidate bytes, and the static
/// envelope tail. The three segments flush in one `writev(2)`.
#[derive(Debug)]
pub(crate) struct Response {
    pub(crate) head: Vec<u8>,
    pub(crate) body: Option<Arc<Vec<u8>>>,
    pub(crate) tail: &'static [u8],
}

impl Response {
    /// A single-segment response (errors, non-hit answers).
    pub(crate) fn whole(head: Vec<u8>) -> Response {
        Response {
            head,
            body: None,
            tail: b"",
        }
    }

    fn len(&self) -> usize {
        self.head.len() + self.body.as_ref().map_or(0, |body| body.len()) + self.tail.len()
    }

    /// The unwritten segment slices, starting `written` bytes in.
    fn remaining<'a>(&'a self, mut written: usize, segments: &mut [&'a [u8]; 3]) -> usize {
        let mut count = 0;
        let parts: [&[u8]; 3] = [
            &self.head,
            self.body.as_ref().map_or(&[][..], |body| body.as_slice()),
            self.tail,
        ];
        for part in parts {
            if written >= part.len() {
                written -= part.len();
                continue;
            }
            segments[count] = &part[written..];
            written = 0;
            count += 1;
        }
        count
    }
}

/// A request decoded off the socket, waiting its turn.
#[derive(Debug)]
pub(crate) enum JobKind {
    /// One framed-protocol payload (the bytes between length prefixes).
    Frame(Vec<u8>),
    /// One complete HTTP request.
    Http(HttpRequest),
}

/// Observability metadata stamped on a job as it completes decoding: the
/// instant the request's first bytes arrived (the anchor every trace span
/// is measured against) and how long receive+decode took.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobMeta {
    /// When the request's first undecoded bytes arrived at the reactor.
    pub(crate) started: Instant,
    /// First byte to complete request (incremental parse time included).
    pub(crate) decode_ns: u64,
}

impl JobMeta {
    /// Close the decode window: `begun` is the first-byte instant (or now,
    /// for a request that completed within another's read batch).
    fn stamp(begun: Option<Instant>) -> JobMeta {
        let started = begun.unwrap_or_else(Instant::now);
        JobMeta {
            started,
            decode_ns: started.elapsed().as_nanos() as u64,
        }
    }
}

/// An entry of the ordered pending queue: either a request to answer
/// or a protocol-fatal response that must go out *after* the answers to
/// every earlier pipelined request.
#[derive(Debug)]
enum PendingItem {
    Job(JobKind, JobMeta),
    /// Queue these bytes, then apply the close mode. Terminal: later input
    /// is never parsed.
    Fatal(Vec<u8>, CloseMode),
}

/// What to do once the outbox drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseMode {
    /// Keep serving.
    Open,
    /// Close outright (framed protocol after an oversized frame: the
    /// stream position is untrustworthy).
    CloseAfterFlush,
    /// Half-close our side and drain the peer's leftovers before closing
    /// (HTTP lingering close — a hard close with unread bytes would turn
    /// our FIN into an RST and could destroy the response in flight).
    DrainAfterFlush,
}

/// Which protocol the connection speaks, with its resumable parser state.
enum Proto {
    /// Fewer than four bytes seen — protocol not chosen yet.
    Sniff(Vec<u8>),
    Framed(FrameDecoder),
    Http(HttpParser),
    /// HTTP response sent and write side shut; discarding peer leftovers
    /// until EOF, `DRAIN_LIMIT` bytes or `deadline`.
    Draining {
        deadline: Instant,
        drained: usize,
    },
}

/// What `handle_readable`/`handle_writable` concluded.
#[must_use]
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum IoOutcome {
    /// Still alive; the reactor re-evaluates interest and pending work.
    Continue,
    /// Close and deregister now.
    Close,
}

pub(crate) struct Conn {
    stream: TcpStream,
    /// Generation stamp so a stale worker completion for a recycled slab
    /// slot is dropped instead of answering the wrong connection.
    pub(crate) gen: u64,
    proto: Proto,
    /// Decoded-but-unsubmitted requests, in arrival order.
    pending: VecDeque<PendingItem>,
    /// Whether the request taken last is still unanswered (it is with
    /// the scheduler).
    pub(crate) busy: bool,
    /// Responses awaiting socket writability.
    outbox: VecDeque<Response>,
    /// How much of `outbox.front()` is already written (an offset into its
    /// concatenated segments).
    front_written: usize,
    close_mode: CloseMode,
    /// The peer sent EOF; never read again (except while draining).
    peer_eof: bool,
    /// A fatal response was queued; stop parsing input.
    read_poisoned: bool,
    /// When the in-progress request's first bytes arrived; taken as each
    /// request completes decoding (see [`JobMeta`]).
    request_started: Option<Instant>,
    /// The interest currently registered with the poller — the reactor
    /// skips the `epoll_ctl(MOD)` syscall when it is already right.
    pub(crate) registered_interest: wtq_net::Interest,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, gen: u64) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            gen,
            proto: Proto::Sniff(Vec::with_capacity(4)),
            pending: VecDeque::new(),
            busy: false,
            outbox: VecDeque::new(),
            front_written: 0,
            close_mode: CloseMode::Open,
            peer_eof: false,
            read_poisoned: false,
            request_started: None,
            registered_interest: wtq_net::Interest::READABLE,
        })
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Drain the socket's readable bytes through the protocol machine.
    pub(crate) fn handle_readable(&mut self, scratch: &mut [u8], shared: &Shared) -> IoOutcome {
        if self.peer_eof || (self.read_poisoned && !matches!(self.proto, Proto::Draining { .. })) {
            return IoOutcome::Continue;
        }
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    let buffered = &scratch[..n];
                    match self.feed(buffered, shared) {
                        IoOutcome::Continue => {}
                        IoOutcome::Close => return IoOutcome::Close,
                    }
                    if self.read_poisoned && !matches!(self.proto, Proto::Draining { .. }) {
                        return IoOutcome::Continue;
                    }
                    // Enforce the read-ahead bound *inside* the loop, not
                    // just when interest is recomputed: a client keeping
                    // the socket buffer full must not grow `pending`
                    // without limit or pin this reactor thread. Unread
                    // bytes stay in the kernel buffer; the level-triggered
                    // poller re-reports them once the queue drains.
                    if self.pending.len() >= PENDING_LIMIT {
                        break;
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return IoOutcome::Close,
            }
        }
        if self.peer_eof {
            return self.handle_eof(shared);
        }
        IoOutcome::Continue
    }

    /// Route freshly read bytes into the current protocol state.
    fn feed(&mut self, mut input: &[u8], shared: &Shared) -> IoOutcome {
        if !input.is_empty() && self.request_started.is_none() {
            self.request_started = Some(Instant::now());
        }
        if let Proto::Sniff(buf) = &mut self.proto {
            let take = input.len().min(4 - buf.len());
            buf.extend_from_slice(&input[..take]);
            input = &input[take..];
            if buf.len() < 4 {
                return IoOutcome::Continue;
            }
            let first: [u8; 4] = buf[..4].try_into().expect("sniff buffer holds 4 bytes");
            if HTTP_PREFIXES.contains(&&first) {
                shared.metrics.http_requests.inc();
                let mut parser = HttpParser::new(shared.max_frame_len() as usize);
                // Replay the sniffed bytes into the chosen parser.
                if Self::feed_http(
                    &mut parser,
                    &first,
                    &mut self.pending,
                    &mut self.request_started,
                ) {
                    self.read_poisoned = true;
                }
                self.proto = Proto::Http(parser);
                if self.read_poisoned {
                    return IoOutcome::Continue;
                }
            } else {
                let mut decoder = FrameDecoder::new(shared.max_frame_len());
                let mut sniffed: &[u8] = &first;
                let outcome = Self::feed_framed(
                    &mut decoder,
                    &mut sniffed,
                    shared,
                    &mut self.pending,
                    &mut self.request_started,
                );
                self.proto = Proto::Framed(decoder);
                if let Some(fatal) = outcome {
                    self.push_fatal(fatal, CloseMode::CloseAfterFlush);
                    return IoOutcome::Continue;
                }
            }
        }
        match &mut self.proto {
            Proto::Sniff(_) => unreachable!("sniff resolved above"),
            Proto::Framed(decoder) => {
                match Self::feed_framed(
                    decoder,
                    &mut input,
                    shared,
                    &mut self.pending,
                    &mut self.request_started,
                ) {
                    Some(fatal) => {
                        self.push_fatal(fatal, CloseMode::CloseAfterFlush);
                        IoOutcome::Continue
                    }
                    None => IoOutcome::Continue,
                }
            }
            Proto::Http(parser) => {
                if Self::feed_http(parser, input, &mut self.pending, &mut self.request_started) {
                    self.read_poisoned = true;
                }
                IoOutcome::Continue
            }
            Proto::Draining {
                deadline: _,
                drained,
            } => {
                *drained += input.len();
                if *drained > DRAIN_LIMIT {
                    return IoOutcome::Close;
                }
                IoOutcome::Continue
            }
        }
    }

    /// Feed the framed decoder; complete payloads become pending jobs.
    /// Returns the fatal response bytes on an oversized frame.
    fn feed_framed(
        decoder: &mut FrameDecoder,
        input: &mut &[u8],
        shared: &Shared,
        pending: &mut VecDeque<PendingItem>,
        started: &mut Option<Instant>,
    ) -> Option<Vec<u8>> {
        loop {
            match decoder.feed(input) {
                Ok(Some(payload)) => {
                    // Pipelined frames completing within one read batch
                    // each take the shared first-byte stamp once; the rest
                    // anchor at completion (their bytes arrived together).
                    let meta = JobMeta::stamp(started.take());
                    pending.push_back(PendingItem::Job(JobKind::Frame(payload), meta));
                }
                Ok(None) => return None,
                Err(FrameError::TooLarge { declared, max }) => {
                    shared.metrics.protocol_errors.inc();
                    // `error_frame` encodes by direct byte writing and is
                    // infallible — unlike the old serde round-trip, whose
                    // failure path silently answered with an empty frame.
                    return Some(wire::error_frame(
                        0,
                        &WireError::new(
                            ErrorCode::FrameTooLarge,
                            format!("frame of {declared} bytes exceeds the {max}-byte limit"),
                        ),
                    ));
                }
                Err(_) => unreachable!("a pure decoder cannot hit I/O errors"),
            }
        }
    }

    /// Feed the HTTP parser; a complete request becomes the pending job, a
    /// parser error becomes a fatal drain-then-close response. Returns
    /// whether a fatal response was queued.
    fn feed_http(
        parser: &mut HttpParser,
        input: &[u8],
        pending: &mut VecDeque<PendingItem>,
        started: &mut Option<Instant>,
    ) -> bool {
        match parser.feed(input) {
            Ok(Some(request)) => {
                let meta = JobMeta::stamp(started.take());
                pending.push_back(PendingItem::Job(JobKind::Http(request), meta));
                false
            }
            Ok(None) => false,
            Err(response) => {
                pending.push_back(PendingItem::Fatal(
                    http::response_bytes(&response),
                    CloseMode::DrainAfterFlush,
                ));
                true
            }
        }
    }

    fn push_fatal(&mut self, bytes: Vec<u8>, mode: CloseMode) {
        self.pending.push_back(PendingItem::Fatal(bytes, mode));
        self.read_poisoned = true;
    }

    /// EOF arrived: decide whether anything still owes the peer bytes.
    fn handle_eof(&mut self, _shared: &Shared) -> IoOutcome {
        match &mut self.proto {
            // Draining exists to wait for exactly this EOF.
            Proto::Draining { .. } => IoOutcome::Close,
            // Torn before the protocol was even chosen.
            Proto::Sniff(_) => {
                if self.idle() {
                    IoOutcome::Close
                } else {
                    IoOutcome::Continue
                }
            }
            Proto::Framed(_) => {
                // Clean close at a boundary or truncated mid-frame: either
                // way nothing new to answer; finish flushing what's queued
                // (the reactor closes once idle).
                if self.idle() {
                    IoOutcome::Close
                } else {
                    IoOutcome::Continue
                }
            }
            Proto::Http(parser) => {
                // A request torn mid-head/mid-body still gets a structured
                // answer (the peer may have only half-closed its side).
                if let Some(response) = parser.eof_error() {
                    if !self.busy && !self.read_poisoned {
                        self.push_fatal(
                            http::response_bytes(&response),
                            CloseMode::DrainAfterFlush,
                        );
                    }
                }
                if self.idle() {
                    IoOutcome::Close
                } else {
                    IoOutcome::Continue
                }
            }
        }
    }

    /// Flush the outbox as far as the socket allows. A response's head,
    /// cached body and tail go out gathered in one `writev(2)`; fully
    /// flushed head buffers are recycled into the reactor's pool.
    pub(crate) fn handle_writable(&mut self, pool: &mut BufferPool) -> IoOutcome {
        while let Some(front) = self.outbox.front() {
            if self.front_written >= front.len() {
                let done = self.outbox.pop_front().expect("front checked above");
                pool.recycle(done.head);
                self.front_written = 0;
                continue;
            }
            let mut segments: [&[u8]; 3] = [&[]; 3];
            let count = front.remaining(self.front_written, &mut segments);
            match wtq_net::write_vectored(self.stream.as_raw_fd(), &segments[..count]) {
                Ok(0) => return IoOutcome::Close,
                Ok(n) => self.front_written += n,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    return IoOutcome::Continue
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return IoOutcome::Close,
            }
        }
        IoOutcome::Continue
    }

    /// Accept the answer to the request taken last, from the reactor itself
    /// or from a scheduler worker.
    pub(crate) fn complete_response(&mut self, response: Response) {
        self.busy = false;
        self.outbox.push_back(response);
        if matches!(self.proto, Proto::Http(_)) {
            // One request per HTTP connection: after this response, drain
            // and close.
            self.close_mode = CloseMode::DrainAfterFlush;
        }
    }

    /// Hand the next pending request to the reactor, or apply a queued
    /// fatal response. At most one request is unanswered at a time.
    pub(crate) fn next_job(&mut self) -> Option<(JobKind, JobMeta)> {
        if self.busy || self.close_mode != CloseMode::Open {
            return None;
        }
        match self.pending.pop_front() {
            None => None,
            Some(PendingItem::Job(kind, meta)) => {
                self.busy = true;
                Some((kind, meta))
            }
            Some(PendingItem::Fatal(bytes, mode)) => {
                self.outbox.push_back(Response::whole(bytes));
                self.close_mode = mode;
                // Anything decoded after the poison is unanswerable.
                self.pending.clear();
                None
            }
        }
    }

    /// Post-flush transition: `Close` to close now, `Continue` otherwise.
    /// Starts the HTTP lingering drain when due.
    pub(crate) fn after_flush(&mut self) -> IoOutcome {
        if !self.outbox.is_empty() {
            return IoOutcome::Continue;
        }
        match self.close_mode {
            CloseMode::CloseAfterFlush => IoOutcome::Close,
            CloseMode::DrainAfterFlush => {
                if self.peer_eof {
                    // Nothing left to drain; the FIN already arrived.
                    return IoOutcome::Close;
                }
                let _ = self.stream.shutdown(Shutdown::Write);
                self.proto = Proto::Draining {
                    deadline: Instant::now() + DRAIN_TIMEOUT,
                    drained: 0,
                };
                self.close_mode = CloseMode::Open;
                self.read_poisoned = false;
                IoOutcome::Continue
            }
            CloseMode::Open => {
                if self.peer_eof && self.idle() && !matches!(self.proto, Proto::Draining { .. }) {
                    IoOutcome::Close
                } else {
                    IoOutcome::Continue
                }
            }
        }
    }

    /// No request in flight, nothing pending, nothing to write.
    fn idle(&self) -> bool {
        !self.busy && self.pending.is_empty() && self.outbox.is_empty()
    }

    /// Whether the reactor should watch for readability.
    pub(crate) fn wants_read(&self) -> bool {
        if self.peer_eof {
            return false;
        }
        if matches!(self.proto, Proto::Draining { .. }) {
            return true;
        }
        !self.read_poisoned
            && self.close_mode == CloseMode::Open
            && self.pending.len() < PENDING_LIMIT
    }

    /// Whether the reactor should watch for writability.
    pub(crate) fn wants_write(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// The drain deadline, when the connection is in the lingering-drain
    /// state — the reactor polls with a timeout while any exist.
    pub(crate) fn drain_deadline(&self) -> Option<Instant> {
        match &self.proto {
            Proto::Draining { deadline, .. } => Some(*deadline),
            _ => None,
        }
    }
}
