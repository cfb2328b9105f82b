//! The load generator: an open-loop Poisson phase on one thread and a
//! closed-loop phase with one connection per thread, both over raw framed
//! TCP with requests encoded in set-up.
//!
//! Open-loop latency is timed from each request's *scheduled* send time,
//! so a stall anywhere (server, kernel or generator) is charged to every
//! request it delays. The generator's threads read their own OS counters
//! before they exit.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::check::{Checker, Tally, Templates};
use crate::procfs::{self, TaskCounters, GEN_THREAD_PREFIX};
use crate::workload::Request;

/// How long a response may take before the request counts as timed out.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);
/// Largest response frame accepted.
const MAX_FRAME: usize = 64 << 20;

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Answer checks, accuracy and failures.
    pub tally: Tally,
    /// Requests sent.
    pub attempted: u64,
    /// One sample per request, in completion order.
    pub samples: Vec<Sample>,
    /// Open loop: how late each send left against its schedule, in ns.
    pub lag_ns: Vec<u64>,
    /// Most requests outstanding at once.
    pub max_outstanding: usize,
    /// CPU, context switches and syscalls of the generator's threads.
    pub gen: TaskCounters,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it finished, ns since the phase start.
    pub done_ns: u64,
    /// Its latency in ns; `u64::MAX` when it failed, so a failure misses
    /// every latency limit.
    pub latency_ns: u64,
    /// Questions it answered correctly (0 when it failed).
    pub questions: u32,
}

impl PhaseResult {
    fn record(&mut self, done_ns: u64, latency_ns: Option<u64>, request: Request) {
        self.samples.push(Sample {
            done_ns,
            latency_ns: latency_ns.unwrap_or(u64::MAX),
            questions: if latency_ns.is_some() { request.len } else { 0 },
        });
    }

    /// Sorted latencies of every request, failures last.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut latencies: Vec<u64> = self.samples.iter().map(|s| s.latency_ns).collect();
        latencies.sort_unstable();
        latencies
    }

    /// Correctly answered questions per second in each of `windows` equal
    /// slices of the phase.
    pub fn windowed_throughput(&self, windows: usize) -> Vec<f64> {
        let width = (self.elapsed.as_nanos() as u64 / windows as u64).max(1);
        let mut counts = vec![0u64; windows];
        for sample in &self.samples {
            counts[((sample.done_ns / width) as usize).min(windows - 1)] += sample.questions as u64;
        }
        counts
            .iter()
            .map(|&n| n as f64 / (width as f64 / 1e9))
            .collect()
    }

    fn merge(&mut self, other: PhaseResult) {
        self.tally.merge(other.tally);
        self.attempted += other.attempted;
        self.samples.extend(other.samples);
        self.lag_ns.extend(other.lag_ns);
        self.max_outstanding += other.max_outstanding;
        self.gen.add(other.gen);
    }
}

/// Open `count` framed connections to `addr`.
pub fn connect(addr: SocketAddr, count: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..count)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            Ok(stream)
        })
        .collect()
}

/// Send `request` with `id` and wait for its response (set-up traffic).
pub fn round_trip(
    stream: &mut TcpStream,
    templates: &Templates,
    request: Request,
    id: u64,
) -> Result<Vec<u8>, String> {
    let mut frame = Vec::new();
    stream
        .write_all(templates.get(request).with_id(id, &mut frame))
        .map_err(|err| format!("send failed: {err}"))?;
    let mut payload = Vec::new();
    read_frame(stream, &mut payload)?;
    Ok(payload)
}

fn read_frame(stream: &mut TcpStream, payload: &mut Vec<u8>) -> Result<(), String> {
    let mut prefix = [0u8; 4];
    stream
        .read_exact(&mut prefix)
        .map_err(|err| format!("no response: {err}"))?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(format!("undecodable frame of {len} bytes"));
    }
    payload.resize(len, 0);
    stream
        .read_exact(payload)
        .map_err(|err| format!("truncated response: {err}"))
}

/// Incremental frame reader over a connection's received bytes.
struct Inbox {
    buf: Vec<u8>,
    pos: usize,
    chunk: Vec<u8>,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            buf: Vec::new(),
            pos: 0,
            chunk: vec![0; 64 << 10],
        }
    }

    /// Read what the socket holds; `Ok(false)` on end of stream.
    fn fill(&mut self, stream: &mut TcpStream) -> std::io::Result<bool> {
        let read = stream.read(&mut self.chunk)?;
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(&self.chunk[..read]);
        Ok(read > 0)
    }

    /// The next complete frame's payload, if one is buffered.
    fn next_frame(&mut self) -> Result<Option<&[u8]>, String> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(format!("undecodable frame of {len} bytes"));
        }
        if rest.len() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }
}

/// `ppoll(2)`, declared here because std exposes no readiness wait with
/// sub-millisecond timeouts.
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x1;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Put the calling generator thread in the `SCHED_FIFO` class, so it
/// sends and reads on time instead of queueing behind the server's threads
/// for a CPU, as a client on another machine would. Without
/// `CAP_SYS_NICE` the thread keeps its normal priority.
fn prefer_generator() {
    #[repr(C)]
    struct SchedParam {
        priority: std::ffi::c_int,
    }
    extern "C" {
        fn sched_setscheduler(
            pid: std::ffi::c_int,
            policy: std::ffi::c_int,
            param: *const SchedParam,
        ) -> std::ffi::c_int;
    }
    const SCHED_FIFO: std::ffi::c_int = 1;
    // SAFETY: pid 0 is the calling thread; `param` lives across the call.
    let preferred = unsafe { sched_setscheduler(0, SCHED_FIFO, &SchedParam { priority: 1 }) == 0 };
    if !preferred {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("note: generator threads run at normal priority"));
    }
}

/// Wait until one of `streams` is readable or `timeout` passes; returns
/// the readable ones.
fn wait_readable(streams: &[TcpStream], timeout: Duration) -> Vec<bool> {
    let mut fds: Vec<sys::PollFd> = streams
        .iter()
        .map(|stream| sys::PollFd {
            fd: stream.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    let timeout = sys::Timespec {
        tv_sec: timeout.as_secs() as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `fds` is a live, correctly sized array of `pollfd`; the
    // timeout outlives the call and a null sigmask keeps the current one.
    let ready = unsafe { sys::ppoll(fds.as_mut_ptr(), fds.len() as _, &timeout, std::ptr::null()) };
    fds.iter().map(|fd| ready > 0 && fd.revents != 0).collect()
}

struct Pending {
    request: Request,
    id: u64,
    due_ns: u64,
}

/// The open-loop phase: one thread sends `schedule` (offsets in ns from the
/// phase start) over `streams`, each request on the connection with the
/// fewest outstanding, and reads responses as they come. `scored` counts
/// the answers into the accuracy tally.
pub fn open_loop(
    streams: &mut [TcpStream],
    schedule: &[(u64, Request)],
    templates: &Templates,
    checker: &Checker<'_>,
    id_base: u64,
    scored: bool,
) -> PhaseResult {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(format!("{GEN_THREAD_PREFIX}open"))
            .spawn_scoped(scope, || {
                prefer_generator();
                let counters = procfs::thread_self();
                let mut result = drive_open(streams, schedule, templates, checker, id_base, scored);
                result.gen = procfs::thread_self().since(counters);
                result
            })
            .expect("spawn the open-loop generator")
            .join()
            .expect("open-loop generator panicked")
    })
}

fn drive_open(
    streams: &mut [TcpStream],
    schedule: &[(u64, Request)],
    templates: &Templates,
    checker: &Checker<'_>,
    id_base: u64,
    scored: bool,
) -> PhaseResult {
    let mut result = PhaseResult {
        samples: Vec::with_capacity(schedule.len()),
        lag_ns: Vec::with_capacity(schedule.len()),
        ..PhaseResult::default()
    };
    let mut inboxes: Vec<Inbox> = streams.iter().map(|_| Inbox::new()).collect();
    let mut outstanding: Vec<VecDeque<Pending>> = streams.iter().map(|_| VecDeque::new()).collect();
    let mut alive = vec![true; streams.len()];
    let mut frame = Vec::new();
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut next = 0;
    let mut drain_deadline = None;
    loop {
        while next < schedule.len() && schedule[next].0 <= now_ns() {
            let (due_ns, request) = schedule[next];
            let id = id_base + next as u64;
            next += 1;
            result.attempted += 1;
            let Some(conn) = (0..streams.len())
                .filter(|&c| alive[c])
                .min_by_key(|&c| outstanding[c].len())
            else {
                result
                    .tally
                    .fail(checker.inputs, request, "no live connection");
                result.record(now_ns(), None, request);
                continue;
            };
            let bytes = templates.get(request).with_id(id, &mut frame);
            if let Err(err) = streams[conn].write_all(bytes) {
                result
                    .tally
                    .fail(checker.inputs, request, &format!("send failed: {err}"));
                result.record(now_ns(), None, request);
                continue;
            }
            result.lag_ns.push(now_ns().saturating_sub(due_ns));
            outstanding[conn].push_back(Pending {
                request,
                id,
                due_ns,
            });
            let total: usize = outstanding.iter().map(VecDeque::len).sum();
            result.max_outstanding = result.max_outstanding.max(total);
        }
        let waiting: usize = outstanding.iter().map(VecDeque::len).sum();
        if next == schedule.len() {
            if waiting == 0 {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + RESPONSE_TIMEOUT);
            if Instant::now() >= deadline {
                for pending in outstanding.iter_mut().flat_map(|queue| queue.drain(..)) {
                    result
                        .tally
                        .fail(checker.inputs, pending.request, "timed out");
                    result.record(now_ns(), None, pending.request);
                }
                break;
            }
        }
        let timeout = match schedule.get(next) {
            Some((due_ns, _)) => Duration::from_nanos(due_ns.saturating_sub(now_ns())),
            None => Duration::from_millis(10),
        };
        if waiting == 0 && next < schedule.len() {
            // Nothing to read: sleep to the next send.
            std::thread::sleep(timeout);
            continue;
        }
        let readable = wait_readable(streams, timeout);
        for conn in 0..streams.len() {
            if !readable[conn] || !alive[conn] {
                continue;
            }
            let open = inboxes[conn].fill(&mut streams[conn]).unwrap_or(false);
            loop {
                let frame = match inboxes[conn].next_frame() {
                    Ok(Some(payload)) => Ok(payload),
                    Ok(None) => break,
                    Err(reason) => Err(reason),
                };
                let received_ns = now_ns();
                let Some(pending) = outstanding[conn].pop_front() else {
                    result.tally.failures.push("response to no request".into());
                    break;
                };
                match frame {
                    Ok(payload) => {
                        let failures = result.tally.failures.len();
                        checker.check(
                            pending.request,
                            pending.id,
                            payload,
                            scored,
                            &mut result.tally,
                        );
                        let ok = result.tally.failures.len() == failures;
                        let latency = received_ns.saturating_sub(pending.due_ns);
                        result.record(received_ns, ok.then_some(latency), pending.request);
                    }
                    Err(reason) => {
                        result.tally.fail(checker.inputs, pending.request, &reason);
                        result.record(received_ns, None, pending.request);
                        alive[conn] = false;
                        break;
                    }
                }
            }
            if !open {
                alive[conn] = false;
            }
            if !alive[conn] {
                for pending in outstanding[conn].drain(..) {
                    result
                        .tally
                        .fail(checker.inputs, pending.request, "connection closed");
                    result.record(now_ns(), None, pending.request);
                }
            }
        }
    }
    result.elapsed = start.elapsed();
    result
}

/// Which requests a closed-loop phase sends and for how long.
pub struct ClosedPlan<'a> {
    /// Requests in send order.
    pub requests: &'a [Request],
    /// Start again from the first request when the sequence runs out
    /// (otherwise the phase ends there).
    pub cycle: bool,
    /// Stop claiming requests after this long …
    pub duration: Duration,
    /// … but not before this many were claimed; these are the scored set.
    pub min_requests: usize,
    /// First request id of the phase.
    pub id_base: u64,
}

/// The closed-loop phase: one thread per stream, one outstanding request
/// each, claiming requests from a shared cursor.
pub fn closed_loop(
    streams: &mut [TcpStream],
    plan: &ClosedPlan<'_>,
    templates: &Templates,
    checker: &Checker<'_>,
) -> PhaseResult {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let mut result = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(index, stream)| {
                let cursor = &cursor;
                std::thread::Builder::new()
                    .name(format!("{GEN_THREAD_PREFIX}{index}"))
                    .spawn_scoped(scope, move || {
                        prefer_generator();
                        let counters = procfs::thread_self();
                        let mut result =
                            drive_closed(stream, plan, templates, checker, cursor, start);
                        result.gen = procfs::thread_self().since(counters);
                        result.max_outstanding = 1;
                        result
                    })
                    .expect("spawn a closed-loop generator")
            })
            .collect();
        let mut total = PhaseResult::default();
        for worker in workers {
            total.merge(worker.join().expect("closed-loop generator panicked"));
        }
        total
    });
    result.elapsed = start.elapsed();
    result
}

fn drive_closed(
    stream: &mut TcpStream,
    plan: &ClosedPlan<'_>,
    templates: &Templates,
    checker: &Checker<'_>,
    cursor: &AtomicUsize,
    start: Instant,
) -> PhaseResult {
    let mut result = PhaseResult::default();
    let mut frame = Vec::new();
    let mut payload = Vec::new();
    loop {
        if start.elapsed() >= plan.duration && cursor.load(Ordering::Relaxed) >= plan.min_requests {
            break;
        }
        let claimed = cursor.fetch_add(1, Ordering::Relaxed);
        if !plan.cycle && claimed >= plan.requests.len() {
            break;
        }
        let request = plan.requests[claimed % plan.requests.len()];
        let id = plan.id_base + claimed as u64;
        result.attempted += 1;
        let sent = Instant::now();
        let outcome = stream
            .write_all(templates.get(request).with_id(id, &mut frame))
            .map_err(|err| format!("send failed: {err}"))
            .and_then(|()| read_frame(stream, &mut payload));
        let latency = sent.elapsed().as_nanos() as u64;
        let done_ns = start.elapsed().as_nanos() as u64;
        match outcome {
            Ok(()) => {
                let failures = result.tally.failures.len();
                let scored = claimed < plan.min_requests;
                checker.check(request, id, &payload, scored, &mut result.tally);
                let ok = result.tally.failures.len() == failures;
                result.record(done_ns, ok.then_some(latency), request);
            }
            Err(reason) => {
                // The stream position is lost: this connection is done.
                result.tally.fail(checker.inputs, request, &reason);
                result.record(done_ns, None, request);
                break;
            }
        }
    }
    result
}
