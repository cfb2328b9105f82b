//! Per-thread OS counters from `/proc/self/task/*`: CPU time, context
//! switches and read/write syscalls, grouped by the server's thread names.
//!
//! Threads that have exited vanish from `/proc/self/task`, so callers
//! snapshot around a phase and threads that end inside it (the load
//! generator) read their own counters through [`thread_self`] first.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every Linux ABI).
const USER_HZ: u64 = 100;

/// Counters of one thread (or a sum of threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// CPU time in nanoseconds (`schedstat`, else `stat` utime + stime).
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Read-class plus write-class syscalls (`syscr + syscw`).
    pub rw_syscalls: u64,
}

impl TaskCounters {
    /// Field-wise `self - earlier`, saturating at zero.
    pub fn since(self, earlier: TaskCounters) -> TaskCounters {
        TaskCounters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            rw_syscalls: self.rw_syscalls.saturating_sub(earlier.rw_syscalls),
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, other: TaskCounters) {
        self.cpu_ns += other.cpu_ns;
        self.ctx_switches += other.ctx_switches;
        self.rw_syscalls += other.rw_syscalls;
    }
}

/// The command name and `utime + stime` in ns of a `stat` line. The name
/// sits in parentheses and may itself contain spaces or parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat(stat: &str) -> Option<(String, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat.get(open + 1..close)?.to_string();
    let fields: Vec<&str> = stat.get(close + 1..)?.split_whitespace().collect();
    // After the name: state(3) … utime(14) stime(15), 1-based per proc(5).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((comm, (utime + stime) * (1_000_000_000 / USER_HZ)))
}

/// CPU nanoseconds from a `schedstat` line (its first field).
fn parse_schedstat(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Voluntary plus involuntary context switches from a `status` file.
fn parse_status_ctx_switches(status: &str) -> Option<u64> {
    let voluntary = status_field(status, "voluntary_ctxt_switches:")?;
    let involuntary = status_field(status, "nonvoluntary_ctxt_switches:")?;
    Some(voluntary + involuntary)
}

/// `syscr + syscw` from an `io` file.
fn parse_io_syscalls(io: &str) -> Option<u64> {
    Some(status_field(io, "syscr:")? + status_field(io, "syscw:")?)
}

/// The first number after the line starting with `key` (e.g. `VmHWM:`).
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
}

/// Command name and counters of the task whose `/proc` directory is `dir`.
/// `None` when the task exited while being read.
pub fn read_task(dir: &Path) -> Option<(String, TaskCounters)> {
    let (comm, stat_cpu_ns) = parse_stat(&fs::read_to_string(dir.join("stat")).ok()?)?;
    let cpu_ns = fs::read_to_string(dir.join("schedstat"))
        .ok()
        .and_then(|text| parse_schedstat(&text))
        .unwrap_or(stat_cpu_ns);
    let ctx_switches = parse_status_ctx_switches(&fs::read_to_string(dir.join("status")).ok()?)?;
    // `io` needs task I/O accounting; without it syscalls read as 0.
    let rw_syscalls = fs::read_to_string(dir.join("io"))
        .ok()
        .and_then(|text| parse_io_syscalls(&text))
        .unwrap_or(0);
    Some((
        comm,
        TaskCounters {
            cpu_ns,
            ctx_switches,
            rw_syscalls,
        },
    ))
}

/// Counters of the calling thread.
pub fn thread_self() -> TaskCounters {
    read_task(Path::new("/proc/thread-self"))
        .map(|(_, counters)| counters)
        .unwrap_or_default()
}

/// Every live thread of this process: tid → (name, counters).
pub fn snapshot() -> BTreeMap<u64, (String, TaskCounters)> {
    let mut tasks = BTreeMap::new();
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return tasks;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(task) = read_task(&entry.path()) {
            tasks.insert(tid, task);
        }
    }
    tasks
}

/// CPU time of the whole process in ns, exited threads included.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| parse_stat(&text))
        .map(|(_, ns)| ns)
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in KiB.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| status_field(&text, "VmHWM:"))
        .unwrap_or(0)
}

/// Thread groups the counters are reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// `wtq-reactor-*`: the event loops owning every socket.
    Reactor,
    /// `wtq-dispatch-*`: the dispatch pool and the batch workers it spawns.
    Dispatch,
    /// `bench-*` and the main thread: the benchmark itself.
    Bench,
    /// Any other thread (the acceptor, or threads a future server adds).
    Other,
}

/// Name prefix of the load generator's threads.
pub const GEN_THREAD_PREFIX: &str = "bench-gen-";

/// The group of thread `tid` named `comm` in process `pid`.
pub fn group_of(tid: u64, comm: &str, pid: u64) -> Group {
    if comm.starts_with("wtq-reactor-") {
        Group::Reactor
    } else if comm.starts_with("wtq-dispatch-") {
        Group::Dispatch
    } else if tid == pid || comm.starts_with("bench-") {
        Group::Bench
    } else {
        Group::Other
    }
}

/// Per-group counter deltas between two snapshots, plus each group's live
/// thread count at `end`. Threads born inside the interval count from
/// zero; threads that died inside it are lost (see the module docs).
pub fn group_deltas(
    start: &BTreeMap<u64, (String, TaskCounters)>,
    end: &BTreeMap<u64, (String, TaskCounters)>,
    pid: u64,
) -> BTreeMap<Group, (TaskCounters, usize)> {
    let mut groups: BTreeMap<Group, (TaskCounters, usize)> = BTreeMap::new();
    for (tid, (comm, counters)) in end {
        let before = start.get(tid).map(|(_, c)| *c).unwrap_or_default();
        let entry = groups.entry(group_of(*tid, comm, pid)).or_default();
        entry.0.add(counters.since(before));
        entry.1 += 1;
    }
    groups
}
