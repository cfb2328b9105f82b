//! The readiness poller: a level-triggered wrapper over `epoll`, with
//! explicit per-fd interest management.
//!
//! Level-triggered on purpose: the reactor re-polls until its reads and
//! writes hit `WouldBlock`, so a level-triggered poller cannot lose a
//! wakeup the way a mishandled edge-triggered one can — correctness first,
//! and the syscall count is identical for the request-sized frames this
//! server moves.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys::{self, epoll};

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read, or the peer closed / errored (reading
    /// surfaces the exact condition, so error states map to readable).
    pub readable: bool,
    /// The fd can accept bytes.
    pub writable: bool,
}

/// A level-triggered readiness poller over raw fds.
///
/// The caller keeps fd ownership; the poller only watches. Registrations
/// are keyed by caller-chosen `u64` tokens, echoed back in [`Event`]s.
pub struct Poller {
    epfd: RawFd,
    /// Scratch buffer reused across waits.
    buf: Vec<epoll::epoll_event>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("epfd", &self.epfd).finish()
    }
}

impl Poller {
    /// A fresh poller.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; `cvt` rejects a
        // negative return before it is used as an fd.
        let epfd = sys::cvt(unsafe { epoll::epoll_create1(epoll::EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            buf: vec![epoll::epoll_event { events: 0, data: 0 }; 256],
        })
    }

    /// Start watching `fd` under `token`.
    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(epoll::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change what an already-registered `fd` is woken for.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(epoll::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`. Call it *before* the fd is closed: a closed fd
    /// leaves epoll on its own, and a delete after the close fails.
    pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        let mut event = epoll::epoll_event { events: 0, data: 0 };
        // SAFETY: `event` is a live `epoll_event` for the whole call (the
        // kernel ignores it for `EPOLL_CTL_DEL`).
        sys::cvt(unsafe { epoll::epoll_ctl(self.epfd, epoll::EPOLL_CTL_DEL, fd, &mut event) })?;
        Ok(())
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// expires (`None` blocks indefinitely), appending readiness to
    /// `events` (cleared first). Returns the number of events delivered.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let n = loop {
            // SAFETY: `buf` holds `buf.len()` initialized events, and
            // `epoll_wait` writes at most `maxevents = buf.len()` of them.
            let rc = unsafe {
                epoll::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = sys::last_errno();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for raw in &self.buf[..n] {
            let bits = raw.events;
            events.push(Event {
                token: raw.data,
                readable: bits
                    & (epoll::EPOLLIN | epoll::EPOLLHUP | epoll::EPOLLERR | epoll::EPOLLRDHUP)
                    != 0,
                writable: bits & (epoll::EPOLLOUT | epoll::EPOLLERR) != 0,
            });
        }
        Ok(n)
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = epoll::epoll_event {
            events: mask(interest),
            data: token,
        };
        // SAFETY: `event` is a live, initialized `epoll_event` for the
        // whole call.
        sys::cvt(unsafe { epoll::epoll_ctl(self.epfd, op, fd, &mut event) })?;
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the poller owns `epfd` and closes it exactly once, here.
        unsafe { sys::close(self.epfd) };
    }
}

fn mask(interest: Interest) -> u32 {
    let mut mask = 0;
    if interest.readable {
        // RDHUP rides with read interest only: a connection that has
        // already seen EOF parks with an empty mask, and a half-closed
        // peer cannot spin the reactor while its request is in flight.
        mask |= epoll::EPOLLIN | epoll::EPOLLRDHUP;
    }
    if interest.writable {
        mask |= epoll::EPOLLOUT;
    }
    mask
}

/// Clamp an optional timeout to the C `int` milliseconds `epoll_wait`
/// takes (`-1` blocks).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(duration) => duration.as_millis().min(i32::MAX as u128) as i32,
    }
}
