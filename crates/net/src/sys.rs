//! Raw syscall bindings for the poller — declared by hand because the build
//! environment vendors no `libc` crate. `std` already links the platform C
//! library, so these `extern "C"` declarations resolve against it at link
//! time; only the tiny slice of the API the reactor needs is declared.
//!
//! The constants and struct layouts are Linux's; the crate builds on Linux
//! only.

#![allow(non_camel_case_types)]

use std::os::unix::io::RawFd;

pub type c_int = i32;

// -- errno ------------------------------------------------------------------

/// The calling thread's `errno` as a Rust error.
pub fn last_errno() -> std::io::Error {
    std::io::Error::last_os_error()
}

/// `Err(errno)` when `rc` is negative, `Ok(rc)` otherwise — the usual
/// C return-code convention.
pub fn cvt(rc: c_int) -> std::io::Result<c_int> {
    if rc < 0 {
        Err(last_errno())
    } else {
        Ok(rc)
    }
}

// -- epoll ------------------------------------------------------------------

pub mod epoll {
    use super::{c_int, RawFd};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`. The kernel ABI packs this to 12 bytes on
    /// x86-64 (a plain `repr(C)` would pad `data` to an 8-byte boundary
    /// and corrupt every event after the first in `epoll_wait`'s array).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: RawFd, op: c_int, fd: RawFd, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(
            epfd: RawFd,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
    }
}

// -- pipes, fds -------------------------------------------------------------

pub const O_NONBLOCK: c_int = 0o4000;
pub const O_CLOEXEC: c_int = 0o2000000;

/// `struct iovec` for `writev(2)` — one gather segment.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct iovec {
    pub iov_base: *const u8,
    pub iov_len: usize,
}

extern "C" {
    pub fn close(fd: RawFd) -> c_int;
    pub fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
    pub fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
    pub fn writev(fd: RawFd, iov: *const iovec, iovcnt: c_int) -> isize;
    pub fn pipe2(fds: *mut RawFd, flags: c_int) -> c_int;
}

/// A nonblocking, close-on-exec pipe: `(read_end, write_end)`.
pub fn nonblocking_pipe() -> std::io::Result<(RawFd, RawFd)> {
    let mut fds: [RawFd; 2] = [-1; 2];
    // SAFETY: `fds` is the two-element array `pipe2` writes the ends into.
    cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
    Ok((fds[0], fds[1]))
}

// -- rlimit -----------------------------------------------------------------

pub const RLIMIT_NOFILE: c_int = 7;

#[repr(C)]
#[derive(Clone, Copy)]
pub struct rlimit {
    pub rlim_cur: u64,
    pub rlim_max: u64,
}

extern "C" {
    pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
}
