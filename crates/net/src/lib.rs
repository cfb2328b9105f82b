//! # wtq-net
//!
//! Hand-rolled nonblocking I/O primitives for the serving layer — the
//! pieces a readiness-driven reactor is built from, with **zero external
//! crates** (the build environment is offline: no tokio, no mio, not even
//! `libc` — the few syscalls needed are declared by hand in [`sys`] and
//! resolve against the C library `std` already links). Linux only: the
//! poller is `epoll`, and the syscall bindings use Linux's constants and
//! layouts.
//!
//! * [`Poller`] — a level-triggered `epoll` readiness poller.
//!   Caller-owned fds, `u64` tokens, explicit per-fd [`Interest`]
//!   management.
//! * [`Waker`]/[`WakeReceiver`] — a self-pipe wakeup so other threads
//!   (worker pools completing responses, acceptors handing off sockets,
//!   shutdown) can interrupt a blocked [`Poller::wait`].
//! * [`rlimit`] — `RLIMIT_NOFILE` helpers so many-connection benches can
//!   raise the soft fd limit and clamp honestly to what they got.
//! * [`write_vectored`] — a `writev(2)` gather write, so multi-segment
//!   responses (frame head, cached body, static tail) reach the socket in
//!   one syscall without an intermediate concatenation.
//!
//! What this crate is *not*: a runtime. There are no futures, no tasks, no
//! executors — the server builds its event loop and per-connection state
//! machines directly on these primitives (see `wtq_server::reactor`).

#![cfg(target_os = "linux")]

pub mod poller;
pub mod rlimit;
pub mod sys;
pub mod vectored;
pub mod waker;

pub use poller::{Event, Interest, Poller};
pub use rlimit::{nofile_limit, raise_nofile_limit};
pub use vectored::write_vectored;
pub use waker::{waker, WakeReceiver, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    /// A connected loopback socket pair.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn readable_event_fires_when_bytes_arrive() {
        let (mut client, server) = socket_pair();
        let mut poller = Poller::new().unwrap();
        poller
            .add(server.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();

        // Nothing pending: a zero timeout returns no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty());

        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|event| event.token == 7 && event.readable));
    }

    #[test]
    fn interest_modification_gates_writability() {
        let (_client, server) = socket_pair();
        let mut poller = Poller::new().unwrap();
        // Read-only interest: an idle writable socket reports nothing.
        poller
            .add(server.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty());
        // Adding writable interest surfaces the (empty) send buffer.
        poller
            .modify(server.as_raw_fd(), 1, Interest::BOTH)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|event| event.token == 1 && event.writable));
    }

    #[test]
    fn deleted_registrations_stop_reporting() {
        let (mut client, server) = socket_pair();
        let mut poller = Poller::new().unwrap();
        poller
            .add(server.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(!events.is_empty());
        poller.delete(server.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn peer_close_reads_as_readable_eof() {
        let (client, mut server) = socket_pair();
        let mut poller = Poller::new().unwrap();
        poller
            .add(server.as_raw_fd(), 9, Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|event| event.token == 9 && event.readable));
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "readable means EOF here");
    }

    #[test]
    fn waker_unblocks_a_sleeping_poller_across_threads() {
        let (waker, receiver) = waker().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .add(receiver.fd(), u64::MAX, Interest::READABLE)
            .unwrap();
        // Keep one clone alive here: dropping the last write end would close
        // the pipe and leave the read end permanently readable (HUP).
        let thread_waker = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            thread_waker.wake();
            thread_waker.wake(); // coalescing duplicates is fine
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|event| event.token == u64::MAX));
        // Both wakes are in the pipe once the thread is joined; draining
        // then clears the readable state entirely.
        handle.join().unwrap();
        receiver.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn nofile_limit_is_queryable_and_raisable() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
        // Never lowers, result is capped by the hard limit.
        let got = raise_nofile_limit(soft).unwrap();
        assert!(got >= soft);
        let got = raise_nofile_limit(u64::MAX).unwrap();
        assert!(got <= hard);
    }

    #[test]
    fn many_registrations_deliver_the_right_tokens() {
        let mut pairs = Vec::new();
        let mut poller = Poller::new().unwrap();
        for token in 0..64u64 {
            let (client, server) = socket_pair();
            poller
                .add(server.as_raw_fd(), token, Interest::READABLE)
                .unwrap();
            pairs.push((client, server));
        }
        // Only every 8th connection speaks.
        for (token, (client, _)) in pairs.iter_mut().enumerate() {
            if token % 8 == 0 {
                client.write_all(b"ping").unwrap();
            }
        }
        let mut ready = std::collections::HashSet::new();
        let mut events = Vec::new();
        while ready.len() < 8 {
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(!events.is_empty(), "expected 8 ready tokens, got {ready:?}");
            for event in &events {
                assert!(event.readable);
                assert_eq!(event.token % 8, 0);
                ready.insert(event.token);
            }
        }
    }
}
