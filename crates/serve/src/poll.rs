//! Readiness polling over raw file descriptors, and the cross-thread
//! [`Waker`] that interrupts it.
//!
//! Each IO worker multiplexes its listener share, all of its connections
//! and its waker through a single `poll(2)` call per loop iteration — the
//! same readiness discipline a mio/epoll reactor uses, hand-rolled here
//! because the build environment has no crates.io access. `libstd` already
//! links `libc` on unix, so a one-function `extern "C"` binding is all
//! that is needed.
//!
//! Nothing in the server polls on a fixed tick: a worker sleeps in `poll`
//! until a socket is ready, a header deadline falls due, or another thread
//! calls [`Waker::wake`] (the engine after it pushed tokens, or
//! `ServerHandle` on shutdown).
//!
//! On non-unix targets the module degrades to a short sleep that reports
//! every descriptor as ready — the waker included, which is then only its
//! flag; combined with non-blocking sockets this yields a correct (if
//! busier) polling loop.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// Readable readiness (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (`POLLERR`); only ever set in `revents`.
pub const POLLERR: i16 = 0x008;
/// Peer hang-up (`POLLHUP`); only ever set in `revents`.
pub const POLLHUP: i16 = 0x010;

/// One entry in the poll set, layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: i32,
    /// Requested events (`POLLIN` / `POLLOUT` bits).
    pub events: i16,
    /// Returned events, filled in by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// A poll entry asking for `events` on `fd`.
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// Whether the descriptor came back readable (or errored/hung up,
    /// which also requires a read attempt to observe).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    /// Whether the descriptor came back writable.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use super::PollFd;
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    pub fn poll_impl(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `PollFd` is #[repr(C)] and layout-compatible with the
        // kernel's `struct pollfd`; the pointer/length pair describes a
        // valid, exclusively borrowed slice for the duration of the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                // EINTR: report "nothing ready"; the caller loops anyway.
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(not(unix))]
mod sys {
    use super::PollFd;
    use std::io;

    pub fn poll_impl(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // Fallback: pretend everything is ready after a short nap. The
        // sockets are non-blocking, so spurious readiness only costs a
        // WouldBlock syscall per descriptor.
        std::thread::sleep(std::time::Duration::from_millis(timeout_ms.clamp(0, 2) as u64));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

/// Waits up to `timeout_ms` for readiness on any entry in `fds`.
///
/// Returns the number of entries with non-zero `revents`. `EINTR` is
/// swallowed and reported as zero readiness.
///
/// # Errors
///
/// Propagates any other `poll(2)` failure (e.g. `EINVAL` on an absurd fd
/// count) as an [`io::Error`].
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    if fds.is_empty() {
        std::thread::sleep(std::time::Duration::from_millis(timeout_ms.clamp(0, 10) as u64));
        return Ok(0);
    }
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    sys::poll_impl(fds, timeout_ms)
}

/// Wakes one IO worker out of [`poll`] from another thread.
///
/// The read end of a socket pair sits in the worker's poll set; a wake
/// makes it readable with one byte. Wakes coalesce on the `pending` flag:
/// between two [`Waker::reset`]s any number of [`Waker::wake`]s cost one
/// 1-byte write, so at most one byte is ever unread.
///
/// No wake-up is lost as long as the woken side calls [`Waker::reset`]
/// *before* it looks at whatever the wake announces: a producer that
/// publishes after the look finds `pending` already clear and writes a
/// fresh byte, which the next `poll` returns on at once. (Both sides use
/// `SeqCst`, the producer's publish-then-`wake` against the consumer's
/// `reset`-then-look being the store-buffering pattern weaker orderings
/// allow to miss in both directions.)
#[derive(Debug)]
pub struct Waker {
    pending: AtomicBool,
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    /// A waker with nothing pending.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the non-blocking socket pair.
    pub fn new() -> io::Result<Self> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Waker { pending: AtomicBool::new(false), tx, rx })
        }
        #[cfg(not(unix))]
        Ok(Waker { pending: AtomicBool::new(false) })
    }

    /// The descriptor to watch for `POLLIN`.
    pub fn fd(&self) -> i32 {
        #[cfg(unix)]
        {
            std::os::unix::io::AsRawFd::as_raw_fd(&self.rx)
        }
        #[cfg(not(unix))]
        0
    }

    /// Makes the owning worker's `poll` return. Returns whether this call
    /// paid for the wake-up (`false`: one is already on its way).
    pub fn wake(&self) -> bool {
        if self.pending.swap(true, Ordering::SeqCst) {
            return false;
        }
        #[cfg(unix)]
        if let Err(e) = io::Write::write(&mut &self.tx, &[1]) {
            // A full buffer means unread wake bytes: the worker is due to
            // wake anyway. Anything else: re-arm so the next wake retries.
            if e.kind() != io::ErrorKind::WouldBlock {
                self.pending.store(false, Ordering::SeqCst);
            }
            return false;
        }
        true
    }

    /// Consumes the wake byte, then re-arms. The woken worker calls this
    /// before it inspects the state the wake announced (see the type docs
    /// for why the order matters).
    pub fn reset(&self) {
        #[cfg(unix)]
        {
            let mut sink = [0u8; 8];
            while matches!(io::Read::read(&mut &self.rx, &mut sink), Ok(n) if n > 0) {}
        }
        self.pending.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[cfg(unix)]
    fn raw_fd(stream: &TcpStream) -> i32 {
        use std::os::unix::io::AsRawFd;
        stream.as_raw_fd()
    }

    #[cfg(unix)]
    #[test]
    fn reports_readable_after_peer_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut fds = [PollFd::new(raw_fd(&server), POLLIN)];
        // Nothing written yet: times out with no readiness.
        assert_eq!(poll(&mut fds, 10).unwrap(), 0);
        assert!(!fds[0].readable());

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let ready = poll(&mut fds, 1_000).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].readable());
    }

    #[cfg(unix)]
    #[test]
    fn reports_writable_on_fresh_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        let mut fds = [PollFd::new(raw_fd(&client), POLLOUT)];
        assert_eq!(poll(&mut fds, 1_000).unwrap(), 1);
        assert!(fds[0].writable());
    }

    /// Bytes readable on the waker right now.
    #[cfg(unix)]
    fn unread(waker: &Waker) -> usize {
        let mut buf = [0u8; 64];
        match std::io::Read::read(&mut &waker.rx, &mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
            Err(e) => panic!("waker read: {e}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn wakes_before_a_reset_coalesce_into_one_byte() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 0).unwrap(), 0, "nothing pending on a fresh waker");
        assert!(waker.wake(), "first wake pays");
        for _ in 0..99 {
            assert!(!waker.wake(), "later wakes ride the pending one");
        }
        assert_eq!(poll(&mut fds, 1_000).unwrap(), 1);
        assert!(fds[0].readable());
        assert_eq!(unread(&waker), 1, "100 wakes, one byte");
    }

    /// The lost-wake-up interleaving: the worker has reset (and is about to
    /// look at its outboxes, or already has) when the producer publishes.
    /// The producer must find the flag clear and write a fresh byte.
    #[cfg(unix)]
    #[test]
    fn a_wake_after_reset_rearms() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert!(waker.wake());
        waker.reset();
        assert_eq!(poll(&mut fds, 0).unwrap(), 0, "reset consumed the byte");
        assert!(waker.wake(), "a wake after the reset pays again");
        assert_eq!(poll(&mut fds, 1_000).unwrap(), 1, "so the next poll returns at once");
        waker.reset();
        assert_eq!(unread(&waker), 0);
    }

    #[cfg(unix)]
    #[test]
    fn wake_interrupts_a_blocked_poll_from_another_thread() {
        let waker = Waker::new().unwrap();
        let entered = std::sync::Barrier::new(2);
        let (ready, waited) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut fds = [PollFd::new(waker.fd(), POLLIN)];
                entered.wait();
                let started = std::time::Instant::now();
                let ready = poll(&mut fds, 30_000).unwrap();
                (ready, started.elapsed())
            });
            entered.wait();
            waker.wake();
            poller.join().unwrap()
        });
        assert_eq!(ready, 1);
        assert!(waited < std::time::Duration::from_secs(10), "woken, not timed out: {waited:?}");
    }

    #[test]
    fn empty_set_just_sleeps() {
        assert_eq!(poll(&mut [], 1).unwrap(), 0);
    }
}
