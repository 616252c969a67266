//! Readiness notification behind a thin, scoped-`unsafe` syscall shim.
//!
//! The sharded session runtime multiplexes hundreds of non-blocking
//! sockets per I/O thread, which needs exactly one OS facility the
//! standard library does not expose: "tell me which of these file
//! descriptors are readable/writable". This module wraps that facility
//! — and nothing else — behind a safe API:
//!
//! * **Linux**: level-triggered `epoll` (`epoll_create1` /
//!   `epoll_ctl` / `epoll_wait`), O(ready) per wakeup.
//! * **Other Unix**: `poll(2)` over a registration table, O(watched)
//!   per wakeup but fully portable.
//! * **Non-Unix**: a degraded timer backend that reports every
//!   registered socket as ready on a short tick; correct (all callers
//!   handle `WouldBlock`) but not efficient. It keeps the crate
//!   compiling and the tests passing off-Unix.
//!
//! On Linux the portable `poll(2)` backend is compiled in as well and
//! selected at runtime when `DDC_FORCE_POLL` is set in the environment
//! (any value other than empty or `0`). Without the override the
//! fallback was dead code on the platform every CI runner uses; with
//! it, the same loopback suite exercises both backends.
//!
//! Each [`Poller`] also owns a [`Waker`] — a `pipe(2)` whose read end
//! sits in the interest set — so another thread can interrupt a
//! blocked `wait` the moment it posts a notice to a shard, instead of
//! the shard discovering it a poll-timeout later. Waker readiness is
//! absorbed inside [`Poller::wait`]; callers only ever see socket
//! events.
//!
//! This is the only module in the crate allowed to use `unsafe`
//! (`lib.rs` denies it crate-wide): four foreign calls per backend,
//! each a direct syscall wrapper with its errno path converted to
//! `io::Error`.

// The whole point of this module: FFI to the readiness syscalls.
#![allow(unsafe_code)]

use std::io;
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Report when the fd is readable (or closed/errored).
    pub read: bool,
    /// Report when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read+write interest.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable, hung up, or errored (errors surface on read).
    pub readable: bool,
    /// Writable or errored.
    pub writable: bool,
}

/// The fd type registrations use: a real `RawFd` on Unix, an opaque
/// placeholder elsewhere (the degraded backend keys on tokens only).
#[cfg(unix)]
pub type OsFd = std::os::fd::RawFd;
/// The fd type registrations use: a real `RawFd` on Unix, an opaque
/// placeholder elsewhere (the degraded backend keys on tokens only).
#[cfg(not(unix))]
pub type OsFd = i32;

/// The raw fd of a socket or listener, for registration.
#[cfg(unix)]
pub fn fd_of(socket: &impl std::os::fd::AsRawFd) -> OsFd {
    socket.as_raw_fd()
}

/// The raw fd of a socket or listener, for registration (placeholder
/// off-Unix).
#[cfg(not(unix))]
pub fn fd_of<S>(_socket: &S) -> OsFd {
    0
}

/// Token the internal wake pipe is registered under; never surfaced.
const WAKE_TOKEN: u64 = u64::MAX;

/// A readiness selector over non-blocking sockets.
pub struct Poller(imp::Poller);

/// Interrupts a [`Poller::wait`] from another thread. Cheap to clone;
/// coalesces bursts (n wakes before a wait → one byte in the pipe).
#[derive(Clone)]
pub struct Waker(imp::Waker);

impl Poller {
    /// A new empty interest set (plus its internal wake pipe).
    pub fn new() -> io::Result<Poller> {
        imp::Poller::new().map(Poller)
    }

    /// A handle that can interrupt [`wait`](Poller::wait).
    pub fn waker(&self) -> Waker {
        Waker(self.0.waker())
    }

    /// Starts watching `fd` under `token`.
    pub fn add(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
        self.0.add(fd, token, interest)
    }

    /// Changes what `fd` is watched for.
    pub fn modify(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
        self.0.modify(fd, token, interest)
    }

    /// Stops watching `fd`.
    pub fn del(&self, fd: OsFd) -> io::Result<()> {
        self.0.del(fd)
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// lapses, or a [`Waker`] fires; appends readiness to `events`
    /// (cleared first). A waker-only wakeup returns an empty set.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.0.wait(events, timeout)
    }
}

impl Waker {
    /// Interrupts the owning poller's current (or next) `wait`.
    pub fn wake(&self) {
        self.0.wake();
    }
}

/// Milliseconds for a C timeout argument: `None` → infinite (-1),
/// sub-millisecond → 1 (rounding to 0 would busy-spin).
#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => d.as_millis().clamp(1, i32::MAX as u128) as i32,
    }
}

/// True when `DDC_FORCE_POLL` asks for the portable `poll(2)` backend
/// (any non-empty value other than `0`). Read once: mixing backends
/// within a process would be confusing for no benefit.
#[cfg(target_os = "linux")]
fn force_poll() -> bool {
    static FORCE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var_os("DDC_FORCE_POLL").is_some_and(|v| !v.is_empty() && v != *"0")
    })
}

/// Which readiness backend new [`Poller`]s use: `"epoll"`, `"poll"` or
/// `"degraded"` — for startup logs and the CI smoke that proves the
/// `DDC_FORCE_POLL` override took effect.
pub fn backend_name() -> &'static str {
    #[cfg(target_os = "linux")]
    {
        if force_poll() {
            "poll"
        } else {
            "epoll"
        }
    }
    #[cfg(all(unix, not(target_os = "linux")))]
    {
        "poll"
    }
    #[cfg(not(unix))]
    {
        "degraded"
    }
}

/// Re-arms a pipe waker after its pipe has been emptied. The order
/// matters: a `wake()` landing between the drain and this store sees
/// `pending` still set and writes nothing, which is safe because its
/// mailbox post is already visible and the shard drains the mailbox
/// after every `wait`. Re-arming *before* the drain would let that
/// `wake()` write a byte the drain then swallows, leaving `pending` set
/// over an empty pipe: every later `wake()` would be silent and the
/// shard would sleep until a socket event.
#[cfg(unix)]
fn drain_then_rearm(pending: &std::sync::atomic::AtomicBool) {
    #[cfg(test)]
    tests::in_drain_window();
    pending.store(false, std::sync::atomic::Ordering::SeqCst);
}

// ---------------------------------------- linux: epoll/poll dispatch

#[cfg(target_os = "linux")]
mod imp {
    use super::{poll_imp, Event, Interest, OsFd};
    use std::io;
    use std::time::Duration;

    pub enum Poller {
        Epoll(super::epoll_imp::Poller),
        Poll(poll_imp::Poller),
    }

    #[derive(Clone)]
    pub enum Waker {
        Epoll(super::epoll_imp::Waker),
        Poll(poll_imp::Waker),
    }

    impl Waker {
        pub fn wake(&self) {
            match self {
                Waker::Epoll(w) => w.wake(),
                Waker::Poll(w) => w.wake(),
            }
        }
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            if super::force_poll() {
                poll_imp::Poller::new().map(Poller::Poll)
            } else {
                super::epoll_imp::Poller::new().map(Poller::Epoll)
            }
        }

        pub fn waker(&self) -> Waker {
            match self {
                Poller::Epoll(p) => Waker::Epoll(p.waker()),
                Poller::Poll(p) => Waker::Poll(p.waker()),
            }
        }

        pub fn add(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            match self {
                Poller::Epoll(p) => p.add(fd, token, interest),
                Poller::Poll(p) => p.add(fd, token, interest),
            }
        }

        pub fn modify(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            match self {
                Poller::Epoll(p) => p.modify(fd, token, interest),
                Poller::Poll(p) => p.modify(fd, token, interest),
            }
        }

        pub fn del(&self, fd: OsFd) -> io::Result<()> {
            match self {
                Poller::Epoll(p) => p.del(fd),
                Poller::Poll(p) => p.del(fd),
            }
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            match self {
                Poller::Epoll(p) => p.wait(events, timeout),
                Poller::Poll(p) => p.wait(events, timeout),
            }
        }
    }
}

// ------------------------------------------------------------ linux: epoll

#[cfg(target_os = "linux")]
mod epoll_imp {
    use super::{Event, Interest, OsFd, WAKE_TOKEN};
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const O_NONBLOCK: i32 = 0o4000;
    const O_CLOEXEC: i32 = 0o2000000;

    /// The kernel ABI struct. x86 packs it to 12 bytes; other arches
    /// use natural alignment.
    #[derive(Clone, Copy)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP; // always hear about peer half-close
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    struct WakeFd {
        fd: i32,
        pending: AtomicBool,
    }

    impl Drop for WakeFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    #[derive(Clone)]
    pub struct Waker(Arc<WakeFd>);

    impl Waker {
        pub fn wake(&self) {
            // Coalesce: one unread byte is enough to make wait return.
            if !self.0.pending.swap(true, Ordering::SeqCst) {
                let b = 1u8;
                unsafe { write(self.0.fd, &b, 1) };
            }
        }
    }

    pub struct Poller {
        epfd: i32,
        wake_read: i32,
        waker: Waker,
        /// Bounds one wait's report; level-triggered epoll re-reports
        /// anything still ready, so a small batch loses nothing.
        max_events: usize,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let mut fds = [0i32; 2];
            if let Err(e) = cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) }) {
                unsafe { close(epfd) };
                return Err(e);
            }
            let poller = Poller {
                epfd,
                wake_read: fds[0],
                waker: Waker(Arc::new(WakeFd {
                    fd: fds[1],
                    pending: AtomicBool::new(false),
                })),
                max_events: 256,
            };
            poller.add(fds[0], WAKE_TOKEN, Interest::READ)?;
            Ok(poller)
        }

        pub fn waker(&self) -> Waker {
            self.waker.clone()
        }

        fn ctl(&self, op: i32, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask_of(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn add(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn del(&self, fd: OsFd) -> io::Result<()> {
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) })
                .map(|_| ())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut buf = vec![EpollEvent { events: 0, data: 0 }; self.max_events];
            let n = loop {
                let r = unsafe {
                    epoll_wait(
                        self.epfd,
                        buf.as_mut_ptr(),
                        buf.len() as i32,
                        super::timeout_ms(timeout),
                    )
                };
                if r >= 0 {
                    break r as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &buf[..n] {
                let ev = *ev; // copy out of the (possibly packed) ABI struct
                let data = ev.data;
                let bits = ev.events;
                if data == WAKE_TOKEN {
                    self.drain_wake();
                    continue;
                }
                events.push(Event {
                    token: data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }

        fn drain_wake(&self) {
            // Empty the pipe, then re-arm: see `super::drain_then_rearm`.
            let mut sink = [0u8; 64];
            while unsafe { read(self.wake_read, sink.as_mut_ptr(), sink.len()) } > 0 {}
            super::drain_then_rearm(&self.waker.0.pending);
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wake_read);
                close(self.epfd);
            }
        }
    }
}

// ------------------------------------------------ any unix: poll(2)

// On non-Linux Unix this is the only real backend; on Linux it is the
// `DDC_FORCE_POLL` alternative behind the dispatch enum above.
#[cfg(all(unix, not(target_os = "linux")))]
use poll_imp as imp;

#[cfg(unix)]
mod poll_imp {
    use super::{Event, Interest, OsFd, WAKE_TOKEN};
    use std::collections::HashMap;
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const F_SETFL: i32 = 4;
    // O_NONBLOCK differs across the BSD family and Linux.
    const O_NONBLOCK: i32 = if cfg!(any(
        target_os = "macos",
        target_os = "ios",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd",
        target_os = "dragonfly"
    )) {
        0x4
    } else {
        0o4000
    };

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    struct WakeFd {
        fd: i32,
        pending: AtomicBool,
    }

    impl Drop for WakeFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    #[derive(Clone)]
    pub struct Waker(Arc<WakeFd>);

    impl Waker {
        pub fn wake(&self) {
            if !self.0.pending.swap(true, Ordering::SeqCst) {
                let b = 1u8;
                unsafe { write(self.0.fd, &b, 1) };
            }
        }
    }

    pub struct Poller {
        registered: Mutex<HashMap<OsFd, (u64, Interest)>>,
        wake_read: i32,
        waker: Waker,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            for fd in fds {
                unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) };
            }
            Ok(Poller {
                registered: Mutex::new(HashMap::new()),
                wake_read: fds[0],
                waker: Waker(Arc::new(WakeFd {
                    fd: fds[1],
                    pending: AtomicBool::new(false),
                })),
            })
        }

        pub fn waker(&self) -> Waker {
            self.waker.clone()
        }

        pub fn add(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        pub fn del(&self, fd: OsFd) -> io::Result<()> {
            self.registered.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = vec![PollFd {
                fd: self.wake_read,
                events: POLLIN,
                revents: 0,
            }];
            let tokens: Vec<u64> = {
                let reg = self.registered.lock().unwrap();
                let mut tokens = Vec::with_capacity(reg.len());
                for (&fd, &(token, interest)) in reg.iter() {
                    let mut mask = 0i16;
                    if interest.read {
                        mask |= POLLIN;
                    }
                    if interest.write {
                        mask |= POLLOUT;
                    }
                    fds.push(PollFd {
                        fd,
                        events: mask,
                        revents: 0,
                    });
                    tokens.push(token);
                }
                tokens
            };
            let n = loop {
                let r = unsafe {
                    poll(
                        fds.as_mut_ptr(),
                        fds.len() as u32,
                        super::timeout_ms(timeout),
                    )
                };
                if r >= 0 {
                    break r;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            if fds[0].revents != 0 {
                let mut sink = [0u8; 64];
                while unsafe { read(self.wake_read, sink.as_mut_ptr(), sink.len()) } > 0 {}
                super::drain_then_rearm(&self.waker.0.pending);
            }
            for (pf, &token) in fds[1..].iter().zip(&tokens) {
                if pf.revents == 0 || token == WAKE_TOKEN {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: pf.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: pf.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.wake_read) };
        }
    }
}

// ------------------------------------------------- non-unix: degraded ticker

#[cfg(not(unix))]
mod imp {
    use super::{Event, Interest, OsFd};
    use std::collections::HashMap;
    use std::io;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// No readiness facility: report everything registered as ready on
    /// a short tick. Handlers tolerate spurious readiness (WouldBlock),
    /// so this is correct, just not efficient.
    pub struct Poller {
        registered: Mutex<HashMap<(OsFd, u64), Interest>>,
        wake: Arc<(Mutex<bool>, Condvar)>,
    }

    #[derive(Clone)]
    pub struct Waker(Arc<(Mutex<bool>, Condvar)>);

    impl Waker {
        pub fn wake(&self) {
            *self.0 .0.lock().unwrap() = true;
            self.0 .1.notify_all();
        }
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(HashMap::new()),
                wake: Arc::new((Mutex::new(false), Condvar::new())),
            })
        }

        pub fn waker(&self) -> Waker {
            Waker(self.wake.clone())
        }

        pub fn add(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert((fd, token), interest);
            Ok(())
        }

        pub fn modify(&self, fd: OsFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert((fd, token), interest);
            Ok(())
        }

        pub fn del(&self, fd: OsFd) -> io::Result<()> {
            let mut reg = self.registered.lock().unwrap();
            reg.retain(|&(rfd, _), _| rfd != fd);
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let tick = timeout
                .unwrap_or(Duration::from_millis(2))
                .min(Duration::from_millis(2));
            {
                let (flag, cv) = &*self.wake;
                let mut woken = flag.lock().unwrap();
                if !*woken {
                    let (guard, _) = cv.wait_timeout(woken, tick).unwrap();
                    woken = guard;
                }
                *woken = false;
            }
            for (&(_fd, token), &interest) in self.registered.lock().unwrap().iter() {
                events.push(Event {
                    token,
                    readable: interest.read,
                    writable: interest.write,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::rc::Rc;
    use std::time::Instant;

    type Hook = Box<dyn FnMut()>;

    thread_local! {
        /// Runs on this thread between a poller emptying its wake pipe
        /// and re-arming its waker.
        static DRAIN_WINDOW: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// The test seam [`drain_then_rearm`] calls.
    pub(super) fn in_drain_window() {
        DRAIN_WINDOW.with(|h| {
            if let Some(f) = h.borrow_mut().as_mut() {
                f();
            }
        });
    }

    /// Forces a `wake()` into the window between draining the wake pipe
    /// and re-arming, then requires the next `wake()` to end a `wait`.
    fn wake_in_drain_window_is_not_lost(
        mut wait: impl FnMut(Duration),
        wake: impl Fn() + Clone + 'static,
    ) {
        wake();
        let fired = Rc::new(Cell::new(false));
        let (racing, seen) = (wake.clone(), Rc::clone(&fired));
        DRAIN_WINDOW.with(|h| {
            *h.borrow_mut() = Some(Box::new(move || {
                racing();
                seen.set(true);
            }))
        });
        wait(Duration::from_secs(10));
        DRAIN_WINDOW.with(|h| *h.borrow_mut() = None);
        assert!(fired.get(), "the wait never drained the wake pipe");

        wake();
        let t0 = Instant::now();
        wait(Duration::from_secs(10));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "a wake() after one raced the drain was lost"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_wake_racing_the_drain_is_not_lost() {
        let poller = epoll_imp::Poller::new().unwrap();
        let waker = poller.waker();
        let mut events = Vec::new();
        wake_in_drain_window_is_not_lost(
            |t| poller.wait(&mut events, Some(t)).unwrap(),
            move || waker.wake(),
        );
    }

    #[cfg(unix)]
    #[test]
    fn poll_wake_racing_the_drain_is_not_lost() {
        let poller = poll_imp::Poller::new().unwrap();
        let waker = poller.waker();
        let mut events = Vec::new();
        wake_in_drain_window_is_not_lost(
            |t| poller.wait(&mut events, Some(t)).unwrap(),
            move || waker.wake(),
        );
    }

    #[test]
    fn backend_selection_honours_force_poll() {
        let forced = std::env::var_os("DDC_FORCE_POLL").is_some_and(|v| !v.is_empty() && v != *"0");
        let expected = if cfg!(not(unix)) {
            "degraded"
        } else if forced || cfg!(all(unix, not(target_os = "linux"))) {
            "poll"
        } else {
            "epoll"
        };
        assert_eq!(backend_name(), expected);
    }

    /// The poll(2) backend itself, driven directly so the suite covers
    /// it even on Linux runs where epoll is the default.
    #[cfg(unix)]
    #[test]
    fn poll_backend_reports_readability_and_waker() {
        use super::poll_imp;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = poll_imp::Poller::new().unwrap();
        poller.add(fd_of(&server), 11, Interest::READ).unwrap();
        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 11 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "poll backend never reported");
        }
        // Waker interrupts a long poll(2) sleep too.
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        // Drain the readable socket first so only the waker can end
        // the wait early.
        let mut buf = [0u8; 8];
        let _ = (&server).read(&mut buf).unwrap();
        poller.del(fd_of(&server)).unwrap();
        let t0 = Instant::now();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "waker did not fire");
        t.join().unwrap();
    }

    #[test]
    fn waker_interrupts_a_long_wait() {
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "wait was not interrupted"
        );
        assert!(events.is_empty(), "waker readiness leaked as an event");
        t.join().unwrap();
    }

    #[test]
    fn socket_readability_is_reported_under_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(fd_of(&server), 7, Interest::READ).unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        // Degraded backends may need a tick or two before reporting.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "readability never reported");
        }
        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        poller.del(fd_of(&server)).unwrap();
    }

    #[test]
    fn writability_tracks_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // Read-only first: an idle writable socket must stay silent
        // (otherwise a level-triggered loop spins).
        poller.add(fd_of(&server), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        #[cfg(unix)]
        assert!(
            !events.iter().any(|e| e.token == 1 && e.writable),
            "write readiness reported without write interest"
        );
        // Now ask for write interest: an empty socket buffer reports
        // writable promptly.
        poller.modify(fd_of(&server), 1, Interest::BOTH).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 1 && e.writable) {
                break;
            }
            assert!(Instant::now() < deadline, "writability never reported");
        }
        drop(client);
    }
}
