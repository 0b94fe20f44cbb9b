//! Async TCP on nonblocking `std::net` sockets, woken by epoll.
//!
//! Readiness model: every runtime owns a `Reactor`, one epoll instance
//! plus one `eventfd`, and its executor waits in that epoll whenever it has
//! nothing to run (`rt.rs`); there is no I/O thread. A socket registers
//! with the reactor of each runtime whose task parks on it, at that first
//! park, edge-triggered for readable, writable and peer hang-up, under a
//! token that is never reused (a socket closed and its fd number recycled
//! can never wake the new owner's tasks). So a listener bound on one
//! runtime can still be accepted on from another. The two halves of a split
//! stream share one socket and its registration.
//!
//! Each direction of a socket keeps a waker slot and a readiness word,
//! `(edges << 2) | closed | ready`, as tokio's `ScheduledIo` does. The
//! ready bit starts set ("try the socket"). An edge for the direction bumps
//! the edge count, sets the bit and wakes the slot's waker. An operation
//! runs only while the bit is set. `WouldBlock` clears it, and so does a
//! short read or write: under `EPOLLET` that means the kernel buffer was
//! drained (or filled), and any later change raises a new edge. The clear
//! is a compare-and-swap against the word read before the operation, so an
//! edge that landed meanwhile is never lost. An edge that reports a
//! hang-up or an error also sets the closed bit, and then nothing clears
//! the ready bit again. A task that finds the bit clear stores its waker,
//! registers, and looks at the bit once more; it parks without a syscall.
//!
//! The `eventfd` is how a waker on another thread rouses an executor parked
//! in its epoll; it is written only when the executor is parked.
//!
//! Linux-only: the epoll and eventfd calls are declared against the libc
//! that `std` already links, so the shim stays dependency-free.

use std::collections::HashMap;
use std::ffi::c_long;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::rt::Core;

const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EFD_CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const ENOSYS: i32 = 38;
const EPERM: i32 = 1;

/// The token of a reactor's own `eventfd`; sockets start at 1.
const WAKE_TOKEN: u64 = 0;

/// `struct epoll_event`. The kernel declares it packed on x86_64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    /// The user data word: the registration's token.
    token: u64,
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_pwait2(
        epfd: i32,
        events: *mut EpollEvent,
        maxevents: i32,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Registrations alive across every reactor (tests: every drop must
/// deregister).
static REGISTERED: AtomicUsize = AtomicUsize::new(0);

/// Socket registrations currently held by reactors, process-wide; a socket
/// counts once per runtime it is registered with.
#[doc(hidden)]
pub fn registered_sources() -> usize {
    REGISTERED.load(Ordering::Relaxed)
}

/// Every critical section on these mutexes is a single map, list or slot
/// operation, so a panic elsewhere cannot leave one half-updated: a poisoned
/// lock is used as it stands, and `Drop` never panics on one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wraps a returned fd, or the error a negative return stands for.
fn owned_fd(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just returned `fd`, and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// The ready bit of a [`Direction`]'s word.
const READY: u64 = 1;
/// The closed bit: the peer hung up (or the socket failed) in this
/// direction, so no operation on it can block again, and the ready bit
/// stays set. A hang-up that lands with the last bytes raises no edge after
/// the short read that takes them, so without this bit that read would
/// clear the ready bit and the end of file would never be seen.
const CLOSED: u64 = 2;
/// One edge in the count held by the bits above `CLOSED`.
const EDGE: u64 = 4;

/// One direction of a socket: the waker parked on it and its readiness.
struct Direction {
    waker: Mutex<Option<Waker>>,
    /// `(edges << 2) | CLOSED | READY`. The word publishes no memory (the bytes are
    /// the kernel's). An edge against a parking task is ordered by the
    /// `waker` mutex: the reactor takes it after its update, the task
    /// between storing its waker and its re-check, so one of the two sees
    /// the other.
    ready: AtomicU64,
}

impl Default for Direction {
    fn default() -> Direction {
        Direction { waker: Mutex::default(), ready: AtomicU64::new(READY) }
    }
}

impl Direction {
    /// Records an edge, with the hang-up it reports if `closed`, and wakes
    /// the parked waker.
    fn edge(&self, closed: bool) {
        let set = if closed { READY | CLOSED } else { READY };
        let _ = self.ready.fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
            Some((word | set).wrapping_add(EDGE))
        });
        let waker = lock(&self.waker).take();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Clears the ready bit unless an edge has landed since `seen` was read
    /// or the direction is closed.
    fn clear(&self, seen: u64) {
        if seen & CLOSED != 0 {
            return;
        }
        let _ =
            self.ready.compare_exchange(seen, seen & !READY, Ordering::AcqRel, Ordering::Acquire);
    }
}

/// One socket's two directions.
#[derive(Default)]
struct Slots {
    read: Direction,
    write: Direction,
}

/// One runtime's epoll instance, the `eventfd` that rouses it, and the
/// sockets registered with it.
pub(crate) struct Reactor {
    epfd: OwnedFd,
    /// Registered level-triggered under [`WAKE_TOKEN`]: readable from a
    /// write until the executor reads it.
    wakefd: File,
    /// Live registrations by token.
    sources: Mutex<HashMap<u64, Weak<Slots>>>,
    /// Set by the first registration. Until then the executor never polls
    /// while it has work, so a runtime without sockets (every simulation)
    /// makes no epoll call except to wait for a cross-thread wake. Written
    /// and read only on the executor's thread, which is the one a parking
    /// task runs on.
    has_sources: AtomicBool,
}

impl Reactor {
    pub(crate) fn new() -> io::Result<Reactor> {
        // SAFETY (both): plain syscalls; they take no pointers.
        let epfd = owned_fd(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let wakefd = File::from(owned_fd(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?);
        let mut ev = EpollEvent { events: EPOLLIN, token: WAKE_TOKEN };
        // SAFETY: both fds are open, and the kernel copies `ev`.
        if unsafe { epoll_ctl(epfd.as_raw_fd(), EPOLL_CTL_ADD, wakefd.as_raw_fd(), &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Reactor { epfd, wakefd, sources: Mutex::default(), has_sources: AtomicBool::new(false) })
    }

    /// Whether a socket has ever registered here.
    pub(crate) fn has_sources(&self) -> bool {
        self.has_sources.load(Ordering::Relaxed)
    }

    /// Rouses the executor waiting in [`Reactor::poll`].
    pub(crate) fn unpark(&self) {
        // Only a counter at its 2^64 - 2 ceiling refuses the write, and that
        // counter is already readable, which is all the wake needs.
        let _ = (&self.wakefd).write(&1u64.to_ne_bytes());
    }

    /// Waits up to `timeout` (zero: only looks) for readiness edges, calls
    /// `awake`, then records the edges and wakes the wakers they are for.
    /// Wakers are woken with no lock held, since waking re-enters a runtime.
    pub(crate) fn poll(&self, timeout: Duration, awake: impl FnOnce()) {
        let mut events = [EpollEvent { events: 0, token: 0 }; 64];
        let n = self.wait(&mut events, timeout);
        awake();
        for ev in &events[..n] {
            let (bits, token) = (ev.events, ev.token);
            if token == WAKE_TOKEN {
                let _ = (&self.wakefd).read(&mut [0u8; 8]);
                continue;
            }
            let slots = lock(&self.sources).get(&token).and_then(Weak::upgrade);
            let Some(slots) = slots else { continue };
            let (hup, failed) = (bits & (EPOLLRDHUP | EPOLLHUP), bits & (EPOLLHUP | EPOLLERR));
            if bits & EPOLLIN != 0 || hup | failed != 0 {
                slots.read.edge(hup | failed != 0);
            }
            if bits & EPOLLOUT != 0 || failed != 0 {
                slots.write.edge(failed != 0);
            }
        }
    }

    /// `epoll_pwait2`, whose timespec keeps sub-millisecond deadlines
    /// exact. A kernel without it (before Linux 5.11, or a sandbox that
    /// refuses it) gets `epoll_wait` with the timeout rounded up to a
    /// millisecond.
    fn wait(&self, events: &mut [EpollEvent], timeout: Duration) -> usize {
        static NO_PWAIT2: AtomicBool = AtomicBool::new(false);
        let (epfd, max) = (self.epfd.as_raw_fd(), events.len() as i32);
        let mut n = -1;
        if !NO_PWAIT2.load(Ordering::Relaxed) {
            let ts = Timespec {
                tv_sec: timeout.as_secs() as c_long,
                tv_nsec: timeout.subsec_nanos() as c_long,
            };
            // SAFETY: `events` is writable for `max` entries, the kernel
            // writes at most that many, and `ts` outlives the call.
            n = unsafe { epoll_pwait2(epfd, events.as_mut_ptr(), max, &ts, std::ptr::null()) };
            if n < 0 && matches!(io::Error::last_os_error().raw_os_error(), Some(ENOSYS | EPERM)) {
                NO_PWAIT2.store(true, Ordering::Relaxed);
            }
        }
        if NO_PWAIT2.load(Ordering::Relaxed) {
            let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
            // SAFETY: as above.
            n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), max, ms) };
        }
        if n < 0 {
            let err = io::Error::last_os_error();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "epoll wait: {err}");
            return 0;
        }
        n as usize
    }

    fn register(&self, fd: RawFd, token: u64, slots: &Arc<Slots>) -> io::Result<()> {
        // In the map before the kernel can report an edge for it.
        lock(&self.sources).insert(token, Arc::downgrade(slots));
        let mut ev = EpollEvent { events: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, token };
        // SAFETY: `fd` is open (its `Source` is alive), and the kernel
        // copies `ev`.
        if unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            lock(&self.sources).remove(&token);
            return Err(io::Error::last_os_error());
        }
        REGISTERED.fetch_add(1, Ordering::Relaxed);
        self.has_sources.store(true, Ordering::Relaxed);
        Ok(())
    }

    fn deregister(&self, fd: RawFd, token: u64) {
        // SAFETY: `fd` is still open, and `EPOLL_CTL_DEL` ignores the event
        // pointer (null since Linux 2.6.9).
        unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
        if lock(&self.sources).remove(&token).is_some() {
            REGISTERED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // Closing the epoll fd ends every registration still in it.
        let live = lock(&self.sources).len();
        REGISTERED.fetch_sub(live, Ordering::Relaxed);
    }
}

/// A nonblocking socket, registered with a runtime's reactor from the
/// first time a task of that runtime parks on it.
pub(crate) struct Source<S: AsRawFd> {
    sock: S,
    token: u64,
    slots: Arc<Slots>,
    /// The runtimes whose reactors hold this socket.
    cores: Mutex<Vec<Weak<Core>>>,
}

impl<S: AsRawFd> Source<S> {
    /// Wraps `sock`, which must already be nonblocking.
    fn new(sock: S) -> Source<S> {
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(WAKE_TOKEN + 1);
        Source {
            sock,
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            slots: Arc::default(),
            cores: Mutex::default(),
        }
    }

    /// Registers the socket with the calling task's runtime, once.
    fn register_here(&self) -> io::Result<()> {
        let core = crate::rt::current();
        let mut cores = lock(&self.cores);
        // A held `Weak` keeps its allocation, so the address is not reused.
        if cores.iter().any(|c| std::ptr::eq(c.as_ptr(), Arc::as_ptr(&core))) {
            return Ok(());
        }
        core.reactor().register(self.sock.as_raw_fd(), self.token, &self.slots)?;
        cores.retain(|c| c.strong_count() > 0);
        cores.push(Arc::downgrade(&core));
        Ok(())
    }

    /// Runs `op` on the socket while `dir` is ready, parking the task on
    /// `dir` while it is not. `drained` says whether a result shows the
    /// kernel buffer drained (a short read) or filled (a short write).
    fn poll_io<T>(
        &self,
        dir: &Direction,
        cx: &mut Context<'_>,
        mut op: impl FnMut(&S) -> io::Result<T>,
        drained: impl Fn(&T) -> bool,
    ) -> Poll<io::Result<T>> {
        loop {
            let seen = dir.ready.load(Ordering::Acquire);
            if seen & READY == 0 {
                *lock(&dir.waker) = Some(cx.waker().clone());
                if let Err(e) = self.register_here() {
                    return Poll::Ready(Err(e));
                }
                // An edge between the load and the store found the slot
                // empty, but it set the bit.
                if dir.ready.load(Ordering::Acquire) & READY == 0 {
                    return Poll::Pending;
                }
                continue;
            }
            match op(&self.sock) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Some(core) = crate::rt::try_current() {
                        core.count_would_block();
                    }
                    dir.clear(seen);
                }
                Ok(done) => {
                    if drained(&done) {
                        dir.clear(seen);
                    }
                    return Poll::Ready(Ok(done));
                }
                Err(e) => return Poll::Ready(Err(e)),
            }
        }
    }
}

impl<S: AsRawFd> Drop for Source<S> {
    fn drop(&mut self) {
        // The fd is still open here: `sock` drops after this body.
        let cores = self.cores.get_mut().unwrap_or_else(PoisonError::into_inner);
        for core in cores.drain(..).filter_map(|c| c.upgrade()) {
            core.reactor().deregister(self.sock.as_raw_fd(), self.token);
        }
    }
}

pub(crate) type StreamSource = Source<std::net::TcpStream>;

/// A transfer of `n` of `len` bytes that stopped short: the kernel had no
/// more to give, or no more room. End of file (`n == 0`) is not short; it
/// stays readable.
fn short(n: usize, len: usize) -> bool {
    n > 0 && n < len
}

impl StreamSource {
    pub(crate) fn poll_read(
        &self,
        cx: &mut Context<'_>,
        buf: &mut [u8],
    ) -> Poll<io::Result<usize>> {
        let len = buf.len();
        self.poll_io(&self.slots.read, cx, |mut s| s.read(buf), |&n| short(n, len))
    }

    pub(crate) fn poll_write(&self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        self.poll_io(&self.slots.write, cx, |mut s| s.write(buf), |&n| short(n, buf.len()))
    }

    pub(crate) fn shutdown_write(&self) -> io::Result<()> {
        self.sock.shutdown(std::net::Shutdown::Write)
    }
}

/// A TCP listener accepting connections asynchronously.
pub struct TcpListener {
    io: Source<std::net::TcpListener>,
}

impl TcpListener {
    /// Binds `addr` (nonblocking).
    pub async fn bind(addr: impl std::net::ToSocketAddrs) -> io::Result<TcpListener> {
        let inner = std::net::TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(TcpListener { io: Source::new(inner) })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.io.sock.local_addr()
    }

    /// Accepts the next inbound connection.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let io = &self.io;
        // One accept shows nothing about the rest of the queue, so only
        // `WouldBlock` clears the bit.
        let (stream, peer) =
            std::future::poll_fn(|cx| io.poll_io(&io.slots.read, cx, |l| l.accept(), |_| false))
                .await?;
        Ok((TcpStream::new(stream)?, peer))
    }
}

/// A TCP connection.
pub struct TcpStream {
    io: StreamSource,
}

impl TcpStream {
    fn new(stream: std::net::TcpStream) -> io::Result<TcpStream> {
        stream.set_nonblocking(true)?;
        Ok(TcpStream { io: Source::new(stream) })
    }

    /// Connects to `addr`.
    ///
    /// The handshake itself is performed blocking (localhost connects
    /// resolve in microseconds); the resulting stream is nonblocking.
    pub async fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
        TcpStream::new(std::net::TcpStream::connect(addr)?)
    }

    /// Disables (or enables) Nagle's algorithm.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.io.sock.set_nodelay(nodelay)
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.io.sock.peer_addr()
    }

    /// Splits into independently owned read and write halves sharing the
    /// underlying socket and its registration.
    pub fn into_split(self) -> (OwnedReadHalf, OwnedWriteHalf) {
        let io = Arc::new(self.io);
        (OwnedReadHalf { io: Arc::clone(&io) }, OwnedWriteHalf { io })
    }
}

/// Owned read half of a [`TcpStream`].
pub struct OwnedReadHalf {
    pub(crate) io: Arc<StreamSource>,
}

/// Owned write half of a [`TcpStream`].
pub struct OwnedWriteHalf {
    pub(crate) io: Arc<StreamSource>,
}

impl Drop for OwnedWriteHalf {
    fn drop(&mut self) {
        // Match tokio: dropping the write half sends FIN.
        let _ = self.io.shutdown_write();
    }
}
