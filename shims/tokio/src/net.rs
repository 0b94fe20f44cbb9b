//! Async TCP on nonblocking `std::net` sockets, woken by epoll.
//!
//! Readiness model: one process-wide epoll instance and one
//! `tokio-shim-io-poller` thread blocked in `epoll_wait`. Every socket is
//! registered once, when it is created, edge-triggered for readable,
//! writable and peer hang-up, under a token that is never reused (a socket
//! closed and its fd number recycled can never wake the new owner's tasks).
//! A registration holds one waker slot per direction: a future that hits
//! `WouldBlock` stores its waker in its direction's slot, and the poller
//! takes and wakes it when an edge for that direction arrives. The two
//! halves of a split stream share one registration.
//!
//! Linux-only: the three `epoll` calls are declared against the libc that
//! `std` already links, so the shim stays dependency-free.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::task::{Context, Poll, Waker};

const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

/// `struct epoll_event`. The kernel declares it packed on x86_64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    /// The user data word: the registration's token.
    token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

/// The wakers parked on one socket, one per direction.
#[derive(Default)]
struct Slots {
    read: Mutex<Option<Waker>>,
    write: Mutex<Option<Waker>>,
}

struct Poller {
    epfd: RawFd,
    next_token: AtomicU64,
    /// Live registrations by token.
    sources: Mutex<HashMap<u64, Weak<Slots>>>,
}

/// The process-wide poller, started on first use. Its thread lives as long
/// as the process and is never joined.
fn poller() -> &'static Poller {
    static POLLER: OnceLock<Poller> = OnceLock::new();
    POLLER.get_or_init(|| {
        // SAFETY: a plain syscall; it takes no pointers.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        assert!(epfd >= 0, "epoll_create1: {}", io::Error::last_os_error());
        std::thread::Builder::new()
            .name("tokio-shim-io-poller".into())
            .spawn(move || poll_forever(epfd))
            .expect("spawn io poller");
        Poller { epfd, next_token: AtomicU64::new(1), sources: Mutex::default() }
    })
}

/// The poller thread: waits for edges and wakes the wakers they are for.
/// Wakers are woken with no lock held, since waking re-enters the runtime.
fn poll_forever(epfd: RawFd) -> ! {
    let mut events = [EpollEvent { events: 0, token: 0 }; 256];
    let sources = &poller().sources;
    loop {
        // SAFETY: `events` is writable for `events.len()` entries, and the
        // kernel writes at most that many.
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, -1) };
        if n < 0 {
            let err = io::Error::last_os_error();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "epoll_wait: {err}");
            continue;
        }
        for ev in &events[..n as usize] {
            let (bits, token) = (ev.events, ev.token);
            let slots = lock(sources).get(&token).and_then(Weak::upgrade);
            let Some(slots) = slots else { continue };
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                wake(&slots.read);
            }
            if bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0 {
                wake(&slots.write);
            }
        }
    }
}

/// Every critical section on the poller's mutexes is a single map or slot
/// operation, so a panic elsewhere cannot leave one half-updated: a poisoned
/// lock is used as it stands, and `Drop` never panics on one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wake(slot: &Mutex<Option<Waker>>) {
    let waker = lock(slot).take();
    if let Some(waker) = waker {
        waker.wake();
    }
}

/// Sockets currently registered with the poller (tests: every drop must
/// deregister).
#[doc(hidden)]
pub fn registered_sources() -> usize {
    lock(&poller().sources).len()
}

/// A nonblocking socket registered with the poller for its whole life.
pub(crate) struct Source<S: AsRawFd> {
    sock: S,
    token: u64,
    slots: Arc<Slots>,
}

impl<S: AsRawFd> Source<S> {
    /// Registers `sock`, which must already be nonblocking.
    fn new(sock: S) -> io::Result<Source<S>> {
        let p = poller();
        let token = p.next_token.fetch_add(1, Ordering::Relaxed);
        let slots = Arc::new(Slots::default());
        // In the map before the kernel can report an edge for it; from here
        // on `Drop` undoes the registration, a failed one included.
        lock(&p.sources).insert(token, Arc::downgrade(&slots));
        let source = Source { sock, token, slots };
        let mut ev = EpollEvent { events: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, token };
        // SAFETY: `sock` owns an open fd, and `ev` outlives the call (the
        // kernel copies it).
        if unsafe { epoll_ctl(p.epfd, EPOLL_CTL_ADD, source.sock.as_raw_fd(), &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(source)
    }

    /// Runs `op` on the socket, parking the task on `slot` while it reports
    /// `WouldBlock`.
    ///
    /// After parking, `op` is tried once more before returning `Pending`:
    /// an edge that fired between the first try and the store found the
    /// slot empty, and the retry sees the readiness it reported.
    fn poll_io<T>(
        &self,
        slot: &Mutex<Option<Waker>>,
        cx: &mut Context<'_>,
        mut op: impl FnMut(&S) -> io::Result<T>,
    ) -> Poll<io::Result<T>> {
        let mut parked = false;
        loop {
            match op(&self.sock) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if parked {
                        return Poll::Pending;
                    }
                    *lock(slot) = Some(cx.waker().clone());
                    parked = true;
                }
                done => return Poll::Ready(done),
            }
        }
    }
}

impl<S: AsRawFd> Drop for Source<S> {
    fn drop(&mut self) {
        let p = poller();
        // SAFETY: the fd is still open (`sock` drops after this body), and
        // `EPOLL_CTL_DEL` ignores the event pointer (null since Linux 2.6.9).
        unsafe { epoll_ctl(p.epfd, EPOLL_CTL_DEL, self.sock.as_raw_fd(), std::ptr::null_mut()) };
        lock(&p.sources).remove(&self.token);
    }
}

pub(crate) type StreamSource = Source<std::net::TcpStream>;

impl StreamSource {
    pub(crate) fn poll_read(
        &self,
        cx: &mut Context<'_>,
        buf: &mut [u8],
    ) -> Poll<io::Result<usize>> {
        self.poll_io(&self.slots.read, cx, |mut s| s.read(buf))
    }

    pub(crate) fn poll_write(&self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        self.poll_io(&self.slots.write, cx, |mut s| s.write(buf))
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
        Ok(TcpListener { io: Source::new(inner)? })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.io.sock.local_addr()
    }

    /// Accepts the next inbound connection.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let io = &self.io;
        let (stream, peer) =
            std::future::poll_fn(|cx| io.poll_io(&io.slots.read, cx, |l| l.accept())).await?;
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
        Ok(TcpStream { io: Source::new(stream)? })
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
