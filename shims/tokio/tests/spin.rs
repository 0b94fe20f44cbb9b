//! Spin, then park: an idle executor on the real clock with sockets looks
//! at its reactor without sleeping for a short while before it parks. Only
//! such runtimes spin, a spin that finds nothing is followed by a real
//! park, a wake that lands during a spin is taken there, a cross-thread
//! wake reaches a spinning runtime, and a socket edge never makes the
//! executor write its own `eventfd`.
//!
//! A wake from another thread that lands during a spin takes the same
//! path as an edge's wake (the task's queue or the main future's flag),
//! with the executor not parked. Edges are used to test it because two
//! threads on a loaded 2-core host rarely overlap inside one 50 µs spin.
//!
//! Every test holds `SERIAL`, so the counters and timings it reads are not
//! disturbed by another test's runtime competing for the cores.

use std::future::Future;
use std::io::{Read, Write};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::runtime::metrics;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn runtime(paused: bool) -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_current_thread().enable_all().start_paused(paused).build().unwrap()
}

/// Whether this host lets a runtime spin at all.
fn multicore() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// A tokio listener on the current runtime and a blocking std client
/// connected to it.
async fn std_peer() -> (TcpStream, std::net::TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (stream, _) = listener.accept().await.unwrap();
    (stream, peer)
}

/// Registers a socket with the current runtime by parking a read on it that
/// nothing ever feeds. Keep the returned peer alive.
async fn register_a_socket() -> std::net::TcpStream {
    let (stream, peer) = std_peer().await;
    let (mut rd, wr) = stream.into_split();
    tokio::spawn(async move {
        let _wr = wr;
        let _ = rd.read(&mut [0u8; 8]).await;
    });
    tokio::task::yield_now().await;
    peer
}

#[test]
fn paused_and_socketless_runtimes_never_spin() {
    let _serial = serial();
    // Real clock, no sockets: idle passes park at once.
    let socketless = runtime(false).block_on(async {
        for _ in 0..20 {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
        metrics()
    });
    assert_eq!(socketless.spins, 0, "a runtime without sockets spun: {socketless:?}");
    assert!(socketless.parks >= 20, "{socketless:?}");

    // Paused clock with a socket: it parks while waiting for the peer, and
    // jumps the clock when a timer is next.
    let paused = runtime(true).block_on(async {
        let (stream, mut peer) = std_peer().await;
        let (mut rd, _wr) = stream.into_split();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            peer.write_all(b"pingpong").unwrap();
            peer
        });
        let mut frame = [0u8; 8];
        rd.read_exact(&mut frame).await.unwrap();
        tokio::time::sleep(Duration::from_secs(3600)).await;
        drop(writer.join().unwrap());
        metrics()
    });
    assert_eq!(paused.spins, 0, "a paused runtime spun: {paused:?}");
    assert!(paused.parks >= 1, "{paused:?}");
}

#[test]
fn an_idle_runtime_with_a_socket_parks_after_its_spin() {
    let _serial = serial();
    let idle = runtime(false).block_on(async {
        let _peer = register_a_socket().await;
        let before = metrics();
        tokio::time::sleep(Duration::from_millis(200)).await;
        metrics() - before
    });
    // A spin that finds nothing is followed by parks of at most 50 ms each,
    // with no spin between two parks that found nothing.
    assert!(idle.parks >= 3, "an idle runtime kept spinning: {idle:?}");
    assert_eq!(idle.spins, u64::from(multicore()), "{idle:?}");
}

/// `ROUNDS` rounds in which the caller's read is woken by bytes that were
/// already in the kernel when the executor went idle, so the spin's first
/// look at the reactor finds their edge.
async fn edge_woken_reads(rounds: usize) {
    let (stream, mut peer) = std_peer().await;
    let (mut rd, _wr) = stream.into_split();
    let mut buf = [0u8; 64];
    for round in 0..rounds {
        peer.write_all(b"pingpong").unwrap();
        let n = rd.read(&mut buf).await.unwrap();
        assert_eq!(&buf[..n], b"pingpong", "round {round}");
    }
}

#[test]
fn a_wake_during_a_spin_is_taken_by_the_spin() {
    const ROUNDS: usize = 100;
    let _serial = serial();
    // The edge wakes a spawned task: the spin must see the ready queue.
    let task = runtime(false).block_on(async {
        let before = metrics();
        tokio::spawn(edge_woken_reads(ROUNDS)).await.unwrap();
        metrics() - before
    });
    // The edge wakes the main future: the spin must see its flag.
    let main = runtime(false).block_on(async {
        let before = metrics();
        edge_woken_reads(ROUNDS).await;
        metrics() - before
    });
    for (woken, counted) in [("a task", task), ("the main future", main)] {
        if multicore() {
            assert!(counted.spin_wins >= 1, "no spin saw the edge that woke {woken}: {counted:?}");
        } else {
            assert_eq!(counted.spins, 0, "a one-core host spun: {counted:?}");
        }
    }
}

type Wakeup = (Waker, Arc<AtomicBool>);

/// Pending until another thread sets `done` and wakes the waker it was sent.
struct WokenFromAfar {
    done: Arc<AtomicBool>,
    to_waker: Option<mpsc::Sender<Wakeup>>,
}

impl Future for WokenFromAfar {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.done.load(Ordering::Acquire) {
            return Poll::Ready(());
        }
        if let Some(tx) = self.to_waker.take() {
            tx.send((cx.waker().clone(), Arc::clone(&self.done))).unwrap();
        }
        Poll::Pending
    }
}

#[test]
fn a_cross_thread_wake_reaches_a_spinning_runtime() {
    const ROUNDS: u32 = 1_000;
    /// A lost wake costs the executor's 50 ms park cap. Scheduling delay
    /// on a loaded 2-core host has reached about 25 ms.
    const ROUND_LIMIT: Duration = Duration::from_millis(40);
    let _serial = serial();
    let (tx, rx) = mpsc::channel::<Wakeup>();
    // Spins on its channel, so it reacts within nanoseconds, and sweeps its
    // delay across the executor's 50 µs spin and into its park.
    let waker_thread = std::thread::spawn(move || {
        for round in 0.. {
            let (waker, done) = match rx.try_recv() {
                Ok(wakeup) => wakeup,
                Err(TryRecvError::Empty) => {
                    std::hint::spin_loop();
                    continue;
                }
                Err(TryRecvError::Disconnected) => return,
            };
            let delay = Duration::from_micros(round % 80);
            let start = Instant::now();
            while start.elapsed() < delay {
                std::hint::spin_loop();
            }
            done.store(true, Ordering::Release);
            waker.wake();
        }
    });
    runtime(false).block_on(async {
        let _peer = register_a_socket().await;
        for round in 0..ROUNDS {
            let start = Instant::now();
            WokenFromAfar { done: Arc::default(), to_waker: Some(tx.clone()) }.await;
            let took = start.elapsed();
            assert!(took < ROUND_LIMIT, "round {round}: a cross-thread wake took {took:?}");
        }
    });
    drop(tx);
    waker_thread.join().unwrap();
}

#[test]
fn socket_edges_do_not_make_the_executor_write_its_own_eventfd() {
    const ROUNDS: u64 = 100;
    let _serial = serial();
    // Paused: the runtime never spins, so every edge arrives while it is
    // parked in its reactor.
    let paused = runtime(true).block_on(async {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).await.unwrap();
        let (server, _) = listener.accept().await.unwrap();
        let echo = tokio::spawn(async move {
            let (mut rd, mut wr) = server.into_split();
            let mut buf = [0u8; 64];
            for _ in 0..ROUNDS {
                let n = rd.read(&mut buf).await.unwrap();
                wr.write_all(&buf[..n]).await.unwrap();
            }
        });
        let (mut rd, mut wr) = client.into_split();
        let before = metrics();
        let mut buf = [0u8; 64];
        for round in 0..ROUNDS {
            wr.write_all(&round.to_le_bytes()).await.unwrap();
            let n = rd.read(&mut buf).await.unwrap();
            assert_eq!(buf[..n], round.to_le_bytes());
        }
        echo.await.unwrap();
        metrics() - before
    });
    assert!(paused.parks >= ROUNDS, "the edges did not arrive in parks: {paused:?}");
    assert_eq!(paused.unparks, 0, "a socket edge wrote the executor's own eventfd: {paused:?}");

    // Real clock, the peer an echoing std thread: each edge arrives in a
    // spin or in a park, and neither writes the eventfd.
    let real = runtime(false).block_on(async {
        let (stream, mut peer) = std_peer().await;
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            for _ in 0..ROUNDS {
                let n = peer.read(&mut buf).unwrap();
                peer.write_all(&buf[..n]).unwrap();
            }
        });
        let (mut rd, mut wr) = stream.into_split();
        let before = metrics();
        let mut buf = [0u8; 64];
        for round in 0..ROUNDS {
            wr.write_all(&round.to_le_bytes()).await.unwrap();
            let n = rd.read(&mut buf).await.unwrap();
            assert_eq!(buf[..n], round.to_le_bytes());
        }
        let counted = metrics() - before;
        echo.join().unwrap();
        counted
    });
    assert_eq!(real.unparks, 0, "a socket edge wrote the executor's own eventfd: {real:?}");
}
