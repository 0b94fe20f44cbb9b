//! The executor waits in its own reactor: a wake from another thread
//! reaches a parked executor at once, a runtime that never idles still sees
//! its sockets, a paused clock does not jump past I/O that is already
//! there, and every registration is undone.
//!
//! Every test holds `SERIAL`: the registration count is process-wide, and
//! the latency bounds are meant for an otherwise idle test process.

use std::future::Future;
use std::io::Write;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{registered_sources, TcpListener, TcpStream};

const ROUNDS: usize = 1_000;
/// A parked executor must see a cross-thread wake within this. A lost wake
/// costs the executor's 50 ms park cap; a wake that works takes tens of
/// microseconds, but on a loaded 2-core machine the scheduler alone can
/// add 5-10 ms, so the bound sits between the two, as in `tests/rt.rs`.
const WAKE_LIMIT: Duration = Duration::from_millis(20);
/// How long the waking thread lets the executor settle into its park.
const SETTLE: Duration = Duration::from_micros(200);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn runtime(paused: bool) -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_current_thread().enable_all().start_paused(paused).build().unwrap()
}

/// The moment a far thread woke us, once it has.
type WokenAt = Arc<Mutex<Option<Instant>>>;

/// Pending until another thread records the time and wakes the waker it
/// was sent; resolves to that time.
struct WokenFromAfar {
    woken_at: WokenAt,
    to_waker: Option<mpsc::Sender<(Waker, WokenAt)>>,
}

impl Future for WokenFromAfar {
    type Output = Instant;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Instant> {
        if let Some(at) = *self.woken_at.lock().unwrap() {
            return Poll::Ready(at);
        }
        if let Some(tx) = self.to_waker.take() {
            tx.send((cx.waker().clone(), Arc::clone(&self.woken_at))).unwrap();
        }
        Poll::Pending
    }
}

/// A thread that, for every waker it is sent, lets the executor park, then
/// records the time and wakes it.
fn far_waker() -> (mpsc::Sender<(Waker, WokenAt)>, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<(Waker, WokenAt)>();
    let thread = std::thread::spawn(move || {
        for (waker, woken_at) in rx {
            std::thread::sleep(SETTLE);
            *woken_at.lock().unwrap() = Some(Instant::now());
            waker.wake();
        }
    });
    (tx, thread)
}

/// `ROUNDS` cross-thread wakes of the task or main future that runs this.
async fn wake_rounds(tx: mpsc::Sender<(Waker, WokenAt)>) {
    for round in 0..ROUNDS {
        let woken_at = WokenFromAfar { woken_at: Arc::default(), to_waker: Some(tx.clone()) }.await;
        let took = woken_at.elapsed();
        assert!(took < WAKE_LIMIT, "round {round}: a parked executor took {took:?} to wake");
    }
}

#[test]
fn a_cross_thread_task_wake_reaches_a_parked_executor() {
    let _serial = serial();
    let (tx, thread) = far_waker();
    runtime(false).block_on(async move {
        tokio::spawn(wake_rounds(tx)).await.unwrap();
    });
    thread.join().unwrap();
}

#[test]
fn a_cross_thread_main_wake_reaches_a_parked_executor() {
    let _serial = serial();
    let (tx, thread) = far_waker();
    runtime(false).block_on(wake_rounds(tx));
    thread.join().unwrap();
}

/// A tokio listener on the current runtime and a blocking std client
/// connected to it.
async fn std_peer() -> (TcpStream, std::net::TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (stream, _) = listener.accept().await.unwrap();
    (stream, peer)
}

#[test]
fn a_task_that_never_idles_does_not_starve_a_socket_read() {
    let _serial = serial();
    let stop = Arc::new(AtomicBool::new(false));
    runtime(false).block_on(async {
        let (stream, mut peer) = std_peer().await;
        let (mut rd, _wr) = stream.into_split();
        let spin = Arc::clone(&stop);
        tokio::spawn(async move {
            while !spin.load(Ordering::Relaxed) {
                tokio::task::yield_now().await;
            }
        });
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            peer.write_all(b"pingpong").unwrap();
            (Instant::now(), peer)
        });
        let mut frame = [0u8; 8];
        rd.read_exact(&mut frame).await.unwrap();
        let (written_at, _peer) = writer.join().unwrap();
        let took = written_at.elapsed();
        assert!(took < Duration::from_millis(100), "the read waited {took:?} behind a busy task");
        assert_eq!(&frame, b"pingpong");
    });
    stop.store(true, Ordering::Relaxed);
}

#[test]
fn a_paused_runtime_with_a_socket_sees_its_io_before_jumping_the_clock() {
    let _serial = serial();
    runtime(true).block_on(async {
        let (stream, mut peer) = std_peer().await;
        let (mut rd, _wr) = stream.into_split();
        let reading = tokio::spawn(async move {
            let mut frame = [0u8; 8];
            rd.read_exact(&mut frame).await.map(|_| frame)
        });
        // The read parks (and registers) before the bytes exist.
        tokio::task::yield_now().await;
        assert!(!reading.is_finished());
        peer.write_all(b"pingpong").unwrap();
        // The edge is now waiting in the reactor. An hour of virtual time is
        // one clock jump away, and the reactor must be looked at first.
        let start = tokio::time::Instant::now();
        let frame = tokio::time::timeout(Duration::from_secs(3600), reading)
            .await
            .expect("the paused clock jumped past pending I/O")
            .unwrap()
            .unwrap();
        assert_eq!(&frame, b"pingpong");
        assert!(start.elapsed() < Duration::from_secs(3600));
    });
}

#[test]
fn registrations_return_to_baseline_when_sockets_or_runtimes_drop() {
    let _serial = serial();
    let before = registered_sources();
    let rt = runtime(false);
    let survivor = rt.block_on(async {
        let (server, mut peer) = std_peer().await;
        let (mut rd, wr) = server.into_split();
        // Park a read so the socket registers, then feed it.
        let reading = tokio::spawn(async move {
            let mut frame = [0u8; 8];
            rd.read_exact(&mut frame).await.unwrap();
            rd
        });
        tokio::task::yield_now().await;
        assert_eq!(registered_sources(), before + 1, "a parked read registers its socket");
        peer.write_all(b"pingpong").unwrap();
        let rd = reading.await.unwrap();
        drop((rd, wr));
        assert_eq!(registered_sources(), before, "a dropped socket stayed registered");

        // This one is still registered when its runtime goes away.
        let (client, server) = {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).await.unwrap();
            (client, listener.accept().await.unwrap().0)
        };
        let (mut rd, wr) = client.into_split();
        let parked = tokio::spawn(async move { rd.read(&mut [0u8; 8]).await.map(|_| rd) });
        tokio::task::yield_now().await;
        assert!(!parked.is_finished());
        assert_eq!(registered_sources(), before + 1);
        let (srd, mut swr) = server.into_split();
        swr.write_all(b"x").await.unwrap();
        let rd = parked.await.unwrap().unwrap();
        (rd, wr, srd, swr)
    });
    drop(rt);
    assert_eq!(registered_sources(), before, "a dropped runtime kept its registrations");
    drop(survivor);
    assert_eq!(registered_sources(), before, "a socket outliving its runtime deregistered twice");
}
