//! The readiness-driven TCP reactor: wake-ups are neither lost nor sent to
//! strangers, and every socket leaves the poller's registry when dropped.
//!
//! Every test runs on the real clock (a paused one would fire the timeouts
//! the moment a task parks on I/O) and holds `SERIAL`, because the registry
//! is process-wide and one test counts it.

use std::future::Future;
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{registered_sources, TcpListener, TcpStream};
use tokio::time::timeout;

/// How long any one wake-up may take before it counts as lost.
const WAKE: Duration = Duration::from_secs(2);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `fut` as a spawned task on a fresh real-clock runtime.
fn run<F>(fut: F) -> F::Output
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let rt = tokio::runtime::Builder::new_current_thread().enable_all().build().unwrap();
    rt.block_on(async { tokio::spawn(fut).await.expect("test task panicked") })
}

async fn bind() -> (TcpListener, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    (listener, addr)
}

/// A connected (client, server) pair.
async fn pair() -> (TcpStream, TcpStream) {
    let (listener, addr) = bind().await;
    let client = TcpStream::connect(addr).await.unwrap();
    let (server, _) = timeout(WAKE, listener.accept()).await.expect("accept woke").unwrap();
    (client, server)
}

/// One 8-byte frame out and back.
async fn round_trip(client: TcpStream, server: TcpStream) {
    let (mut crd, mut cwr) = client.into_split();
    let (mut srd, mut swr) = server.into_split();
    let mut frame = [0u8; 8];
    cwr.write_all(b"pingpong").await.unwrap();
    timeout(WAKE, srd.read_exact(&mut frame)).await.expect("server read woke").unwrap();
    swr.write_all(&frame).await.unwrap();
    timeout(WAKE, crd.read_exact(&mut frame)).await.expect("client read woke").unwrap();
    assert_eq!(&frame, b"pingpong");
}

#[test]
fn two_runtimes_ping_pong_without_losing_a_wake_up() {
    const ROUNDS: u64 = 20_000;
    let _serial = serial();
    let (listener, addr) = run(bind());
    let echo = std::thread::spawn(move || {
        run(async move {
            let (stream, _) = listener.accept().await.unwrap();
            let (mut rd, mut wr) = stream.into_split();
            let mut frame = [0u8; 8];
            for _ in 0..ROUNDS {
                rd.read_exact(&mut frame).await.unwrap();
                wr.write_all(&frame).await.unwrap();
            }
        })
    });
    run(async move {
        let (mut rd, mut wr) = TcpStream::connect(addr).await.unwrap().into_split();
        let mut frame = [0u8; 8];
        for i in 0..ROUNDS {
            let one = async {
                wr.write_all(&i.to_le_bytes()).await?;
                rd.read_exact(&mut frame).await
            };
            match timeout(WAKE, one).await {
                Ok(done) => done.unwrap(),
                Err(_) => panic!("round trip {i} lost its wake-up"),
            };
            assert_eq!(u64::from_le_bytes(frame), i);
        }
    });
    echo.join().unwrap();
}

#[test]
fn dropped_sockets_leave_the_registry_and_reused_fds_still_wake() {
    let _serial = serial();
    let before = registered_sources();
    run(async move {
        for _ in 0..2_000 {
            let (listener, addr) = bind().await;
            let client = TcpStream::connect(addr).await.unwrap();
            let (server, _) = listener.accept().await.unwrap();
            drop((client, server, listener));
        }
        assert_eq!(registered_sources(), before, "a dropped socket stayed registered");
        // These take the fd numbers just freed, under fresh tokens.
        let (client, server) = pair().await;
        round_trip(client, server).await;
    });
    assert_eq!(registered_sources(), before);
}

#[test]
fn a_pending_accept_wakes_when_a_client_connects() {
    let _serial = serial();
    run(async {
        let (listener, addr) = bind().await;
        let accepting = tokio::spawn(async move { listener.accept().await.map(|(s, _)| s) });
        // The spawned accept runs first, finds an empty queue and parks.
        tokio::task::yield_now().await;
        assert!(!accepting.is_finished());
        let client = TcpStream::connect(addr).await.unwrap();
        let server = timeout(WAKE, accepting).await.expect("accept woke").unwrap().unwrap();
        round_trip(client, server).await;
    });
}

#[test]
fn dropping_the_peer_write_half_wakes_a_parked_read_with_eof() {
    let _serial = serial();
    run(async {
        let (client, server) = pair().await;
        let (mut rd, _wr) = server.into_split();
        let reading = tokio::spawn(async move { rd.read(&mut [0u8; 8]).await });
        tokio::task::yield_now().await;
        assert!(!reading.is_finished());
        let (_rd, wr) = client.into_split();
        drop(wr);
        let n = timeout(WAKE, reading).await.expect("read woke").unwrap().unwrap();
        assert_eq!(n, 0, "a FIN reads as end of file");
    });
}
