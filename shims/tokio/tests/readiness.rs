//! Readiness-tracked sockets: an operation runs only while its direction's
//! ready bit is set, and a short read or write clears the bit. Nothing a
//! peer sends is lost to a cleared bit, a steady request/response
//! connection makes no read that returns `WouldBlock`, and a listener moves
//! between runtimes.
//!
//! Every test runs on the real clock.

use std::io::{Read, Write};
use std::time::Duration;

use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::runtime::metrics;
use tokio::time::timeout;

/// How long any one wake-up may take before it counts as lost.
const WAKE: Duration = Duration::from_secs(2);
const BIG: usize = 256 * 1024;
const BUF: usize = 64 * 1024;

fn runtime() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_current_thread().enable_all().build().unwrap()
}

/// A tokio listener on the current runtime and a blocking std client
/// connected to it.
async fn std_peer() -> (TcpStream, std::net::TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (stream, _) = timeout(WAKE, listener.accept()).await.expect("accept woke").unwrap();
    (stream, peer)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

#[test]
fn a_large_peer_write_is_read_in_full_through_a_small_buffer() {
    runtime().block_on(async {
        let (stream, mut peer) = std_peer().await;
        let (mut rd, _wr) = stream.into_split();
        let writer = std::thread::spawn(move || {
            peer.write_all(&pattern(BIG)).unwrap();
            peer
        });
        let mut got = Vec::with_capacity(BIG);
        let mut buf = vec![0u8; BUF];
        while got.len() < BIG {
            let n = timeout(WAKE, rd.read(&mut buf)).await.expect("read woke").unwrap();
            assert!(n > 0, "early end of file after {} bytes", got.len());
            got.extend_from_slice(&buf[..n]);
        }
        assert!(got == pattern(BIG), "the bytes read differ from the bytes written");
        drop(writer.join().unwrap());
    });
}

#[test]
fn a_close_that_lands_with_the_last_bytes_is_read_as_end_of_file() {
    runtime().block_on(async {
        let (stream, mut peer) = std_peer().await;
        let (mut rd, _wr) = stream.into_split();
        let mut buf = [0u8; 64];
        // Park on an empty socket: the ready bit is now clear.
        assert!(timeout(Duration::from_millis(1), rd.read(&mut buf)).await.is_err());
        // The bytes and the hang-up land before the reactor next looks, so
        // one edge reports both, and the short read that takes the bytes
        // must not hide the end of file.
        peer.write_all(b"ping").unwrap();
        drop(peer);
        let n = timeout(WAKE, rd.read(&mut buf)).await.expect("read woke").unwrap();
        assert_eq!(&buf[..n], b"ping");
        let n = timeout(WAKE, rd.read(&mut buf)).await.expect("end of file seen").unwrap();
        assert_eq!(n, 0);
    });
}

#[test]
fn a_large_write_to_a_slow_peer_completes_in_full() {
    // Larger than loopback's socket buffers, so the writer meets a full
    // send buffer, writes short and must be woken by the space freed later.
    const HUGE: usize = 8 * BIG;
    runtime().block_on(async {
        let (stream, mut peer) = std_peer().await;
        let (_rd, mut wr) = stream.into_split();
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut got = Vec::with_capacity(HUGE);
            let mut buf = [0u8; 4096];
            while got.len() < HUGE {
                let n = peer.read(&mut buf).unwrap();
                assert!(n > 0, "early end of file after {} bytes", got.len());
                got.extend_from_slice(&buf[..n]);
            }
            got
        });
        timeout(WAKE, wr.write_all(&pattern(HUGE))).await.expect("write woke").unwrap();
        assert!(
            reader.join().unwrap() == pattern(HUGE),
            "the bytes read differ from those written"
        );
    });
}

#[test]
fn data_sent_after_a_short_read_still_wakes_the_reader() {
    runtime().block_on(async {
        let (stream, mut peer) = std_peer().await;
        let (mut rd, _wr) = stream.into_split();
        peer.write_all(b"pingpong").unwrap();
        let mut buf = [0u8; 64];
        let mut got = 0;
        while got < 8 {
            got += timeout(WAKE, rd.read(&mut buf[got..])).await.expect("read woke").unwrap();
        }
        // That read was short: the ready bit is clear now, and only an edge
        // for the next bytes can set it.
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            peer.write_all(b"pongping").unwrap();
            peer
        });
        let n = timeout(WAKE, rd.read(&mut buf)).await.expect("the late bytes woke the reader");
        assert_eq!(&buf[..n.unwrap()], b"pongping");
        drop(writer.join().unwrap());
    });
}

#[test]
fn request_response_rounds_make_no_would_block_after_the_first() {
    const ROUNDS: usize = 1_000;
    let (listener, addr) = runtime().block_on(async {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    });
    // Both sides read through a buffer larger than a frame, as the RPC
    // transport does, so every read is short and clears the bit.
    let echo = std::thread::spawn(move || {
        runtime().block_on(async move {
            let (stream, _) = listener.accept().await.unwrap();
            let (mut rd, mut wr) = stream.into_split();
            let mut buf = [0u8; 4096];
            let mut before = None;
            for round in 0..ROUNDS {
                let n = timeout(WAKE, rd.read(&mut buf)).await.expect("request woke").unwrap();
                assert_eq!(n, 8, "round {round}: one request per read");
                wr.write_all(&buf[..n]).await.unwrap();
                before.get_or_insert_with(metrics);
            }
            metrics() - before.unwrap()
        })
    });
    let client = runtime().block_on(async move {
        let (mut rd, mut wr) = TcpStream::connect(addr).await.unwrap().into_split();
        let mut buf = [0u8; 4096];
        let mut before = None;
        for round in 0..ROUNDS as u64 {
            wr.write_all(&round.to_le_bytes()).await.unwrap();
            let n = timeout(WAKE, rd.read(&mut buf)).await.expect("response woke").unwrap();
            assert_eq!(buf[..n], round.to_le_bytes(), "round {round}: one response per read");
            before.get_or_insert_with(metrics);
        }
        metrics() - before.unwrap()
    });
    let server = echo.join().unwrap();
    assert_eq!(client.would_block, 0, "client after its first round: {client:?}");
    assert_eq!(server.would_block, 0, "server after its first round: {server:?}");
}

#[test]
fn a_listener_bound_on_one_runtime_accepts_on_another() {
    let first = runtime();
    let listener = first.block_on(async {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        // An accept that finds nothing clears the bit and registers the
        // listener with this runtime, which then stops running.
        let nothing = timeout(Duration::from_millis(5), listener.accept()).await;
        assert!(nothing.is_err(), "no client connected yet");
        listener
    });
    let addr = listener.local_addr().unwrap();
    let accepting = std::thread::spawn(move || {
        runtime().block_on(async move {
            let (stream, _) = timeout(WAKE, listener.accept()).await.expect("accept woke").unwrap();
            let (mut rd, _wr) = stream.into_split();
            let mut frame = [0u8; 8];
            timeout(WAKE, rd.read_exact(&mut frame)).await.expect("read woke").unwrap();
            frame
        })
    });
    std::thread::sleep(Duration::from_millis(10));
    let mut client = std::net::TcpStream::connect(addr).unwrap();
    client.write_all(b"pingpong").unwrap();
    assert_eq!(&accepting.join().unwrap(), b"pingpong");
    drop(first);
}
