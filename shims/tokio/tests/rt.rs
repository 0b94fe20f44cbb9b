//! The executor's main-future wake-up: a waker fired from another OS thread
//! must reach a `block_on` that is about to park, not wait out its 50 ms
//! idle cap.
//!
//! The race window is a few dozen nanoseconds between `block_on`'s locked
//! re-check and its condvar wait. The waking thread spins (so it reacts
//! within nanoseconds) and sweeps a short delay across that window. A lost
//! wake-up shows up a few times per 100 000 rounds, so the test runs that
//! many.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

const ROUNDS: u64 = 100_000;
/// Far below the executor's 50 ms idle cap, far above a real wake-up.
const ROUND_LIMIT: Duration = Duration::from_millis(20);
/// Delays swept by the waking thread, in spin-loop hints.
const DELAY_SPINS: u64 = 40;

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
fn cross_thread_main_wake_is_never_lost() {
    let (tx, rx) = mpsc::channel::<Wakeup>();
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
            for _ in 0..round % DELAY_SPINS {
                std::hint::spin_loop();
            }
            done.store(true, Ordering::Release);
            waker.wake();
        }
    });
    let rt = tokio::runtime::Builder::new_current_thread().enable_all().build().unwrap();
    rt.block_on(async {
        for round in 0..ROUNDS {
            let start = Instant::now();
            WokenFromAfar { done: Arc::default(), to_waker: Some(tx.clone()) }.await;
            let took = start.elapsed();
            assert!(took < ROUND_LIMIT, "round {round}: main wake took {took:?}");
        }
    });
    drop(tx);
    waker_thread.join().unwrap();
}
