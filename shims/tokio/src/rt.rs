//! The executor core: a single-threaded, cooperatively scheduled runtime
//! with a timer wheel that can run on real time or on a paused virtual
//! clock (auto-advancing to the next timer deadline when idle, like tokio's
//! `start_paused`).

use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

thread_local! {
    static CURRENT: RefCell<Vec<Arc<Core>>> = const { RefCell::new(Vec::new()) };
}

/// Returns the runtime the calling task is executing on.
pub(crate) fn current() -> Arc<Core> {
    CURRENT.with(|c| {
        c.borrow().last().cloned().expect(
            "no tokio runtime is running on this thread \
             (spawn/sleep must be called from within Runtime::block_on)",
        )
    })
}

#[allow(dead_code)]
pub(crate) fn try_current() -> Option<Arc<Core>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

struct TimerEntry {
    deadline: Duration,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline.
        other.deadline.cmp(&self.deadline).then(other.seq.cmp(&self.seq))
    }
}

struct CoreState {
    ready: VecDeque<Arc<Task>>,
    timers: BinaryHeap<TimerEntry>,
    /// Virtual now; meaningful while `paused`.
    vnow: Duration,
    paused: bool,
    timer_seq: u64,
}

/// Shared state of one runtime.
pub(crate) struct Core {
    state: Mutex<CoreState>,
    cv: Condvar,
    epoch: std::time::Instant,
}

impl Core {
    pub(crate) fn new(start_paused: bool) -> Arc<Core> {
        Arc::new(Core {
            state: Mutex::new(CoreState {
                ready: VecDeque::new(),
                timers: BinaryHeap::new(),
                vnow: Duration::ZERO,
                paused: start_paused,
                timer_seq: 0,
            }),
            cv: Condvar::new(),
            epoch: std::time::Instant::now(),
        })
    }

    /// Current time on this runtime's clock, as an offset from its epoch.
    pub(crate) fn now(&self) -> Duration {
        let st = self.state.lock().unwrap();
        if st.paused {
            st.vnow
        } else {
            self.epoch.elapsed()
        }
    }

    /// Pauses the clock at its current reading.
    pub(crate) fn pause(&self) {
        let mut st = self.state.lock().unwrap();
        if !st.paused {
            st.vnow = self.epoch.elapsed();
            st.paused = true;
        }
    }

    /// Advances the paused clock by `dur`, firing any timers it passes.
    pub(crate) fn advance(&self, dur: Duration) {
        let mut st = self.state.lock().unwrap();
        assert!(st.paused, "time::advance requires a paused clock");
        st.vnow += dur;
        let now = st.vnow;
        let expired = Self::take_expired(&mut st, now);
        drop(st);
        wake_all(expired);
        self.cv.notify_all();
    }

    pub(crate) fn register_timer(&self, deadline: Duration, waker: Waker) {
        let mut st = self.state.lock().unwrap();
        st.timer_seq += 1;
        let seq = st.timer_seq;
        st.timers.push(TimerEntry { deadline, seq, waker });
    }

    fn enqueue(&self, task: Arc<Task>) {
        self.state.lock().unwrap().ready.push_back(task);
        self.cv.notify_all();
    }

    pub(crate) fn notify(&self) {
        self.cv.notify_all();
    }

    /// Pops every timer due at `now`. The caller must wake the returned
    /// wakers **after** releasing the state lock: a woken task immediately
    /// re-enters `enqueue`, which takes the same lock.
    fn take_expired(st: &mut CoreState, now: Duration) -> Vec<Waker> {
        let mut expired = Vec::new();
        while st.timers.peek().is_some_and(|t| t.deadline <= now) {
            expired.push(st.timers.pop().unwrap().waker);
        }
        expired
    }

    /// Runs `fut` to completion, driving spawned tasks and timers.
    pub(crate) fn block_on<F: Future>(self: &Arc<Self>, fut: F) -> F::Output {
        CURRENT.with(|c| c.borrow_mut().push(Arc::clone(self)));
        // Ensure the runtime is popped even if the future panics.
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                CURRENT.with(|c| {
                    c.borrow_mut().pop();
                });
            }
        }
        let _guard = PopGuard;

        let main_woken =
            Arc::new(MainWaker { flag: AtomicBool::new(true), core: Arc::downgrade(self) });
        let waker = Waker::from(Arc::clone(&main_woken));
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);

        loop {
            // 1. Poll the main future whenever it has been woken.
            if main_woken.flag.swap(false, Ordering::AcqRel) {
                if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                    return v;
                }
            }

            // 2. Run one ready task.
            let task = self.state.lock().unwrap().ready.pop_front();
            if let Some(task) = task {
                task.run();
                continue;
            }

            // 3. Fire due timers.
            {
                let mut st = self.state.lock().unwrap();
                let now = if st.paused { st.vnow } else { self.epoch.elapsed() };
                let expired = Self::take_expired(&mut st, now);
                drop(st);
                if !expired.is_empty() {
                    wake_all(expired);
                    continue;
                }
            }
            if main_woken.flag.load(Ordering::Acquire) {
                continue;
            }

            // 4. Idle: advance virtual time or park until the next event.
            let mut st = self.state.lock().unwrap();
            if !st.ready.is_empty() || main_woken.flag.load(Ordering::Acquire) {
                continue; // something arrived while re-locking
            }
            if st.paused {
                if let Some(next) = st.timers.peek().map(|t| t.deadline) {
                    // Jump the virtual clock straight to the next deadline.
                    st.vnow = st.vnow.max(next);
                    let now = st.vnow;
                    let expired = Self::take_expired(&mut st, now);
                    drop(st);
                    wake_all(expired);
                    continue;
                }
                // No timers: wait for an external wake (cross-thread waker).
                let _ = self.cv.wait_timeout(st, Duration::from_millis(10)).unwrap();
            } else {
                let now = self.epoch.elapsed();
                let wait = match st.timers.peek() {
                    Some(t) => t.deadline.saturating_sub(now).min(Duration::from_millis(50)),
                    None => Duration::from_millis(50),
                };
                let _ = self.cv.wait_timeout(st, wait.max(Duration::from_micros(100))).unwrap();
            }
        }
    }
}

fn wake_all(wakers: Vec<Waker>) {
    for w in wakers {
        w.wake();
    }
}

struct MainWaker {
    flag: AtomicBool,
    core: Weak<Core>,
}

impl Wake for MainWaker {
    fn wake(self: Arc<Self>) {
        self.flag.store(true, Ordering::Release);
        if let Some(core) = self.core.upgrade() {
            // Notify under the state lock, as `enqueue` pushes under it: a
            // wake can then not fall between `block_on`'s locked re-check
            // and its `wait_timeout`, where the notification would be lost.
            let _state = core.state.lock().unwrap();
            core.notify();
        }
    }
}

/// A spawned task: a future owned by the runtime, woken by reference.
pub(crate) struct Task {
    fut: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    core: Weak<Core>,
    queued: AtomicBool,
}

impl Task {
    fn run(self: Arc<Self>) {
        self.queued.store(false, Ordering::Release);
        let mut slot = self.fut.lock().unwrap();
        let Some(mut fut) = slot.take() else { return };
        drop(slot); // the future may re-entrantly wake itself
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        if fut.as_mut().poll(&mut cx).is_pending() {
            *self.fut.lock().unwrap() = Some(fut);
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if let Some(core) = self.core.upgrade() {
            if !self.queued.swap(true, Ordering::AcqRel) {
                core.enqueue(Arc::clone(&self));
            } else {
                core.notify();
            }
        }
    }
}

/// Spawns `fut` onto the current runtime (must be inside `block_on`).
pub(crate) fn spawn_on_current(fut: Pin<Box<dyn Future<Output = ()> + Send>>) {
    let core = current();
    let task = Arc::new(Task {
        fut: Mutex::new(Some(fut)),
        core: Arc::downgrade(&core),
        queued: AtomicBool::new(true),
    });
    core.enqueue(task);
}
