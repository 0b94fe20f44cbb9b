//! The executor core: a single-threaded, cooperatively scheduled runtime
//! with a timer wheel that can run on real time or on a paused virtual
//! clock (auto-advancing to the next timer deadline when idle, like tokio's
//! `start_paused`).
//!
//! An idle executor parks in its own `Reactor`'s epoll until its next
//! timer deadline, a socket edge or a wake from another thread. A wake
//! makes a syscall (an `eventfd` write) only when the executor is parked.
//!
//! Before it parks, an idle executor on the real clock that has sockets
//! spins: it looks at its reactor without sleeping for up to [`SPIN`], so a
//! reply that is a few microseconds away is picked up without a kernel
//! wake-up. Paused runtimes and runtimes without sockets never spin, and
//! neither does any runtime on a one-core host, where the spinner would
//! delay the very peer it waits for.

use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::net::Reactor;
use crate::runtime::RuntimeMetrics;

/// Task polls between two looks at the reactor while tasks stay ready, so
/// a runtime that always has work still sees its sockets.
const POLLS_PER_IO_LOOK: u32 = 32;

/// The longest the executor parks in its reactor without a timer due.
const MAX_PARK: Duration = Duration::from_millis(50);

/// The longest an idle executor looks at its reactor without sleeping
/// before it parks; capped by the next timer deadline.
const SPIN: Duration = Duration::from_micros(50);

/// Whether the host has a second core for a spinning executor's peer.
fn multicore() -> bool {
    static MULTICORE: OnceLock<bool> = OnceLock::new();
    *MULTICORE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
}

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
    /// The executor is waiting in the reactor, so the next wake must rouse
    /// it. Set by the executor; the first wake that sees it clears it.
    parked: bool,
}

/// What one runtime's executor and its sockets have done; see
/// [`RuntimeMetrics`].
#[derive(Default)]
pub(crate) struct Counters {
    parks: AtomicU64,
    unparks: AtomicU64,
    spins: AtomicU64,
    spin_wins: AtomicU64,
    would_block: AtomicU64,
    tasks_spawned: AtomicU64,
    task_polls: AtomicU64,
    timers_armed: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Shared state of one runtime.
pub(crate) struct Core {
    state: Mutex<CoreState>,
    reactor: Reactor,
    epoch: Instant,
    counters: Counters,
}

impl Core {
    pub(crate) fn new(start_paused: bool) -> std::io::Result<Arc<Core>> {
        Ok(Arc::new(Core {
            state: Mutex::new(CoreState {
                ready: VecDeque::new(),
                timers: BinaryHeap::new(),
                vnow: Duration::ZERO,
                paused: start_paused,
                timer_seq: 0,
                parked: false,
            }),
            reactor: Reactor::new()?,
            epoch: Instant::now(),
            counters: Counters::default(),
        }))
    }

    pub(crate) fn metrics(&self) -> RuntimeMetrics {
        let c = &self.counters;
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        RuntimeMetrics {
            parks: get(&c.parks),
            unparks: get(&c.unparks),
            spins: get(&c.spins),
            spin_wins: get(&c.spin_wins),
            would_block: get(&c.would_block),
            tasks_spawned: get(&c.tasks_spawned),
            task_polls: get(&c.task_polls),
            timers_armed: get(&c.timers_armed),
        }
    }

    /// Counts a socket operation that returned `WouldBlock`.
    pub(crate) fn count_would_block(&self) {
        bump(&self.counters.would_block);
    }

    pub(crate) fn reactor(&self) -> &Reactor {
        &self.reactor
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
    }

    pub(crate) fn register_timer(&self, deadline: Duration, waker: Waker) {
        bump(&self.counters.timers_armed);
        let mut st = self.state.lock().unwrap();
        st.timer_seq += 1;
        let seq = st.timer_seq;
        st.timers.push(TimerEntry { deadline, seq, waker });
    }

    fn enqueue(&self, task: Arc<Task>) {
        let mut st = self.state.lock().unwrap();
        st.ready.push_back(task);
        self.rouse(st);
    }

    /// Unparks the executor if it is parked. Takes the state lock from a
    /// caller that has just made work visible under it: the executor checks
    /// for work and sets `parked` under the same lock, so the work is either
    /// seen before parking or finds `parked` set.
    fn rouse(&self, mut st: MutexGuard<'_, CoreState>) {
        let parked = std::mem::take(&mut st.parked);
        drop(st);
        if parked {
            bump(&self.counters.unparks);
            self.reactor.unpark();
        }
    }

    /// Looks at the reactor without sleeping until a task or the main
    /// future is ready or `budget` runs out. Returns whether one is ready.
    fn spin(&self, budget: Duration, main_woken: &AtomicBool) -> bool {
        let start = Instant::now();
        loop {
            self.reactor.poll(Duration::ZERO, || {});
            if main_woken.load(Ordering::Acquire) || !self.state.lock().unwrap().ready.is_empty() {
                return true;
            }
            if start.elapsed() >= budget {
                return false;
            }
            std::hint::spin_loop();
        }
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
        let mut polls_since_io_look = 0;
        // The reactor was looked at (a zero-timeout look, a spin or a park)
        // and nothing has run since.
        let mut io_looked = false;

        loop {
            // 1. Poll the main future whenever it has been woken.
            if main_woken.flag.swap(false, Ordering::AcqRel) {
                io_looked = false;
                bump(&self.counters.task_polls);
                if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                    return v;
                }
            }

            // 2. Run one ready task, looking at the reactor every
            //    POLLS_PER_IO_LOOK polls.
            let task = self.state.lock().unwrap().ready.pop_front();
            if let Some(task) = task {
                if task.run() {
                    bump(&self.counters.task_polls);
                }
                io_looked = false;
                polls_since_io_look += 1;
                if polls_since_io_look == POLLS_PER_IO_LOOK {
                    polls_since_io_look = 0;
                    if self.reactor.has_sources() {
                        self.reactor.poll(Duration::ZERO, || {});
                    }
                }
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

            // 4. Idle: advance virtual time, or spin and then park until the
            //    next event.
            let mut st = self.state.lock().unwrap();
            if !st.ready.is_empty() || main_woken.flag.load(Ordering::Acquire) {
                continue; // something arrived while re-locking
            }
            let wait = if st.paused {
                if let Some(next) = st.timers.peek().map(|t| t.deadline) {
                    if self.reactor.has_sources() && !io_looked {
                        // Sockets first: their I/O may be what runs next.
                        drop(st);
                        self.reactor.poll(Duration::ZERO, || {});
                        io_looked = true;
                        continue;
                    }
                    // Jump the virtual clock straight to the next deadline.
                    st.vnow = st.vnow.max(next);
                    let now = st.vnow;
                    let expired = Self::take_expired(&mut st, now);
                    drop(st);
                    wake_all(expired);
                    continue;
                }
                // No timers: wait for an external wake (cross-thread waker).
                MAX_PARK
            } else {
                let now = self.epoch.elapsed();
                let wait = st
                    .timers
                    .peek()
                    .map_or(MAX_PARK, |t| t.deadline.saturating_sub(now).min(MAX_PARK));
                if !io_looked && self.reactor.has_sources() && multicore() {
                    // A spin that finds nothing makes the next idle pass park.
                    drop(st);
                    bump(&self.counters.spins);
                    if self.spin(wait.min(SPIN), &main_woken.flag) {
                        bump(&self.counters.spin_wins);
                    }
                    polls_since_io_look = 0;
                    io_looked = true;
                    continue;
                }
                wait
            };
            st.parked = true;
            drop(st);
            bump(&self.counters.parks);
            // `parked` is cleared as soon as the wait returns, before any
            // edge wakes a task: a wake from this reactor then finds the
            // executor awake and does not write its eventfd.
            self.reactor.poll(wait, || self.state.lock().unwrap().parked = false);
            polls_since_io_look = 0;
            io_looked = true;
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
            // Under the state lock, like a task's wake: the flag is then set
            // either before `block_on`'s locked re-check or before it parks.
            core.rouse(core.state.lock().unwrap());
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
    /// Polls the task's future; false if it had already completed.
    fn run(self: Arc<Self>) -> bool {
        self.queued.store(false, Ordering::Release);
        let mut slot = self.fut.lock().unwrap();
        let Some(mut fut) = slot.take() else { return false };
        drop(slot); // the future may re-entrantly wake itself
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        if fut.as_mut().poll(&mut cx).is_pending() {
            *self.fut.lock().unwrap() = Some(fut);
        }
        true
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if let Some(core) = self.core.upgrade() {
            // An already queued task is run before the executor parks.
            if !self.queued.swap(true, Ordering::AcqRel) {
                core.enqueue(Arc::clone(&self));
            }
        }
    }
}

/// Spawns `fut` onto the current runtime (must be inside `block_on`).
pub(crate) fn spawn_on_current(fut: Pin<Box<dyn Future<Output = ()> + Send>>) {
    let core = current();
    bump(&core.counters.tasks_spawned);
    let task = Arc::new(Task {
        fut: Mutex::new(Some(fut)),
        core: Arc::downgrade(&core),
        queued: AtomicBool::new(true),
    });
    core.enqueue(task);
}
