//! Runtime construction. Both flavors execute on the calling thread; the
//! "multi thread" flavor differs only in name (cooperative scheduling is
//! enough for every workload in this repository, and it keeps the paused
//! virtual clock deterministic).

use crate::rt::Core;
use std::future::Future;
use std::sync::Arc;

/// Builds a [`Runtime`].
pub struct Builder {
    start_paused: bool,
}

impl Builder {
    /// A runtime driving tasks on the current thread.
    pub fn new_current_thread() -> Builder {
        Builder { start_paused: false }
    }

    /// Accepted for API compatibility; behaves like `new_current_thread`.
    pub fn new_multi_thread() -> Builder {
        Builder { start_paused: false }
    }

    /// Enables the timer (always on in this shim).
    pub fn enable_time(&mut self) -> &mut Self {
        self
    }

    /// Enables IO (always on in this shim).
    pub fn enable_io(&mut self) -> &mut Self {
        self
    }

    /// Enables everything (always on in this shim).
    pub fn enable_all(&mut self) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim is single-threaded.
    pub fn worker_threads(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Starts the runtime with its clock paused at zero; timers auto-advance
    /// virtual time when the runtime is otherwise idle.
    pub fn start_paused(&mut self, paused: bool) -> &mut Self {
        self.start_paused = paused;
        self
    }

    /// Builds the runtime.
    pub fn build(&mut self) -> std::io::Result<Runtime> {
        Ok(Runtime { core: Core::new(self.start_paused)? })
    }
}

/// A handle to an executor instance.
pub struct Runtime {
    core: Arc<Core>,
}

impl Runtime {
    /// A default (real-clock) runtime.
    pub fn new() -> std::io::Result<Runtime> {
        Builder::new_current_thread().build()
    }

    /// Runs `fut` to completion, driving spawned tasks and timers.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        self.core.block_on(fut)
    }
}

/// Counters of the calling task's runtime (see [`metrics`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeMetrics {
    /// Idle passes that slept in the reactor.
    pub parks: u64,
    /// Wakes that found the executor parked and wrote its `eventfd`.
    pub unparks: u64,
    /// Idle passes that looked at the reactor without sleeping first.
    pub spins: u64,
    /// Spins that found a task or the main future ready.
    pub spin_wins: u64,
    /// Socket operations that returned `WouldBlock`.
    pub would_block: u64,
    /// Tasks spawned.
    pub tasks_spawned: u64,
    /// Polls of spawned tasks and of the `block_on` future (a wake of a
    /// task that has already completed polls nothing and is not counted).
    pub task_polls: u64,
    /// Timer heap entries pushed: one per `Sleep` per waker it was
    /// polled with.
    pub timers_armed: u64,
}

/// The counts between two snapshots of one runtime.
impl std::ops::Sub for RuntimeMetrics {
    type Output = RuntimeMetrics;

    fn sub(self, before: RuntimeMetrics) -> RuntimeMetrics {
        RuntimeMetrics {
            parks: self.parks - before.parks,
            unparks: self.unparks - before.unparks,
            spins: self.spins - before.spins,
            spin_wins: self.spin_wins - before.spin_wins,
            would_block: self.would_block - before.would_block,
            tasks_spawned: self.tasks_spawned - before.tasks_spawned,
            task_polls: self.task_polls - before.task_polls,
            timers_armed: self.timers_armed - before.timers_armed,
        }
    }
}

/// The counters of the runtime the calling task runs on, since it was
/// built. Panics outside `Runtime::block_on`.
#[doc(hidden)]
pub fn metrics() -> RuntimeMetrics {
    crate::rt::current().metrics()
}
