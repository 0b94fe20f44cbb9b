//! Offline shim for the [`tokio`](https://crates.io/crates/tokio) API subset
//! this workspace uses: a **single-threaded cooperative runtime** with a
//! timer wheel that supports `start_paused` virtual time (auto-advancing to
//! the next deadline when idle — the property the CURP simulations depend
//! on), `spawn`/`JoinHandle`, the `sync` primitives (`oneshot`, `mpsc`,
//! `watch`, async `Mutex`, `Notify`, `Semaphore`), `select!`/`join!`,
//! `#[tokio::test]`/`#[tokio::main]`, and async TCP over nonblocking std
//! sockets. See the workspace README's "Dependency policy" section.
//!
//! Deviations from real tokio, by design:
//! * every flavor runs on the calling thread (`multi_thread` is accepted
//!   and ignored) — tasks interleave cooperatively, never in parallel;
//! * `select!` polls branches in declaration order (left-biased);
//! * TCP readiness is epoll-driven and therefore Linux-only: each runtime
//!   owns an epoll instance that its executor waits in when idle, so there
//!   is no I/O thread; a socket registers with every runtime whose task
//!   parks on it and keeps one waker and one readiness bit per direction
//!   (see [`net`]);
//! * an idle real-clock runtime with sockets, on a host with two or more
//!   cores, polls its epoll without sleeping for up to 50 µs before it
//!   parks, so it uses CPU while it waits for a reply; paused runtimes and
//!   runtimes without sockets never do. `runtime::metrics()` (hidden) counts
//!   parks, `eventfd` unparks, spins, `WouldBlock` results, task spawns,
//!   task polls and timers armed per runtime.

pub mod io;
pub mod net;
pub mod runtime;
pub mod sync;
pub mod task;
pub mod time;

#[doc(hidden)]
pub mod macros;

mod rt;

pub use task::spawn;

// `#[tokio::test]` / `#[tokio::main]` attribute macros.
pub use tokio_macros::{main, test};
