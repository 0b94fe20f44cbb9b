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
//! * TCP readiness is epoll-driven and therefore Linux-only: one
//!   process-wide poller thread serves every runtime, with one waker per
//!   direction per socket (see [`net`]).

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
