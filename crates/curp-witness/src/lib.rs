//! The CURP witness (§3.2.2, §4.1–4.2).
//!
//! Witnesses are the temporary, unordered durability store that lets CURP
//! clients complete updates in 1 RTT: a client records its request on all
//! `f` witnesses in parallel with sending it to the master, and a witness
//! accepts the record only if it commutes with *every* request it currently
//! holds — so whatever a witness holds can be replayed in any order during
//! recovery.
//!
//! * [`cache`] — the set-associative request cache (§4.2, §B.1): slot lookup
//!   by key hash, per-key conflict detection, uncollected-garbage tracking.
//! * [`service`] — the witness life cycle (§4.1): `start` → normal mode
//!   (record/gc) → `getRecoveryData` irreversibly enters recovery mode →
//!   `end`. One server can host instances for several masters; each
//!   instance's cache lives behind its own lock, so traffic for one master
//!   never blocks another's.
//! * [`persist`] — an optional write-ahead journal standing in for the
//!   paper's flash-backed DRAM: witness state survives process restarts.

pub mod cache;
pub mod persist;
pub mod service;

pub use cache::{CacheConfig, RecordOutcome, WitnessCache};
pub use persist::JournaledWitness;
pub use service::WitnessService;
