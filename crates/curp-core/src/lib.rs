//! The CURP protocol core (§3–4 of the paper).
//!
//! This crate wires the substrates (`curp-storage`, `curp-rifl`,
//! `curp-witness`, `curp-transport`) into the four protocol roles:
//!
//! * [`master::Master`] — speculatively executes updates, enforces
//!   commutativity among unsynced operations, batches asynchronous backup
//!   syncs (§4.4) and garbage-collects witnesses (§4.5). Also performs crash
//!   recovery as the *new* master (§4.6) and migration (§3.6).
//! * [`backup::BackupService`] — applies ordered log entries, fences zombie
//!   epochs (§4.7), serves restore snapshots; built
//!   durable it write-ahead-logs every sync round to per-master AOFs and
//!   restores from them on cold restart (§5.4).
//! * [`client::CurpClient`] — the 1-RTT fast path: update RPC to the master
//!   in parallel with record RPCs to all `f` witnesses; falls back to the
//!   2/3-RTT sync path on rejection (§3.2.1).
//! * [`coordinator::Coordinator`] — cluster configuration, witness-list
//!   versions (§3.6), RIFL leases, and recovery/migration orchestration —
//!   including whole-cluster power-loss restart
//!   ([`coordinator::Coordinator::restart_cluster`]).
//!
//! [`server::CurpServer`] composes master/backup/witness services into one
//! transport-facing handler, so any process can host any mix of roles;
//! [`server::CurpServer::new_durable`] makes both the backup AOFs and the
//! witness journal real on disk.

pub mod backup;
pub mod client;
pub mod coordinator;
pub mod master;
pub mod server;
pub mod snapshot;

pub use backup::BackupService;
pub use client::{ClientError, Completion, CurpClient, PipelineConfig, PipelinedClient};
pub use coordinator::{Coordinator, CoordinatorHandler};
pub use master::{Master, MasterConfig};
pub use server::{CurpServer, ServerHandler};
pub use snapshot::Snapshot;
