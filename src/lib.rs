//! # CURP — Consistent Unordered Replication Protocol
//!
//! A Rust implementation of *"Exploiting Commutativity For Practical Fast
//! Replication"* (Seo Jin Park and John Ousterhout, NSDI 2019): linearizable
//! update operations in **1 RTT** by separating durability from ordering.
//!
//! Clients record each update on `f` *witnesses* in parallel with sending it
//! to the master; the master executes speculatively and replies before
//! replicating to backups. Witnesses and masters independently enforce that
//! all speculative state is *commutative*, so crash recovery can replay
//! witness contents in any order. See `DESIGN.md` for the architecture and
//! `EXPERIMENTS.md` for the reproduction of every figure in the paper.
//!
//! ## Quick start
//!
//! ```
//! use curp::sim::{run_sim, SimCluster, Mode, RamcloudParams};
//! use curp::proto::op::{Op, OpResult};
//! use bytes::Bytes;
//!
//! let written = run_sim(async {
//!     let cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
//!     let client = cluster.client(0).await;
//!     client
//!         .update(Op::Put { key: Bytes::from("hello"), value: Bytes::from("world") })
//!         .await
//!         .unwrap()
//! });
//! assert_eq!(written, OpResult::Written { version: 1 });
//! ```
//!
//! ## Pipelined throughput
//!
//! The one-op-at-a-time client above is round-trip bound. For throughput,
//! wrap it in [`core::client::PipelinedClient`]: a windowed, batching front
//! end that keeps many operations in flight per partition, flushes them as
//! single-write `Batch` frames, and routes by key hash across all masters.
//!
//! ```
//! use curp::core::client::{PipelineConfig, PipelinedClient};
//! use curp::sim::{run_sim, SimCluster, Mode, RamcloudParams};
//! use curp::proto::op::{Op, OpResult};
//! use bytes::Bytes;
//!
//! run_sim(async {
//!     let cluster =
//!         SimCluster::build_partitioned(Mode::Curp, RamcloudParams::new(3), 4).await;
//!     let pipe = PipelinedClient::new(cluster.client(0).await, PipelineConfig::default());
//!     let mut completions = Vec::new();
//!     for i in 0..64 {
//!         let op = Op::Put { key: Bytes::from(format!("k{i}")), value: Bytes::from("v") };
//!         // Suspends only when the target partition's window (16) is full.
//!         completions.push(pipe.submit(op).await.unwrap());
//!     }
//!     for c in completions {
//!         assert!(matches!(c.await.unwrap(), OpResult::Written { .. }));
//!     }
//! });
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`proto`] | wire format, operations, RPC messages |
//! | [`transport`] | `RpcClient`/`RpcHandler`, simulated + TCP transports |
//! | [`storage`] | `StateStore` engines, append-only file, durable-file writer |
//! | [`rifl`] | exactly-once RPC semantics (leases, completion records) |
//! | [`witness`] | the set-associative witness cache and server |
//! | [`core`] | master, backup, client, coordinator, recovery |
//! | [`sim`] | calibrated cluster models and the linearizability checker |
//! | [`workload`] | YCSB/Zipfian generators, latency recorders, and the open-loop load driver |

pub use curp_core as core;
pub use curp_proto as proto;
pub use curp_rifl as rifl;
pub use curp_sim as sim;
pub use curp_storage as storage;
pub use curp_transport as transport;
pub use curp_witness as witness;
pub use curp_workload as workload;
