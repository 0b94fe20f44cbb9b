//! The workspace-wide lock-rank table (DESIGN.md invariant 6).
//!
//! Every `parking_lot::Mutex`/`RwLock` in production code is constructed
//! with `::ranked(rank, name, ..)` using a constant from this module. Under
//! the `lock_audit` feature of the vendored parking_lot shim (enabled for
//! all `cargo test` invocations from the workspace root), a thread may only
//! acquire locks in strictly ascending rank order, and a strict-leaf lock
//! forbids any further acquisition while held. `curp-lint` statically
//! rejects unranked `Mutex::new` in these crates, so the table below is the
//! single place lock-ordering decisions live.
//!
//! Ranks are grouped in bands, lowest (outermost) first:
//!
//! | band            | locks                                              |
//! |-----------------|----------------------------------------------------|
//! | `0x0100..0x01ff`| infrastructure roots (fleet history, autoscaler)   |
//! | `0x0200..0x02ff`| coordinator state/servers/plans                    |
//! | `0x0300..0x03ff`| client session state/pipes                         |
//! | `0x0400`        | server master slot                                 |
//! | `0x0500`        | backup replica map (held across store operations)  |
//! | `0x0600..0x07ff`| witness service map, per-instance mode             |
//! | `0x0800`        | consensus replica state (held across its store)    |
//! | `0x1000..0x1fff`| store shards, rank = `STORE_SHARD + index`         |
//! | `0x2000..0x2fff`| witness cache shards, rank = `WITNESS_SHARD + i`   |
//! | `0x3000..0x30ff`| master leaves: RIFL, ctrl, pending-GC              |
//! | `0x3100..0x31ff`| consensus client leaves                            |
//! | `0x3200`        | witness journal file                               |
//! | `0x3300..0x33ff`| transport leaves (in-memory fabric, TCP)           |
//! | `0x4000`        | tier run list — **strict leaf**                    |
//!
//! The shard bands hold up to 4096 shards; `ShardedStore` asserts this
//! bound at construction. Two locks of the same band are distinguished by
//! shard index, so ascending shard order (invariant 6's original form) is
//! exactly ascending rank order.

/// Chaos-fleet run history (outermost: held while nothing else is).
pub const FLEET_HISTORY: u32 = 0x0100;
/// Autoscaler background-error sink.
pub const AUTOSCALER_ERRORS: u32 = 0x0110;

/// Coordinator cluster-state table.
pub const COORD_STATE: u32 = 0x0200;
/// Coordinator server registry.
pub const COORD_SERVERS: u32 = 0x0210;
/// Coordinator persisted migration/split plans.
pub const COORD_PLANS: u32 = 0x0220;

/// Client session state (RIFL sequencing, config cache).
pub const CLIENT_STATE: u32 = 0x0300;
/// Client per-server pipeline map.
pub const CLIENT_PIPES: u32 = 0x0310;

/// Server's installed-master slot.
pub const SERVER_MASTER: u32 = 0x0400;

/// Backup service replica map. Ranked below the store band because
/// `BackupService::sync` applies log entries (shard + tier locks) while
/// holding it.
pub const BACKUP_REPLICAS: u32 = 0x0500;

/// Witness service instance map.
pub const WITNESS_INSTANCES: u32 = 0x0600;
/// Per-witness-instance mode (accepting/frozen); held across cache shards.
pub const WITNESS_MODE: u32 = 0x0700;

/// Consensus replica state. Ranked below the store band because the
/// replica executes against its single-shard store while holding it (the
/// same shape as [`BACKUP_REPLICAS`]).
pub const CONSENSUS_REPLICA: u32 = 0x0800;

/// Base rank of the store shard band: shard `i` is `STORE_SHARD + i`.
pub const STORE_SHARD: u32 = 0x1000;
/// Base rank of the witness cache shard band.
pub const WITNESS_SHARD: u32 = 0x2000;
/// Maximum shards per band (both bands are 0x1000 wide).
pub const MAX_SHARDS: usize = 0x1000;

/// Master RIFL (exactly-once result) table.
pub const MASTER_RIFL: u32 = 0x3000;
/// Master control block (sync/migration epochs).
pub const MASTER_CTRL: u32 = 0x3010;
/// Master pending-GC queue.
pub const MASTER_PENDING_GC: u32 = 0x3020;

/// Consensus client RIFL table.
pub const CONSENSUS_CLIENT_RIFL: u32 = 0x3110;
/// Consensus client leader cache.
pub const CONSENSUS_LEADER_CACHE: u32 = 0x3120;

/// Witness durability journal (file handle).
pub const WITNESS_JOURNAL: u32 = 0x3200;

/// In-memory transport: server handler registry.
pub const TRANSPORT_SERVERS: u32 = 0x3300;
/// In-memory transport: per-link latency overrides.
pub const TRANSPORT_LINK_LATENCY: u32 = 0x3310;
/// In-memory transport: default latency model.
pub const TRANSPORT_DEFAULT_LATENCY: u32 = 0x3318;
/// In-memory transport: per-link latency RNG streams.
pub const TRANSPORT_LATENCY_RNGS: u32 = 0x3320;
/// In-memory transport: partition matrix.
pub const TRANSPORT_PARTITIONS: u32 = 0x3330;
/// In-memory transport: per-link fault injectors.
pub const TRANSPORT_LINK_FAULTS: u32 = 0x3340;
/// In-memory transport: default fault injector.
pub const TRANSPORT_DEFAULT_FAULT: u32 = 0x3348;
/// In-memory transport: RPC timeout knob.
pub const TRANSPORT_RPC_TIMEOUT: u32 = 0x3350;
/// TCP transport: route table.
pub const TCP_ROUTES: u32 = 0x3360;
/// TCP transport: pending-call table.
pub const TCP_PENDING: u32 = 0x3370;

/// Tier run list. A strict leaf (`Mutex::ranked_leaf`): absolutely nothing
/// may be acquired while it is held (DESIGN.md invariant 12).
pub const TIER_RUNS: u32 = 0x4000;
