//! Storage substrates for CURP.
//!
//! The crate's public surface is the [`StateStore`] trait — the exact
//! boundary `curp-core`'s master and backup consume (execute under shard
//! locks, snapshot export, durable-frontier bookkeeping, quiesce) — plus
//! two engines implementing it and the durable-log primitives they share:
//!
//! * [`ShardedStore`] — the in-memory engine: one key space per shard
//!   behind its own lock, global atomic log counters, so commuting
//!   operations (CURP's fast-path case, §4.3) execute without contending
//!   on a single global lock; `ShardedStore::new(1)` is the single-owner
//!   form.
//! * [`TieredStore`] — the larger-than-memory engine: a `ShardedStore`
//!   memtable over sorted-run files ([`RunFile`]) flushed in write
//!   batches with the AOF frame/fsync discipline, a sparse index for
//!   reads that miss the memtable, and background run merging.
//! * [`Aof`] — a Redis-style append-only file with configurable fsync
//!   policy (§5.4), including crash-safe whole-log rewrite
//!   ([`Aof::rewrite`]) for bounded-log compaction.
//! * [`IntentLog`] — a write-ahead journal of orchestration plans,
//!   letting a coordinator that crashed mid-reconfiguration
//!   resume-or-abort the in-flight plan on restart.
//! * [`frames`] — the one torn-tail-vs-corruption framed-log reader all
//!   of the above (and the witness journal in `curp-witness`) share, and
//!   the one durable-file writer ([`AtomicFile`], [`open_for_append`]).
//!
//! Construction goes through [`StoreConfig`]: callers pick a shard count
//! and optionally a tier, and get a `Box<dyn StateStore<_>>` without
//! naming an engine.

mod aof;
pub mod frames;
mod intent;
mod runfile;
mod sharded;
mod store;
pub mod tempdir;
mod tiered;

use std::path::PathBuf;

use bytes::Bytes;
use curp_proto::op::Op;

pub use aof::{Aof, FsyncPolicy};
pub use frames::{
    decode_frames, fsync_dir, load_framed, open_for_append, AtomicFile, FramesOutcome, SyncLevel,
};
pub use intent::{IntentLog, OpenPlan};
pub use runfile::{RunFile, RunRecord};
pub use sharded::{ShardGuards, ShardedStore, DEFAULT_STORE_SHARDS};
pub use store::{Object, StoreExport, Value};
pub use tempdir::TempDir;
pub use tiered::TieredStore;

/// The storage boundary `curp-core` programs against.
///
/// A `StateStore` is a key-hash-sharded object store with global log
/// counters: every mutation is assigned a monotonically increasing log
/// position, and the store answers the §4.3 commutativity question —
/// *"has the last update of this object been synced to backups?"* — by
/// comparing write positions against the synced frontier.
///
/// All execution goes through [`ShardGuards`], acquired from one of the
/// lock methods: the commute check and the execute that depends on it
/// stay atomic under the same shard locks. `Ext` is the embedding
/// layer's per-shard state (the master's pending-sync queues), carried
/// inside each shard's mutex so it shares the shard's lock.
///
/// # Implementor obligations (DESIGN.md invariant 12)
///
/// * **Locking**: shard locks are acquired in ascending index order,
///   [`lock_all_for`](Self::lock_all_for) quiesces the store, and any
///   engine-internal lock (a tier's run list) is a leaf acquired *after*
///   shard locks, never before.
/// * **Lock-time readiness**: after `lock_for(shards, Some(op))`, every
///   key `op` touches must behave exactly as it would in the in-memory
///   engine — same versions, same dead-key version memory — no matter
///   where the engine keeps cold state. (The tiered engine promotes
///   run-resident keys into its memtable here.)
/// * **Frontier**: no engine may evict, compact, or otherwise discard
///   state recording a mutation at-or-above the synced frontier; only
///   mutations strictly below `synced_pos` are eligible to leave memory.
/// * **Durability**: background file writes (run flushes, merges) follow
///   the AOF discipline — framed records, fsync before the file is
///   relied upon, [`AtomicFile`] for atomic replacement.
pub trait StateStore<Ext = ()>: Send + Sync {
    /// Number of shards keys are routed across.
    fn num_shards(&self) -> usize;
    /// The shard index `key` routes to.
    fn shard_of(&self, key: &[u8]) -> usize;
    /// Next log position to be assigned.
    fn log_head(&self) -> u64;
    /// The position up to which mutations are known durable on backups.
    fn synced_pos(&self) -> u64;
    /// Whether the store has speculative (unsynced) mutations.
    fn has_unsynced(&self) -> bool;
    /// Number of live objects resident in memory plus cold tiers.
    fn len(&self) -> usize;
    /// Whether the store holds no live objects anywhere.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Reads an object by cloning it out (test/debug accessor); sees cold
    /// tiers as well as the memtable.
    fn get_object(&self, key: &[u8]) -> Option<Object>;

    /// Locks `shard_set` (strictly ascending, as produced by
    /// [`Footprint::shard_set`](curp_proto::footprint::Footprint::shard_set))
    /// and readies every key of `op` in those shards (see the trait docs'
    /// lock-time readiness obligation).
    fn lock_for<'a>(&'a self, shard_set: &[usize], op: Option<&Op>) -> ShardGuards<'a, Ext>;

    /// Locks every shard in ascending order (quiesce), readying `op`'s
    /// keys if given. While the guards are held no execution is in flight
    /// anywhere in the store.
    fn lock_all_for<'a>(&'a self, op: Option<&Op>) -> ShardGuards<'a, Ext>;

    /// Folds all cold (run-resident) state back into the memtable under
    /// already-held all-shard guards, so guard-level whole-store
    /// operations ([`ShardGuards::export`], [`ShardGuards::split_off`])
    /// see every key. No-op for purely in-memory engines.
    ///
    /// # Panics
    /// Panics if `guards` does not hold all shards or belongs to a
    /// different store.
    fn absorb_runs(&self, guards: &mut ShardGuards<'_, Ext>);

    /// Exports the full state — memtable overlaid on any cold tier — in
    /// deterministic (sorted) order, locking internally for a consistent
    /// cut. Read-only: unlike [`absorb_runs`](Self::absorb_runs) it does
    /// not disturb the tiering.
    fn export(&self) -> StoreExport;

    /// Exports one shard's slice of the state (memtable overlaid on cold
    /// tier, sorted) — the unit of incremental checkpointing.
    fn export_shard(&self, shard: usize) -> StoreExport;

    /// One tick of background maintenance: flush the memtable if it
    /// exceeds its budget, merge runs past the threshold. Never discards
    /// entries at-or-above the durable frontier; on error the store is
    /// unchanged (nothing is evicted before its spill is durable). No-op
    /// for purely in-memory engines.
    fn maintain(&self) -> std::io::Result<()>;
}

/// Tier parameters for [`StoreConfig`].
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Directory under which the engine creates its private run
    /// directory. Run files are a rebuildable cache: each engine instance
    /// starts from an empty directory and removes it on drop.
    pub root: PathBuf,
    /// Approximate memtable payload bytes above which
    /// [`StateStore::maintain`] flushes synced state to a run file.
    pub memtable_budget: u64,
    /// Run-count threshold above which `maintain` merges all runs into
    /// one.
    pub merge_threshold: usize,
    /// Whether run files are fsynced before use. Disabled only by
    /// benchmarks isolating the software share of the flush path; real
    /// deployments keep it on.
    pub fsync: bool,
}

impl TierConfig {
    /// A tier rooted at `root` with default budget (256 KiB) and merge
    /// threshold (4 runs).
    pub fn new(root: impl Into<PathBuf>) -> TierConfig {
        TierConfig {
            root: root.into(),
            memtable_budget: 256 * 1024,
            merge_threshold: 4,
            fsync: true,
        }
    }
}

/// Engine-agnostic store construction: shard count plus an optional tier.
///
/// This is the one place `curp-core` (and everything above it) decides
/// which [`StateStore`] engine backs a master or backup replica; no
/// caller names `ShardedStore`/`TieredStore` directly.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Shard count for the (mem)table.
    pub shards: usize,
    /// `Some` puts an LSM-lite tier under the memtable.
    pub tier: Option<TierConfig>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig::memory(DEFAULT_STORE_SHARDS)
    }
}

impl StoreConfig {
    /// A purely in-memory store with `shards` shards.
    pub fn memory(shards: usize) -> StoreConfig {
        StoreConfig { shards: shards.max(1), tier: None }
    }

    /// A tiered store: `shards`-way memtable over runs rooted at `root`.
    pub fn tiered(shards: usize, root: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig { shards: shards.max(1), tier: Some(TierConfig::new(root)) }
    }

    /// Builds an empty store.
    ///
    /// # Panics
    /// Panics if a configured tier root cannot be created — a tiered
    /// store without its run directory cannot uphold its eviction
    /// contract, and construction is the config-error boundary.
    pub fn build<Ext: Default + Send + 'static>(&self) -> Box<dyn StateStore<Ext>> {
        self.wrap(ShardedStore::new(self.shards))
    }

    /// Builds a store from exported state; the result is entirely synced
    /// (mirrors [`ShardedStore::import`]).
    pub fn build_import<Ext: Default + Send + 'static>(
        &self,
        objects: Vec<(Bytes, Object)>,
        dead_versions: Vec<(Bytes, u64)>,
    ) -> Box<dyn StateStore<Ext>> {
        self.wrap(ShardedStore::import(self.shards, objects, dead_versions))
    }

    fn wrap<Ext: Default + Send + 'static>(
        &self,
        mem: ShardedStore<Ext>,
    ) -> Box<dyn StateStore<Ext>> {
        match &self.tier {
            None => Box::new(mem),
            Some(tier) => Box::new(
                TieredStore::over(mem, tier.clone())
                    // deliberate fail-fast: a master must not start over an
                    // unusable tier root. lint: audited-unwrap
                    .expect("tier root unusable; tiered StoreConfig cannot build"),
            ),
        }
    }
}
