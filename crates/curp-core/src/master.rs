//! The CURP master (§3.2.3, §4.3–4.6).
//!
//! A master receives, serializes and executes all update RPCs for its
//! partition. Unlike a traditional primary, it *responds before replicating*
//! (speculative execution) and keeps the invariant that all unsynced
//! operations are mutually commutative: an incoming operation that touches
//! any unsynced object forces a blocking backup sync before its response is
//! released, tagged `synced` so the client can skip its own sync RPC.
//!
//! ## Sharded execution engine
//!
//! Commutativity is CURP's whole premise, so the master must not serialize
//! commuting operations on a lock either. Execution state lives behind the
//! [`StateStore`] boundary — a key-hash-sharded engine whose shard mutexes
//! protect their key space **plus** the master's per-shard state (the
//! pending log tail and the hot-key history), so the fast path costs
//! exactly one lock acquisition. Which engine backs the boundary is a
//! [`StoreConfig`] decision: purely in-memory, or tiered with an LSM-lite
//! run tier for larger-than-memory partitions. Log order stays global via
//! atomic counters (`next_seq`, the store's log head).
//!
//! Locking discipline (see DESIGN.md, invariant 6):
//!
//! * shard locks are acquired in **ascending index order** (multi-key ops
//!   lock their whole shard set up front);
//! * `ctrl` (epoch/range/witness-list/sealed), `rifl`, and `pending_gc`
//!   are **leaf locks** — taken while holding shard guards but never held
//!   across another lock acquisition;
//! * whole-engine operations (the sync cut, migration, recovery install)
//!   lock *all* shards, which quiesces execution and makes the merged
//!   per-shard pending tails a contiguous log prefix.
//!
//! Backup syncs are batched (§4.4): the background syncer drains every
//! shard's pending tail, merges the entries by sequence number, and
//! replicates them either when `batch_size` operations accumulate, when the
//! hot-key heuristic predicts a conflict, or on an interval tick. After
//! each sync the master garbage-collects the synced requests from its
//! witnesses (§4.5) and handles any suspected-stale requests the witnesses
//! report back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use curp_proto::cluster::{HashRange, LoadStats};
use curp_proto::footprint::{Footprint, ShardSet};
use curp_proto::lockrank;
use curp_proto::message::{LogEntry, RecordedRequest, Request, Response};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{ClientId, Epoch, KeyHash, MasterId, RpcId, ServerId, WitnessListVersion};
use curp_rifl::{CheckResult, RiflTable};
use curp_storage::{StateStore, StoreConfig};
use curp_transport::rpc::{join_all, RpcClient};
use parking_lot::Mutex;
use tokio::sync::{watch, Notify};

use crate::snapshot::Snapshot;

/// Tuning knobs for a master.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Sync to backups once this many operations are pending (§4.4: "masters
    /// batch at most 50 operations before syncs").
    pub batch_size: usize,
    /// Background flush interval: an idle master syncs its pending tail at
    /// this cadence even if the batch never fills.
    pub sync_interval: Duration,
    /// Simulated execution cost per operation (zero outside simulations).
    pub exec_cost: Duration,
    /// Enables the §4.4 heuristic: sync immediately after updating an object
    /// that was updated recently, predicting another update soon.
    pub hotkey_sync: bool,
    /// "Recently" for the hot-key heuristic, in log entries.
    pub hotkey_window: u64,
    /// Attempts before a sync round gives up (entries stay pending).
    pub sync_retry_limit: u32,
    /// Delay between sync retry attempts.
    pub sync_retry_backoff: Duration,
    /// When an update's entry reaches the backups relative to its response.
    pub replication: Replication,
    /// Execution-engine construction: shard count plus an optional
    /// larger-than-memory run tier. Single-key operations lock exactly one
    /// shard; commuting operations on different shards execute without
    /// contending.
    pub store: StoreConfig,
}

/// How a master replicates updates to its backups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replication {
    /// CURP: a commuting update is answered before it is replicated, and
    /// the background syncer batches the pending tail to the backups.
    Speculative,
    /// The paper's "Original RAMCloud" baseline: every update replicates
    /// itself to every backup before its response (4 RPCs per write, §4.4),
    /// with no batching across clients. At most `REPLICATION_WORKERS`
    /// requests replicate at once.
    PerRequest,
    /// Durable Redis (§C.2): every update waits for a shared sync round
    /// before its response, so concurrent requests share one round.
    GroupCommit {
        /// How long a round waits before snapshotting, so that operations
        /// arriving meanwhile join it: one event-loop iteration's worth of
        /// ready clients before the shared fsync.
        gather: Duration,
    },
}

/// Per-request replications in flight at once under
/// [`Replication::PerRequest`]. RAMCloud's workers each poll on their own
/// replication, while the dispatch thread is the shared bottleneck (§4.4).
const REPLICATION_WORKERS: usize = 4;

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            batch_size: 50,
            sync_interval: Duration::from_millis(1),
            exec_cost: Duration::ZERO,
            hotkey_sync: true,
            hotkey_window: 50,
            sync_retry_limit: 10,
            sync_retry_backoff: Duration::from_millis(5),
            replication: Replication::Speculative,
            store: StoreConfig::default(),
        }
    }
}

/// Observable counters (benchmarks and tests).
#[derive(Debug, Default)]
pub struct MasterStats {
    /// Update RPCs executed (excluding duplicates).
    pub updates: AtomicU64,
    /// Updates that required a blocking sync (non-commutative, 2-RTT path).
    pub conflicts: AtomicU64,
    /// Sync rounds completed.
    pub syncs: AtomicU64,
    /// Log entries replicated.
    pub entries_synced: AtomicU64,
    /// Witness gc RPCs sent.
    pub gcs_sent: AtomicU64,
    /// Duplicate RPCs filtered by RIFL.
    pub duplicates: AtomicU64,
}

/// The master's per-shard state, co-located with the store shard inside the
/// same mutex (the `Ext` parameter of [`StateStore`]): one lock per
/// operation covers the key space, the pending tail, and the hot-key scan.
#[derive(Default)]
struct ShardMeta {
    /// Executed but not yet replicated entries whose *home shard* (lowest
    /// shard index of the op's footprint) is this shard, in seq order.
    pending: Vec<LogEntry>,
    /// Last update entry-seq per key hash routed here (hot-key heuristic).
    recent_updates: HashMap<KeyHash, u64>,
}

/// Rarely-mutated control state. Leaf lock: never acquire anything while
/// holding it.
struct Ctrl {
    epoch: Epoch,
    backups: Vec<ServerId>,
    witnesses: Vec<ServerId>,
    wl_version: WitnessListVersion,
    range: HashRange,
    /// Set when fenced (zombie) or migrated away: reject everything.
    sealed: bool,
    /// Set for the duration of a [`Master::migrate_out`] cut: new updates
    /// are refused with `Retry` so the pre-migration sync can actually
    /// drain the pending tail under live load. Cleared when the cut
    /// completes, fails, *or is cancelled* (RAII guard — a coordinator that
    /// dies mid-drain must not leave the master refusing writes forever);
    /// reads are unaffected.
    draining: bool,
    /// The last completed cut's `(split_at, snapshot blob)`, kept until the
    /// coordinator confirms the migration plan closed. A re-issued
    /// `migrate_out` for the same split point returns this instead of
    /// cutting again — the cut itself is not repeatable (the objects are
    /// gone from the store), so this stash is what makes the drain step
    /// idempotent for a resumed migration plan.
    migration_stash: Option<(u64, bytes::Bytes)>,
}

/// The master role for one partition.
pub struct Master {
    id: MasterId,
    cfg: MasterConfig,
    rpc: Arc<dyn RpcClient>,
    /// The execution engine, behind the [`StateStore`] boundary; per-shard
    /// [`ShardMeta`] rides inside each shard's lock.
    store: Box<dyn StateStore<ShardMeta>>,
    /// Duplicate detection (RIFL). Its own leaf lock: checks and completion
    /// records never contend with execution on other shards. Atomicity of
    /// check-then-execute for one rpc id comes from the shard guards — a
    /// duplicate has the same footprint, so it serializes on the same
    /// shards.
    rifl: Mutex<RiflTable>,
    /// Control-plane state (leaf lock). Ownership/seal checks happen while
    /// the operation's shard guards are held, and reconfiguration
    /// (migration) mutates `range` while holding *all* shards — so a check
    /// can never interleave with a reconfiguration.
    ctrl: Mutex<Ctrl>,
    /// Extra gc pairs to piggyback on the next sync's gc round (suspected
    /// uncollected garbage already durable, §4.5). Leaf lock.
    pending_gc: Mutex<Vec<(KeyHash, RpcId)>>,
    /// Next log-entry sequence number (global log order across shards).
    next_seq: AtomicU64,
    /// Total pending entries across shards — drives the batch-size sync
    /// trigger without visiting every shard.
    pending_count: AtomicUsize,
    /// Serializes sync rounds ("RAMCloud allows only one outstanding sync",
    /// §C.1).
    sync_lock: tokio::sync::Mutex<()>,
    sync_notify: Notify,
    /// Watermark: every log entry with `seq < *synced_rx.borrow()` is durable
    /// on all backups. Waiters blocked on a conflicting operation observe
    /// this to return as soon as *their* entry is durable (group commit),
    /// instead of taking a turn flushing other clients' entries.
    synced_tx: watch::Sender<u64>,
    /// Limits concurrent per-request replications (`REPLICATION_WORKERS`).
    repl_slots: Arc<tokio::sync::Semaphore>,
    /// Statistics.
    pub stats: MasterStats,
}

/// Everything needed to start a fresh master.
pub struct MasterSeed {
    /// Role incarnation id.
    pub id: MasterId,
    /// Fencing epoch.
    pub epoch: Epoch,
    /// Backup servers (`f` of them).
    pub backups: Vec<ServerId>,
    /// Witness servers (`f` of them).
    pub witnesses: Vec<ServerId>,
    /// Current witness-list version.
    pub wl_version: WitnessListVersion,
    /// Owned slice of the hash space.
    pub range: HashRange,
}

impl Master {
    /// Creates a fresh, empty master.
    pub fn new(seed: MasterSeed, cfg: MasterConfig, rpc: Arc<dyn RpcClient>) -> Arc<Master> {
        let store = cfg.store.build();
        Self::build(seed, cfg, rpc, store, RiflTable::new(), 0)
    }

    /// Creates a master over restored state (recovery, migration): the
    /// snapshot is imported, entirely synced, into the engine `cfg.store`
    /// selects, and log entries continue from `snap.next_seq`.
    pub fn with_state(
        seed: MasterSeed,
        cfg: MasterConfig,
        rpc: Arc<dyn RpcClient>,
        snap: Snapshot,
    ) -> Arc<Master> {
        let store = cfg.store.build_import(snap.objects, snap.dead_versions);
        Self::build(seed, cfg, rpc, store, RiflTable::import(snap.rifl), snap.next_seq)
    }

    fn build(
        seed: MasterSeed,
        cfg: MasterConfig,
        rpc: Arc<dyn RpcClient>,
        store: Box<dyn StateStore<ShardMeta>>,
        rifl: RiflTable,
        next_seq: u64,
    ) -> Arc<Master> {
        Arc::new(Master {
            id: seed.id,
            cfg,
            rpc,
            store,
            rifl: Mutex::ranked(lockrank::MASTER_RIFL, "core.master.rifl", rifl),
            ctrl: Mutex::ranked(
                lockrank::MASTER_CTRL,
                "core.master.ctrl",
                Ctrl {
                    epoch: seed.epoch,
                    backups: seed.backups,
                    witnesses: seed.witnesses,
                    wl_version: seed.wl_version,
                    range: seed.range,
                    sealed: false,
                    draining: false,
                    migration_stash: None,
                },
            ),
            pending_gc: Mutex::ranked(
                lockrank::MASTER_PENDING_GC,
                "core.master.pending_gc",
                Vec::new(),
            ),
            next_seq: AtomicU64::new(next_seq),
            pending_count: AtomicUsize::new(0),
            sync_lock: tokio::sync::Mutex::new(()),
            sync_notify: Notify::new(),
            synced_tx: watch::channel(0u64).0,
            repl_slots: Arc::new(tokio::sync::Semaphore::new(REPLICATION_WORKERS)),
            stats: MasterStats::default(),
        })
    }

    /// This master's role id.
    pub fn id(&self) -> MasterId {
        self.id
    }

    /// Spawns the background syncer. Call once after construction.
    pub fn spawn_syncer(self: &Arc<Self>) -> tokio::task::JoinHandle<()> {
        let master = Arc::clone(self);
        tokio::spawn(async move {
            // An interval round is due `sync_interval` after the syncer goes
            // back to waiting. One timer serves that schedule: it is armed
            // again only after it fired, and one that fires before the
            // current due time (a notify woke a round since it was armed)
            // is moved to that time instead of syncing. A fresh sleep per
            // wait would leave a timer behind for every round a notify
            // woke, each waking the syncer later for nothing.
            let interval = master.cfg.sync_interval;
            let mut tick = std::pin::pin!(tokio::time::sleep(interval));
            let mut fired = false;
            loop {
                let due = tokio::time::Instant::now() + interval;
                if fired {
                    tick.set(tokio::time::sleep_until(due));
                    fired = false;
                }
                loop {
                    tokio::select! {
                        _ = master.sync_notify.notified() => break,
                        _ = tick.as_mut() => {
                            if tokio::time::Instant::now() >= due {
                                fired = true;
                                break;
                            }
                            tick.set(tokio::time::sleep_until(due));
                        }
                    }
                }
                if master.is_sealed() {
                    return;
                }
                if master.cfg.replication == Replication::PerRequest {
                    // Every write replicates itself; an interval round would
                    // race the per-op path.
                    continue;
                }
                let _ = master.sync().await;
            }
        })
    }

    /// Whether this master has been fenced or migrated away.
    pub fn is_sealed(&self) -> bool {
        self.ctrl.lock().sealed
    }

    /// Seals the master: every subsequent request is refused. Used when a
    /// backup fences us (zombie, §4.7) and by crash simulation.
    pub fn seal(&self) {
        self.ctrl.lock().sealed = true;
    }

    /// Number of pending (speculative) entries — diagnostics.
    pub fn pending_len(&self) -> usize {
        let mut total = 0;
        self.store.lock_all_for(None).for_each_ext_mut(|_, meta| total += meta.pending.len());
        total
    }

    /// Snapshots this master's load signals for the coordinator's
    /// autoscaler: the monotone update counter, the speculative queue depth,
    /// and a fixed-width histogram of recently updated key hashes over the
    /// owned range — the split-point oracle.
    ///
    /// Taken under the existing shard guards (the same `lock_all` the
    /// diagnostics use); the histogram is allocation-bounded by construction
    /// ([`curp_proto::cluster::LOAD_HISTOGRAM_BUCKETS`] buckets regardless
    /// of how many keys each shard's `recent_updates` holds — itself already
    /// bounded by the hot-key retain rule).
    ///
    /// Hashes outside the owned range are skipped, not clamped: after a
    /// `migrate_out` shrinks the range, `recent_updates` still remembers
    /// keys from the departed half until the hot-key window rolls over, and
    /// `bucket_for`'s edge clamp would pile all of them into one boundary
    /// bucket — dragging the hotkey-mass median toward the cut edge and
    /// making the *next* split pathologically lopsided.
    pub fn load_stats(&self) -> LoadStats {
        let range = self.ctrl.lock().range;
        let mut histogram = vec![0u64; curp_proto::cluster::LOAD_HISTOGRAM_BUCKETS];
        let mut pending = 0u64;
        self.store.lock_all_for(None).for_each_ext_mut(|_, meta| {
            pending += meta.pending.len() as u64;
            for &h in meta.recent_updates.keys() {
                if range.contains(h) {
                    histogram[LoadStats::bucket_for(&range, h)] += 1;
                }
            }
        });
        LoadStats {
            updates: self.stats.updates.load(Ordering::Relaxed),
            pending,
            range,
            hot_hash_histogram: histogram,
        }
    }

    /// Current witness list and version (diagnostics).
    pub fn witness_list(&self) -> (WitnessListVersion, Vec<ServerId>) {
        let ctrl = self.ctrl.lock();
        (ctrl.wl_version, ctrl.witnesses.clone())
    }

    /// Ownership check over a precomputed footprint (computed once per RPC;
    /// recomputing per check would re-hash every key).
    fn owns(range: &HashRange, footprint: &Footprint) -> bool {
        footprint.iter().all(|&h| range.contains(h))
    }

    /// The shard set for `footprint`, with the no-key edge case (an empty
    /// `MultiPut` still consumes a log entry) pinned to shard 0.
    fn shard_set_for(&self, footprint: &Footprint) -> ShardSet {
        let mut set = footprint.shard_set(self.store.num_shards());
        if set.is_empty() {
            set.push(0);
        }
        set
    }

    /// Handles a client update RPC. See module docs for the decision tree.
    pub async fn handle_update(
        self: &Arc<Self>,
        rpc_id: RpcId,
        first_incomplete: u64,
        wl_version: WitnessListVersion,
        op: Op,
    ) -> Response {
        if op.is_read_only() {
            return Response::Retry { reason: "read-only op sent as update".into() };
        }
        if !self.cfg.exec_cost.is_zero() {
            tokio::time::sleep(self.cfg.exec_cost).await;
        }
        // One footprint per RPC: shard routing, the ownership check and the
        // hot-key scan all share it instead of re-hashing the keys (and it
        // is computed outside every lock).
        let footprint = op.key_hashes();
        let shard_set = self.shard_set_for(&footprint);
        let self_repl = self.cfg.replication == Replication::PerRequest;
        let (result, must_sync, repl_entry) = {
            // Lock-time readiness: a tiered engine promotes the op's cold
            // keys here, so the commute check and execute below see exactly
            // the in-memory engine's state.
            let mut guards = self.store.lock_for(&shard_set, Some(&op));
            {
                let ctrl = self.ctrl.lock();
                if ctrl.sealed {
                    return Response::Retry { reason: "master sealed".into() };
                }
                if ctrl.draining {
                    return Response::Retry { reason: "master draining for migration".into() };
                }
                if wl_version != ctrl.wl_version {
                    return Response::StaleWitnessList { current: ctrl.wl_version };
                }
                if !Self::owns(&ctrl.range, &footprint) {
                    return Response::NotOwner;
                }
            }
            let repl_acks = {
                let mut rifl = self.rifl.lock();
                rifl.ack(rpc_id.client, first_incomplete);
                match rifl.check(rpc_id) {
                    CheckResult::Duplicate(result) => {
                        drop(rifl);
                        self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
                        // A duplicate carries the same footprint, so its
                        // entry — if still pending — lives under the shard
                        // guards we already hold.
                        let mut still_pending = false;
                        guards.for_each_ext_mut(|_, meta| {
                            still_pending |= meta.pending.iter().any(|e| e.rpc_id == Some(rpc_id));
                        });
                        return Response::Update { result, synced: !still_pending };
                    }
                    CheckResult::Stale => {
                        return Response::Retry { reason: "rpc already acknowledged".into() }
                    }
                    CheckResult::New => {}
                }
                // A self-replicating entry carries the watermarks that moved
                // so far. They are read before its seq is drawn, so every RPC
                // they cover has a lower seq (see `BackupService::sync`).
                if self_repl {
                    rifl.take_moved_acks()
                } else {
                    Vec::new()
                }
            };
            // §3.2.3: an operation touching any unsynced object must not be
            // externalized before a sync. Routing reuses the footprint —
            // nothing re-hashes a key under the shard lock.
            let conflict = guards.touches_unsynced_routed(&op, &footprint)
                || self.cfg.replication != Replication::Speculative;
            let result = guards.execute_routed(&op, &footprint);
            let mutated = !matches!(result, OpResult::ConditionFailed { .. } | OpResult::WrongType);
            // Every update gets a log entry — including failed conditionals:
            // their completion records must become durable too, or a retry
            // after recovery could re-execute with a different outcome.
            // Replay on backups is still deterministic (the op fails there
            // identically, mutating nothing).
            let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
            let entry =
                LogEntry { seq, rpc_id: Some(rpc_id), op: op.clone(), result: result.clone() };
            let repl_entry = self_repl.then(|| (entry.clone(), repl_acks));
            guards.ext_mut(shard_set[0]).pending.push(entry);
            self.pending_count.fetch_add(1, Ordering::SeqCst);
            self.rifl.lock().record(rpc_id, result.clone());
            self.stats.updates.fetch_add(1, Ordering::Relaxed);

            // Hot-key heuristic (§4.4): if this key was updated within the
            // last `hotkey_window` entries, predict another update soon and
            // sync eagerly (without blocking this response). The history is
            // per shard — each hash is scanned under the lock it lives in.
            let mut hot = false;
            if mutated {
                let num_shards = self.store.num_shards();
                for &h in &footprint {
                    let meta = guards.ext_mut(h.shard(num_shards));
                    if let Some(&prev) = meta.recent_updates.get(&h) {
                        if self.cfg.hotkey_sync
                            && seq.saturating_sub(prev) <= self.cfg.hotkey_window
                        {
                            hot = true;
                        }
                    }
                    meta.recent_updates.insert(h, seq);
                    if meta.recent_updates.len() > 8 * self.cfg.hotkey_window as usize + 64 {
                        let cutoff = seq.saturating_sub(self.cfg.hotkey_window);
                        meta.recent_updates.retain(|_, &mut s| s >= cutoff);
                    }
                }
            }
            let batch_full = self.pending_count.load(Ordering::SeqCst) >= self.cfg.batch_size;
            if (hot || batch_full) && !conflict {
                self.sync_notify.notify_one();
            }
            (result, conflict.then_some(seq), repl_entry)
        };
        if let Some((entry, acks)) = repl_entry {
            // "Original" synchronous mode: this request replicates itself —
            // one replication RPC per backup per request, exactly the 4-RPCs-
            // per-write pattern §4.4 describes. No cross-client batching.
            let synced = self.replicate_one(entry, acks, shard_set[0]).await;
            self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
            return Response::Update { result, synced };
        }
        if let Some(my_seq) = must_sync {
            // Blocking sync: returns once this operation's entry is durable
            // (an in-flight round started by another client may cover it).
            self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
            let synced = self.sync_up_to(my_seq).await;
            return Response::Update { result, synced };
        }
        Response::Update { result, synced: false }
    }

    /// Handles a read-only client RPC (§3.2.3, §A.3): a read touching an
    /// unsynced object blocks on a sync so its result cannot be lost.
    pub async fn handle_read(self: &Arc<Self>, op: Op) -> Response {
        if !op.is_read_only() {
            return Response::Retry { reason: "mutation sent as read".into() };
        }
        if !self.cfg.exec_cost.is_zero() {
            tokio::time::sleep(self.cfg.exec_cost).await;
        }
        let footprint = op.key_hashes();
        let shard_set = self.shard_set_for(&footprint);
        for _ in 0..100 {
            {
                let mut guards = self.store.lock_for(&shard_set, Some(&op));
                {
                    let ctrl = self.ctrl.lock();
                    if ctrl.sealed {
                        return Response::Retry { reason: "master sealed".into() };
                    }
                    if !Self::owns(&ctrl.range, &footprint) {
                        return Response::NotOwner;
                    }
                }
                if !guards.touches_unsynced_routed(&op, &footprint) {
                    let result = guards.execute_routed(&op, &footprint);
                    return Response::Read { result };
                }
            }
            if !self.sync().await {
                return Response::Retry { reason: "sync failed".into() };
            }
        }
        Response::Retry { reason: "read starved by hot writes".into() }
    }

    /// Handles an explicit client sync RPC (slow path, §3.2.1).
    ///
    /// The request names the master incarnation whose speculative results
    /// the client is holding. A mismatch means the partition was recovered
    /// since the client's update executed — this master's log never held
    /// those entries, so its `SyncDone` would prove nothing about them. The
    /// refusal sends the client through the full retry path, where RIFL
    /// filters anything recovery already replayed (§4.7, client side).
    pub async fn handle_sync(self: &Arc<Self>, master_id: MasterId) -> Response {
        if master_id != self.id {
            return Response::Retry { reason: "master incarnation changed".into() };
        }
        if self.is_sealed() {
            return Response::Retry { reason: "master sealed".into() };
        }
        if self.sync().await {
            Response::SyncDone
        } else {
            Response::Retry { reason: "sync failed".into() }
        }
    }

    /// Installs a new witness list (§3.6). The master syncs first so clients
    /// can never complete an update against only the old witnesses.
    pub async fn handle_witness_list(
        self: &Arc<Self>,
        version: WitnessListVersion,
        witnesses: Vec<ServerId>,
    ) -> Response {
        if !self.sync().await {
            return Response::Retry { reason: "sync failed".into() };
        }
        let mut ctrl = self.ctrl.lock();
        if version > ctrl.wl_version {
            ctrl.wl_version = version;
            ctrl.witnesses = witnesses;
        }
        Response::WitnessListInstalled
    }

    /// Handles a client lease expiry (§4.8): sync, then drop records.
    pub async fn handle_client_expired(self: &Arc<Self>, client: ClientId) -> Response {
        if !self.sync().await {
            return Response::Retry { reason: "sync failed".into() };
        }
        self.rifl.lock().expire_client(client);
        Response::ClientExpiredAck
    }

    /// Replicates the pending tail to all backups, then garbage-collects the
    /// replicated requests from all witnesses. Returns `true` on success
    /// (including the nothing-to-do case).
    pub async fn sync(self: &Arc<Self>) -> bool {
        let guard = self.sync_lock.lock().await;
        self.sync_round(guard).await
    }

    /// Group commit: waits until the entry with sequence `seq` is durable on
    /// all backups, flushing if no round is in flight. Returns `false` if
    /// the master is sealed or replication fails.
    pub async fn sync_up_to(self: &Arc<Self>, seq: u64) -> bool {
        let mut rx = self.synced_tx.subscribe();
        loop {
            if *rx.borrow_and_update() > seq {
                return true;
            }
            if self.is_sealed() {
                return false;
            }
            tokio::select! {
                guard = self.sync_lock.lock() => {
                    if !self.sync_round(guard).await {
                        return false;
                    }
                }
                changed = rx.changed() => {
                    if changed.is_err() {
                        return false;
                    }
                }
            }
        }
    }

    /// Synchronous per-request replication ([`Replication::PerRequest`]):
    /// sends this entry alone to every backup, bounded by the worker
    /// semaphore. Backups buffer out-of-order arrivals, so concurrent
    /// workers are safe.
    /// `home_shard` is the entry's pending-tail shard (lowest shard of its
    /// footprint), passed in by the caller so this path never re-hashes the
    /// op's keys. `acks` are the RIFL watermarks read before the entry's seq
    /// was drawn; a failed round hands them back for the next one.
    async fn replicate_one(
        self: &Arc<Self>,
        entry: LogEntry,
        acks: Vec<(ClientId, u64)>,
        home_shard: usize,
    ) -> bool {
        // lint: audited-unwrap — the semaphore lives in self and is never closed
        let permit = Arc::clone(&self.repl_slots).acquire_owned().await.expect("semaphore closed");
        let (epoch, backups) = {
            let ctrl = self.ctrl.lock();
            if ctrl.sealed {
                return false;
            }
            (ctrl.epoch, ctrl.backups.clone())
        };
        let seq = entry.seq;
        let home_set = [home_shard];
        let calls = backups.iter().map(|&b| {
            self.rpc.call(
                b,
                Request::BackupSync {
                    master_id: self.id,
                    epoch,
                    entries: vec![entry.clone()],
                    acks: acks.clone(),
                },
            )
        });
        let results = join_all(calls).await;
        drop(permit);
        for r in results {
            match r {
                Ok(Response::BackupSynced { accepted: true, .. }) => {}
                Ok(Response::BackupSynced { accepted: false, .. }) => {
                    self.seal();
                    return false;
                }
                _ => {
                    self.rifl.lock().requeue_acks(&acks);
                    return false;
                }
            }
        }
        // Commit: drop the entry from its home shard's pending tail and
        // advance the watermark.
        {
            let mut guards = self.store.lock_for(&home_set, None);
            let meta = guards.ext_mut(home_set[0]);
            let before = meta.pending.len();
            meta.pending.retain(|e| e.seq != seq);
            let removed = before - meta.pending.len();
            self.pending_count.fetch_sub(removed, Ordering::SeqCst);
        }
        if self.pending_count.load(Ordering::SeqCst) == 0 {
            // Nothing pending anywhere: the whole log is durable, so the
            // synced frontier may advance to the head. Re-verify under all
            // shard locks (a new op may have landed meanwhile).
            let mut guards = self.store.lock_all_for(None);
            let mut pending = 0;
            guards.for_each_ext_mut(|_, meta| pending += meta.pending.len());
            if pending == 0 {
                let head = self.store.log_head();
                if head > self.store.synced_pos() {
                    guards.mark_synced(head);
                }
            }
        }
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.stats.entries_synced.fetch_add(1, Ordering::Relaxed);
        self.synced_tx.send_modify(|f| *f = (*f).max(seq + 1));
        true
    }

    /// One replication round; `_guard` serializes rounds.
    ///
    /// The round's snapshot is taken under *all* shard locks: with every
    /// shard held no execution is in flight, so draining the per-shard
    /// pending tails and merging them by seq yields a contiguous tail of
    /// the global log. The expensive part — replication RPCs — runs with
    /// all locks released.
    ///
    /// The RIFL watermarks that moved since the last successful round ride
    /// along, read under the same locks: every RPC an ack covers executed
    /// before the update that carried it, so its entry is in this round or
    /// an earlier one, and a backup applies the acks once it has applied
    /// the round (see `BackupService::sync`).
    async fn sync_round(self: &Arc<Self>, _guard: tokio::sync::MutexGuard<'_, ()>) -> bool {
        if let Replication::GroupCommit { gather } = self.cfg.replication {
            tokio::time::sleep(gather).await;
        }
        let (entries, acks, pos_target, epoch, backups) = {
            let mut guards = self.store.lock_all_for(None);
            let ctrl = self.ctrl.lock();
            if ctrl.sealed {
                return false;
            }
            let (epoch, backups) = (ctrl.epoch, ctrl.backups.clone());
            drop(ctrl);
            let mut entries: Vec<LogEntry> = Vec::new();
            guards.for_each_ext_mut(|_, meta| entries.extend(meta.pending.iter().cloned()));
            if entries.is_empty() && self.pending_gc.lock().is_empty() {
                return true;
            }
            // Merge the per-shard tails into global log order.
            entries.sort_unstable_by_key(|e| e.seq);
            // Acks wait for a round that sends entries.
            let acks =
                if entries.is_empty() { Vec::new() } else { self.rifl.lock().take_moved_acks() };
            (entries, acks, self.store.log_head(), epoch, backups)
        };

        if !entries.is_empty() {
            let mut attempt = 0;
            loop {
                let calls = backups.iter().map(|&b| {
                    self.rpc.call(
                        b,
                        Request::BackupSync {
                            master_id: self.id,
                            epoch,
                            entries: entries.clone(),
                            acks: acks.clone(),
                        },
                    )
                });
                let results = join_all(calls).await;
                let mut all_ok = true;
                for r in results {
                    match r {
                        Ok(Response::BackupSynced { accepted: true, .. }) => {}
                        Ok(Response::BackupSynced { accepted: false, .. }) => {
                            // We are fenced: a newer master exists (§4.7).
                            self.seal();
                            return false;
                        }
                        _ => all_ok = false,
                    }
                }
                if all_ok {
                    break;
                }
                attempt += 1;
                if attempt >= self.cfg.sync_retry_limit {
                    self.rifl.lock().requeue_acks(&acks);
                    return false;
                }
                tokio::time::sleep(self.cfg.sync_retry_backoff).await;
            }
        }

        // Commit the sync locally and compute the witness gc set. The
        // frontier is clamped: a concurrent per-request replication
        // (`Replication::PerRequest`) may already have advanced it further.
        let (gc_pairs, witnesses) = {
            let mut guards = self.store.lock_all_for(None);
            let target = pos_target.max(self.store.synced_pos());
            guards.mark_synced(target);
            if let Some(last) = entries.last().map(|e| e.seq) {
                let mut removed = 0;
                guards.for_each_ext_mut(|_, meta| {
                    let before = meta.pending.len();
                    meta.pending.retain(|e| e.seq > last);
                    removed += before - meta.pending.len();
                });
                self.pending_count.fetch_sub(removed, Ordering::SeqCst);
            }
            let mut pairs: Vec<(KeyHash, RpcId)> = Vec::new();
            for e in &entries {
                if let Some(id) = e.rpc_id {
                    for h in e.op.key_hashes_iter() {
                        pairs.push((h, id));
                    }
                }
            }
            pairs.append(&mut self.pending_gc.lock());
            (pairs, self.ctrl.lock().witnesses.clone())
        };
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.stats.entries_synced.fetch_add(entries.len() as u64, Ordering::Relaxed);
        if let Some(last) = entries.last() {
            let frontier = last.seq + 1;
            self.synced_tx.send_modify(|f| *f = (*f).max(frontier));
        }
        // Background store maintenance rides the sync cadence: with the
        // frontier just advanced, a tiered engine may flush newly-synced
        // state and merge runs. Failure is not a sync failure — nothing is
        // evicted unless its spill landed durably, so the store is simply
        // unchanged and the next round retries.
        let _ = self.store.maintain();

        if !gc_pairs.is_empty() && !witnesses.is_empty() {
            // Gc RPCs are batched, one per witness per sync round (§3.5).
            let calls = witnesses.iter().map(|&w| {
                self.rpc
                    .call(w, Request::WitnessGc { master_id: self.id, entries: gc_pairs.clone() })
            });
            self.stats.gcs_sent.fetch_add(witnesses.len() as u64, Ordering::Relaxed);
            let results = join_all(calls).await;
            for r in results.into_iter().flatten() {
                if let Response::GcDone { stale } = r {
                    self.handle_suspected_garbage(stale);
                }
            }
        }
        true
    }

    /// Replays a witness-recorded request that was never executed here:
    /// validates the cached footprint, checks ownership, filters duplicates
    /// under the op's shard guards, then executes and logs it. Returns
    /// `true` if the request was executed. Shared by crash recovery (§4.6)
    /// and suspected-garbage handling (§4.5).
    fn replay_recorded(&self, req: &RecordedRequest) -> bool {
        // Ownership is decided on the footprint the witness stored — after
        // checking it matches the op (invariant 1). Requests on partitions
        // we do not own are dropped (§3.6).
        if !req.footprint_matches_op() {
            return false;
        }
        let shard_set = self.shard_set_for(&req.key_hashes);
        let mut guards = self.store.lock_for(&shard_set, Some(&req.op));
        // Ownership is checked *under the shard guards* (invariant 6):
        // migration flips the range while holding all shards, so the check
        // cannot interleave with a concurrent migrate_out.
        {
            let ctrl = self.ctrl.lock();
            if !Self::owns(&ctrl.range, &req.key_hashes) {
                return false;
            }
        }
        match self.rifl.lock().check(req.rpc_id) {
            CheckResult::Duplicate(_) | CheckResult::Stale => return false,
            CheckResult::New => {}
        }
        let result = guards.execute_routed(&req.op, &req.key_hashes);
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        guards.ext_mut(shard_set[0]).pending.push(LogEntry {
            seq,
            rpc_id: Some(req.rpc_id),
            op: req.op.clone(),
            result: result.clone(),
        });
        self.pending_count.fetch_add(1, Ordering::SeqCst);
        self.rifl.lock().record(req.rpc_id, result);
        true
    }

    /// §4.5: witnesses report requests that survived several gc rounds. The
    /// master retries them (RIFL filters re-executions), ensures they are
    /// synced, and re-gc's them on the next round.
    fn handle_suspected_garbage(self: &Arc<Self>, stale: Vec<RecordedRequest>) {
        let mut need_sync = false;
        for req in stale {
            // A doctored cached footprint must not be trusted on *any*
            // branch (invariant 1): the still-pending scan below routes by
            // it, and scanning the wrong shards could prematurely gc a
            // witness record whose entry is still unreplicated.
            if !req.footprint_matches_op() {
                continue;
            }
            let check = self.rifl.lock().check(req.rpc_id);
            match check {
                CheckResult::Duplicate(_) | CheckResult::Stale => {
                    // Already executed. If still pending it will be gc'd with
                    // its own sync; otherwise schedule an explicit re-gc.
                    let shard_set = self.shard_set_for(&req.key_hashes);
                    let mut guards = self.store.lock_for(&shard_set, None);
                    let mut still_pending = false;
                    guards.for_each_ext_mut(|_, meta| {
                        still_pending |= meta.pending.iter().any(|e| e.rpc_id == Some(req.rpc_id));
                    });
                    drop(guards);
                    if !still_pending {
                        let mut gc = self.pending_gc.lock();
                        for h in &req.key_hashes {
                            gc.push((*h, req.rpc_id));
                        }
                        need_sync = true;
                    }
                }
                CheckResult::New => {
                    // The client recorded the request but the master never
                    // executed it (client crashed mid-operation).
                    if self.replay_recorded(&req) {
                        need_sync = true;
                    }
                }
            }
        }
        if need_sync {
            self.sync_notify.notify_one();
        }
    }

    // ---- recovery (§3.3, §4.6) --------------------------------------------

    /// Runs full crash recovery, producing the *new* master for the crashed
    /// partition: restore from one backup, replay from one witness, then
    /// install the recovered state on all backups.
    ///
    /// The coordinator must already have fenced the old master's epoch on the
    /// backups and started witness instances for `seed.id` on `seed.witnesses`.
    #[allow(clippy::too_many_arguments)]
    pub async fn recover(
        seed: MasterSeed,
        cfg: MasterConfig,
        rpc: Arc<dyn RpcClient>,
        old_master: MasterId,
        backup_source: ServerId,
        witness_source: ServerId,
    ) -> Result<Arc<Master>, String> {
        // Step 1: restore from a backup.
        let rsp = rpc
            .call(backup_source, Request::BackupFetch { master_id: old_master })
            .await
            .map_err(|e| format!("backup fetch failed: {e}"))?;
        let (next_seq, snapshot) = match rsp {
            Response::BackupData { next_seq, snapshot } => (next_seq, snapshot),
            other => return Err(format!("unexpected fetch response: {other:?}")),
        };
        let mut snap = Snapshot::from_blob(&snapshot).map_err(|e| e.to_string())?;
        // The response header's next_seq is what the backup vouches for; it
        // is authoritative over the blob's copy.
        snap.next_seq = next_seq;

        // Step 2: freeze one witness and take its requests.
        let rsp = rpc
            .call(witness_source, Request::WitnessGetRecoveryData { master_id: old_master })
            .await
            .map_err(|e| format!("witness fetch failed: {e}"))?;
        let requests = match rsp {
            Response::RecoveryData { requests } => requests,
            other => return Err(format!("unexpected recovery response: {other:?}")),
        };

        // Step 3: replay. Requests in one witness are mutually commutative,
        // so any order is fine; RIFL filters those already restored from the
        // backup; ownership filters migrated-away partitions (§3.6).
        let master = Master::with_state(seed, cfg, rpc, snap);
        master.rifl.lock().set_recovery_mode(true);
        for req in requests {
            let _ = master.replay_recorded(&req);
        }
        master.rifl.lock().set_recovery_mode(false);

        // Step 4: make the recovered state durable on all backups under the
        // new master id, folding in the replayed entries.
        let (blob, next_seq, epoch, backups) = {
            let mut guards = master.store.lock_all_for(None);
            let head = master.store.log_head();
            if head > master.store.synced_pos() {
                guards.mark_synced(head);
            }
            let mut cleared = 0;
            guards.for_each_ext_mut(|_, meta| {
                cleared += meta.pending.len();
                meta.pending.clear();
            });
            master.pending_count.fetch_sub(cleared, Ordering::SeqCst);
            let next_seq = master.next_seq.load(Ordering::SeqCst);
            // Fold any run-tier state back into the memtable so the
            // guard-level export below is the *whole* store.
            master.store.absorb_runs(&mut guards);
            let snap = Snapshot::from_parts(guards.export(), master.rifl.lock().export(), next_seq);
            let ctrl = master.ctrl.lock();
            (snap.to_blob(), next_seq, ctrl.epoch, ctrl.backups.clone())
        };
        let calls = backups.iter().map(|&b| {
            master.rpc.call(
                b,
                Request::BackupInstall {
                    master_id: master.id,
                    epoch,
                    next_seq,
                    snapshot: blob.clone(),
                },
            )
        });
        for r in join_all(calls).await {
            match r {
                Ok(Response::BackupInstalled) => {}
                other => return Err(format!("backup install failed: {other:?}")),
            }
        }
        Ok(master)
    }

    // ---- migration (§3.6) ----------------------------------------------------

    /// Extracts the `[split_at, end)` half of this master's range after a
    /// full sync. The master keeps `[start, split_at)` and afterwards
    /// rejects requests for the migrated half with `NotOwner`.
    ///
    /// The split happens under all shard locks, and the ownership check of
    /// every update runs under *its* shard guards — so no update can
    /// execute against the migrated half between the range change and the
    /// data extraction.
    ///
    /// Safe to call under live traffic: the master *drains* for the
    /// duration of the cut — new updates are refused with `Retry` (clients
    /// back off and return once the new map is published) so the
    /// pre-migration sync converges on an empty pending tail instead of
    /// chasing a write stream that never quiesces.
    ///
    /// Re-entrant for a resumed migration plan: the completed cut's snapshot
    /// is stashed (as a blob) until [`Master::clear_migration_stash`], and a
    /// re-issued `migrate_out` with the same `split_at` returns the stash
    /// instead of failing — the objects left the store with the first cut,
    /// so only the stash can answer the retry.
    pub async fn migrate_out(self: &Arc<Self>, split_at: u64) -> Result<Snapshot, String> {
        {
            let mut ctrl = self.ctrl.lock();
            if let Some((at, blob)) = &ctrl.migration_stash {
                if *at == split_at && ctrl.range.end == split_at {
                    let blob = blob.clone();
                    drop(ctrl);
                    return Snapshot::from_blob(&blob).map_err(|e| e.to_string());
                }
            }
            if ctrl.draining {
                return Err("migration already in progress".into());
            }
            ctrl.draining = true;
        }
        // RAII: clear the drain flag on every exit, *including cancellation*
        // (the coordinator's orchestration future being dropped mid-drain) —
        // a stale drain flag would refuse writes forever and block every
        // later migration attempt with "already in progress".
        struct DrainGuard<'a>(&'a Master);
        impl Drop for DrainGuard<'_> {
            fn drop(&mut self) {
                self.0.ctrl.lock().draining = false;
            }
        }
        let _guard = DrainGuard(self);
        self.migrate_out_draining(split_at).await
    }

    /// Drops the stashed migration snapshot once the coordinator's plan has
    /// closed (published or aborted); until then a resumed plan may still
    /// re-request it.
    pub fn clear_migration_stash(&self) {
        self.ctrl.lock().migration_stash = None;
    }

    async fn migrate_out_draining(self: &Arc<Self>, split_at: u64) -> Result<Snapshot, String> {
        // With the drain flag up no new entries are admitted, but updates
        // already past the ownership check may still land one each — a
        // couple of sync rounds flushes the stragglers.
        for _ in 0..5 {
            if !self.sync().await {
                return Err("pre-migration sync failed".into());
            }
            if self.pending_len() == 0 {
                break;
            }
        }
        let mut guards = self.store.lock_all_for(None);
        let mut pending = 0;
        guards.for_each_ext_mut(|_, meta| pending += meta.pending.len());
        if pending > 0 {
            return Err("writes raced the migration sync".into());
        }
        // No pending entries under all shard locks means every executed
        // mutation is replicated — but a concurrent `replicate_one` may have
        // removed its entry without having advanced the frontier yet (those
        // are two critical sections). Advance it here so `split_off`'s
        // fully-synced precondition holds rather than panicking.
        let head = self.store.log_head();
        if head > self.store.synced_pos() {
            guards.mark_synced(head);
        }
        let hi = {
            let mut ctrl = self.ctrl.lock();
            let (lo, hi) = ctrl.range.split_at(split_at);
            ctrl.range = lo;
            hi
        };
        // Migrated keys may live in a run tier; fold everything back so the
        // split sees the whole store.
        self.store.absorb_runs(&mut guards);
        let (objects, dead) = guards.split_off(&|h| hi.contains(h));
        // The migrated partition inherits the full RIFL table: duplicate
        // detection must keep working for requests that moved with the data.
        let snap =
            Snapshot { objects, dead_versions: dead, rifl: self.rifl.lock().export(), next_seq: 0 };
        // Stash the cut atomically with taking it: everything from the range
        // flip to here runs without an await, so a cancelled caller either
        // left the store untouched or left the stash holding the only copy.
        self.ctrl.lock().migration_stash = Some((split_at, snap.to_blob()));
        Ok(snap)
    }

    /// Dispatches master-directed requests.
    pub async fn handle_request(self: &Arc<Self>, req: Request) -> Response {
        match req {
            Request::ClientUpdate { rpc_id, first_incomplete, witness_list_version, op } => {
                self.handle_update(rpc_id, first_incomplete, witness_list_version, op).await
            }
            Request::ClientRead { op } => self.handle_read(op).await,
            Request::Sync { master_id } => self.handle_sync(master_id).await,
            Request::MasterWitnessList { version, witnesses } => {
                self.handle_witness_list(version, witnesses).await
            }
            Request::MasterClientExpired { client } => self.handle_client_expired(client).await,
            Request::MasterLoadStats { master_id } => {
                if master_id != self.id {
                    return Response::Retry { reason: "stale master id".into() };
                }
                Response::LoadStats { stats: self.load_stats() }
            }
            _ => Response::Retry { reason: "not a master request".into() },
        }
    }
}
