//! Focused unit tests of the master's decision logic, using a minimal
//! in-process loopback transport (no coordinator, no client library): every
//! path of `handle_update`/`handle_read` and the sync/gc machinery.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use curp_core::backup::BackupService;
use curp_core::master::{Master, MasterConfig, MasterSeed};
use curp_core::snapshot::Snapshot;
use curp_proto::cluster::HashRange;
use curp_proto::message::{RecordedRequest, Request, Response};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{ClientId, Epoch, MasterId, RpcId, ServerId, WitnessListVersion};
use curp_storage::StoreConfig;
use curp_transport::rpc::{BoxFuture, RpcClient};
use curp_witness::cache::CacheConfig;
use curp_witness::WitnessService;

const M: MasterId = MasterId(7);
const BACKUP: ServerId = ServerId(2);
const WITNESS: ServerId = ServerId(3);
const WLV: WitnessListVersion = WitnessListVersion(1);

/// Loopback transport: routes master-originated RPCs straight into local
/// backup/witness services, keeping every `BackupInstall` blob it carries
/// (the exact bytes a recovered master exported).
struct Loopback {
    backup: Arc<BackupService>,
    witness: Arc<WitnessService>,
    installs: Arc<parking_lot::Mutex<Vec<Bytes>>>,
}

impl RpcClient for Loopback {
    fn call(
        &self,
        to: ServerId,
        req: Request,
    ) -> BoxFuture<'static, Result<Response, curp_transport::RpcError>> {
        let backup = Arc::clone(&self.backup);
        let witness = Arc::clone(&self.witness);
        if let Request::BackupInstall { snapshot, .. } = &req {
            self.installs.lock().push(snapshot.clone());
        }
        Box::pin(async move {
            Ok(match to {
                BACKUP => backup.handle_request(&req),
                WITNESS => witness.handle_request(&req),
                other => return Err(curp_transport::RpcError::Unreachable { to: other }),
            })
        })
    }
}

struct Rig {
    master: Arc<Master>,
    backup: Arc<BackupService>,
    witness: Arc<WitnessService>,
    rpc: Arc<Loopback>,
}

fn seed(id: MasterId) -> MasterSeed {
    MasterSeed {
        id,
        epoch: Epoch(1),
        backups: vec![BACKUP],
        witnesses: vec![WITNESS],
        wl_version: WLV,
        range: HashRange::FULL,
    }
}

fn rig(cfg: MasterConfig) -> Rig {
    let backup = Arc::new(BackupService::new());
    let witness = Arc::new(WitnessService::new(CacheConfig::default()));
    let rpc = Arc::new(Loopback {
        backup: Arc::clone(&backup),
        witness: Arc::clone(&witness),
        installs: Default::default(),
    });
    let master = Master::new(seed(M), cfg, Arc::clone(&rpc) as Arc<dyn RpcClient>);
    witness.start(M);
    Rig { master, backup, witness, rpc }
}

fn lazy() -> MasterConfig {
    MasterConfig {
        batch_size: 10_000,
        sync_interval: Duration::from_secs(3600),
        ..MasterConfig::default()
    }
}

fn b(s: &str) -> Bytes {
    Bytes::from(s.to_owned())
}

fn rid(c: u64, s: u64) -> RpcId {
    RpcId::new(ClientId(c), s)
}

async fn put(r: &Rig, id: RpcId, key: &str, value: &str) -> Response {
    put_on(&r.master, id, key, value).await
}

async fn put_on(master: &Arc<Master>, id: RpcId, key: &str, value: &str) -> Response {
    master.handle_update(id, 0, WLV, Op::Put { key: b(key), value: b(value) }).await
}

#[tokio::test]
async fn speculative_then_conflicting() {
    let r = rig(lazy());
    // First write: speculative.
    let rsp = put(&r, rid(1, 1), "x", "1").await;
    assert_eq!(rsp, Response::Update { result: OpResult::Written { version: 1 }, synced: false });
    assert_eq!(r.master.pending_len(), 1);
    assert_eq!(r.backup.next_seq(M), None);
    // Second write, same key: blocking sync, tagged synced.
    let rsp = put(&r, rid(1, 2), "x", "2").await;
    assert_eq!(rsp, Response::Update { result: OpResult::Written { version: 2 }, synced: true });
    assert_eq!(r.master.pending_len(), 0);
    assert_eq!(r.backup.next_seq(M), Some(2));
}

#[tokio::test]
async fn duplicate_answers_from_completion_record() {
    let r = rig(lazy());
    let id = rid(1, 1);
    let first = r.master.handle_update(id, 0, WLV, Op::Incr { key: b("c"), delta: 5 }).await;
    let second = r.master.handle_update(id, 0, WLV, Op::Incr { key: b("c"), delta: 5 }).await;
    match (first, second) {
        (Response::Update { result: a, .. }, Response::Update { result: bb, synced }) => {
            assert_eq!(a, OpResult::Counter(5));
            assert_eq!(bb, OpResult::Counter(5), "duplicate must not re-execute");
            assert!(!synced, "still pending");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Once synced, the duplicate answer reports synced=true.
    assert!(r.master.sync().await);
    let third = r.master.handle_update(id, 0, WLV, Op::Incr { key: b("c"), delta: 5 }).await;
    assert_eq!(third, Response::Update { result: OpResult::Counter(5), synced: true });
}

#[tokio::test]
async fn stale_witness_list_version_is_fenced() {
    let r = rig(lazy());
    let rsp = r
        .master
        .handle_update(rid(1, 1), 0, WitnessListVersion(0), Op::Put { key: b("k"), value: b("v") })
        .await;
    assert_eq!(rsp, Response::StaleWitnessList { current: WLV });
}

#[tokio::test]
async fn not_owner_outside_range() {
    let backup = Arc::new(BackupService::new());
    let witness = Arc::new(WitnessService::new(CacheConfig::default()));
    let master = Master::new(
        MasterSeed {
            id: M,
            epoch: Epoch(1),
            backups: vec![BACKUP],
            witnesses: vec![WITNESS],
            wl_version: WLV,
            // Owns nothing but a sliver.
            range: HashRange { start: 10, end: 11 },
        },
        lazy(),
        Arc::new(Loopback { backup, witness, installs: Default::default() }),
    );
    let rsp = master
        .handle_update(rid(1, 1), 0, WLV, Op::Put { key: b("anything"), value: b("v") })
        .await;
    assert_eq!(rsp, Response::NotOwner);
}

#[tokio::test]
async fn read_only_op_via_update_is_rejected() {
    let r = rig(lazy());
    let rsp = r.master.handle_update(rid(1, 1), 0, WLV, Op::Get { key: b("k") }).await;
    assert!(matches!(rsp, Response::Retry { .. }));
    // And mutations via read are rejected too.
    let rsp = r.master.handle_read(Op::Put { key: b("k"), value: b("v") }).await;
    assert!(matches!(rsp, Response::Retry { .. }));
}

#[tokio::test]
async fn failed_conditional_put_is_durably_recorded() {
    let r = rig(lazy());
    put(&r, rid(1, 1), "k", "v").await;
    let rsp = r
        .master
        .handle_update(
            rid(1, 2),
            0,
            WLV,
            Op::ConditionalPut { key: b("k"), expected_version: 99, value: b("x") },
        )
        .await;
    match rsp {
        Response::Update { result: OpResult::ConditionFailed { actual_version }, synced } => {
            assert_eq!(actual_version, 1);
            assert!(synced, "same key: conflict path");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The failure itself became a durable completion record on the backup.
    assert_eq!(r.backup.next_seq(M), Some(2));
    let dup = r
        .master
        .handle_update(
            rid(1, 2),
            0,
            WLV,
            Op::ConditionalPut { key: b("k"), expected_version: 99, value: b("x") },
        )
        .await;
    match dup {
        Response::Update { result: OpResult::ConditionFailed { actual_version }, .. } => {
            assert_eq!(actual_version, 1, "duplicate returns the original failure");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[tokio::test]
async fn sync_gc_drains_witness() {
    let r = rig(lazy());
    // Simulate the client-side record (the master does not record; clients do).
    let op = Op::Put { key: b("k"), value: b("v") };
    let req = RecordedRequest {
        master_id: M,
        rpc_id: rid(1, 1),
        key_hashes: op.key_hashes(),
        op: op.clone(),
    };
    assert!(r.witness.record(req));
    put(&r, rid(1, 1), "k", "v").await;
    assert_eq!(r.witness.occupancy(M), 1);
    assert!(r.master.sync().await);
    assert_eq!(r.witness.occupancy(M), 0, "sync must gc the witness");
}

#[tokio::test]
async fn suspected_garbage_is_retried_and_collected() {
    let r = rig(lazy());
    // A client recorded a request but crashed before reaching the master.
    let op = Op::Put { key: b("orphan"), value: b("v") };
    let req = RecordedRequest { master_id: M, rpc_id: rid(9, 1), key_hashes: op.key_hashes(), op };
    assert!(r.witness.record(req));
    // Several gc rounds pass (other traffic syncing).
    for i in 0..3 {
        put(&r, rid(1, i + 1), &format!("other{i}"), "v").await;
        assert!(r.master.sync().await);
    }
    // A new client bumps into the orphan: its record RPC is rejected by the
    // witness (same key), which flags the aged occupant as suspected garbage.
    let op2 = Op::Put { key: b("orphan"), value: b("w") };
    let rejected =
        RecordedRequest { master_id: M, rpc_id: rid(2, 1), key_hashes: op2.key_hashes(), op: op2 };
    assert!(!r.witness.record(rejected), "conflicting record must be rejected");
    let rsp = put(&r, rid(2, 1), "orphan", "w").await;
    // The master executed it (master-side state had no conflict).
    assert!(matches!(rsp, Response::Update { .. }));
    // Next sync's gc response carries the suspect; the master re-executes it
    // (filtered to a fresh execution here since it never ran), syncs it, and
    // re-gc's. After the following sync the witness is clean.
    assert!(r.master.sync().await);
    assert!(r.master.sync().await);
    assert_eq!(r.witness.occupancy(M), 0, "orphan record must eventually be collected");
    // The orphan's operation DID execute exactly once.
    let rsp = r.master.handle_read(Op::Get { key: b("orphan") }).await;
    match rsp {
        Response::Read { result: OpResult::Value(Some(v)) } => {
            // Last writer between the orphan ("v") and client 2 ("w") depends
            // on arrival order; both are valid linearizations. Just assert a
            // value exists.
            assert!(v == b("v") || v == b("w"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[tokio::test]
async fn client_expiry_syncs_first() {
    let r = rig(lazy());
    put(&r, rid(5, 1), "k", "v").await;
    assert_eq!(r.backup.next_seq(M), None);
    let rsp = r.master.handle_client_expired(ClientId(5)).await;
    assert_eq!(rsp, Response::ClientExpiredAck);
    // §4.8: the data was made durable BEFORE dropping the records.
    assert_eq!(r.backup.next_seq(M), Some(1));
    // The client's rpc is now ignored.
    let rsp = put(&r, rid(5, 1), "k", "v").await;
    assert!(matches!(rsp, Response::Retry { .. }));
}

#[tokio::test]
async fn witness_list_install_requires_newer_version() {
    let r = rig(lazy());
    let rsp = r.master.handle_witness_list(WitnessListVersion(2), vec![WITNESS]).await;
    assert_eq!(rsp, Response::WitnessListInstalled);
    let (v, _) = r.master.witness_list();
    assert_eq!(v, WitnessListVersion(2));
    // An older (replayed) install does not regress the version.
    r.master.handle_witness_list(WitnessListVersion(1), vec![BACKUP]).await;
    let (v, list) = r.master.witness_list();
    assert_eq!(v, WitnessListVersion(2));
    assert_eq!(list, vec![WITNESS]);
}

#[tokio::test]
async fn sealed_master_refuses_everything() {
    let r = rig(lazy());
    r.master.seal();
    assert!(matches!(put(&r, rid(1, 1), "k", "v").await, Response::Retry { .. }));
    assert!(matches!(r.master.handle_read(Op::Get { key: b("k") }).await, Response::Retry { .. }));
    assert!(matches!(r.master.handle_sync(M).await, Response::Retry { .. }));
}

#[tokio::test]
async fn sync_for_a_dead_incarnation_is_refused() {
    let r = rig(lazy());
    put(&r, rid(1, 1), "k", "v").await;
    // A client holding speculative results from a previous master life asks
    // this incarnation to vouch for them. It must refuse: a SyncDone here
    // only proves durability of entries *this* log holds, and answering for
    // a dead incarnation would let the client externalize results that
    // recovery may have discarded (the chaos fleet's zombie-ack scenario).
    let stale = MasterId(M.0 + 1);
    assert!(matches!(r.master.handle_sync(stale).await, Response::Retry { .. }));
    assert_eq!(r.master.pending_len(), 1, "a refused sync must not sync anything");
    // The same request naming the live incarnation succeeds.
    assert_eq!(r.master.handle_sync(M).await, Response::SyncDone);
    assert_eq!(r.master.pending_len(), 0);
}

#[tokio::test]
async fn migrate_out_shrinks_ownership() {
    let r = rig(lazy());
    // Spray keys across the hash space.
    for i in 0..32 {
        put(&r, rid(1, i + 1), &format!("mk{i}"), "v").await;
    }
    let snap = r.master.migrate_out(1 << 63).await.expect("migrate");
    // Everything was synced first.
    assert_eq!(r.master.pending_len(), 0);
    // The snapshot holds the upper half; the master refuses those keys now.
    let migrated = snap.objects.len();
    assert!(migrated > 0, "expected some keys in the upper half");
    let mut refused = 0;
    for i in 0..32 {
        let rsp = put(&r, rid(2, i + 1), &format!("mk{i}"), "w").await;
        if rsp == Response::NotOwner {
            refused += 1;
        }
    }
    assert_eq!(refused, migrated, "refusals must match migrated keys");
}

#[tokio::test]
async fn load_stats_after_a_cut_ignores_departed_hot_keys() {
    let r = rig(lazy());
    for i in 0..32 {
        put(&r, rid(1, i + 1), &format!("mk{i}"), "v").await;
    }
    let snap = r.master.migrate_out(1 << 63).await.expect("migrate");
    let departed = snap.objects.len() as u64;
    assert!(departed > 0, "expected some keys in the upper half");

    // The hot-key memory still remembers the departed half (the window has
    // not rolled over), but the histogram must only count what the shrunk
    // range owns: the edge clamp would otherwise pile the departed mass
    // into the top bucket and drag every later split point to the cut edge.
    let stats = r.master.load_stats();
    assert_eq!(stats.range, HashRange { start: 0, end: 1 << 63 });
    assert_eq!(stats.mass(), 32 - departed, "departed keys leaked into the histogram");
    let split = stats.split_point().expect("owned keys keep the range splittable");
    assert!(
        split < (1 << 62) + (1 << 61),
        "split point {split:#x} dragged toward the cut edge ({:#x})",
        1u64 << 63
    );
}

#[tokio::test]
async fn unreachable_backup_fails_sync_but_keeps_pending() {
    let backup = Arc::new(BackupService::new());
    let witness = Arc::new(WitnessService::new(CacheConfig::default()));
    let master = Master::new(
        MasterSeed {
            id: M,
            epoch: Epoch(1),
            backups: vec![ServerId(99)], // nobody home
            witnesses: vec![],
            wl_version: WLV,
            range: HashRange::FULL,
        },
        MasterConfig {
            sync_retry_limit: 2,
            sync_retry_backoff: Duration::from_millis(1),
            ..lazy()
        },
        Arc::new(Loopback { backup, witness, installs: Default::default() }),
    );
    let rsp = master.handle_update(rid(1, 1), 0, WLV, Op::Put { key: b("k"), value: b("v") }).await;
    // Speculative response still works...
    assert!(matches!(rsp, Response::Update { synced: false, .. }));
    // ...but an explicit sync fails and the entry stays pending for retry.
    assert!(!master.sync().await);
    assert_eq!(master.pending_len(), 1);
}

#[tokio::test]
async fn dishonest_footprint_is_dropped_on_replay() {
    let r = rig(lazy());
    // A buggy client cached a footprint that does not match its op: the
    // witness files it under "fake" while the op would write "real".
    let lying = RecordedRequest {
        master_id: M,
        rpc_id: rid(9, 1),
        key_hashes: Op::Put { key: b("fake"), value: b("v") }.key_hashes(),
        op: Op::Put { key: b("real"), value: b("v") },
    };
    assert!(r.witness.record(lying));
    // Several gc rounds age the record into suspicion territory.
    for i in 0..3 {
        put(&r, rid(1, i + 1), &format!("other{i}"), "v").await;
        assert!(r.master.sync().await);
    }
    // An honest record on "fake" collides with the lying one, flagging it as
    // suspected garbage for the next gc response.
    let honest = Op::Put { key: b("fake"), value: b("w") };
    let rejected = RecordedRequest {
        master_id: M,
        rpc_id: rid(2, 1),
        key_hashes: honest.key_hashes(),
        op: honest,
    };
    assert!(!r.witness.record(rejected), "conflicting record must be rejected");
    put(&r, rid(2, 1), "fake", "w").await;
    // The gc response delivers the lying request to the master, which must
    // drop it (DESIGN.md invariant 1) rather than execute it.
    assert!(r.master.sync().await);
    assert!(r.master.sync().await);
    let got = r.master.handle_read(Op::Get { key: b("real") }).await;
    assert!(
        matches!(got, Response::Read { result: OpResult::Value(None) }),
        "a request with a mismatching cached footprint must never execute"
    );
}

#[tokio::test]
async fn sync_merges_per_shard_tails_into_contiguous_log() {
    // Many keys spread across every shard of the execution engine, then one
    // sync round: the backup applies entries strictly in seq order, so its
    // next_seq only reaches the full count if the merged per-shard pending
    // tails form a contiguous prefix of the global log. A merge bug would
    // strand entries in the backup's reorder buffer.
    let r = rig(lazy());
    for i in 0..40u64 {
        let rsp = put(&r, rid(1, i + 1), &format!("key-{i}"), "v").await;
        assert!(matches!(rsp, Response::Update { synced: false, .. }), "commuting write {i}");
    }
    assert_eq!(r.master.pending_len(), 40);
    assert!(r.master.sync().await);
    assert_eq!(r.master.pending_len(), 0);
    assert_eq!(r.backup.next_seq(M), Some(40), "backup must have applied every entry in order");
}

#[tokio::test]
async fn load_stats_snapshot_is_allocation_bounded() {
    use curp_proto::cluster::LOAD_HISTOGRAM_BUCKETS;

    // One shard with a tiny hot-key window makes the retain bound
    // (8 * hotkey_window + 64 entries per shard) small enough to exercise.
    let hotkey_window = 4u64;
    let r =
        rig(MasterConfig { store: curp_storage::StoreConfig::memory(1), hotkey_window, ..lazy() });
    // An empty master still answers with the full (all-zero) histogram.
    let empty = r.master.load_stats();
    assert_eq!(empty.hot_hash_histogram.len(), LOAD_HISTOGRAM_BUCKETS);
    assert_eq!(empty.mass(), 0);
    assert_eq!(empty.split_point(), None);

    // Far more distinct keys than the hot-key window holds: the snapshot's
    // histogram must stay at its fixed bucket count and its mass must stay
    // within the retain bound — no allocation proportional to the keyspace.
    let keys = 2_000u64;
    for i in 0..keys {
        put(&r, rid(1, i + 1), &format!("load-{i}"), "v").await;
    }
    let stats = r.master.load_stats();
    assert_eq!(stats.hot_hash_histogram.len(), LOAD_HISTOGRAM_BUCKETS);
    assert!(stats.mass() > 0, "recent updates must register in the histogram");
    assert!(
        stats.mass() <= 8 * hotkey_window + 64 + 1,
        "histogram mass {} exceeds the recent-updates retain bound",
        stats.mass()
    );
    assert_eq!(stats.updates, keys);
    assert_eq!(stats.pending, r.master.pending_len() as u64);
    assert_eq!(stats.range, HashRange::FULL);
    // Uniform keys: the load-weighted split point is a legal split_at input.
    let mid = stats.split_point().expect("mass > 0 over a splittable range");
    assert!(mid > 0 && mid < u64::MAX);

    // The RPC surface agrees with the direct call, and a stale incarnation
    // id is refused (the autoscaler may race a recovery).
    let rsp = r.master.handle_request(Request::MasterLoadStats { master_id: M }).await;
    match rsp {
        Response::LoadStats { stats: s } => {
            assert_eq!(s.hot_hash_histogram.len(), LOAD_HISTOGRAM_BUCKETS)
        }
        other => panic!("unexpected {other:?}"),
    }
    let rsp =
        r.master.handle_request(Request::MasterLoadStats { master_id: MasterId(M.0 + 1) }).await;
    assert!(matches!(rsp, Response::Retry { .. }));
}

#[tokio::test]
async fn multikey_update_spans_shards_atomically() {
    // A MultiPut whose keys land on different shards: executes atomically,
    // conflicts with later single-key writes on any of its keys, and syncs
    // as one log entry.
    let r = rig(lazy());
    let kvs: Vec<(Bytes, Bytes)> = (0..6).map(|i| (b(&format!("mk{i}")), b("v"))).collect();
    let rsp = r.master.handle_update(rid(1, 1), 0, WLV, Op::MultiPut { kvs }).await;
    assert!(matches!(rsp, Response::Update { result: OpResult::Written { .. }, synced: false }));
    assert_eq!(r.master.pending_len(), 1);
    // Touching any of its keys is a conflict: the response comes back synced.
    let rsp = put(&r, rid(1, 2), "mk3", "w").await;
    assert!(matches!(rsp, Response::Update { synced: true, .. }));
    assert_eq!(r.backup.next_seq(M), Some(2));
    // Both survive on the backup replica.
    let got = r.backup.read(M, &Op::Get { key: b("mk0") });
    assert_eq!(got, Some(OpResult::Value(Some(b("v")))));
    let got = r.backup.read(M, &Op::Get { key: b("mk3") });
    assert_eq!(got, Some(OpResult::Value(Some(b("w")))));
}

#[tokio::test]
async fn recovered_master_is_engine_independent_and_keeps_dead_key_versions() {
    // DESIGN invariant 5 across engines: a master rebuilt from a snapshot
    // (`Master::with_state` -> `StoreConfig::build_import`, the §3.6/§4.6
    // entry point) must export byte-identical state whichever engine the
    // config selects, and must still remember the versions of deleted keys.
    let r = rig(lazy());
    put(&r, rid(1, 1), "live", "v").await;
    for (seq, key) in [(2, "dead"), (4, "gone")] {
        put(&r, rid(1, seq), key, "v1").await;
        r.master.handle_update(rid(1, seq + 1), 0, WLV, Op::Delete { key: b(key) }).await;
    }
    assert!(r.master.sync().await);
    // A speculative re-create of a deleted key survives only on the witness.
    let op = Op::Put { key: b("dead"), value: b("v2") };
    let key_hashes = op.key_hashes();
    assert!(r.witness.record(RecordedRequest { master_id: M, rpc_id: rid(2, 1), key_hashes, op }));

    let tier_root = curp_storage::TempDir::new("curp-master-recover").unwrap();
    let mut tiered = StoreConfig::tiered(4, tier_root.path());
    tiered.tier.as_mut().unwrap().memtable_budget = 1; // every maintain evicts
    let engines = [StoreConfig::memory(1), StoreConfig::memory(4), tiered];
    for (i, store) in engines.into_iter().enumerate() {
        let (id, cfg) = (MasterId(M.0 + 1 + i as u64), MasterConfig { store, ..lazy() });
        let m = Master::recover(seed(id), cfg, r.rpc.clone(), M, BACKUP, WITNESS).await.unwrap();
        // One sync round later (the tiered engine has spilled everything to
        // a run) the other deleted key's version memory must have survived
        // import and eviction alike.
        put_on(&m, rid(3, 1), "other", "v").await;
        assert!(m.sync().await);
        let op = Op::ConditionalPut { key: b("gone"), expected_version: 1, value: b("back") };
        let rsp = m.handle_update(rid(3, 2), 0, WLV, op).await;
        let want = Response::Update { result: OpResult::Written { version: 2 }, synced: false };
        assert_eq!(rsp, want, "engine {i} forgot a deleted key's version");
    }
    let installs = r.rpc.installs.lock();
    let snap = Snapshot::from_blob(&installs[0]).unwrap();
    assert!(snap.objects.iter().any(|(k, o)| k == &b("dead") && o.version == 2), "replayed");
    assert!(snap.dead_versions.contains(&(b("gone"), 1)));
    assert_eq!(installs.len(), 3);
    assert!(installs.iter().all(|blob| blob == &installs[0]), "exports diverged across engines");
}
