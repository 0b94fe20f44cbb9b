//! Unit-level durability tests for the backup role: the write-ahead AOF
//! discipline (DESIGN.md invariant 7), cold-restart restoration, install
//! persistence, and fencing tombstones.

use bytes::Bytes;
use curp_core::backup::{BackupService, SyncOutcome};
use curp_core::snapshot::Snapshot;
use curp_proto::message::LogEntry;
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{ClientId, Epoch, MasterId, RpcId};
use curp_rifl::RiflTable;
use curp_storage::{Aof, ShardedStore, TempDir};

const M: MasterId = MasterId(1);

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn entry(seq: u64, key: &str, val: &str, version: u64) -> LogEntry {
    LogEntry {
        seq,
        rpc_id: Some(RpcId::new(ClientId(1), seq + 1)),
        op: Op::Put { key: b(key), value: b(val) },
        result: OpResult::Written { version },
    }
}

fn applied(outcome: SyncOutcome) -> u64 {
    match outcome {
        SyncOutcome::Applied { next_seq } => next_seq,
        other => panic!("expected Applied, got {other:?}"),
    }
}

#[test]
fn synced_entries_survive_service_restart() {
    let dir = TempDir::new("curp-durability-roundtrip").unwrap();
    {
        let bs = BackupService::durable(dir.path()).unwrap();
        assert!(bs.is_durable());
        let next =
            applied(bs.sync(M, Epoch(1), &[entry(0, "a", "1", 1), entry(1, "b", "2", 1)], &[]));
        assert_eq!(next, 2);
    }
    // Cold restart: a fresh service over the same directory replays the AOF.
    let bs = BackupService::durable(dir.path()).unwrap();
    assert_eq!(bs.next_seq(M), Some(2), "replica not restored from AOF");
    assert_eq!(bs.read(M, &Op::Get { key: b("a") }), Some(OpResult::Value(Some(b("1")))));
    assert_eq!(bs.read(M, &Op::Get { key: b("b") }), Some(OpResult::Value(Some(b("2")))));
}

#[test]
fn ack_implies_entries_are_on_disk() {
    // Invariant 7's backup half: once sync() returns Applied, the entries
    // must already be readable from the AOF — drop the service (losing all
    // memory) immediately after the ack and reload from disk alone.
    let dir = TempDir::new("curp-durability-write-ahead").unwrap();
    let bs = BackupService::durable(dir.path()).unwrap();
    applied(bs.sync(M, Epoch(1), &[entry(0, "k", "v", 1)], &[]));
    let loaded = Aof::load(&dir.path().join("master-1.aof")).unwrap();
    assert_eq!(loaded.records.len(), 1, "ack preceded the AOF write");
    assert_eq!(loaded.records[0], entry(0, "k", "v", 1));
    assert!(!loaded.truncated);
}

#[test]
fn buffered_out_of_order_entries_are_not_persisted_early() {
    let dir = TempDir::new("curp-durability-reorder").unwrap();
    {
        let bs = BackupService::durable(dir.path()).unwrap();
        // seq 1 arrives first: buffered, applied nowhere, persisted nowhere.
        applied(bs.sync(M, Epoch(1), &[entry(1, "b", "2", 1)], &[]));
        assert!(Aof::load(&dir.path().join("master-1.aof")).unwrap().records.is_empty());
        // seq 0 fills the gap: both go to disk in seq order, one batch.
        let next = applied(bs.sync(M, Epoch(1), &[entry(0, "a", "1", 1)], &[]));
        assert_eq!(next, 2);
    }
    let loaded = Aof::load(&dir.path().join("master-1.aof")).unwrap();
    let seqs: Vec<u64> = loaded.records.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![0, 1], "AOF must hold the contiguous run in order");
    // A restart sees the full, ordered state.
    let bs = BackupService::durable(dir.path()).unwrap();
    assert_eq!(bs.next_seq(M), Some(2));
}

#[test]
fn duplicate_resend_is_not_appended_twice() {
    let dir = TempDir::new("curp-durability-dup").unwrap();
    {
        let bs = BackupService::durable(dir.path()).unwrap();
        applied(bs.sync(M, Epoch(1), &[entry(0, "a", "1", 1)], &[]));
        // Retried sync re-sends entry 0 alongside entry 1.
        applied(bs.sync(M, Epoch(1), &[entry(0, "a", "1", 1), entry(1, "a", "2", 2)], &[]));
    }
    let loaded = Aof::load(&dir.path().join("master-1.aof")).unwrap();
    assert_eq!(loaded.records.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
    let bs = BackupService::durable(dir.path()).unwrap();
    assert_eq!(bs.read(M, &Op::Get { key: b("a") }), Some(OpResult::Value(Some(b("2")))));
}

#[test]
fn install_persists_snapshot_and_later_syncs_extend_it() {
    let dir = TempDir::new("curp-durability-install").unwrap();
    let blob_next;
    {
        // Materialize some state to snapshot.
        let store: ShardedStore = ShardedStore::new(1);
        store.execute(&Op::Put { key: b("base"), value: b("snap") });
        let mut rifl = RiflTable::new();
        rifl.record(RpcId::new(ClientId(9), 1), OpResult::Written { version: 1 });
        let snap = Snapshot::from_parts(store.export(), rifl.export(), 5);
        blob_next = 5u64;

        let bs = BackupService::durable(dir.path()).unwrap();
        assert!(bs.install(M, Epoch(3), blob_next, &snap).unwrap());
        // The replica continues from the snapshot's next_seq.
        let next = applied(bs.sync(M, Epoch(3), &[entry(5, "after", "x", 1)], &[]));
        assert_eq!(next, 6);
    }
    let bs = BackupService::durable(dir.path()).unwrap();
    assert_eq!(bs.next_seq(M), Some(6));
    assert_eq!(bs.read(M, &Op::Get { key: b("base") }), Some(OpResult::Value(Some(b("snap")))));
    assert_eq!(bs.read(M, &Op::Get { key: b("after") }), Some(OpResult::Value(Some(b("x")))));
    // The persisted epoch still fences the pre-install incarnation.
    assert!(matches!(
        bs.sync(M, Epoch(2), &[entry(6, "z", "z", 1)], &[]),
        SyncOutcome::Fenced { .. }
    ));
}

#[test]
fn torn_aof_tail_is_dropped_on_restore() {
    let dir = TempDir::new("curp-durability-torn").unwrap();
    {
        let bs = BackupService::durable(dir.path()).unwrap();
        applied(bs.sync(M, Epoch(1), &[entry(0, "a", "1", 1), entry(1, "b", "2", 1)], &[]));
    }
    // Power fails mid-append of a *third* entry: tear the file.
    let path = dir.path().join("master-1.aof");
    let raw = std::fs::read(&path).unwrap();
    let mut torn = raw.clone();
    let tail = entry(2, "c", "3", 1);
    let mut buf = bytes::BytesMut::new();
    curp_proto::frame::write_frame(&curp_proto::wire::Encode::to_bytes(&tail), &mut buf);
    torn.extend_from_slice(&buf[..buf.len() / 2]);
    std::fs::write(&path, &torn).unwrap();

    let bs = BackupService::durable(dir.path()).unwrap();
    assert_eq!(bs.next_seq(M), Some(2), "torn tail must be dropped, prefix kept");
    assert_eq!(bs.read(M, &Op::Get { key: b("c") }), Some(OpResult::Value(None)));

    // The restore must have *cut* the torn bytes, not merely skipped them:
    // syncing new entries appends to the file, and if the tear were still
    // on disk the new frames would hide behind its stale length prefix and
    // poison this second restart.
    applied(bs.sync(M, Epoch(1), &[entry(2, "c", "3", 1), entry(3, "d", "4", 1)], &[]));
    drop(bs);
    let bs = BackupService::durable(dir.path()).unwrap();
    assert_eq!(bs.next_seq(M), Some(4), "entries appended after a tear must survive");
    assert_eq!(bs.read(M, &Op::Get { key: b("c") }), Some(OpResult::Value(Some(b("3")))));
    assert_eq!(bs.read(M, &Op::Get { key: b("d") }), Some(OpResult::Value(Some(b("4")))));
}

#[test]
fn dropped_replica_keeps_its_fence_and_loses_its_data() {
    let dir = TempDir::new("curp-durability-tombstone").unwrap();
    let bs = BackupService::durable(dir.path()).unwrap();
    applied(bs.sync(M, Epoch(4), &[entry(0, "a", "1", 1)], &[]));
    assert!(dir.path().join("master-1.aof").exists());

    bs.drop_replica(M);
    assert!(!dir.path().join("master-1.aof").exists(), "the AOF must be deleted");
    // The fencing epoch survives the drop: a zombie of the dead incarnation
    // is still rejected (§4.7)…
    assert!(matches!(
        bs.sync(M, Epoch(3), &[entry(0, "a", "1", 1)], &[]),
        SyncOutcome::Fenced { .. }
    ));
    // …including across this backup's own restart: the tombstone persists
    // the epoch as an empty snapshot, so the zombie stays fenced while the
    // data stays gone.
    drop(bs);
    let bs = BackupService::durable(dir.path()).unwrap();
    assert!(matches!(
        bs.sync(M, Epoch(3), &[entry(0, "a", "1", 1)], &[]),
        SyncOutcome::Fenced { .. }
    ));
    assert_eq!(bs.next_seq(M), Some(0), "tombstone carries no data");
    assert_eq!(bs.read(M, &Op::Get { key: b("a") }), Some(OpResult::Value(None)));
}

#[test]
fn set_epoch_fence_survives_backup_restart() {
    // The §4.7 hole this pins shut: the coordinator fences every backup
    // *before* reading any of them for recovery. If a backup crashes and
    // cold-restarts inside that window, a fence that lived only in memory is
    // gone — and the deposed master's next sync would be accepted, diverging
    // the replica from the recovered successor. The fence must hit disk in
    // set_epoch itself.
    let dir = TempDir::new("curp-durability-fence").unwrap();
    {
        let bs = BackupService::durable(dir.path()).unwrap();
        applied(bs.sync(M, Epoch(1), &[entry(0, "a", "1", 1)], &[]));
        // Coordinator fences ahead of recovery (§4.7 step 0)…
        bs.set_epoch(M, Epoch(7));
        // …and this backup dies before the recovery install reaches it.
    }
    let bs = BackupService::durable(dir.path()).unwrap();
    assert_eq!(bs.next_seq(M), Some(1), "data must survive alongside the fence");
    assert!(
        matches!(bs.sync(M, Epoch(1), &[entry(1, "a", "2", 2)], &[]), SyncOutcome::Fenced { .. }),
        "zombie sync re-admitted: the fence did not survive the restart"
    );
    // The recovered successor (fenced epoch or later) still syncs fine.
    applied(bs.sync(M, Epoch(7), &[entry(1, "a", "2", 2)], &[]));
}

#[test]
fn fence_without_any_sync_survives_restart() {
    // A master that crashed before its first sync has no replica, no AOF, no
    // snapshot — only the fence file says anything about it on disk.
    let dir = TempDir::new("curp-durability-fence-bare").unwrap();
    {
        let bs = BackupService::durable(dir.path()).unwrap();
        bs.set_epoch(M, Epoch(3));
    }
    let bs = BackupService::durable(dir.path()).unwrap();
    assert!(
        matches!(bs.sync(M, Epoch(2), &[entry(0, "a", "1", 1)], &[]), SyncOutcome::Fenced { .. }),
        "bare fence lost across restart"
    );
}

#[test]
fn restore_from_aof_rejects_memory_only_service() {
    let bs = BackupService::new();
    assert!(!bs.is_durable());
    assert!(bs.restore_from_aof(M).is_err());
    assert!(bs.restore_all_from_disk().unwrap().is_empty());
}
