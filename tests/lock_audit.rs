//! Runtime lock-order auditor tests. Root integration tests always build
//! with `lock_audit` on (the facade's dev-dependency enables the feature,
//! and resolver-2 unification propagates it to every crate in the test
//! graph) — so these tests double as proof the auditor is actually armed
//! for the chaos batch that runs in the same `cargo test` invocation.
//!
//! Ranks here live in a `0x9xxx_xxxx` band far above the production table
//! in `curp-proto/src/lockrank.rs`, so nothing these tests record in the
//! global acquisition-order graph can interfere with production edges.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use curp::proto::lockrank;
use curp::proto::op::{Op, OpResult};
use curp::storage::ShardedStore;
use parking_lot::Mutex;

/// Unwraps a caught panic payload into its message string.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = err.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic payload>")
    }
}

#[test]
fn the_auditor_is_armed_in_root_test_builds() {
    // If this fails, feature unification broke and the whole chaos batch
    // is silently running unaudited.
    assert!(
        parking_lot::lock_audit_enabled(),
        "root `cargo test` must build the parking_lot shim with `lock_audit`"
    );
}

#[test]
fn rank_inversion_panics_naming_both_locks() {
    let low = Mutex::ranked(0x9100_0001, "audit.inv.low", 1u32);
    let high = Mutex::ranked(0x9100_0002, "audit.inv.high", 2u32);
    let _g = high.lock();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = low.lock();
    }))
    .expect_err("descending acquisition must panic");
    let msg = panic_message(err);
    assert!(msg.contains("rank inversion"), "got: {msg}");
    assert!(msg.contains("audit.inv.low"), "must name the acquired lock: {msg}");
    assert!(msg.contains("audit.inv.high"), "must name the held lock: {msg}");
}

#[test]
fn strict_leaf_blocks_all_downstream_acquisitions() {
    let leaf = Mutex::ranked_leaf(0x9200_0001, "audit.leaf", ());
    // Higher rank than the leaf — would be legal under plain rank order;
    // only the strict-leaf property forbids it.
    let next = Mutex::ranked(0x9200_0002, "audit.leaf.next", ());
    let _g = leaf.lock();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = next.lock();
    }))
    .expect_err("acquiring under a strict leaf must panic");
    let msg = panic_message(err);
    assert!(msg.contains("strict-leaf"), "got: {msg}");
    assert!(msg.contains("audit.leaf"), "must name the held leaf: {msg}");
    assert!(msg.contains("audit.leaf.next"), "must name the acquired lock: {msg}");
}

#[test]
fn cross_thread_cycle_through_try_lock_is_detected() {
    // `try_lock` is exempt from the rank check (it cannot deadlock, and
    // Debug impls probe out of order through it), and a blocking
    // acquisition made on top of a try-held lock is rank-exempt too. The
    // acquisition-order graph is the net under that escape hatch: two
    // threads recording the same pair of locks in opposite orders must
    // panic on the edge that closes the cycle, with both threads'
    // provenance in the message.
    //
    // Leak the locks so both threads can borrow them 'static-ly.
    let a: &'static Mutex<u32> =
        Box::leak(Box::new(Mutex::ranked(0x9300_0001, "audit.cycle.a", 0)));
    let b: &'static Mutex<u32> =
        Box::leak(Box::new(Mutex::ranked(0x9300_0002, "audit.cycle.b", 0)));

    // Thread 1 records the edge a -> b (rank check skipped: `a` is
    // try-held on top of the stack).
    std::thread::Builder::new()
        .name("audit-cycle-t1".into())
        .spawn(move || {
            let ga = a.try_lock().expect("uncontended");
            let gb = b.lock();
            drop(gb);
            drop(ga);
        })
        .unwrap()
        .join()
        .expect("a -> b ascends; no panic expected");

    // Thread 2 records b -> a, closing the cycle.
    let err = std::thread::Builder::new()
        .name("audit-cycle-t2".into())
        .spawn(move || {
            let gb = b.try_lock().expect("uncontended");
            let ga = a.lock(); // closes the cycle: panics here
            drop(ga);
            drop(gb);
        })
        .unwrap()
        .join()
        .expect_err("b -> a closes the cycle and must panic");
    let msg = panic_message(err);
    assert!(msg.contains("acquisition-order cycle detected"), "got: {msg}");
    assert!(msg.contains("audit.cycle.a"), "cycle path must name both locks: {msg}");
    assert!(msg.contains("audit.cycle.b"), "cycle path must name both locks: {msg}");
    assert!(
        msg.contains("audit-cycle-t1") && msg.contains("audit-cycle-t2"),
        "each edge must carry the provenance of the thread that first recorded it: {msg}"
    );
}

#[test]
fn shard_granularity_locking_passes_under_the_auditor() {
    // Regression guard for the production rank table: per-shard store
    // locks carry `STORE_SHARD + index`, so holding shard `i` while a
    // second thread locks shard `j` is two independent ascending chains —
    // the auditor must stay silent and execution on the free shard must
    // not wait for the held one.
    assert!(parking_lot::lock_audit_enabled());
    let store: ShardedStore = ShardedStore::new(8);
    let held = store.shard_of(b"held-key");
    let other_key = (0..100)
        .map(|i| format!("free-{i}"))
        .find(|k| store.shard_of(k.as_bytes()) != held)
        .expect("some key routes elsewhere");
    let guards = store.lock(&[held]);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let r = store.execute(&Op::Put {
                key: Bytes::from(other_key.clone()),
                value: Bytes::from_static(b"v"),
            });
            done_tx.send(r).unwrap();
        });
        let r = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("execute on a free shard must not trip the auditor or block");
        assert_eq!(r, OpResult::Written { version: 1 });
        drop(guards);
    });
}

#[test]
fn production_rank_bands_ascend_along_the_documented_order() {
    // The documented acquisition order (DESIGN.md invariant 6) must match
    // the constants the locks are actually constructed with. A change that
    // reshuffles the table without updating the docs fails here.
    let order = [
        lockrank::FLEET_HISTORY,
        lockrank::COORD_STATE,
        lockrank::CLIENT_STATE,
        lockrank::SERVER_MASTER,
        lockrank::BACKUP_REPLICAS,
        lockrank::WITNESS_INSTANCES,
        lockrank::WITNESS_MODE,
        lockrank::CONSENSUS_REPLICA,
        lockrank::STORE_SHARD,
        lockrank::WITNESS_SHARD,
        lockrank::MASTER_RIFL,
        lockrank::CONSENSUS_CLIENT_RIFL,
        lockrank::WITNESS_JOURNAL,
        lockrank::TRANSPORT_SERVERS,
        lockrank::TIER_RUNS,
    ];
    assert!(order.windows(2).all(|w| w[0] < w[1]), "rank table must ascend: {order:#x?}");
    // Shard bands must not collide with the bands above them.
    assert!(lockrank::STORE_SHARD + (lockrank::MAX_SHARDS as u32 - 1) < lockrank::WITNESS_SHARD);
    assert!(lockrank::WITNESS_SHARD + (lockrank::MAX_SHARDS as u32 - 1) < lockrank::MASTER_RIFL);
}
