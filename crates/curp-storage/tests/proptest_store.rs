//! Property tests for the store's replication-bearing invariants:
//! determinism, synced-frontier bookkeeping, snapshot fidelity, and
//! equivalence of the in-place execute path with a naive reference
//! implementation.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use curp_proto::op::{Op, OpResult};
use curp_proto::wire::encode_seq;
use curp_storage::{ShardedStore, StateStore, TempDir, TierConfig, TieredStore};
use proptest::prelude::*;

fn key(i: u8) -> Bytes {
    Bytes::from(format!("key-{}", i % 16))
}

#[derive(Debug, Clone)]
enum Step {
    Op(Op),
    Sync,
}

/// A deliberately naive store with the same observable semantics as the
/// engine: every mutation clones the current value, modifies the clone,
/// and replaces the whole object. It shares no code with `curp-storage`;
/// keeping it as the independent executable specification
/// pins the determinism contract backups and recovery replay rely on
/// (results, versions, and log positions must match op-for-op).
#[derive(Default)]
struct NaiveStore {
    objects: HashMap<Bytes, (NaiveValue, u64, u64)>, // value, version, write_pos
    dead_versions: HashMap<Bytes, u64>,
    log_head: u64,
}

#[derive(Clone, PartialEq)]
enum NaiveValue {
    Str(Bytes),
    Hash(HashMap<Bytes, Bytes>),
    Counter(i64),
    List(Vec<Bytes>),
    Set(HashSet<Bytes>),
}

impl NaiveStore {
    fn current_version(&self, key: &Bytes) -> u64 {
        self.objects
            .get(key)
            .map(|(_, v, _)| *v)
            .or_else(|| self.dead_versions.get(key).copied())
            .unwrap_or(0)
    }

    fn write(&mut self, key: &Bytes, value: NaiveValue) -> u64 {
        let version = self.current_version(key) + 1;
        self.dead_versions.remove(key);
        let pos = self.log_head;
        self.log_head += 1;
        self.objects.insert(key.clone(), (value, version, pos));
        version
    }

    fn execute(&mut self, op: &Op) -> OpResult {
        match op {
            Op::Get { key } => match self.objects.get(key).map(|(v, _, _)| v) {
                None => OpResult::Value(None),
                Some(NaiveValue::Str(b)) => OpResult::Value(Some(b.clone())),
                Some(NaiveValue::Counter(c)) => OpResult::Value(Some(Bytes::from(c.to_string()))),
                Some(_) => OpResult::WrongType,
            },
            Op::Put { key, value } => {
                let version = self.write(key, NaiveValue::Str(value.clone()));
                OpResult::Written { version }
            }
            Op::Delete { key } => {
                self.log_head += 1;
                if let Some((_, version, _)) = self.objects.remove(key) {
                    self.dead_versions.insert(key.clone(), version);
                }
                OpResult::Written { version: self.current_version(key) }
            }
            Op::ConditionalPut { key, expected_version, value } => {
                let actual = self.current_version(key);
                if actual != *expected_version {
                    return OpResult::ConditionFailed { actual_version: actual };
                }
                let version = self.write(key, NaiveValue::Str(value.clone()));
                OpResult::Written { version }
            }
            Op::MultiPut { kvs } => {
                let mut last = 0;
                for (key, value) in kvs {
                    last = self.write(key, NaiveValue::Str(value.clone()));
                }
                OpResult::Written { version: last }
            }
            Op::Incr { key, delta } => {
                let current = match self.objects.get(key).map(|(v, _, _)| v) {
                    None => 0,
                    Some(NaiveValue::Counter(c)) => *c,
                    Some(NaiveValue::Str(s)) => {
                        match std::str::from_utf8(s).ok().and_then(|s| s.parse::<i64>().ok()) {
                            Some(c) => c,
                            None => return OpResult::WrongType,
                        }
                    }
                    Some(_) => return OpResult::WrongType,
                };
                let new = current.wrapping_add(*delta);
                self.write(key, NaiveValue::Counter(new));
                OpResult::Counter(new)
            }
            Op::HSet { key, field, value } => {
                let mut hash = match self.objects.get(key).map(|(v, _, _)| v) {
                    None => HashMap::new(),
                    Some(NaiveValue::Hash(h)) => h.clone(),
                    Some(_) => return OpResult::WrongType,
                };
                hash.insert(field.clone(), value.clone());
                let version = self.write(key, NaiveValue::Hash(hash));
                OpResult::Written { version }
            }
            Op::HGet { key, field } => match self.objects.get(key).map(|(v, _, _)| v) {
                None => OpResult::Value(None),
                Some(NaiveValue::Hash(h)) => OpResult::Value(h.get(field).cloned()),
                Some(_) => OpResult::WrongType,
            },
            Op::ListPush { key, value } => {
                let mut list = match self.objects.get(key).map(|(v, _, _)| v) {
                    None => Vec::new(),
                    Some(NaiveValue::List(l)) => l.clone(),
                    Some(_) => return OpResult::WrongType,
                };
                list.push(value.clone());
                let len = list.len() as i64;
                self.write(key, NaiveValue::List(list));
                OpResult::Counter(len)
            }
            Op::SetAdd { key, member } => {
                let mut set = match self.objects.get(key).map(|(v, _, _)| v) {
                    None => HashSet::new(),
                    Some(NaiveValue::Set(s)) => s.clone(),
                    Some(_) => return OpResult::WrongType,
                };
                let added = set.insert(member.clone()) as i64;
                self.write(key, NaiveValue::Set(set));
                OpResult::Counter(added)
            }
        }
    }

    /// The real store's value for `key` must equal ours structurally.
    fn value_matches(&self, key: &Bytes, store: &ShardedStore) -> bool {
        use curp_storage::Value;
        match (self.objects.get(key), store.get_object(key)) {
            (None, None) => true,
            (Some((value, version, pos)), Some(obj)) => {
                if obj.version != *version || obj.write_pos != *pos {
                    return false;
                }
                match (value, &obj.value) {
                    (NaiveValue::Str(a), Value::Str(b)) => a == b,
                    (NaiveValue::Hash(a), Value::Hash(b)) => a == b,
                    (NaiveValue::Counter(a), Value::Counter(b)) => a == b,
                    (NaiveValue::List(a), Value::List(b)) => a == b,
                    (NaiveValue::Set(a), Value::Set(b)) => a == b,
                    _ => false,
                }
            }
            _ => false,
        }
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => arb_op().prop_map(Step::Op),
        1 => Just(Step::Sync),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>())
            .prop_map(|(k, v)| Op::Put { key: key(k), value: Bytes::from(vec![v; 8]) }),
        any::<u8>().prop_map(|k| Op::Delete { key: key(k) }),
        (any::<u8>(), -4..5i64).prop_map(|(k, d)| Op::Incr { key: key(k), delta: d }),
        (any::<u8>(), any::<u8>()).prop_map(|(k, f)| Op::HSet {
            key: key(k),
            field: Bytes::from(vec![f % 4]),
            value: Bytes::from_static(b"v"),
        }),
        (any::<u8>(), any::<u8>())
            .prop_map(|(k, m)| Op::SetAdd { key: key(k), member: Bytes::from(vec![m % 8]) }),
        (any::<u8>(), any::<u8>())
            .prop_map(|(k, v)| Op::ListPush { key: key(k), value: Bytes::from(vec![v]) }),
        any::<u8>().prop_map(|k| Op::Get { key: key(k) }),
    ]
}

/// The full op surface (including the ops `arb_op` leaves out) for the
/// reference-equivalence property.
fn arb_any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_op(),
        1 => (any::<u8>(), 0..4u64, any::<u8>()).prop_map(|(k, ev, v)| Op::ConditionalPut {
            key: key(k),
            expected_version: ev,
            value: Bytes::from(vec![v; 4]),
        }),
        1 => prop::collection::vec((any::<u8>(), any::<u8>()), 1..4).prop_map(|kvs| {
            Op::MultiPut {
                kvs: kvs.into_iter().map(|(k, v)| (key(k), Bytes::from(vec![v; 4]))).collect(),
            }
        }),
        1 => (any::<u8>(), any::<u8>())
            .prop_map(|(k, f)| Op::HGet { key: key(k), field: Bytes::from(vec![f % 4]) }),
    ]
}

/// A step for the sharded-vs-single equivalence property: the full op
/// surface plus sync-frontier advances.
fn arb_any_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => arb_any_op().prop_map(Step::Op),
        1 => Just(Step::Sync),
    ]
}

/// A step for the tiered-vs-memory equivalence property: the full op
/// surface, sync-frontier advances, and maintenance ticks (flush+merge).
#[derive(Debug, Clone)]
enum TierStep {
    Op(Op),
    Sync,
    Maintain,
}

fn arb_tier_step() -> impl Strategy<Value = TierStep> {
    prop_oneof![
        8 => arb_any_op().prop_map(TierStep::Op),
        1 => Just(TierStep::Sync),
        1 => Just(TierStep::Maintain),
    ]
}

/// Deterministic byte encoding of an exported store state — the payload a
/// snapshot would carry. Byte-identical iff the exports are identical.
fn export_bytes(export: &curp_storage::StoreExport) -> Bytes {
    let mut buf = bytes::BytesMut::new();
    encode_seq(&export.0, &mut buf);
    encode_seq(&export.1, &mut buf);
    buf.freeze()
}

proptest! {
    /// N shards ≡ 1 shard: the 4-way sharded engine is observationally
    /// identical to the single-shard engine (itself pinned against
    /// `NaiveStore` below) when fed the same sequential op/sync stream:
    /// same results (and therefore versions), same log positions, same
    /// unsynced frontier at every step, and byte-identical snapshot
    /// exports at the end — the equivalence the master's sharding refactor
    /// rests on.
    #[test]
    fn sharded_store_matches_single_shard_reference(
        steps in prop::collection::vec(arb_any_step(), 1..150)
    ) {
        let sharded: ShardedStore = ShardedStore::new(4);
        let single: ShardedStore = ShardedStore::new(1);
        for step in &steps {
            match step {
                Step::Sync => {
                    single.mark_synced(single.log_head());
                    sharded.mark_synced(sharded.log_head());
                }
                Step::Op(op) => {
                    prop_assert_eq!(
                        sharded.execute(op),
                        single.execute(op),
                        "result diverged on {:?}",
                        op
                    );
                    prop_assert_eq!(sharded.log_head(), single.log_head());
                }
            }
            prop_assert_eq!(sharded.synced_pos(), single.synced_pos());
            for i in 0..16u8 {
                let k = key(i);
                prop_assert_eq!(
                    sharded.is_unsynced(&k),
                    single.is_unsynced(&k),
                    "unsynced frontier diverged at {:?}",
                    k
                );
            }
        }
        prop_assert_eq!(sharded.len(), single.len());
        let (se, ss) = (sharded.export(), single.export());
        prop_assert_eq!(&se, &ss, "exports diverged");
        prop_assert_eq!(export_bytes(&se), export_bytes(&ss), "snapshot bytes diverged");
        // Import round-trips agree too (both land fully synced).
        let resharded: ShardedStore = ShardedStore::import(4, se.0.clone(), se.1.clone());
        let resingle: ShardedStore = ShardedStore::import(1, ss.0, ss.1);
        prop_assert_eq!(resharded.export(), resingle.export());
        prop_assert_eq!(resharded.has_unsynced(), resingle.has_unsynced());
    }

    /// The larger-than-memory engine is observationally identical to the
    /// in-memory sharded engine under the same op/sync/maintain stream,
    /// with a 1-byte memtable budget so *every* maintenance tick evicts
    /// all synced state to run files: same results and versions, same log
    /// positions, same synced frontier, and the same export modulo
    /// `write_pos` (flushed-then-promoted objects read back at 0 — they
    /// are synced, the historical position no longer matters). This is
    /// the equivalence the `StateStore` abstraction promises consumers.
    #[test]
    fn tiered_store_matches_the_in_memory_engine(
        steps in prop::collection::vec(arb_tier_step(), 1..120)
    ) {
        let dir = TempDir::new("curp-proptest-tiered").unwrap();
        let mut cfg = TierConfig::new(dir.path());
        cfg.memtable_budget = 1;
        cfg.merge_threshold = 1;
        cfg.fsync = false;
        let tiered: TieredStore = TieredStore::over(ShardedStore::new(4), cfg).unwrap();
        let reference: ShardedStore = ShardedStore::new(4);
        for step in &steps {
            match step {
                TierStep::Sync => {
                    tiered.lock_all_for(None).mark_synced(tiered.log_head());
                    reference.mark_synced(reference.log_head());
                }
                TierStep::Maintain => tiered.maintain().unwrap(),
                TierStep::Op(op) => {
                    let set = op.key_hashes().shard_set(4);
                    // Two separate statements: holding one store's shard
                    // guards while locking another store's same-rank shards
                    // trips the lock auditor (and is bad form anyway).
                    let got = tiered.lock_for(&set, Some(op)).execute(op);
                    prop_assert_eq!(got, reference.execute(op), "result diverged on {:?}", op);
                    prop_assert_eq!(StateStore::log_head(&tiered), reference.log_head());
                }
            }
            prop_assert_eq!(StateStore::synced_pos(&tiered), reference.synced_pos());
            prop_assert_eq!(StateStore::has_unsynced(&tiered), reference.has_unsynced());
        }
        prop_assert_eq!(StateStore::len(&tiered), reference.len());
        let (mut t_obj, t_dead) = StateStore::export(&tiered);
        let (mut r_obj, r_dead) = reference.export();
        for (_, o) in t_obj.iter_mut().chain(r_obj.iter_mut()) {
            o.write_pos = 0;
        }
        prop_assert_eq!(t_obj, r_obj, "exports diverged");
        prop_assert_eq!(t_dead, r_dead, "dead-version exports diverged");
    }

    /// The in-place execute path, on the 1-shard engine, matches the naive
    /// clone-per-mutation reference implementation op-for-op: same results (and therefore
    /// versions), same log positions, same per-key state. This is the
    /// determinism contract backups and recovery replay depend on.
    #[test]
    fn execute_matches_naive_reference(ops in prop::collection::vec(arb_any_op(), 1..150)) {
        let store: ShardedStore = ShardedStore::new(1);
        let mut reference = NaiveStore::default();
        for op in &ops {
            let got = store.execute(op);
            let want = reference.execute(op);
            prop_assert_eq!(&got, &want, "result diverged on {:?}", op);
            prop_assert_eq!(
                store.log_head(),
                reference.log_head,
                "log position diverged on {:?}",
                op
            );
        }
        for i in 0..16u8 {
            let k = key(i);
            prop_assert!(reference.value_matches(&k, &store), "state diverged at key {:?}", k);
        }
        prop_assert_eq!(store.len(), reference.objects.len());
    }

    /// Two stores fed the same operations agree on every result — the
    /// property backups and recovery replay depend on.
    #[test]
    fn execution_is_deterministic(ops in prop::collection::vec(arb_op(), 1..120)) {
        let a: ShardedStore = ShardedStore::new(1);
        let b: ShardedStore = ShardedStore::new(1);
        for op in &ops {
            prop_assert_eq!(a.execute(op), b.execute(op));
        }
        prop_assert_eq!(a.log_head(), b.log_head());
        let (oa, da) = a.export();
        let (ob, db) = b.export();
        prop_assert_eq!(oa, ob);
        prop_assert_eq!(da, db);
    }

    /// The synced/unsynced partition is exact: after `mark_synced(head)`
    /// nothing is unsynced; any later mutation makes exactly its keys
    /// unsynced; reads never change the frontier.
    #[test]
    fn unsynced_tracking_is_exact(steps in prop::collection::vec(arb_step(), 1..150)) {
        let store: ShardedStore = ShardedStore::new(1);
        // Model: keys written since the last sync.
        let mut dirty: std::collections::HashSet<Bytes> = Default::default();
        for step in &steps {
            match step {
                Step::Sync => {
                    let head = store.log_head();
                    store.mark_synced(head);
                    dirty.clear();
                    prop_assert!(!store.has_unsynced());
                }
                Step::Op(op) => {
                    let before = store.log_head();
                    let _ = store.execute(op);
                    let mutated = store.log_head() > before;
                    if mutated && !op.is_read_only() {
                        for k in op.keys() {
                            dirty.insert(k.clone());
                        }
                    }
                }
            }
            for i in 0..16u8 {
                let k = key(i);
                prop_assert_eq!(
                    store.is_unsynced(&k),
                    dirty.contains(&k),
                    "key {:?} frontier mismatch",
                    k
                );
            }
        }
    }

    /// Snapshot round-trips preserve every observable value.
    #[test]
    fn export_import_preserves_reads(ops in prop::collection::vec(arb_op(), 1..100)) {
        let store: ShardedStore = ShardedStore::new(1);
        for op in &ops {
            store.execute(op);
        }
        let (objects, dead) = store.export();
        let (a, b) = (store, ShardedStore::<()>::import(1, objects, dead));
        for i in 0..16u8 {
            prop_assert_eq!(
                a.execute(&Op::Get { key: key(i) }),
                b.execute(&Op::Get { key: key(i) }),
                "GET {:?} differs after snapshot",
                key(i)
            );
        }
        // Versions survive the snapshot: the next write continues the chain.
        for i in 0..16u8 {
            prop_assert_eq!(
                a.execute(&Op::Put { key: key(i), value: Bytes::new() }),
                b.execute(&Op::Put { key: key(i), value: Bytes::new() })
            );
        }
    }

    /// Log positions are consumed iff state changed; failed ops are free.
    #[test]
    fn log_positions_track_mutations(ops in prop::collection::vec(arb_op(), 1..120)) {
        let store: ShardedStore = ShardedStore::new(1);
        for op in &ops {
            let before = store.log_head();
            let result = store.execute(op);
            let consumed = store.log_head() - before;
            use curp_proto::op::OpResult;
            match (&result, op) {
                (OpResult::WrongType | OpResult::ConditionFailed { .. }, _) => {
                    prop_assert_eq!(consumed, 0, "failed op consumed a position")
                }
                (_, Op::Get { .. } | Op::HGet { .. }) => prop_assert_eq!(consumed, 0),
                (_, Op::MultiPut { kvs }) => prop_assert_eq!(consumed, kvs.len() as u64),
                _ => prop_assert_eq!(consumed, 1),
            }
        }
    }
}
