//! The in-memory, log-position-tracking key space.
//!
//! Models RAMCloud's log-structured memory closely enough for CURP: every
//! mutation is assigned a monotonically increasing log position and the
//! object's index entry remembers the position of its last update. The
//! master's commutativity check (§4.3) then reduces to a comparison of that
//! position against the last synced position: *"If the object values are
//! stored in a log structure, masters can determine if an object value is
//! synced or not by comparing its position in the log against the last
//! synced position."*
//!
//! Execution is deterministic: the same operation sequence on two key
//! spaces yields identical state and identical results. Backups and
//! recovery masters rely on this to rebuild state by replaying the
//! replicated operation log.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use curp_proto::op::{Op, OpResult};

/// A stored value. Redis-style typed values share the store with plain
/// strings; type confusion yields [`OpResult::WrongType`], as in Redis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A byte-string value (`PUT`/`GET`).
    Str(Bytes),
    /// A field map (`HSET`/`HGET`).
    Hash(HashMap<Bytes, Bytes>),
    /// A 64-bit signed counter (`INCR`).
    Counter(i64),
    /// An ordered list (`RPUSH`).
    List(Vec<Bytes>),
    /// An unordered set (`SADD`).
    Set(HashSet<Bytes>),
}

impl Value {
    /// This value with its bytes copied out of the buffers they were
    /// decoded from (see [`own`]).
    fn detached(self) -> Value {
        match self {
            Value::Str(s) => Value::Str(own(&s)),
            Value::Hash(h) => Value::Hash(h.iter().map(|(f, v)| (own(f), own(v))).collect()),
            Value::Counter(c) => Value::Counter(c),
            Value::List(l) => Value::List(l.iter().map(own).collect()),
            Value::Set(s) => Value::Set(s.iter().map(own).collect()),
        }
    }
}

/// A copy of op bytes about to enter long-lived key-space state. Decoding
/// is zero-copy, so an op's keys and values are windows into the whole
/// network frame (or log record) they arrived in: stored as they are, one
/// small value would keep a frame of many entries alive.
fn own(b: &Bytes) -> Bytes {
    Bytes::copy_from_slice(b)
}

/// An object plus its replication metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// Current value.
    pub value: Value,
    /// Version, monotonically increasing per key. Versions survive deletion
    /// (RAMCloud semantics), so a `ConditionalPut` cannot be fooled by a
    /// delete/re-create cycle.
    pub version: u64,
    /// Log position of the last mutation of this key.
    pub write_pos: u64,
}

/// Exported store state: live `(key, object)` pairs plus `(key, version)`
/// memory for deleted keys, both sorted by key.
pub type StoreExport = (Vec<(Bytes, Object)>, Vec<(Bytes, u64)>);

/// One key space: the per-key state of a store *without* the log counters.
///
/// The engine ([`ShardedStore`](crate::sharded::ShardedStore)) owns one key
/// space per shard behind its own lock, all sharing a global atomic
/// position counter. Every mutation path is written once, here, against an
/// injected position allocator.
#[derive(Debug, Default, Clone)]
pub(crate) struct KeySpace {
    pub(crate) objects: HashMap<Bytes, Object>,
    /// Version memory for deleted keys (see [`Object::version`]).
    pub(crate) dead_versions: HashMap<Bytes, u64>,
    /// Log positions of unsynced deletions; entries are pruned once synced
    /// or when the key is re-created.
    pub(crate) tombstones: HashMap<Bytes, u64>,
}

impl KeySpace {
    /// Executes `op` against this key space, drawing log positions from
    /// `next_pos` only for successful mutations: failed operations (wrong
    /// type, failed conditional) do not mutate state and do not consume a
    /// log position, so a log of *executed* mutations replays to identical
    /// state. `MultiPut` writes every pair into *this* space — the sharded
    /// engine routes each pair itself and never sends a multi-key op here.
    ///
    /// Typed mutations (`HSet`/`ListPush`/`SetAdd`/`Incr`) update the stored
    /// collection *in place* — O(1) amortized per mutation, like Redis —
    /// rather than clone-modify-reinsert. The live-key invariant makes this
    /// safe: a key present in `objects` never appears in `dead_versions` or
    /// `tombstones` (writes purge both; deletes remove the object first),
    /// so the in-place path can skip those purges.
    pub(crate) fn execute(&mut self, op: &Op, next_pos: &mut impl FnMut() -> u64) -> OpResult {
        match op {
            Op::Get { key } => match self.objects.get(key).map(|o| &o.value) {
                None => OpResult::Value(None),
                Some(Value::Str(b)) => OpResult::Value(Some(b.clone())),
                Some(Value::Counter(c)) => OpResult::Value(Some(Bytes::from(c.to_string()))),
                Some(_) => OpResult::WrongType,
            },
            Op::Put { key, value } => {
                let version = self.write(key, Value::Str(value.clone()), next_pos);
                OpResult::Written { version }
            }
            Op::Delete { key } => OpResult::Written { version: self.delete(key, next_pos()) },
            Op::ConditionalPut { key, expected_version, value } => {
                let actual = self.current_version(key);
                if actual != *expected_version {
                    return OpResult::ConditionFailed { actual_version: actual };
                }
                let version = self.write(key, Value::Str(value.clone()), next_pos);
                OpResult::Written { version }
            }
            Op::MultiPut { kvs } => {
                let mut last_version = 0;
                for (key, value) in kvs {
                    last_version = self.write(key, Value::Str(value.clone()), next_pos);
                }
                OpResult::Written { version: last_version }
            }
            Op::Incr { key, delta } => match self.objects.get_mut(key) {
                Some(obj) => {
                    let new = match &obj.value {
                        Value::Counter(c) => c.wrapping_add(*delta),
                        Value::Str(s) => {
                            match std::str::from_utf8(s).ok().and_then(|s| s.parse::<i64>().ok()) {
                                Some(c) => c.wrapping_add(*delta),
                                None => return OpResult::WrongType,
                            }
                        }
                        _ => return OpResult::WrongType,
                    };
                    obj.value = Value::Counter(new);
                    Self::touch_in_place(obj, next_pos());
                    OpResult::Counter(new)
                }
                None => {
                    self.write(key, Value::Counter(*delta), next_pos);
                    OpResult::Counter(*delta)
                }
            },
            Op::HSet { key, field, value } => match self.objects.get_mut(key) {
                Some(obj) => match &mut obj.value {
                    Value::Hash(h) => {
                        h.insert(own(field), own(value));
                        let version = Self::touch_in_place(obj, next_pos());
                        OpResult::Written { version }
                    }
                    _ => OpResult::WrongType,
                },
                None => {
                    let hash = HashMap::from([(field.clone(), value.clone())]);
                    let version = self.write(key, Value::Hash(hash), next_pos);
                    OpResult::Written { version }
                }
            },
            Op::HGet { key, field } => match self.objects.get(key).map(|o| &o.value) {
                None => OpResult::Value(None),
                Some(Value::Hash(h)) => OpResult::Value(h.get(field).cloned()),
                Some(_) => OpResult::WrongType,
            },
            Op::ListPush { key, value } => match self.objects.get_mut(key) {
                Some(obj) => match &mut obj.value {
                    Value::List(l) => {
                        l.push(own(value));
                        let len = l.len() as i64;
                        Self::touch_in_place(obj, next_pos());
                        OpResult::Counter(len)
                    }
                    _ => OpResult::WrongType,
                },
                None => {
                    self.write(key, Value::List(vec![value.clone()]), next_pos);
                    OpResult::Counter(1)
                }
            },
            Op::SetAdd { key, member } => match self.objects.get_mut(key) {
                Some(obj) => match &mut obj.value {
                    Value::Set(s) => {
                        let added = s.insert(own(member)) as i64;
                        Self::touch_in_place(obj, next_pos());
                        OpResult::Counter(added)
                    }
                    _ => OpResult::WrongType,
                },
                None => {
                    self.write(key, Value::Set(HashSet::from([member.clone()])), next_pos);
                    OpResult::Counter(1)
                }
            },
        }
    }

    /// Commits an in-place mutation of a live object at log position `pos`:
    /// bumps the version and returns it. Call only after the mutation
    /// succeeded — failed ops must not consume a log position.
    fn touch_in_place(obj: &mut Object, pos: u64) -> u64 {
        obj.write_pos = pos;
        obj.version += 1;
        obj.version
    }

    /// Removes `key` at log position `pos`, remembering its version, and
    /// returns the (surviving) current version.
    pub(crate) fn delete(&mut self, key: &Bytes, pos: u64) -> u64 {
        if let Some(obj) = self.objects.remove(key) {
            self.dead_versions.insert(own(key), obj.version);
        }
        self.tombstones.insert(own(key), pos);
        self.current_version(key)
    }

    pub(crate) fn current_version(&self, key: &Bytes) -> u64 {
        self.objects
            .get(key)
            .map(|o| o.version)
            .or_else(|| self.dead_versions.get(key).copied())
            .unwrap_or(0)
    }

    /// Returns `true` if `key`'s last mutation sits at or past `synced_pos`.
    pub(crate) fn is_unsynced(&self, key: &[u8], synced_pos: u64) -> bool {
        if let Some(obj) = self.objects.get(key) {
            return obj.write_pos >= synced_pos;
        }
        self.tombstones.get(key).is_some_and(|&pos| pos >= synced_pos)
    }

    /// Drops tombstones whose deletion is now synced (position `< pos`).
    pub(crate) fn prune_tombstones(&mut self, pos: u64) {
        self.tombstones.retain(|_, &mut p| p >= pos);
    }

    /// Appends this space's live objects and dead versions to the caller's
    /// export vectors (unsorted; the caller sorts the merged result).
    pub(crate) fn export_into(
        &self,
        objects: &mut Vec<(Bytes, Object)>,
        dead: &mut Vec<(Bytes, u64)>,
    ) {
        objects.extend(self.objects.iter().map(|(k, o)| (k.clone(), o.clone())));
        dead.extend(self.dead_versions.iter().map(|(k, &v)| (k.clone(), v)));
    }

    /// Moves every entry whose key hash satisfies `belongs` into the
    /// caller's export vectors (unsorted) — the extraction step of a
    /// partition migration.
    pub(crate) fn split_off_into(
        &mut self,
        belongs: &dyn Fn(curp_proto::types::KeyHash) -> bool,
        objects: &mut Vec<(Bytes, Object)>,
        dead: &mut Vec<(Bytes, u64)>,
    ) {
        use curp_proto::types::KeyHash;
        let keys: Vec<Bytes> =
            self.objects.keys().filter(|k| belongs(KeyHash::of(k))).cloned().collect();
        for k in keys {
            // lint: audited-unwrap — key came from self.objects.keys() above
            let o = self.objects.remove(&k).expect("key just listed");
            objects.push((k, o));
        }
        let dead_keys: Vec<Bytes> =
            self.dead_versions.keys().filter(|k| belongs(KeyHash::of(k))).cloned().collect();
        for k in dead_keys {
            // lint: audited-unwrap — key came from self.dead_versions.keys() above
            let v = self.dead_versions.remove(&k).expect("key just listed");
            dead.push((k, v));
        }
    }

    /// Writes `value` at `key` with the next version, drawing the log
    /// position from `next_pos`. The stored bytes are copies (see [`own`]).
    ///
    /// Overwrites mutate the existing entry in place — no key re-clone, no
    /// hash-map re-insert; only first writes of a key copy it into the map.
    pub(crate) fn write(
        &mut self,
        key: &Bytes,
        value: Value,
        next_pos: &mut impl FnMut() -> u64,
    ) -> u64 {
        let pos = next_pos();
        let value = value.detached();
        match self.objects.get_mut(key) {
            Some(obj) => {
                obj.value = value;
                obj.version += 1;
                obj.write_pos = pos;
                obj.version
            }
            None => {
                let version = self.dead_versions.remove(key).unwrap_or(0) + 1;
                self.tombstones.remove(key);
                self.objects.insert(own(key), Object { value, version, write_pos: pos });
                version
            }
        }
    }
}

// ---- wire codec for snapshot transfer --------------------------------------
//
// Backups ship their materialized state to recovery masters as an opaque
// snapshot blob (Response::BackupData); these impls give `Value` and `Object`
// a deterministic encoding. Hash/set contents are sorted so that equal stores
// encode to identical bytes.

use bytes::{Buf, BufMut};
use curp_proto::wire::{
    decode_seq, encode_seq, need, seq_encoded_len, Decode, DecodeError, Encode,
};

const VAL_STR: u8 = 0;
const VAL_HASH: u8 = 1;
const VAL_COUNTER: u8 = 2;
const VAL_LIST: u8 = 3;
const VAL_SET: u8 = 4;

impl Encode for Value {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Value::Str(b) => {
                buf.put_u8(VAL_STR);
                b.encode(buf);
            }
            Value::Hash(h) => {
                buf.put_u8(VAL_HASH);
                // Sort references, not cloned pairs: determinism costs a
                // pointer sort, never a deep copy of the collection.
                let mut pairs: Vec<(&Bytes, &Bytes)> = h.iter().collect();
                pairs.sort_by(|a, b| a.0.cmp(b.0));
                encode_seq(&pairs, buf);
            }
            Value::Counter(c) => {
                buf.put_u8(VAL_COUNTER);
                c.encode(buf);
            }
            Value::List(l) => {
                buf.put_u8(VAL_LIST);
                encode_seq(l, buf);
            }
            Value::Set(s) => {
                buf.put_u8(VAL_SET);
                let mut members: Vec<&Bytes> = s.iter().collect();
                members.sort();
                encode_seq(&members, buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Str(b) => b.encoded_len(),
            Value::Hash(h) => {
                4 + h.iter().map(|(k, v)| k.encoded_len() + v.encoded_len()).sum::<usize>()
            }
            Value::Counter(c) => c.encoded_len(),
            Value::List(l) => seq_encoded_len(l),
            Value::Set(s) => 4 + s.iter().map(|m| m.encoded_len()).sum::<usize>(),
        }
    }
}

impl Decode for Value {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 1)?;
        let tag = buf.get_u8();
        Ok(match tag {
            VAL_STR => Value::Str(Bytes::decode(buf)?),
            VAL_HASH => {
                let pairs: Vec<(Bytes, Bytes)> = decode_seq(buf)?;
                Value::Hash(pairs.into_iter().collect())
            }
            VAL_COUNTER => Value::Counter(i64::decode(buf)?),
            VAL_LIST => Value::List(decode_seq(buf)?),
            VAL_SET => {
                let members: Vec<Bytes> = decode_seq(buf)?;
                Value::Set(members.into_iter().collect())
            }
            tag => return Err(DecodeError::InvalidTag { ty: "Value", tag }),
        })
    }
}

impl Encode for Object {
    fn encode(&self, buf: &mut impl BufMut) {
        self.value.encode(buf);
        self.version.encode(buf);
        self.write_pos.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.value.encoded_len() + 16
    }
}

impl Decode for Object {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        Ok(Object {
            value: Value::decode(buf)?,
            version: u64::decode(buf)?,
            write_pos: u64::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedStore;

    /// The single-owner engine: one shard, no routing.
    fn store() -> ShardedStore {
        ShardedStore::new(1)
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn put(store: &ShardedStore, k: &str, v: &str) -> OpResult {
        store.execute(&Op::Put { key: b(k), value: b(v) })
    }

    fn get(store: &ShardedStore, k: &str) -> OpResult {
        store.execute(&Op::Get { key: b(k) })
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store();
        assert_eq!(get(&s, "k"), OpResult::Value(None));
        assert_eq!(put(&s, "k", "v"), OpResult::Written { version: 1 });
        assert_eq!(get(&s, "k"), OpResult::Value(Some(b("v"))));
    }

    #[test]
    fn versions_increase_monotonically() {
        let s = store();
        assert_eq!(put(&s, "k", "a"), OpResult::Written { version: 1 });
        assert_eq!(put(&s, "k", "b"), OpResult::Written { version: 2 });
        s.execute(&Op::Delete { key: b("k") });
        // Version memory survives deletion.
        assert_eq!(put(&s, "k", "c"), OpResult::Written { version: 3 });
    }

    #[test]
    fn delete_removes_and_reports_missing() {
        let s = store();
        put(&s, "k", "v");
        s.execute(&Op::Delete { key: b("k") });
        assert_eq!(get(&s, "k"), OpResult::Value(None));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn conditional_put_checks_version() {
        let s = store();
        assert_eq!(
            s.execute(&Op::ConditionalPut { key: b("k"), expected_version: 0, value: b("a") }),
            OpResult::Written { version: 1 }
        );
        assert_eq!(
            s.execute(&Op::ConditionalPut { key: b("k"), expected_version: 0, value: b("x") }),
            OpResult::ConditionFailed { actual_version: 1 }
        );
        assert_eq!(
            s.execute(&Op::ConditionalPut { key: b("k"), expected_version: 1, value: b("b") }),
            OpResult::Written { version: 2 }
        );
        assert_eq!(get(&s, "k"), OpResult::Value(Some(b("b"))));
    }

    #[test]
    fn failed_conditional_put_consumes_no_log_position() {
        let s = store();
        put(&s, "k", "a");
        let head = s.log_head();
        s.execute(&Op::ConditionalPut { key: b("k"), expected_version: 99, value: b("x") });
        assert_eq!(s.log_head(), head);
    }

    #[test]
    fn multiput_writes_all_keys() {
        let s = store();
        s.execute(&Op::MultiPut { kvs: vec![(b("a"), b("1")), (b("b"), b("2"))] });
        assert_eq!(get(&s, "a"), OpResult::Value(Some(b("1"))));
        assert_eq!(get(&s, "b"), OpResult::Value(Some(b("2"))));
    }

    #[test]
    fn incr_counts_from_zero_and_wraps_strings() {
        let s = store();
        assert_eq!(s.execute(&Op::Incr { key: b("c"), delta: 5 }), OpResult::Counter(5));
        assert_eq!(s.execute(&Op::Incr { key: b("c"), delta: -2 }), OpResult::Counter(3));
        // A numeric string upgrades to a counter, like Redis.
        put(&s, "n", "41");
        assert_eq!(s.execute(&Op::Incr { key: b("n"), delta: 1 }), OpResult::Counter(42));
        // GET of a counter renders as its decimal string.
        assert_eq!(get(&s, "n"), OpResult::Value(Some(b("42"))));
    }

    #[test]
    fn incr_on_non_numeric_is_wrongtype() {
        let s = store();
        put(&s, "k", "not-a-number");
        assert_eq!(s.execute(&Op::Incr { key: b("k"), delta: 1 }), OpResult::WrongType);
    }

    #[test]
    fn hash_ops() {
        let s = store();
        assert_eq!(s.execute(&Op::HGet { key: b("h"), field: b("f") }), OpResult::Value(None));
        s.execute(&Op::HSet { key: b("h"), field: b("f"), value: b("v") });
        s.execute(&Op::HSet { key: b("h"), field: b("g"), value: b("w") });
        assert_eq!(
            s.execute(&Op::HGet { key: b("h"), field: b("f") }),
            OpResult::Value(Some(b("v")))
        );
        assert_eq!(
            s.execute(&Op::HGet { key: b("h"), field: b("g") }),
            OpResult::Value(Some(b("w")))
        );
        // GET on a hash is a type error.
        assert_eq!(get(&s, "h"), OpResult::WrongType);
    }

    #[test]
    fn list_push_returns_length() {
        let s = store();
        assert_eq!(s.execute(&Op::ListPush { key: b("l"), value: b("a") }), OpResult::Counter(1));
        assert_eq!(s.execute(&Op::ListPush { key: b("l"), value: b("b") }), OpResult::Counter(2));
    }

    #[test]
    fn set_add_reports_novelty() {
        let s = store();
        assert_eq!(s.execute(&Op::SetAdd { key: b("s"), member: b("m") }), OpResult::Counter(1));
        assert_eq!(s.execute(&Op::SetAdd { key: b("s"), member: b("m") }), OpResult::Counter(0));
    }

    #[test]
    fn type_confusion_is_rejected_without_mutation() {
        let s = store();
        s.execute(&Op::ListPush { key: b("l"), value: b("a") });
        let head = s.log_head();
        assert_eq!(s.execute(&Op::Incr { key: b("l"), delta: 1 }), OpResult::WrongType);
        assert_eq!(
            s.execute(&Op::HSet { key: b("l"), field: b("f"), value: b("v") }),
            OpResult::WrongType
        );
        assert_eq!(s.execute(&Op::SetAdd { key: b("l"), member: b("m") }), OpResult::WrongType);
        assert_eq!(s.log_head(), head);
    }

    #[test]
    fn unsynced_tracking_follows_sync_frontier() {
        let s = store();
        put(&s, "a", "1"); // pos 0
        put(&s, "b", "2"); // pos 1
        assert!(s.is_unsynced(b"a"));
        assert!(s.is_unsynced(b"b"));
        assert!(!s.is_unsynced(b"never-written"));
        s.mark_synced(1);
        assert!(!s.is_unsynced(b"a"));
        assert!(s.is_unsynced(b"b"));
        s.mark_synced(2);
        assert!(!s.has_unsynced());
    }

    #[test]
    fn rewrite_makes_key_unsynced_again() {
        let s = store();
        put(&s, "a", "1");
        s.mark_synced(1);
        assert!(!s.is_unsynced(b"a"));
        put(&s, "a", "2");
        assert!(s.is_unsynced(b"a"));
    }

    #[test]
    fn unsynced_delete_is_tracked_via_tombstone() {
        let s = store();
        put(&s, "a", "1");
        s.mark_synced(1);
        s.execute(&Op::Delete { key: b("a") });
        // The delete itself is an unsynced mutation of "a".
        assert!(s.is_unsynced(b"a"));
        s.mark_synced(2);
        assert!(!s.is_unsynced(b"a"));
    }

    #[test]
    fn touches_unsynced_matches_footprint() {
        let s = store();
        put(&s, "hot", "1");
        assert!(s.touches_unsynced(&Op::Get { key: b("hot") }));
        assert!(!s.touches_unsynced(&Op::Get { key: b("cold") }));
        assert!(s.touches_unsynced(&Op::MultiPut {
            kvs: vec![(b("cold"), b("x")), (b("hot"), b("y"))]
        }));
    }

    #[test]
    #[should_panic(expected = "beyond the log head")]
    fn mark_synced_beyond_head_panics() {
        let s = store();
        s.mark_synced(1);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn mark_synced_backwards_panics() {
        let s = store();
        put(&s, "a", "1");
        put(&s, "b", "1");
        s.mark_synced(2);
        s.mark_synced(1);
    }

    #[test]
    fn export_import_roundtrip_is_fully_synced() {
        let s = store();
        put(&s, "a", "1");
        s.execute(&Op::Incr { key: b("c"), delta: 7 });
        s.execute(&Op::HSet { key: b("h"), field: b("f"), value: b("v") });
        s.execute(&Op::Delete { key: b("dead") }); // version memory for "dead"
        put(&s, "dead", "x");
        s.execute(&Op::Delete { key: b("dead") });

        let (objects, dead) = s.export();
        let r: ShardedStore = ShardedStore::import(1, objects, dead);
        assert!(!r.has_unsynced(), "imported state must be fully synced");
        assert!(!r.is_unsynced(b"a"));
        assert_eq!(get(&r, "a"), OpResult::Value(Some(b("1"))));
        assert_eq!(r.execute(&Op::Incr { key: b("c"), delta: 1 }), OpResult::Counter(8));
        // Deleted-key version memory survives the snapshot: "dead" reached
        // version 1 before deletion, so its next write is version 2.
        assert_eq!(put(&r, "dead", "y"), OpResult::Written { version: 2 });
        // New mutations become unsynced again.
        assert!(r.is_unsynced(b"c"));
    }

    #[test]
    fn value_and_object_codec_roundtrip() {
        use curp_proto::wire::roundtrip;
        roundtrip(&Value::Str(b("hello")));
        roundtrip(&Value::Counter(-9));
        roundtrip(&Value::Hash([(b("f"), b("v")), (b("g"), b("w"))].into_iter().collect()));
        roundtrip(&Value::List(vec![b("a"), b("b")]));
        roundtrip(&Value::Set([b("x"), b("y")].into_iter().collect()));
        roundtrip(&Object { value: Value::Str(b("v")), version: 3, write_pos: 9 });
    }

    #[test]
    fn equal_stores_encode_identically() {
        // Hash maps iterate nondeterministically; the codec must sort.
        let mut h1 = HashMap::new();
        let mut h2 = HashMap::new();
        for i in 0..50 {
            h1.insert(b(&format!("k{i}")), b("v"));
        }
        for i in (0..50).rev() {
            h2.insert(b(&format!("k{i}")), b("v"));
        }
        use curp_proto::wire::Encode;
        assert_eq!(Value::Hash(h1).to_bytes(), Value::Hash(h2).to_bytes());
    }

    #[test]
    fn deterministic_replay_reproduces_state() {
        let ops = [
            Op::Put { key: b("a"), value: b("1") },
            Op::Incr { key: b("c"), delta: 3 },
            Op::HSet { key: b("h"), field: b("f"), value: b("v") },
            Op::Delete { key: b("a") },
            Op::Put { key: b("a"), value: b("2") },
            Op::ListPush { key: b("l"), value: b("x") },
            Op::SetAdd { key: b("s"), member: b("m") },
        ];
        let s1 = store();
        let s2 = store();
        let r1: Vec<_> = ops.iter().map(|op| s1.execute(op)).collect();
        let r2: Vec<_> = ops.iter().map(|op| s2.execute(op)).collect();
        assert_eq!(r1, r2);
        assert_eq!(s1.export(), s2.export());
        assert_eq!(s1.log_head(), s2.log_head());
    }
}
