//! Replica snapshots: the unit of state transfer for recovery and backup
//! (re)installation.
//!
//! A snapshot bundles an exported store state, the RIFL completion records
//! (which must travel with the data they describe — §3.3: "The IDs and
//! results are durably preserved with updated objects in an atomic fashion"),
//! and the log-entry sequence number the state corresponds to. Snapshots are
//! shipped as opaque bytes inside `Response::BackupData` /
//! `Request::BackupInstall`.

use bytes::{Buf, BufMut, Bytes};
use curp_proto::op::OpResult;
use curp_proto::types::ClientId;
use curp_proto::wire::{decode_seq, encode_seq, seq_encoded_len, Decode, DecodeError, Encode};
use curp_storage::Object;

/// A serializable replica state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Live objects, sorted by key.
    pub objects: Vec<(Bytes, Object)>,
    /// Version memory for deleted keys, sorted by key.
    pub dead_versions: Vec<(Bytes, u64)>,
    /// Exported RIFL table: `(client, first_incomplete, [(seq, result)])`.
    pub rifl: curp_rifl::table::RiflExport,
    /// Log-entry sequence number this state reflects (entries `< next_seq`
    /// are folded in).
    pub next_seq: u64,
}

impl Snapshot {
    /// Assembles a snapshot from an exported store state (the engine
    /// exports under its own shard locks) plus an exported RIFL table.
    pub fn from_parts(
        export: curp_storage::StoreExport,
        rifl: curp_rifl::table::RiflExport,
        next_seq: u64,
    ) -> Self {
        let (objects, dead_versions) = export;
        Snapshot { objects, dead_versions, rifl, next_seq }
    }

    /// Encodes to the opaque wire blob.
    pub fn to_blob(&self) -> Bytes {
        self.to_bytes()
    }

    /// Decodes from the opaque wire blob.
    ///
    /// Deliberately uses the *copying* decode, not `from_bytes_shared`:
    /// restored objects are long-lived, and zero-copy windows would keep
    /// the entire transfer blob's allocation pinned for as long as any one
    /// restored value survives. Snapshot restore is a cold path; paying one
    /// copy here bounds memory at live-data size. (RPC decoding stays
    /// zero-copy — request payloads are short-lived.)
    pub fn from_blob(blob: &[u8]) -> Result<Self, DecodeError> {
        Self::from_bytes(blob)
    }
}

// Wire layout helper for the nested rifl rows.
struct RiflRow(ClientId, u64, Vec<(u64, OpResult)>);

impl Encode for RiflRow {
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        encode_seq(&self.2, buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + 8 + seq_encoded_len(&self.2)
    }
}

impl Decode for RiflRow {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        Ok(RiflRow(ClientId::decode(buf)?, u64::decode(buf)?, decode_seq(buf)?))
    }
}

impl Encode for Snapshot {
    fn encode(&self, buf: &mut impl BufMut) {
        encode_seq(&self.objects, buf);
        encode_seq(&self.dead_versions, buf);
        let rows: Vec<RiflRow> =
            self.rifl.iter().map(|(c, f, r)| RiflRow(*c, *f, r.clone())).collect();
        encode_seq(&rows, buf);
        self.next_seq.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        seq_encoded_len(&self.objects)
            + seq_encoded_len(&self.dead_versions)
            + 4
            + self
                .rifl
                .iter()
                .map(|(c, _, r)| c.encoded_len() + 8 + seq_encoded_len(r))
                .sum::<usize>()
            + 8
    }
}

impl Decode for Snapshot {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        let objects = decode_seq(buf)?;
        let dead_versions = decode_seq(buf)?;
        let rows: Vec<RiflRow> = decode_seq(buf)?;
        let rifl = rows.into_iter().map(|RiflRow(c, f, r)| (c, f, r)).collect();
        let next_seq = u64::decode(buf)?;
        Ok(Snapshot { objects, dead_versions, rifl, next_seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curp_proto::op::Op;
    use curp_proto::types::RpcId;
    use curp_rifl::{CheckResult, RiflTable};
    use curp_storage::{StateStore, StoreConfig};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// A fully synced single-shard store that has executed `ops`.
    fn store_after(ops: &[Op]) -> Box<dyn StateStore> {
        let store = StoreConfig::memory(1).build();
        for op in ops {
            let mut guards = store.lock_all_for(Some(op));
            guards.execute(op);
            guards.mark_synced(store.log_head());
        }
        store
    }

    #[test]
    fn capture_restore_roundtrip() {
        let store = store_after(&[
            Op::Put { key: b("k"), value: b("v") },
            Op::Incr { key: b("c"), delta: 4 },
        ]);
        let mut rifl = RiflTable::new();
        rifl.record(RpcId::new(ClientId(1), 3), OpResult::Written { version: 1 });

        let snap = Snapshot::from_parts(store.export(), rifl.export(), 2);
        let blob = snap.to_blob();
        let back = Snapshot::from_blob(&blob).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.next_seq, 2);

        let store2: Box<dyn StateStore> =
            StoreConfig::memory(1).build_import(back.objects, back.dead_versions);
        let rifl2 = RiflTable::import(back.rifl);
        assert_eq!(
            store2.get_object(b"k").map(|o| o.value),
            store.get_object(b"k").map(|o| o.value)
        );
        assert!(!store2.has_unsynced());
        assert_eq!(
            rifl2.check(RpcId::new(ClientId(1), 3)),
            CheckResult::Duplicate(OpResult::Written { version: 1 })
        );
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let snap = Snapshot::from_parts(store_after(&[]).export(), RiflTable::new().export(), 0);
        let back = Snapshot::from_blob(&snap.to_blob()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn identical_states_produce_identical_blobs() {
        let build = || {
            let ops: Vec<Op> =
                (0..20).map(|i| Op::Put { key: b(&format!("k{i}")), value: b("v") }).collect();
            let mut rifl = RiflTable::new();
            for i in 0..5 {
                rifl.record(RpcId::new(ClientId(i), 1), OpResult::Written { version: 1 });
            }
            Snapshot::from_parts(store_after(&ops).export(), rifl.export(), 20).to_blob()
        };
        assert_eq!(build(), build());
    }
}
