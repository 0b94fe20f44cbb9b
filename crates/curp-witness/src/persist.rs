//! Durable witness state (§3.2.2): *"To be safe from power failures,
//! witnesses store their data in non-volatile memory (such as flash-backed
//! DRAM)."*
//!
//! Commodity hardware substitution: a write-ahead journal of witness
//! mutations (start / record / gc / freeze / end), length-prefix framed with
//! the shared codec. A restarted witness server replays the journal to
//! recover exactly the instances and records it held — including frozen
//! (recovery-mode) instances, whose immutability must survive the restart.
//! A torn tail (power loss mid-append) is discarded, like the AOF loader.
//!
//! The journal is an *optional* layer: the in-memory
//! [`WitnessService`] stays pure, and
//! [`JournaledWitness`] wraps it, persisting every accepted mutation before
//! acknowledging — the write-ahead discipline that makes the paper's
//! durability claim honest on disk-backed hardware.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};
use curp_proto::frame::write_frame;
use curp_proto::lockrank;
use curp_proto::message::{RecordedRequest, Request, Response};
use curp_proto::types::{KeyHash, MasterId, RpcId};
use curp_proto::wire::{
    decode_seq, encode_seq, need, seq_encoded_len, Decode, DecodeError, Encode,
};
use parking_lot::Mutex;

use crate::cache::CacheConfig;
use crate::service::WitnessService;

/// One journaled mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JournalOp {
    Start(MasterId),
    Record(RecordedRequest),
    Gc { master: MasterId, pairs: Vec<(KeyHash, RpcId)> },
    Freeze(MasterId),
    End(MasterId),
}

const J_START: u8 = 0;
const J_RECORD: u8 = 1;
const J_GC: u8 = 2;
const J_FREEZE: u8 = 3;
const J_END: u8 = 4;

impl Encode for JournalOp {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            JournalOp::Start(m) => {
                buf.put_u8(J_START);
                m.encode(buf);
            }
            JournalOp::Record(r) => {
                buf.put_u8(J_RECORD);
                r.encode(buf);
            }
            JournalOp::Gc { master, pairs } => {
                buf.put_u8(J_GC);
                master.encode(buf);
                encode_seq(pairs, buf);
            }
            JournalOp::Freeze(m) => {
                buf.put_u8(J_FREEZE);
                m.encode(buf);
            }
            JournalOp::End(m) => {
                buf.put_u8(J_END);
                m.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            JournalOp::Start(m) | JournalOp::Freeze(m) | JournalOp::End(m) => m.encoded_len(),
            JournalOp::Record(r) => r.encoded_len(),
            JournalOp::Gc { master, pairs } => master.encoded_len() + seq_encoded_len(pairs),
        }
    }
}

impl Decode for JournalOp {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 1)?;
        Ok(match buf.get_u8() {
            J_START => JournalOp::Start(MasterId::decode(buf)?),
            J_RECORD => JournalOp::Record(RecordedRequest::decode(buf)?),
            J_GC => JournalOp::Gc { master: MasterId::decode(buf)?, pairs: decode_seq(buf)? },
            J_FREEZE => JournalOp::Freeze(MasterId::decode(buf)?),
            J_END => JournalOp::End(MasterId::decode(buf)?),
            tag => return Err(DecodeError::InvalidTag { ty: "JournalOp", tag }),
        })
    }
}

/// A [`WitnessService`] with a write-ahead journal.
pub struct JournaledWitness {
    inner: WitnessService,
    journal: Mutex<File>,
}

impl JournaledWitness {
    /// Opens (or creates) a journaled witness at `path`, replaying any
    /// existing journal to restore prior state.
    ///
    /// Replay follows the AOF's torn-tail discipline: a crash mid-append
    /// leaves an incomplete (or undecodable) *final* record, which is
    /// discarded — the mutation it described was never acknowledged, because
    /// the journal fsync precedes every ack. A corrupt record with complete
    /// frames *after* it cannot be a tear and fails the open with
    /// `InvalidData`: silently skipping it would thaw acknowledged state.
    pub fn open(config: CacheConfig, path: &Path) -> std::io::Result<JournaledWitness> {
        let inner = WitnessService::new(config);
        // Replay through the shared framed-log reader (a missing journal is
        // a fresh witness; any *other* open failure — permissions, I/O —
        // fails loudly: skipping replay on a transient error would boot an
        // empty-but-acking witness and thaw frozen instances).
        let out = curp_storage::load_framed(path, "journal", |frame| {
            JournalOp::from_bytes_shared(frame).map_err(|e| e.to_string())
        })?;
        for op in out.records {
            match op {
                JournalOp::Start(m) => {
                    inner.start(m);
                }
                JournalOp::Record(r) => {
                    inner.record(r);
                }
                JournalOp::Gc { master, pairs } => {
                    inner.gc(master, &pairs);
                }
                // Freezing is irreversible and must survive restarts: a
                // thawed witness could accept records that recovery will
                // never replay (§4.6).
                JournalOp::Freeze(m) => {
                    inner.get_recovery_data(m);
                }
                JournalOp::End(m) => inner.end(m),
            }
        }
        // Cut any torn tail, reopen for append, and make a new journal's
        // directory entry durable — the shared framed-log write discipline.
        let file =
            curp_storage::open_for_append(path, out.truncated.then_some(out.clean_len), true)?;
        Ok(JournaledWitness {
            inner,
            journal: Mutex::ranked(lockrank::WITNESS_JOURNAL, "witness.journal.file", file),
        })
    }

    fn append(&self, op: &JournalOp) -> std::io::Result<()> {
        let mut buf = BytesMut::with_capacity(op.encoded_len() + 4);
        write_frame(&op.to_bytes(), &mut buf);
        let mut journal = self.journal.lock();
        journal.write_all(&buf)?;
        // Write-ahead: the mutation must be stable before we acknowledge.
        journal.sync_data()
    }

    /// The wrapped in-memory service (read-only access for diagnostics).
    pub fn service(&self) -> &WitnessService {
        &self.inner
    }

    /// Handles a witness RPC with write-ahead journaling. Journal failures
    /// surface as rejections — a witness that cannot persist must not
    /// promise durability.
    pub fn handle_request(&self, req: &Request) -> Response {
        let journal_op = match req {
            Request::WitnessStart { master_id } => Some(JournalOp::Start(*master_id)),
            Request::WitnessRecord { request } => Some(JournalOp::Record(request.clone())),
            Request::WitnessGc { master_id, entries } => {
                Some(JournalOp::Gc { master: *master_id, pairs: entries.clone() })
            }
            Request::WitnessGetRecoveryData { master_id } => Some(JournalOp::Freeze(*master_id)),
            Request::WitnessEnd { master_id } => Some(JournalOp::End(*master_id)),
            _ => None,
        };
        if let Some(op) = journal_op {
            if self.append(&op).is_err() {
                return match req {
                    Request::WitnessRecord { .. } => Response::RecordRejected,
                    _ => Response::Retry { reason: "witness journal write failed".into() },
                };
            }
        }
        self.inner.handle_request(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use curp_proto::op::Op;
    use curp_proto::types::ClientId;
    use curp_storage::TempDir;
    use std::fs::OpenOptions;

    const M: MasterId = MasterId(1);

    fn req(key: &str, seq: u64) -> RecordedRequest {
        let op = Op::Put {
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::from_static(b"v"),
        };
        RecordedRequest {
            master_id: M,
            rpc_id: RpcId::new(ClientId(1), seq),
            key_hashes: op.key_hashes(),
            op,
        }
    }

    #[test]
    fn records_survive_restart() {
        let dir = TempDir::new("curp-witness-journal").unwrap();
        let path = dir.path().join("restart");
        {
            let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
            w.handle_request(&Request::WitnessStart { master_id: M });
            for i in 1..=5 {
                let rsp =
                    w.handle_request(&Request::WitnessRecord { request: req(&format!("k{i}"), i) });
                assert_eq!(rsp, Response::RecordAccepted);
            }
        }
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        assert_eq!(w.service().occupancy(M), 5, "records lost across restart");
        // Commutativity state survives too: a conflicting record is rejected.
        let rsp = w.handle_request(&Request::WitnessRecord { request: req("k3", 9) });
        assert_eq!(rsp, Response::RecordRejected);
    }

    #[test]
    fn gc_survives_restart() {
        let dir = TempDir::new("curp-witness-journal").unwrap();
        let path = dir.path().join("gc");
        {
            let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
            w.handle_request(&Request::WitnessStart { master_id: M });
            let r = req("k", 1);
            let pair = (r.key_hashes[0], r.rpc_id);
            w.handle_request(&Request::WitnessRecord { request: r });
            w.handle_request(&Request::WitnessGc { master_id: M, entries: vec![pair] });
        }
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        assert_eq!(w.service().occupancy(M), 0, "gc'd record resurrected");
    }

    #[test]
    fn a_late_record_replays_to_no_slot() {
        let dir = TempDir::new("curp-witness-journal").unwrap();
        let path = dir.path().join("late");
        let late = req("k", 1);
        let pair = (late.key_hashes[0], late.rpc_id);
        {
            let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
            w.handle_request(&Request::WitnessStart { master_id: M });
            w.handle_request(&Request::WitnessGc { master_id: M, entries: vec![pair] });
            let rsp = w.handle_request(&Request::WitnessRecord { request: late.clone() });
            assert_eq!(rsp, Response::RecordAccepted);
        }
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        assert_eq!(w.service().occupancy(M), 0, "a late record took a slot on replay");
        // The replayed gc still remembers the id.
        let rsp = w.handle_request(&Request::WitnessRecord { request: late });
        assert_eq!(rsp, Response::RecordAccepted);
        assert_eq!(w.service().occupancy(M), 0);
        assert_eq!(w.service().counters().collected, 2);
    }

    #[test]
    fn freeze_is_irreversible_across_restart() {
        let dir = TempDir::new("curp-witness-journal").unwrap();
        let path = dir.path().join("freeze");
        {
            let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
            w.handle_request(&Request::WitnessStart { master_id: M });
            w.handle_request(&Request::WitnessRecord { request: req("k", 1) });
            w.handle_request(&Request::WitnessGetRecoveryData { master_id: M });
        }
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        assert!(w.service().is_recovering(M), "recovery mode must survive restart");
        let rsp = w.handle_request(&Request::WitnessRecord { request: req("other", 2) });
        assert_eq!(rsp, Response::RecordRejected, "frozen witness must stay frozen");
        // The recovery data is still intact.
        match w.handle_request(&Request::WitnessGetRecoveryData { master_id: M }) {
            Response::RecoveryData { requests } => assert_eq!(requests.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = TempDir::new("curp-witness-journal").unwrap();
        let path = dir.path().join("torn");
        {
            let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
            w.handle_request(&Request::WitnessStart { master_id: M });
            for i in 1..=3 {
                w.handle_request(&Request::WitnessRecord { request: req(&format!("k{i}"), i) });
            }
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        assert_eq!(w.service().occupancy(M), 2, "torn third record must be dropped");
    }

    #[test]
    fn end_survives_restart() {
        let dir = TempDir::new("curp-witness-journal").unwrap();
        let path = dir.path().join("end");
        {
            let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
            w.handle_request(&Request::WitnessStart { master_id: M });
            w.handle_request(&Request::WitnessRecord { request: req("k", 1) });
            w.handle_request(&Request::WitnessEnd { master_id: M });
        }
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        assert_eq!(w.service().occupancy(M), 0);
        // A fresh life can begin.
        assert_eq!(
            w.handle_request(&Request::WitnessStart { master_id: M }),
            Response::WitnessStarted { ok: true }
        );
    }
}
