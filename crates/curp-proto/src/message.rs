//! Every RPC exchanged inside a CURP cluster.
//!
//! One request enum and one response enum cover all five parties (client,
//! master, backup, witness, coordinator); the transport layer moves opaque
//! `Request`/`Response` values and does not interpret them. The RPC surface
//! follows Figure 4 of the paper plus the master/backup/coordinator calls the
//! paper describes in prose.

use bytes::{Buf, BufMut, Bytes};

use crate::cluster::{ClusterConfig, LoadStats};
use crate::footprint::Footprint;
use crate::op::{Op, OpResult};
use crate::types::{ClientId, Epoch, KeyHash, MasterId, RpcId, ServerId, WitnessListVersion};
use crate::wire::{decode_seq, encode_seq, need, seq_encoded_len, Decode, DecodeError, Encode};

/// A client request as recorded by (and recovered from) a witness.
///
/// This is exactly what `record` stores (§4.2) and `getRecoveryData`
/// returns (§4.6): enough to re-execute the operation on a new master and to
/// garbage-collect it by `(keyHash, rpcId)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedRequest {
    /// Master the request was addressed to.
    pub master_id: MasterId,
    /// RIFL id of the client RPC.
    pub rpc_id: RpcId,
    /// Key hashes the operation touches — the commutativity footprint,
    /// computed once per RPC at the client and cached here. Must equal
    /// `op.key_hashes()` recomputed (DESIGN.md, invariant 1).
    pub key_hashes: Footprint,
    /// The operation itself.
    pub op: Op,
}

impl RecordedRequest {
    /// Checks the cached footprint against the op (DESIGN.md invariant 1).
    ///
    /// The single definition of footprint honesty: every replay trust
    /// boundary (a master about to re-execute a witness-recorded request)
    /// must drop requests failing this check — their footprint claims keys
    /// the op does not touch, so the witness's mutual-commutativity
    /// guarantee does not cover them.
    pub fn footprint_matches_op(&self) -> bool {
        self.key_hashes == self.op.key_hashes()
    }
}

impl Encode for RecordedRequest {
    fn encode(&self, buf: &mut impl BufMut) {
        self.master_id.encode(buf);
        self.rpc_id.encode(buf);
        self.key_hashes.encode(buf);
        self.op.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.master_id.encoded_len()
            + self.rpc_id.encoded_len()
            + self.key_hashes.encoded_len()
            + self.op.encoded_len()
    }
}

impl Decode for RecordedRequest {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        Ok(RecordedRequest {
            master_id: MasterId::decode(buf)?,
            rpc_id: RpcId::decode(buf)?,
            key_hashes: Footprint::decode(buf)?,
            op: Op::decode(buf)?,
        })
    }
}

/// One ordered entry of a master's operation log, as replicated to backups.
///
/// CURP replicates *requests and results* rather than just values, which
/// makes RIFL completion records trivially durable (§3.3: "If a system
/// replicates client requests to backups ... providing atomic durability
/// becomes trivial").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Position in the master's execution order (starts at 0).
    pub seq: u64,
    /// RIFL id, present for client mutations (absent for internal entries
    /// such as recovery replays of non-RIFL ops).
    pub rpc_id: Option<RpcId>,
    /// The executed operation.
    pub op: Op,
    /// The result the master returned (part of the completion record).
    pub result: OpResult,
}

impl Encode for LogEntry {
    fn encode(&self, buf: &mut impl BufMut) {
        self.seq.encode(buf);
        self.rpc_id.encode(buf);
        self.op.encode(buf);
        self.result.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.rpc_id.encoded_len() + self.op.encoded_len() + self.result.encoded_len()
    }
}

impl Decode for LogEntry {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        Ok(LogEntry {
            seq: u64::decode(buf)?,
            rpc_id: Option::<RpcId>::decode(buf)?,
            op: Op::decode(buf)?,
            result: OpResult::decode(buf)?,
        })
    }
}

/// Requests sent between CURP parties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    // ---- client -> master -------------------------------------------------
    /// An update RPC (§3.2.1). Carries the RIFL id, a piggybacked
    /// acknowledgement (`first_incomplete`: all of this client's RPCs with
    /// `seq < first_incomplete` have had their results received), and the
    /// witness-list version the client recorded against (§3.6).
    ClientUpdate {
        /// RIFL id of this RPC.
        rpc_id: RpcId,
        /// RIFL garbage-collection hint (see above).
        first_incomplete: u64,
        /// Witness-list version used for the parallel `record` RPCs.
        witness_list_version: WitnessListVersion,
        /// The mutation to execute.
        op: Op,
    },
    /// A read-only RPC executed at the master. Not recorded on witnesses and
    /// assigned no completion record, but still subject to the master's
    /// commutativity check against unsynced writes (§3.2.3).
    ClientRead {
        /// The read-only operation.
        op: Op,
    },
    /// Client asks the master to sync to backups (slow path, §3.2.1).
    ///
    /// Bound to the master *incarnation* that executed the client's ops
    /// speculatively: a `SyncDone` only proves durability of what **this**
    /// master has in its log. A server whose partition was since recovered
    /// onto a new master id must refuse, or the client would externalize a
    /// dead incarnation's speculative results on the strength of a sync that
    /// never covered them (§4.7's fencing, client side).
    Sync {
        /// The master incarnation whose unsynced tail must become durable.
        master_id: MasterId,
    },

    // ---- client -> witness (Figure 4) --------------------------------------
    /// `record(masterID, keyHashes, rpcId, request)`.
    WitnessRecord {
        /// The request, including the master id and key hashes.
        request: RecordedRequest,
    },

    // ---- master -> witness (Figure 4) ---------------------------------------
    /// `gc(list of {keyHash, rpcId})`.
    WitnessGc {
        /// The master whose witness instance is addressed.
        master_id: MasterId,
        /// Slots to free, one pair per (key, rpc).
        entries: Vec<(KeyHash, RpcId)>,
    },
    /// `getRecoveryData()` — irreversibly moves the witness to recovery mode.
    WitnessGetRecoveryData {
        /// The crashed master whose requests are wanted.
        master_id: MasterId,
    },

    // ---- coordinator -> witness (Figure 4) ----------------------------------
    /// `start(masterId)` — begin a witness life for `master_id`.
    WitnessStart {
        /// Master this witness will serve.
        master_id: MasterId,
    },
    /// `end()` — decommission the witness instance for `master_id`.
    WitnessEnd {
        /// The master whose witness instance is decommissioned.
        master_id: MasterId,
    },

    // ---- master -> backup ----------------------------------------------------
    /// Replicates a batch of ordered log entries (a "sync", §3.2.3).
    BackupSync {
        /// Partition being replicated.
        master_id: MasterId,
        /// Zombie-fencing epoch (§4.7); backups reject stale epochs.
        epoch: Epoch,
        /// Entries in execution order; `entries[0].seq` equals the backup's
        /// expected next sequence number.
        entries: Vec<LogEntry>,
        /// RIFL ack watermarks `(client, first_incomplete)` that moved on
        /// the master since its last successful round: the client holds
        /// every result below the watermark, so the backup drops those
        /// completion records too (§4.8).
        acks: Vec<(ClientId, u64)>,
    },
    /// Recovery restore: fetch the backup's entire replicated log (§3.3).
    BackupFetch {
        /// Partition to restore.
        master_id: MasterId,
    },
    /// Replaces a backup's replica state wholesale with a snapshot. Sent by a
    /// recovery master after witness replay (§4.6, "finalizes the recovery by
    /// syncing to backups") and when the coordinator seeds a replacement
    /// backup.
    BackupInstall {
        /// Partition (the *new* master incarnation).
        master_id: MasterId,
        /// Fencing epoch of the new master.
        epoch: Epoch,
        /// Next expected log-entry sequence number after the snapshot.
        next_seq: u64,
        /// Opaque encoded snapshot (see `curp-core`'s snapshot module).
        snapshot: Bytes,
    },
    /// Coordinator raises the fencing epoch so a zombie master's syncs are
    /// rejected before recovery begins (§4.7).
    BackupSetEpoch {
        /// Partition to fence.
        master_id: MasterId,
        /// New minimum epoch.
        epoch: Epoch,
    },

    // ---- coordinator -> master -------------------------------------------------
    /// Notifies a master of a new witness list (§3.6). The master must sync
    /// to backups before acknowledging.
    MasterWitnessList {
        /// New version.
        version: WitnessListVersion,
        /// New witness set.
        witnesses: Vec<ServerId>,
    },
    /// Tells a master that a client lease expired; the master must sync
    /// before dropping the client's completion records (§4.8).
    MasterClientExpired {
        /// The expired client.
        client: ClientId,
    },
    /// Asks a master for its current load snapshot (update counter, queue
    /// depth, hot-hash histogram) — the autoscaler's polling RPC.
    MasterLoadStats {
        /// The master incarnation being polled.
        master_id: MasterId,
    },

    // ---- any -> any (transport batching) -----------------------------------
    /// A batch of independent requests flushed as one frame (one transport
    /// write, one dispatch charge per direction). Each inner request keeps
    /// its own payload — in particular each [`Request::WitnessRecord`]
    /// carries its own per-op footprint, so witness commutativity checks
    /// stay per-op. The receiver handles every inner request independently
    /// and replies with a [`Response::Batch`] whose `responses[i]` answers
    /// `requests[i]`, whatever order the handlers completed in. Batches do
    /// not nest: the codec rejects a `Batch` inside a `Batch`.
    Batch {
        /// The independent inner requests, in submission order.
        requests: Vec<Request>,
    },

    // ---- any -> coordinator ------------------------------------------------------
    /// Fetches the current cluster configuration.
    GetConfig,
    /// Acquires a new RIFL client lease.
    AcquireLease,
    /// Renews an existing lease.
    RenewLease {
        /// Lease to renew.
        client: ClientId,
    },
}

/// Responses to [`Request`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Successful update. `synced == true` means the master replicated to
    /// backups before responding (the operation is durable regardless of
    /// witnesses, §3.2.3), so the client may complete even if witnesses
    /// rejected.
    Update {
        /// Execution result.
        result: OpResult,
        /// Whether the master synced before responding.
        synced: bool,
    },
    /// Successful read.
    Read {
        /// Execution result.
        result: OpResult,
    },
    /// The master synced to backups (reply to [`Request::Sync`]).
    SyncDone,
    /// The client's witness-list version is stale; it must refetch the
    /// configuration and retry (§3.6).
    StaleWitnessList {
        /// The version the master currently holds.
        current: WitnessListVersion,
    },
    /// This master does not own the key (dropped or migrated partition,
    /// §3.6); the client must refetch the configuration.
    NotOwner,

    /// Witness accepted the record (§3.2.2).
    RecordAccepted,
    /// Witness rejected the record: not commutative with a stored request,
    /// no slot available, wrong master, or recovery mode.
    RecordRejected,
    /// Witness processed a gc RPC; returns requests it suspects are
    /// uncollected garbage so the master can retry them (§4.5).
    GcDone {
        /// Suspected-stale requests the master should re-execute and re-gc.
        stale: Vec<RecordedRequest>,
    },
    /// All requests held for the crashed master (§4.6).
    RecoveryData {
        /// The recorded requests, mutually commutative.
        requests: Vec<RecordedRequest>,
    },
    /// Witness accepted `start` (Figure 4: SUCCESS/FAIL).
    WitnessStarted {
        /// Whether the instance was created.
        ok: bool,
    },
    /// Witness decommissioned.
    WitnessEnded,

    /// Backup accepted (or rejected, if the epoch was stale) a sync batch.
    BackupSynced {
        /// `false` means the sender is a fenced zombie (§4.7).
        accepted: bool,
        /// The backup's next expected sequence number (for gap detection).
        next_seq: u64,
    },
    /// The backup's materialized replica for a partition.
    BackupData {
        /// Next log-entry sequence number the backup expects (== number of
        /// entries applied).
        next_seq: u64,
        /// Opaque encoded snapshot of the replica state.
        snapshot: Bytes,
    },
    /// Acknowledges a [`Request::BackupInstall`].
    BackupInstalled,
    /// Epoch fencing installed.
    EpochSet,

    /// Master acknowledged a witness-list change (it has synced, §3.6).
    WitnessListInstalled,
    /// A master's load snapshot (reply to [`Request::MasterLoadStats`]).
    LoadStats {
        /// The snapshot.
        stats: LoadStats,
    },
    /// Master acknowledged a lease expiry (it has synced, §4.8).
    ClientExpiredAck,

    /// Current cluster configuration.
    Config {
        /// The configuration.
        config: ClusterConfig,
    },
    /// A fresh (or renewed) RIFL lease.
    Lease {
        /// The client id.
        client: ClientId,
        /// Lease validity in milliseconds from now.
        ttl_ms: u64,
    },

    /// Positional answers to a [`Request::Batch`]: `responses[i]` answers
    /// `requests[i]` regardless of handler completion order.
    Batch {
        /// One response per inner request, in request order.
        responses: Vec<Response>,
    },

    /// Generic retriable failure with a human-readable reason.
    Retry {
        /// Why the request could not be served.
        reason: String,
    },
}

macro_rules! tags {
    ($($name:ident = $val:expr,)*) => {
        $(const $name: u8 = $val;)*
    };
}

// Retired, never to be reused: request tags 4 and 11 and response tags 7
// and 14 carried the §A.1 backup-read probe; request and response tag 22
// carried the §A.2 consensus tunnel. They now decode as unknown.
tags! {
    REQ_CLIENT_UPDATE = 0,
    REQ_CLIENT_READ = 1,
    REQ_SYNC = 2,
    REQ_W_RECORD = 3,
    REQ_W_GC = 5,
    REQ_W_RECOVERY = 6,
    REQ_W_START = 7,
    REQ_W_END = 8,
    REQ_B_SYNC = 9,
    REQ_B_FETCH = 10,
    REQ_B_EPOCH = 12,
    REQ_B_INSTALL = 21,
    REQ_M_WLIST = 13,
    REQ_M_EXPIRED = 14,
    REQ_GET_CONFIG = 15,
    REQ_ACQUIRE_LEASE = 16,
    REQ_RENEW_LEASE = 17,
    REQ_BATCH = 23,
    REQ_M_LOAD = 24,
}

impl Encode for Request {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Request::ClientUpdate { rpc_id, first_incomplete, witness_list_version, op } => {
                buf.put_u8(REQ_CLIENT_UPDATE);
                rpc_id.encode(buf);
                first_incomplete.encode(buf);
                witness_list_version.encode(buf);
                op.encode(buf);
            }
            Request::ClientRead { op } => {
                buf.put_u8(REQ_CLIENT_READ);
                op.encode(buf);
            }
            Request::Sync { master_id } => {
                buf.put_u8(REQ_SYNC);
                master_id.encode(buf);
            }
            Request::WitnessRecord { request } => {
                buf.put_u8(REQ_W_RECORD);
                request.encode(buf);
            }
            Request::WitnessGc { master_id, entries } => {
                buf.put_u8(REQ_W_GC);
                master_id.encode(buf);
                encode_seq(entries, buf);
            }
            Request::WitnessGetRecoveryData { master_id } => {
                buf.put_u8(REQ_W_RECOVERY);
                master_id.encode(buf);
            }
            Request::WitnessStart { master_id } => {
                buf.put_u8(REQ_W_START);
                master_id.encode(buf);
            }
            Request::WitnessEnd { master_id } => {
                buf.put_u8(REQ_W_END);
                master_id.encode(buf);
            }
            Request::BackupSync { master_id, epoch, entries, acks } => {
                buf.put_u8(REQ_B_SYNC);
                master_id.encode(buf);
                epoch.encode(buf);
                encode_seq(entries, buf);
                encode_seq(acks, buf);
            }
            Request::BackupFetch { master_id } => {
                buf.put_u8(REQ_B_FETCH);
                master_id.encode(buf);
            }
            Request::BackupSetEpoch { master_id, epoch } => {
                buf.put_u8(REQ_B_EPOCH);
                master_id.encode(buf);
                epoch.encode(buf);
            }
            Request::BackupInstall { master_id, epoch, next_seq, snapshot } => {
                buf.put_u8(REQ_B_INSTALL);
                master_id.encode(buf);
                epoch.encode(buf);
                next_seq.encode(buf);
                snapshot.encode(buf);
            }
            Request::MasterWitnessList { version, witnesses } => {
                buf.put_u8(REQ_M_WLIST);
                version.encode(buf);
                encode_seq(witnesses, buf);
            }
            Request::MasterClientExpired { client } => {
                buf.put_u8(REQ_M_EXPIRED);
                client.encode(buf);
            }
            Request::MasterLoadStats { master_id } => {
                buf.put_u8(REQ_M_LOAD);
                master_id.encode(buf);
            }
            Request::Batch { requests } => {
                buf.put_u8(REQ_BATCH);
                encode_seq(requests, buf);
            }
            Request::GetConfig => buf.put_u8(REQ_GET_CONFIG),
            Request::AcquireLease => buf.put_u8(REQ_ACQUIRE_LEASE),
            Request::RenewLease { client } => {
                buf.put_u8(REQ_RENEW_LEASE);
                client.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Request::ClientUpdate { rpc_id, first_incomplete, witness_list_version, op } => {
                rpc_id.encoded_len()
                    + first_incomplete.encoded_len()
                    + witness_list_version.encoded_len()
                    + op.encoded_len()
            }
            Request::ClientRead { op } => op.encoded_len(),
            Request::GetConfig | Request::AcquireLease => 0,
            Request::Sync { master_id } => master_id.encoded_len(),
            Request::WitnessEnd { master_id } => master_id.encoded_len(),
            Request::WitnessRecord { request } => request.encoded_len(),
            Request::WitnessGc { master_id, entries } => {
                master_id.encoded_len() + seq_encoded_len(entries)
            }
            Request::WitnessGetRecoveryData { master_id } => master_id.encoded_len(),
            Request::WitnessStart { master_id } => master_id.encoded_len(),
            Request::BackupSync { master_id, epoch, entries, acks } => {
                master_id.encoded_len()
                    + epoch.encoded_len()
                    + seq_encoded_len(entries)
                    + seq_encoded_len(acks)
            }
            Request::BackupFetch { master_id } => master_id.encoded_len(),
            Request::BackupSetEpoch { master_id, epoch } => {
                master_id.encoded_len() + epoch.encoded_len()
            }
            Request::BackupInstall { master_id, epoch, next_seq, snapshot } => {
                master_id.encoded_len()
                    + epoch.encoded_len()
                    + next_seq.encoded_len()
                    + snapshot.encoded_len()
            }
            Request::MasterWitnessList { version, witnesses } => {
                version.encoded_len() + seq_encoded_len(witnesses)
            }
            Request::MasterClientExpired { client } => client.encoded_len(),
            Request::MasterLoadStats { master_id } => master_id.encoded_len(),
            Request::RenewLease { client } => client.encoded_len(),
            Request::Batch { requests } => seq_encoded_len(requests),
        }
    }
}

impl Decode for Request {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 1)?;
        let tag = buf.get_u8();
        Ok(match tag {
            REQ_CLIENT_UPDATE => Request::ClientUpdate {
                rpc_id: RpcId::decode(buf)?,
                first_incomplete: u64::decode(buf)?,
                witness_list_version: WitnessListVersion::decode(buf)?,
                op: Op::decode(buf)?,
            },
            REQ_CLIENT_READ => Request::ClientRead { op: Op::decode(buf)? },
            REQ_SYNC => Request::Sync { master_id: MasterId::decode(buf)? },
            REQ_W_RECORD => Request::WitnessRecord { request: RecordedRequest::decode(buf)? },
            REQ_W_GC => {
                Request::WitnessGc { master_id: MasterId::decode(buf)?, entries: decode_seq(buf)? }
            }
            REQ_W_RECOVERY => Request::WitnessGetRecoveryData { master_id: MasterId::decode(buf)? },
            REQ_W_START => Request::WitnessStart { master_id: MasterId::decode(buf)? },
            REQ_W_END => Request::WitnessEnd { master_id: MasterId::decode(buf)? },
            REQ_B_SYNC => Request::BackupSync {
                master_id: MasterId::decode(buf)?,
                epoch: Epoch::decode(buf)?,
                entries: decode_seq(buf)?,
                acks: decode_seq(buf)?,
            },
            REQ_B_FETCH => Request::BackupFetch { master_id: MasterId::decode(buf)? },
            REQ_B_EPOCH => Request::BackupSetEpoch {
                master_id: MasterId::decode(buf)?,
                epoch: Epoch::decode(buf)?,
            },
            REQ_B_INSTALL => Request::BackupInstall {
                master_id: MasterId::decode(buf)?,
                epoch: Epoch::decode(buf)?,
                next_seq: u64::decode(buf)?,
                snapshot: Bytes::decode(buf)?,
            },
            REQ_M_WLIST => Request::MasterWitnessList {
                version: WitnessListVersion::decode(buf)?,
                witnesses: decode_seq(buf)?,
            },
            REQ_M_EXPIRED => Request::MasterClientExpired { client: ClientId::decode(buf)? },
            REQ_M_LOAD => Request::MasterLoadStats { master_id: MasterId::decode(buf)? },
            REQ_BATCH => {
                let requests: Vec<Request> = decode_seq(buf)?;
                // Batches never nest; bounding the recursion depth here keeps
                // adversarial frames from growing an unbounded decode stack.
                if requests.iter().any(|r| matches!(r, Request::Batch { .. })) {
                    return Err(DecodeError::InvalidTag { ty: "Request (nested batch)", tag });
                }
                Request::Batch { requests }
            }
            REQ_GET_CONFIG => Request::GetConfig,
            REQ_ACQUIRE_LEASE => Request::AcquireLease,
            REQ_RENEW_LEASE => Request::RenewLease { client: ClientId::decode(buf)? },
            tag => return Err(DecodeError::InvalidTag { ty: "Request", tag }),
        })
    }
}

tags! {
    RSP_UPDATE = 0,
    RSP_READ = 1,
    RSP_SYNC_DONE = 2,
    RSP_STALE_WLIST = 3,
    RSP_NOT_OWNER = 4,
    RSP_REC_ACCEPTED = 5,
    RSP_REC_REJECTED = 6,
    RSP_GC_DONE = 8,
    RSP_RECOVERY = 9,
    RSP_W_STARTED = 10,
    RSP_W_ENDED = 11,
    RSP_B_SYNCED = 12,
    RSP_B_DATA = 13,
    RSP_EPOCH_SET = 15,
    RSP_WLIST_INSTALLED = 16,
    RSP_EXPIRED_ACK = 17,
    RSP_CONFIG = 18,
    RSP_LEASE = 19,
    RSP_RETRY = 20,
    RSP_B_INSTALLED = 21,
    RSP_BATCH = 23,
    RSP_LOAD_STATS = 24,
}

impl Encode for Response {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Response::Update { result, synced } => {
                buf.put_u8(RSP_UPDATE);
                result.encode(buf);
                synced.encode(buf);
            }
            Response::Read { result } => {
                buf.put_u8(RSP_READ);
                result.encode(buf);
            }
            Response::SyncDone => buf.put_u8(RSP_SYNC_DONE),
            Response::StaleWitnessList { current } => {
                buf.put_u8(RSP_STALE_WLIST);
                current.encode(buf);
            }
            Response::NotOwner => buf.put_u8(RSP_NOT_OWNER),
            Response::RecordAccepted => buf.put_u8(RSP_REC_ACCEPTED),
            Response::RecordRejected => buf.put_u8(RSP_REC_REJECTED),
            Response::GcDone { stale } => {
                buf.put_u8(RSP_GC_DONE);
                encode_seq(stale, buf);
            }
            Response::RecoveryData { requests } => {
                buf.put_u8(RSP_RECOVERY);
                encode_seq(requests, buf);
            }
            Response::WitnessStarted { ok } => {
                buf.put_u8(RSP_W_STARTED);
                ok.encode(buf);
            }
            Response::WitnessEnded => buf.put_u8(RSP_W_ENDED),
            Response::BackupSynced { accepted, next_seq } => {
                buf.put_u8(RSP_B_SYNCED);
                accepted.encode(buf);
                next_seq.encode(buf);
            }
            Response::BackupData { next_seq, snapshot } => {
                buf.put_u8(RSP_B_DATA);
                next_seq.encode(buf);
                snapshot.encode(buf);
            }
            Response::BackupInstalled => buf.put_u8(RSP_B_INSTALLED),
            Response::EpochSet => buf.put_u8(RSP_EPOCH_SET),
            Response::WitnessListInstalled => buf.put_u8(RSP_WLIST_INSTALLED),
            Response::LoadStats { stats } => {
                buf.put_u8(RSP_LOAD_STATS);
                stats.encode(buf);
            }
            Response::ClientExpiredAck => buf.put_u8(RSP_EXPIRED_ACK),
            Response::Config { config } => {
                buf.put_u8(RSP_CONFIG);
                config.encode(buf);
            }
            Response::Lease { client, ttl_ms } => {
                buf.put_u8(RSP_LEASE);
                client.encode(buf);
                ttl_ms.encode(buf);
            }
            Response::Retry { reason } => {
                buf.put_u8(RSP_RETRY);
                reason.encode(buf);
            }
            Response::Batch { responses } => {
                buf.put_u8(RSP_BATCH);
                encode_seq(responses, buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Response::Update { result, synced } => result.encoded_len() + synced.encoded_len(),
            Response::Read { result } => result.encoded_len(),
            Response::SyncDone
            | Response::NotOwner
            | Response::RecordAccepted
            | Response::RecordRejected
            | Response::WitnessEnded
            | Response::EpochSet
            | Response::WitnessListInstalled
            | Response::ClientExpiredAck => 0,
            Response::StaleWitnessList { current } => current.encoded_len(),
            Response::GcDone { stale } => seq_encoded_len(stale),
            Response::RecoveryData { requests } => seq_encoded_len(requests),
            Response::WitnessStarted { ok } => ok.encoded_len(),
            Response::BackupSynced { accepted, next_seq } => {
                accepted.encoded_len() + next_seq.encoded_len()
            }
            Response::BackupData { next_seq, snapshot } => {
                next_seq.encoded_len() + snapshot.encoded_len()
            }
            Response::BackupInstalled => 0,
            Response::LoadStats { stats } => stats.encoded_len(),
            Response::Config { config } => config.encoded_len(),
            Response::Lease { client, ttl_ms } => client.encoded_len() + ttl_ms.encoded_len(),
            Response::Retry { reason } => reason.encoded_len(),
            Response::Batch { responses } => seq_encoded_len(responses),
        }
    }
}

impl Decode for Response {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(buf, 1)?;
        let tag = buf.get_u8();
        Ok(match tag {
            RSP_UPDATE => {
                Response::Update { result: OpResult::decode(buf)?, synced: bool::decode(buf)? }
            }
            RSP_READ => Response::Read { result: OpResult::decode(buf)? },
            RSP_SYNC_DONE => Response::SyncDone,
            RSP_STALE_WLIST => {
                Response::StaleWitnessList { current: WitnessListVersion::decode(buf)? }
            }
            RSP_NOT_OWNER => Response::NotOwner,
            RSP_REC_ACCEPTED => Response::RecordAccepted,
            RSP_REC_REJECTED => Response::RecordRejected,
            RSP_GC_DONE => Response::GcDone { stale: decode_seq(buf)? },
            RSP_RECOVERY => Response::RecoveryData { requests: decode_seq(buf)? },
            RSP_W_STARTED => Response::WitnessStarted { ok: bool::decode(buf)? },
            RSP_W_ENDED => Response::WitnessEnded,
            RSP_B_SYNCED => {
                Response::BackupSynced { accepted: bool::decode(buf)?, next_seq: u64::decode(buf)? }
            }
            RSP_B_DATA => {
                Response::BackupData { next_seq: u64::decode(buf)?, snapshot: Bytes::decode(buf)? }
            }
            RSP_B_INSTALLED => Response::BackupInstalled,
            RSP_EPOCH_SET => Response::EpochSet,
            RSP_WLIST_INSTALLED => Response::WitnessListInstalled,
            RSP_LOAD_STATS => Response::LoadStats { stats: LoadStats::decode(buf)? },
            RSP_EXPIRED_ACK => Response::ClientExpiredAck,
            RSP_CONFIG => Response::Config { config: ClusterConfig::decode(buf)? },
            RSP_LEASE => {
                Response::Lease { client: ClientId::decode(buf)?, ttl_ms: u64::decode(buf)? }
            }
            RSP_RETRY => Response::Retry { reason: String::decode(buf)? },
            RSP_BATCH => {
                let responses: Vec<Response> = decode_seq(buf)?;
                if responses.iter().any(|r| matches!(r, Response::Batch { .. })) {
                    return Err(DecodeError::InvalidTag { ty: "Response (nested batch)", tag });
                }
                Response::Batch { responses }
            }
            tag => return Err(DecodeError::InvalidTag { ty: "Response", tag }),
        })
    }
}

/// Transport-level envelope correlating requests with responses on a shared
/// stream (used by the TCP transport; the in-memory transport correlates via
/// oneshot channels instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcEnvelope {
    /// Correlation id, unique per connection.
    pub corr_id: u64,
    /// `true` if `payload` is a [`Response`], `false` for a [`Request`].
    pub is_response: bool,
    /// Encoded request or response.
    pub payload: Bytes,
}

impl Encode for RpcEnvelope {
    fn encode(&self, buf: &mut impl BufMut) {
        self.corr_id.encode(buf);
        self.is_response.encode(buf);
        self.payload.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + 1 + self.payload.encoded_len()
    }
}

impl Decode for RpcEnvelope {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        Ok(RpcEnvelope {
            corr_id: u64::decode(buf)?,
            is_response: bool::decode(buf)?,
            payload: Bytes::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{HashRange, PartitionConfig};
    use crate::wire::roundtrip;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn rid(c: u64, s: u64) -> RpcId {
        RpcId::new(ClientId(c), s)
    }

    fn recorded() -> RecordedRequest {
        RecordedRequest {
            master_id: MasterId(3),
            rpc_id: rid(1, 5),
            key_hashes: vec![KeyHash(11), KeyHash(22)].into(),
            op: Op::Put { key: b("k"), value: b("v") },
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::ClientUpdate {
                rpc_id: rid(1, 2),
                first_incomplete: 1,
                witness_list_version: WitnessListVersion(4),
                op: Op::Put { key: b("k"), value: b("v") },
            },
            Request::ClientRead { op: Op::Get { key: b("k") } },
            Request::Sync { master_id: MasterId(1) },
            Request::WitnessRecord { request: recorded() },
            Request::WitnessGc { master_id: MasterId(3), entries: vec![(KeyHash(1), rid(2, 3))] },
            Request::WitnessGetRecoveryData { master_id: MasterId(3) },
            Request::WitnessStart { master_id: MasterId(3) },
            Request::WitnessEnd { master_id: MasterId(3) },
            Request::BackupSync {
                master_id: MasterId(3),
                epoch: Epoch(2),
                entries: vec![LogEntry {
                    seq: 7,
                    rpc_id: Some(rid(1, 2)),
                    op: Op::Delete { key: b("k") },
                    result: OpResult::Written { version: 8 },
                }],
                acks: vec![(ClientId(1), 2), (ClientId(4), u64::MAX)],
            },
            Request::BackupFetch { master_id: MasterId(3) },
            Request::BackupSetEpoch { master_id: MasterId(3), epoch: Epoch(5) },
            Request::BackupInstall {
                master_id: MasterId(4),
                epoch: Epoch(6),
                next_seq: 17,
                snapshot: b("snapshot-bytes"),
            },
            Request::MasterWitnessList {
                version: WitnessListVersion(6),
                witnesses: vec![ServerId(1), ServerId(2)],
            },
            Request::MasterClientExpired { client: ClientId(9) },
            Request::MasterLoadStats { master_id: MasterId(3) },
            Request::Batch {
                requests: vec![
                    Request::ClientUpdate {
                        rpc_id: rid(1, 2),
                        first_incomplete: 1,
                        witness_list_version: WitnessListVersion(4),
                        op: Op::Put { key: b("k"), value: b("v") },
                    },
                    Request::WitnessRecord { request: recorded() },
                    Request::Sync { master_id: MasterId(1) },
                ],
            },
            Request::Batch { requests: Vec::new() },
            Request::GetConfig,
            Request::AcquireLease,
            Request::RenewLease { client: ClientId(9) },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Update { result: OpResult::Written { version: 1 }, synced: true },
            Response::Read { result: OpResult::Value(Some(b("v"))) },
            Response::SyncDone,
            Response::StaleWitnessList { current: WitnessListVersion(7) },
            Response::NotOwner,
            Response::RecordAccepted,
            Response::RecordRejected,
            Response::GcDone { stale: vec![recorded()] },
            Response::RecoveryData { requests: vec![recorded(), recorded()] },
            Response::WitnessStarted { ok: true },
            Response::WitnessEnded,
            Response::BackupSynced { accepted: false, next_seq: 12 },
            Response::BackupData { next_seq: 12, snapshot: b("blob") },
            Response::BackupInstalled,
            Response::EpochSet,
            Response::WitnessListInstalled,
            Response::LoadStats {
                stats: LoadStats {
                    updates: 420,
                    pending: 3,
                    range: HashRange { start: 0, end: 1 << 63 },
                    hot_hash_histogram: vec![1, 0, 7, 2],
                },
            },
            Response::ClientExpiredAck,
            Response::Config {
                config: ClusterConfig {
                    partitions: vec![PartitionConfig {
                        master_id: MasterId(1),
                        master: ServerId(1),
                        backups: vec![ServerId(2)],
                        witnesses: vec![ServerId(3)],
                        witness_list_version: WitnessListVersion(1),
                        epoch: Epoch(0),
                        range: HashRange::FULL,
                    }],
                    version: 1,
                },
            },
            Response::Lease { client: ClientId(4), ttl_ms: 30_000 },
            Response::Retry { reason: "busy".into() },
            Response::Batch {
                responses: vec![
                    Response::Update { result: OpResult::Written { version: 1 }, synced: false },
                    Response::RecordAccepted,
                    Response::SyncDone,
                ],
            },
            Response::Batch { responses: Vec::new() },
        ]
    }

    #[test]
    fn all_requests_roundtrip() {
        for r in sample_requests() {
            roundtrip(&r);
        }
    }

    #[test]
    fn all_responses_roundtrip() {
        for r in sample_responses() {
            roundtrip(&r);
        }
    }

    #[test]
    fn envelope_roundtrips() {
        let req = Request::Sync { master_id: MasterId(1) };
        let env = RpcEnvelope { corr_id: 42, is_response: false, payload: req.to_bytes() };
        roundtrip(&env);
        let back = Request::from_bytes(&env.payload).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::from_bytes(&[200]).is_err());
        assert!(Response::from_bytes(&[200]).is_err());
    }

    #[test]
    fn retired_tags_rejected() {
        // A well-formed old body behind a retired tag must not decode.
        let probe = Request::Sync { master_id: MasterId(3) }.to_bytes()[1..].to_vec();
        let flag = vec![1u8];
        // Tag 22 carried the consensus tunnel: one length-prefixed payload.
        let tunnel = b("raft-bytes").to_bytes().to_vec();
        for (tag, body) in [(4u8, &probe), (11, &probe), (22, &tunnel)] {
            let frame = [&[tag][..], body].concat();
            assert!(
                matches!(
                    Request::from_bytes(&frame),
                    Err(DecodeError::InvalidTag { ty: "Request", tag: t }) if t == tag
                ),
                "request tag {tag} is retired"
            );
        }
        for (tag, body) in [(7u8, &flag), (14, &flag), (22, &tunnel)] {
            let frame = [&[tag][..], body].concat();
            assert!(
                matches!(
                    Response::from_bytes(&frame),
                    Err(DecodeError::InvalidTag { ty: "Response", tag: t }) if t == tag
                ),
                "response tag {tag} is retired"
            );
        }
    }

    #[test]
    fn nested_batches_rejected() {
        let req = Request::Batch { requests: vec![Request::Batch { requests: vec![] }] };
        assert!(Request::from_bytes(&req.to_bytes()).is_err());
        let rsp = Response::Batch { responses: vec![Response::Batch { responses: vec![] }] };
        assert!(Response::from_bytes(&rsp.to_bytes()).is_err());
    }

    #[test]
    fn batch_keeps_per_op_footprints() {
        // The batch frame must not collapse footprints: each WitnessRecord
        // inside a batch round-trips with its own key hashes.
        let a = recorded();
        let mut b2 = recorded();
        b2.rpc_id = rid(1, 6);
        b2.key_hashes = vec![KeyHash(33)].into();
        let req = Request::Batch {
            requests: vec![
                Request::WitnessRecord { request: a.clone() },
                Request::WitnessRecord { request: b2.clone() },
            ],
        };
        let back = Request::from_bytes(&req.to_bytes()).unwrap();
        let Request::Batch { requests } = back else { panic!("not a batch") };
        assert_eq!(requests[0], Request::WitnessRecord { request: a });
        assert_eq!(requests[1], Request::WitnessRecord { request: b2 });
    }

    #[test]
    fn truncated_messages_rejected() {
        for r in sample_requests() {
            let bytes = r.to_bytes();
            for cut in 0..bytes.len() {
                assert!(Request::from_bytes(&bytes[..cut]).is_err(), "{r:?} cut={cut}");
            }
        }
    }
}
