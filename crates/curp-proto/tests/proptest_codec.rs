//! Property-based tests: every message the protocol can construct must
//! round-trip through the wire codec, and the decoder must never panic on
//! arbitrary input.

use bytes::Bytes;
use curp_proto::cluster::{ClusterConfig, HashRange, PartitionConfig};
use curp_proto::message::{LogEntry, RecordedRequest, Request, Response, RpcEnvelope};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{ClientId, Epoch, KeyHash, MasterId, RpcId, ServerId, WitnessListVersion};
use curp_proto::wire::{Decode, Encode};
use proptest::prelude::*;

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from)
}

fn arb_rpc_id() -> impl Strategy<Value = RpcId> {
    (any::<u64>(), any::<u64>()).prop_map(|(c, s)| RpcId::new(ClientId(c), s))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_bytes().prop_map(|key| Op::Get { key }),
        (arb_bytes(), arb_bytes()).prop_map(|(key, value)| Op::Put { key, value }),
        arb_bytes().prop_map(|key| Op::Delete { key }),
        (arb_bytes(), any::<u64>(), arb_bytes()).prop_map(|(key, expected_version, value)| {
            Op::ConditionalPut { key, expected_version, value }
        }),
        prop::collection::vec((arb_bytes(), arb_bytes()), 0..8)
            .prop_map(|kvs| Op::MultiPut { kvs }),
        (arb_bytes(), any::<i64>()).prop_map(|(key, delta)| Op::Incr { key, delta }),
        (arb_bytes(), arb_bytes(), arb_bytes()).prop_map(|(key, field, value)| Op::HSet {
            key,
            field,
            value
        }),
        (arb_bytes(), arb_bytes()).prop_map(|(key, field)| Op::HGet { key, field }),
        (arb_bytes(), arb_bytes()).prop_map(|(key, value)| Op::ListPush { key, value }),
        (arb_bytes(), arb_bytes()).prop_map(|(key, member)| Op::SetAdd { key, member }),
    ]
}

fn arb_result() -> impl Strategy<Value = OpResult> {
    prop_oneof![
        any::<u64>().prop_map(|version| OpResult::Written { version }),
        prop::option::of(arb_bytes()).prop_map(OpResult::Value),
        any::<i64>().prop_map(OpResult::Counter),
        any::<u64>().prop_map(|actual_version| OpResult::ConditionFailed { actual_version }),
        Just(OpResult::WrongType),
    ]
}

fn arb_recorded() -> impl Strategy<Value = RecordedRequest> {
    (any::<u64>(), arb_rpc_id(), prop::collection::vec(any::<u64>(), 0..6), arb_op()).prop_map(
        |(m, rpc_id, hashes, op)| RecordedRequest {
            master_id: MasterId(m),
            rpc_id,
            key_hashes: hashes.into_iter().map(KeyHash).collect(),
            op,
        },
    )
}

fn arb_log_entry() -> impl Strategy<Value = LogEntry> {
    (any::<u64>(), prop::option::of(arb_rpc_id()), arb_op(), arb_result())
        .prop_map(|(seq, rpc_id, op, result)| LogEntry { seq, rpc_id, op, result })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_rpc_id(), any::<u64>(), any::<u64>(), arb_op()).prop_map(|(r, f, w, op)| {
            Request::ClientUpdate {
                rpc_id: r,
                first_incomplete: f,
                witness_list_version: WitnessListVersion(w),
                op,
            }
        }),
        arb_op().prop_map(|op| Request::ClientRead { op }),
        Just(Request::Sync { master_id: MasterId(1) }),
        arb_recorded().prop_map(|request| Request::WitnessRecord { request }),
        (any::<u64>(), prop::collection::vec((any::<u64>(), arb_rpc_id()), 0..6)).prop_map(
            |(m, es)| Request::WitnessGc {
                master_id: MasterId(m),
                entries: es.into_iter().map(|(h, r)| (KeyHash(h), r)).collect(),
            }
        ),
        any::<u64>().prop_map(|m| Request::WitnessGetRecoveryData { master_id: MasterId(m) }),
        any::<u64>().prop_map(|m| Request::WitnessStart { master_id: MasterId(m) }),
        any::<u64>().prop_map(|m| Request::WitnessEnd { master_id: MasterId(m) }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_log_entry(), 0..4),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..4)
        )
            .prop_map(|(m, e, entries, acks)| Request::BackupSync {
                master_id: MasterId(m),
                epoch: Epoch(e),
                entries,
                acks: acks.into_iter().map(|(c, fi)| (ClientId(c), fi)).collect(),
            }),
        any::<u64>().prop_map(|m| Request::BackupFetch { master_id: MasterId(m) }),
        (any::<u64>(), any::<u64>(), any::<u64>(), arb_bytes()).prop_map(|(m, e, n, sn)| {
            Request::BackupInstall {
                master_id: MasterId(m),
                epoch: Epoch(e),
                next_seq: n,
                snapshot: sn,
            }
        }),
        Just(Request::GetConfig),
        Just(Request::AcquireLease),
        any::<u64>().prop_map(|c| Request::RenewLease { client: ClientId(c) }),
    ]
}

fn arb_partition() -> impl Strategy<Value = PartitionConfig> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..4),
        prop::collection::vec(any::<u64>(), 0..4),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(m, ms, bs, ws, v, e, s, en)| PartitionConfig {
            master_id: MasterId(m),
            master: ServerId(ms),
            backups: bs.into_iter().map(ServerId).collect(),
            witnesses: ws.into_iter().map(ServerId).collect(),
            witness_list_version: WitnessListVersion(v),
            epoch: Epoch(e),
            range: HashRange { start: s, end: en },
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (arb_result(), any::<bool>())
            .prop_map(|(result, synced)| Response::Update { result, synced }),
        arb_result().prop_map(|result| Response::Read { result }),
        Just(Response::SyncDone),
        any::<u64>().prop_map(|v| Response::StaleWitnessList { current: WitnessListVersion(v) }),
        Just(Response::NotOwner),
        Just(Response::RecordAccepted),
        Just(Response::RecordRejected),
        prop::collection::vec(arb_recorded(), 0..4).prop_map(|stale| Response::GcDone { stale }),
        prop::collection::vec(arb_recorded(), 0..4)
            .prop_map(|requests| Response::RecoveryData { requests }),
        (any::<bool>(), any::<u64>())
            .prop_map(|(accepted, next_seq)| Response::BackupSynced { accepted, next_seq }),
        (any::<u64>(), arb_bytes())
            .prop_map(|(next_seq, snapshot)| Response::BackupData { next_seq, snapshot }),
        Just(Response::BackupInstalled),
        (prop::collection::vec(arb_partition(), 0..3), any::<u64>()).prop_map(|(p, v)| {
            Response::Config { config: ClusterConfig { partitions: p, version: v } }
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(c, t)| Response::Lease { client: ClientId(c), ttl_ms: t }),
        "[a-z ]{0,32}".prop_map(|reason| Response::Retry { reason }),
    ]
}

proptest! {
    #[test]
    fn op_roundtrip(op in arb_op()) {
        let bytes = op.to_bytes();
        prop_assert_eq!(bytes.len(), op.encoded_len());
        prop_assert_eq!(Op::from_bytes(&bytes).unwrap(), op);
    }

    #[test]
    fn request_roundtrip(req in arb_request()) {
        let bytes = req.to_bytes();
        prop_assert_eq!(bytes.len(), req.encoded_len());
        prop_assert_eq!(Request::from_bytes(&bytes).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(rsp in arb_response()) {
        let bytes = rsp.to_bytes();
        prop_assert_eq!(bytes.len(), rsp.encoded_len());
        prop_assert_eq!(Response::from_bytes(&bytes).unwrap(), rsp);
    }

    #[test]
    fn envelope_roundtrip(corr in any::<u64>(), is_rsp in any::<bool>(), payload in arb_bytes()) {
        let env = RpcEnvelope { corr_id: corr, is_response: is_rsp, payload };
        let bytes = env.to_bytes();
        prop_assert_eq!(bytes.len(), env.encoded_len());
        prop_assert_eq!(RpcEnvelope::from_bytes(&bytes).unwrap(), env);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine as long as we do not panic or loop.
        let _ = Request::from_bytes(&bytes);
        let _ = Response::from_bytes(&bytes);
        let _ = Op::from_bytes(&bytes);
        let _ = RpcEnvelope::from_bytes(&bytes);
    }

    #[test]
    fn commutativity_is_symmetric(a in arb_op(), b in arb_op()) {
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
    }

    #[test]
    fn disjoint_keys_commute(k1 in "[a-m]{1,8}", k2 in "[n-z]{1,8}", v in arb_bytes()) {
        let a = Op::Put { key: Bytes::from(k1), value: v.clone() };
        let b = Op::Put { key: Bytes::from(k2), value: v };
        prop_assert!(a.commutes_with(&b));
    }
}
