//! Property tests for the witness invariant at the heart of CURP's safety
//! argument (§3.4): *everything a witness stores is pairwise commutative*,
//! under arbitrary interleavings of record and gc operations.

use bytes::Bytes;
use curp_proto::message::RecordedRequest;
use curp_proto::op::Op;
use curp_proto::types::{ClientId, MasterId, RpcId};
use curp_witness::{CacheConfig, RecordOutcome, WitnessCache};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Action {
    /// Record a single-key put on key index `k`.
    Record { k: u8, client: u64 },
    /// Record a multi-key put on key indices `ks`.
    RecordMulti { ks: Vec<u8>, client: u64 },
    /// Gc the `i`-th accepted-and-not-yet-collected request.
    Gc { i: usize },
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u8>(), 1..20u64).prop_map(|(k, client)| Action::Record { k, client }),
        (prop::collection::vec(any::<u8>(), 1..4), 1..20u64)
            .prop_map(|(ks, client)| Action::RecordMulti { ks, client }),
        (0..16usize).prop_map(|i| Action::Gc { i }),
    ]
}

fn make_request(keys: &[u8], client: u64, seq: u64) -> RecordedRequest {
    let op = if keys.len() == 1 {
        Op::Put { key: Bytes::from(format!("key-{}", keys[0])), value: Bytes::from_static(b"v") }
    } else {
        Op::MultiPut {
            kvs: keys
                .iter()
                .map(|k| (Bytes::from(format!("key-{k}")), Bytes::from_static(b"v")))
                .collect(),
        }
    };
    RecordedRequest {
        master_id: MasterId(1),
        rpc_id: RpcId::new(ClientId(client), seq),
        key_hashes: op.key_hashes(),
        op,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stored_requests_are_always_pairwise_commutative(
        actions in prop::collection::vec(arb_action(), 1..80),
        slots in prop_oneof![Just(64usize), Just(256), Just(4096)],
        assoc in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let mut cache = WitnessCache::new(CacheConfig {
            total_slots: slots,
            associativity: assoc,
            gc_suspicion_rounds: 3,
        });
        let mut live: Vec<RecordedRequest> = Vec::new();
        let mut seq = 0u64;

        for action in actions {
            match action {
                Action::Record { k, client } => {
                    seq += 1;
                    let r = make_request(&[k], client, seq);
                    if cache.record(r.clone()) == RecordOutcome::Accepted {
                        live.push(r);
                    }
                }
                Action::RecordMulti { ks, client } => {
                    seq += 1;
                    let r = make_request(&ks, client, seq);
                    if cache.record(r.clone()) == RecordOutcome::Accepted {
                        live.push(r);
                    }
                }
                Action::Gc { i } => {
                    if !live.is_empty() {
                        let r = live.remove(i % live.len());
                        let pairs: Vec<_> =
                            r.key_hashes.iter().map(|&kh| (kh, r.rpc_id)).collect();
                        cache.gc(&pairs);
                    }
                }
            }

            // Invariant 1: stored set == our model of accepted-minus-gc'd.
            let mut stored = cache.all_requests();
            stored.sort_by_key(|r| r.rpc_id);
            let mut expect = live.clone();
            expect.sort_by_key(|r| r.rpc_id);
            prop_assert_eq!(&stored, &expect);

            // Invariant 2: pairwise commutativity of everything stored.
            for (i, a) in stored.iter().enumerate() {
                for b in &stored[i + 1..] {
                    prop_assert!(
                        a.op.commutes_with(&b.op),
                        "witness stored non-commutative requests {:?} and {:?}",
                        a.rpc_id,
                        b.rpc_id
                    );
                }
            }
        }
    }

    #[test]
    fn occupancy_never_exceeds_capacity(
        keys in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let mut cache = WitnessCache::new(CacheConfig {
            total_slots: 32,
            associativity: 4,
            gc_suspicion_rounds: 3,
        });
        for (i, k) in keys.iter().enumerate() {
            let _ = cache.record(make_request(&[*k], 1, i as u64 + 1));
            prop_assert!(cache.occupied_slots() <= 32);
        }
    }
}
