//! Crash-mid-append properties for the witness journal.
//!
//! 1. Truncating a journal at **every** byte offset replays a clean prefix:
//!    `JournaledWitness::open` never panics or errors (a tear is not
//!    corruption), and the restored instance holds exactly the records
//!    whose journal frames survived complete — no phantom record ever
//!    appears from a half-written frame.
//! 2. Freezing is irreversible across *two* restarts: an instance that
//!    entered recovery mode before a power loss must come back frozen, stay
//!    frozen through another loss, and still serve its recovery data —
//!    otherwise a thawed witness could accept records that recovery will
//!    never replay (§4.6).

use bytes::Bytes;
use curp_proto::frame::FrameDecoder;
use curp_proto::message::{RecordedRequest, Request, Response};
use curp_proto::op::Op;
use curp_proto::types::{ClientId, MasterId, RpcId};
use curp_storage::TempDir;
use curp_witness::cache::CacheConfig;
use curp_witness::JournaledWitness;
use proptest::prelude::*;

const M: MasterId = MasterId(1);

fn req(key: Vec<u8>, seq: u64) -> RecordedRequest {
    let op = Op::Put { key: Bytes::from(key), value: Bytes::from_static(b"v") };
    RecordedRequest {
        master_id: M,
        rpc_id: RpcId::new(ClientId(1), seq),
        key_hashes: op.key_hashes(),
        op,
    }
}

/// Number of complete frames within the first `cut` bytes of `raw`.
fn complete_frames(raw: &[u8], cut: usize) -> usize {
    let mut decoder = FrameDecoder::new();
    decoder.push(&raw[..cut]);
    let mut frames = 0;
    while let Ok(Some(_)) = decoder.next_frame() {
        frames += 1;
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every byte-offset truncation replays cleanly: the surviving record
    /// count equals the number of complete record frames (frame 0 is the
    /// `start` mutation), and a record that conflicts with a survivor is
    /// still rejected — the commutativity state really was rebuilt.
    #[test]
    fn every_truncation_offset_replays_a_clean_prefix(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..24), 1..5)
    ) {
        let dir = TempDir::new("curp-proptest-journal").unwrap();
        let path = dir.path().join("journal");
        // Distinct keys so records commute and every one is accepted.
        let mut distinct = keys;
        for (i, k) in distinct.iter_mut().enumerate() {
            k.push(i as u8);
        }
        {
            let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
            w.handle_request(&Request::WitnessStart { master_id: M });
            for (i, k) in distinct.iter().enumerate() {
                let rsp = w.handle_request(&Request::WitnessRecord {
                    request: req(k.clone(), i as u64 + 1),
                });
                prop_assert_eq!(rsp, Response::RecordAccepted);
            }
        }
        let raw = std::fs::read(&path).unwrap();
        for cut in 0..=raw.len() {
            std::fs::write(&path, &raw[..cut]).unwrap();
            let w = JournaledWitness::open(CacheConfig::default(), &path)
                .unwrap_or_else(|e| panic!("cut at {cut}/{} must replay: {e}", raw.len()));
            let frames = complete_frames(&raw, cut);
            let expect_records = frames.saturating_sub(1); // minus the start frame
            prop_assert_eq!(
                w.service().occupancy(M), expect_records,
                "cut {} of {}", cut, raw.len()
            );
            if expect_records >= 1 {
                // Same key, different rpc: must conflict with the survivor.
                let rsp = w.handle_request(&Request::WitnessRecord {
                    request: req(distinct[0].clone(), 999),
                });
                prop_assert_eq!(rsp, Response::RecordRejected);
            }
        }
    }
}

#[test]
fn frozen_instance_stays_frozen_across_two_restarts() {
    let dir = TempDir::new("curp-proptest-journal").unwrap();
    let path = dir.path().join("journal");
    {
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        w.handle_request(&Request::WitnessStart { master_id: M });
        w.handle_request(&Request::WitnessRecord { request: req(b"k".to_vec(), 1) });
        // Recovery begins: the instance freezes, and the freeze is journaled.
        match w.handle_request(&Request::WitnessGetRecoveryData { master_id: M }) {
            Response::RecoveryData { requests } => assert_eq!(requests.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }
    for restart in 1..=2 {
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        assert!(w.service().is_recovering(M), "thawed after restart {restart}");
        assert_eq!(
            w.handle_request(&Request::WitnessRecord { request: req(b"other".to_vec(), 9) }),
            Response::RecordRejected,
            "frozen instance accepted a record after restart {restart}"
        );
        // The recovery data survives both restarts intact.
        match w.handle_request(&Request::WitnessGetRecoveryData { master_id: M }) {
            Response::RecoveryData { requests } => assert_eq!(requests.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn records_journaled_after_a_torn_restart_survive_the_next_restart() {
    let dir = TempDir::new("curp-proptest-journal").unwrap();
    let path = dir.path().join("journal");
    {
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        w.handle_request(&Request::WitnessStart { master_id: M });
        w.handle_request(&Request::WitnessRecord { request: req(b"a".to_vec(), 1) });
        w.handle_request(&Request::WitnessRecord { request: req(b"b".to_vec(), 2) });
    }
    // Power loss mid-append of a third record: tear the final frame.
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);
    {
        // The reopen must CUT the torn bytes, not merely skip them — new
        // records are appended behind them otherwise, hidden by the tear's
        // stale length prefix.
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        assert_eq!(w.service().occupancy(M), 1, "torn second record dropped");
        assert_eq!(
            w.handle_request(&Request::WitnessRecord { request: req(b"c".to_vec(), 3) }),
            Response::RecordAccepted
        );
    }
    let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
    assert_eq!(w.service().occupancy(M), 2, "record journaled after the tear was lost");
    // Both survivors still enforce commutativity.
    for key in [b"a".to_vec(), b"c".to_vec()] {
        assert_eq!(
            w.handle_request(&Request::WitnessRecord { request: req(key, 9) }),
            Response::RecordRejected
        );
    }
}

#[test]
fn mid_journal_corruption_fails_the_open() {
    let dir = TempDir::new("curp-proptest-journal").unwrap();
    let path = dir.path().join("journal");
    {
        let w = JournaledWitness::open(CacheConfig::default(), &path).unwrap();
        w.handle_request(&Request::WitnessStart { master_id: M });
        for i in 1..=3u64 {
            w.handle_request(&Request::WitnessRecord {
                request: req(format!("k{i}").into_bytes(), i),
            });
        }
    }
    // Corrupt the first record frame's JournalOp tag (right after the start
    // frame): complete frames follow, so this is not a torn tail.
    let raw = std::fs::read(&path).unwrap();
    let mut decoder = FrameDecoder::new();
    decoder.push(&raw);
    let start_frame = decoder.next_frame().unwrap().unwrap();
    let tag_offset = 4 + start_frame.len() + 4; // start frame + next length prefix
    let mut bad = raw.clone();
    bad[tag_offset] = 0xEE; // invalid JournalOp tag
    std::fs::write(&path, &bad).unwrap();
    let err = match JournaledWitness::open(CacheConfig::default(), &path) {
        Err(e) => e,
        Ok(_) => panic!("mid-journal corruption must fail the open"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}
