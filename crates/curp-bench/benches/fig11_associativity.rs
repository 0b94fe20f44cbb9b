//! Figure 11 (§B.1): expected records until a witness-cache collision, as a
//! function of slot count and associativity.
//!
//! The paper's simulation: insert random keys until the cache rejects for
//! lack of space, average over trials. With 4096 direct-mapped slots the
//! first false conflict lands after ~80 insertions; 4-way associativity
//! pushes it past 1000 — "introducing associativity reduces the chance of
//! collisions significantly" and is why witnesses use a 4-way cache.

use bytes::Bytes;
use curp_bench::{figure_header, print_series};
use curp_proto::message::RecordedRequest;
use curp_proto::op::Op;
use curp_proto::types::{ClientId, MasterId, RpcId};
use curp_witness::{CacheConfig, RecordOutcome, WitnessCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TRIALS: usize = 2_000; // paper: 10_000
const SLOT_COUNTS: &[usize] = &[512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 4608];

fn records_until_collision(total_slots: usize, associativity: usize, rng: &mut StdRng) -> usize {
    let mut cache =
        WitnessCache::new(CacheConfig { total_slots, associativity, gc_suspicion_rounds: 3 });
    let mut n = 0;
    loop {
        let key: u64 = rng.gen();
        let op = Op::Put {
            key: Bytes::from(key.to_le_bytes().to_vec()),
            value: Bytes::from_static(b"v"),
        };
        let req = RecordedRequest {
            master_id: MasterId(1),
            rpc_id: RpcId::new(ClientId(1), n as u64 + 1),
            key_hashes: op.key_hashes(),
            op,
        };
        match cache.record(req) {
            RecordOutcome::Accepted => n += 1,
            // Both count as the first collision: a random fresh key that the
            // cache could not take.
            RecordOutcome::SetFull | RecordOutcome::ConflictingKey => return n,
            RecordOutcome::Collected => unreachable!("this cache never runs a gc"),
        }
    }
}

fn main() {
    curp_bench::ignore_bench_args();
    figure_header(
        "Figure 11",
        "expected records until collision vs total slots, by associativity",
        &[
            "direct-mapped @4096 slots: collision after ~80 records",
            "4-way associativity defers collisions by >10x; 8-way only marginally better",
        ],
    );
    for assoc in [1usize, 2, 4, 8] {
        let mut rng = StdRng::seed_from_u64(0x000F_1611 + assoc as u64);
        let points: Vec<(f64, f64)> = SLOT_COUNTS
            .iter()
            .map(|&slots| {
                let mean: f64 = (0..TRIALS)
                    .map(|_| records_until_collision(slots, assoc, &mut rng) as f64)
                    .sum::<f64>()
                    / TRIALS as f64;
                (slots as f64, mean)
            })
            .collect();
        let name = match assoc {
            1 => "direct_mapped".to_string(),
            a => format!("{a}way"),
        };
        print_series(&name, &points);
    }
}
