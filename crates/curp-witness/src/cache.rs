//! The set-associative witness request cache (§4.2, §B.1).
//!
//! Recording is "similar to inserting in a set-associative cache": the key
//! hash selects a set, the request is written into a free slot of that set,
//! and the record is rejected if the set already holds a request on the same
//! key (non-commutative) or has no free slot (false conflict). Multi-object
//! operations occupy one slot per touched key and must pass the check for
//! every key (§4.2).
//!
//! §B.1 motivates the associativity: a direct-mapped table of 4096 slots
//! sees a false conflict after ~80 insertions; 4-way associativity pushes
//! that far out. Figure 11 regenerates that simulation using this exact
//! implementation.

use std::collections::HashSet;
use std::sync::Arc;

use curp_proto::footprint::InlineVec;
use curp_proto::message::RecordedRequest;
use curp_proto::types::{KeyHash, RpcId};

/// Sizing of a witness cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total slot count (must be a multiple of `associativity`).
    /// The paper's witnesses allocate 4096 slots per master (§5.2).
    pub total_slots: usize,
    /// Slots per set: 1 = direct-mapped, 4 = the paper's choice (§B.1).
    pub associativity: usize,
    /// A record that survives this many gc rounds after a rejection pointed
    /// at it is reported as suspected uncollected garbage (§4.5 suggests 3).
    pub gc_suspicion_rounds: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { total_slots: 4096, associativity: 4, gc_suspicion_rounds: 3 }
    }
}

/// Why a record was rejected (internal detail; the wire response only says
/// accepted/rejected, but tests and metrics want the reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOutcome {
    /// Stored in every relevant set.
    Accepted,
    /// A stored request touches one of the same keys: not commutative.
    ConflictingKey,
    /// A needed set had no free slot (false conflict, §B.1).
    SetFull,
}

#[derive(Debug, Clone)]
struct Slot {
    key_hash: KeyHash,
    rpc_id: RpcId,
    /// Shared so a multi-key request is stored once, referenced n times.
    request: Arc<RecordedRequest>,
    /// Gc round in which this slot was written.
    recorded_round: u64,
}

/// The cache proper. Not thread-safe; the owning service serializes access
/// (witness servers are single-threaded in the paper, §5.2).
#[derive(Debug)]
pub struct WitnessCache {
    config: CacheConfig,
    num_sets: usize,
    /// `num_sets * associativity` slots, set-major.
    slots: Vec<Option<Slot>>,
    /// Monotonic count of gc RPCs processed (the "rounds" of §4.5).
    gc_round: u64,
    /// Requests suspected to be uncollected garbage, drained by the next gc
    /// response (§4.5), in first-suspected order.
    suspects: Vec<Arc<RecordedRequest>>,
    /// Rpc ids present in `suspects` — O(1) duplicate suppression (a hot
    /// conflicting key can re-suspect the same stuck record on every
    /// rejection between two gc rounds).
    suspect_ids: HashSet<RpcId>,
    occupied: usize,
}

impl WitnessCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if `total_slots` is zero or not a multiple of `associativity`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.total_slots > 0 && config.associativity > 0);
        assert_eq!(
            config.total_slots % config.associativity,
            0,
            "total_slots must be a multiple of associativity"
        );
        let num_sets = config.total_slots / config.associativity;
        WitnessCache {
            config,
            num_sets,
            slots: vec![None; config.total_slots],
            gc_round: 0,
            suspects: Vec::new(),
            suspect_ids: HashSet::new(),
            occupied: 0,
        }
    }

    /// The sizing this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of occupied slots.
    pub fn occupied_slots(&self) -> usize {
        self.occupied
    }

    /// Approximate memory footprint, using the paper's 2 KB-per-slot storage
    /// layout (§5.2: 4096 slots × 2 KB ≈ 9 MB with metadata).
    pub fn memory_bytes(&self) -> usize {
        const SLOT_STORAGE: usize = 2048;
        self.config.total_slots * (SLOT_STORAGE + std::mem::size_of::<Option<Slot>>())
    }

    fn set_range(&self, h: KeyHash) -> std::ops::Range<usize> {
        let set = (h.0 as usize) % self.num_sets;
        let start = set * self.config.associativity;
        start..start + self.config.associativity
    }

    /// Scans `kh`'s set for the §4.2 admission check. Returns the free slot
    /// to claim, or the rejection outcome. `taken` holds slots already
    /// claimed by earlier keys of the same multi-key request, so two keys
    /// mapping to one set each get their own slot.
    ///
    /// A conflict with a record that has lingered through several gc rounds
    /// reports it as suspected uncollected garbage (§4.5).
    fn find_free_slot(&mut self, kh: KeyHash, taken: &[usize]) -> Result<usize, RecordOutcome> {
        let mut free = None;
        for idx in self.set_range(kh) {
            match &self.slots[idx] {
                Some(slot) if slot.key_hash == kh => {
                    let suspect = (self.gc_round.saturating_sub(slot.recorded_round)
                        >= self.config.gc_suspicion_rounds)
                        .then(|| Arc::clone(&slot.request));
                    if let Some(req) = suspect {
                        self.add_suspect(req);
                    }
                    return Err(RecordOutcome::ConflictingKey);
                }
                Some(_) => {}
                None if free.is_none() && !taken.contains(&idx) => free = Some(idx),
                None => {}
            }
        }
        free.ok_or(RecordOutcome::SetFull)
    }

    fn add_suspect(&mut self, req: Arc<RecordedRequest>) {
        if self.suspect_ids.insert(req.rpc_id) {
            self.suspects.push(req);
        }
    }

    fn commit_slot(&mut self, idx: usize, kh: KeyHash, request: &Arc<RecordedRequest>) {
        self.slots[idx] = Some(Slot {
            key_hash: kh,
            rpc_id: request.rpc_id,
            request: Arc::clone(request),
            recorded_round: self.gc_round,
        });
        self.occupied += 1;
    }

    /// Attempts to record `request`. All-or-nothing: either every touched
    /// key gets a slot or nothing is written.
    ///
    /// Validation runs *before* the shared [`Arc`] is allocated, so a
    /// rejection — the answer the witness gives for every conflicting or
    /// false-conflicting record — performs no heap allocation at all.
    /// Single-key requests (everything but `MultiPut`) also skip the
    /// claimed-slot bookkeeping entirely.
    pub fn record(&mut self, request: RecordedRequest) -> RecordOutcome {
        if let [kh] = *request.key_hashes.as_slice() {
            // Single-key fast path: one set probe, then commit.
            match self.find_free_slot(kh, &[]) {
                Ok(idx) => {
                    let request = Arc::new(request);
                    self.commit_slot(idx, kh, &request);
                    RecordOutcome::Accepted
                }
                Err(outcome) => outcome,
            }
        } else {
            // Multi-key: claim a slot per key (inline bookkeeping for up to
            // four keys), then commit all-or-nothing.
            let mut chosen: InlineVec<usize, 4> = InlineVec::new();
            for &kh in &request.key_hashes {
                match self.find_free_slot(kh, &chosen) {
                    Ok(idx) => chosen.push(idx),
                    Err(outcome) => return outcome,
                }
            }
            let request = Arc::new(request);
            for (&kh, &idx) in request.key_hashes.iter().zip(chosen.iter()) {
                self.commit_slot(idx, kh, &request);
            }
            RecordOutcome::Accepted
        }
    }

    /// Frees the slots named by `(key_hash, rpc_id)` pairs; unknown pairs are
    /// ignored ("the record RPCs might have been rejected", §4.5). Counts as
    /// one gc round and returns any suspected uncollected garbage.
    pub fn gc(&mut self, entries: &[(KeyHash, RpcId)]) -> Vec<RecordedRequest> {
        self.gc_round += 1;
        for &(kh, rpc_id) in entries {
            for idx in self.set_range(kh) {
                let matches = matches!(
                    &self.slots[idx],
                    Some(slot) if slot.key_hash == kh && slot.rpc_id == rpc_id
                );
                if matches {
                    self.slots[idx] = None;
                    self.occupied -= 1;
                }
            }
        }
        // Drop suspects that the gc we just applied actually collected. The
        // suspect list empties on every gc round, so the id set does too.
        // Collected ids are deduped into a set first: the filter was
        // O(suspects × entries), which a big sync batch turned quadratic.
        self.suspect_ids.clear();
        if self.suspects.is_empty() {
            return Vec::new();
        }
        let collected: HashSet<RpcId> = entries.iter().map(|&(_, rid)| rid).collect();
        self.suspects
            .drain(..)
            .filter(|s| !collected.contains(&s.rpc_id))
            .map(|s| (*s).clone())
            .collect()
    }

    /// All distinct requests currently stored (recovery data, §4.6).
    /// Multi-key requests are deduplicated by rpc id.
    pub fn all_requests(&self) -> Vec<RecordedRequest> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for slot in self.slots.iter().flatten() {
            if seen.insert(slot.rpc_id) {
                out.push((*slot.request).clone());
            }
        }
        out
    }

    /// Clears everything (used when a master resets its witnesses after a
    /// migration sync, §3.6).
    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.occupied = 0;
        self.suspects.clear();
        self.suspect_ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use curp_proto::op::Op;
    use curp_proto::types::{ClientId, MasterId};

    fn req(key: &str, client: u64, seq: u64) -> RecordedRequest {
        let k = Bytes::copy_from_slice(key.as_bytes());
        let op = Op::Put { key: k, value: Bytes::from_static(b"v") };
        RecordedRequest {
            master_id: MasterId(1),
            rpc_id: RpcId::new(ClientId(client), seq),
            key_hashes: op.key_hashes(),
            op,
        }
    }

    fn multi_req(keys: &[&str], client: u64, seq: u64) -> RecordedRequest {
        let kvs: Vec<(Bytes, Bytes)> = keys
            .iter()
            .map(|k| (Bytes::copy_from_slice(k.as_bytes()), Bytes::from_static(b"v")))
            .collect();
        let op = Op::MultiPut { kvs };
        RecordedRequest {
            master_id: MasterId(1),
            rpc_id: RpcId::new(ClientId(client), seq),
            key_hashes: op.key_hashes(),
            op,
        }
    }

    fn cache() -> WitnessCache {
        WitnessCache::new(CacheConfig::default())
    }

    #[test]
    fn accepts_commutative_rejects_conflicting() {
        let mut c = cache();
        assert_eq!(c.record(req("x", 1, 1)), RecordOutcome::Accepted);
        // Same key, different client: "x <- 1" then "x <- 5" (§3.2.2).
        assert_eq!(c.record(req("x", 2, 1)), RecordOutcome::ConflictingKey);
        // Different key commutes.
        assert_eq!(c.record(req("y", 2, 2)), RecordOutcome::Accepted);
        assert_eq!(c.occupied_slots(), 2);
    }

    #[test]
    fn gc_frees_and_allows_rerecord() {
        let mut c = cache();
        let r = req("x", 1, 1);
        let kh = r.key_hashes[0];
        c.record(r);
        assert!(c.gc(&[(kh, RpcId::new(ClientId(1), 1))]).is_empty());
        assert_eq!(c.occupied_slots(), 0);
        assert_eq!(c.record(req("x", 2, 2)), RecordOutcome::Accepted);
    }

    #[test]
    fn gc_of_unknown_pair_is_ignored() {
        let mut c = cache();
        c.record(req("x", 1, 1));
        let ghost = req("zzz", 9, 9);
        c.gc(&[(ghost.key_hashes[0], ghost.rpc_id)]);
        assert_eq!(c.occupied_slots(), 1);
    }

    #[test]
    fn gc_requires_matching_rpc_id() {
        let mut c = cache();
        let r = req("x", 1, 1);
        let kh = r.key_hashes[0];
        c.record(r);
        // Same key but wrong rpc id: must not free (a *newer* record on the
        // same key may exist after the gc'd one was collected).
        c.gc(&[(kh, RpcId::new(ClientId(1), 99))]);
        assert_eq!(c.occupied_slots(), 1);
    }

    #[test]
    fn multikey_occupies_one_slot_per_key() {
        let mut c = cache();
        assert_eq!(c.record(multi_req(&["a", "b", "c"], 1, 1)), RecordOutcome::Accepted);
        assert_eq!(c.occupied_slots(), 3);
        // Any overlapping key conflicts.
        assert_eq!(c.record(req("b", 2, 1)), RecordOutcome::ConflictingKey);
        // Recovery data deduplicates the request.
        assert_eq!(c.all_requests().len(), 1);
    }

    #[test]
    fn multikey_rejection_leaves_nothing_behind() {
        let mut c = cache();
        c.record(req("b", 1, 1));
        // a commutes, b conflicts -> whole record rejected, a not stored.
        assert_eq!(c.record(multi_req(&["a", "b"], 2, 1)), RecordOutcome::ConflictingKey);
        assert_eq!(c.occupied_slots(), 1);
        assert_eq!(c.record(req("a", 3, 1)), RecordOutcome::Accepted);
    }

    #[test]
    fn direct_mapped_set_fills_up() {
        // 4 slots, direct-mapped: the 5th distinct key must collide with one
        // of the 4 sets even though all keys differ.
        let mut c = WitnessCache::new(CacheConfig {
            total_slots: 4,
            associativity: 1,
            gc_suspicion_rounds: 3,
        });
        let mut rejected = false;
        for i in 0..5 {
            if c.record(req(&format!("key-{i}"), 1, i + 1)) == RecordOutcome::SetFull {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "pigeonhole: 5 keys cannot fit 4 direct-mapped sets");
    }

    #[test]
    fn associativity_absorbs_set_collisions() {
        // Same capacity, 4-way: any 4 keys fit regardless of mapping.
        let mut c = WitnessCache::new(CacheConfig {
            total_slots: 4,
            associativity: 4,
            gc_suspicion_rounds: 3,
        });
        for i in 0..4 {
            assert_eq!(c.record(req(&format!("key-{i}"), 1, i + 1)), RecordOutcome::Accepted);
        }
        assert_eq!(c.record(req("key-4", 1, 9)), RecordOutcome::SetFull);
    }

    #[test]
    fn suspicion_after_repeated_gc_rounds() {
        let mut c = cache();
        let stuck = req("x", 1, 1);
        let kh = stuck.key_hashes[0];
        c.record(stuck.clone());
        // Three gc rounds pass without collecting the record.
        for _ in 0..3 {
            assert!(c.gc(&[]).is_empty());
        }
        // A rejection against it flags it as suspected garbage...
        assert_eq!(c.record(req("x", 2, 5)), RecordOutcome::ConflictingKey);
        // ...which the next gc response carries to the master.
        let suspects = c.gc(&[]);
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].rpc_id, stuck.rpc_id);
        // Master retries + gc's it; suspicion clears.
        let cleared = c.gc(&[(kh, stuck.rpc_id)]);
        assert!(cleared.is_empty());
        assert_eq!(c.occupied_slots(), 0);
    }

    #[test]
    fn repeated_rejections_suspect_once() {
        // A hot conflicting key re-suspects the same stuck record on every
        // rejection; the id set must collapse them to one report.
        let mut c = cache();
        let stuck = req("x", 1, 1);
        c.record(stuck.clone());
        for _ in 0..3 {
            assert!(c.gc(&[]).is_empty());
        }
        for seq in 10..20 {
            assert_eq!(c.record(req("x", 2, seq)), RecordOutcome::ConflictingKey);
        }
        let suspects = c.gc(&[]);
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].rpc_id, stuck.rpc_id);
        // The drain cleared the id set: a fresh rejection re-reports.
        assert_eq!(c.record(req("x", 2, 99)), RecordOutcome::ConflictingKey);
        assert_eq!(c.gc(&[]).len(), 1);
    }

    #[test]
    fn young_records_are_not_suspected() {
        let mut c = cache();
        c.record(req("x", 1, 1));
        assert_eq!(c.record(req("x", 2, 1)), RecordOutcome::ConflictingKey);
        assert!(c.gc(&[]).is_empty(), "record is too young to suspect");
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = cache();
        c.record(multi_req(&["a", "b"], 1, 1));
        c.reset();
        assert_eq!(c.occupied_slots(), 0);
        assert!(c.all_requests().is_empty());
        assert_eq!(c.record(req("a", 1, 2)), RecordOutcome::Accepted);
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn bad_geometry_panics() {
        WitnessCache::new(CacheConfig {
            total_slots: 10,
            associativity: 4,
            gc_suspicion_rounds: 3,
        });
    }

    #[test]
    fn memory_accounting_matches_paper_scale() {
        let c = cache();
        let mb = c.memory_bytes() as f64 / (1024.0 * 1024.0);
        // §5.2: "total memory overhead per master-witness pair is around 9MB".
        assert!(mb > 8.0 && mb < 10.0, "got {mb:.1} MB");
    }
}
