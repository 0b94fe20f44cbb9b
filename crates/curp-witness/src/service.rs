//! The witness server: life cycle and RPC dispatch (§4.1, Figure 4).
//!
//! A witness *instance* serves exactly one master and moves through two
//! modes:
//!
//! ```text
//! start(masterId) ──► Normal ──getRecoveryData──► Recovery ──end──► gone
//!                     record/gc                   getRecoveryData only
//! ```
//!
//! The recovery transition is irreversible: once any recovering master has
//! read the witness, accepting further records would let clients complete
//! updates that will never be replayed (§4.6). A [`WitnessService`] hosts
//! one instance per master, so a single server process can serve several
//! partitions (witnesses "can be co-hosted with backups", §3.1).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use curp_proto::lockrank;
use curp_proto::message::{RecordedRequest, Request, Response};
use curp_proto::types::{KeyHash, MasterId, RpcId};
use parking_lot::{Mutex, RwLock};

use crate::cache::{CacheConfig, RecordOutcome, WitnessCache};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Normal,
    Recovery,
}

/// One master's witness instance. Shared (`Arc`) so the instance map lock
/// is held only for the lookup: record/gc traffic for one master never
/// blocks another master's instance. Within an instance, the cache lock
/// serializes record and gc, as the paper's single-threaded witness does
/// (§5.2).
///
/// The mode is behind a read-write lock: records and gcs hold it shared,
/// the irreversible freeze (`getRecoveryData`) takes it exclusively — so a
/// freeze waits out in-flight records and nothing can record after it.
struct Instance {
    cache: Mutex<WitnessCache>,
    mode: RwLock<Mode>,
}

/// Counters for the §5.2 resource-consumption measurements.
#[derive(Debug, Default, Clone, Copy)]
pub struct WitnessCounters {
    /// `record` RPCs accepted.
    pub accepted: u64,
    /// `record` RPCs rejected (any reason).
    pub rejected: u64,
    /// gc RPCs processed.
    pub gcs: u64,
}

/// A witness server hosting one instance per master.
pub struct WitnessService {
    config: CacheConfig,
    instances: Mutex<HashMap<MasterId, Arc<Instance>>>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    gcs: AtomicU64,
}

impl WitnessService {
    /// Creates a server whose instances use `config` for their caches.
    pub fn new(config: CacheConfig) -> Self {
        WitnessService {
            config,
            instances: Mutex::ranked(
                lockrank::WITNESS_INSTANCES,
                "witness.service.instances",
                HashMap::new(),
            ),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            gcs: AtomicU64::new(0),
        }
    }

    fn instance(&self, master: MasterId) -> Option<Arc<Instance>> {
        self.instances.lock().get(&master).cloned()
    }

    /// `start(masterId)`: creates an instance. Fails if one already exists
    /// for this master (Figure 4: returns FAIL).
    pub fn start(&self, master: MasterId) -> bool {
        let mut instances = self.instances.lock();
        if instances.contains_key(&master) {
            return false;
        }
        instances.insert(
            master,
            Arc::new(Instance {
                cache: Mutex::ranked(
                    lockrank::WITNESS_CACHE,
                    "witness.instance.cache",
                    WitnessCache::new(self.config),
                ),
                mode: RwLock::ranked(lockrank::WITNESS_MODE, "witness.instance.mode", Mode::Normal),
            }),
        );
        true
    }

    /// `record(...)`: accepts iff the instance exists, is in normal mode,
    /// was started for `request.master_id`, and the cache accepts.
    pub fn record(&self, request: RecordedRequest) -> bool {
        let accepted = match self.instance(request.master_id) {
            Some(inst) => {
                let mode = inst.mode.read();
                *mode == Mode::Normal
                    && inst.cache.lock().record(request) == RecordOutcome::Accepted
            }
            // Unknown master: reject (§4.1 — "by accepting only requests
            // for the correct master, CURP prevents clients from recording
            // to incorrect witnesses").
            None => false,
        };
        if accepted {
            self.accepted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        accepted
    }

    /// `gc(...)`: frees collected slots, returns suspected stale requests.
    /// Ignored (empty response) in recovery mode — the data is frozen.
    pub fn gc(&self, master: MasterId, entries: &[(KeyHash, RpcId)]) -> Vec<RecordedRequest> {
        self.gcs.fetch_add(1, Ordering::Relaxed);
        match self.instance(master) {
            Some(inst) => {
                let mode = inst.mode.read();
                if *mode == Mode::Normal {
                    inst.cache.lock().gc(entries)
                } else {
                    Vec::new()
                }
            }
            None => Vec::new(),
        }
    }

    /// `getRecoveryData()`: irreversibly freezes the instance and returns
    /// everything it holds. Unknown instances yield an empty list (the
    /// witness may have been started after the crash). The exclusive mode
    /// lock waits out in-flight records, so the returned data is final.
    pub fn get_recovery_data(&self, master: MasterId) -> Vec<RecordedRequest> {
        match self.instance(master) {
            Some(inst) => {
                let mut mode = inst.mode.write();
                *mode = Mode::Recovery;
                inst.cache.lock().all_requests()
            }
            None => Vec::new(),
        }
    }

    /// `end()`: destroys the instance, freeing its slots for a new life.
    /// A straggler still holding the instance handle sees it frozen, so no
    /// record can slip in after the destruction is observable.
    pub fn end(&self, master: MasterId) {
        // Drop the map lock before freezing: the mode write-lock waits out
        // in-flight records/gcs for *this* master, and holding the map lock
        // through that wait would stall every other master's traffic.
        let removed = self.instances.lock().remove(&master);
        if let Some(inst) = removed {
            *inst.mode.write() = Mode::Recovery;
        }
    }

    /// Whether an instance exists and is frozen (test/diagnostic accessor).
    pub fn is_recovering(&self, master: MasterId) -> bool {
        self.instance(master).map(|i| *i.mode.read() == Mode::Recovery).unwrap_or(false)
    }

    /// Occupied slots for `master`'s instance (diagnostics).
    pub fn occupancy(&self, master: MasterId) -> usize {
        self.instance(master).map(|i| i.cache.lock().occupied_slots()).unwrap_or(0)
    }

    /// Snapshot of the service counters.
    pub fn counters(&self) -> WitnessCounters {
        WitnessCounters {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            gcs: self.gcs.load(Ordering::Relaxed),
        }
    }

    /// Dispatches a witness-directed [`Request`]. Non-witness requests get a
    /// [`Response::Retry`] (the caller addressed the wrong server).
    pub fn handle_request(&self, req: &Request) -> Response {
        match req {
            Request::WitnessStart { master_id } => {
                Response::WitnessStarted { ok: self.start(*master_id) }
            }
            Request::WitnessRecord { request } => {
                if self.record(request.clone()) {
                    Response::RecordAccepted
                } else {
                    Response::RecordRejected
                }
            }
            Request::WitnessGc { master_id, entries } => {
                Response::GcDone { stale: self.gc(*master_id, entries) }
            }
            Request::WitnessGetRecoveryData { master_id } => {
                Response::RecoveryData { requests: self.get_recovery_data(*master_id) }
            }
            Request::WitnessEnd { master_id } => {
                self.end(*master_id);
                Response::WitnessEnded
            }
            _ => Response::Retry { reason: "not a witness request".into() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use curp_proto::op::Op;
    use curp_proto::types::ClientId;

    const M: MasterId = MasterId(1);

    fn req(master: MasterId, key: &str, client: u64, seq: u64) -> RecordedRequest {
        let op = Op::Put {
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::from_static(b"v"),
        };
        RecordedRequest {
            master_id: master,
            rpc_id: RpcId::new(ClientId(client), seq),
            key_hashes: op.key_hashes(),
            op,
        }
    }

    fn service() -> WitnessService {
        let s = WitnessService::new(CacheConfig::default());
        assert!(s.start(M));
        s
    }

    #[test]
    fn lifecycle_start_record_recover_end() {
        let s = service();
        assert!(s.record(req(M, "x", 1, 1)));
        let data = s.get_recovery_data(M);
        assert_eq!(data.len(), 1);
        assert!(s.is_recovering(M));
        // Frozen: no new records.
        assert!(!s.record(req(M, "y", 1, 2)));
        // getRecoveryData is repeatable (another recovery master may retry).
        assert_eq!(s.get_recovery_data(M).len(), 1);
        s.end(M);
        // After end, a new life can begin.
        assert!(s.start(M));
        assert!(s.record(req(M, "y", 1, 3)));
    }

    #[test]
    fn double_start_fails() {
        let s = service();
        assert!(!s.start(M));
    }

    #[test]
    fn records_for_unknown_master_rejected() {
        let s = service();
        assert!(!s.record(req(MasterId(99), "x", 1, 1)));
    }

    #[test]
    fn instances_are_independent() {
        let s = service();
        assert!(s.start(MasterId(2)));
        assert!(s.record(req(M, "x", 1, 1)));
        // Same key for a different master's instance: no conflict.
        assert!(s.record(req(MasterId(2), "x", 2, 1)));
        // Freezing master 2 leaves master 1 live.
        s.get_recovery_data(MasterId(2));
        assert!(s.record(req(M, "y", 1, 2)));
        assert!(!s.record(req(MasterId(2), "y", 2, 2)));
    }

    #[test]
    fn gc_ignored_in_recovery_mode() {
        let s = service();
        let r = req(M, "x", 1, 1);
        let pair = (r.key_hashes[0], r.rpc_id);
        s.record(r);
        s.get_recovery_data(M);
        s.gc(M, &[pair]);
        assert_eq!(s.occupancy(M), 1, "frozen data must not be mutated");
    }

    #[test]
    fn counters_track_outcomes() {
        let s = service();
        s.record(req(M, "x", 1, 1));
        s.record(req(M, "x", 2, 1)); // conflict
        s.gc(M, &[]);
        let c = s.counters();
        assert_eq!((c.accepted, c.rejected, c.gcs), (1, 1, 1));
    }

    #[test]
    fn concurrent_records_on_distinct_keys_all_land() {
        use std::sync::atomic::AtomicUsize;
        // Four real threads share one master's instance: its cache lock
        // must lose no record. Each goes through the instance handle, as
        // `record` does, to see the outcome's reason. Distinct keys never
        // conflict; a rare SetFull (§B.1 false conflict) is legitimate, so
        // count acceptances instead of asserting all 800 land.
        let s = service();
        let accepted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (s, accepted) = (&s, &accepted);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let r = req(M, &format!("t{t}-k{i}"), t + 1, i + 1);
                        match s.instance(M).unwrap().cache.lock().record(r) {
                            RecordOutcome::Accepted => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            RecordOutcome::SetFull => {}
                            RecordOutcome::ConflictingKey => {
                                panic!("distinct keys must never key-conflict")
                            }
                        }
                    }
                });
            }
        });
        let accepted = accepted.load(Ordering::Relaxed);
        assert_eq!(s.occupancy(M), accepted);
        assert!(accepted >= 780, "far too many false conflicts: {accepted}/800");
    }

    #[test]
    fn rpc_dispatch_covers_witness_surface() {
        let s = WitnessService::new(CacheConfig::default());
        assert_eq!(
            s.handle_request(&Request::WitnessStart { master_id: M }),
            Response::WitnessStarted { ok: true }
        );
        assert_eq!(
            s.handle_request(&Request::WitnessRecord { request: req(M, "x", 1, 1) }),
            Response::RecordAccepted
        );
        assert_eq!(
            s.handle_request(&Request::WitnessRecord { request: req(M, "x", 2, 1) }),
            Response::RecordRejected
        );
        assert_eq!(
            s.handle_request(&Request::WitnessGc { master_id: M, entries: vec![] }),
            Response::GcDone { stale: vec![] }
        );
        match s.handle_request(&Request::WitnessGetRecoveryData { master_id: M }) {
            Response::RecoveryData { requests } => assert_eq!(requests.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.handle_request(&Request::WitnessEnd { master_id: M }), Response::WitnessEnded);
        assert!(matches!(
            s.handle_request(&Request::Sync { master_id: MasterId(1) }),
            Response::Retry { .. }
        ));
    }
}
