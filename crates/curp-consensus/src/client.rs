//! The consensus client (§A.2): 1-RTT updates via superquorum witness
//! recording in parallel with the leader command.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use curp_proto::lockrank;
use curp_proto::message::RecordedRequest;
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{ClientId, MasterId, ServerId};
use curp_rifl::RiflSequencer;
use curp_transport::rpc::{join_all, RpcClient};
use parking_lot::Mutex;

use crate::msg::{unwrap_reply, wrap_rpc, ConsensusReply, ConsensusRpc};

/// Path counters.
#[derive(Debug, Default)]
pub struct ConsensusClientStats {
    /// Updates completed in 1 RTT (speculative + superquorum).
    pub fast_path: AtomicU64,
    /// Updates completed because the leader committed synchronously.
    pub committed_path: AtomicU64,
    /// Updates that needed an explicit sync.
    pub explicit_sync: AtomicU64,
}

/// Client errors.
#[derive(Debug)]
pub enum ConsensusError {
    /// Gave up after too many attempts.
    Exhausted(String),
}

impl std::fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsensusError::Exhausted(s) => write!(f, "retries exhausted: {s}"),
        }
    }
}

impl std::error::Error for ConsensusError {}

/// A CURP-consensus client.
pub struct ConsensusClient {
    rpc: Arc<dyn RpcClient>,
    replicas: Vec<ServerId>,
    rifl: Mutex<RiflSequencer>,
    leader_cache: Mutex<Option<(u64, ServerId)>>,
    max_retries: u32,
    retry_backoff: Duration,
    /// Path statistics.
    pub stats: ConsensusClientStats,
}

impl ConsensusClient {
    /// Creates a client over `replicas` (all `2f + 1` of them) with a unique
    /// `client_id` (assigned out of band — the consensus group itself plays
    /// the role of the lease server in a full deployment).
    pub fn new(rpc: Arc<dyn RpcClient>, replicas: Vec<ServerId>, client_id: ClientId) -> Self {
        ConsensusClient {
            rpc,
            replicas,
            rifl: Mutex::ranked(
                lockrank::CONSENSUS_CLIENT_RIFL,
                "consensus.client.rifl",
                RiflSequencer::new(client_id),
            ),
            leader_cache: Mutex::ranked(
                lockrank::CONSENSUS_LEADER_CACHE,
                "consensus.client.leader_cache",
                None,
            ),
            max_retries: 60,
            retry_backoff: Duration::from_millis(20),
            stats: ConsensusClientStats::default(),
        }
    }

    /// `f` for this group (`2f + 1` replicas).
    fn f(&self) -> usize {
        (self.replicas.len() - 1) / 2
    }

    /// The §A.2 superquorum: `f + ⌈f/2⌉ + 1`.
    pub fn superquorum(&self) -> usize {
        let f = self.f();
        f + f.div_ceil(2) + 1
    }

    async fn discover_leader(&self) -> Option<(u64, ServerId)> {
        if let Some(cached) = *self.leader_cache.lock() {
            return Some(cached);
        }
        for &r in &self.replicas {
            if let Ok(rsp) = self.rpc.call(r, wrap_rpc(&ConsensusRpc::WhoLeads)).await {
                if let Some(ConsensusReply::Leader { term, leader: Some(l) }) = unwrap_reply(&rsp) {
                    let found = (term, l);
                    *self.leader_cache.lock() = Some(found);
                    return Some(found);
                }
            }
        }
        None
    }

    fn forget_leader(&self) {
        *self.leader_cache.lock() = None;
    }

    /// Executes a mutation. Durable in the consensus group when it returns.
    pub async fn update(&self, op: Op) -> Result<OpResult, ConsensusError> {
        let rpc_id = self.rifl.lock().next_rpc_id();
        // Once per RPC, reused across retries (DESIGN.md invariant 1).
        let footprint = op.key_hashes();
        let mut last_err = String::new();
        for attempt in 0..self.max_retries {
            if attempt > 0 {
                tokio::time::sleep(self.retry_backoff).await;
            }
            let Some((term, leader)) = self.discover_leader().await else {
                last_err = "no leader".into();
                continue;
            };
            // Leader command + witness records to ALL replicas, in parallel.
            let cmd_fut =
                self.rpc.call(leader, wrap_rpc(&ConsensusRpc::Command { rpc_id, op: op.clone() }));
            let record = RecordedRequest {
                master_id: MasterId(0), // single group; unused in consensus mode
                rpc_id,
                key_hashes: footprint.clone(),
                op: op.clone(),
            };
            let record_futs: Vec<_> = self
                .replicas
                .iter()
                .map(|&r| {
                    self.rpc.call(
                        r,
                        wrap_rpc(&ConsensusRpc::WitnessRecord { term, request: record.clone() }),
                    )
                })
                .collect();
            let (cmd_rsp, rec_rsps) = tokio::join!(cmd_fut, join_all(record_futs));

            let accepted = rec_rsps
                .iter()
                .filter(|r| {
                    matches!(
                        r.as_ref().ok().and_then(unwrap_reply),
                        Some(ConsensusReply::RecordAccepted)
                    )
                })
                .count();

            match cmd_rsp.as_ref().ok().and_then(unwrap_reply) {
                Some(ConsensusReply::Committed { result }) => {
                    self.stats.committed_path.fetch_add(1, Ordering::Relaxed);
                    self.rifl.lock().complete(rpc_id);
                    return Ok(result);
                }
                Some(ConsensusReply::Speculative { result }) => {
                    if accepted >= self.superquorum() {
                        self.stats.fast_path.fetch_add(1, Ordering::Relaxed);
                        self.rifl.lock().complete(rpc_id);
                        return Ok(result);
                    }
                    // Slow path: force a commit.
                    self.stats.explicit_sync.fetch_add(1, Ordering::Relaxed);
                    match self
                        .rpc
                        .call(leader, wrap_rpc(&ConsensusRpc::Sync))
                        .await
                        .as_ref()
                        .ok()
                        .and_then(unwrap_reply)
                    {
                        Some(ConsensusReply::SyncDone) => {
                            self.rifl.lock().complete(rpc_id);
                            return Ok(result);
                        }
                        other => {
                            last_err = format!("sync failed: {other:?}");
                            self.forget_leader();
                        }
                    }
                }
                Some(ConsensusReply::NotLeader { hint }) => {
                    last_err = "not leader".into();
                    *self.leader_cache.lock() = hint.map(|h| (term, h));
                    if hint.is_none() {
                        self.forget_leader();
                    }
                }
                other => {
                    last_err = format!("command failed: {other:?}");
                    self.forget_leader();
                }
            }
        }
        Err(ConsensusError::Exhausted(last_err))
    }

    /// Executes a read at the leader.
    pub async fn read(&self, op: Op) -> Result<OpResult, ConsensusError> {
        assert!(op.is_read_only());
        let mut last_err = String::new();
        for attempt in 0..self.max_retries {
            if attempt > 0 {
                tokio::time::sleep(self.retry_backoff).await;
            }
            let Some((_, leader)) = self.discover_leader().await else {
                last_err = "no leader".into();
                continue;
            };
            match self
                .rpc
                .call(leader, wrap_rpc(&ConsensusRpc::Read { op: op.clone() }))
                .await
                .as_ref()
                .ok()
                .and_then(unwrap_reply)
            {
                Some(ConsensusReply::ReadResult { result }) => return Ok(result),
                other => {
                    last_err = format!("read failed: {other:?}");
                    self.forget_leader();
                }
            }
        }
        Err(ConsensusError::Exhausted(last_err))
    }
}
