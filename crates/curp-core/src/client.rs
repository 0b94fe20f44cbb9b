//! The CURP client (§3.2.1).
//!
//! The protocol is written once, in `CurpClient::attempt`: for a slice of
//! operations routed to one partition it sends the updates to the master
//! *and* their records to all `f` witnesses in parallel (the records are
//! started first), then settles each operation:
//!
//! * the master answered `synced` — durable on backups, done (2 RTT, no
//!   client sync, §3.2.3);
//! * the master answered speculatively and every witness accepted — done in
//!   1 RTT (so is `f = 0`, and the unrecorded *Async* baseline);
//! * otherwise the op joins the one explicit `sync` RPC the attempt's
//!   rejected ops share (2–3 RTT);
//! * the master refused, or no usable answer came back — the op restarts
//!   under the same RIFL id, so a re-execution is filtered.
//!
//! One retry loop, `CurpClient::run`, wraps a one-op attempt in "refresh the
//! configuration (the master may have been recovered elsewhere), back off,
//! restart"; [`CurpClient::update`], [`CurpClient::read`] and every per-op
//! fall-back go through it. [`PipelinedClient`] is the front end that builds
//! longer slices: a window of operations per partition, flushed together.

use std::collections::{HashMap, HashSet};
use std::future::Future;
use std::pin::Pin;
use std::slice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll};
use std::time::Duration;

use curp_proto::cluster::{ClusterConfig, PartitionConfig};
use curp_proto::footprint::Footprint;
use curp_proto::lockrank;
use curp_proto::message::{RecordedRequest, Request, Response};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{MasterId, RpcId, ServerId};
use curp_rifl::RiflSequencer;
use curp_transport::error::RpcError;
use curp_transport::rpc::{join_all, BoxFuture, RpcClient};
use parking_lot::Mutex;
use tokio::sync::{mpsc, oneshot, OwnedSemaphorePermit, Semaphore};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Retries exhausted; carries the last failure description.
    Exhausted(String),
    /// A multi-key operation spanned more than one partition (not routable).
    MultiPartition,
    /// No partition owns the key (mis-configured cluster).
    NoPartition,
    /// The coordinator could not be reached.
    Coordinator(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted(s) => write!(f, "retries exhausted: {s}"),
            ClientError::MultiPartition => write!(f, "operation spans partitions"),
            ClientError::NoPartition => write!(f, "no partition owns the key"),
            ClientError::Coordinator(s) => write!(f, "coordinator error: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Whether to record updates on witnesses (`false` reproduces the
    /// paper's *Async* baseline: masters respond before replication and the
    /// client completes without any durability — Figure 6's "Async (f=3)").
    pub record_witnesses: bool,
    /// Attempts before giving up on an operation.
    pub max_retries: u32,
    /// Base backoff between retries; attempt `n` waits roughly
    /// `retry_backoff * 2^(n-1)`, jittered, capped at `retry_backoff_max`.
    pub retry_backoff: Duration,
    /// Ceiling on the exponential backoff. A draining or recovering master
    /// can be unavailable for many base intervals; without the exponential
    /// ramp every parked client re-sends in lockstep and hammers it the
    /// moment it returns.
    pub retry_backoff_max: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            record_witnesses: true,
            max_retries: 25,
            retry_backoff: Duration::from_millis(10),
            retry_backoff_max: Duration::from_millis(160),
        }
    }
}

/// Bounded exponential backoff for retry `attempt` (1-based), with
/// deterministic jitter in `[b/2, b]` derived from `salt` — callers pass a
/// per-operation value (e.g. the RIFL id) so concurrent clients de-sync
/// without OS randomness, which would break simulator determinism.
fn retry_delay(base: Duration, max: Duration, attempt: u32, salt: u64) -> Duration {
    let b = base.saturating_mul(1u32 << (attempt - 1).min(16)).min(max).max(base);
    // splitmix64 finalizer over (salt, attempt): cheap, well-mixed bits.
    let mut z = salt ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let half = b / 2;
    half + Duration::from_nanos(z % (half.as_nanos().max(1) as u64))
}

/// Path counters (tests, figures).
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Operations completed on the 1-RTT fast path.
    pub fast_path: AtomicU64,
    /// Operations completed because the master synced (2 RTT, no client sync).
    pub synced_by_master: AtomicU64,
    /// Operations that needed an explicit sync RPC (2–3 RTT).
    pub explicit_sync: AtomicU64,
    /// Full operation restarts.
    pub restarts: AtomicU64,
}

struct ClientState {
    config: ClusterConfig,
    rifl: RiflSequencer,
}

/// One operation as an attempt sees it: the RIFL id every restart reuses,
/// and the footprint computed once for routing and the witness record.
#[derive(Clone)]
struct Call {
    rpc_id: RpcId,
    op: Op,
    footprint: Footprint,
}

/// How one operation of an attempt ended.
enum Verdict {
    /// Completed: the result may be externalized.
    Done(OpResult),
    /// The master answered but would not execute: the cached map is stale.
    Refused(String),
    /// No usable answer (transport error, or the shared sync unconfirmed).
    Lost(String),
}

/// The path an executed operation completes on ([`ClientStats`]).
#[derive(Debug, PartialEq)]
enum Path {
    Read,
    /// Durable on backups; witness outcomes are irrelevant (§3.2.3).
    Synced,
    Fast,
    /// Speculative and not on all `f` witnesses: needs the explicit sync.
    Unsynced,
}

/// The §3.2.1 table for one operation: the master's reply, whether every
/// witness accepted its record, the partition's `f`, and whether this
/// client records at all (the *Async* baseline does not, and externalizes
/// without durability). `Err` is the master's refusal.
fn judge(
    master: Response,
    accepted: bool,
    f: usize,
    record_witnesses: bool,
) -> Result<(Path, OpResult), String> {
    match master {
        Response::Read { result } => Ok((Path::Read, result)),
        Response::Update { result, synced: true } => Ok((Path::Synced, result)),
        Response::Update { result, .. } if !record_witnesses || f == 0 || accepted => {
            Ok((Path::Fast, result))
        }
        Response::Update { result, .. } => Ok((Path::Unsynced, result)),
        Response::StaleWitnessList { .. } => Err("stale witness list".into()),
        Response::NotOwner => Err("not owner".into()),
        Response::Retry { reason } => Err(reason),
        other => Err(format!("unexpected: {other:?}")),
    }
}

/// One server's positional answers to an attempt's requests.
type Replies = Result<Vec<Response>, RpcError>;

/// `accepted[j]`: there are witnesses and each accepted record `j`. An
/// unreachable or short-replying witness accepted nothing.
fn accepted_by_all(witnesses: &[Replies], records: usize) -> Vec<bool> {
    let mut accepted = vec![!witnesses.is_empty(); records];
    for w in witnesses {
        let full = w.as_ref().ok().filter(|rsps| rsps.len() == records);
        for (j, a) in accepted.iter_mut().enumerate() {
            *a &= full.is_some_and(|rsps| rsps[j] == Response::RecordAccepted);
        }
    }
    accepted
}

/// A CURP client handle. Cheap to share via `Arc`; all methods take `&self`.
pub struct CurpClient {
    rpc: Arc<dyn RpcClient>,
    coordinator: ServerId,
    cfg: ClientConfig,
    state: Mutex<ClientState>,
    /// Path statistics.
    pub stats: ClientStats,
}

impl CurpClient {
    /// Connects: acquires a RIFL lease and fetches the cluster configuration.
    pub async fn connect(
        rpc: Arc<dyn RpcClient>,
        coordinator: ServerId,
        cfg: ClientConfig,
    ) -> Result<CurpClient, ClientError> {
        let lease = match rpc.call(coordinator, Request::AcquireLease).await {
            Ok(Response::Lease { client, .. }) => client,
            other => return Err(ClientError::Coordinator(format!("{other:?}"))),
        };
        let state =
            ClientState { config: ClusterConfig::default(), rifl: RiflSequencer::new(lease) };
        let client = CurpClient {
            rpc,
            coordinator,
            cfg,
            state: Mutex::ranked(lockrank::CLIENT_STATE, "core.client.state", state),
            stats: ClientStats::default(),
        };
        client.refresh_config().await?;
        Ok(client)
    }

    /// Re-fetches the cluster configuration from the coordinator.
    pub async fn refresh_config(&self) -> Result<(), ClientError> {
        match self.rpc.call(self.coordinator, Request::GetConfig).await {
            Ok(Response::Config { config }) => {
                let mut st = self.state.lock();
                if config.version >= st.config.version {
                    st.config = config;
                }
                Ok(())
            }
            other => Err(ClientError::Coordinator(format!("{other:?}"))),
        }
    }

    /// Renews the client's RIFL lease.
    pub async fn renew_lease(&self) -> Result<(), ClientError> {
        let client = self.state.lock().rifl.client_id();
        match self.rpc.call(self.coordinator, Request::RenewLease { client }).await {
            Ok(Response::Lease { .. }) => Ok(()),
            other => Err(ClientError::Coordinator(format!("{other:?}"))),
        }
    }

    /// Routes an operation by its (precomputed) footprint — the same
    /// hashes later recorded on witnesses, computed once per RPC.
    fn route(&self, footprint: &Footprint) -> Result<PartitionConfig, ClientError> {
        let st = self.state.lock();
        let first = *footprint.first().ok_or(ClientError::NoPartition)?;
        let part = st.config.partition_for(first).ok_or(ClientError::NoPartition)?.clone();
        if !footprint.iter().all(|&h| part.range.contains(h)) {
            return Err(ClientError::MultiPartition);
        }
        Ok(part)
    }

    /// Executes a mutation with CURP's fast path. Linearizable: the result
    /// is durable (f-fault-tolerant) when this returns.
    pub async fn update(&self, op: Op) -> Result<OpResult, ClientError> {
        let footprint = op.key_hashes();
        self.run(&self.new_call(op, footprint)).await
    }

    /// Executes a read-only operation at the partition master (1 RTT).
    pub async fn read(&self, op: Op) -> Result<OpResult, ClientError> {
        assert!(op.is_read_only(), "use update() for mutations");
        self.update(op).await
    }

    /// Assigns `op` its RIFL id. A read's never reaches a server (it keys
    /// the [`Completion`] and salts the backoff), so it is acknowledged at
    /// once and cannot stall the watermark.
    fn new_call(&self, op: Op, footprint: Footprint) -> Call {
        let mut st = self.state.lock();
        let rpc_id = st.rifl.next_rpc_id();
        if op.is_read_only() {
            st.rifl.complete(rpc_id);
        }
        Call { rpc_id, op, footprint }
    }

    /// The one retry loop: route, attempt, and on anything short of
    /// completion refresh the map and restart "the entire process" (§3.2.1)
    /// after a backoff, under the call's RIFL id.
    async fn run(&self, call: &Call) -> Result<OpResult, ClientError> {
        let salt = call.rpc_id.client.0.rotate_left(32) ^ call.rpc_id.seq;
        let mut last_err = String::new();
        for attempt in 0..self.cfg.max_retries {
            if attempt > 0 {
                self.stats.restarts.fetch_add(1, Ordering::Relaxed);
                let (base, max) = (self.cfg.retry_backoff, self.cfg.retry_backoff_max);
                tokio::time::sleep(retry_delay(base, max, attempt, salt)).await;
            }
            let mut verdict = Verdict::Lost(String::new());
            match self.route(&call.footprint) {
                Ok(part) => self.attempt(&part, slice::from_ref(call), |_, v| verdict = v).await,
                // A map fetched before the partition existed, or cut
                // mid-reconfiguration: the refresh below may fix it.
                Err(ClientError::NoPartition) => verdict = Verdict::Lost("no partition".into()),
                Err(e) => return Err(e),
            }
            match verdict {
                Verdict::Done(result) => return Ok(result),
                Verdict::Refused(why) | Verdict::Lost(why) => last_err = why,
            }
            self.refresh_config().await.ok();
        }
        Err(ClientError::Exhausted(last_err))
    }

    /// One §3.2.1 attempt for `calls`, all routed to `part`: the only place
    /// that talks to a master or its witnesses on an operation's behalf.
    ///
    /// `settle(i, verdict)` runs exactly once per call, as soon as its
    /// verdict is known: what the first round trip decides is settled before
    /// the shared sync goes out, so a rejected neighbour delays nobody.
    async fn attempt(
        &self,
        part: &PartitionConfig,
        calls: &[Call],
        mut settle: impl FnMut(usize, Verdict),
    ) {
        let first_incomplete = self.state.lock().rifl.first_incomplete();
        let record = self.cfg.record_witnesses && !part.witnesses.is_empty();
        let mut master_reqs = Vec::with_capacity(calls.len());
        let mut record_reqs = Vec::new();
        for c in calls {
            if c.op.is_read_only() {
                master_reqs.push(Request::ClientRead { op: c.op.clone() });
                continue;
            }
            master_reqs.push(Request::ClientUpdate {
                rpc_id: c.rpc_id,
                first_incomplete,
                witness_list_version: part.witness_list_version,
                op: c.op.clone(),
            });
            if record {
                // Each record carries its own footprint, so witnesses check
                // commutativity per op however many share a frame (§3.2.2).
                record_reqs.push(Request::WitnessRecord {
                    request: RecordedRequest {
                        master_id: part.master_id,
                        rpc_id: c.rpc_id,
                        key_hashes: c.footprint.clone(),
                        op: c.op.clone(),
                    },
                });
            }
        }
        let witnesses = if record_reqs.is_empty() { &[] } else { part.witnesses.as_slice() };
        // Record RPCs go out in parallel with the update (§3.2.1), and
        // ahead of it: the joined sends start in order, so no update is
        // written before its records. A record that reached its witness
        // only after the master had synced and collected the op would be
        // garbage nothing ever collects (§4.5).
        let mut sends: Vec<_> =
            witnesses.iter().map(|&w| self.send(w, record_reqs.clone())).collect();
        sends.push(self.send(part.master, master_reqs));
        let mut witness_rsps = join_all(sends).await;
        // The master's replies, sent last, come off the end.
        let master_rsps = match witness_rsps.pop() {
            Some(Ok(rsps)) if rsps.len() == calls.len() => rsps,
            other => {
                let why = format!("master rpc: {:?}", other.map(|r| r.map(|rsps| rsps.len())));
                return (0..calls.len()).for_each(|i| settle(i, Verdict::Lost(why.clone())));
            }
        };

        // Records were built in call order, one per mutation.
        let mut record_acks = accepted_by_all(&witness_rsps, record_reqs.len()).into_iter();
        let mut unsynced = Vec::new();
        for (i, (c, rsp)) in calls.iter().zip(master_rsps).enumerate() {
            let accepted = !c.op.is_read_only() && record_acks.next().unwrap_or(false);
            match judge(rsp, accepted, part.fault_tolerance(), self.cfg.record_witnesses) {
                Ok((Path::Unsynced, result)) => unsynced.push((i, result)),
                Ok((path, result)) => settle(i, self.complete(c, path, result)),
                Err(why) => settle(i, Verdict::Refused(why)),
            }
        }
        if unsynced.is_empty() {
            return;
        }
        // Slow path: one sync makes the master's whole unsynced prefix
        // durable, so it covers every rejected op (§3.2.3). It names the
        // incarnation that executed them — a recovered successor on the
        // same server must refuse rather than vouch for entries it never
        // held. No `SyncDone`: "restarts the entire process" (§3.2.1).
        let synced = self.rpc.call(part.master, Request::Sync { master_id: part.master_id }).await;
        for (i, result) in unsynced {
            let verdict = match &synced {
                Ok(Response::SyncDone) => self.complete(&calls[i], Path::Unsynced, result),
                Ok(other) => Verdict::Lost(format!("sync refused: {other:?}")),
                Err(e) => Verdict::Lost(format!("sync rpc: {e}")),
            };
            settle(i, verdict);
        }
    }

    /// Sends `reqs` to one server: a single request as the plain frame,
    /// several as one `Batch` frame. The count alone decides.
    fn send(&self, to: ServerId, mut reqs: Vec<Request>) -> BoxFuture<'static, Replies> {
        if reqs.len() != 1 {
            return self.rpc.call_batch(to, reqs);
        }
        let one = self.rpc.call(to, reqs.remove(0));
        Box::pin(async move { one.await.map(|rsp| vec![rsp]) })
    }

    /// Books a completed call: its path counted, once, and its RIFL id
    /// acknowledged so the piggybacked watermark may pass it.
    fn complete(&self, call: &Call, path: Path, result: OpResult) -> Verdict {
        let stats = &self.stats;
        let _before = match path {
            Path::Read => 0,
            Path::Synced => stats.synced_by_master.fetch_add(1, Ordering::Relaxed),
            Path::Fast => stats.fast_path.fetch_add(1, Ordering::Relaxed),
            Path::Unsynced => stats.explicit_sync.fetch_add(1, Ordering::Relaxed),
        };
        self.state.lock().rifl.complete(call.rpc_id);
        Verdict::Done(result)
    }

    /// Consistent read from a backup (§A.1, 0 wide-area RTTs in
    /// geo-replication): probe a witness for commutativity; if the key has
    /// no pending update, read the backup; otherwise fall back to the master.
    ///
    /// `replica` selects which of the partition's backups/witnesses to use
    /// (e.g. the one in the local region).
    pub async fn read_nearby(&self, op: Op, replica: usize) -> Result<OpResult, ClientError> {
        assert!(op.is_read_only(), "use update() for mutations");
        let footprint = op.key_hashes();
        let part = self.route(&footprint)?;
        if !part.witnesses.is_empty() && !part.backups.is_empty() {
            let witness = part.witnesses[replica % part.witnesses.len()];
            let backup = part.backups[replica % part.backups.len()];
            let master_id = part.master_id;
            let probe = Request::WitnessCommuteCheck { master_id, key_hashes: footprint };
            // Anything else is a pending update on this key (or a frozen
            // witness): the backup may be stale (§A.1).
            let probed = self.rpc.call(witness, probe).await;
            if let Ok(Response::CommuteOk { commutative: true }) = probed {
                let read = Request::BackupRead { master_id, op: op.clone() };
                if let Ok(Response::BackupValue { result }) = self.rpc.call(backup, read).await {
                    return Ok(result);
                }
            }
        }
        self.read(op).await
    }
}

// ---- pipelined mode ---------------------------------------------------------

/// Tuning for [`PipelinedClient`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum operations in flight per partition. [`PipelinedClient::submit`]
    /// suspends (backpressure) while a partition's window is full.
    pub window: usize,
    /// Maximum operations flushed in one [`Request::Batch`] frame.
    pub max_batch: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { window: 16, max_batch: 16 }
    }
}

/// A windowed, batching front end over [`CurpClient`].
///
/// The plain client issues one operation per in-flight RPC, so end-to-end
/// throughput is bounded by round trips. `PipelinedClient` keeps up to
/// [`PipelineConfig::window`] operations outstanding *per partition*:
/// [`submit`](Self::submit) routes the operation by its footprint (so one
/// instance drives many masters concurrently), waits for a window slot, and
/// returns a [`Completion`] future keyed by the operation's RIFL id. Queued
/// operations bound for the same partition are flushed together as one
/// attempt — the one [`CurpClient::update`] makes for a single operation.
///
/// What this type adds is where a verdict short of completion goes. Refused
/// ops (`NotOwner` after a split, stale witness list, sealed master) refresh
/// the map once per flush and re-enter the pipeline on their new owner's
/// pipe, so a live split stays invisible to the caller: the moved range is
/// back at pipelined rates as soon as the refreshed map lands. After
/// `MAX_REDIRECTS` hops (or when no usable answer came back) an op restarts
/// through the one-op retry loop instead.
///
/// Operations inside the window are **concurrent**: CURP's guarantees apply
/// per operation, and two pipelined ops may execute in either order. A
/// caller that needs happens-before between two updates must await the first
/// [`Completion`] before submitting the second.
pub struct PipelinedClient {
    inner: Arc<CurpClient>,
    cfg: PipelineConfig,
    pipes: Mutex<HashMap<MasterId, Pipe>>,
    /// Handed to flushers so refused ops can re-enter the pipeline on
    /// another master's pipe; weak, so dropping the client still shuts the
    /// flushers down.
    self_weak: Weak<PipelinedClient>,
}

/// Times a refused op may hop between pipes before degrading to the serial
/// retry loop (guards against a stale map ping-ponging an op forever).
const MAX_REDIRECTS: u32 = 3;

#[derive(Clone)]
struct Pipe {
    queue: mpsc::UnboundedSender<PendingOp>,
    window: Arc<Semaphore>,
}

/// One submitted-but-unresolved operation, owned by its partition's flusher.
struct PendingOp {
    call: Call,
    ticket: Ticket,
}

/// The caller's side of a [`PendingOp`].
struct Ticket {
    /// Window slot, released on drop. A redirected op keeps the permit of
    /// the pipe it was submitted on, so total in-flight operations stay
    /// bounded across a migration.
    _permit: OwnedSemaphorePermit,
    done: oneshot::Sender<Result<OpResult, ClientError>>,
    /// How many times this op has been re-routed to a different pipe.
    redirects: u32,
}

/// Completion future for a pipelined operation, keyed by its RIFL id.
pub struct Completion {
    rpc_id: RpcId,
    rx: oneshot::Receiver<Result<OpResult, ClientError>>,
}

impl Completion {
    /// The RIFL id assigned to this operation at submission.
    pub fn rpc_id(&self) -> RpcId {
        self.rpc_id
    }
}

impl Future for Completion {
    type Output = Result<OpResult, ClientError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.rx).poll(cx).map(|r| match r {
            Ok(result) => result,
            Err(_) => Err(ClientError::Exhausted("pipeline dropped before completion".into())),
        })
    }
}

impl PipelinedClient {
    /// Wraps a connected client in a pipelined front end.
    pub fn new(inner: Arc<CurpClient>, cfg: PipelineConfig) -> Arc<PipelinedClient> {
        assert!(cfg.window > 0 && cfg.max_batch > 0);
        Arc::new_cyclic(|self_weak| PipelinedClient {
            inner,
            cfg,
            pipes: Mutex::ranked(lockrank::CLIENT_PIPES, "core.client.pipes", HashMap::new()),
            self_weak: self_weak.clone(),
        })
    }

    /// The wrapped client (shared configuration, stats and RIFL lease).
    pub fn inner(&self) -> &Arc<CurpClient> {
        &self.inner
    }

    /// Number of per-master pipes currently held — diagnostics.
    pub fn pipe_count(&self) -> usize {
        self.pipes.lock().len()
    }

    /// Enqueues an operation (mutation or read) on its partition's pipeline.
    ///
    /// Suspends while the partition's window is full — this is the
    /// backpressure that keeps an open-loop generator from queueing without
    /// bound — and resolves to a [`Completion`] future once a slot is held.
    pub async fn submit(&self, op: Op) -> Result<Completion, ClientError> {
        let footprint = op.key_hashes();
        let part = match self.inner.route(&footprint) {
            Ok(p) => p,
            Err(ClientError::NoPartition) => {
                self.inner.refresh_config().await?;
                self.inner.route(&footprint)?
            }
            Err(e) => return Err(e),
        };
        let pipe = self.pipe_for(&part);
        let permit = (pipe.window.acquire_owned().await)
            .map_err(|_| ClientError::Exhausted("pipeline window closed".into()))?;
        let call = self.inner.new_call(op, footprint);
        let rpc_id = call.rpc_id;
        let (done, rx) = oneshot::channel();
        let ticket = Ticket { _permit: permit, done, redirects: 0 };
        if pipe.queue.send(PendingOp { call, ticket }).is_err() {
            return Err(ClientError::Exhausted("pipeline flusher gone".into()));
        }
        Ok(Completion { rpc_id, rx })
    }

    /// Submits and awaits one operation (convenience; no pipelining benefit
    /// unless other submissions are in flight).
    pub async fn update(&self, op: Op) -> Result<OpResult, ClientError> {
        self.submit(op).await?.await
    }

    /// Returns (creating on first use) the pipe for `part`'s master.
    ///
    /// A master id without a pipe means the map changed, so that is also
    /// when pipes of incarnations it no longer lists are dropped — every
    /// recovery mints a new id, and each dead one would otherwise keep a
    /// task, a channel and a semaphore. A dropped pipe's flusher drains its
    /// queue (through [`redirect_moved`]) and exits with its last sender.
    fn pipe_for(&self, part: &PartitionConfig) -> Pipe {
        if let Some(pipe) = self.pipes.lock().get(&part.master_id) {
            return pipe.clone();
        }
        // Lock ranks ascend: state is released before pipes is retaken.
        let live: HashSet<MasterId> =
            self.inner.state.lock().config.partitions.iter().map(|p| p.master_id).collect();
        let mut pipes = self.pipes.lock();
        pipes.retain(|id, _| live.contains(id));
        let pipe = pipes.entry(part.master_id).or_insert_with(|| {
            let (queue, rx) = mpsc::unbounded_channel();
            let (inner, pipeline) = (Arc::clone(&self.inner), self.self_weak.clone());
            tokio::spawn(run_pipe(inner, pipeline, part.master_id, self.cfg.max_batch, rx));
            Pipe { queue, window: Arc::new(Semaphore::new(self.cfg.window)) }
        });
        pipe.clone()
    }
}

/// Per-partition flusher: drains the queue into batches of at most
/// `max_batch` ops and spawns one flush per batch. Flushes overlap — the
/// window semaphore is what bounds total outstanding operations. Exits when
/// its pipe is dropped and the queue is empty.
async fn run_pipe(
    inner: Arc<CurpClient>,
    pipeline: Weak<PipelinedClient>,
    master_id: MasterId,
    max_batch: usize,
    mut rx: mpsc::UnboundedReceiver<PendingOp>,
) {
    while let Some(first) = rx.recv().await {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(p) => batch.push(p),
                Err(_) => break,
            }
        }
        tokio::spawn(flush_batch(Arc::clone(&inner), pipeline.clone(), master_id, batch));
    }
}

/// One flushed batch is one attempt; a completion goes to its caller at
/// once, refused ops together to [`redirect_moved`], lost ones to [`fallback`].
async fn flush_batch(
    inner: Arc<CurpClient>,
    pipeline: Weak<PipelinedClient>,
    master_id: MasterId,
    batch: Vec<PendingOp>,
) {
    let part = inner.state.lock().config.partition_by_master(master_id).cloned();
    let Some(part) = part else {
        // The partition vanished from the map while queued (split, churn):
        // refresh once and re-route the whole batch to the new owners.
        return redirect_moved(&inner, &pipeline, batch);
    };
    let (calls, mut tickets): (Vec<Call>, Vec<Option<Ticket>>) =
        batch.into_iter().map(|p| (p.call, Some(p.ticket))).unzip();
    let mut moved = Vec::new();
    let settle = |i: usize, verdict| {
        let Some(ticket) = tickets[i].take() else { return };
        match verdict {
            // Dropping the rest of the ticket releases the op's window slot.
            Verdict::Done(result) => drop(ticket.done.send(Ok(result))),
            Verdict::Refused(_) => moved.push(PendingOp { call: calls[i].clone(), ticket }),
            Verdict::Lost(_) => fallback(&inner, PendingOp { call: calls[i].clone(), ticket }),
        }
    };
    inner.attempt(&part, &calls, settle).await;
    redirect_moved(&inner, &pipeline, moved);
}

/// Restarts one op through the one-op retry loop (same RIFL id, so a
/// re-execution is filtered) without stalling the flusher.
fn fallback(inner: &Arc<CurpClient>, p: PendingOp) {
    let inner = Arc::clone(inner);
    tokio::spawn(async move {
        // Take `p` whole: naming only `p.call` and `p.ticket.done` would
        // capture just those and release the window slot right here.
        let PendingOp { call, ticket } = p;
        // The batched attempt was this op's first; the loop counts its own.
        inner.stats.restarts.fetch_add(1, Ordering::Relaxed);
        let res = inner.run(&call).await;
        let _ = ticket.done.send(res);
    });
}

/// Re-routes refused ops: refreshes the map once, then re-enqueues each op
/// on the pipe of whichever partition owns it now, so the moved range's
/// traffic stays batched. Ops that exhaust [`MAX_REDIRECTS`], ops the
/// refreshed map cannot route, and everything after the owning
/// [`PipelinedClient`] is dropped go to [`fallback`].
fn redirect_moved(
    inner: &Arc<CurpClient>,
    pipeline: &Weak<PipelinedClient>,
    moved: Vec<PendingOp>,
) {
    if moved.is_empty() {
        return;
    }
    let (inner, pipeline) = (Arc::clone(inner), pipeline.clone());
    tokio::spawn(async move {
        inner.refresh_config().await.ok();
        let pipeline = pipeline.upgrade();
        for mut p in moved {
            let owner = pipeline.as_ref().zip(inner.route(&p.call.footprint).ok());
            match owner {
                Some((pl, part)) if p.ticket.redirects < MAX_REDIRECTS => {
                    p.ticket.redirects += 1;
                    if let Err(back) = pl.pipe_for(&part).queue.send(p) {
                        fallback(&inner, back.0);
                    }
                }
                _ => fallback(&inner, p),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of §3.2.1: (master reply, every witness accepted, f,
    /// record_witnesses) -> the path the op takes, or the refusal.
    #[test]
    fn verdict_table() {
        use curp_proto::types::WitnessListVersion;
        let done = OpResult::Written { version: 7 };
        let update = |synced| Response::Update { result: done.clone(), synced };
        let on = |path| Ok((path, done.clone()));
        let refused = |why: &str| Err(why.to_string());
        let stale = Response::StaleWitnessList { current: WitnessListVersion(2) };
        let rows = [
            (Response::Read { result: done.clone() }, false, 3, true, on(Path::Read)),
            // Synced by the master: witnesses are irrelevant.
            (update(true), false, 3, true, on(Path::Synced)),
            (update(true), true, 3, true, on(Path::Synced)),
            // Speculative: all f accepted, else the explicit sync.
            (update(false), true, 3, true, on(Path::Fast)),
            (update(false), false, 3, true, on(Path::Unsynced)),
            // f = 0 has nothing to wait for; the async baseline does not wait.
            (update(false), false, 0, true, on(Path::Fast)),
            (update(false), false, 3, false, on(Path::Fast)),
            // Refusals, whatever the witnesses said.
            (Response::NotOwner, true, 3, true, refused("not owner")),
            (stale, true, 3, true, refused("stale witness list")),
            (Response::Retry { reason: "draining".into() }, true, 3, true, refused("draining")),
            (Response::SyncDone, true, 3, true, refused("unexpected: SyncDone")),
        ];
        for (master, accepted, f, record_witnesses, want) in rows {
            let row = format!("{master:?} accepted={accepted} f={f} record={record_witnesses}");
            assert_eq!(judge(master, accepted, f, record_witnesses), want, "{row}");
        }
    }

    #[test]
    fn a_record_counts_only_when_every_witness_accepted_it() {
        use Response::{RecordAccepted as A, RecordRejected as R};
        let unreachable = || Err(RpcError::Timeout { to: ServerId(3) });
        // No witness answered at all (none asked): nothing is accepted.
        assert_eq!(accepted_by_all(&[], 2), [false, false]);
        assert_eq!(accepted_by_all(&[Ok(vec![A, A]), Ok(vec![A, A])], 2), [true, true]);
        // One rejection sinks that record only.
        assert_eq!(accepted_by_all(&[Ok(vec![A, R]), Ok(vec![A, A])], 2), [true, false]);
        // An unreachable or short-replying witness accepted nothing.
        assert_eq!(accepted_by_all(&[Ok(vec![A, A]), unreachable()], 2), [false, false]);
        assert_eq!(accepted_by_all(&[Ok(vec![A, A]), Ok(vec![A])], 2), [false, false]);
    }

    #[test]
    fn retry_delay_ramps_and_caps() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(160);
        let mut prev_ceiling = Duration::ZERO;
        for attempt in 1..=10u32 {
            let d = retry_delay(base, max, attempt, 0xBEEF);
            let ceiling = base.saturating_mul(1 << (attempt - 1)).min(max);
            assert!(d >= ceiling / 2, "attempt {attempt}: {d:?} below half-ceiling");
            assert!(d <= ceiling, "attempt {attempt}: {d:?} above ceiling {ceiling:?}");
            assert!(ceiling >= prev_ceiling, "backoff envelope must be monotone");
            prev_ceiling = ceiling;
        }
        // Past the cap every attempt draws from the same [max/2, max] band.
        let d = retry_delay(base, max, 40, 7);
        assert!(d >= max / 2 && d <= max);
    }

    #[test]
    fn retry_delay_is_deterministic_and_salted() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(160);
        assert_eq!(retry_delay(base, max, 3, 42), retry_delay(base, max, 3, 42));
        // Different salts must de-sync (not a hard guarantee per pair, but
        // these particular values differ — determinism makes this stable).
        assert_ne!(retry_delay(base, max, 3, 1), retry_delay(base, max, 3, 2));
    }
}
