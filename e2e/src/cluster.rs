//! Every call the benchmark makes into the repository's crates.
//!
//! Later changes to the repository may not edit this benchmark, so it keeps
//! to the longest-lived public entry points and keeps them in this one file:
//! the transports (`TcpServer`, `TcpRouter`, `MemNetwork`), `CurpServer`,
//! `Coordinator::create_partition`, `CurpClient`/`PipelinedClient`, the
//! `RpcClient`/`RpcHandler` traits the tracing decorators wrap, and the
//! layers' public functions the replay drives (`wire`/`frame`,
//! `WitnessService::handle_request`, `BackupService::handle_request`).

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use curp_core::client::ClientConfig;
use curp_core::coordinator::{Coordinator, CoordinatorHandler};
use curp_core::master::MasterConfig;
use curp_core::server::{CurpServer, ServerHandler};
use curp_core::BackupService;
pub use curp_core::{ClientError, CurpClient, PipelineConfig, PipelinedClient};
use curp_proto::cluster::HashRange;
use curp_proto::frame::{write_frame_encoded, FrameDecoder};
use curp_proto::message::{Request, Response, RpcEnvelope};
pub use curp_proto::op::{Op, OpResult};
use curp_proto::types::{MasterId, ServerId};
use curp_proto::wire::{seq_encoded_len, Decode, Encode};
pub use curp_storage::TempDir;
use curp_transport::latency::Fixed;
use curp_transport::rpc::{BoxFuture, RpcClient, RpcHandler};
use curp_transport::tcp::{TcpRouter, TcpServer};
use curp_transport::{MemNetwork, RpcError};
use curp_witness::cache::CacheConfig;
use curp_witness::WitnessService;
pub use curp_workload::{KeyChooser, Uniform, Workload, Zipfian};

use crate::trace::{current_op, now_ns, Kind, Side, Timed, Tracer, MASTER_HOST};

const MASTER: ServerId = ServerId(MASTER_HOST as u64);
const COORDINATOR: ServerId = ServerId(100);
const DRIVER: ServerId = ServerId(999);
/// The replica whose witness and backup traffic is captured for replay.
const FIRST_REPLICA: ServerId = ServerId(2);

/// The shape of one cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Loopback TCP, or `MemNetwork` with zero latency on the real clock.
    pub tcp: bool,
    /// `f`: backup-and-witness servers beside the master. With 0 the client
    /// records on no witness, the paper's unreplicated baseline.
    pub replicas: usize,
    /// Servers journal and fsync under the data directory.
    pub durable: bool,
}

#[derive(Clone)]
enum Link {
    Tcp(Vec<(ServerId, SocketAddr)>),
    Mem(MemNetwork),
}

impl Link {
    /// Puts `handler` on the network as server `id`.
    async fn serve(
        &mut self,
        id: ServerId,
        handler: Arc<dyn RpcHandler>,
        listeners: &mut Vec<TcpServer>,
    ) -> Result<(), String> {
        match self {
            Link::Tcp(routes) => {
                let tcp = TcpServer::bind(([127, 0, 0, 1], 0).into(), handler)
                    .await
                    .map_err(|e| e.to_string())?;
                routes.push((id, tcp.local_addr()));
                listeners.push(tcp);
            }
            Link::Mem(net) => net.add_simple_server(id, handler),
        }
        Ok(())
    }

    fn client(&self, from: ServerId) -> Arc<dyn RpcClient> {
        match self {
            Link::Tcp(routes) => {
                let router = TcpRouter::new(from);
                for &(id, addr) in routes {
                    router.add_route(id, addr);
                }
                router.client()
            }
            Link::Mem(net) => net.client(from),
        }
    }
}

/// What the driver sees of a booted cluster. Server handles are shared with
/// the thread that serves them, for the public counters only.
pub struct Cluster {
    spec: ClusterSpec,
    master_id: MasterId,
    servers: Vec<Arc<CurpServer>>,
    link: Link,
}

/// Keeps a TCP cluster's listeners and coordinator alive on its thread.
pub struct Keep {
    _listeners: Vec<TcpServer>,
    _coordinator: Arc<Coordinator>,
}

/// Boots coordinator, master and `spec.replicas` backup-and-witness servers
/// on the calling thread's runtime, and creates the one partition.
pub async fn boot(
    spec: ClusterSpec,
    data_dir: Option<&Path>,
    probe: Option<Arc<Probe>>,
) -> Result<(Cluster, Keep), String> {
    let io = |e: std::io::Error| e.to_string();
    let ids: Vec<ServerId> = (1..=1 + spec.replicas as u64).map(ServerId).collect();
    let mut servers = Vec::new();
    for &id in &ids {
        let cache = CacheConfig::default();
        servers.push(match data_dir.filter(|_| spec.durable) {
            Some(dir) => {
                CurpServer::new_durable(id, cache, &dir.join(format!("s{}", id.0))).map_err(io)?
            }
            None => CurpServer::new(id, cache),
        });
    }
    let handler = |id: ServerId, inner: Arc<dyn RpcHandler>| -> Arc<dyn RpcHandler> {
        match &probe {
            Some(probe) => Arc::new(TracedHandler { inner, probe: Arc::clone(probe), host: id }),
            None => inner,
        }
    };
    let mut link = if spec.tcp {
        Link::Tcp(Vec::new())
    } else {
        let net = MemNetwork::new(0);
        net.set_default_latency(Arc::new(Fixed(Duration::ZERO)));
        Link::Mem(net)
    };
    let mut listeners = Vec::new();
    for server in &servers {
        let h = handler(server.id(), Arc::new(ServerHandler(Arc::clone(server))));
        link.serve(server.id(), h, &mut listeners).await?;
    }

    // Masters dial backups and witnesses through this factory; wrapping it
    // is how the sync round and witness gc are seen from outside.
    let (server_link, factory_probe) = (link.clone(), probe.clone());
    let coordinator = Coordinator::new(
        Box::new(move |from| {
            traced_client(server_link.client(from), factory_probe.clone(), Side::ClusterRpc)
        }),
        MasterConfig::default(),
        60_000,
    );
    for server in &servers {
        coordinator.register_server(Arc::clone(server));
    }
    let h = handler(COORDINATOR, Arc::new(CoordinatorHandler(Arc::clone(&coordinator))));
    link.serve(COORDINATOR, h, &mut listeners).await?;
    let replicas = ids[1..].to_vec();
    let master_id =
        coordinator.create_partition(MASTER, replicas.clone(), replicas, HashRange::FULL).await?;
    Ok((
        Cluster { spec, master_id, servers, link },
        Keep { _listeners: listeners, _coordinator: coordinator },
    ))
}

/// Public counters of every layer, summed over servers where there are many.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub fast_path: u64,
    pub synced_by_master: u64,
    pub explicit_sync: u64,
    pub restarts: u64,
    pub updates: u64,
    pub conflicts: u64,
    pub syncs: u64,
    pub entries_synced: u64,
    pub witness_accepted: u64,
    pub witness_rejected: u64,
}

/// What must hold once the load has stopped and the last sync has landed.
#[derive(Debug, PartialEq, Eq)]
pub struct Quiesce {
    /// `Master::pending_len()`: speculative entries not yet on backups.
    pub pending: usize,
    /// Occupied witness slots, summed over witnesses.
    pub witness_slots: usize,
    /// Each backup's `next_seq`.
    pub backup_seqs: Vec<u64>,
}

impl Quiesce {
    pub fn settled(&self) -> bool {
        self.pending == 0
            && self.witness_slots == 0
            && self.backup_seqs.windows(2).all(|w| w[0] == w[1])
    }
}

impl Cluster {
    /// The driver's one client handle: one connection per server.
    pub async fn connect(&self, probe: Option<Arc<Probe>>) -> Result<Arc<CurpClient>, String> {
        let rpc = traced_client(self.link.client(DRIVER), probe, Side::DriverRpc);
        let cfg = ClientConfig { record_witnesses: self.spec.replicas > 0, ..Default::default() };
        CurpClient::connect(rpc, COORDINATOR, cfg).await.map(Arc::new).map_err(|e| e.to_string())
    }

    fn master(&self) -> Arc<curp_core::Master> {
        self.servers[0].master().expect("create_partition installed the master")
    }

    /// `Master::pending_len()`, for the sampler.
    pub fn pending_len(&self) -> usize {
        self.master().pending_len()
    }

    pub fn quiesce(&self) -> Quiesce {
        let replicas = &self.servers[1..];
        Quiesce {
            pending: self.pending_len(),
            witness_slots: replicas.iter().map(|s| s.witness().occupancy(self.master_id)).sum(),
            backup_seqs: replicas
                .iter()
                .map(|s| s.backup().next_seq(self.master_id).unwrap_or(0))
                .collect(),
        }
    }

    /// Seals the master so its background syncer exits: a cluster set up
    /// only to time set-up must not keep ticking beside the measured one.
    pub fn retire(&self) {
        self.servers[0].seal_master();
    }

    pub fn counters(&self, client: &CurpClient) -> Counters {
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let master = self.master();
        let mut c = Counters {
            fast_path: load(&client.stats.fast_path),
            synced_by_master: load(&client.stats.synced_by_master),
            explicit_sync: load(&client.stats.explicit_sync),
            restarts: load(&client.stats.restarts),
            updates: load(&master.stats.updates),
            conflicts: load(&master.stats.conflicts),
            syncs: load(&master.stats.syncs),
            entries_synced: load(&master.stats.entries_synced),
            ..Default::default()
        };
        for s in &self.servers[1..] {
            let w = s.witness().counters();
            c.witness_accepted += w.accepted;
            c.witness_rejected += w.rejected;
        }
        c
    }
}

pub fn put(key: u64, value: Bytes) -> Op {
    Op::Put { key: Workload::key_bytes(key), value }
}

pub fn get(key: u64) -> Op {
    Op::Get { key: Workload::key_bytes(key) }
}

/// The tag a read's spans carry: its key hash (reads have no RIFL id).
pub fn read_tag(op: &Op) -> u64 {
    op.key_hashes_iter().next().map_or(0, |h| h.0)
}

// ---- tracing decorators ------------------------------------------------------

/// The tracer plus the messages captured for replay.
pub struct Probe {
    pub tracer: Tracer,
    /// Request and response of the driver's first RPCs while tracing.
    messages: Mutex<Vec<(Request, Response)>>,
    /// The first replica's witness and backup requests since boot, in order,
    /// so a fresh service replays them to the same state.
    witness: Mutex<Vec<Request>>,
    backup: Mutex<Vec<Request>>,
}

/// Few enough that every workload fills the sample inside the traced part
/// of its own mix, before any read-back window opens.
const MESSAGE_SAMPLE: usize = 1_024;
const WITNESS_SAMPLE: usize = 40_000;
const BACKUP_SAMPLE: usize = 400;
/// Durable replay fsyncs every batch; this many keep it under a second.
const DURABLE_REPLAY_BATCHES: usize = 100;

fn describe(req: &Request) -> (Kind, u64) {
    match req {
        Request::ClientUpdate { rpc_id, .. } => (Kind::Update, rpc_id.seq),
        Request::ClientRead { op } => (Kind::Read, read_tag(op)),
        Request::Sync { .. } => (Kind::Sync, 0),
        Request::WitnessRecord { request } => (Kind::Record, request.rpc_id.seq),
        Request::WitnessGc { entries, .. } => (Kind::Gc, entries.len() as u64),
        Request::BackupSync { entries, .. } => {
            (Kind::BackupSync, entries.first().map_or(0, |e| e.seq))
        }
        _ => (Kind::Other, 0),
    }
}

/// Bytes a payload of `len` occupies on a connection: frame header plus
/// envelope.
fn framed(len: usize) -> u32 {
    (4 + RpcEnvelope { corr_id: 0, is_response: false, payload: Bytes::new() }.encoded_len() + len)
        as u32
}

fn traced_client(
    inner: Arc<dyn RpcClient>,
    probe: Option<Arc<Probe>>,
    side: Side,
) -> Arc<dyn RpcClient> {
    match probe {
        Some(probe) => Arc::new(TracedClient { inner, probe, side }),
        None => inner,
    }
}

struct TracedClient {
    inner: Arc<dyn RpcClient>,
    probe: Arc<Probe>,
    side: Side,
}

impl TracedClient {
    /// Whether this call's messages join the replay sample.
    fn sampling(&self) -> bool {
        self.side == Side::DriverRpc
            && self.probe.messages.lock().expect("sample poisoned").len() < MESSAGE_SAMPLE
    }

    /// Wraps one RPC future in a span; `reply` sizes the response and turns
    /// it into the message the sample keeps.
    fn span<T: Send + 'static>(
        &self,
        to: ServerId,
        kind: Kind,
        tags: Vec<u64>,
        request: (u32, Option<Request>),
        fut: BoxFuture<'static, Result<T, RpcError>>,
        reply: fn(&T, bool) -> (usize, Option<Response>),
    ) -> BoxFuture<'static, Result<T, RpcError>> {
        let (probe, side, parent) = (Arc::clone(&self.probe), self.side, current_op());
        let (req_len, sample) = request;
        Box::pin(Timed::new(fut, move |out: &Result<T, RpcError>, start, end| {
            let (rsp_len, rsp) = out.as_ref().map_or((0, None), |r| reply(r, sample.is_some()));
            if let (Some(req), Some(rsp)) = (sample, rsp) {
                probe.messages.lock().expect("sample poisoned").push((req, rsp));
            }
            let bytes = req_len + framed(rsp_len);
            probe.tracer.record(side, kind, to.0 as u16, (0, parent), bytes, &tags, (start, end));
        }))
    }
}

impl RpcClient for TracedClient {
    fn call(&self, to: ServerId, req: Request) -> BoxFuture<'static, Result<Response, RpcError>> {
        if !self.probe.tracer.on() {
            return self.inner.call(to, req);
        }
        let (kind, tag) = describe(&req);
        let request = (framed(req.encoded_len()), self.sampling().then(|| req.clone()));
        let fut = self.inner.call(to, req);
        self.span(to, kind, vec![tag], request, fut, |rsp, keep| {
            (rsp.encoded_len(), keep.then(|| rsp.clone()))
        })
    }

    fn call_batch(
        &self,
        to: ServerId,
        reqs: Vec<Request>,
    ) -> BoxFuture<'static, Result<Vec<Response>, RpcError>> {
        if !self.probe.tracer.on() || reqs.is_empty() {
            return self.inner.call_batch(to, reqs);
        }
        let kind = describe(&reqs[0]).0;
        let tags = reqs.iter().map(|r| describe(r).1).collect();
        let request = (
            framed(1 + seq_encoded_len(&reqs)),
            self.sampling().then(|| Request::Batch { requests: reqs.clone() }),
        );
        let fut = self.inner.call_batch(to, reqs);
        self.span(to, kind, tags, request, fut, |rsps, keep| {
            (1 + seq_encoded_len(rsps), keep.then(|| Response::Batch { responses: rsps.clone() }))
        })
    }
}

struct TracedHandler {
    inner: Arc<dyn RpcHandler>,
    probe: Arc<Probe>,
    host: ServerId,
}

impl RpcHandler for TracedHandler {
    fn handle(&self, from: ServerId, req: Request) -> BoxFuture<'static, Response> {
        let (kind, tag) = describe(&req);
        if self.host == FIRST_REPLICA {
            let (sample, cap) = match kind {
                Kind::BackupSync => (&self.probe.backup, BACKUP_SAMPLE),
                _ => (&self.probe.witness, WITNESS_SAMPLE),
            };
            let mut sample = sample.lock().expect("sample poisoned");
            if sample.len() < cap {
                sample.push(req.clone());
            }
        }
        if !self.probe.tracer.on() {
            return self.inner.handle(from, req);
        }
        let (probe, host) = (Arc::clone(&self.probe), self.host.0 as u16);
        Box::pin(Timed::new(self.inner.handle(from, req), move |_: &Response, start, end| {
            probe.tracer.record(Side::Handler, kind, host, (0, 0), 0, &[tag], (start, end));
        }))
    }
}

// ---- replay --------------------------------------------------------------------

/// Costs of single layers, measured by re-running captured messages through
/// the layer's public functions with nothing else running.
#[derive(Default, Debug)]
pub struct Replay {
    pub encode_ns_per_op: f64,
    pub decode_ns_per_op: f64,
    pub witness_record_ns_per_op: f64,
    pub backup_apply_ns_per_op: f64,
    pub aof_sync_us_per_batch: f64,
}

fn per(total_ns: u64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64
    }
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            tracer: Tracer::new(),
            messages: Mutex::default(),
            witness: Mutex::default(),
            backup: Mutex::default(),
        }
    }

    /// Replays the captured messages; `scratch` holds the durable backup's
    /// files and is removed afterwards.
    pub fn replay(&self, scratch: &Path) -> std::io::Result<Replay> {
        let mut r = Replay::default();
        let messages = std::mem::take(&mut *self.messages.lock().expect("sample poisoned"));
        (r.encode_ns_per_op, r.decode_ns_per_op) = replay_codec(&messages);

        let witness = std::mem::take(&mut *self.witness.lock().expect("sample poisoned"));
        let records = witness.iter().filter(|q| matches!(q, Request::WitnessRecord { .. })).count();
        let service = WitnessService::new(CacheConfig::default());
        let t0 = now_ns();
        for req in &witness {
            black_box(service.handle_request(req));
        }
        r.witness_record_ns_per_op = per(now_ns() - t0, records);

        let backup = std::mem::take(&mut *self.backup.lock().expect("sample poisoned"));
        let entries = backup
            .iter()
            .map(|q| if let Request::BackupSync { entries, .. } = q { entries.len() } else { 0 })
            .sum();
        let service = BackupService::new();
        let t0 = now_ns();
        for req in &backup {
            black_box(service.handle_request(req));
        }
        r.backup_apply_ns_per_op = per(now_ns() - t0, entries);

        let batches = &backup[..backup.len().min(DURABLE_REPLAY_BATCHES)];
        let service = BackupService::durable(scratch)?;
        let t0 = now_ns();
        for req in batches {
            black_box(service.handle_request(req));
        }
        r.aof_sync_us_per_batch = per(now_ns() - t0, batches.len()) / 1e3;
        drop(service);
        std::fs::remove_dir_all(scratch)?;
        Ok(r)
    }
}

/// Encodes and decodes the sampled messages the way the TCP transport does:
/// payload, envelope and frame out; frame decoder, envelope and payload in.
/// Returns nanoseconds per operation the messages carry.
fn replay_codec(messages: &[(Request, Response)]) -> (f64, f64) {
    let inner = |req: &Request| match req {
        Request::ClientUpdate { .. } | Request::ClientRead { .. } => 1,
        _ => 0,
    };
    let ops: usize = messages
        .iter()
        .map(|(req, _)| match req {
            Request::Batch { requests } => requests.iter().map(inner).sum(),
            req => inner(req),
        })
        .sum();
    // Enough passes that the clock's own cost disappears.
    let passes = (200_000 / messages.len().max(1)).clamp(1, 64);
    let (mut encode_ns, mut decode_ns) = (0, 0);
    let mut wire = BytesMut::new();
    let mut frame_ends = Vec::with_capacity(2 * messages.len());
    for _ in 0..passes {
        wire.clear();
        frame_ends.clear();
        let t0 = now_ns();
        for (req, rsp) in messages {
            for (is_response, payload) in [(false, req.to_bytes()), (true, rsp.to_bytes())] {
                write_frame_encoded(&RpcEnvelope { corr_id: 1, is_response, payload }, &mut wire);
                frame_ends.push(wire.len());
            }
        }
        encode_ns += now_ns() - t0;

        // One frame per read, as a connection with one RPC in flight sees it.
        let mut decoder = FrameDecoder::new();
        let mut at = 0;
        let t0 = now_ns();
        for &end in &frame_ends {
            decoder.push(&wire[at..end]);
            at = end;
            let frame = decoder.next_frame().ok().flatten().expect("a whole frame was pushed");
            let env = RpcEnvelope::from_bytes_shared(frame).expect("own encoding decodes");
            if env.is_response {
                black_box(Response::from_bytes_shared(env.payload).expect("own encoding"));
            } else {
                black_box(Request::from_bytes_shared(env.payload).expect("own encoding"));
            }
        }
        decode_ns += now_ns() - t0;
    }
    (per(encode_ns, ops * passes), per(decode_ns, ops * passes))
}
