//! In-process simulated network.
//!
//! [`MemNetwork`] routes [`Request`]s between registered handlers, imposing:
//!
//! * per-link one-way delays drawn from a [`LatencyModel`] (global default
//!   plus per-link overrides, so geo-replication setups can make one witness
//!   "nearby"),
//! * seeded per-link fault injection (message loss and duplication) and
//!   one- or two-way partitions,
//! * server crashes (requests to a crashed server vanish, like a dead NIC),
//! * a per-server *dispatch cost*: every message a server sends or receives
//!   occupies a FIFO dispatch resource for a fixed virtual duration. This
//!   models the RAMCloud dispatch thread that §5.1 identifies as the
//!   throughput bottleneck ("masters are bottlenecked by a dispatch thread"),
//!   and is what makes the Figure 6/12 throughput curves reproducible.
//!
//! All waiting uses `tokio::time`, so running under a *paused* clock
//! (`tokio::time::pause`, or `start_paused` in tests) turns the network into
//! a deterministic discrete-event simulation: virtual microseconds elapse
//! instantly in wall time.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use curp_proto::lockrank;
use curp_proto::message::{Request, Response};
use curp_proto::types::ServerId;
use curp_proto::wire::Encode;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::RpcError;
use crate::latency::{Fixed, LatencyModel};
use crate::rpc::{call_batched, dispatch, BoxFuture, RpcClient, SharedHandler};

/// Per-server simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServerSpec {
    /// Virtual time the server's dispatch resource is occupied per message
    /// sent or received. `Duration::ZERO` disables dispatch modeling.
    pub dispatch_cost: Duration,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec { dispatch_cost: Duration::ZERO }
    }
}

/// Message counters kept per server (both directions), used by the §5.2
/// resource-consumption experiment.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests delivered to this server.
    pub requests_in: AtomicU64,
    /// Responses produced by this server.
    pub responses_out: AtomicU64,
    /// Total encoded bytes received.
    pub bytes_in: AtomicU64,
    /// Total encoded bytes sent.
    pub bytes_out: AtomicU64,
}

struct ServerEntry {
    handler: SharedHandler,
    spec: ServerSpec,
    dispatch: Arc<tokio::sync::Mutex<()>>,
    crashed: bool,
    stats: Arc<ServerStats>,
}

/// Fault-injection parameters for one directed link (or the network-wide
/// default). Decisions are drawn from a dedicated RNG seeded with `seed`, so
/// a schedule built from a given seed replays byte-identically: the draw
/// sequence depends only on the messages crossing *this* link, never on
/// unrelated traffic.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Probability that a message on the link is silently lost.
    pub drop_rate: f64,
    /// Probability that a (non-lost) request is delivered twice. Responses
    /// are never duplicated: the caller keeps only one anyway, so a dup
    /// there is invisible — request dups are what stress exactly-once.
    pub dup_rate: f64,
    /// Seed for this link's decision RNG.
    pub seed: u64,
}

impl FaultSpec {
    fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop_rate), "drop_rate {}", self.drop_rate);
        assert!((0.0..=1.0).contains(&self.dup_rate), "dup_rate {}", self.dup_rate);
    }
}

/// One per-message fault decision.
#[derive(Debug, Clone, Copy, Default)]
struct FaultRoll {
    lost: bool,
    dup: bool,
}

struct LinkFault {
    drop_rate: f64,
    dup_rate: f64,
    rng: StdRng,
}

impl LinkFault {
    fn new(spec: FaultSpec) -> Self {
        spec.validate();
        LinkFault {
            drop_rate: spec.drop_rate,
            dup_rate: spec.dup_rate,
            rng: StdRng::seed_from_u64(spec.seed),
        }
    }

    fn roll(&mut self) -> FaultRoll {
        let lost = self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate);
        let dup = !lost && self.dup_rate > 0.0 && self.rng.gen_bool(self.dup_rate);
        FaultRoll { lost, dup }
    }
}

struct Inner {
    servers: Mutex<HashMap<ServerId, ServerEntry>>,
    default_latency: Mutex<Arc<dyn LatencyModel>>,
    link_latency: Mutex<HashMap<(ServerId, ServerId), Arc<dyn LatencyModel>>>,
    partitions: Mutex<HashSet<(ServerId, ServerId)>>,
    link_faults: Mutex<HashMap<(ServerId, ServerId), LinkFault>>,
    default_fault: Mutex<Option<LinkFault>>,
    /// Latency draws also use one RNG per directed link (lazily seeded from
    /// `seed`), for the same replayability reason as [`LinkFault`].
    latency_rngs: Mutex<HashMap<(ServerId, ServerId), StdRng>>,
    seed: u64,
    rpc_timeout: Mutex<Duration>,
}

/// Derives a stable per-directed-link seed from the network seed.
fn link_seed(seed: u64, from: ServerId, to: ServerId) -> u64 {
    seed ^ from.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        ^ to.0.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// The simulated network. Cheap to clone (shared state).
#[derive(Clone)]
pub struct MemNetwork {
    inner: Arc<Inner>,
}

impl MemNetwork {
    /// Creates a network with a fixed 1 µs one-way delay and the given RNG
    /// seed. Replace the latency model with
    /// [`set_default_latency`](Self::set_default_latency) as needed.
    pub fn new(seed: u64) -> Self {
        MemNetwork {
            inner: Arc::new(Inner {
                servers: Mutex::ranked(
                    lockrank::TRANSPORT_SERVERS,
                    "transport.mem.servers",
                    HashMap::new(),
                ),
                default_latency: Mutex::ranked(
                    lockrank::TRANSPORT_DEFAULT_LATENCY,
                    "transport.mem.default_latency",
                    Arc::new(Fixed(Duration::from_micros(1))),
                ),
                link_latency: Mutex::ranked(
                    lockrank::TRANSPORT_LINK_LATENCY,
                    "transport.mem.link_latency",
                    HashMap::new(),
                ),
                partitions: Mutex::ranked(
                    lockrank::TRANSPORT_PARTITIONS,
                    "transport.mem.partitions",
                    HashSet::new(),
                ),
                link_faults: Mutex::ranked(
                    lockrank::TRANSPORT_LINK_FAULTS,
                    "transport.mem.link_faults",
                    HashMap::new(),
                ),
                default_fault: Mutex::ranked(
                    lockrank::TRANSPORT_DEFAULT_FAULT,
                    "transport.mem.default_fault",
                    None,
                ),
                latency_rngs: Mutex::ranked(
                    lockrank::TRANSPORT_LATENCY_RNGS,
                    "transport.mem.latency_rngs",
                    HashMap::new(),
                ),
                seed,
                rpc_timeout: Mutex::ranked(
                    lockrank::TRANSPORT_RPC_TIMEOUT,
                    "transport.mem.rpc_timeout",
                    Duration::from_millis(200),
                ),
            }),
        }
    }

    /// Registers (or replaces) the handler for `id`.
    pub fn add_server(&self, id: ServerId, handler: SharedHandler, spec: ServerSpec) {
        let mut servers = self.inner.servers.lock();
        let stats = servers.get(&id).map(|e| Arc::clone(&e.stats)).unwrap_or_default();
        servers.insert(
            id,
            ServerEntry {
                handler,
                spec,
                dispatch: Arc::new(tokio::sync::Mutex::new(())),
                crashed: false,
                stats,
            },
        );
    }

    /// Registers a handler with default spec (no dispatch modeling).
    pub fn add_simple_server(&self, id: ServerId, handler: SharedHandler) {
        self.add_server(id, handler, ServerSpec::default());
    }

    /// Sets the network-wide default one-way latency model.
    pub fn set_default_latency(&self, model: Arc<dyn LatencyModel>) {
        *self.inner.default_latency.lock() = model;
    }

    /// Overrides the latency of the directed link `from → to`.
    pub fn set_link_latency(&self, from: ServerId, to: ServerId, model: Arc<dyn LatencyModel>) {
        self.inner.link_latency.lock().insert((from, to), model);
    }

    /// Removes a per-link latency override (falls back to the default).
    pub fn clear_link_latency(&self, from: ServerId, to: ServerId) {
        self.inner.link_latency.lock().remove(&(from, to));
    }

    /// Sets the probability that any individual message is silently lost.
    ///
    /// Convenience wrapper over [`set_default_fault`](Self::set_default_fault):
    /// the decision RNG is seeded from the network seed, so the loss pattern
    /// is deterministic per seed (but shared across links — per-link
    /// [`set_link_fault`](Self::set_link_fault) is the replay-exact path).
    pub fn set_drop_rate(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        let spec = (p > 0.0).then_some(FaultSpec {
            drop_rate: p,
            dup_rate: 0.0,
            seed: self.inner.seed ^ 0xD20B,
        });
        self.set_default_fault(spec);
    }

    /// Installs (or replaces) the fault model for the directed link
    /// `from → to`. Each installation restarts the link's decision RNG from
    /// `spec.seed`.
    pub fn set_link_fault(&self, from: ServerId, to: ServerId, spec: FaultSpec) {
        self.inner.link_faults.lock().insert((from, to), LinkFault::new(spec));
    }

    /// Removes the fault model for `from → to` (falls back to the default).
    pub fn clear_link_fault(&self, from: ServerId, to: ServerId) {
        self.inner.link_faults.lock().remove(&(from, to));
    }

    /// Installs (or with `None` clears) the fault model applied to every
    /// link without its own [`set_link_fault`](Self::set_link_fault) entry.
    pub fn set_default_fault(&self, spec: Option<FaultSpec>) {
        *self.inner.default_fault.lock() = spec.map(LinkFault::new);
    }

    /// Sets how long callers wait before reporting [`RpcError::Timeout`].
    pub fn set_rpc_timeout(&self, d: Duration) {
        *self.inner.rpc_timeout.lock() = d;
    }

    /// Marks `id` as crashed: requests to it are silently dropped (callers
    /// time out, as with a dead machine) until [`restart`](Self::restart).
    pub fn crash(&self, id: ServerId) {
        if let Some(e) = self.inner.servers.lock().get_mut(&id) {
            e.crashed = true;
        }
    }

    /// Clears the crashed flag for `id` (the handler keeps its state; models
    /// a zombie returning from a network outage rather than a reboot).
    pub fn restart(&self, id: ServerId) {
        if let Some(e) = self.inner.servers.lock().get_mut(&id) {
            e.crashed = false;
        }
    }

    /// Returns `true` if `id` is currently marked crashed.
    pub fn is_crashed(&self, id: ServerId) -> bool {
        self.inner.servers.lock().get(&id).map(|e| e.crashed).unwrap_or(false)
    }

    /// Cuts both directions of the link between `a` and `b`.
    pub fn partition(&self, a: ServerId, b: ServerId) {
        let mut p = self.inner.partitions.lock();
        p.insert((a, b));
        p.insert((b, a));
    }

    /// Heals a previous [`partition`](Self::partition).
    pub fn heal(&self, a: ServerId, b: ServerId) {
        let mut p = self.inner.partitions.lock();
        p.remove(&(a, b));
        p.remove(&(b, a));
    }

    /// Cuts only the direction `from → to` (an *asymmetric* partition: `to`
    /// still reaches `from`, so e.g. a master can send but never hear acks).
    pub fn partition_oneway(&self, from: ServerId, to: ServerId) {
        self.inner.partitions.lock().insert((from, to));
    }

    /// Heals a previous [`partition_oneway`](Self::partition_oneway).
    pub fn heal_oneway(&self, from: ServerId, to: ServerId) {
        self.inner.partitions.lock().remove(&(from, to));
    }

    /// Heals every partition (both kinds) at once.
    pub fn heal_all(&self) {
        self.inner.partitions.lock().clear();
    }

    /// Every piece of injected network state still in force, one line per
    /// item — partitions, per-link faults, the default fault, per-link
    /// latency overrides. A fault-injection schedule that claims to have
    /// healed must leave this empty; the chaos fleet asserts exactly that
    /// at the end of every run.
    pub fn residual_faults(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut cuts: Vec<_> = self.inner.partitions.lock().iter().copied().collect();
        cuts.sort();
        for (from, to) in cuts {
            out.push(format!("partition s{} -> s{}", from.0, to.0));
        }
        let mut faults: Vec<_> = self.inner.link_faults.lock().keys().copied().collect();
        faults.sort();
        for (from, to) in faults {
            out.push(format!("link fault s{} -> s{}", from.0, to.0));
        }
        if self.inner.default_fault.lock().is_some() {
            out.push("default fault on all links".into());
        }
        let mut slow: Vec<_> = self.inner.link_latency.lock().keys().copied().collect();
        slow.sort();
        for (from, to) in slow {
            out.push(format!("latency override s{} -> s{}", from.0, to.0));
        }
        out
    }

    /// Per-server message statistics.
    pub fn stats(&self, id: ServerId) -> Option<Arc<ServerStats>> {
        self.inner.servers.lock().get(&id).map(|e| Arc::clone(&e.stats))
    }

    /// Returns an [`RpcClient`] whose calls originate from `from`.
    ///
    /// `from` does not need to be a registered server (clients usually
    /// aren't); if it is, its dispatch cost is charged for each message.
    pub fn client(&self, from: ServerId) -> Arc<dyn RpcClient> {
        Arc::new(MemClient { net: self.clone(), from })
    }

    fn sample_delay(&self, from: ServerId, to: ServerId) -> Duration {
        let model = {
            let links = self.inner.link_latency.lock();
            links.get(&(from, to)).cloned()
        };
        let model = model.unwrap_or_else(|| Arc::clone(&self.inner.default_latency.lock()));
        let mut rngs = self.inner.latency_rngs.lock();
        let rng = rngs
            .entry((from, to))
            .or_insert_with(|| StdRng::seed_from_u64(link_seed(self.inner.seed, from, to)));
        model.sample(rng)
    }

    fn fault_roll(&self, from: ServerId, to: ServerId) -> FaultRoll {
        if let Some(f) = self.inner.link_faults.lock().get_mut(&(from, to)) {
            return f.roll();
        }
        self.inner.default_fault.lock().as_mut().map(LinkFault::roll).unwrap_or_default()
    }

    fn is_partitioned(&self, from: ServerId, to: ServerId) -> bool {
        self.inner.partitions.lock().contains(&(from, to))
    }

    fn dispatch_of(&self, id: ServerId) -> Option<(Arc<tokio::sync::Mutex<()>>, Duration)> {
        self.inner.servers.lock().get(&id).and_then(|e| {
            if e.spec.dispatch_cost.is_zero() {
                None
            } else {
                Some((Arc::clone(&e.dispatch), e.spec.dispatch_cost))
            }
        })
    }

    /// Occupies `id`'s dispatch resource for one message, if modeled.
    async fn occupy_dispatch(&self, id: ServerId) {
        if let Some((lock, cost)) = self.dispatch_of(id) {
            let _guard = lock.lock().await;
            tokio::time::sleep(cost).await;
        }
    }

    async fn do_call(
        self,
        from: ServerId,
        to: ServerId,
        req: Request,
    ) -> Result<Response, RpcError> {
        let timeout = *self.inner.rpc_timeout.lock();
        let fut = async {
            let req_len = req.encoded_len() as u64;
            // Outgoing request occupies the sender's dispatch thread.
            self.occupy_dispatch(from).await;
            let d_out = self.sample_delay(from, to);
            tokio::time::sleep(d_out).await;
            if self.is_partitioned(from, to) {
                std::future::pending::<()>().await;
            }
            let roll = self.fault_roll(from, to);
            if roll.lost {
                std::future::pending::<()>().await;
            }
            let (handler, stats) = {
                let servers = self.inner.servers.lock();
                match servers.get(&to) {
                    // A crashed machine neither NACKs nor replies; surface the
                    // loss as a timeout (after the propagation delay already
                    // paid, so retry loops still advance virtual time).
                    Some(e) if e.crashed => return Err(RpcError::Timeout { to }),
                    Some(e) => (Arc::clone(&e.handler), Arc::clone(&e.stats)),
                    None => return Err(RpcError::Unreachable { to }),
                }
            };
            if roll.dup {
                // The network delivered a second copy of the request. It is
                // its own message — it pays its own dispatch charge and runs
                // through the handler concurrently with the original — but
                // its response is discarded (the caller awaits only one).
                // This is exactly the retransmission scenario RIFL's
                // exactly-once table must absorb.
                stats.requests_in.fetch_add(1, Ordering::Relaxed);
                stats.bytes_in.fetch_add(req_len, Ordering::Relaxed);
                let net = self.clone();
                let dup_handler = Arc::clone(&handler);
                let dup_req = req.clone();
                tokio::spawn(async move {
                    net.occupy_dispatch(to).await;
                    let _ = dispatch(&dup_handler, from, dup_req).await;
                });
            }
            stats.requests_in.fetch_add(1, Ordering::Relaxed);
            stats.bytes_in.fetch_add(req_len, Ordering::Relaxed);
            // Incoming request occupies the receiver's dispatch thread. A
            // batch is ONE message: it pays one dispatch charge per direction
            // no matter how many inner requests it carries — exactly the
            // amortization that makes client batching pay off against a
            // dispatch-bound server (§C.1).
            self.occupy_dispatch(to).await;
            let rsp = dispatch(&handler, from, req).await;
            // If the server crashed while processing, its response is lost.
            if self.is_crashed(to) {
                std::future::pending::<()>().await;
            }
            stats.responses_out.fetch_add(1, Ordering::Relaxed);
            stats.bytes_out.fetch_add(rsp.encoded_len() as u64, Ordering::Relaxed);
            // Outgoing response occupies the receiver's dispatch thread.
            self.occupy_dispatch(to).await;
            let d_back = self.sample_delay(to, from);
            tokio::time::sleep(d_back).await;
            // Response leg: duplication is meaningless here (see
            // [`FaultSpec::dup_rate`]), only loss applies.
            if self.is_partitioned(to, from) || self.fault_roll(to, from).lost {
                std::future::pending::<()>().await;
            }
            // Incoming response occupies the sender's dispatch thread.
            self.occupy_dispatch(from).await;
            Ok(rsp)
        };
        match tokio::time::timeout(timeout, fut).await {
            Ok(r) => r,
            Err(_) => Err(RpcError::Timeout { to }),
        }
    }
}

/// Wait-for-crashed-server behaviour: a crashed destination produces a
/// timeout, not an instant error, so we surface it through the same path.
struct MemClient {
    net: MemNetwork,
    from: ServerId,
}

impl RpcClient for MemClient {
    fn call(&self, to: ServerId, req: Request) -> BoxFuture<'static, Result<Response, RpcError>> {
        let net = self.net.clone();
        let from = self.from;
        Box::pin(net.do_call(from, to, req))
    }

    fn call_batch(
        &self,
        to: ServerId,
        reqs: Vec<Request>,
    ) -> BoxFuture<'static, Result<Vec<Response>, RpcError>> {
        let net = self.net.clone();
        let from = self.from;
        Box::pin(call_batched(to, reqs, move |batch| net.do_call(from, to, batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curp_proto::types::MasterId;
    use std::sync::atomic::AtomicUsize;

    fn echo_handler() -> SharedHandler {
        Arc::new(|_from: ServerId, req: Request| async move {
            match req {
                Request::Sync { .. } => Response::SyncDone,
                _ => Response::Retry { reason: "unexpected".into() },
            }
        })
    }

    #[tokio::test(start_paused = true)]
    async fn basic_call_roundtrips() {
        let net = MemNetwork::new(1);
        net.add_simple_server(ServerId(1), echo_handler());
        let client = net.client(ServerId(100));
        let rsp = client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.unwrap();
        assert_eq!(rsp, Response::SyncDone);
    }

    #[tokio::test(start_paused = true)]
    async fn unknown_server_is_unreachable() {
        let net = MemNetwork::new(1);
        let client = net.client(ServerId(100));
        let err =
            client.call(ServerId(9), Request::Sync { master_id: MasterId(1) }).await.unwrap_err();
        assert_eq!(err, RpcError::Unreachable { to: ServerId(9) });
    }

    #[tokio::test(start_paused = true)]
    async fn crashed_server_times_out() {
        let net = MemNetwork::new(1);
        net.add_simple_server(ServerId(1), echo_handler());
        net.crash(ServerId(1));
        let client = net.client(ServerId(100));
        let err =
            client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.unwrap_err();
        assert_eq!(err, RpcError::Timeout { to: ServerId(1) });
        net.restart(ServerId(1));
        assert!(client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.is_ok());
    }

    #[tokio::test(start_paused = true)]
    async fn partition_blocks_and_heals() {
        let net = MemNetwork::new(1);
        net.add_simple_server(ServerId(1), echo_handler());
        net.partition(ServerId(100), ServerId(1));
        let client = net.client(ServerId(100));
        assert!(client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.is_err());
        net.heal(ServerId(100), ServerId(1));
        assert!(client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.is_ok());
    }

    #[tokio::test(start_paused = true)]
    async fn full_drop_rate_loses_everything() {
        let net = MemNetwork::new(1);
        net.add_simple_server(ServerId(1), echo_handler());
        net.set_drop_rate(1.0);
        let client = net.client(ServerId(100));
        assert!(client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.is_err());
    }

    #[tokio::test(start_paused = true)]
    async fn oneway_partition_cuts_only_one_direction() {
        let net = MemNetwork::new(1);
        net.add_simple_server(ServerId(1), echo_handler());
        net.add_simple_server(ServerId(2), echo_handler());
        // Requests 1→2 still flow, but 2's *responses* (the 2→1 leg) are cut,
        // so the caller at 1 times out while 2→1 request traffic also dies.
        net.partition_oneway(ServerId(2), ServerId(1));
        let c1 = net.client(ServerId(1));
        let c2 = net.client(ServerId(2));
        assert!(
            c1.call(ServerId(2), Request::Sync { master_id: MasterId(1) }).await.is_err(),
            "response leg is cut"
        );
        assert!(
            c2.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.is_err(),
            "request leg is cut"
        );
        // The reverse direction was never touched: 2 can be *called* by a
        // third party unaffected by the 2→1 cut.
        let c9 = net.client(ServerId(9));
        assert!(c9.call(ServerId(2), Request::Sync { master_id: MasterId(1) }).await.is_ok());
        net.heal_oneway(ServerId(2), ServerId(1));
        assert!(c1.call(ServerId(2), Request::Sync { master_id: MasterId(1) }).await.is_ok());
        assert!(c2.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.is_ok());
    }

    #[tokio::test(start_paused = true)]
    async fn dup_fault_delivers_request_exactly_twice() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let net = MemNetwork::new(1);
        net.add_simple_server(
            ServerId(1),
            Arc::new(|_f: ServerId, _r: Request| async {
                HITS.fetch_add(1, Ordering::Relaxed);
                Response::SyncDone
            }),
        );
        net.set_link_fault(
            ServerId(100),
            ServerId(1),
            FaultSpec { drop_rate: 0.0, dup_rate: 1.0, seed: 9 },
        );
        let client = net.client(ServerId(100));
        let rsp = client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.unwrap();
        assert_eq!(rsp, Response::SyncDone, "the caller still gets exactly one response");
        // Let the fire-and-forget duplicate leg land.
        tokio::time::sleep(Duration::from_millis(10)).await;
        assert_eq!(HITS.load(Ordering::Relaxed), 2, "duplicate delivered exactly twice");
        let stats = net.stats(ServerId(1)).unwrap();
        assert_eq!(stats.requests_in.load(Ordering::Relaxed), 2);
        assert_eq!(stats.responses_out.load(Ordering::Relaxed), 1);
    }

    #[tokio::test(start_paused = true)]
    async fn link_fault_drop_pattern_replays_from_seed() {
        // Two networks with identical per-link fault seeds must lose exactly
        // the same messages — the property chaos-schedule replay rests on.
        async fn pattern(seed: u64) -> Vec<bool> {
            let net = MemNetwork::new(7);
            net.set_rpc_timeout(Duration::from_millis(50));
            net.add_simple_server(ServerId(1), echo_handler());
            net.set_link_fault(
                ServerId(100),
                ServerId(1),
                FaultSpec { drop_rate: 0.5, dup_rate: 0.0, seed },
            );
            let client = net.client(ServerId(100));
            let mut out = Vec::new();
            for _ in 0..24 {
                out.push(
                    client
                        .call(ServerId(1), Request::Sync { master_id: MasterId(1) })
                        .await
                        .is_ok(),
                );
            }
            out
        }
        let a = pattern(42).await;
        let b = pattern(42).await;
        let c = pattern(43).await;
        assert_eq!(a, b, "same fault seed, same losses");
        assert_ne!(a, c, "different fault seed, different losses");
        assert!(a.iter().any(|x| *x) && a.iter().any(|x| !*x), "p=0.5 mixes both outcomes");
    }

    // NOTE on units: tokio's timer has 1 ms resolution (sleeps round up to
    // the next millisecond, even under a paused clock). Simulations that need
    // microsecond precision therefore express virtual time at a coarser tokio
    // scale (see `curp-sim`, which maps 1 virtual ns -> 1 tokio ms). The
    // transport itself is unit-agnostic; these tests use ms-scale durations.

    #[tokio::test(start_paused = true)]
    async fn latency_is_imposed_in_virtual_time() {
        let net = MemNetwork::new(1);
        net.set_default_latency(Arc::new(Fixed(Duration::from_millis(10))));
        net.add_simple_server(ServerId(1), echo_handler());
        let client = net.client(ServerId(100));
        let t0 = tokio::time::Instant::now();
        client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.unwrap();
        let rtt = t0.elapsed();
        assert_eq!(rtt, Duration::from_millis(20), "two one-way hops of 10ms");
    }

    #[tokio::test(start_paused = true)]
    async fn dispatch_cost_serializes_messages() {
        // One server with 5 ms dispatch cost per message; 10 concurrent
        // callers. Each call charges the server 2 messages (in + out), so
        // total virtual time must be >= 10 * 2 * 5 ms.
        let net = MemNetwork::new(1);
        net.set_default_latency(Arc::new(Fixed(Duration::ZERO)));
        net.set_rpc_timeout(Duration::from_secs(10));
        net.add_server(
            ServerId(1),
            echo_handler(),
            ServerSpec { dispatch_cost: Duration::from_millis(5) },
        );
        let t0 = tokio::time::Instant::now();
        let mut handles = Vec::new();
        for i in 0..10 {
            let client = net.client(ServerId(100 + i));
            handles.push(tokio::spawn(async move {
                client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.unwrap()
            }));
        }
        for h in handles {
            h.await.unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(100), "elapsed {:?}", t0.elapsed());
    }

    #[tokio::test(start_paused = true)]
    async fn per_link_latency_override() {
        let net = MemNetwork::new(1);
        net.set_default_latency(Arc::new(Fixed(Duration::from_millis(10))));
        net.add_simple_server(ServerId(1), echo_handler());
        // Make this client's link fast in both directions.
        net.set_link_latency(ServerId(100), ServerId(1), Arc::new(Fixed(Duration::ZERO)));
        net.set_link_latency(ServerId(1), ServerId(100), Arc::new(Fixed(Duration::ZERO)));
        let t0 = tokio::time::Instant::now();
        net.client(ServerId(100))
            .call(ServerId(1), Request::Sync { master_id: MasterId(1) })
            .await
            .unwrap();
        assert_eq!(t0.elapsed(), Duration::ZERO);
    }

    #[tokio::test(start_paused = true)]
    async fn stats_count_messages_and_bytes() {
        let net = MemNetwork::new(1);
        net.add_simple_server(ServerId(1), echo_handler());
        let client = net.client(ServerId(100));
        for _ in 0..3 {
            client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.unwrap();
        }
        let stats = net.stats(ServerId(1)).unwrap();
        assert_eq!(stats.requests_in.load(Ordering::Relaxed), 3);
        assert_eq!(stats.responses_out.load(Ordering::Relaxed), 3);
        assert!(stats.bytes_in.load(Ordering::Relaxed) > 0);
    }

    /// Handler whose per-request latency *decreases* with arrival order, so
    /// inner batch responses complete out of order and demultiplexing by
    /// position is actually exercised.
    fn staggered_handler() -> SharedHandler {
        use std::sync::atomic::AtomicU64;
        let arrivals = Arc::new(AtomicU64::new(0));
        Arc::new(move |_from: ServerId, req: Request| {
            let order = arrivals.fetch_add(1, Ordering::Relaxed);
            async move {
                // First arrival sleeps longest: completion order reverses.
                tokio::time::sleep(Duration::from_millis(50u64.saturating_sub(order * 10))).await;
                match req {
                    Request::RenewLease { client } => Response::Lease { client, ttl_ms: order },
                    _ => Response::Retry { reason: "unexpected".into() },
                }
            }
        })
    }

    #[tokio::test(start_paused = true)]
    async fn batch_is_one_message_and_demuxes_in_order() {
        use curp_proto::types::ClientId;
        let net = MemNetwork::new(1);
        net.add_simple_server(ServerId(1), staggered_handler());
        let client = net.client(ServerId(100));
        let reqs: Vec<Request> =
            (0..4).map(|i| Request::RenewLease { client: ClientId(i) }).collect();
        let rsps = client.call_batch(ServerId(1), reqs).await.unwrap();
        // responses[i] answers requests[i] even though handler completion
        // order was reversed (ttl_ms records arrival order).
        for (i, rsp) in rsps.iter().enumerate() {
            assert_eq!(
                *rsp,
                Response::Lease { client: ClientId(i as u64), ttl_ms: i as u64 },
                "response {i} mismatched"
            );
        }
        // The whole batch crossed the network as one message.
        let stats = net.stats(ServerId(1)).unwrap();
        assert_eq!(stats.requests_in.load(Ordering::Relaxed), 1);
        assert_eq!(stats.responses_out.load(Ordering::Relaxed), 1);
    }

    #[tokio::test(start_paused = true)]
    async fn empty_batch_resolves_without_network() {
        let net = MemNetwork::new(1);
        // No servers registered: any real call would be Unreachable.
        let client = net.client(ServerId(100));
        assert_eq!(client.call_batch(ServerId(9), Vec::new()).await.unwrap(), Vec::new());
    }

    #[tokio::test(start_paused = true)]
    async fn batch_amortizes_dispatch_cost() {
        // 8 ops through a 5 ms/message dispatch-bound server: one batch pays
        // 2 dispatch charges total, serial calls pay 2 per op.
        let net = MemNetwork::new(1);
        net.set_default_latency(Arc::new(Fixed(Duration::ZERO)));
        net.set_rpc_timeout(Duration::from_secs(10));
        net.add_server(
            ServerId(1),
            echo_handler(),
            ServerSpec { dispatch_cost: Duration::from_millis(5) },
        );
        let client = net.client(ServerId(100));
        let t0 = tokio::time::Instant::now();
        let rsps = client
            .call_batch(ServerId(1), vec![Request::Sync { master_id: MasterId(1) }; 8])
            .await
            .unwrap();
        assert_eq!(rsps, vec![Response::SyncDone; 8]);
        assert_eq!(t0.elapsed(), Duration::from_millis(10), "one message each way");
    }

    #[tokio::test(start_paused = true)]
    async fn concurrent_calls_do_not_interfere() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let net = MemNetwork::new(7);
        net.add_simple_server(
            ServerId(1),
            Arc::new(|_f: ServerId, _r: Request| async {
                HITS.fetch_add(1, Ordering::Relaxed);
                tokio::time::sleep(Duration::from_micros(50)).await;
                Response::SyncDone
            }),
        );
        let mut handles = Vec::new();
        for i in 0..64 {
            let client = net.client(ServerId(200 + i));
            handles.push(tokio::spawn(async move {
                client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await
            }));
        }
        for h in handles {
            assert!(h.await.unwrap().is_ok());
        }
        assert_eq!(HITS.load(Ordering::Relaxed), 64);
    }
}
