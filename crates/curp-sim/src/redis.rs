//! The Redis-class simulated deployment (Figures 8, 9, 10 and 13).
//!
//! §5.4 of the paper: Redis achieves durability by logging client requests
//! to an append-only file and fsyncing before responding; CURP hides that
//! fsync by recording on witnesses and writing the log in the background.
//! The model prices:
//!
//! * kernel TCP one-way latency with a heavy tail (latency "degrades
//!   rapidly above the 80th percentile", §5.4),
//! * ~2.5 µs of syscall cost per message at the client (the measured cost
//!   of the extra witness send/recv),
//! * an fsync of 50–100 µs on the NVMe append-only file, charged once per
//!   sync *batch* — Redis batches fsyncs across its event loop (§C.2),
//!   which the master's single-outstanding-sync machinery reproduces.
//!
//! The append-only file is modeled as a *local* backup (zero network
//! latency) whose sync handler sleeps for the fsync duration. "Original
//! Redis (durable)" is the master in `Replication::GroupCommit` mode against
//! that backup; "CURP (k witnesses)" keeps the backup asynchronous and adds
//! witness servers.

use std::sync::Arc;
use std::time::Duration;

use curp_core::client::{ClientConfig, CurpClient};
use curp_core::coordinator::{Coordinator, CoordinatorHandler};
use curp_core::master::{MasterConfig, Replication};
use curp_core::server::{CurpServer, ServerHandler};
use curp_proto::cluster::HashRange;
use curp_proto::message::{Request, Response};
use curp_proto::op::Op;
use curp_proto::types::ServerId;
use curp_transport::latency::{Fixed, NetProfile};
use curp_transport::mem::{MemNetwork, ServerSpec};
use curp_transport::rpc::{BoxFuture, RpcHandler};
use curp_witness::cache::CacheConfig;
use curp_workload::LatencyRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::RunResult;
use crate::time::{to_virtual_ns, vns, vus, MODEL_SCALE};

/// Which Redis configuration of Figure 8 to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedisMode {
    /// Plain cache: no fsync, no witnesses — fast and volatile.
    NonDurable,
    /// `appendfsync always`: fsync before every response (batched across
    /// the event loop under load, §C.2).
    Durable,
    /// CURP with `witnesses` witness servers hiding the fsync.
    Curp {
        /// Number of witnesses (1 or 2 in the paper).
        witnesses: usize,
    },
}

/// Model constants (virtual nanoseconds).
#[derive(Debug, Clone)]
pub struct RedisParams {
    /// Client syscall cost per message (~2.5 µs, §5.4).
    pub client_syscall_ns: u64,
    /// Server event-loop cost per message.
    pub server_dispatch_ns: u64,
    /// Command execution cost.
    pub exec_ns: u64,
    /// fsync on the NVMe AOF (50–100 µs, §5.4).
    pub fsync_ns: u64,
    /// Witness-server dispatch cost per message.
    pub witness_dispatch_ns: u64,
    /// Background AOF flush interval for the CURP modes.
    pub sync_interval_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RedisParams {
    fn default() -> Self {
        RedisParams {
            client_syscall_ns: 2_500,
            server_dispatch_ns: 1_200,
            exec_ns: 1_500,
            fsync_ns: 60_000,
            witness_dispatch_ns: 1_200,
            sync_interval_ns: 200_000, // 200 µs background AOF flush
            seed: 0x5EED_CAFE,
        }
    }
}

const COORD: ServerId = ServerId(9_999);
const MASTER: ServerId = ServerId(1);
const AOF: ServerId = ServerId(2);

/// Wraps the AOF backup so every sync batch pays one fsync.
struct AofHandler {
    inner: ServerHandler,
    fsync: Duration,
}

impl RpcHandler for AofHandler {
    fn handle(&self, from: ServerId, req: Request) -> BoxFuture<'static, Response> {
        let fut = self.inner.handle(from, req.clone());
        let fsync = self.fsync;
        let is_sync = matches!(req, Request::BackupSync { .. });
        Box::pin(async move {
            if is_sync {
                // One fsync per replicated batch, regardless of batch size —
                // this is what amortizes the cost under load (§C.2).
                tokio::time::sleep(fsync).await;
            }
            fut.await
        })
    }
}

/// A simulated single-node Redis deployment (plus witnesses under CURP).
pub struct RedisSim {
    /// The network (fault injection in tests).
    pub net: MemNetwork,
    mode: RedisMode,
    params: RedisParams,
}

impl RedisSim {
    /// Builds the deployment.
    pub async fn build(mode: RedisMode, params: RedisParams) -> RedisSim {
        let net = MemNetwork::new(params.seed);
        net.set_default_latency(Arc::new(NetProfile::TcpDatacenter.model().scaled(MODEL_SCALE)));
        net.set_rpc_timeout(vus(50_000));

        let witnesses_n = match mode {
            RedisMode::Curp { witnesses } => witnesses,
            _ => 0,
        };
        let durable = mode != RedisMode::NonDurable;

        let master_cfg = MasterConfig {
            batch_size: 64,
            sync_interval: vns(params.sync_interval_ns),
            exec_cost: vns(params.exec_ns),
            hotkey_sync: false,
            hotkey_window: 64,
            sync_retry_limit: 10,
            sync_retry_backoff: vus(100),
            // One event-loop iteration's worth of request gathering before
            // the shared fsync (§C.2), amortizing it across ready clients.
            replication: if mode == RedisMode::Durable {
                Replication::GroupCommit { gather: vus(25) }
            } else {
                Replication::Speculative
            },
            // Redis is single-threaded: one shard reproduces its serialized
            // command loop faithfully in the model.
            store: curp_storage::StoreConfig::memory(1),
        };
        let net_for_factory = net.clone();
        let coord = Coordinator::new(
            Box::new(move |id| net_for_factory.client(id)),
            master_cfg,
            u64::MAX / 4,
        );
        net.add_simple_server(COORD, Arc::new(CoordinatorHandler(Arc::clone(&coord))));

        // Redis server.
        let master_srv = CurpServer::new(MASTER, CacheConfig::default());
        net.add_server(
            MASTER,
            Arc::new(ServerHandler(Arc::clone(&master_srv))),
            ServerSpec { dispatch_cost: vns(params.server_dispatch_ns) },
        );
        coord.register_server(Arc::clone(&master_srv));

        // The AOF "backup": local (no network) and priced per fsync. Present
        // in every durable mode; the non-durable mode runs unreplicated.
        let mut backups = Vec::new();
        if durable {
            let aof_srv = CurpServer::new(AOF, CacheConfig::default());
            net.add_server(
                AOF,
                Arc::new(AofHandler {
                    inner: ServerHandler(Arc::clone(&aof_srv)),
                    fsync: vns(params.fsync_ns),
                }),
                ServerSpec { dispatch_cost: Duration::ZERO },
            );
            coord.register_server(Arc::clone(&aof_srv));
            // Local disk: zero network latency both ways.
            net.set_link_latency(MASTER, AOF, Arc::new(Fixed(Duration::ZERO)));
            net.set_link_latency(AOF, MASTER, Arc::new(Fixed(Duration::ZERO)));
            backups.push(AOF);
        }

        // Witness servers (separate Redis servers, §5.4).
        let mut witness_ids = Vec::new();
        for i in 0..witnesses_n {
            let id = ServerId(10 + i as u64);
            let w = CurpServer::new(id, CacheConfig::default());
            net.add_server(
                id,
                Arc::new(ServerHandler(Arc::clone(&w))),
                ServerSpec { dispatch_cost: vns(params.witness_dispatch_ns) },
            );
            coord.register_server(Arc::clone(&w));
            witness_ids.push(id);
        }

        coord
            .create_partition(MASTER, backups, witness_ids, HashRange::FULL)
            .await
            .expect("create redis partition");
        RedisSim { net, mode, params }
    }

    /// Creates a client with the TCP syscall cost model.
    pub async fn client(&self, index: usize) -> Arc<CurpClient> {
        let id = ServerId(100 + index as u64);
        self.net.add_server(
            id,
            Arc::new(|_f: ServerId, _r: Request| async move {
                Response::Retry { reason: "client".into() }
            }),
            ServerSpec { dispatch_cost: vns(self.params.client_syscall_ns) },
        );
        let cfg = ClientConfig {
            record_witnesses: matches!(self.mode, RedisMode::Curp { .. }),
            max_retries: 50,
            retry_backoff: vus(500),
            retry_backoff_max: vus(8_000),
        };
        Arc::new(CurpClient::connect(self.net.client(id), COORD, cfg).await.expect("connect"))
    }

    /// Sequential SET latency from one client (Figure 8): `samples` writes of
    /// `value_size` bytes to random keys drawn from `keys`.
    pub async fn measure_set_latency(
        &self,
        samples: usize,
        keys: u64,
        key_len: usize,
        value_size: usize,
    ) -> LatencyRecorder {
        let client = self.client(0).await;
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0xABCD);
        let mut rec = LatencyRecorder::new();
        for _ in 0..samples {
            let op = random_op(&mut rng, RedisCommand::Set, keys, key_len, value_size);
            let t0 = tokio::time::Instant::now();
            client.update(op).await.expect("set failed");
            rec.record_ns(to_virtual_ns(t0.elapsed()));
        }
        rec
    }

    /// Sequential latency for an arbitrary Redis command (Figure 10).
    pub async fn measure_command_latency(
        &self,
        command: RedisCommand,
        samples: usize,
        keys: u64,
        key_len: usize,
        value_size: usize,
    ) -> LatencyRecorder {
        let client = self.client(0).await;
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x1234);
        let mut rec = LatencyRecorder::new();
        for _ in 0..samples {
            let op = random_op(&mut rng, command, keys, key_len, value_size);
            let t0 = tokio::time::Instant::now();
            client.update(op).await.expect("command failed");
            rec.record_ns(to_virtual_ns(t0.elapsed()));
        }
        rec
    }

    /// Closed-loop SET throughput with `clients` clients (Figures 9/13).
    pub async fn run_closed_loop(&self, clients: usize, duration: Duration) -> RunResult {
        let mut handles = Vec::new();
        for c in 0..clients {
            let client = self.client(c).await;
            let seed = self.params.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            handles.push(tokio::spawn(async move {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut rec = LatencyRecorder::new();
                let deadline = tokio::time::Instant::now() + duration;
                let mut ops = 0u64;
                while tokio::time::Instant::now() < deadline {
                    let op = random_op(&mut rng, RedisCommand::Set, 2_000_000, 30, 100);
                    let t0 = tokio::time::Instant::now();
                    client.update(op).await.expect("set failed");
                    rec.record_ns(to_virtual_ns(t0.elapsed()));
                    ops += 1;
                }
                (rec, ops)
            }));
        }
        let mut writes = LatencyRecorder::new();
        let mut total = 0;
        for h in handles {
            let (rec, ops) = h.await.expect("client task");
            writes.merge(&rec);
            total += ops;
        }
        let secs = to_virtual_ns(duration) as f64 / 1e9;
        RunResult {
            writes,
            reads: LatencyRecorder::new(),
            throughput_ops_per_sec: total as f64 / secs,
            ops: total,
        }
    }
}

/// The Redis commands of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedisCommand {
    /// `SET key value` — 100 B string values in the paper.
    Set,
    /// `HMSET key field value` — one 100 B member, 1 B field key.
    Hmset,
    /// `INCR key`.
    Incr,
}

fn random_op(
    rng: &mut StdRng,
    command: RedisCommand,
    keys: u64,
    key_len: usize,
    value_size: usize,
) -> Op {
    // "a random 30B key over 2M unique keys" (Figure 10): random index,
    // zero-padded into a fixed-width key.
    let idx = rng.gen_range(0..keys);
    let key = bytes::Bytes::from(format!("{idx:0width$}", width = key_len));
    match command {
        RedisCommand::Set => {
            let mut value = vec![0u8; value_size];
            rng.fill(&mut value[..]);
            Op::Put { key, value: bytes::Bytes::from(value) }
        }
        RedisCommand::Hmset => {
            let mut value = vec![0u8; value_size];
            rng.fill(&mut value[..]);
            Op::HSet {
                key,
                field: bytes::Bytes::from_static(b"f"),
                value: bytes::Bytes::from(value),
            }
        }
        RedisCommand::Incr => Op::Incr { key, delta: 1 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::run_sim;

    fn median_set_us(mode: RedisMode) -> f64 {
        run_sim(async move {
            let sim = RedisSim::build(mode, RedisParams::default()).await;
            let mut rec = sim.measure_set_latency(200, 100_000, 30, 100).await;
            rec.median_us()
        })
    }

    #[test]
    fn durable_redis_pays_the_fsync() {
        let nd = median_set_us(RedisMode::NonDurable);
        let d = median_set_us(RedisMode::Durable);
        // Figure 8: non-durable ~25 µs; durable dominated by the ~85 µs fsync.
        assert!((15.0..40.0).contains(&nd), "non-durable median {nd:.1}");
        assert!(d > nd + 60.0, "durable {d:.1} vs non-durable {nd:.1}");
    }

    #[test]
    fn curp_hides_the_fsync() {
        let nd = median_set_us(RedisMode::NonDurable);
        let c1 = median_set_us(RedisMode::Curp { witnesses: 1 });
        // Figure 8: +~3 µs (12%) median for one witness — durability for ~free.
        let overhead = c1 - nd;
        assert!((0.0..12.0).contains(&overhead), "curp-1w {c1:.1} vs non-durable {nd:.1}");
    }

    #[test]
    fn second_witness_costs_more_via_tails() {
        let c1 = median_set_us(RedisMode::Curp { witnesses: 1 });
        let c2 = median_set_us(RedisMode::Curp { witnesses: 2 });
        // Figure 8/10: waiting on three heavy-tailed RPCs raises the median.
        assert!(c2 > c1, "2 witnesses {c2:.1} vs 1 witness {c1:.1}");
    }

    #[test]
    fn durable_throughput_approaches_nondurable_under_load() {
        // Figure 9: the event loop amortizes one fsync across all ready
        // clients, so with enough clients the durable server becomes
        // dispatch-bound like the non-durable one ("the original synchronous
        // form of Redis can offer throughput approaching non-durable Redis").
        let tp = |mode, clients| {
            run_sim(async move {
                let sim = RedisSim::build(mode, RedisParams::default()).await;
                let r = sim.run_closed_loop(clients, vus(40_000)).await;
                r.throughput_ops_per_sec
            })
        };
        let nd = tp(RedisMode::NonDurable, 50);
        let d_few = tp(RedisMode::Durable, 4);
        let d_many = tp(RedisMode::Durable, 50);
        assert!(d_many > nd * 0.5, "durable@50 {d_many:.0} should approach non-durable {nd:.0}");
        // And the gap must be wide at low client counts (the fsync shows).
        assert!(
            d_few < nd * 0.35,
            "durable@4 {d_few:.0} should lag far behind non-durable {nd:.0}"
        );
    }
}

#[cfg(test)]
mod batching {
    use super::*;
    use crate::time::run_sim;

    #[test]
    fn event_loop_amortizes_fsyncs_across_clients() {
        // §C.2: "for each event-loop cycle, Redis ... executes all requests
        // ... after the iteration, Redis fsyncs once". Under 20 concurrent
        // clients the average ops-per-fsync must be well above 1.
        run_sim(async move {
            let sim = RedisSim::build(RedisMode::Durable, RedisParams::default()).await;
            let r = sim.run_closed_loop(20, vus(40_000)).await;
            let aof = sim.net.stats(AOF).unwrap();
            let syncs = aof.requests_in.load(std::sync::atomic::Ordering::Relaxed);
            let per = r.ops as f64 / syncs as f64;
            assert!(per > 5.0, "only {per:.1} ops per fsync ({} ops, {syncs} fsyncs)", r.ops);
        });
    }
}
