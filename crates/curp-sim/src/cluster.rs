//! The RAMCloud-class simulated cluster (Figures 5, 6, 7 and 12).
//!
//! Calibration targets come straight from §5.1: small unreplicated writes
//! ≈ 6.9 µs, CURP (f=3) ≈ 7.3 µs, synchronous 3-way replication ≈ 13.8 µs,
//! single-server CURP throughput ≈ 4× the synchronous baseline with masters
//! bottlenecked on a dispatch thread. The model prices four things:
//!
//! * one-way network delay — the InfiniBand profile (~2.2 µs, thin tail);
//! * a per-message *dispatch* cost at every server (the RAMCloud dispatch
//!   thread), which serializes and therefore bounds throughput;
//! * a per-message client-side cost (NIC/doorbell handling) — this is what
//!   makes CURP f=3 slightly slower than unreplicated (more responses to
//!   process), the paper's 0.4 µs;
//! * a per-operation execution cost on the master's worker threads
//!   (parallel, so it adds latency but not a throughput ceiling).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use curp_core::client::{ClientConfig, CurpClient, PipelineConfig, PipelinedClient};
use curp_core::coordinator::{Coordinator, CoordinatorHandler};
use curp_core::master::{MasterConfig, Replication};
use curp_core::server::{CurpServer, ServerHandler};
use curp_proto::cluster::HashRange;
use curp_proto::op::Op;
use curp_proto::types::{MasterId, ServerId};
use curp_storage::StoreConfig;
use curp_transport::latency::NetProfile;
use curp_transport::mem::{MemNetwork, ServerSpec};
use curp_witness::cache::CacheConfig;
use curp_workload::open_loop::{run_open_loop, OpenLoopConfig, OpenLoopReport};
use curp_workload::{LatencyRecorder, Workload, WorkloadOp};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::time::{to_virtual_ns, vns, vus, MODEL_SCALE};

/// Which of the paper's four systems to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CURP: speculative masters + witnesses (the contribution).
    Curp,
    /// "Original RAMCloud": synchronous replication before every response.
    Original,
    /// Async replication: masters respond before syncing, clients complete
    /// without witnesses — fast but *not* durable (Figure 6's upper bound).
    Async,
    /// No replication at all.
    Unreplicated,
}

/// Calibrated model constants (virtual nanoseconds).
#[derive(Debug, Clone)]
pub struct RamcloudParams {
    /// Replication / witness factor `f`.
    pub f: usize,
    /// Master dispatch cost per message.
    pub master_dispatch_ns: u64,
    /// Backup/witness dispatch cost per message.
    pub server_dispatch_ns: u64,
    /// Client per-message cost.
    pub client_dispatch_ns: u64,
    /// Master worker execution cost per operation.
    pub exec_ns: u64,
    /// Sync batch size (Figure 12 sweeps this).
    pub batch_size: usize,
    /// Idle flush interval for the background syncer (virtual ns).
    pub sync_interval_ns: u64,
    /// Enable the §4.4 hot-key preemptive sync heuristic.
    pub hotkey_sync: bool,
    /// Host witnesses on their own `f` servers instead of co-hosting them
    /// with the backups (the default, as Figure 2's co-hosting allows).
    /// Separate hosts make witness-only failures observable: crashing a
    /// witness then leaves every backup reachable, isolating the §4.4
    /// record-failure → sync fallback.
    pub separate_witnesses: bool,
    /// Role-less servers kept in reserve. One is enough for master-recovery
    /// churn; elastic scale-out ([`curp_core::coordinator::Autoscaler`])
    /// consumes one spare per split, so a ramp to `n` partitions from one
    /// needs `n - 1`. Spares are modeled with a master's dispatch cost —
    /// that is the role they take when promoted — and carry no traffic
    /// until then, so they leave the §5.1 calibration untouched.
    pub spares: usize,
    /// RNG seed for the network latency model.
    pub seed: u64,
    /// When set, every backup role runs on the larger-than-memory
    /// [`curp_storage::TieredStore`] rooted under this directory, tuned
    /// aggressively (1 KiB memtable budget, merge threshold 2) so even
    /// short simulated workloads spill to sorted runs and exercise the
    /// compaction path. `None` keeps the in-memory engine.
    pub tiered: Option<std::path::PathBuf>,
}

impl RamcloudParams {
    /// Defaults calibrated against Table 1 / §5.1.
    pub fn new(f: usize) -> Self {
        RamcloudParams {
            f,
            master_dispatch_ns: 600,
            server_dispatch_ns: 300,
            client_dispatch_ns: 55,
            exec_ns: 900,
            batch_size: 50,
            sync_interval_ns: 20_000, // 20 µs idle flush
            hotkey_sync: true,
            separate_witnesses: false,
            spares: 1,
            seed: 0xCB5B_F00D,
            tiered: None,
        }
    }
}

/// Output of a closed-loop run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-operation latencies (write ops only unless noted).
    pub writes: LatencyRecorder,
    /// Read latencies (empty for write-only workloads).
    pub reads: LatencyRecorder,
    /// Completed operations per virtual second.
    pub throughput_ops_per_sec: f64,
    /// Total operations completed.
    pub ops: u64,
}

const COORD: ServerId = ServerId(9_999);

/// A simulated RAMCloud-class cluster.
pub struct SimCluster {
    /// The underlying network (exposed for fault injection in tests).
    pub net: MemNetwork,
    /// The coordinator (exposed for recovery orchestration in tests).
    pub coord: Arc<Coordinator>,
    /// All servers: the partition masters first, then the f replica servers
    /// (co-hosted backup + witness), then [`RamcloudParams::spares`] spares.
    pub servers: Vec<Arc<CurpServer>>,
    /// The first partition's master id.
    pub master_id: MasterId,
    /// Every partition's master id, in hash-range order.
    pub master_ids: Vec<MasterId>,
    mode: Mode,
    params: RamcloudParams,
    partitions: usize,
    /// Root of the per-server data directories when built durable
    /// ([`SimCluster::build_durable`]); `None` for a memory-only cluster.
    durable_root: Option<PathBuf>,
}

impl SimCluster {
    /// Builds a one-partition cluster in the given mode.
    pub async fn build(mode: Mode, params: RamcloudParams) -> SimCluster {
        Self::build_partitioned(mode, params, 1).await
    }

    /// Builds a cluster whose key-hash space is split evenly across
    /// `partitions` masters (`ServerId(1..=partitions)`, each with its own
    /// dispatch thread). The `f` replica servers co-host backup and witness
    /// instances for *every* partition, as the paper's Figure 2 co-hosting
    /// allows.
    pub async fn build_partitioned(
        mode: Mode,
        params: RamcloudParams,
        partitions: usize,
    ) -> SimCluster {
        Self::build_inner(mode, params, partitions, None).await
    }

    /// Builds a **durable** cluster: every server is a
    /// [`CurpServer::new_durable`] rooted at `root/s<id>`, so backups
    /// write-ahead-log sync rounds to per-master AOFs and witnesses journal
    /// every record before acknowledging. Pair with
    /// [`power_loss_restart`](Self::power_loss_restart) for the §5.4
    /// whole-cluster crash scenario.
    pub async fn build_durable(
        mode: Mode,
        params: RamcloudParams,
        partitions: usize,
        root: &Path,
    ) -> SimCluster {
        Self::build_inner(mode, params, partitions, Some(root.to_path_buf())).await
    }

    async fn build_inner(
        mode: Mode,
        params: RamcloudParams,
        partitions: usize,
        durable_root: Option<PathBuf>,
    ) -> SimCluster {
        assert!(partitions >= 1);
        let f = match mode {
            Mode::Unreplicated => 0,
            _ => params.f,
        };
        let net = MemNetwork::new(params.seed);
        net.set_default_latency(Arc::new(NetProfile::Infiniband.model().scaled(MODEL_SCALE)));
        net.set_rpc_timeout(vus(5_000));

        let master_cfg = MasterConfig {
            batch_size: params.batch_size,
            sync_interval: vns(params.sync_interval_ns),
            exec_cost: vns(params.exec_ns),
            hotkey_sync: params.hotkey_sync && mode == Mode::Curp,
            hotkey_window: params.batch_size as u64,
            sync_retry_limit: 10,
            sync_retry_backoff: vus(100),
            replication: if mode == Mode::Original {
                Replication::PerRequest
            } else {
                Replication::Speculative
            },
            ..MasterConfig::default()
        };
        let net_for_factory = net.clone();
        // On a durable cluster the coordinator write-ahead-logs every
        // orchestration plan (recovery, migration) to an intent log under
        // the same root, so a coordinator kill mid-plan can cold-boot and
        // resume — see `CoordinatorCrash` in `nemesis.rs`.
        let coord = match &durable_root {
            Some(root) => {
                std::fs::create_dir_all(root).expect("create durable root");
                Coordinator::new_durable(
                    Box::new(move |id| net_for_factory.client(id)),
                    master_cfg,
                    u64::MAX / 4, // leases effectively never expire inside a run
                    &root.join("coordinator.intent"),
                )
                .expect("open coordinator intent log")
            }
            None => Coordinator::new(
                Box::new(move |id| net_for_factory.client(id)),
                master_cfg,
                u64::MAX / 4,
            ),
        };
        net.add_simple_server(COORD, Arc::new(CoordinatorHandler(Arc::clone(&coord))));

        // Masters on s1..=sN with their dispatch threads; f replica servers
        // hosting backup + witness (co-hosted, Figure 2) — or, with
        // `separate_witnesses`, f backup servers followed by f witness-only
        // servers; `params.spares` spares for recovery and scale-out.
        let wit_extra = if params.separate_witnesses && mode == Mode::Curp { params.f } else { 0 };
        let mut servers = Vec::new();
        for i in 1..=(partitions + f + wit_extra + params.spares.max(1)) {
            let s = Self::boot_server(i, durable_root.as_deref(), params.tiered.as_deref());
            let dispatch = Self::dispatch_cost(i, partitions, f + wit_extra, &params);
            net.add_server(
                s.id(),
                Arc::new(ServerHandler(Arc::clone(&s))),
                ServerSpec { dispatch_cost: dispatch },
            );
            coord.register_server(Arc::clone(&s));
            servers.push(s);
        }
        let backups: Vec<ServerId> =
            (partitions + 1..partitions + 1 + f).map(|i| ServerId(i as u64)).collect();
        let witnesses: Vec<ServerId> = if mode == Mode::Curp {
            if wit_extra > 0 {
                (partitions + 1 + f..partitions + 1 + f + wit_extra)
                    .map(|i| ServerId(i as u64))
                    .collect()
            } else {
                backups.clone()
            }
        } else {
            Vec::new()
        };

        // Even split of the hash space: partition p owns [p*stride,
        // (p+1)*stride), with the last range running to u64::MAX (inclusive
        // of the top hash, see HashRange).
        let stride = u64::MAX / partitions as u64;
        let mut master_ids = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let range = HashRange {
                start: p as u64 * stride,
                end: if p + 1 == partitions { u64::MAX } else { (p as u64 + 1) * stride },
            };
            let id = coord
                .create_partition(ServerId(p as u64 + 1), backups.clone(), witnesses.clone(), range)
                .await
                .expect("create partition");
            master_ids.push(id);
        }
        let master_id = master_ids[0];
        SimCluster {
            net,
            coord,
            servers,
            master_id,
            master_ids,
            mode,
            params,
            partitions,
            durable_root,
        }
    }

    /// Boots (or reboots) server `i`'s process object: durable servers
    /// reopen their data directory, which replays the backup AOFs and the
    /// witness journal. With `tiered` set, the backup role's replicas run
    /// on the larger-than-memory engine rooted under that directory.
    fn boot_server(i: usize, root: Option<&Path>, tiered: Option<&Path>) -> Arc<CurpServer> {
        let id = ServerId(i as u64);
        let store = match tiered {
            Some(tier_root) => {
                let mut cfg = StoreConfig::tiered(1, tier_root);
                if let Some(tier) = cfg.tier.as_mut() {
                    // Spill even on short simulated workloads.
                    tier.memtable_budget = 1024;
                    tier.merge_threshold = 2;
                }
                cfg
            }
            None => StoreConfig::memory(1),
        };
        match root {
            Some(root) => CurpServer::new_durable_with(
                id,
                CacheConfig::default(),
                &root.join(format!("s{i}")),
                store,
            )
            .unwrap_or_else(|e| panic!("boot durable server s{i}: {e}")),
            None => CurpServer::new_with(id, CacheConfig::default(), store),
        }
    }

    /// Spares (beyond the `replicas` backup/witness block) are priced like
    /// masters: promotion — churn recovery or an autoscaler split — is the
    /// only way they ever see traffic, and it hands them a master's
    /// dispatch thread.
    fn dispatch_cost(
        i: usize,
        partitions: usize,
        replicas: usize,
        params: &RamcloudParams,
    ) -> Duration {
        if i <= partitions || i > partitions + replicas {
            vns(params.master_dispatch_ns)
        } else {
            vns(params.server_dispatch_ns)
        }
    }

    /// Size of the backup/witness server block laid out after the masters.
    fn replica_block(&self) -> usize {
        self.f() + if self.witnesses_separate() { self.f() } else { 0 }
    }

    /// The power-loss nemesis (§5.4's crash model, applied to the whole
    /// cluster at once): every server process dies instantly — in-flight
    /// requests vanish, in-memory state is gone — then each is cold-booted
    /// from its on-disk state (backup AOFs + witness journals) and the
    /// coordinator rebuilds every partition via
    /// `Coordinator::restart_cluster`. Requires a cluster built with
    /// [`build_durable`](Self::build_durable).
    ///
    /// Safe to run under concurrent load: clients see timeouts and retries
    /// while the power is out, and complete (or report failure) once the
    /// restarted cluster publishes its new partition map. Returns the new
    /// master ids in partition order and updates `master_id(s)`.
    pub async fn power_loss_restart(&mut self) -> Result<Vec<MasterId>, String> {
        let root = self
            .durable_root
            .clone()
            .ok_or_else(|| "power_loss_restart requires build_durable".to_string())?;
        // Lights out. Sealing the old masters models the process death of
        // their background syncer tasks (a real power loss stops them; the
        // sim's tasks would otherwise keep running off the old Arcs).
        for s in &self.servers {
            self.net.crash(s.id());
            s.seal_master();
        }
        // Cold boot: fresh process objects over the same directories. The
        // durable constructor replays each server's AOFs and journal;
        // re-registering the handler clears the crashed flag (a machine
        // that powered back on).
        let mut fresh = Vec::with_capacity(self.servers.len());
        for idx in 0..self.servers.len() {
            let i = idx + 1;
            let s = Self::boot_server(i, Some(root.as_path()), self.params.tiered.as_deref());
            let dispatch =
                Self::dispatch_cost(i, self.partitions, self.replica_block(), &self.params);
            self.net.add_server(
                s.id(),
                Arc::new(ServerHandler(Arc::clone(&s))),
                ServerSpec { dispatch_cost: dispatch },
            );
            self.coord.register_server(Arc::clone(&s));
            fresh.push(s);
        }
        self.servers = fresh;
        // The coordinator (the consensus-backed config store the paper
        // assumes) survives the outage and re-anchors every partition —
        // but the outage may have caught it mid-plan, so it first re-reads
        // its intent log from disk (the same cold-boot path a coordinator
        // process restart takes) and `restart_cluster` resumes whatever was
        // in flight after the per-partition recoveries.
        self.coord.reload_intent().map_err(|e| format!("reload intent log: {e}"))?;
        let new_ids = self.coord.restart_cluster().await?;
        self.master_ids = new_ids.clone();
        self.master_id = new_ids[0];
        Ok(new_ids)
    }

    /// Whether this cluster persists server state on disk.
    pub fn is_durable(&self) -> bool {
        self.durable_root.is_some()
    }

    /// Simulates a coordinator process kill + cold boot. The *kill* half is
    /// the caller's job — drop the in-flight orchestration future (e.g. by
    /// racing it against a timer in `tokio::select!`); this is the *boot*
    /// half: discard the in-memory plan mirror and re-read the intent log
    /// from disk, exactly like a restarted coordinator process. Returns the
    /// number of open (interrupted) plans found on disk; drive them with
    /// [`Coordinator::resume_plans`]. Requires [`build_durable`](Self::build_durable).
    pub fn coordinator_cold_boot(&self) -> Result<usize, String> {
        if self.durable_root.is_none() {
            return Err("coordinator_cold_boot requires build_durable".into());
        }
        self.coord.reload_intent().map_err(|e| format!("reload intent log: {e}"))
    }

    fn f(&self) -> usize {
        match self.mode {
            Mode::Unreplicated => 0,
            _ => self.params.f,
        }
    }

    fn witnesses_separate(&self) -> bool {
        self.params.separate_witnesses && self.mode == Mode::Curp
    }

    /// Servers currently hosting a live master, in partition order.
    pub fn master_servers(&self) -> Vec<ServerId> {
        self.coord.config().partitions.iter().map(|p| p.master).collect()
    }

    /// The `f` backup servers (static layout: right after the masters).
    pub fn backup_servers(&self) -> Vec<ServerId> {
        (self.partitions + 1..self.partitions + 1 + self.f()).map(|i| ServerId(i as u64)).collect()
    }

    /// The witness servers: the backup servers when co-hosted (default), a
    /// separate block of `f` servers under
    /// [`RamcloudParams::separate_witnesses`].
    pub fn witness_servers(&self) -> Vec<ServerId> {
        if self.mode != Mode::Curp {
            return Vec::new();
        }
        let start = if self.witnesses_separate() {
            self.partitions + 1 + self.f()
        } else {
            self.partitions + 1
        };
        (start..start + self.f()).map(|i| ServerId(i as u64)).collect()
    }

    /// A registered, reachable server holding no current role — the
    /// recovery target [`churn_master`](Self::churn_master) uses.
    pub fn spare_server(&self) -> Option<ServerId> {
        let cfg = self.coord.config();
        self.servers.iter().map(|s| s.id()).find(|id| {
            !self.net.is_crashed(*id)
                && cfg.partitions.iter().all(|p| {
                    p.master != *id && !p.backups.contains(id) && !p.witnesses.contains(id)
                })
        })
    }

    /// The server process object for `id`, if it exists.
    pub fn server(&self, id: ServerId) -> Option<&Arc<CurpServer>> {
        self.servers.iter().find(|s| s.id() == id)
    }

    /// Crashes one server: its NIC goes dark (requests to it time out) and
    /// any master it hosts stops its background syncer — the sim-level
    /// stand-in for the process dying.
    pub fn crash_server(&self, id: ServerId) {
        self.net.crash(id);
        if let Some(s) = self.server(id) {
            s.seal_master();
        }
    }

    /// Restarts a crashed server. On a durable cluster this is a **cold**
    /// restart: a fresh process object is booted from the server's data
    /// directory alone (AOF + witness-journal replay), exactly like one
    /// machine of [`power_loss_restart`](Self::power_loss_restart). On a
    /// memory-only cluster there is no disk to reboot from, so the restart
    /// is warm (state intact, as after a network outage).
    ///
    /// Refuses to restart a server currently listed as a partition's master:
    /// a master's speculative (unsynced) state cannot be cold-booted — that
    /// incarnation must go through
    /// [`Coordinator::recover_master`] instead (see
    /// [`churn_master`](Self::churn_master)).
    pub fn restart_server(&mut self, id: ServerId) -> Result<(), String> {
        if self.coord.config().partitions.iter().any(|p| p.master == id) {
            return Err(format!("s{} hosts a live master; use churn_master", id.0));
        }
        match self.durable_root.clone() {
            Some(root) => {
                let i = id.0 as usize;
                let s = Self::boot_server(i, Some(root.as_path()), self.params.tiered.as_deref());
                let dispatch =
                    Self::dispatch_cost(i, self.partitions, self.replica_block(), &self.params);
                // add_server installs a fresh (non-crashed) entry.
                self.net.add_server(
                    id,
                    Arc::new(ServerHandler(Arc::clone(&s))),
                    ServerSpec { dispatch_cost: dispatch },
                );
                self.coord.register_server(Arc::clone(&s));
                match self.servers.iter_mut().find(|srv| srv.id() == id) {
                    Some(slot) => *slot = s,
                    None => self.servers.push(s),
                }
            }
            None => self.net.restart(id),
        }
        Ok(())
    }

    /// Master recovery churn: crashes the partition's master host and
    /// recovers the partition onto the current spare (§3.3/§4.6), then
    /// brings the old host back so it becomes the next spare. Retries the
    /// recovery while concurrent faults (a crashed backup, a partitioned
    /// witness) keep it from completing. Returns the new master id.
    pub async fn churn_master(&mut self, partition: usize) -> Result<MasterId, String> {
        let part = self
            .coord
            .config()
            .partitions
            .get(partition)
            .cloned()
            .ok_or_else(|| format!("no partition {partition}"))?;
        let spare = self.spare_server().ok_or("no spare server available")?;
        self.crash_server(part.master);
        let mut last_err = String::new();
        for _ in 0..40 {
            match self.coord.recover_master(part.master_id, spare).await {
                Ok(new_id) => {
                    self.master_ids[partition] = new_id;
                    if partition == 0 {
                        self.master_id = new_id;
                    }
                    // The deposed host rejoins as a role-less server (the
                    // next spare). Cold on durable clusters.
                    self.restart_server(part.master)?;
                    return Ok(new_id);
                }
                Err(e) => {
                    last_err = e;
                    tokio::time::sleep(vus(250)).await;
                }
            }
        }
        Err(format!("recover_master kept failing: {last_err}"))
    }

    /// Creates a client. Client ids start at 100 and each gets its own
    /// dispatch model (per-message NIC cost).
    pub async fn client(&self, index: usize) -> Arc<CurpClient> {
        let id = ServerId(100 + index as u64);
        // Clients are registered as (handler-less) servers only to give them
        // a dispatch cost; they never receive requests.
        self.net.add_server(
            id,
            Arc::new(|_from: ServerId, _req| async move {
                curp_proto::message::Response::Retry { reason: "client".into() }
            }),
            ServerSpec { dispatch_cost: vns(self.params.client_dispatch_ns) },
        );
        let cfg = ClientConfig {
            record_witnesses: self.mode == Mode::Curp,
            max_retries: 50,
            retry_backoff: vus(50),
            retry_backoff_max: vus(800),
        };
        Arc::new(
            CurpClient::connect(self.net.client(id), COORD, cfg).await.expect("client connect"),
        )
    }

    /// Runs `clients` closed-loop clients for `duration` of virtual time,
    /// each drawing operations from its own copy of `make_workload()`.
    pub async fn run_closed_loop(
        &self,
        clients: usize,
        duration: Duration,
        make_workload: impl Fn(usize) -> Workload,
    ) -> RunResult {
        let mut handles = Vec::new();
        for c in 0..clients {
            let client = self.client(c).await;
            let mut workload = make_workload(c);
            let seed = self.params.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            handles.push(tokio::spawn(async move {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut writes = LatencyRecorder::new();
                let mut reads = LatencyRecorder::new();
                let deadline = tokio::time::Instant::now() + duration;
                let mut ops = 0u64;
                while tokio::time::Instant::now() < deadline {
                    let op = workload.next_op(&mut rng);
                    let t0 = tokio::time::Instant::now();
                    match op {
                        WorkloadOp::Update { key, value } => {
                            client.update(Op::Put { key, value }).await.expect("update failed");
                            writes.record_ns(to_virtual_ns(t0.elapsed()));
                        }
                        WorkloadOp::Read { key } => {
                            client.read(Op::Get { key }).await.expect("read failed");
                            reads.record_ns(to_virtual_ns(t0.elapsed()));
                        }
                    }
                    ops += 1;
                }
                (writes, reads, ops)
            }));
        }
        let mut writes = LatencyRecorder::new();
        let mut reads = LatencyRecorder::new();
        let mut total_ops = 0;
        for h in handles {
            let (w, r, ops) = h.await.expect("client task");
            writes.merge(&w);
            reads.merge(&r);
            total_ops += ops;
        }
        let secs = to_virtual_ns(duration) as f64 / 1e9;
        RunResult { writes, reads, throughput_ops_per_sec: total_ops as f64 / secs, ops: total_ops }
    }

    /// Creates a pipelined (windowed, batching) client over this cluster.
    pub async fn pipelined_client(
        &self,
        index: usize,
        pcfg: PipelineConfig,
    ) -> Arc<PipelinedClient> {
        PipelinedClient::new(self.client(index).await, pcfg)
    }

    /// Issues `ops` uniform 100 B writes one at a time (one op in flight)
    /// and returns the elapsed **virtual** time — the serial baseline the
    /// pipelined path is measured against.
    pub async fn time_serial_updates(&self, ops: u64, keys: u64) -> Duration {
        let client = self.client(0).await;
        let mut workload = Workload::uniform_writes(keys);
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x5E51A1);
        let t0 = tokio::time::Instant::now();
        for _ in 0..ops {
            let WorkloadOp::Update { key, value } = workload.next_op(&mut rng) else {
                unreachable!("write-only workload")
            };
            client.update(Op::Put { key, value }).await.expect("serial update");
        }
        t0.elapsed()
    }

    /// Issues the same uniform write stream through a pipelined client
    /// (window/batch per `pcfg`) and returns the elapsed **virtual** time
    /// from first submission to last completion.
    pub async fn time_pipelined_updates(
        &self,
        ops: u64,
        keys: u64,
        pcfg: PipelineConfig,
    ) -> Duration {
        let pipe = self.pipelined_client(0, pcfg).await;
        let mut workload = Workload::uniform_writes(keys);
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x5E51A1);
        let t0 = tokio::time::Instant::now();
        let mut completions = Vec::with_capacity(ops as usize);
        for _ in 0..ops {
            let WorkloadOp::Update { key, value } = workload.next_op(&mut rng) else {
                unreachable!("write-only workload")
            };
            // submit applies window backpressure; completions resolve later.
            completions.push(pipe.submit(Op::Put { key, value }).await.expect("submit"));
        }
        for c in completions {
            c.await.expect("pipelined update");
        }
        t0.elapsed()
    }

    /// Runs the open-loop driver against this cluster through a pipelined
    /// client: operations arrive every `interval_vns` virtual nanoseconds
    /// whether or not earlier ones completed, and latency is measured from
    /// scheduled arrival (queueing included). The whole report — latencies
    /// *and* `elapsed` — is converted back to protocol-scale (virtual)
    /// nanoseconds before returning.
    pub async fn run_open_loop(
        &self,
        interval_vns: u64,
        ops: u64,
        pcfg: PipelineConfig,
        workload: Workload,
    ) -> OpenLoopReport {
        let pipe = self.pipelined_client(0, pcfg).await;
        self.run_open_loop_on(&pipe, interval_vns, ops, workload, 0).await
    }

    /// Like [`run_open_loop`](Self::run_open_loop), but drives an **existing**
    /// pipelined client instead of creating one. This is the saturation-ramp
    /// building block: phases of offered load share one client handle, so
    /// its cached partition map, per-master pipes and RIFL lease live
    /// through whatever reconfiguration (autoscaler splits, churn) happens
    /// between or during phases. `salt` decorrelates the workload RNG
    /// across phases.
    pub async fn run_open_loop_on(
        &self,
        pipe: &Arc<PipelinedClient>,
        interval_vns: u64,
        ops: u64,
        mut workload: Workload,
        salt: u64,
    ) -> OpenLoopReport {
        let pipe = Arc::clone(pipe);
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x09E7 ^ salt);
        let cfg = OpenLoopConfig { interval: vns(interval_vns), ops };
        let mut report = run_open_loop(&mut workload, &mut rng, cfg, move |op| {
            let pipe = Arc::clone(&pipe);
            async move {
                let submitted = match op {
                    WorkloadOp::Update { key, value } => pipe.submit(Op::Put { key, value }).await,
                    WorkloadOp::Read { key } => pipe.submit(Op::Get { key }).await,
                };
                match submitted {
                    Ok(completion) => completion.await.is_ok(),
                    Err(_) => false,
                }
            }
        })
        .await;
        // Everything was measured in inflated tokio time (1 virtual ns = 1
        // tokio ms); scale the whole report back to virtual nanoseconds so
        // its fields stay unit-consistent — `throughput(Duration::from_secs(1))`
        // then yields ops per virtual second directly.
        report.latency = report.latency.scaled_down(MODEL_SCALE as u64);
        report.elapsed = Duration::from_nanos(to_virtual_ns(report.elapsed));
        report
    }

    /// Measures sequential write latency from a single client (Figure 5):
    /// `samples` back-to-back 100 B writes to random keys.
    pub async fn measure_write_latency(&self, samples: usize, keys: u64) -> LatencyRecorder {
        let client = self.client(0).await;
        let mut workload = Workload::uniform_writes(keys);
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0xFEED);
        let mut rec = LatencyRecorder::new();
        for _ in 0..samples {
            let op = loop {
                match workload.next_op(&mut rng) {
                    WorkloadOp::Update { key, value } => break Op::Put { key, value },
                    WorkloadOp::Read { .. } => continue,
                }
            };
            let t0 = tokio::time::Instant::now();
            client.update(op).await.expect("write failed");
            rec.record_ns(to_virtual_ns(t0.elapsed()));
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::run_sim;

    fn median_us(mode: Mode, f: usize) -> f64 {
        run_sim(async move {
            let cluster = SimCluster::build(mode, RamcloudParams::new(f)).await;
            let mut rec = cluster.measure_write_latency(300, 100_000).await;
            rec.median_us()
        })
    }

    #[test]
    fn unreplicated_latency_matches_paper_scale() {
        let m = median_us(Mode::Unreplicated, 0);
        // §5.1: 6.9 µs.
        assert!((6.0..8.0).contains(&m), "unreplicated median {m:.2} µs");
    }

    #[test]
    fn curp_f3_is_close_to_unreplicated() {
        let unrep = median_us(Mode::Unreplicated, 0);
        let curp = median_us(Mode::Curp, 3);
        // §5.1: 7.3 vs 6.9 µs — within ~10%.
        let overhead = curp - unrep;
        assert!((0.0..1.5).contains(&overhead), "CURP {curp:.2} vs unreplicated {unrep:.2}");
    }

    #[test]
    fn original_is_roughly_twice_curp() {
        let curp = median_us(Mode::Curp, 3);
        let orig = median_us(Mode::Original, 3);
        let ratio = orig / curp;
        // §5.1: "CURP cuts the median write latencies in half" (13.8 / 7.3 ≈ 1.9).
        assert!((1.5..2.6).contains(&ratio), "orig {orig:.2} / curp {curp:.2} = {ratio:.2}");
    }

    #[test]
    fn pipelined_client_at_least_doubles_serial_throughput() {
        // The acceptance bar for the pipelined/batched client: the same 300
        // uniform writes finish in less than half the virtual time of the
        // one-op-in-flight client (in practice far less — a window of 16
        // overlaps sixteen round trips).
        let (serial, pipelined) = run_sim(async {
            let cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            let serial = cluster.time_serial_updates(300, 100_000).await;
            let pipelined =
                cluster.time_pipelined_updates(300, 100_000, PipelineConfig::default()).await;
            (serial, pipelined)
        });
        let speedup = serial.as_secs_f64() / pipelined.as_secs_f64();
        assert!(
            speedup >= 2.0,
            "pipelined speedup only {speedup:.2}x ({serial:?} vs {pipelined:?})"
        );
    }

    #[test]
    fn pipelined_client_drives_all_partitions_concurrently() {
        run_sim(async {
            let cluster =
                SimCluster::build_partitioned(Mode::Curp, RamcloudParams::new(3), 4).await;
            assert_eq!(cluster.master_ids.len(), 4);
            let pipe = cluster.pipelined_client(0, PipelineConfig::default()).await;
            // Uniform keys hash across the whole space, so one client's
            // stream fans out over every master.
            let mut workload = Workload::uniform_writes(10_000);
            let mut rng = StdRng::seed_from_u64(7);
            let mut completions = Vec::new();
            for _ in 0..200 {
                let WorkloadOp::Update { key, value } = workload.next_op(&mut rng) else {
                    unreachable!()
                };
                completions.push(pipe.submit(Op::Put { key, value }).await.expect("submit"));
            }
            for c in completions {
                c.await.expect("pipelined update");
            }
            for m in 1..=4u64 {
                let hits = cluster
                    .net
                    .stats(ServerId(m))
                    .unwrap()
                    .requests_in
                    .load(std::sync::atomic::Ordering::Relaxed);
                assert!(hits > 0, "master s{m} never saw a request");
            }
        });
    }

    #[test]
    fn pipelined_throughput_recovers_after_split() {
        use std::sync::atomic::Ordering;

        // The satellite regression for online splits: a pipelined client
        // whose cached map predates a partition split must get its moved
        // range's throughput *back to pipelined rates* — the NotOwner
        // responses redirect ops onto the new master's pipe rather than
        // demoting the range to the serial retry loop forever.
        run_sim(async {
            let cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            // Serial baseline on the intact single-partition map.
            let serial = cluster.time_serial_updates(150, 100_000).await;

            let pipe = cluster.pipelined_client(1, PipelineConfig::default()).await;
            // Warm the pipe so its cached config is stale when the split lands.
            let mut workload = Workload::uniform_writes(100_000);
            let mut rng = StdRng::seed_from_u64(42);
            let mut completions = Vec::new();
            for _ in 0..50 {
                let WorkloadOp::Update { key, value } = workload.next_op(&mut rng) else {
                    unreachable!()
                };
                completions.push(pipe.submit(Op::Put { key, value }).await.expect("submit"));
            }
            for c in completions {
                c.await.expect("warmup update");
            }

            // Split the partition at the range midpoint onto the spare.
            let part = cluster.coord.config().partitions[0].clone();
            let spare = cluster.spare_server().expect("fresh cluster has a spare");
            let version_before = cluster.coord.config().version;
            let mut split = Err("never attempted".to_string());
            for _ in 0..20 {
                split = cluster
                    .coord
                    .migrate(
                        part.master_id,
                        u64::MAX / 2,
                        spare,
                        part.backups.clone(),
                        part.witnesses.clone(),
                    )
                    .await;
                if split.is_ok() {
                    break;
                }
                tokio::time::sleep(vus(50)).await;
            }
            let new_master = split.expect("split failed");
            assert_ne!(new_master, part.master_id);
            assert!(cluster.coord.config().version > version_before, "map version must advance");

            // The same write stream through the SAME (stale-mapped) pipe:
            // the first flush to the old master draws NotOwner for the
            // moved half and the ops must hop pipes, not go serial.
            let t0 = tokio::time::Instant::now();
            let mut completions = Vec::new();
            for _ in 0..150 {
                let WorkloadOp::Update { key, value } = workload.next_op(&mut rng) else {
                    unreachable!()
                };
                completions.push(pipe.submit(Op::Put { key, value }).await.expect("submit"));
            }
            for c in completions {
                c.await.expect("post-split update");
            }
            let post = t0.elapsed();

            let speedup = serial.as_secs_f64() / post.as_secs_f64();
            assert!(
                speedup >= 2.0,
                "post-split pipelined speedup only {speedup:.2}x ({serial:?} vs {post:?}) — \
                 the moved range degraded to the serial path"
            );
            // And the new master genuinely served its half.
            let hits = cluster.net.stats(spare).unwrap().requests_in.load(Ordering::Relaxed);
            assert!(hits > 0, "the split-off master never saw a request");
        });
    }

    #[test]
    fn open_loop_below_saturation_matches_closed_loop_latency() {
        run_sim(async {
            let cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            // ~20 µs between arrivals is far below saturation: no queueing,
            // so open-loop latency ~= the §5.1 closed-loop 7.3 µs median.
            let report = cluster
                .run_open_loop(
                    20_000,
                    200,
                    PipelineConfig::default(),
                    Workload::uniform_writes(100_000),
                )
                .await;
            assert_eq!(report.completed, 200, "failed={}", report.failed);
            let mut latency = report.latency;
            let p50_us = latency.quantile_ns(0.5) as f64 / 1_000.0;
            assert!((5.0..12.0).contains(&p50_us), "open-loop p50 {p50_us:.2} µs");
        });
    }

    #[test]
    fn open_loop_past_saturation_shows_queueing_tail() {
        run_sim(async {
            let cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            // 1 µs between arrivals (1M ops/s offered) pushes the
            // dispatch-bound master well past its unloaded operating point:
            // ops queue behind the window, and because open-loop latency is
            // measured from *scheduled arrival*, the queueing delay shows up
            // in the median — several times the ~7.3 µs unloaded latency a
            // closed-loop driver would keep reporting.
            let report = cluster
                .run_open_loop(
                    1_000,
                    300,
                    PipelineConfig { window: 32, max_batch: 16 },
                    Workload::uniform_writes(100_000),
                )
                .await;
            assert_eq!(report.completed, 300, "failed={}", report.failed);
            let mut latency = report.latency;
            let s = latency.summary();
            assert!(s.p50_us > 30.0, "expected queueing delay in the median: {s:?}");
            assert!(s.p90_us >= s.p50_us && s.max_us >= s.p90_us);
        });
    }

    #[test]
    fn power_loss_restart_recovers_synced_and_unsynced_writes() {
        use bytes::Bytes;
        use curp_proto::op::OpResult;

        run_sim(async {
            let dir = crate::tempdir::TempDir::new("curp-sim-powerloss").unwrap();
            // Lazy syncing: the speculative tail stays witness-only, so the
            // restart must recover one write from backup AOFs and the other
            // from witness journals.
            let mut params = RamcloudParams::new(3);
            params.batch_size = 10_000;
            params.sync_interval_ns = u64::MAX / 2048;
            let mut cluster = SimCluster::build_durable(Mode::Curp, params, 1, dir.path()).await;
            let client = cluster.client(0).await;

            let put = |k: &str, v: &str| Op::Put {
                key: Bytes::from(k.to_owned()),
                value: Bytes::from(v.to_owned()),
            };
            client.update(put("synced-key", "on-disk")).await.unwrap();
            // A read forces the master to sync its pending tail (§3.2.3),
            // pushing "synced-key" into the backups' fsynced AOFs.
            client.read(Op::Get { key: Bytes::from("synced-key") }).await.unwrap();
            // These complete on the 1-RTT fast path: durable only in the
            // witness journals.
            let r =
                client.update(Op::Incr { key: Bytes::from("counter"), delta: 7 }).await.unwrap();
            assert_eq!(r, OpResult::Counter(7));
            client.update(put("spec-key", "journal-only")).await.unwrap();
            assert!(
                cluster.servers[1].backup().next_seq(cluster.master_id).unwrap_or(0) < 3,
                "speculative tail unexpectedly synced; test would prove nothing"
            );

            let old_master = cluster.master_id;
            let new_ids = cluster.power_loss_restart().await.unwrap();
            assert_eq!(new_ids.len(), 1);
            assert_ne!(new_ids[0], old_master);

            // Every acknowledged write survived the outage.
            for (k, want) in
                [("synced-key", "on-disk"), ("spec-key", "journal-only"), ("counter", "7")]
            {
                let r = client.read(Op::Get { key: Bytes::from(k) }).await.unwrap();
                assert_eq!(
                    r,
                    OpResult::Value(Some(Bytes::from(want))),
                    "{k} lost across power loss"
                );
            }
            // Exactly-once across the outage: the RIFL table travelled with
            // the recovered state, so a *new* increment lands on 7, not 0.
            let r =
                client.update(Op::Incr { key: Bytes::from("counter"), delta: 1 }).await.unwrap();
            assert_eq!(r, OpResult::Counter(8));
        });
    }

    #[test]
    fn replica_crash_restart_preserves_fencing_epoch() {
        use bytes::Bytes;
        use curp_core::backup::SyncOutcome;
        use curp_proto::types::Epoch;

        // A replica-only crash must not lose the fencing epoch (§4.7): the
        // coordinator fences every backup *before* recovery reads any of
        // them, and a backup that cold-restarts inside that window must
        // still reject the deposed master's syncs.
        run_sim(async {
            let dir = crate::tempdir::TempDir::new("curp-sim-fence").unwrap();
            let mut params = RamcloudParams::new(3);
            params.batch_size = 2; // sync early so the replica holds entries
            let mut cluster = SimCluster::build_durable(Mode::Curp, params, 1, dir.path()).await;
            let client = cluster.client(0).await;
            for i in 0..6 {
                let op = Op::Put {
                    key: Bytes::from(format!("k{i}")),
                    value: Bytes::from("v".to_owned()),
                };
                client.update(op).await.unwrap();
            }
            // A read blocks on a full sync: the replicas now hold entries.
            client.read(Op::Get { key: Bytes::from("k0") }).await.unwrap();

            let b = cluster.backup_servers()[0];
            let mid = cluster.master_id;
            let seq_before = cluster.server(b).unwrap().backup().next_seq(mid).unwrap();
            assert!(seq_before > 0, "replica never synced; test would prove nothing");

            // Coordinator-style fence, then the backup dies and cold-boots.
            cluster.server(b).unwrap().backup().set_epoch(mid, Epoch(7));
            cluster.crash_server(b);
            cluster.restart_server(b).unwrap();

            let backup = cluster.server(b).unwrap().backup();
            assert_eq!(backup.next_seq(mid), Some(seq_before), "synced data lost in restart");
            assert!(
                matches!(backup.sync(mid, Epoch(1), &[], &[]), SyncOutcome::Fenced { .. }),
                "zombie sync accepted: the fence did not survive the crash-restart"
            );
        });
    }

    #[test]
    fn witness_crash_forces_sync_path_until_restart() {
        use bytes::Bytes;
        use std::sync::atomic::Ordering;

        // Paper §4.4: when a witness rejects or cannot be reached, the
        // client falls back to asking the master to sync — slower, still
        // safe. Witnesses must live on their own servers here: crashing a
        // co-hosted witness would kill a backup too, and the sync path
        // itself would be dead.
        run_sim(async {
            let mut params = RamcloudParams::new(3);
            params.separate_witnesses = true;
            params.batch_size = 10_000;
            params.sync_interval_ns = u64::MAX / 2048; // no background syncs
            let mut cluster = SimCluster::build(Mode::Curp, params).await;
            assert_eq!(
                cluster
                    .backup_servers()
                    .iter()
                    .filter(|b| cluster.witness_servers().contains(b))
                    .count(),
                0,
                "separate_witnesses must disjoin the two roles"
            );
            let client = cluster.client(0).await;
            let fast = |c: &CurpClient| c.stats.fast_path.load(Ordering::Relaxed);

            client
                .update(Op::Put { key: Bytes::from("a"), value: Bytes::from("1") })
                .await
                .unwrap();
            assert_eq!(fast(&client), 1, "healthy cluster must take the 1-RTT fast path");

            let w = cluster.witness_servers()[0];
            cluster.crash_server(w);
            client
                .update(Op::Put { key: Bytes::from("b"), value: Bytes::from("2") })
                .await
                .unwrap();
            assert_eq!(fast(&client), 1, "with a witness down the fast path must not be taken");
            let synced = cluster
                .backup_servers()
                .iter()
                .map(|b| cluster.server(*b).unwrap().backup().next_seq(cluster.master_id))
                .collect::<Vec<_>>();
            assert!(
                synced.iter().all(|s| s.unwrap_or(0) >= 2),
                "the fallback op must reach the backups via sync, got {synced:?}"
            );

            // A memory cluster's restart is warm: the witness returns with
            // its records intact and the fast path resumes.
            cluster.restart_server(w).unwrap();
            client
                .update(Op::Put { key: Bytes::from("c"), value: Bytes::from("3") })
                .await
                .unwrap();
            assert_eq!(fast(&client), 2, "fast path must resume once the witness is back");
        });
    }

    #[test]
    fn churn_master_recovers_partition_onto_spare() {
        use bytes::Bytes;
        use curp_proto::op::OpResult;

        run_sim(async {
            let mut params = RamcloudParams::new(3);
            params.batch_size = 5;
            let mut cluster = SimCluster::build(Mode::Curp, params).await;
            let client = cluster.client(0).await;
            client
                .update(Op::Put { key: Bytes::from("k"), value: Bytes::from("before") })
                .await
                .unwrap();

            let old_master = cluster.master_id;
            let old_host = cluster.master_servers()[0];
            let spare = cluster.spare_server().expect("fresh cluster has a spare");
            let new_master = cluster.churn_master(0).await.expect("churn failed");
            assert_ne!(new_master, old_master);
            assert_eq!(cluster.master_id, new_master);
            assert_eq!(cluster.master_servers()[0], spare, "partition must move to the spare");
            assert_eq!(
                cluster.spare_server(),
                Some(old_host),
                "the deposed host must rejoin as the next spare"
            );

            let r = client.read(Op::Get { key: Bytes::from("k") }).await.unwrap();
            assert_eq!(r, OpResult::Value(Some(Bytes::from("before"))), "write lost in churn");
            // And the recovered master accepts new writes.
            client
                .update(Op::Put { key: Bytes::from("k"), value: Bytes::from("after") })
                .await
                .unwrap();
        });
    }

    #[test]
    fn power_loss_restart_requires_durable_build() {
        run_sim(async {
            let mut cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            assert!(cluster.power_loss_restart().await.is_err());
        });
    }

    #[test]
    fn closed_loop_throughput_ranks_modes_correctly() {
        // Shape check on a small run: Unreplicated >= Async >= CURP >> Original.
        let tp = |mode, f| {
            run_sim(async move {
                let cluster = SimCluster::build(mode, RamcloudParams::new(f)).await;
                let r = cluster
                    .run_closed_loop(10, vus(20_000), |_| Workload::uniform_writes(100_000))
                    .await;
                r.throughput_ops_per_sec
            })
        };
        let unrep = tp(Mode::Unreplicated, 0);
        let asy = tp(Mode::Async, 3);
        let curp = tp(Mode::Curp, 3);
        let orig = tp(Mode::Original, 3);
        assert!(unrep > asy * 0.95, "unrep {unrep:.0} vs async {asy:.0}");
        assert!(asy > curp * 0.95, "async {asy:.0} vs curp {curp:.0}");
        assert!(curp > orig * 2.0, "curp {curp:.0} vs orig {orig:.0}");
    }
}
