//! The cluster configuration manager ("the owner of all cluster
//! configurations", §3.6).
//!
//! The coordinator is the consensus-replicated control plane the paper
//! assumes as given (Chubby/ZooKeeper-class); here it is a single in-process
//! authority. It owns the partition map, witness-list versions, fencing
//! epochs and RIFL leases, and orchestrates the three reconfigurations of
//! §3.6 plus master crash recovery:
//!
//! * **master recovery** — fence the crashed master's epoch on all backups,
//!   have the new master restore + replay (§4.6), swap the partition entry;
//! * **witness replacement** — start a fresh instance, tell the master (which
//!   syncs before acknowledging), bump the witness-list version;
//! * **migration** — split a partition and move the upper half.
//!
//! The [`Autoscaler`] drives the migration path from load instead of an
//! operator: it polls every partition master's [`LoadStats`] snapshot, and
//! when one saturates (deep speculative queue while executing a healthy
//! update rate) it splits that partition at the hotkey-mass median and
//! migrates the upper half onto a spare server — all while clients keep
//! running (their `NotOwner` retries re-route against the re-published map,
//! whose version increases monotonically: once a coordinator mutation
//! shrinks an owner's range, every republication carries a strictly larger
//! version, so a client can never install a stale map that double-owns a
//! hash).
//!
//! Control-plane actions use direct [`CurpServer`] handles (coordinator and
//! servers share a process in this implementation); the data plane runs over
//! the transport.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use curp_proto::cluster::{ClusterConfig, HashRange, LoadStats, PartitionConfig};
use curp_proto::lockrank;
use curp_proto::message::{Request, Response};
use curp_proto::types::{ClientId, Epoch, MasterId, ServerId, WitnessListVersion};
use curp_rifl::LeaseManager;
use curp_storage::IntentLog;
use curp_transport::rpc::{join_all, BoxFuture, RpcClient, RpcHandler};
use parking_lot::Mutex;

use crate::master::{Master, MasterConfig, MasterSeed};
use crate::server::CurpServer;

/// Factory producing an [`RpcClient`] whose calls originate from a given
/// server id (masters send syncs/gcs *as themselves*).
pub type ClientFactory = Box<dyn Fn(ServerId) -> Arc<dyn RpcClient> + Send + Sync>;

struct CoordState {
    config: ClusterConfig,
    leases: LeaseManager,
    next_master: u64,
}

// ---- orchestration plans (DESIGN invariant 11) ----------------------------
//
// Every multi-step reconfiguration is described by a durable *plan*: the
// begin record carries everything a restarted coordinator needs to finish
// (or abandon) the job, and each step is journaled *before* it executes.
// All steps are idempotent under re-issue, so resume never needs to know
// how far the crashed incarnation got — it re-drives the whole plan from
// the current cluster state.

/// Durable description of a `recover_master` plan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RecoverSpec {
    crashed: MasterId,
    new_srv: ServerId,
    /// Allocated once at plan begin; every resume attempt reuses it.
    new_id: MasterId,
    /// The partition's epoch when the plan was begun; attempts fence at
    /// strictly higher epochs.
    base_epoch: Epoch,
    backups: Vec<ServerId>,
    witnesses: Vec<ServerId>,
    wl_version: WitnessListVersion,
    range: HashRange,
}

/// Durable description of a `migrate` plan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MigrateSpec {
    source: MasterId,
    split_at: u64,
    target_srv: ServerId,
    new_id: MasterId,
    target_backups: Vec<ServerId>,
    target_witnesses: Vec<ServerId>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanSpec {
    Recover(RecoverSpec),
    Migrate(MigrateSpec),
}

/// One orchestration step, journaled before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanStep {
    /// A (re-)attempt of a recover plan fencing at this epoch. Recorded so
    /// a later resume picks a strictly higher epoch than *any* attempt,
    /// fencing out half-installed masters from abandoned ones.
    Attempt(Epoch),
    /// Fence the crashed incarnation's epoch on every backup.
    Fence,
    /// Reset-start witness instances for the plan's new master id.
    WitnessReset,
    /// Restore + replay + reinstall (`Master::recover`) and install the
    /// new master on its server.
    Restore,
    /// Publish the new configuration (the commit point of a plan).
    Publish,
    /// Destroy the superseded incarnation's state (witness instances,
    /// backup replicas). Strictly after publish: destroying the only
    /// durable copy before the new map exists would turn a crash here
    /// into data loss.
    Cleanup,
    /// Drain + cut the source master (`migrate_out`).
    Drain,
    /// Reset-start witness instances for the migration target.
    TargetWitnesses,
    /// Install the migrated snapshot on the target backups + target server.
    TargetInstall,
    /// Reset the source's witnesses and install its bumped witness list.
    SourceRefit(WitnessListVersion),
    /// The plan cannot proceed (its incarnation is gone); remnants of the
    /// never-published master are being destroyed.
    Abort,
}

const SPEC_RECOVER: u8 = 1;
const SPEC_MIGRATE: u8 = 2;

fn put_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn put_ids(v: &mut Vec<u8>, ids: &[ServerId]) {
    put_u64(v, ids.len() as u64);
    for id in ids {
        put_u64(v, id.0);
    }
}

struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn u64(&mut self) -> Option<u64> {
        if self.0.len() < 8 {
            return None;
        }
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        Some(u64::from_le_bytes(head.try_into().ok()?))
    }

    fn ids(&mut self) -> Option<Vec<ServerId>> {
        let n = self.u64()?;
        (0..n).map(|_| self.u64().map(ServerId)).collect()
    }
}

impl PlanSpec {
    fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        match self {
            PlanSpec::Recover(s) => {
                v.push(SPEC_RECOVER);
                put_u64(&mut v, s.crashed.0);
                put_u64(&mut v, s.new_srv.0);
                put_u64(&mut v, s.new_id.0);
                put_u64(&mut v, s.base_epoch.0);
                put_u64(&mut v, s.wl_version.0);
                put_u64(&mut v, s.range.start);
                put_u64(&mut v, s.range.end);
                put_ids(&mut v, &s.backups);
                put_ids(&mut v, &s.witnesses);
            }
            PlanSpec::Migrate(s) => {
                v.push(SPEC_MIGRATE);
                put_u64(&mut v, s.source.0);
                put_u64(&mut v, s.split_at);
                put_u64(&mut v, s.target_srv.0);
                put_u64(&mut v, s.new_id.0);
                put_ids(&mut v, &s.target_backups);
                put_ids(&mut v, &s.target_witnesses);
            }
        }
        v
    }

    fn decode(raw: &[u8]) -> Option<PlanSpec> {
        let (&tag, rest) = raw.split_first()?;
        let mut c = Cursor(rest);
        match tag {
            SPEC_RECOVER => Some(PlanSpec::Recover(RecoverSpec {
                crashed: MasterId(c.u64()?),
                new_srv: ServerId(c.u64()?),
                new_id: MasterId(c.u64()?),
                base_epoch: Epoch(c.u64()?),
                wl_version: WitnessListVersion(c.u64()?),
                range: HashRange { start: c.u64()?, end: c.u64()? },
                backups: c.ids()?,
                witnesses: c.ids()?,
            })),
            SPEC_MIGRATE => Some(PlanSpec::Migrate(MigrateSpec {
                source: MasterId(c.u64()?),
                split_at: c.u64()?,
                target_srv: ServerId(c.u64()?),
                new_id: MasterId(c.u64()?),
                target_backups: c.ids()?,
                target_witnesses: c.ids()?,
            })),
            _ => None,
        }
    }
}

impl PlanStep {
    fn encode(&self) -> Vec<u8> {
        let (tag, arg) = match self {
            PlanStep::Attempt(e) => (1u8, e.0),
            PlanStep::Fence => (2, 0),
            PlanStep::WitnessReset => (3, 0),
            PlanStep::Restore => (4, 0),
            PlanStep::Publish => (5, 0),
            PlanStep::Cleanup => (6, 0),
            PlanStep::Drain => (7, 0),
            PlanStep::TargetWitnesses => (8, 0),
            PlanStep::TargetInstall => (9, 0),
            PlanStep::SourceRefit(v) => (10, v.0),
            PlanStep::Abort => (11, 0),
        };
        let mut v = vec![tag];
        put_u64(&mut v, arg);
        v
    }

    fn decode(raw: &[u8]) -> Option<PlanStep> {
        let (&tag, rest) = raw.split_first()?;
        let arg = Cursor(rest).u64()?;
        Some(match tag {
            1 => PlanStep::Attempt(Epoch(arg)),
            2 => PlanStep::Fence,
            3 => PlanStep::WitnessReset,
            4 => PlanStep::Restore,
            5 => PlanStep::Publish,
            6 => PlanStep::Cleanup,
            7 => PlanStep::Drain,
            8 => PlanStep::TargetWitnesses,
            9 => PlanStep::TargetInstall,
            10 => PlanStep::SourceRefit(WitnessListVersion(arg)),
            11 => PlanStep::Abort,
            _ => return None,
        })
    }
}

/// An open plan: its durable spec plus the steps journaled so far.
#[derive(Debug, Clone)]
struct Plan {
    id: u64,
    spec: PlanSpec,
    steps: Vec<PlanStep>,
}

/// The plan registry: an in-memory mirror of the open plans, over an
/// optional on-disk [`IntentLog`]. Every mutation hits the log (durably)
/// *before* the mirror, and both happen without an intervening await — the
/// mirror can never run ahead of the disk, and a cancelled orchestration
/// future can never leave them out of sync.
struct PlanJournal {
    log: Option<IntentLog>,
    open: Vec<Plan>,
    /// Plan-id source when no log is attached (memory-only clusters).
    next_mem_id: u64,
}

impl PlanJournal {
    fn begin(&mut self, spec: &PlanSpec) -> Result<u64, String> {
        let id = match &mut self.log {
            Some(log) => log.begin(&spec.encode()).map_err(|e| format!("intent log begin: {e}"))?,
            None => {
                self.next_mem_id += 1;
                self.next_mem_id
            }
        };
        self.open.push(Plan { id, spec: spec.clone(), steps: Vec::new() });
        Ok(id)
    }

    fn step(&mut self, id: u64, step: PlanStep) -> Result<(), String> {
        if let Some(log) = &mut self.log {
            log.step(id, &step.encode()).map_err(|e| format!("intent log step: {e}"))?;
        }
        if let Some(p) = self.open.iter_mut().find(|p| p.id == id) {
            p.steps.push(step);
        }
        Ok(())
    }

    fn close(&mut self, id: u64) -> Result<(), String> {
        if let Some(log) = &mut self.log {
            log.close(id).map_err(|e| format!("intent log close: {e}"))?;
        }
        self.open.retain(|p| p.id != id);
        Ok(())
    }
}

/// The coordinator.
pub struct Coordinator {
    client_for: ClientFactory,
    master_cfg: MasterConfig,
    st: Mutex<CoordState>,
    servers: Mutex<HashMap<ServerId, Arc<CurpServer>>>,
    plans: Mutex<PlanJournal>,
    epoch0: tokio::time::Instant,
}

impl Coordinator {
    /// Creates a coordinator. `client_for` builds per-server RPC clients;
    /// `master_cfg` is the template for every master it creates.
    pub fn new(
        client_for: ClientFactory,
        master_cfg: MasterConfig,
        lease_ttl_ms: u64,
    ) -> Arc<Self> {
        Self::build(client_for, master_cfg, lease_ttl_ms, None)
    }

    /// Creates a coordinator whose orchestration plans are write-ahead
    /// journaled to `intent_path` (see [`curp_storage::IntentLog`]): a
    /// coordinator re-created over the same path resumes-or-aborts whatever
    /// reconfiguration its predecessor died inside of.
    pub fn new_durable(
        client_for: ClientFactory,
        master_cfg: MasterConfig,
        lease_ttl_ms: u64,
        intent_path: &Path,
    ) -> std::io::Result<Arc<Self>> {
        let (log, open) = IntentLog::open(intent_path)?;
        let coord = Self::build(client_for, master_cfg, lease_ttl_ms, Some(log));
        coord.install_loaded_plans(open);
        Ok(coord)
    }

    fn build(
        client_for: ClientFactory,
        master_cfg: MasterConfig,
        lease_ttl_ms: u64,
        log: Option<IntentLog>,
    ) -> Arc<Self> {
        Arc::new(Coordinator {
            client_for,
            master_cfg,
            st: Mutex::ranked(
                lockrank::COORD_STATE,
                "core.coordinator.st",
                CoordState {
                    config: ClusterConfig { partitions: Vec::new(), version: 1 },
                    leases: LeaseManager::new(lease_ttl_ms),
                    next_master: 1,
                },
            ),
            servers: Mutex::ranked(
                lockrank::COORD_SERVERS,
                "core.coordinator.servers",
                HashMap::new(),
            ),
            plans: Mutex::ranked(
                lockrank::COORD_PLANS,
                "core.coordinator.plans",
                PlanJournal { log, open: Vec::new(), next_mem_id: 0 },
            ),
            epoch0: tokio::time::Instant::now(),
        })
    }

    /// Rebuilds the in-memory plan mirror from disk — the cold-boot path: a
    /// coordinator process restarted after a crash (or the whole-cluster
    /// power loss) reads back the plans its dead incarnation left open.
    /// Returns how many open plans were found. No-op (0) without a journal.
    pub fn reload_intent(&self) -> std::io::Result<usize> {
        let path = match &self.plans.lock().log {
            Some(log) => log.path().to_path_buf(),
            None => return Ok(0),
        };
        let (log, open) = IntentLog::open(&path)?;
        {
            let mut plans = self.plans.lock();
            plans.log = Some(log);
            plans.open.clear();
        }
        let n = open.len();
        self.install_loaded_plans(open);
        Ok(n)
    }

    fn install_loaded_plans(&self, open: Vec<curp_storage::OpenPlan>) {
        let mut plans = self.plans.lock();
        let mut max_master = 0u64;
        for p in open {
            let Some(spec) = PlanSpec::decode(&p.begin) else { continue };
            let new_id = match &spec {
                PlanSpec::Recover(s) => s.new_id,
                PlanSpec::Migrate(s) => s.new_id,
            };
            max_master = max_master.max(new_id.0);
            let steps = p.steps.iter().filter_map(|s| PlanStep::decode(s)).collect();
            plans.open.push(Plan { id: p.id, spec, steps });
        }
        drop(plans);
        // Master ids allocated by a dead incarnation must never be reused.
        let mut st = self.st.lock();
        st.next_master = st.next_master.max(max_master + 1);
    }

    /// Open (in-flight, not yet resolved) orchestration plans.
    pub fn open_plan_count(&self) -> usize {
        self.plans.lock().open.len()
    }

    /// Fault injection for crash-at-step-boundary tests: the intent journal
    /// fails (without writing) after `n` more records, which aborts the
    /// in-flight orchestration exactly at that step boundary — the same
    /// stopping points a real coordinator crash can produce. `None` disarms.
    /// Returns false if this coordinator has no journal.
    pub fn set_intent_fail_after(&self, n: Option<u64>) -> bool {
        match &mut self.plans.lock().log {
            Some(log) => {
                log.set_fail_after(n);
                true
            }
            None => false,
        }
    }

    fn plan_begin(&self, spec: &PlanSpec) -> Result<u64, String> {
        self.plans.lock().begin(spec)
    }

    fn plan_step(&self, id: u64, step: PlanStep) -> Result<(), String> {
        self.plans.lock().step(id, step)
    }

    fn plan_close(&self, id: u64) -> Result<(), String> {
        self.plans.lock().close(id)
    }

    fn find_open_plan(&self, pred: impl Fn(&PlanSpec) -> bool) -> Option<Plan> {
        self.plans.lock().open.iter().find(|p| pred(&p.spec)).cloned()
    }

    fn now_ms(&self) -> u64 {
        self.epoch0.elapsed().as_millis() as u64
    }

    /// Registers a server handle for control-plane use.
    pub fn register_server(&self, server: Arc<CurpServer>) {
        self.servers.lock().insert(server.id(), server);
    }

    fn server(&self, id: ServerId) -> Result<Arc<CurpServer>, String> {
        self.servers.lock().get(&id).cloned().ok_or_else(|| format!("unknown server {id}"))
    }

    /// Current configuration snapshot.
    pub fn config(&self) -> ClusterConfig {
        self.st.lock().config.clone()
    }

    /// Creates a new partition: installs a master on `master_srv`, starts
    /// witness instances, and publishes the configuration.
    pub async fn create_partition(
        &self,
        master_srv: ServerId,
        backups: Vec<ServerId>,
        witnesses: Vec<ServerId>,
        range: HashRange,
    ) -> Result<MasterId, String> {
        let master_id = {
            let mut st = self.st.lock();
            let id = MasterId(st.next_master);
            st.next_master += 1;
            id
        };
        let wl_version = WitnessListVersion(1);
        // Start witness instances before the master serves anything.
        for &w in &witnesses {
            let rsp =
                (self.client_for)(master_srv).call(w, Request::WitnessStart { master_id }).await;
            match rsp {
                Ok(Response::WitnessStarted { ok: true }) => {}
                other => return Err(format!("witness start on {w} failed: {other:?}")),
            }
        }
        let server = self.server(master_srv)?;
        let master = Master::new(
            MasterSeed {
                id: master_id,
                epoch: curp_proto::types::Epoch(1),
                backups: backups.clone(),
                witnesses: witnesses.clone(),
                wl_version,
                range,
            },
            self.master_cfg.clone(),
            (self.client_for)(master_srv),
        );
        master.spawn_syncer();
        server.set_master(Arc::clone(&master));

        let mut st = self.st.lock();
        st.config.partitions.push(PartitionConfig {
            master_id,
            master: master_srv,
            backups,
            witnesses,
            witness_list_version: wl_version,
            epoch: curp_proto::types::Epoch(1),
            range,
        });
        st.config.version += 1;
        Ok(master_id)
    }

    /// Recovers a crashed master onto `new_srv` (§3.3, §4.6): fences the old
    /// epoch on every backup, restores from the first reachable backup,
    /// replays from the first reachable witness, starts fresh witness
    /// instances for the new master id, and publishes the new configuration.
    ///
    /// Re-entrant and crash-safe: the whole sequence runs under a journaled
    /// plan. If a matching plan is already open (a previous call crashed or
    /// was cancelled mid-flight), this call *resumes* it instead of starting
    /// over — reusing the recorded new master id and fencing at a strictly
    /// higher epoch than any recorded attempt, so a half-installed master
    /// from an abandoned attempt can never sync again.
    pub async fn recover_master(
        &self,
        crashed: MasterId,
        new_srv: ServerId,
    ) -> Result<MasterId, String> {
        if let Some(plan) = self.find_open_plan(
            |s| matches!(s, PlanSpec::Recover(r) if r.crashed == crashed && r.new_srv == new_srv),
        ) {
            return self.drive_recover(plan).await;
        }
        let part = self
            .st
            .lock()
            .config
            .partition_by_master(crashed)
            .cloned()
            .ok_or_else(|| format!("unknown master {crashed:?}"))?;
        let new_id = {
            let mut st = self.st.lock();
            let id = MasterId(st.next_master);
            st.next_master += 1;
            id
        };
        let spec = RecoverSpec {
            crashed,
            new_srv,
            new_id,
            base_epoch: part.epoch,
            backups: part.backups.clone(),
            witnesses: part.witnesses.clone(),
            wl_version: part.witness_list_version,
            range: part.range,
        };
        let plan_id = self.plan_begin(&PlanSpec::Recover(spec.clone()))?;
        self.drive_recover(Plan { id: plan_id, spec: PlanSpec::Recover(spec), steps: Vec::new() })
            .await
    }

    /// Resolves a recover plan against the current cluster state: finish the
    /// cleanup if it already published, re-drive the whole attempt if the
    /// crashed incarnation is still in the map, abort if the partition was
    /// recovered by someone else in the meantime.
    async fn drive_recover(&self, plan: Plan) -> Result<MasterId, String> {
        let PlanSpec::Recover(spec) = &plan.spec else {
            return Err("not a recover plan".into());
        };
        let cfg = self.st.lock().config.clone();
        if cfg.partition_by_master(spec.new_id).is_some() {
            // Crashed after the commit point: only the cleanup can be
            // outstanding. Re-issue it (idempotent) and close.
            self.plan_step(plan.id, PlanStep::Cleanup)?;
            self.recover_cleanup(spec).await;
            self.plan_close(plan.id)?;
            return Ok(spec.new_id);
        }
        if cfg.partition_by_master(spec.crashed).is_none() {
            // Neither the crashed nor the new incarnation is in the map: a
            // different plan recovered this partition. Destroy this plan's
            // never-published remnants and close.
            self.plan_step(plan.id, PlanStep::Abort)?;
            self.abort_new_master_remnants(
                spec.new_id,
                spec.new_srv,
                &spec.backups,
                &spec.witnesses,
            )
            .await;
            self.plan_close(plan.id)?;
            return Err(format!(
                "recover plan for {:?} aborted: partition already recovered elsewhere",
                spec.crashed
            ));
        }
        // Fence every attempt at a strictly higher epoch than any recorded
        // one: an abandoned attempt's master (installed but never published)
        // is fenced out by the backups the moment this attempt fences.
        let max_attempted = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Attempt(e) => Some(*e),
                _ => None,
            })
            .max()
            .unwrap_or(spec.base_epoch);
        let attempt_epoch = Epoch(max_attempted.0.max(spec.base_epoch.0) + 1);
        self.recover_attempt(plan.id, spec, attempt_epoch).await?;
        self.plan_close(plan.id)?;
        Ok(spec.new_id)
    }

    /// One full recovery attempt under plan `plan_id`. Every step is
    /// journaled before it executes and is idempotent under re-issue.
    async fn recover_attempt(
        &self,
        plan_id: u64,
        spec: &RecoverSpec,
        attempt_epoch: Epoch,
    ) -> Result<(), String> {
        let rpc = (self.client_for)(spec.new_srv);
        self.plan_step(plan_id, PlanStep::Attempt(attempt_epoch))?;

        // Fence the zombie (§4.7). Every backup must be fenced before we
        // read state, or a zombie sync could slip in afterwards. Idempotent:
        // `BackupSetEpoch` never lowers an epoch.
        self.plan_step(plan_id, PlanStep::Fence)?;
        for &b in &spec.backups {
            match rpc
                .call(b, Request::BackupSetEpoch { master_id: spec.crashed, epoch: attempt_epoch })
                .await
            {
                Ok(Response::EpochSet) => {}
                other => return Err(format!("fencing backup {b} failed: {other:?}")),
            }
        }

        // Witness instances for the new master id, on the same servers
        // ("resetting witnesses for the new master or assigning a new set").
        // Reset-start (end + start) rather than bare start: `WitnessStart`
        // refuses an existing instance, and a resumed plan may find one left
        // by the crashed attempt. Safe before publish — no client can have
        // recorded under a master id that was never published.
        self.plan_step(plan_id, PlanStep::WitnessReset)?;
        for &w in &spec.witnesses {
            let _ = rpc.call(w, Request::WitnessEnd { master_id: spec.new_id }).await;
            match rpc.call(w, Request::WitnessStart { master_id: spec.new_id }).await {
                Ok(Response::WitnessStarted { ok: true }) => {}
                other => return Err(format!("witness start on {w} failed: {other:?}")),
            }
        }

        // Pick the first reachable backup/witness pair as the restore/replay
        // sources; the new master's getRecoveryData freezes the witness
        // (§4.6). "The new master picks any available witness. If none ...
        // are reachable, [it] must wait." `Master::recover` is re-runnable
        // end to end: fetch and replay are reads, and the final
        // `BackupInstall` re-installs idempotently at an equal epoch.
        self.plan_step(plan_id, PlanStep::Restore)?;
        let mut recovered: Result<Arc<Master>, String> = Err("no backup reachable".into());
        'outer: for &backup_src in &spec.backups {
            for &witness_src in &spec.witnesses {
                let seed = MasterSeed {
                    id: spec.new_id,
                    epoch: attempt_epoch,
                    backups: spec.backups.clone(),
                    witnesses: spec.witnesses.clone(),
                    wl_version: spec.wl_version.next(),
                    range: spec.range,
                };
                match Master::recover(
                    seed,
                    self.master_cfg.clone(),
                    Arc::clone(&rpc),
                    spec.crashed,
                    backup_src,
                    witness_src,
                )
                .await
                {
                    Ok(m) => {
                        recovered = Ok(m);
                        break 'outer;
                    }
                    Err(e) => recovered = Err(e),
                }
            }
        }
        let master = recovered?;
        master.spawn_syncer();
        // Replacing seals any half-installed master an abandoned attempt
        // left on this server (see `CurpServer::set_master`).
        self.server(spec.new_srv)?.set_master(Arc::clone(&master));

        // Commit point: publish the new map. In-memory mutation, no await
        // between the journal record and the swap.
        self.plan_step(plan_id, PlanStep::Publish)?;
        {
            let mut st = self.st.lock();
            if let Some(p) = st.config.partitions.iter_mut().find(|p| p.master_id == spec.crashed) {
                p.master_id = spec.new_id;
                p.master = spec.new_srv;
                p.epoch = attempt_epoch;
                p.witness_list_version = spec.wl_version.next();
            }
            st.config.version += 1;
        }

        // Destroy the crashed incarnation's state — strictly *after*
        // publish. Before the new map exists, the old witness instances and
        // backup replicas are the only durable copy of the partition; a
        // crash between destroying them and publishing would leave a cold
        // resume with nothing to recover from.
        self.plan_step(plan_id, PlanStep::Cleanup)?;
        self.recover_cleanup(spec).await;
        Ok(())
    }

    /// Post-publish teardown of the crashed incarnation (idempotent).
    async fn recover_cleanup(&self, spec: &RecoverSpec) {
        let rpc = (self.client_for)(spec.new_srv);
        let ends = spec
            .witnesses
            .iter()
            .map(|&w| rpc.call(w, Request::WitnessEnd { master_id: spec.crashed }));
        let _ = join_all(ends).await;
        // Drop the crashed master's replicas (and, on durable backups, their
        // on-disk AOF/snapshot). Safe here: the new master's install was
        // acknowledged by every backup before publish, so the old files can
        // never be needed again. A dropped replica leaves its fencing
        // tombstone behind (invariant 7/8).
        for &b in &spec.backups {
            if let Ok(srv) = self.server(b) {
                srv.backup().drop_replica(spec.crashed);
            }
        }
    }

    /// Destroys everything an unpublished plan may have created under
    /// `new_id` (best effort, idempotent): the master instance, its witness
    /// instances, and its backup replicas. Only ever called for ids that no
    /// published map has carried, so no client can be using them.
    async fn abort_new_master_remnants(
        &self,
        new_id: MasterId,
        new_srv: ServerId,
        backups: &[ServerId],
        witnesses: &[ServerId],
    ) {
        if let Ok(srv) = self.server(new_srv) {
            if let Some(m) = srv.master() {
                if m.id() == new_id {
                    m.seal();
                }
            }
        }
        let rpc = (self.client_for)(new_srv);
        let ends =
            witnesses.iter().map(|&w| rpc.call(w, Request::WitnessEnd { master_id: new_id }));
        let _ = join_all(ends).await;
        for &b in backups {
            if let Ok(srv) = self.server(b) {
                srv.backup().drop_replica(new_id);
            }
        }
    }

    /// Rebuilds the whole cluster after a power loss (§5.4's crash model
    /// applied to every server at once).
    ///
    /// Precondition: every server process has been restarted from its
    /// on-disk state (`CurpServer::new_durable` over the same data
    /// directories — backups replay their AOFs, witnesses their journals)
    /// and re-registered with this coordinator and the transport. The
    /// coordinator itself models the consensus-replicated configuration
    /// store the paper assumes as given, so its partition map survives.
    ///
    /// Each partition then runs the standard crash recovery (§4.6) with the
    /// *whole cluster* as the casualty: fence the dead incarnation's epoch,
    /// restore the synced prefix from a backup's replayed AOF, replay the
    /// unsynced suffix from a journaled witness (RIFL filters overlap), and
    /// publish the rebuilt partition map. Returns the new master ids in
    /// partition order.
    ///
    /// Re-entrant: each per-partition recovery is itself a journaled plan,
    /// and any plan left open by the previous incarnation (a recovery or
    /// migration the power loss interrupted — reload it first with
    /// [`Coordinator::reload_intent`]) is resolved afterwards, once the
    /// partitions it may reference exist again.
    pub async fn restart_cluster(&self) -> Result<Vec<MasterId>, String> {
        let parts = self.st.lock().config.partitions.clone();
        let mut new_ids = Vec::with_capacity(parts.len());
        for p in &parts {
            // The new master lands on the same server that hosted it before
            // the outage; per-partition recovery handles everything else.
            new_ids.push(self.recover_master(p.master_id, p.master).await?);
        }
        // Resolve surviving plans (an interrupted migration rolls forward
        // from the re-recovered source, or aborts if its incarnation died).
        self.resume_plans().await;
        Ok(new_ids)
    }

    /// Resolves every open orchestration plan (resume-or-abort), returning a
    /// human-readable outcome per plan. Plans that cannot be resolved yet
    /// (an unreachable server, say) stay open — check
    /// [`Coordinator::open_plan_count`] and call again.
    pub async fn resume_plans(&self) -> Vec<String> {
        let open = self.plans.lock().open.clone();
        let mut outcomes = Vec::with_capacity(open.len());
        for plan in open {
            let (id, what) = (plan.id, plan.spec.clone());
            let outcome = match &what {
                PlanSpec::Recover(_) => self.drive_recover(plan).await.map(|m| format!("{m:?}")),
                PlanSpec::Migrate(_) => self.drive_migrate(plan).await.map(|m| format!("{m:?}")),
            };
            outcomes.push(match outcome {
                Ok(m) => format!("plan {id} resolved -> {m}"),
                Err(e) => format!("plan {id}: {e}"),
            });
        }
        outcomes
    }

    /// Replaces a crashed/decommissioned witness (§3.6): start an instance on
    /// `new_w`, notify the master (which syncs to backups before answering,
    /// restoring `f` fault tolerance), bump the witness-list version.
    pub async fn replace_witness(
        &self,
        master_id: MasterId,
        old_w: ServerId,
        new_w: ServerId,
    ) -> Result<(), String> {
        let part = self
            .st
            .lock()
            .config
            .partition_by_master(master_id)
            .cloned()
            .ok_or_else(|| format!("unknown master {master_id:?}"))?;
        if !part.witnesses.contains(&old_w) {
            return Err(format!("{old_w} is not a witness of {master_id:?}"));
        }
        let rpc = (self.client_for)(part.master);
        match rpc.call(new_w, Request::WitnessStart { master_id }).await {
            Ok(Response::WitnessStarted { ok: true }) => {}
            other => return Err(format!("witness start failed: {other:?}")),
        }
        let new_list: Vec<ServerId> =
            part.witnesses.iter().map(|&w| if w == old_w { new_w } else { w }).collect();
        let new_version = part.witness_list_version.next();
        // The master syncs before acknowledging, so updates recorded only on
        // the decommissioned witness can no longer complete (§3.6).
        match rpc
            .call(
                part.master,
                Request::MasterWitnessList { version: new_version, witnesses: new_list.clone() },
            )
            .await
        {
            Ok(Response::WitnessListInstalled) => {}
            other => return Err(format!("master rejected witness list: {other:?}")),
        }
        // Best effort: tell the old witness to die (it may be unreachable).
        let _ = rpc.call(old_w, Request::WitnessEnd { master_id }).await;

        let mut st = self.st.lock();
        if let Some(p) = st.config.partitions.iter_mut().find(|p| p.master_id == master_id) {
            p.witnesses = new_list;
            p.witness_list_version = new_version;
        }
        st.config.version += 1;
        Ok(())
    }

    /// Splits `master_id`'s range at `split_at` and migrates the upper half
    /// to a new master on `target_srv` (§3.6).
    ///
    /// Re-entrant and crash-safe under the same plan journal as
    /// [`Coordinator::recover_master`]: a matching open plan is resumed
    /// (rolling forward from the source's stashed cut when the snapshot was
    /// already extracted), and a plan whose source incarnation has since
    /// died is aborted — safe, because the cut is memory-only and the
    /// source's backups still hold the full pre-split range, which is
    /// exactly what the source's own crash recovery restores.
    #[allow(clippy::too_many_arguments)]
    pub async fn migrate(
        &self,
        master_id: MasterId,
        split_at: u64,
        target_srv: ServerId,
        target_backups: Vec<ServerId>,
        target_witnesses: Vec<ServerId>,
    ) -> Result<MasterId, String> {
        if let Some(plan) = self.find_open_plan(|s| {
            matches!(s, PlanSpec::Migrate(m)
                if m.source == master_id && m.split_at == split_at && m.target_srv == target_srv)
        }) {
            return self.drive_migrate(plan).await;
        }
        if self.st.lock().config.partition_by_master(master_id).is_none() {
            return Err(format!("unknown master {master_id:?}"));
        }
        let new_id = {
            let mut st = self.st.lock();
            let id = MasterId(st.next_master);
            st.next_master += 1;
            id
        };
        let spec = MigrateSpec {
            source: master_id,
            split_at,
            target_srv,
            new_id,
            target_backups,
            target_witnesses,
        };
        let plan_id = self.plan_begin(&PlanSpec::Migrate(spec.clone()))?;
        self.drive_migrate(Plan { id: plan_id, spec: PlanSpec::Migrate(spec), steps: Vec::new() })
            .await
    }

    /// Resolves a migrate plan against the current cluster state.
    async fn drive_migrate(&self, plan: Plan) -> Result<MasterId, String> {
        let PlanSpec::Migrate(spec) = &plan.spec else {
            return Err("not a migrate plan".into());
        };
        let cfg = self.st.lock().config.clone();
        if cfg.partition_by_master(spec.new_id).is_some() {
            // Crashed after the commit point. Nothing left to do but drop
            // the source's stash and close.
            if let Some(p) = cfg.partition_by_master(spec.source) {
                if let Ok(srv) = self.server(p.master) {
                    if let Some(m) = srv.master().filter(|m| m.id() == spec.source) {
                        m.clear_migration_stash();
                    }
                }
            }
            self.plan_close(plan.id)?;
            return Ok(spec.new_id);
        }
        if cfg.partition_by_master(spec.source).is_none() {
            // The source incarnation died mid-plan (and its own recovery
            // restored the full pre-split range from its backups, the cut
            // being memory-only). Abort: destroy the never-published
            // target's remnants and close.
            self.plan_step(plan.id, PlanStep::Abort)?;
            self.abort_new_master_remnants(
                spec.new_id,
                spec.target_srv,
                &spec.target_backups,
                &spec.target_witnesses,
            )
            .await;
            self.plan_close(plan.id)?;
            return Err(format!(
                "migrate plan for {:?} aborted: source incarnation gone",
                spec.source
            ));
        }
        let new_id = self.migrate_run(plan.id, spec).await?;
        self.plan_close(plan.id)?;
        // The stash outlived its purpose the moment the plan closed.
        let cfg = self.st.lock().config.clone();
        if let Some(p) = cfg.partition_by_master(spec.source) {
            if let Ok(srv) = self.server(p.master) {
                if let Some(m) = srv.master().filter(|m| m.id() == spec.source) {
                    m.clear_migration_stash();
                }
            }
        }
        Ok(new_id)
    }

    /// Drives a migrate plan's steps; every step is journaled before it
    /// executes and is idempotent under re-issue.
    async fn migrate_run(&self, plan_id: u64, spec: &MigrateSpec) -> Result<MasterId, String> {
        let part = self
            .st
            .lock()
            .config
            .partition_by_master(spec.source)
            .cloned()
            .ok_or_else(|| format!("unknown master {:?}", spec.source))?;
        let old_master = self.server(part.master)?.master().ok_or("old master gone")?;
        if old_master.id() != spec.source {
            return Err(format!("source server no longer hosts {:?}", spec.source));
        }

        // Drain + cut. `migrate_out` stashes the cut snapshot atomically
        // with taking it, so a resumed plan re-issuing this step gets the
        // stash back instead of an impossible second cut.
        self.plan_step(plan_id, PlanStep::Drain)?;
        let snap = old_master.migrate_out(spec.split_at).await?;
        let (_, hi) = part.range.split_at(spec.split_at);

        // Reset-start the target's witness instances (see recover_attempt
        // for why reset-start, and why it is safe before publish).
        self.plan_step(plan_id, PlanStep::TargetWitnesses)?;
        let rpc = (self.client_for)(spec.target_srv);
        for &w in &spec.target_witnesses {
            let _ = rpc.call(w, Request::WitnessEnd { master_id: spec.new_id }).await;
            match rpc.call(w, Request::WitnessStart { master_id: spec.new_id }).await {
                Ok(Response::WitnessStarted { ok: true }) => {}
                other => return Err(format!("witness start failed: {other:?}")),
            }
        }

        // Seed the target backups with the migrated snapshot, then install
        // the target master. `BackupInstall` at an equal epoch re-installs
        // idempotently; `set_master` seals any replaced half-install.
        self.plan_step(plan_id, PlanStep::TargetInstall)?;
        let blob = snap.to_blob();
        for &b in &spec.target_backups {
            match rpc
                .call(
                    b,
                    Request::BackupInstall {
                        master_id: spec.new_id,
                        epoch: Epoch(1),
                        next_seq: 0,
                        snapshot: blob.clone(),
                    },
                )
                .await
            {
                Ok(Response::BackupInstalled) => {}
                other => return Err(format!("backup install failed: {other:?}")),
            }
        }
        let master = Master::with_state(
            MasterSeed {
                id: spec.new_id,
                epoch: Epoch(1),
                backups: spec.target_backups.clone(),
                witnesses: spec.target_witnesses.clone(),
                wl_version: WitnessListVersion(1),
                range: hi,
            },
            self.master_cfg.clone(),
            Arc::clone(&rpc),
            snap,
        );
        master.spawn_syncer();
        self.server(spec.target_srv)?.set_master(Arc::clone(&master));

        // Reset the source's witnesses (fresh instances + version bump), so
        // stray records for migrated keys are ruled out (§3.6). The explicit
        // sync first shrinks the window in which a just-accepted update's
        // only witness record dies with the old instance.
        let new_src_version = part.witness_list_version.next();
        self.plan_step(plan_id, PlanStep::SourceRefit(new_src_version))?;
        let src_rpc = (self.client_for)(part.master);
        let _ = src_rpc.call(part.master, Request::Sync { master_id: spec.source }).await;
        for &w in &part.witnesses {
            let _ = src_rpc.call(w, Request::WitnessEnd { master_id: spec.source }).await;
            match src_rpc.call(w, Request::WitnessStart { master_id: spec.source }).await {
                Ok(Response::WitnessStarted { ok: true }) => {}
                other => return Err(format!("witness restart failed: {other:?}")),
            }
        }
        // Equal-or-newer versions install idempotently at the master (which
        // syncs before acknowledging either way).
        match src_rpc
            .call(
                part.master,
                Request::MasterWitnessList {
                    version: new_src_version,
                    witnesses: part.witnesses.clone(),
                },
            )
            .await
        {
            Ok(Response::WitnessListInstalled) => {}
            other => return Err(format!("source master rejected list: {other:?}")),
        }

        // Commit point: publish both halves. In-memory mutation, no await
        // between the journal record and the swap.
        self.plan_step(plan_id, PlanStep::Publish)?;
        let mut st = self.st.lock();
        if let Some(p) = st.config.partitions.iter_mut().find(|p| p.master_id == spec.source) {
            p.range = HashRange { start: p.range.start, end: spec.split_at };
            p.witness_list_version = new_src_version;
        }
        st.config.partitions.push(PartitionConfig {
            master_id: spec.new_id,
            master: spec.target_srv,
            backups: spec.target_backups.clone(),
            witnesses: spec.target_witnesses.clone(),
            witness_list_version: WitnessListVersion(1),
            epoch: Epoch(1),
            range: hi,
        });
        st.config.version += 1;
        Ok(spec.new_id)
    }

    /// Registered servers currently holding no role in any partition — the
    /// migration/recovery target pool, in deterministic (id) order.
    pub fn spare_servers(&self) -> Vec<ServerId> {
        let cfg = self.st.lock().config.clone();
        let mut ids: Vec<ServerId> = self.servers.lock().keys().copied().collect();
        ids.sort();
        ids.retain(|id| {
            cfg.partitions
                .iter()
                .all(|p| p.master != *id && !p.backups.contains(id) && !p.witnesses.contains(id))
        });
        ids
    }

    /// Polls one partition master's load snapshot over the transport.
    pub async fn poll_load(&self, part: &PartitionConfig) -> Result<LoadStats, String> {
        let rpc = (self.client_for)(part.master);
        match rpc.call(part.master, Request::MasterLoadStats { master_id: part.master_id }).await {
            Ok(Response::LoadStats { stats }) => Ok(stats),
            other => Err(format!("load poll of {:?} failed: {other:?}", part.master_id)),
        }
    }

    /// Expires overdue client leases, telling every master to sync before
    /// dropping the clients' completion records (§4.8).
    pub async fn tick_leases(&self) {
        let (expired, masters) = {
            let mut st = self.st.lock();
            let now = self.now_ms();
            let expired = st.leases.collect_expired(now);
            let masters: Vec<ServerId> = st.config.partitions.iter().map(|p| p.master).collect();
            (expired, masters)
        };
        for client in expired {
            for &m in &masters {
                let rpc = (self.client_for)(m);
                let _ = rpc.call(m, Request::MasterClientExpired { client }).await;
            }
        }
    }

    /// Handles coordinator RPCs (config + leases).
    pub fn handle_request(&self, req: &Request) -> Response {
        match req {
            Request::GetConfig => Response::Config { config: self.st.lock().config.clone() },
            Request::AcquireLease => {
                let now = self.now_ms();
                let mut st = self.st.lock();
                let client = st.leases.issue(now);
                Response::Lease { client, ttl_ms: st.leases.ttl_ms() }
            }
            Request::RenewLease { client } => {
                let now = self.now_ms();
                let mut st = self.st.lock();
                if st.leases.renew(*client, now) {
                    Response::Lease { client: *client, ttl_ms: st.leases.ttl_ms() }
                } else {
                    Response::Retry { reason: "lease expired; reconnect".into() }
                }
            }
            _ => Response::Retry { reason: "not a coordinator request".into() },
        }
    }

    /// Whether `client` currently holds a live lease (tests).
    pub fn lease_live(&self, client: ClientId) -> bool {
        let now = self.now_ms();
        self.st.lock().leases.is_live(client, now)
    }
}

/// Transport adapter for the coordinator.
pub struct CoordinatorHandler(pub Arc<Coordinator>);

impl RpcHandler for CoordinatorHandler {
    fn handle(&self, _from: ServerId, req: Request) -> BoxFuture<'static, Response> {
        let coord = Arc::clone(&self.0);
        Box::pin(async move { coord.handle_request(&req) })
    }
}

/// Tuning knobs for the load-driven split loop.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// How often [`Autoscaler::run`] polls every partition.
    pub poll_interval: Duration,
    /// A partition is saturated only when its speculative queue is at least
    /// this deep at poll time (queue-depth signal).
    pub saturation_pending: u64,
    /// ... and it executed at least this many updates since the previous
    /// poll (rate signal — a deep queue alone can be a transient).
    pub min_update_delta: u64,
    /// Never split past this many partitions.
    pub max_partitions: usize,
    /// Quiet period after a successful split: let the moved half warm up
    /// (and clients re-route) before judging saturation again.
    pub cooldown: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            poll_interval: Duration::from_millis(50),
            saturation_pending: 8,
            min_update_delta: 16,
            max_partitions: 8,
            cooldown: Duration::from_millis(100),
        }
    }
}

/// What one autoscaler tick decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No partition met the saturation criteria (or the cluster is at
    /// `max_partitions`); nothing changed.
    Hold,
    /// `source` was split at `split_at` (the hotkey-mass median) and its
    /// upper half migrated to a new master on `target`.
    Split {
        /// The partition that was saturated.
        source: MasterId,
        /// The load-weighted split point.
        split_at: u64,
        /// The spare server now hosting the new master.
        target: ServerId,
        /// The new master's id.
        new_master: MasterId,
    },
}

/// The load-driven split loop: polls per-partition [`LoadStats`], picks the
/// most saturated partition, splits it at the hotkey-mass median, and
/// migrates the upper half onto a spare server — the §3.6 migration path
/// driven by load instead of an operator. Holds its own poll state (the
/// previous update counters for rate deltas); the coordinator stays
/// stateless about scaling.
pub struct Autoscaler {
    coord: Arc<Coordinator>,
    cfg: AutoscaleConfig,
    /// Update counters from the previous poll, per master incarnation.
    last_updates: HashMap<MasterId, u64>,
}

impl Autoscaler {
    /// Creates an autoscaler over `coord`.
    pub fn new(coord: Arc<Coordinator>, cfg: AutoscaleConfig) -> Autoscaler {
        Autoscaler { coord, cfg, last_updates: HashMap::new() }
    }

    /// One poll-and-maybe-split round. Errors are advisory (an unreachable
    /// master, a split that raced concurrent writes); the caller just ticks
    /// again — exactly what [`run`](Self::run) does.
    pub async fn tick(&mut self) -> Result<ScaleDecision, String> {
        let config = self.coord.config();
        if config.partitions.len() >= self.cfg.max_partitions {
            return Ok(ScaleDecision::Hold);
        }
        // Poll every partition; skip unreachable masters (they are being
        // recovered — not this loop's business).
        let mut polled: Vec<(PartitionConfig, LoadStats, u64)> = Vec::new();
        for part in &config.partitions {
            let Ok(stats) = self.coord.poll_load(part).await else { continue };
            let delta = stats
                .updates
                .saturating_sub(self.last_updates.get(&part.master_id).copied().unwrap_or(0));
            self.last_updates.insert(part.master_id, stats.updates);
            polled.push((part.clone(), stats, delta));
        }
        // Dead incarnations (recovered or migrated away) drop out of the
        // poll state so it cannot grow across reconfigurations.
        self.last_updates.retain(|id, _| config.partition_by_master(*id).is_some());

        let Some((part, stats, _)) = polled
            .into_iter()
            .filter(|(_, s, delta)| {
                s.pending >= self.cfg.saturation_pending && *delta >= self.cfg.min_update_delta
            })
            .max_by_key(|(_, s, delta)| s.pending + delta)
        else {
            return Ok(ScaleDecision::Hold);
        };
        let split_at = stats
            .split_point()
            .ok_or_else(|| format!("partition {:?} saturated but unsplittable", part.master_id))?;
        let target = self
            .coord
            .spare_servers()
            .into_iter()
            .next()
            .ok_or_else(|| "no spare server for scale-out".to_string())?;
        // The new partition reuses the source's replica/witness hosts — the
        // Figure 2 co-hosting the rest of the cluster already runs with.
        let new_master = self
            .coord
            .migrate(part.master_id, split_at, target, part.backups.clone(), part.witnesses.clone())
            .await?;
        Ok(ScaleDecision::Split { source: part.master_id, split_at, target, new_master })
    }

    /// Runs the loop until [`AutoscalerHandle::shutdown`]: poll every
    /// `poll_interval`, cool down after a successful split. A tick that
    /// errors (unreachable master, raced split) never kills the loop — the
    /// error is retained on the handle and the loop ticks again.
    pub fn run(mut self) -> AutoscalerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(Mutex::ranked(
            lockrank::AUTOSCALER_ERRORS,
            "core.autoscaler.errors",
            Vec::new(),
        ));
        let task = {
            let stop = Arc::clone(&stop);
            let errors = Arc::clone(&errors);
            tokio::spawn(async move {
                loop {
                    tokio::time::sleep(self.cfg.poll_interval).await;
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match self.tick().await {
                        Ok(ScaleDecision::Split { .. }) => {
                            tokio::time::sleep(self.cfg.cooldown).await;
                        }
                        Ok(ScaleDecision::Hold) => {}
                        Err(e) => {
                            let mut errs = errors.lock();
                            // Bounded: keep the newest errors, not a leak.
                            if errs.len() >= AutoscalerHandle::MAX_ERRORS {
                                errs.remove(0);
                            }
                            errs.push(e);
                        }
                    }
                }
            })
        };
        AutoscalerHandle { stop, errors, task }
    }
}

/// Graceful-shutdown handle for a running [`Autoscaler`] loop, and the
/// surface where its tick errors land (instead of vanishing): a poisoned
/// tick never kills the loop, but an operator can see it happened.
pub struct AutoscalerHandle {
    stop: Arc<AtomicBool>,
    errors: Arc<Mutex<Vec<String>>>,
    task: tokio::task::JoinHandle<()>,
}

impl AutoscalerHandle {
    /// Retained tick-error cap (newest win).
    pub const MAX_ERRORS: usize = 32;

    /// Asks the loop to exit; it stops at the next poll boundary (within
    /// one `poll_interval`, or one `cooldown` + `poll_interval` if a split
    /// just landed).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Errors surfaced by ticks so far (newest last, capped at
    /// [`AutoscalerHandle::MAX_ERRORS`]).
    pub fn tick_errors(&self) -> Vec<String> {
        self.errors.lock().clone()
    }

    /// The underlying task, for callers that want to await loop exit after
    /// [`AutoscalerHandle::shutdown`].
    pub fn task(self) -> tokio::task::JoinHandle<()> {
        self.task
    }
}
