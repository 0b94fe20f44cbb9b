//! A CURP server process: any mix of master, backup and witness roles behind
//! one transport handler.
//!
//! The paper co-hosts witnesses with backups (§3.1, Figure 2); this type
//! makes role placement a deployment decision. The coordinator also holds
//! direct (in-process) handles to `CurpServer`s for control-plane actions —
//! installing and recovering masters — while all data-plane traffic flows
//! through the transport.
//!
//! A server built with [`CurpServer::new_durable`] survives power loss: its
//! backup role write-ahead-logs every sync round to per-master AOFs and its
//! witness role journals every mutation before acknowledging (§3.2.2's
//! non-volatile witness memory, §5.4's fsync-before-respond). Re-creating
//! the server over the same data directory replays both, which is the
//! per-process half of `Coordinator::restart_cluster`.

use std::path::Path;
use std::sync::Arc;

use curp_proto::lockrank;
use curp_proto::message::{Request, Response};
use curp_proto::types::ServerId;
use curp_storage::StoreConfig;
use curp_transport::rpc::{BoxFuture, RpcHandler};
use curp_witness::cache::CacheConfig;
use curp_witness::{JournaledWitness, WitnessService};
use parking_lot::Mutex;

use crate::backup::BackupService;
use crate::master::Master;

/// The witness role in either volatility class: plain (in-memory, the
/// paper's flash-backed-DRAM assumption) or journaled (write-ahead to disk
/// before every ack).
enum WitnessRole {
    Plain(WitnessService),
    Journaled(JournaledWitness),
}

impl WitnessRole {
    fn service(&self) -> &WitnessService {
        match self {
            WitnessRole::Plain(s) => s,
            WitnessRole::Journaled(j) => j.service(),
        }
    }

    fn handle_request(&self, req: &Request) -> Response {
        match self {
            WitnessRole::Plain(s) => s.handle_request(req),
            WitnessRole::Journaled(j) => j.handle_request(req),
        }
    }
}

/// One server process.
pub struct CurpServer {
    id: ServerId,
    master: Mutex<Option<Arc<Master>>>,
    backup: BackupService,
    witness: WitnessRole,
}

impl CurpServer {
    /// Creates a memory-only server with empty roles.
    pub fn new(id: ServerId, witness_config: CacheConfig) -> Arc<CurpServer> {
        Self::new_with(id, witness_config, StoreConfig::memory(1))
    }

    /// [`new`](Self::new) with an explicit engine choice for the backup
    /// role's replicas — e.g. [`StoreConfig::tiered`] for replicas larger
    /// than memory.
    pub fn new_with(
        id: ServerId,
        witness_config: CacheConfig,
        backup_store: StoreConfig,
    ) -> Arc<CurpServer> {
        Arc::new(CurpServer {
            id,
            master: Mutex::ranked(lockrank::SERVER_MASTER, "core.server.master", None),
            backup: BackupService::with_store(backup_store),
            witness: WitnessRole::Plain(WitnessService::new(witness_config)),
        })
    }

    /// Creates a durable server rooted at `data_dir`: the backup role keeps
    /// per-master write-ahead AOFs under `data_dir/backup/` and the witness
    /// role journals to `data_dir/witness.journal`. Opening over an existing
    /// directory **is** the cold-restart path — both roles replay whatever
    /// survives on disk before the server accepts its first request.
    pub fn new_durable(
        id: ServerId,
        witness_config: CacheConfig,
        data_dir: &Path,
    ) -> std::io::Result<Arc<CurpServer>> {
        Self::new_durable_with(id, witness_config, data_dir, StoreConfig::memory(1))
    }

    /// [`new_durable`](Self::new_durable) with an explicit engine choice
    /// for the backup role's replicas. The choice must stay stable across
    /// restarts of the same data directory (see `BackupService`'s module
    /// docs on checkpoint shard layout).
    pub fn new_durable_with(
        id: ServerId,
        witness_config: CacheConfig,
        data_dir: &Path,
        backup_store: StoreConfig,
    ) -> std::io::Result<Arc<CurpServer>> {
        std::fs::create_dir_all(data_dir)?;
        Ok(Arc::new(CurpServer {
            id,
            master: Mutex::ranked(lockrank::SERVER_MASTER, "core.server.master", None),
            backup: BackupService::durable_with(data_dir.join("backup"), backup_store)?,
            witness: WitnessRole::Journaled(JournaledWitness::open(
                witness_config,
                &data_dir.join("witness.journal"),
            )?),
        }))
    }

    /// Transport identity of this server.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Installs (or replaces) the master role.
    ///
    /// A *replaced* master is sealed: an abandoned recovery or migration
    /// attempt may have installed a half-initialized instance whose
    /// background syncer is still running, and sealing is what makes that
    /// syncer exit (and every late request bounce) instead of racing the
    /// replacement for the same backups.
    pub fn set_master(&self, master: Arc<Master>) {
        let old = self.master.lock().replace(master);
        if let Some(old) = old {
            let current = self.master.lock().clone();
            if !current.is_some_and(|c| Arc::ptr_eq(&c, &old)) {
                old.seal();
            }
        }
    }

    /// The hosted master, if any.
    pub fn master(&self) -> Option<Arc<Master>> {
        self.master.lock().clone()
    }

    /// The backup role (always present; empty until first sync).
    pub fn backup(&self) -> &BackupService {
        &self.backup
    }

    /// The witness role (always present; empty until `start`).
    pub fn witness(&self) -> &WitnessService {
        self.witness.service()
    }

    /// Seals the hosted master (crash simulation / decommission).
    pub fn seal_master(&self) {
        if let Some(m) = self.master.lock().as_ref() {
            m.seal();
        }
    }

    async fn dispatch(self: Arc<Self>, req: Request) -> Response {
        match &req {
            Request::ClientUpdate { .. }
            | Request::ClientRead { .. }
            | Request::Sync { .. }
            | Request::MasterWitnessList { .. }
            | Request::MasterClientExpired { .. }
            | Request::MasterLoadStats { .. } => {
                let master = self.master.lock().clone();
                match master {
                    Some(m) => m.handle_request(req).await,
                    None => Response::Retry { reason: "no master on this server".into() },
                }
            }
            Request::BackupSync { .. }
            | Request::BackupFetch { .. }
            | Request::BackupInstall { .. }
            | Request::BackupSetEpoch { .. } => self.backup.handle_request(&req),
            Request::WitnessRecord { .. }
            | Request::WitnessGc { .. }
            | Request::WitnessGetRecoveryData { .. }
            | Request::WitnessStart { .. }
            | Request::WitnessEnd { .. } => self.witness.handle_request(&req),
            Request::GetConfig | Request::AcquireLease | Request::RenewLease { .. } => {
                Response::Retry { reason: "not the coordinator".into() }
            }
            // Both transports unwrap batch frames before the handler (one
            // inner dispatch per request); a raw Batch reaching a server
            // means a transport that does not understand them.
            Request::Batch { .. } => {
                Response::Retry { reason: "batch frames are unwrapped by the transport".into() }
            }
        }
    }
}

/// Transport adapter for a server.
pub struct ServerHandler(pub Arc<CurpServer>);

impl RpcHandler for ServerHandler {
    fn handle(&self, _from: ServerId, req: Request) -> BoxFuture<'static, Response> {
        let server = Arc::clone(&self.0);
        Box::pin(server.dispatch(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curp_proto::types::MasterId;

    #[tokio::test]
    async fn serverless_roles_answer_sanely() {
        let s = ServerHandler(CurpServer::new(ServerId(1), CacheConfig::default()));
        let rsp = s.handle(ServerId(9), Request::Sync { master_id: MasterId(1) }).await;
        assert!(matches!(rsp, Response::Retry { .. }), "no master installed");
        let rsp = s.handle(ServerId(9), Request::WitnessStart { master_id: MasterId(1) }).await;
        assert_eq!(rsp, Response::WitnessStarted { ok: true });
        let rsp = s.handle(ServerId(9), Request::GetConfig).await;
        assert!(matches!(rsp, Response::Retry { .. }), "not a coordinator");
    }
}
