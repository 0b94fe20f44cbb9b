//! Server-side completion records and duplicate filtering.

use std::collections::{BTreeMap, HashMap};

use curp_proto::message::LogEntry;
use curp_proto::op::OpResult;
use curp_proto::types::{ClientId, RpcId};

/// Exported form of the table: `(client, first_incomplete, [(seq, result)])`
/// rows in deterministic order — the snapshot representation.
pub type RiflExport = Vec<(ClientId, u64, Vec<(u64, OpResult)>)>;

/// Outcome of checking an incoming RPC id against the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// Never seen: execute it, then call [`RiflTable::record`].
    New,
    /// Already executed: skip execution, return the recorded result.
    Duplicate(OpResult),
    /// The client already acknowledged receiving this result (or its lease
    /// expired), so the record is gone. Per RIFL, such stale retries are
    /// ignored rather than re-executed.
    Stale,
}

#[derive(Debug, Default, Clone)]
struct ClientRecords {
    /// All RPCs with `seq < first_incomplete` have been acknowledged and
    /// their completion records discarded.
    first_incomplete: u64,
    /// Completion records for non-acknowledged RPCs, by sequence number.
    records: BTreeMap<u64, OpResult>,
    /// Whether this client is listed in [`RiflTable::moved`].
    moved: bool,
}

/// The per-master RIFL state.
///
/// Durability note: completion records ride inside the replicated
/// [`LogEntry`]s (op + result), so the table can always be rebuilt from a
/// backup's log via [`RiflTable::rebuild`]; no separate persistence needed.
#[derive(Debug, Default, Clone)]
pub struct RiflTable {
    clients: HashMap<ClientId, ClientRecords>,
    /// While replaying witness data, piggybacked acks must be ignored (§4.8):
    /// replays arrive in arbitrary order, and an ack carried by a later RPC
    /// must not suppress the replay of an earlier one.
    recovery_mode: bool,
    /// Clients whose watermark rose since the last [`take_moved_acks`]
    /// (each listed once), so a master's sync round carries only the acks
    /// that are news to its backups. Bounded by the number of clients.
    ///
    /// [`take_moved_acks`]: RiflTable::take_moved_acks
    moved: Vec<ClientId>,
}

impl RiflTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RiflTable::default()
    }

    /// Enters or leaves recovery mode (ack suppression, §4.8).
    pub fn set_recovery_mode(&mut self, on: bool) {
        self.recovery_mode = on;
    }

    /// Whether recovery mode is active.
    pub fn recovery_mode(&self) -> bool {
        self.recovery_mode
    }

    /// Classifies an incoming RPC id.
    pub fn check(&self, id: RpcId) -> CheckResult {
        let Some(client) = self.clients.get(&id.client) else {
            return CheckResult::New;
        };
        if id.seq < client.first_incomplete {
            return CheckResult::Stale;
        }
        match client.records.get(&id.seq) {
            Some(result) => CheckResult::Duplicate(result.clone()),
            None => CheckResult::New,
        }
    }

    /// Records the completion of `id` with `result`. A record below the
    /// client's watermark is not kept: the client already acknowledged it
    /// (a backup can apply an entry after the ack that covers it, e.g. from
    /// a reordered per-request batch), and [`check`](Self::check) answers
    /// [`CheckResult::Stale`] for it either way.
    ///
    /// # Panics
    /// Panics if the id is already recorded with a *different* result —
    /// that would mean non-deterministic re-execution, a protocol bug.
    pub fn record(&mut self, id: RpcId, result: OpResult) {
        let client = self.clients.entry(id.client).or_default();
        if id.seq < client.first_incomplete {
            return;
        }
        if let Some(prev) = client.records.get(&id.seq) {
            assert_eq!(prev, &result, "conflicting completion records for {id}");
            return;
        }
        client.records.insert(id.seq, result);
    }

    /// Applies a piggybacked acknowledgement: the client has received the
    /// results of all RPCs with `seq < first_incomplete`, so their records
    /// can be dropped. No-op in recovery mode (§4.8).
    pub fn ack(&mut self, client_id: ClientId, first_incomplete: u64) {
        if self.recovery_mode {
            return;
        }
        let client = self.clients.entry(client_id).or_default();
        if first_incomplete <= client.first_incomplete {
            return;
        }
        client.first_incomplete = first_incomplete;
        client.records = client.records.split_off(&first_incomplete);
        Self::mark_moved(&mut self.moved, client_id, client);
    }

    fn mark_moved(moved: &mut Vec<ClientId>, id: ClientId, client: &mut ClientRecords) {
        if !client.moved {
            client.moved = true;
            moved.push(id);
        }
    }

    /// The current watermark of every client whose watermark rose since
    /// the last call, then forgets them: a master sends these to its
    /// backups with the round's entries. Hand them back with
    /// [`requeue_acks`](Self::requeue_acks) if the round fails.
    pub fn take_moved_acks(&mut self) -> Vec<(ClientId, u64)> {
        let mut acks = Vec::with_capacity(self.moved.len());
        for id in self.moved.drain(..) {
            if let Some(client) = self.clients.get_mut(&id) {
                client.moved = false;
                acks.push((id, client.first_incomplete));
            }
        }
        acks
    }

    /// Lists the clients of `acks` as moved again (their round did not
    /// reach every backup); the next take reads their watermarks afresh.
    pub fn requeue_acks(&mut self, acks: &[(ClientId, u64)]) {
        for &(id, _) in acks {
            if let Some(client) = self.clients.get_mut(&id) {
                Self::mark_moved(&mut self.moved, id, client);
            }
        }
    }

    /// Discards all records of an expired client (§4.8). The caller (the
    /// master) must have synced to backups first.
    pub fn expire_client(&mut self, client_id: ClientId) {
        // Leave a tombstone watermark so stale retries stay Stale rather
        // than re-executing as New.
        let client = self.clients.entry(client_id).or_default();
        client.first_incomplete = u64::MAX;
        client.records.clear();
        Self::mark_moved(&mut self.moved, client_id, client);
    }

    /// Rebuilds the table from a replicated operation log (recovery restore).
    pub fn rebuild(entries: &[LogEntry]) -> Self {
        let mut table = RiflTable::new();
        for e in entries {
            if let Some(id) = e.rpc_id {
                table.record(id, e.result.clone());
            }
        }
        table
    }

    /// Number of live completion records (for the §5.2 memory accounting).
    pub fn record_count(&self) -> usize {
        self.clients.values().map(|c| c.records.len()).sum()
    }

    /// Exports the table in deterministic order for snapshotting:
    /// `(client, first_incomplete, [(seq, result)])`.
    pub fn export(&self) -> RiflExport {
        let mut out: Vec<_> = self
            .clients
            .iter()
            .map(|(&id, c)| {
                (id, c.first_incomplete, c.records.iter().map(|(&s, r)| (s, r.clone())).collect())
            })
            .collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Rebuilds a table from exported state (recovery restore).
    pub fn import(data: RiflExport) -> Self {
        let mut table = RiflTable::new();
        for (id, first_incomplete, records) in data {
            table.clients.insert(
                id,
                ClientRecords {
                    first_incomplete,
                    records: records.into_iter().collect(),
                    moved: false,
                },
            );
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use curp_proto::op::Op;

    fn rid(c: u64, s: u64) -> RpcId {
        RpcId::new(ClientId(c), s)
    }

    fn written(v: u64) -> OpResult {
        OpResult::Written { version: v }
    }

    #[test]
    fn new_then_duplicate() {
        let mut t = RiflTable::new();
        assert_eq!(t.check(rid(1, 1)), CheckResult::New);
        t.record(rid(1, 1), written(7));
        assert_eq!(t.check(rid(1, 1)), CheckResult::Duplicate(written(7)));
        // Different seq of the same client is new.
        assert_eq!(t.check(rid(1, 2)), CheckResult::New);
        // Same seq of a different client is new.
        assert_eq!(t.check(rid(2, 1)), CheckResult::New);
    }

    #[test]
    fn ack_discards_records_and_marks_stale() {
        let mut t = RiflTable::new();
        for s in 1..=5 {
            t.record(rid(1, s), written(s));
        }
        t.ack(ClientId(1), 4);
        assert_eq!(t.check(rid(1, 3)), CheckResult::Stale);
        assert_eq!(t.check(rid(1, 4)), CheckResult::Duplicate(written(4)));
        assert_eq!(t.record_count(), 2);
    }

    #[test]
    fn ack_never_regresses() {
        let mut t = RiflTable::new();
        t.record(rid(1, 5), written(5));
        t.ack(ClientId(1), 5);
        t.ack(ClientId(1), 2); // late, out-of-order ack
        assert_eq!(t.check(rid(1, 4)), CheckResult::Stale);
        assert_eq!(t.check(rid(1, 5)), CheckResult::Duplicate(written(5)));
    }

    #[test]
    fn recovery_mode_suppresses_acks() {
        // §4.8: "clients' acknowledgments included in RPC requests must be
        // ignored during recovery from witnesses."
        let mut t = RiflTable::new();
        t.record(rid(1, 1), written(1));
        t.set_recovery_mode(true);
        t.ack(ClientId(1), 2);
        assert_eq!(
            t.check(rid(1, 1)),
            CheckResult::Duplicate(written(1)),
            "replay of seq 1 must still be filtered (not ignored) during recovery"
        );
        t.set_recovery_mode(false);
        t.ack(ClientId(1), 2);
        assert_eq!(t.check(rid(1, 1)), CheckResult::Stale);
    }

    #[test]
    fn expire_client_drops_everything() {
        let mut t = RiflTable::new();
        t.record(rid(1, 1), written(1));
        t.record(rid(1, 2), written(2));
        t.expire_client(ClientId(1));
        assert_eq!(t.record_count(), 0);
        assert_eq!(t.check(rid(1, 1)), CheckResult::Stale);
        assert_eq!(t.check(rid(1, 99)), CheckResult::Stale);
    }

    #[test]
    fn moved_acks_are_taken_once_and_requeued_on_failure() {
        let mut t = RiflTable::new();
        t.ack(ClientId(1), 3);
        t.ack(ClientId(2), 5);
        t.ack(ClientId(1), 4); // moves again before the take: listed once
        t.ack(ClientId(2), 5); // no rise: not news
        let mut acks = t.take_moved_acks();
        acks.sort();
        assert_eq!(acks, vec![(ClientId(1), 4), (ClientId(2), 5)]);
        assert!(t.take_moved_acks().is_empty(), "a take forgets what it returned");
        // A failed round hands its acks back; the next take reads the
        // watermark as it is by then.
        t.requeue_acks(&acks);
        t.ack(ClientId(1), 9);
        let mut again = t.take_moved_acks();
        again.sort();
        assert_eq!(again, vec![(ClientId(1), 9), (ClientId(2), 5)]);
        t.expire_client(ClientId(3));
        assert_eq!(t.take_moved_acks(), vec![(ClientId(3), u64::MAX)]);
    }

    #[test]
    fn record_below_the_watermark_is_not_kept() {
        let mut t = RiflTable::new();
        t.ack(ClientId(1), 4);
        t.record(rid(1, 2), written(2)); // applied after the ack covering it
        assert_eq!(t.record_count(), 0);
        assert_eq!(t.check(rid(1, 2)), CheckResult::Stale);
        t.record(rid(1, 4), written(4));
        assert_eq!(t.check(rid(1, 4)), CheckResult::Duplicate(written(4)));
    }

    #[test]
    fn idempotent_record_of_same_result_is_ok() {
        let mut t = RiflTable::new();
        t.record(rid(1, 1), written(1));
        t.record(rid(1, 1), written(1));
        assert_eq!(t.record_count(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting completion records")]
    fn conflicting_record_panics() {
        let mut t = RiflTable::new();
        t.record(rid(1, 1), written(1));
        t.record(rid(1, 1), written(2));
    }

    #[test]
    fn rebuild_from_log() {
        let entries = vec![
            LogEntry {
                seq: 0,
                rpc_id: Some(rid(1, 1)),
                op: Op::Put { key: Bytes::from_static(b"k"), value: Bytes::from_static(b"v") },
                result: written(1),
            },
            LogEntry {
                seq: 1,
                rpc_id: None,
                op: Op::Delete { key: Bytes::from_static(b"k") },
                result: written(1),
            },
            LogEntry {
                seq: 2,
                rpc_id: Some(rid(2, 9)),
                op: Op::Incr { key: Bytes::from_static(b"c"), delta: 1 },
                result: OpResult::Counter(1),
            },
        ];
        let t = RiflTable::rebuild(&entries);
        assert_eq!(t.check(rid(1, 1)), CheckResult::Duplicate(written(1)));
        assert_eq!(t.check(rid(2, 9)), CheckResult::Duplicate(OpResult::Counter(1)));
        assert_eq!(t.record_count(), 2);
    }
}
