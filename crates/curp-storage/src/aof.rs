//! Redis-style append-only file (AOF).
//!
//! §5.4 of the paper: *"the only way to achieve durability and consistency
//! after crashes is to log client requests to an append-only file and invoke
//! fsync before responding to clients."* This module implements exactly that
//! log: length-prefixed encoded [`LogEntry`]s appended to a file, with an
//! fsync policy controlling when the OS is forced to make them durable.
//!
//! Loading tolerates a torn tail (a crash mid-append, mirroring Redis'
//! `aof-load-truncated`) but refuses real mid-log corruption: the two look
//! nothing alike on disk — a torn append is a missing suffix, while a bad
//! record *followed by complete frames* means the medium lied — and recovery
//! must not silently drop the durable entries behind a corrupt one. The
//! distinction is reported through [`FramesOutcome`].

use std::fs::File;
use std::io::Write;
use std::path::Path;

use bytes::BytesMut;
use curp_proto::frame::write_frame;
use curp_proto::message::LogEntry;
use curp_proto::wire::{Decode, Encode};

use crate::frames::{load_framed, open_for_append, AtomicFile, FramesOutcome, SyncLevel};

/// When the AOF forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — Redis `appendfsync always`, the durable
    /// configuration measured as "Original Redis (durable)" in Figure 8.
    Always,
    /// Caller invokes [`Aof::sync`] explicitly (used with CURP: the log is
    /// written in the background and synced in batches).
    Manual,
    /// Never fsync — Redis' default cache-like behaviour ("Original Redis
    /// (non-durable)").
    Never,
}

/// An append-only log of executed operations.
pub struct Aof {
    file: File,
    policy: FsyncPolicy,
    appended: u64,
    synced: u64,
}

impl Aof {
    /// Opens (creating if missing) the AOF at `path` for appending.
    ///
    /// Unless the policy is [`FsyncPolicy::Never`], a newly created file's
    /// directory entry is made durable too ([`open_for_append`]).
    pub fn open(path: &Path, policy: FsyncPolicy) -> std::io::Result<Aof> {
        let file = open_for_append(path, None, policy != FsyncPolicy::Never)?;
        Ok(Aof { file, policy, appended: 0, synced: 0 })
    }

    /// Appends one entry; fsyncs if the policy is [`FsyncPolicy::Always`].
    pub fn append(&mut self, entry: &LogEntry) -> std::io::Result<()> {
        let mut buf = BytesMut::with_capacity(entry.encoded_len() + 4);
        write_frame(&entry.to_bytes(), &mut buf);
        self.file.write_all(&buf)?;
        self.appended += 1;
        if self.policy == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends a batch of entries with a single write and (policy-dependent)
    /// a single fsync — the batching §C.2 describes for durable Redis.
    pub fn append_batch(&mut self, entries: &[LogEntry]) -> std::io::Result<()> {
        let mut buf = BytesMut::new();
        for e in entries {
            write_frame(&e.to_bytes(), &mut buf);
        }
        self.file.write_all(&buf)?;
        self.appended += entries.len() as u64;
        if self.policy == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces appended entries to stable storage.
    ///
    /// Under [`FsyncPolicy::Never`] this is a no-op and `synced()` does not
    /// advance: the counter promises durability, and without an fsync there
    /// is none to promise.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.policy == FsyncPolicy::Never {
            return Ok(());
        }
        self.file.sync_data()?;
        self.synced = self.appended;
        Ok(())
    }

    /// Entries appended so far in this session.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Entries known durable (fsynced) in this session.
    pub fn synced(&self) -> u64 {
        self.synced
    }

    /// Loads all complete entries from `path`.
    ///
    /// A torn final record (crash mid-write) is discarded and reported via
    /// [`FramesOutcome::truncated`]; a missing file is an empty log. A corrupt
    /// record with complete frames after it — or an out-of-bounds length
    /// prefix, which a torn append cannot produce (append writes the 4
    /// header bytes before any payload, and a tear leaves a *short* header,
    /// not a wrong one) — is real corruption and returns `InvalidData`.
    ///
    /// Known limit: an in-place bit flip that turns a length prefix into a
    /// different *in-bounds* value makes the rest of the file parse as one
    /// incomplete frame, which is indistinguishable from a tear without
    /// per-record checksums — this loader detects torn writes and payload
    /// corruption, not adversarial or silent in-place media corruption.
    pub fn load(path: &Path) -> std::io::Result<FramesOutcome<LogEntry>> {
        load_framed(path, "", |frame| LogEntry::from_bytes_shared(frame).map_err(|e| e.to_string()))
    }

    /// Atomically replaces the log at `path` with exactly `entries` and
    /// reopens it for appending under `policy` — the AOF-compaction
    /// primitive behind the backup's bounded-log maintenance.
    ///
    /// Crash-safe by construction ([`AtomicFile`]): the new content is
    /// written to a tmp sibling, fsynced there, and renamed over `path`
    /// (with a directory fsync), so a crash at any byte offset leaves
    /// either the old log or the new one fully loadable — never a spliced
    /// hybrid. The returned handle replaces any prior [`Aof`] for `path`:
    /// the old handle's descriptor points at the unlinked file and must
    /// not be appended to again.
    ///
    /// Callers must make every *dropped* entry durable elsewhere (a
    /// snapshot or checkpoint covering its seq) before calling; the
    /// rewrite itself never checks that (DESIGN.md invariant 12).
    pub fn rewrite(path: &Path, entries: &[LogEntry], policy: FsyncPolicy) -> std::io::Result<Aof> {
        let mut buf = BytesMut::new();
        for e in entries {
            write_frame(&e.to_bytes(), &mut buf);
        }
        let level =
            if policy == FsyncPolicy::Never { SyncLevel::Data } else { SyncLevel::DataAndDir };
        AtomicFile::replace(path, level, |f| f.write_all(&buf))?;
        let mut aof = Aof::open(path, policy)?;
        // The renamed content is already durable; report it as such so a
        // caller's "synced entries" accounting starts from the rewrite.
        aof.appended = entries.len() as u64;
        aof.synced = if policy == FsyncPolicy::Never { 0 } else { aof.appended };
        Ok(aof)
    }

    /// Cuts a torn tail off the file at `path`, leaving exactly the clean
    /// prefix a prior [`Aof::load`] reported. Recovery must call this
    /// before reopening a truncated log for appending: a new record
    /// written after leftover torn bytes hides behind their stale length
    /// prefix and turns the *next* load into phantom entries or a
    /// corruption error.
    pub fn truncate_to_clean(
        path: &Path,
        outcome: &FramesOutcome<LogEntry>,
    ) -> std::io::Result<()> {
        if outcome.truncated {
            open_for_append(path, Some(outcome.clean_len), false)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;
    use bytes::Bytes;
    use curp_proto::op::{Op, OpResult};
    use curp_proto::types::{ClientId, RpcId};
    use std::fs::OpenOptions;

    fn entry(seq: u64) -> LogEntry {
        LogEntry {
            seq,
            rpc_id: Some(RpcId::new(ClientId(1), seq)),
            op: Op::Put { key: Bytes::from(format!("k{seq}")), value: Bytes::from(vec![0u8; 100]) },
            result: OpResult::Written { version: seq + 1 },
        }
    }

    #[test]
    fn append_and_load() {
        let dir = TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join("roundtrip");
        {
            let mut aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
            for i in 0..10 {
                aof.append(&entry(i)).unwrap();
            }
            assert_eq!(aof.appended(), 10);
            assert_eq!(aof.synced(), 10);
        }
        let loaded = Aof::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 10);
        assert_eq!(loaded.records[3], entry(3));
        assert!(!loaded.truncated, "clean file must not report a torn tail");
    }

    #[test]
    fn batch_append_counts() {
        let dir = TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join("batch");
        let mut aof = Aof::open(&path, FsyncPolicy::Manual).unwrap();
        let batch: Vec<_> = (0..5).map(entry).collect();
        aof.append_batch(&batch).unwrap();
        assert_eq!(aof.appended(), 5);
        assert_eq!(aof.synced(), 0, "manual policy defers fsync");
        aof.sync().unwrap();
        assert_eq!(aof.synced(), 5);
        assert_eq!(Aof::load(&path).unwrap().records.len(), 5);
    }

    #[test]
    fn never_policy_never_reports_synced() {
        let dir = TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join("never");
        let mut aof = Aof::open(&path, FsyncPolicy::Never).unwrap();
        for i in 0..4 {
            aof.append(&entry(i)).unwrap();
        }
        aof.sync().unwrap();
        assert_eq!(aof.appended(), 4);
        assert_eq!(aof.synced(), 0, "no fsync happened, so nothing is durable");
    }

    #[test]
    fn missing_file_loads_empty() {
        let dir = TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join("missing");
        let loaded = Aof::load(&path).unwrap();
        assert!(loaded.records.is_empty());
        assert!(!loaded.truncated);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join("torn");
        {
            let mut aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
            for i in 0..3 {
                aof.append(&entry(i)).unwrap();
            }
        }
        // Simulate a crash mid-append: truncate the last record in half.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 20).unwrap();
        drop(f);
        let loaded = Aof::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 2, "torn third record dropped");
        assert!(loaded.truncated, "the tear must be reported");
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_truncation() {
        let dir = TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join("midlog");
        {
            let mut aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
            for i in 0..3 {
                aof.append(&entry(i)).unwrap();
            }
        }
        // Corrupt the *second* record's rpc_id Option tag (payload offset 8,
        // after the 8-byte seq): complete frames follow it, so this cannot
        // be a torn append.
        let first_len = 4 + entry(0).to_bytes().len();
        let mut raw = std::fs::read(&path).unwrap();
        raw[first_len + 4 + 8] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let err = Aof::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn corrupt_length_prefix_is_an_error() {
        let dir = TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join("badlen");
        {
            let mut aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
            aof.append(&entry(0)).unwrap();
        }
        // Overwrite the length prefix with an absurd declared size. All four
        // header bytes are present, so a torn append cannot explain it.
        let mut raw = std::fs::read(&path).unwrap();
        raw[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let err = Aof::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn reopen_appends_after_existing_entries() {
        let dir = TempDir::new("curp-aof-test").unwrap();
        let path = dir.path().join("reopen");
        {
            let mut aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
            aof.append(&entry(0)).unwrap();
        }
        {
            let mut aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
            aof.append(&entry(1)).unwrap();
        }
        let loaded = Aof::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[1].seq, 1);
    }
}
