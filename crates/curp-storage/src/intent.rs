//! Write-ahead intent log for multi-step orchestration plans.
//!
//! The coordinator's reconfigurations (`recover_master`, `migrate`) are
//! sequences of remote effects — fence epochs, install backups, start
//! witnesses, publish a map. A coordinator that dies between two of those
//! effects leaves the cluster mid-plan, and nothing in the data path can
//! finish the job for it. This journal is the fix: every step is recorded
//! *before* it executes, so a restarted coordinator can read back the open
//! plans and resume-or-abort each one to a consistent state.
//!
//! The on-disk format reuses the AOF frame discipline
//! ([`crate::aof`]): length-prefixed frames, fsync-per-record, a torn final
//! record tolerated on load, mid-log corruption refused. Each frame is one
//! record — `Begin` (opens a plan, carries an opaque payload describing it),
//! `Step` (one orchestration step's payload), or `Close` (the plan is done
//! or deliberately aborted). On open, fully closed plans are compacted away
//! by rewriting the log through [`AtomicFile`], the same
//! replace-atomically discipline the snapshot files use.
//!
//! The journal stores opaque byte payloads: the *meaning* of a plan lives
//! with its owner (the coordinator), which keeps this layer reusable and
//! trivially testable.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::BytesMut;
use curp_proto::frame::write_frame;

use crate::frames::{load_framed, open_for_append, AtomicFile, SyncLevel};

const TAG_BEGIN: u8 = 1;
const TAG_STEP: u8 = 2;
const TAG_CLOSE: u8 = 3;

/// A plan found open (begun, never closed) when the log was loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenPlan {
    /// The plan's journal-assigned id (monotonic per log).
    pub id: u64,
    /// The opaque payload recorded by [`IntentLog::begin`].
    pub begin: Vec<u8>,
    /// Every step payload recorded so far, in order.
    pub steps: Vec<Vec<u8>>,
}

/// Append-only journal of orchestration intents.
///
/// Every mutation appends one frame and fsyncs before returning — a record
/// that `begin`/`step`/`close` acknowledged is durable, which is exactly the
/// property the resume protocol needs: a step that *executed* is always
/// preceded on disk by its record.
#[derive(Debug)]
pub struct IntentLog {
    path: PathBuf,
    file: File,
    next_plan: u64,
    recorded: u64,
    fail_after: Option<u64>,
}

impl IntentLog {
    /// Opens (creating if missing) the intent log at `path`, returning the
    /// journal and every plan left open by a previous incarnation.
    ///
    /// A torn final record (crash mid-append) is cut off; closed plans are
    /// compacted away via [`AtomicFile`] so the log stays bounded by the
    /// in-flight plan count, not cluster lifetime.
    pub fn open(path: &Path) -> std::io::Result<(IntentLog, Vec<OpenPlan>)> {
        // The shared framed-log reader supplies the torn-tail-vs-corruption
        // rule; only the record codec is intent-specific.
        let records =
            load_framed(path, "intent", |frame| decode_record(&frame).ok_or_else(String::new))?
                .records;
        let mut open: Vec<OpenPlan> = Vec::new();
        let mut max_id = 0u64;
        for (tag, id, payload) in &records {
            max_id = max_id.max(*id);
            match *tag {
                TAG_BEGIN => {
                    open.push(OpenPlan { id: *id, begin: payload.clone(), steps: Vec::new() })
                }
                TAG_STEP => {
                    if let Some(p) = open.iter_mut().find(|p| p.id == *id) {
                        p.steps.push(payload.clone());
                    }
                }
                TAG_CLOSE => open.retain(|p| p.id != *id),
                _ => {}
            }
        }
        // Compact: rewrite only the open plans' records, replace atomically.
        // Also heals a torn tail (the rewrite simply omits it).
        let mut buf = BytesMut::new();
        for (tag, id, payload) in &records {
            if open.iter().any(|p| p.id == *id) {
                write_frame(&encode_record(*tag, *id, payload), &mut buf);
            }
        }
        AtomicFile::replace(path, SyncLevel::DataAndDir, |f| f.write_all(&buf))?;
        let file = open_for_append(path, None, false)?;
        Ok((
            IntentLog {
                path: path.to_path_buf(),
                file,
                next_plan: max_id + 1,
                recorded: 0,
                fail_after: None,
            },
            open,
        ))
    }

    /// Opens a plan: records `payload` durably and returns the plan id.
    pub fn begin(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let id = self.next_plan;
        self.append(TAG_BEGIN, id, payload)?;
        self.next_plan += 1;
        Ok(id)
    }

    /// Records one step of plan `id` durably. Call *before* executing the
    /// step's effects; a step whose record never made it to disk must not
    /// have run.
    pub fn step(&mut self, id: u64, payload: &[u8]) -> std::io::Result<()> {
        self.append(TAG_STEP, id, payload)
    }

    /// Closes plan `id` (completed or aborted); a closed plan is compacted
    /// away on the next open.
    pub fn close(&mut self, id: u64) -> std::io::Result<()> {
        self.append(TAG_CLOSE, id, &[])
    }

    /// Records appended (durably) in this session.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Path this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fault injection for crash-at-step-boundary tests: after `n` more
    /// successful records, every append fails *without writing* — exactly
    /// what a coordinator crash at that step boundary looks like (the step
    /// was never recorded, so it never executed). `None` disarms.
    pub fn set_fail_after(&mut self, n: Option<u64>) {
        self.fail_after = n;
    }

    fn append(&mut self, tag: u8, id: u64, payload: &[u8]) -> std::io::Result<()> {
        if let Some(budget) = self.fail_after {
            if budget == 0 {
                return Err(std::io::Error::other("injected intent-log crash"));
            }
            self.fail_after = Some(budget - 1);
        }
        let mut buf = BytesMut::new();
        write_frame(&encode_record(tag, id, payload), &mut buf);
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.recorded += 1;
        Ok(())
    }
}

fn encode_record(tag: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(9 + payload.len());
    v.push(tag);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(payload);
    v
}

fn decode_record(frame: &[u8]) -> Option<(u8, u64, Vec<u8>)> {
    if frame.len() < 9 {
        return None;
    }
    let tag = frame[0];
    if !matches!(tag, TAG_BEGIN | TAG_STEP | TAG_CLOSE) {
        return None;
    }
    let id = u64::from_le_bytes(frame[1..9].try_into().ok()?);
    Some((tag, id, frame[9..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;
    use std::fs::OpenOptions;

    #[test]
    fn begin_step_close_roundtrip() {
        let dir = TempDir::new("curp-intent-test").unwrap();
        let path = dir.path().join("roundtrip");
        {
            let (mut log, open) = IntentLog::open(&path).unwrap();
            assert!(open.is_empty());
            let a = log.begin(b"plan-a").unwrap();
            log.step(a, b"fence").unwrap();
            log.step(a, b"publish").unwrap();
            let b = log.begin(b"plan-b").unwrap();
            log.close(a).unwrap();
            assert_ne!(a, b);
        }
        let (_, open) = IntentLog::open(&path).unwrap();
        assert_eq!(open.len(), 1, "closed plan compacted away");
        assert_eq!(open[0].begin, b"plan-b");
        assert!(open[0].steps.is_empty());
    }

    #[test]
    fn open_plan_keeps_step_order() {
        let dir = TempDir::new("curp-intent-test").unwrap();
        let path = dir.path().join("steps");
        {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            let id = log.begin(b"recover").unwrap();
            for s in ["fence", "witness", "install"] {
                log.step(id, s.as_bytes()).unwrap();
            }
        }
        let (_, open) = IntentLog::open(&path).unwrap();
        assert_eq!(open.len(), 1);
        assert_eq!(
            open[0].steps,
            vec![b"fence".to_vec(), b"witness".to_vec(), b"install".to_vec()]
        );
    }

    #[test]
    fn plan_ids_stay_monotonic_across_reopen() {
        let dir = TempDir::new("curp-intent-test").unwrap();
        let path = dir.path().join("monotonic");
        let first = {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            log.begin(b"p").unwrap()
        };
        let second = {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            log.begin(b"q").unwrap()
        };
        assert!(second > first, "{second} must exceed {first}");
    }

    #[test]
    fn torn_tail_is_dropped_and_healed() {
        let dir = TempDir::new("curp-intent-test").unwrap();
        let path = dir.path().join("torn");
        {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            let id = log.begin(b"plan").unwrap();
            log.step(id, b"step-1").unwrap();
            log.step(id, b"step-2").unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (_, open) = IntentLog::open(&path).unwrap();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].steps, vec![b"step-1".to_vec()], "torn step-2 dropped");
        // The compaction rewrite healed the tear: a re-open sees clean state.
        let (_, open2) = IntentLog::open(&path).unwrap();
        assert_eq!(open2, open);
    }

    #[test]
    fn mid_log_corruption_is_refused() {
        let dir = TempDir::new("curp-intent-test").unwrap();
        let path = dir.path().join("midlog");
        {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            let id = log.begin(b"plan-one").unwrap();
            log.step(id, b"step-payload").unwrap();
            log.step(id, b"another-step").unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        // Flip the first record's tag byte (frame payload offset 4): complete
        // frames follow, so this cannot be a torn append.
        raw[4] = 0xEE;
        std::fs::write(&path, &raw).unwrap();
        let err = IntentLog::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn injected_fault_fails_without_writing() {
        let dir = TempDir::new("curp-intent-test").unwrap();
        let path = dir.path().join("fault");
        {
            let (mut log, _) = IntentLog::open(&path).unwrap();
            log.set_fail_after(Some(2));
            let id = log.begin(b"plan").unwrap();
            log.step(id, b"ok-step").unwrap();
            let err = log.step(id, b"never-lands").unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(log.recorded(), 2);
        }
        let (_, open) = IntentLog::open(&path).unwrap();
        assert_eq!(open[0].steps, vec![b"ok-step".to_vec()], "failed record never hit disk");
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let dir = TempDir::new("curp-intent-test").unwrap();
        let path = dir.path().join("missing");
        let (log, open) = IntentLog::open(&path).unwrap();
        assert!(open.is_empty());
        assert_eq!(log.recorded(), 0);
    }
}
