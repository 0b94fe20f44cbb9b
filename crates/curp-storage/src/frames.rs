//! The one torn-tail-vs-corruption load discipline, shared by every
//! length-prefixed log in the system (the backup AOF, the coordinator's
//! intent log, the witness journal, and the tiered store's run files).
//!
//! All of these logs are append-only streams of [`write_frame`]-encoded
//! records whose fsync precedes the ack, so a crash can only leave a
//! *prefix* of the bytes that were written. Loading therefore
//! distinguishes exactly three shapes:
//!
//! * clean EOF — every frame decodes; `truncated == false`;
//! * torn tail — leftover bytes after the last complete frame, or a
//!   *final* complete-but-undecodable frame (a tear can land inside the
//!   payload after the length prefix): the tail is dropped and reported
//!   via `truncated`, never an error, because the record it described was
//!   never acknowledged;
//! * mid-log corruption — an undecodable record with complete frames
//!   *after* it, or an out-of-bounds length prefix (a torn append writes
//!   the 4 header bytes before any payload, so a tear leaves a *short*
//!   header, not a wrong one): `InvalidData`, because silently skipping
//!   it would drop acknowledged state.
//!
//! Known limit (shared by all call sites): an in-place bit flip that turns
//! a length prefix into a different *in-bounds* value makes the rest of
//! the file parse as one incomplete frame, indistinguishable from a tear
//! without per-record checksums — this loader detects torn writes and
//! payload corruption, not adversarial in-place media corruption.
//!
//! The *write* half lives here too, so every durable file is produced by
//! the same two code paths: [`AtomicFile`] (whole-file replacement) and
//! [`open_for_append`] (cut a torn tail, reopen the log).
//!
//! [`write_frame`]: curp_proto::frame::write_frame

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use curp_proto::frame::FrameDecoder;

/// What [`decode_frames`] found in a raw log byte stream.
#[must_use = "recovery must inspect how much of the log survived"]
#[derive(Debug, Default)]
pub struct FramesOutcome<T> {
    /// Every record of the clean prefix, in append order.
    pub records: Vec<T>,
    /// Whether a torn tail (incomplete or undecodable final record) was
    /// dropped. The file must be cut back to `clean_len` before appending
    /// again: a new record written after leftover torn bytes hides behind
    /// their stale length prefix and poisons the next load.
    pub truncated: bool,
    /// Byte length of the clean prefix (`records` re-encoded).
    pub clean_len: u64,
}

/// Fsyncs `dir` itself, making directory-entry mutations (file creation,
/// rename) durable. On ext4/xfs a file whose *contents* were fsynced can
/// still vanish in a power loss if the directory entry pointing at it was
/// never flushed — every durable-creation path must call this.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

fn fsync_parent(path: &Path) -> std::io::Result<()> {
    match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => fsync_dir(dir),
        None => Ok(()),
    }
}

/// How much of an [`AtomicFile::commit`] is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncLevel {
    /// Rename only: a rebuildable cache whose owner opted out of fsync.
    None,
    /// `sync_data` before the rename; the caller flushes the directory
    /// itself after further directory mutations, or has waived it.
    Data,
    /// `sync_data`, rename, then fsync the parent directory.
    DataAndDir,
}

/// A file being written for atomic replacement of `path`: content goes to
/// a tmp sibling and [`commit`](Self::commit) renames it over `path`, so a
/// crash at any byte offset leaves the old file or the new one, never a
/// splice. Dropping an uncommitted writer (error, panic, abandoned merge)
/// removes the tmp; one stranded by a *crash* is dead bytes that recovery
/// drops with [`discard_stale`](Self::discard_stale).
#[derive(Debug)]
pub struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    file: File,
    committed: bool,
}

impl AtomicFile {
    /// The tmp sibling of `path`: the full file name plus `.tmp`, so targets
    /// differing only in extension (`master-1.snap`/`.fence`) never share one.
    pub fn tmp_path(path: &Path) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    }

    /// Starts a replacement of `path` (truncating any stale tmp).
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<AtomicFile> {
        let path = path.into();
        let tmp = Self::tmp_path(&path);
        let file = File::create(&tmp)?;
        Ok(AtomicFile { path, tmp, file, committed: false })
    }

    /// The tmp file, for writing (and seeking back to fix up a header).
    pub fn file(&mut self) -> &mut File {
        &mut self.file
    }

    /// Makes the written content the new `path`: `sync_data` → rename →
    /// directory fsync, each step per `level`.
    pub fn commit(mut self, level: SyncLevel) -> std::io::Result<()> {
        if level != SyncLevel::None {
            self.file.sync_data()?;
        }
        std::fs::rename(&self.tmp, &self.path)?;
        self.committed = true;
        if level == SyncLevel::DataAndDir {
            fsync_parent(&self.path)?;
        }
        Ok(())
    }

    /// One-shot form: replaces `path` with whatever `write` produces.
    pub fn replace(
        path: &Path,
        level: SyncLevel,
        write: impl FnOnce(&mut File) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut out = AtomicFile::create(path)?;
        write(&mut out.file)?;
        out.commit(level)
    }

    /// Removes the tmp a crash mid-replacement may have stranded beside `path`.
    pub fn discard_stale(path: &Path) -> std::io::Result<()> {
        match std::fs::remove_file(Self::tmp_path(path)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Opens the framed log at `path` for appending, creating it if missing.
/// `clean_len` is `Some` when a load reported a torn tail: the file is
/// first cut back to that prefix and the cut fsynced (see
/// [`FramesOutcome::truncated`]). With `sync_created`, a new file's
/// directory entry is made durable too: an fsynced log that can vanish
/// with its directory entry is not a log.
pub fn open_for_append(
    path: &Path,
    clean_len: Option<u64>,
    sync_created: bool,
) -> std::io::Result<File> {
    if let Some(len) = clean_len {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_data()?;
    }
    let created = !path.exists();
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    if created && sync_created {
        fsync_parent(path)?;
    }
    Ok(file)
}

/// Reads and decodes the log at `path`; a missing file is an empty log.
/// See [`decode_frames`] for the torn-tail-vs-corruption semantics.
pub fn load_framed<T>(
    path: &Path,
    what: &str,
    decode: impl FnMut(Bytes) -> Result<T, String>,
) -> std::io::Result<FramesOutcome<T>> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    decode_frames(&raw, what, decode)
}

/// Decodes a raw framed byte stream under the module's discipline.
///
/// `what` names the log in error messages (`"intent"`, `"journal"`, …; an
/// empty string for the plain AOF). `decode` turns one complete frame into
/// a record; its `Err` string is appended to the corruption message when
/// non-empty. A decode failure on the *final* frame is treated as a torn
/// tail; anywhere else it is `InvalidData`.
pub fn decode_frames<T>(
    raw: &[u8],
    what: &str,
    mut decode: impl FnMut(Bytes) -> Result<T, String>,
) -> std::io::Result<FramesOutcome<T>> {
    let corrupt = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let noun = |base: &str| {
        if what.is_empty() {
            base.to_string()
        } else {
            format!("{what} {base}")
        }
    };
    let mut decoder = FrameDecoder::new();
    decoder.push(raw);
    let mut frames = Vec::new();
    loop {
        match decoder.next_frame() {
            Ok(Some(frame)) => frames.push(frame),
            // Leftover bytes are a torn (incomplete) final record.
            Ok(None) => break,
            Err(e) => return Err(corrupt(format!("corrupt {} header: {e}", noun("frame")))),
        }
    }
    let mut outcome =
        FramesOutcome { records: Vec::new(), truncated: decoder.buffered() > 0, clean_len: 0 };
    let last = frames.len();
    for (i, frame) in frames.into_iter().enumerate() {
        let frame_len = 4 + frame.len() as u64;
        match decode(frame) {
            Ok(r) => {
                outcome.records.push(r);
                outcome.clean_len += frame_len;
            }
            // A final undecodable frame is indistinguishable from a torn
            // write; one followed by complete frames is not.
            Err(_) if i + 1 == last => {
                outcome.truncated = true;
                break;
            }
            Err(e) => {
                let detail = if e.is_empty() { String::new() } else { format!(": {e}") };
                return Err(corrupt(format!(
                    "corrupt {} {i} with {} complete frames after it{detail}",
                    noun("record"),
                    last - i - 1
                )));
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use curp_proto::frame::write_frame;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for p in payloads {
            write_frame(p, &mut buf);
        }
        buf.to_vec()
    }

    fn utf8(frame: Bytes) -> Result<String, String> {
        String::from_utf8(frame.to_vec()).map_err(|e| e.to_string())
    }

    #[test]
    fn clean_stream_decodes_every_record() {
        let raw = framed(&[b"a", b"bc"]);
        let out = decode_frames(&raw, "", utf8).unwrap();
        assert_eq!(out.records, vec!["a".to_string(), "bc".to_string()]);
        assert!(!out.truncated);
        assert_eq!(out.clean_len, raw.len() as u64);
    }

    #[test]
    fn leftover_bytes_are_a_tear_not_an_error() {
        let mut raw = framed(&[b"a"]);
        let clean = raw.len() as u64;
        raw.extend_from_slice(&[9, 0, 0]); // short header
        let out = decode_frames(&raw, "", utf8).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.truncated);
        assert_eq!(out.clean_len, clean);
    }

    #[test]
    fn final_undecodable_frame_is_a_tear() {
        let raw = framed(&[b"a", &[0xFF, 0xFE]]);
        let out = decode_frames(&raw, "", utf8).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.truncated);
        assert_eq!(out.clean_len, framed(&[b"a"]).len() as u64);
    }

    #[test]
    fn mid_log_bad_record_is_invalid_data() {
        let raw = framed(&[&[0xFF, 0xFE], b"a"]);
        let err = decode_frames(&raw, "journal", utf8).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("journal record 0"), "{err}");
    }

    #[test]
    fn out_of_bounds_length_prefix_is_invalid_data() {
        let mut raw = framed(&[b"a"]);
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(b"junk");
        let err = decode_frames(&raw, "", utf8).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn failed_replace_leaves_the_old_file_and_no_tmp() {
        use std::io::Write;
        let dir = crate::TempDir::new("curp-frames-test").unwrap();
        let path = dir.path().join("log.aof");
        std::fs::write(&path, b"old content").unwrap();
        let err = AtomicFile::replace(&path, SyncLevel::DataAndDir, |f| {
            f.write_all(b"half of the new con")?;
            Err(std::io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(std::fs::read(&path).unwrap(), b"old content");
        assert!(!AtomicFile::tmp_path(&path).exists(), "a failed writer must remove its tmp");
        // A crash (no destructor) strands the tmp; recovery discards it.
        std::fs::write(AtomicFile::tmp_path(&path), b"torn").unwrap();
        AtomicFile::discard_stale(&path).unwrap();
        AtomicFile::discard_stale(&path).unwrap(); // idempotent
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 1);
    }

    #[test]
    fn missing_file_loads_empty() {
        let out = load_framed(Path::new("/nonexistent/curp-frames-test"), "", utf8).unwrap();
        assert!(out.records.is_empty() && !out.truncated && out.clean_len == 0);
    }
}
