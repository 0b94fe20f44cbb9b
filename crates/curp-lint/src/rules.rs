//! The lint rules. Each rule walks the token stream produced by
//! [`crate::lexer`] and emits [`Finding`]s; inline `// lint: <marker>`
//! comments (same line or the line above) suppress individual sites, and
//! `allow.list` suppresses whole files per rule.
//!
//! Rules:
//!
//! | id                | meaning                                               |
//! |-------------------|-------------------------------------------------------|
//! | `std-sync`        | `std::sync::Mutex`/`RwLock` outside the shims         |
//! | `unranked-mutex`  | `Mutex::new`/`RwLock::new` in a crate that ranks locks|
//! | `std-time`        | `std::time::Instant`/`SystemTime` in deterministic code|
//! | `unwrap-expect`   | `.unwrap()`/`.expect(` in audited fast-path crates    |
//! | `ack-before-fsync`| ack construction before a later fsync in durable code |
//! | `raw-durable-write`| `fs::rename`/`File::create` in durable code outside `frames.rs` |
//! | `adhoc-tempdir`   | `temp_dir()` outside `tempdir.rs` — tests and benches included |

use std::collections::HashSet;
use std::path::Path;

use crate::lexer::{Lexed, Tok};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (also the allowlist key).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }
}

/// Per-file context a rule run needs.
pub struct FileCtx<'a> {
    /// Repo-relative path, forward slashes.
    pub path: &'a str,
    /// Lexed source.
    pub lexed: &'a Lexed,
    /// Token indices inside `#[cfg(test)]` / `#[test]` items (excluded from
    /// every rule but `adhoc-tempdir`: tests may use unwraps, real time,
    /// plain mutexes freely — but not name their own scratch paths).
    pub test_tokens: &'a [bool],
    /// Whether the file's crate defines ranked locks (activates
    /// `unranked-mutex`).
    pub crate_has_ranked_locks: bool,
}

/// Crates whose non-test code must be free of `.unwrap()`/`.expect(`
/// (CURP's fast path: master execution, witness path, storage engine).
pub const NO_UNWRAP_CRATES: &[&str] = &["curp-core", "curp-storage"];

/// Durable modules for the `ack-before-fsync` heuristic: files whose
/// contract is "fsync precedes every acknowledgement" (DESIGN.md
/// invariant 7).
pub const DURABLE_FILES: &[&str] =
    &["aof.rs", "frames.rs", "intent.rs", "runfile.rs", "persist.rs", "backup.rs"];

/// Identifiers that construct a positive acknowledgement on the durable
/// path. Appearing textually before a later fsync in a durable module is
/// suspicious (the covering fsync should already have happened).
pub const ACK_TOKENS: &[&str] =
    &["BackupSynced", "BackupInstalled", "RecordAccepted", "SyncDone", "WitnessStarted"];

/// Fsync-performing names: the raw calls plus the entry points of the one
/// durable-file writer (`curp_storage::frames`).
const FSYNC_TOKENS: &[&str] =
    &["sync_data", "sync_all", "fsync_dir", "AtomicFile", "open_for_append"];

/// Runs every rule applicable to `ctx` and appends findings. Test, bench
/// and example targets are test code wholesale: only `adhoc-tempdir`
/// reaches into them.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    rule_adhoc_tempdir(ctx, out);
    if is_test_target(ctx.path) {
        return;
    }
    rule_std_sync(ctx, out);
    rule_unranked_mutex(ctx, out);
    rule_std_time(ctx, out);
    rule_unwrap_expect(ctx, out);
    rule_ack_before_fsync(ctx, out);
    rule_raw_durable_write(ctx, out);
}

/// Whether `path` (repo-relative) is an integration-test, bench or example
/// target rather than library source.
pub fn is_test_target(path: &str) -> bool {
    let dirs = ["tests/", "benches/", "examples/"];
    dirs.iter().any(|d| path.starts_with(d) || path.contains(&format!("/{d}")))
}

/// Computes, per token index, whether the token sits inside a test-gated
/// item: `#[cfg(test)]`- or `#[test]`-attributed mods/fns/impls.
pub fn test_token_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if is_test_attr_at(lexed, i) {
            // Skip past any further attributes, then mark the item through
            // its closing brace (or terminating semicolon).
            let mut j = skip_attr(lexed, i);
            while is_attr_start(lexed, j) {
                j = skip_attr(lexed, j);
            }
            let mut depth = 0usize;
            let start = i;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    Tok::Punct(';') if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            for m in mask.iter_mut().take(j).skip(start) {
                *m = true;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

fn is_attr_start(lexed: &Lexed, i: usize) -> bool {
    matches!(lexed.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct('#')))
        && matches!(lexed.tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
}

/// If an attribute starts at `i`, returns the index just past its `]`.
fn skip_attr(lexed: &Lexed, i: usize) -> usize {
    let toks = &lexed.tokens;
    let mut j = i + 2;
    let mut depth = 1usize;
    while j < toks.len() && depth > 0 {
        match toks[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// True when tokens at `i` start `#[test]`, `#[tokio::test]`, or an
/// attribute whose argument list mentions `test` (`#[cfg(test)]`,
/// `#[cfg(all(test, feature = "x"))]`).
fn is_test_attr_at(lexed: &Lexed, i: usize) -> bool {
    if !is_attr_start(lexed, i) {
        return false;
    }
    let end = skip_attr(lexed, i);
    lexed.tokens[i..end].iter().any(|t| matches!(&t.tok, Tok::Ident(s) if s == "test"))
}

fn ident_at(lexed: &Lexed, i: usize) -> Option<&str> {
    match lexed.tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(lexed: &Lexed, i: usize, c: char) -> bool {
    matches!(lexed.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Matches `a :: b` path segments: is there a `::` at `i`?
fn path_sep(lexed: &Lexed, i: usize) -> bool {
    punct_at(lexed, i, ':') && punct_at(lexed, i + 1, ':')
}

/// `std::sync::{Mutex,RwLock}` anywhere outside the shims — the workspace
/// locks through the parking_lot shim so the auditor can see them.
fn rule_std_sync(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    scan_std_path(ctx, out, "sync", &["Mutex", "RwLock"], "std-sync", "std-sync-ok", |name| {
        format!("`std::sync::{name}` bypasses the audited parking_lot shim; use `parking_lot::{name}::ranked`")
    });
}

/// `std::time::{Instant,SystemTime}` — deterministic code must use the
/// virtual clock (`tokio::time`).
fn rule_std_time(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    scan_std_path(
        ctx,
        out,
        "time",
        &["Instant", "SystemTime"],
        "std-time",
        "real-time-ok",
        |name| {
            format!("`std::time::{name}` reads the real clock; deterministic paths must use `tokio::time` (mark audited wallclock sites with `// lint: real-time-ok`)")
        },
    );
}

/// Shared scanner for `std::<module>::X` and `use std::<module>::{.., X, ..}`.
fn scan_std_path(
    ctx: &FileCtx<'_>,
    out: &mut Vec<Finding>,
    module: &str,
    banned: &[&str],
    rule: &'static str,
    marker: &str,
    msg: impl Fn(&str) -> String,
) {
    let lexed = ctx.lexed;
    let n = lexed.tokens.len();
    for i in 0..n {
        if ctx.test_tokens[i] {
            continue;
        }
        if ident_at(lexed, i) != Some("std") || !path_sep(lexed, i + 1) {
            continue;
        }
        if ident_at(lexed, i + 3) != Some(module) || !path_sep(lexed, i + 4) {
            continue;
        }
        // Direct path: std::<module>::Name
        if let Some(name) = ident_at(lexed, i + 6) {
            if banned.contains(&name) {
                let line = lexed.tokens[i + 6].line;
                if !lexed.marked(line, marker) {
                    out.push(Finding { path: ctx.path.into(), line, rule, message: msg(name) });
                }
                continue;
            }
        }
        // Grouped import: std::<module>::{A, B, ...}
        if punct_at(lexed, i + 6, '{') {
            let mut j = i + 7;
            while j < n && !punct_at(lexed, j, '}') {
                if let Some(name) = ident_at(lexed, j) {
                    if banned.contains(&name) {
                        let line = lexed.tokens[j].line;
                        if !lexed.marked(line, marker) {
                            out.push(Finding {
                                path: ctx.path.into(),
                                line,
                                rule,
                                message: msg(name),
                            });
                        }
                    }
                }
                j += 1;
            }
        }
    }
}

/// `Mutex::new` / `RwLock::new` in a crate that already defines ranked
/// locks: new locks must declare their place in the rank table.
fn rule_unranked_mutex(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.crate_has_ranked_locks {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if ctx.test_tokens[i] {
            continue;
        }
        let Some(name) = ident_at(lexed, i) else { continue };
        if name != "Mutex" && name != "RwLock" {
            continue;
        }
        if !path_sep(lexed, i + 1) || ident_at(lexed, i + 3) != Some("new") {
            continue;
        }
        // `tokio::sync::Mutex::new` is an async lock outside the auditor's
        // scope; `std::sync::Mutex::new` is rule `std-sync`'s problem.
        let stdlike = i >= 6
            && path_sep(lexed, i - 2)
            && matches!(ident_at(lexed, i - 3), Some("sync"))
            && path_sep(lexed, i - 5)
            && matches!(ident_at(lexed, i - 6), Some("tokio") | Some("std"));
        if stdlike {
            continue;
        }
        let line = lexed.tokens[i].line;
        if !lexed.marked(line, "unranked-ok") {
            out.push(Finding {
                path: ctx.path.into(),
                line,
                rule: "unranked-mutex",
                message: format!(
                    "unranked `{name}::new` in a crate with ranked locks; use `{name}::ranked(lockrank::…, \"name\", …)` or mark `// lint: unranked-ok`"
                ),
            });
        }
    }
}

/// `.unwrap()` / `.expect(` in the fast-path crates. Audited sites carry
/// `// lint: audited-unwrap <why>`.
fn rule_unwrap_expect(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !NO_UNWRAP_CRATES.iter().any(|c| ctx.path.contains(&format!("{c}/src/"))) {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if ctx.test_tokens[i] {
            continue;
        }
        if !punct_at(lexed, i, '.') {
            continue;
        }
        let Some(name) = ident_at(lexed, i + 1) else { continue };
        let is_unwrap =
            name == "unwrap" && punct_at(lexed, i + 2, '(') && punct_at(lexed, i + 3, ')');
        let is_expect = name == "expect" && punct_at(lexed, i + 2, '(');
        if !is_unwrap && !is_expect {
            continue;
        }
        let line = lexed.tokens[i + 1].line;
        if !lexed.marked(line, "audited-unwrap") {
            out.push(Finding {
                path: ctx.path.into(),
                line,
                rule: "unwrap-expect",
                message: format!(
                    "`.{name}(…)` on the fast path; propagate the error or justify with `// lint: audited-unwrap <why>`"
                ),
            });
        }
    }
}

/// Heuristic ordering check for durable modules: constructing a positive
/// ack (e.g. `Response::BackupSynced`) textually *before* a later fsync
/// call in the same file suggests the ack does not cover the write. Sites
/// where the ordering is correct anyway carry `// lint: ack-after-fsync`.
fn rule_ack_before_fsync(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !DURABLE_FILES.contains(&file_name(ctx.path)) {
        return;
    }
    let lexed = ctx.lexed;
    // Collect non-test fsync call lines.
    let fsync_lines: Vec<u32> = lexed
        .tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            !ctx.test_tokens[*i]
                && matches!(&t.tok, Tok::Ident(s) if FSYNC_TOKENS.contains(&s.as_str()))
        })
        .map(|(_, t)| t.line)
        .collect();
    let Some(&last_fsync) = fsync_lines.iter().max() else { return };
    for (i, t) in lexed.tokens.iter().enumerate() {
        if ctx.test_tokens[i] {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        if !ACK_TOKENS.contains(&name.as_str()) {
            continue;
        }
        if t.line < last_fsync && !lexed.marked(t.line, "ack-after-fsync") {
            out.push(Finding {
                path: ctx.path.into(),
                line: t.line,
                rule: "ack-before-fsync",
                message: format!(
                    "`{name}` constructed before a later fsync in a durable module; verify the covering fsync precedes the ack and mark `// lint: ack-after-fsync`"
                ),
            });
        }
    }
}

fn file_name(path: &str) -> &str {
    Path::new(path).file_name().and_then(|s| s.to_str()).unwrap_or("")
}

/// `fs::rename` / `File::create` in a durable module other than
/// `frames.rs`: whole-file replacement goes through `AtomicFile`, the one
/// place that discipline is written down (DESIGN.md invariants 7 and 12).
fn rule_raw_durable_write(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let name = file_name(ctx.path);
    if !DURABLE_FILES.contains(&name) || name == "frames.rs" {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if ctx.test_tokens[i] || !path_sep(lexed, i + 1) {
            continue;
        }
        let call = match (ident_at(lexed, i), ident_at(lexed, i + 3)) {
            (Some("fs"), Some("rename")) => "fs::rename",
            (Some("File"), Some("create")) => "File::create",
            _ => continue,
        };
        out.push(Finding {
            path: ctx.path.into(),
            line: lexed.tokens[i].line,
            rule: "raw-durable-write",
            message: format!(
                "`{call}` in a durable module; replace files through `curp_storage::AtomicFile`"
            ),
        });
    }
}

/// `temp_dir()` anywhere but `tempdir.rs`. Unlike every other rule this one
/// looks *inside* test code: hand-named scratch paths under the OS temp
/// root are how parallel tests came to share a file. `TempDir` (pid +
/// counter, self-cleaning) is the one way to get a scratch path.
fn rule_adhoc_tempdir(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if file_name(ctx.path) == "tempdir.rs" {
        return;
    }
    let lexed = ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if ident_at(lexed, i) == Some("temp_dir") && punct_at(lexed, i + 1, '(') {
            out.push(Finding {
                path: ctx.path.into(),
                line: lexed.tokens[i].line,
                rule: "adhoc-tempdir",
                message: "`temp_dir()` outside `tempdir.rs`; take scratch paths from `curp_storage::TempDir`".into(),
            });
        }
    }
}

/// The allowlist: `rule path-suffix` pairs, one per line, `#` comments.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parses the `allow.list` format.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(rule), Some(suffix)) = (parts.next(), parts.next()) {
                entries.push((rule.to_string(), suffix.to_string()));
            }
        }
        Allowlist { entries }
    }

    /// Whether `finding` is allowlisted.
    pub fn allows(&self, finding: &Finding) -> bool {
        self.entries
            .iter()
            .any(|(rule, suffix)| rule == finding.rule && finding.path.ends_with(suffix.as_str()))
    }
}

/// Detects whether a crate ranks its locks: any `::ranked(`/`::ranked_leaf(`
/// call in any of the crate's (lexed) sources.
pub fn has_ranked_locks(lexed_sources: &[&Lexed]) -> bool {
    lexed_sources.iter().any(|l| {
        l.tokens.iter().enumerate().any(|(i, t)| {
            matches!(&t.tok, Tok::Ident(s) if s == "ranked" || s == "ranked_leaf")
                && i >= 2
                && path_sep(l, i - 2)
        })
    })
}

/// Deduplicates findings (grouped imports can hit a line twice).
pub fn dedup(findings: &mut Vec<Finding>) {
    let mut seen = HashSet::new();
    findings.retain(|f| seen.insert((f.path.clone(), f.line, f.rule)));
}
