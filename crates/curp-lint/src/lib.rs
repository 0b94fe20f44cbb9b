//! `curp-lint`: the workspace's own static pass (see DESIGN.md invariant 6
//! and ISSUE history). Complements the runtime lock auditor in the
//! parking_lot shim: the auditor proves the discipline holds on executed
//! paths; this pass keeps the source free of constructs the auditor cannot
//! see (unranked locks, raw `std::sync`, real clocks in deterministic
//! code, unaudited unwraps, ack-before-fsync orderings, durable writes
//! that bypass the one writer, hand-named scratch paths).
//!
//! Run with `cargo run -p curp-lint` from anywhere in the workspace; CI
//! runs it beside clippy. Exit status 1 means findings were printed, one
//! `path:line: rule: message` per line.

pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rules::{Allowlist, FileCtx, Finding};

/// Lints every package under `root` (the workspace root) — each
/// `crates/*` member and the facade at the root itself: `src/**/*.rs`
/// under every rule, `tests/`, `benches/` and `examples/` under the rules
/// that police test code ([`rules::is_test_target`]) — applying `allow`
/// and returning the surviving findings sorted by path and line.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> std::io::Result<Vec<Finding>> {
    // package dir -> its source files.
    let mut by_crate: BTreeMap<PathBuf, Vec<PathBuf>> = BTreeMap::new();
    let mut packages = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates"))? {
        packages.push(entry?.path());
    }
    for crate_dir in packages {
        if !crate_dir.join("src").is_dir() {
            continue;
        }
        let mut files = Vec::new();
        for sub in ["src", "tests", "benches", "examples"] {
            if crate_dir.join(sub).is_dir() {
                collect_rs(&crate_dir.join(sub), &mut files)?;
            }
        }
        files.sort();
        by_crate.insert(crate_dir, files);
    }

    let mut findings = Vec::new();
    for (crate_dir, files) in &by_crate {
        // curp-lint itself hosts the rule fixtures as test data; linting
        // the linter is what its own unit tests are for.
        if crate_dir.file_name().is_some_and(|n| n == "curp-lint") {
            continue;
        }
        let sources: Vec<(String, lexer::Lexed)> = files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(f)?;
                let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().replace('\\', "/");
                Ok((rel, lexer::lex(&text)))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let lexed_refs: Vec<&lexer::Lexed> =
            sources.iter().filter(|(rel, _)| !rules::is_test_target(rel)).map(|(_, l)| l).collect();
        let crate_has_ranked_locks = rules::has_ranked_locks(&lexed_refs);
        for (rel, lexed) in &sources {
            let test_tokens = rules::test_token_mask(lexed);
            let ctx =
                FileCtx { path: rel, lexed, test_tokens: &test_tokens, crate_has_ranked_locks };
            rules::run_all(&ctx, &mut findings);
        }
    }
    rules::dedup(&mut findings);
    findings.retain(|f| !allow.allows(f));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads `crates/curp-lint/allow.list` from `root` (missing file = empty).
pub fn load_allowlist(root: &Path) -> Allowlist {
    let path = root.join("crates/curp-lint/allow.list");
    match std::fs::read_to_string(path) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    }
}
