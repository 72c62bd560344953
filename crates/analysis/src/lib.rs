//! Correctness tooling for the cloudlet workspace.
//!
//! Two halves, one policy. The **static** half (`lexer`, `rules`,
//! `lockgraph`, driven by the `lint` binary) scans every Rust source
//! file in the workspace and enforces the rules the repo adopted over
//! PRs 1–5 but until now checked only by review:
//!
//! * **R1** — no `unwrap()` / `expect()` / `panic!` / `todo!` /
//!   `unimplemented!` outside test or bench code; fallible paths use
//!   typed errors.
//! * **R2** — simulation crates never read host clocks (`std::time`,
//!   `Instant`, `SystemTime`); virtual time comes from the simulator.
//! * **R3** — every `Ordering::Relaxed` carries a
//!   `// relaxed-ok: <reason>` justification.
//! * **R4** — no `println!` / `eprintln!` in library code.
//! * **R5** — the cross-function lock-acquisition graph is acyclic.
//! * **R6** — every bare-`pub` library item has a reader outside tests
//!   (a name token in non-test library, binary, example or bench code,
//!   `use` lines excluded), or a `// api-ok: <reason>` justification
//!   directly above it ([`unread`]).
//!
//! The **dynamic** half (`sync::OrderedRwLock`) enforces the same
//! lock ordering at runtime in debug builds via per-lock ranks.
//!
//! Exemptions live in a committed `lint.allow` file (see
//! [`allowlist`]); every entry names the rule, the path, and — the
//! important part — the reason.
//!
//! The crate has no dependencies (the vendored `proptest` is only a
//! dev-dependency) and no `build.rs`: it must stay cheap enough to run
//! before the test suite on every CI pass.

pub mod allowlist;
pub mod lexer;
pub mod lockgraph;
pub mod report;
pub mod rules;
pub mod sync;
pub mod unread;

use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use lexer::FileScan;
use lockgraph::{FnSummary, LockGraph};
use report::Finding;
use rules::FileClass;
use unread::UnreadApi;

/// Directories never scanned: build output, vendored stubs, VCS
/// metadata, experiment results.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "results", "node_modules"];

/// A non-source failure (unreadable file, bad allowlist) as opposed to
/// a policy finding.
#[derive(Debug)]
pub struct AnalysisError {
    /// What went wrong, with the path involved.
    pub message: String,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for AnalysisError {}

/// Scans every `.rs` file under `root`, applies rules R1–R4 per file
/// and, across the whole set, the R5 lock-graph check and the R6
/// unread-public-API check, then filters the result through `allow`.
/// Findings come back sorted by path and line.
pub fn analyze_workspace(
    root: &Path,
    allow: &mut Allowlist,
) -> Result<Vec<Finding>, AnalysisError> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)?;
    files.sort();

    let mut findings = Vec::new();
    let mut functions: Vec<FnSummary> = Vec::new();
    let mut api = UnreadApi::default();
    for path in &files {
        let rel = workspace_rel(root, path);
        let source = std::fs::read_to_string(path).map_err(|e| AnalysisError {
            message: format!("failed to read {rel}: {e}"),
        })?;
        let scan = FileScan::scan(&source);
        let class = FileClass::classify(&rel);
        findings.extend(rules::check_file(&rel, class, &scan));
        // Lock discipline only concerns production code.
        if !matches!(class, FileClass::Test | FileClass::Bench) {
            functions.extend(lockgraph::scan_functions(&rel, &scan));
        }
        api.add_file(&rel, class, &scan);
    }
    findings.extend(LockGraph::build(&functions).cycles());
    findings.extend(api.findings());

    findings.retain(|f| !allow.permits(f));
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.column).cmp(&(b.path.as_str(), b.line, b.column))
    });
    Ok(findings)
}

/// Loads and parses the allowlist at `path`; a missing file is an
/// empty allowlist.
pub fn load_allowlist(path: &Path) -> Result<Allowlist, AnalysisError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Allowlist::parse(&text).map_err(|e| AnalysisError {
            message: e.to_string(),
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
        Err(e) => Err(AnalysisError {
            message: format!("failed to read {}: {e}", path.display()),
        }),
    }
}

/// The workspace root to lint — shared default for the lint binary and
/// the repo-cleanliness test. It is two levels above the
/// `CARGO_MANIFEST_DIR` that `cargo run` and `cargo test` set, read at
/// run time: a checkout copied with its `target/` still lints itself,
/// not the tree the binary was built in. Outside Cargo it is the
/// current directory.
pub fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(manifest_dir) => PathBuf::from(manifest_dir).join("..").join(".."),
        None => PathBuf::from("."),
    }
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalysisError> {
    let entries = std::fs::read_dir(dir).map_err(|e| AnalysisError {
        message: format!("failed to list {}: {e}", dir.display()),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| AnalysisError {
            message: format!("failed to list {}: {e}", dir.display()),
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with forward slashes, for stable output.
fn workspace_rel(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_rel_uses_forward_slashes() {
        let root = Path::new("/w");
        let path = Path::new("/w/crates/core/src/lib.rs");
        assert_eq!(workspace_rel(root, path), "crates/core/src/lib.rs");
    }

    #[test]
    fn default_root_contains_the_workspace_manifest() {
        let root = default_root();
        assert!(root.join("Cargo.toml").exists(), "root: {}", root.display());
    }
}
