//! The committed tree must satisfy its own policy: running the full
//! analysis over the workspace yields zero findings, and the rules do
//! still fire on seeded violations (guarding against a lint that
//! passes because it stopped looking).

use std::path::Path;
use std::process::Command;

use analysis::allowlist::Allowlist;
use analysis::report::render_json;
use analysis::{analyze_workspace, load_allowlist};

#[test]
fn the_committed_tree_is_lint_clean() {
    let root = analysis::default_root();
    let mut allow = load_allowlist(&root.join("lint.allow")).expect("allowlist parses");
    let findings = analyze_workspace(&root, &mut allow).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "policy violations in the committed tree:\n{}",
        findings
            .iter()
            .map(|f| f.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_violations_still_fire_end_to_end() {
    // A scratch workspace with one deliberately bad file per rule
    // family, run through the same entry point as the binary.
    let dir = std::env::temp_dir().join(format!("cloudlet-lint-fixture-{}", std::process::id()));
    let src = dir.join("crates/fixture/src");
    std::fs::create_dir_all(&src).expect("fixture dir");
    std::fs::write(
        src.join("lib.rs"),
        concat!(
            "use std::time::Instant;\n",
            "fn f(x: Option<u32>) -> u32 {\n",
            "    println!(\"{x:?}\");\n",
            "    x.unwrap()\n",
            "}\n",
            "fn g(c: &std::sync::atomic::AtomicU64) -> u64 {\n",
            "    c.load(core::sync::atomic::Ordering::Relaxed)\n",
            "}\n",
            "struct S { a: std::sync::RwLock<u32>, b: std::sync::RwLock<u32> }\n",
            "impl S {\n",
            "    fn ab(&self) { let _x = self.a.read(); let _y = self.b.read(); }\n",
            "    fn ba(&self) { let _y = self.b.read(); let _x = self.a.read(); }\n",
            "}\n",
            "pub fn never_called() {}\n",
            "pub struct Probe;\n",
            "impl Probe {\n",
            "    pub fn shadowed(&self) {}\n",
            "    pub fn called(&self) {}\n",
            "}\n",
            "impl Default for Probe {\n",
            "    fn default() -> Probe { Probe.called(); Probe }\n",
            "}\n",
            "pub fn h() -> u8 { let shadowed = 1; shadowed }\n",
        ),
    )
    .expect("fixture file");

    let mut allow = Allowlist::default();
    let findings = analyze_workspace(&dir, &mut allow).expect("fixture scans");
    let _ = std::fs::remove_dir_all(&dir);

    let ids: Vec<&str> = findings.iter().map(|f| f.rule.id()).collect();
    for expected in ["R1", "R2", "R3", "R4", "R5", "R6"] {
        assert!(
            ids.contains(&expected),
            "rule {expected} did not fire on the seeded fixture; got {ids:?}"
        );
    }

    // A method is read only in call shape: a local of its name hides
    // nothing, and a `.name(` call keeps it. A type's own impls do not
    // read it.
    let unread: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule.id() == "R6")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        unread.iter().any(|m| m.starts_with("`pub fn shadowed`")),
        "a method shadowed by a local was not flagged: {unread:?}"
    );
    assert!(
        !unread.iter().any(|m| m.starts_with("`pub fn called`")),
        "a method read through `.called(` was flagged: {unread:?}"
    );
    assert!(
        unread.iter().any(|m| m.starts_with("`pub struct Probe`")),
        "a struct read only by its own impls was not flagged: {unread:?}"
    );

    // Each finding renders as machine-readable JSON naming its rule.
    let json = render_json(&findings);
    for expected in ["\"R1\"", "\"R2\"", "\"R3\"", "\"R4\"", "\"R5\"", "\"R6\""] {
        assert!(json.contains(expected), "JSON output lacks {expected}");
    }
}

/// Copies the directory tree `from` to `to`.
fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

#[test]
fn the_lint_binary_checks_the_tree_it_runs_in() {
    // A checkout copied with its `target/` reuses a lint binary built in
    // the original tree, so the root must come from where the binary
    // runs: Cargo's `CARGO_MANIFEST_DIR`, or else the current
    // directory. The planted item exists only in the copy, so seeing it
    // reported shows that the copy was linted.
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cloudlet-lint-copy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy);
    let root = analysis::default_root();
    copy_tree(
        &root.join("crates/analysis/src"),
        &copy.join("crates/analysis/src"),
    )
    .expect("source tree copies");
    std::fs::copy(root.join("lint.allow"), copy.join("lint.allow")).expect("allowlist copies");
    let planted = "crates/analysis/src/planted.rs";
    std::fs::write(copy.join(planted), "pub fn planted_but_never_read() {}\n").expect("plant");

    let from_manifest_dir = Command::new(env!("CARGO_BIN_EXE_lint"))
        .env("CARGO_MANIFEST_DIR", copy.join("crates/analysis"))
        .output();
    let from_current_dir = Command::new(env!("CARGO_BIN_EXE_lint"))
        .env_remove("CARGO_MANIFEST_DIR")
        .current_dir(&copy)
        .output();
    let _ = std::fs::remove_dir_all(&copy);

    for (how, output) in [
        ("CARGO_MANIFEST_DIR", from_manifest_dir),
        ("the current directory", from_current_dir),
    ] {
        let output = output.expect("lint binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "root from {how}:\n{stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with(&format!("{planted}:1:")) && l.contains("[R6]")),
            "root from {how}: the planted R6 finding is missing:\n{stderr}"
        );
    }
}

#[test]
fn the_host_clock_carve_out_is_exactly_one_module_wide() {
    // The R2 exemption exists for the wall-clock harness and nothing
    // else. Every committed allowlist entry must target rule R2 and
    // the one module; widening the carve-out (a second path, a crate-
    // wide prefix, a `*` rule) is a policy change this test blocks.
    let root = analysis::default_root();
    let allow = load_allowlist(&root.join("lint.allow")).expect("allowlist parses");
    assert!(!allow.is_empty(), "the wall-clock carve-out should exist");
    for entry in allow.entries() {
        assert_eq!(
            entry.rule.map(|r| r.id()),
            Some("R2"),
            "lint.allow:{}: only R2 may be exempted",
            entry.line
        );
        assert_eq!(
            entry.path_prefix, "crates/bench/src/wallclock.rs",
            "lint.allow:{}: the carve-out covers exactly the wall-clock module",
            entry.line
        );
    }
}

#[test]
fn the_carve_out_does_not_leak_to_other_files() {
    // A host-clock use anywhere but the wall-clock module still fires
    // R2 even with the committed allowlist loaded.
    let dir = std::env::temp_dir().join(format!("cloudlet-lint-r2-{}", std::process::id()));
    let src = dir.join("crates/bench/src");
    std::fs::create_dir_all(&src).expect("fixture dir");
    std::fs::write(
        src.join("other.rs"),
        "use std::time::Instant;\npub fn now() -> Instant { Instant::now() }\n",
    )
    .expect("fixture file");

    let root = analysis::default_root();
    let mut allow = load_allowlist(&root.join("lint.allow")).expect("allowlist parses");
    let findings = analyze_workspace(&dir, &mut allow).expect("fixture scans");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        findings.iter().any(|f| f.rule.id() == "R2"),
        "R2 should still fire outside crates/bench/src/wallclock.rs; got {:?}",
        findings.iter().map(|f| f.human()).collect::<Vec<_>>()
    );
}

#[test]
fn missing_allowlist_is_empty_not_an_error() {
    let allow = load_allowlist(Path::new("/nonexistent/lint.allow")).expect("missing file is ok");
    assert!(allow.is_empty());
}
