//! The committed tree must satisfy its own policy: running the full
//! analysis over the workspace yields zero findings, and the rules do
//! still fire on seeded violations (guarding against a lint that
//! passes because it stopped looking).

use std::path::Path;

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

    // Each finding renders as machine-readable JSON naming its rule.
    let json = render_json(&findings);
    for expected in ["\"R1\"", "\"R2\"", "\"R3\"", "\"R4\"", "\"R5\"", "\"R6\""] {
        assert!(json.contains(expected), "JSON output lacks {expected}");
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
