//! The policy rules, evaluated over a [`FileScan`].
//!
//! | Rule | Policy | Applies to |
//! |------|--------|------------|
//! | R1   | no `unwrap()` / `expect()` / `panic!` / `todo!` / `unimplemented!` | lib, bin, example code outside test regions |
//! | R2   | no host clocks: `std::time`, `Instant`, `SystemTime` | everything (bench crate allowlisted in `lint.allow`) |
//! | R3   | `Ordering::Relaxed` needs `// relaxed-ok: <why>` | lib, bin, example code outside test regions |
//! | R4   | no `println!` / `eprintln!` | lib code outside test regions |
//! | R6   | a bare-`pub` item needs a reader outside tests, or `// api-ok: <why>` | lib code outside test regions, except under `pipeline-bench/` (see [`crate::unread`]) |
//!
//! R5 (the lock graph, [`crate::lockgraph`]) and R6 need every file at
//! once, so [`crate::analyze_workspace`] runs them after the per-file
//! pass. A justification marker (`relaxed-ok:`, `api-ok:`) counts only
//! with a reason after its colon ([`marker_justifies`]).
//!
//! "Test regions" are what [`FileScan::in_test`] reports; whole-file
//! classes come from [`FileClass::classify`]. The rules work on the
//! scrubbed code view, so strings and comments never false-positive.

use crate::lexer::{idents, is_ident_byte, FileScan};
use crate::report::{Finding, Rule};

/// How a file participates in the build, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: the default, and the strictest class.
    Lib,
    /// A binary entry point (`src/bin/`, `src/main.rs`).
    Bin,
    /// An example binary (`examples/`).
    Example,
    /// Integration-test code (`tests/`).
    Test,
    /// Bench code: `benches/` targets and the whole `crates/bench`
    /// harness crate.
    Bench,
}

impl FileClass {
    /// Classifies a workspace-relative path (with `/` separators).
    pub fn classify(path: &str) -> FileClass {
        if path.starts_with("crates/bench/")
            || path.starts_with("benches/")
            || path.contains("/benches/")
        {
            FileClass::Bench
        } else if path.starts_with("tests/") || path.contains("/tests/") {
            FileClass::Test
        } else if path.starts_with("examples/") || path.contains("/examples/") {
            FileClass::Example
        } else if path.contains("/src/bin/") || path.ends_with("src/main.rs") {
            FileClass::Bin
        } else {
            FileClass::Lib
        }
    }
}

/// Runs rules R1–R4 over one scanned file.
pub fn check_file(path: &str, class: FileClass, scan: &FileScan) -> Vec<Finding> {
    let mut findings = Vec::new();
    let code = scan.code.as_bytes();
    for (start, ident) in idents(code, 0..code.len()) {
        let end = start + ident.len();
        check_token(path, class, scan, code, start, end, ident, &mut findings);
    }
    findings
}

#[allow(clippy::too_many_arguments)]
fn check_token(
    path: &str,
    class: FileClass,
    scan: &FileScan,
    code: &[u8],
    start: usize,
    end: usize,
    ident: &[u8],
    findings: &mut Vec<Finding>,
) {
    let panics_banned = matches!(class, FileClass::Lib | FileClass::Bin | FileClass::Example)
        && !scan.in_test(start);
    match ident {
        b"unwrap" | b"expect"
            if panics_banned
                && prev_nonspace(code, start) == Some(b'.')
                && next_nonspace(code, end) == Some(b'(') =>
        {
            findings.push(finding(
                Rule::ForbiddenPanic,
                path,
                scan,
                start,
                format!(
                    "`.{}()` outside test/bench code; return a typed error \
                     (CloudletError/DbError) or add a justified lint.allow entry",
                    String::from_utf8_lossy(ident)
                ),
            ));
        }
        b"panic" | b"todo" | b"unimplemented"
            if panics_banned && next_nonspace(code, end) == Some(b'!') =>
        {
            findings.push(finding(
                Rule::ForbiddenPanic,
                path,
                scan,
                start,
                format!(
                    "`{}!` outside test/bench code; serve/update hot paths \
                     must fail with typed errors",
                    String::from_utf8_lossy(ident)
                ),
            ));
        }
        b"Instant" | b"SystemTime" => {
            findings.push(finding(
                Rule::HostClock,
                path,
                scan,
                start,
                format!(
                    "host clock `{}` in a simulation crate; use \
                     mobsim::time::SimInstant so reports stay deterministic",
                    String::from_utf8_lossy(ident)
                ),
            ));
        }
        // The path `std::time` even without naming a type.
        b"std" if path_follows(code, end, b"time") => {
            findings.push(finding(
                Rule::HostClock,
                path,
                scan,
                start,
                "`std::time` in a simulation crate; all timing must be simulated".to_owned(),
            ));
        }
        b"Relaxed" => {
            let applies = matches!(class, FileClass::Lib | FileClass::Bin | FileClass::Example)
                && !scan.in_test(start);
            if applies
                && preceded_by_path(code, start, b"Ordering")
                && !marker_justifies(scan, scan.line_of(start), "relaxed-ok:")
            {
                findings.push(finding(
                    Rule::UnjustifiedRelaxed,
                    path,
                    scan,
                    start,
                    "`Ordering::Relaxed` without a `// relaxed-ok: <reason>` \
                     justification on or directly above this line"
                        .to_owned(),
                ));
            }
        }
        b"println" | b"eprintln"
            if class == FileClass::Lib
                && !scan.in_test(start)
                && next_nonspace(code, end) == Some(b'!') =>
        {
            findings.push(finding(
                Rule::StrayPrint,
                path,
                scan,
                start,
                format!(
                    "`{}!` in library code; printing belongs in src/bin, \
                     examples, or benches",
                    String::from_utf8_lossy(ident)
                ),
            ));
        }
        _ => {}
    }
}

fn finding(rule: Rule, path: &str, scan: &FileScan, offset: usize, message: String) -> Finding {
    let line = scan.line_of(offset);
    Finding {
        rule,
        path: path.to_owned(),
        line: line + 1,
        column: scan.column_of(offset),
        snippet: scan.source_line(line).trim().to_owned(),
        message,
    }
}

/// The nearest non-whitespace byte before `i` (crossing lines).
fn prev_nonspace(code: &[u8], mut i: usize) -> Option<u8> {
    while i > 0 {
        i -= 1;
        if !code[i].is_ascii_whitespace() {
            return Some(code[i]);
        }
    }
    None
}

/// The nearest non-whitespace byte at or after `i` (crossing lines).
fn next_nonspace(code: &[u8], mut i: usize) -> Option<u8> {
    while i < code.len() {
        if !code[i].is_ascii_whitespace() {
            return Some(code[i]);
        }
        i += 1;
    }
    None
}

/// Whether `::ident` follows position `i` (whitespace-tolerant).
fn path_follows(code: &[u8], mut i: usize, ident: &[u8]) -> bool {
    while i < code.len() && code[i].is_ascii_whitespace() {
        i += 1;
    }
    if code.get(i) != Some(&b':') || code.get(i + 1) != Some(&b':') {
        return false;
    }
    i += 2;
    while i < code.len() && code[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < code.len() && is_ident_byte(code[i]) {
        i += 1;
    }
    &code[start..i] == ident
}

/// Whether the token at `start` is reached via `ident::` (whitespace-
/// tolerant), e.g. `Ordering::Relaxed`.
fn preceded_by_path(code: &[u8], start: usize, ident: &[u8]) -> bool {
    let mut i = start;
    while i > 0 && code[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i < 2 || code[i - 1] != b':' || code[i - 2] != b':' {
        return false;
    }
    i -= 2;
    while i > 0 && code[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident_byte(code[i - 1]) {
        i -= 1;
    }
    &code[i..end] == ident
}

/// Whether a `marker` comment (`relaxed-ok:`, `api-ok:`) with a
/// non-blank reason after its colon sits on 0-based `line` or on the
/// contiguous lines directly above it that hold only comments (doc
/// comments included) or only attributes such as `#[must_use]`.
pub fn marker_justifies(scan: &FileScan, line: usize, marker: &str) -> bool {
    let mut current = line;
    loop {
        if reason_follows(scan.comment_on(current), marker) {
            return true;
        }
        if current == 0 {
            return false;
        }
        current -= 1;
        if !(scan.comment_only_line(current) || scan.attribute_only_line(current)) {
            return false;
        }
    }
}

/// Whether `comment` holds `marker` followed by non-blank text.
fn reason_follows(comment: &str, marker: &str) -> bool {
    comment.match_indices(marker).any(|(at, _)| {
        let reason = comment[at + marker.len()..].trim();
        !reason.trim_end_matches("*/").trim().is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        let scan = FileScan::scan(src);
        check_file(path, FileClass::classify(path), &scan)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.id()).collect()
    }

    #[test]
    fn r1_fires_on_each_forbidden_call() {
        let src = "fn f() {\n    a.unwrap();\n    b.expect(\"x\");\n    panic!(\"y\");\n    todo!();\n    unimplemented!();\n}\n";
        let found = lint("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&found), vec!["R1"; 5]);
        assert_eq!(found[0].line, 2);
        assert_eq!(found[1].line, 3);
    }

    #[test]
    fn r1_ignores_lookalike_identifiers() {
        let src = "fn f() {\n    a.unwrap_or(0);\n    a.unwrap_or_else(id);\n    b.expect_err(\"x\");\n    let should_panic = 1;\n}\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r1_exempts_test_regions_and_bench_files() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { a.unwrap(); panic!(\"x\"); }\n}\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
        let bench_src = "fn f() { a.unwrap(); }\n";
        assert!(lint("crates/x/benches/b.rs", bench_src).is_empty());
        assert!(lint("crates/bench/src/lib.rs", bench_src).is_empty());
        assert!(lint("tests/integration.rs", bench_src).is_empty());
    }

    #[test]
    fn r1_applies_to_examples_and_bins() {
        let src = "fn main() { a.unwrap(); }\n";
        assert_eq!(rules_of(&lint("examples/demo.rs", src)), vec!["R1"]);
        assert_eq!(rules_of(&lint("crates/x/src/bin/tool.rs", src)), vec!["R1"]);
    }

    #[test]
    fn r2_flags_host_clocks_everywhere_even_in_tests() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let found = lint("crates/x/src/lib.rs", src);
        // `std::time`, the use'd `Instant`, and the call site.
        assert!(rules_of(&found).iter().all(|&r| r == "R2"));
        assert_eq!(found.len(), 3);
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = SystemTime::now(); }\n}\n";
        assert_eq!(rules_of(&lint("crates/x/src/lib.rs", test_src)), vec!["R2"]);
    }

    #[test]
    fn r2_does_not_confuse_sim_instants_or_comments() {
        let src = "use mobsim::time::SimInstant;\n/// Mentions Instant in docs.\nfn f(t: SimInstant) {}\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r3_requires_a_justification() {
        let src = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n}\n";
        assert_eq!(rules_of(&lint("crates/x/src/lib.rs", src)), vec!["R3"]);
    }

    #[test]
    fn r3_accepts_same_line_and_above_line_comments() {
        let same = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed); // relaxed-ok: monotonic counter\n}\n";
        assert!(lint("crates/x/src/lib.rs", same).is_empty());
        let above = "fn f(a: &AtomicU64) {\n    // relaxed-ok: monotonic counter,\n    // no cross-field ordering needed\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(lint("crates/x/src/lib.rs", above).is_empty());
        let far = "fn f(a: &AtomicU64) {\n    // relaxed-ok: too far away\n    let x = 1;\n    a.load(Ordering::Relaxed);\n}\n";
        assert_eq!(rules_of(&lint("crates/x/src/lib.rs", far)), vec!["R3"]);
    }

    #[test]
    fn r3_rejects_a_marker_without_a_reason() {
        let bare = "fn f(a: &AtomicU64) {\n    // relaxed-ok:\n    a.load(Ordering::Relaxed);\n}\n";
        assert_eq!(rules_of(&lint("crates/x/src/lib.rs", bare)), vec!["R3"]);
        let blank = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed); // relaxed-ok:   \n}\n";
        assert_eq!(rules_of(&lint("crates/x/src/lib.rs", blank)), vec!["R3"]);
    }

    #[test]
    fn markers_look_through_doc_comments_and_attributes() {
        let src = "// api-ok: read by Figure 9\n/// Docs.\n#[must_use]\n#[allow(\n    dead_code\n)]\npub fn f() {}\n";
        let scan = FileScan::scan(src);
        assert!(marker_justifies(&scan, 6, "api-ok:"));
        assert!(!marker_justifies(&scan, 6, "relaxed-ok:"));
    }

    #[test]
    fn r3_only_matches_the_ordering_path() {
        let src = "fn f() { let Relaxed = 1; let x = Mode::Relaxed; }\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r4_flags_prints_in_lib_code_only() {
        let src = "fn f() {\n    println!(\"x\");\n    eprintln!(\"y\");\n}\n";
        assert_eq!(
            rules_of(&lint("crates/x/src/lib.rs", src)),
            vec!["R4", "R4"]
        );
        assert!(lint("crates/x/src/bin/tool.rs", src).is_empty());
        assert!(lint("examples/demo.rs", src).is_empty());
        assert!(lint("crates/x/benches/b.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { println!(\"debug\"); }\n}\n";
        assert!(lint("crates/x/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn string_literals_never_false_positive() {
        let src = "fn f() -> &'static str {\n    \"call .unwrap() then panic! at Instant::now println!\"\n}\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn classes_cover_the_workspace_layout() {
        assert_eq!(
            FileClass::classify("crates/core/src/lib.rs"),
            FileClass::Lib
        );
        assert_eq!(FileClass::classify("src/lib.rs"), FileClass::Lib);
        assert_eq!(FileClass::classify("tests/property.rs"), FileClass::Test);
        assert_eq!(
            FileClass::classify("crates/bench/src/bin/ablations.rs"),
            FileClass::Bench
        );
        assert_eq!(
            FileClass::classify("crates/bench/benches/throughput.rs"),
            FileClass::Bench
        );
        assert_eq!(
            FileClass::classify("examples/quickstart.rs"),
            FileClass::Example
        );
        assert_eq!(
            FileClass::classify("crates/analysis/src/bin/lint.rs"),
            FileClass::Bin
        );
    }
}
