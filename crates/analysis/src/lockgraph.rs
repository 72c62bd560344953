//! Cross-function lock-order analysis (rule R5).
//!
//! The serve path is lock-heavy — `RwLock` lanes in the front-end,
//! per-shard locks under them — and PR 6's ROADMAP items will add
//! more. A deadlock needs two locks acquired in opposite orders on two
//! threads; this module finds the *potential* for that statically:
//!
//! 1. Every function body is scanned for acquisition sites: `.read()`,
//!    `.write()`, `.lock()` with empty argument lists (the std lock
//!    API shape). The lock's identity is the last identifier of the
//!    receiver chain (`self.lanes[l].service.read()` acquires
//!    `service`; `self.shards[s].write()` acquires `shards`).
//! 2. A `let`-bound guard is assumed held until the end of its
//!    enclosing block; a temporary guard until the end of its
//!    statement. Acquiring `B` while `A` is held adds the edge
//!    `A → B`.
//! 3. Calls made while a guard is held propagate: if `f` holds `A`
//!    and calls `g`, every lock `g` (transitively, by name) acquires
//!    adds `A → that lock`. Resolution is by function name across the
//!    whole workspace — an over-approximation that trades precision
//!    for zero configuration.
//! 4. A cycle anywhere in the resulting graph is reported: two code
//!    paths disagree about lock order, which is a deadlock waiting for
//!    the right interleaving.
//!
//! Test code is skipped (scaffolding lock usage would drown the
//! signal); the dynamic companion — `analysis::sync::OrderedRwLock` —
//! checks the same discipline at runtime in debug builds.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{idents, is_ident_byte, FileScan};
use crate::report::{Finding, Rule};

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acquisition {
    lock: String,
    /// Byte offset of the acquisition in the file.
    pos: usize,
    /// Offset until which the guard is assumed held.
    scope_end: usize,
    line: usize,
}

/// One function call made inside a function body.
#[derive(Debug, Clone)]
struct Call {
    callee: String,
    pos: usize,
    line: usize,
}

/// Per-function summary extracted from one file.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// The function's bare name (no path qualification).
    pub name: String,
    /// Workspace-relative file the function lives in.
    pub path: String,
    acquisitions: Vec<Acquisition>,
    calls: Vec<Call>,
}

/// A directed lock-order edge with one witness site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Lock held at the time.
    pub from: String,
    /// Lock acquired while `from` was held.
    pub to: String,
    /// `path:line (in fn)` of the acquisition or call that created
    /// the edge.
    pub witness: String,
}

/// The whole-workspace lock graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    edges: Vec<LockEdge>,
}

/// Extracts function summaries from one scanned file. Test regions
/// and test/bench files are the caller's responsibility to exclude.
pub fn scan_functions(path: &str, scan: &FileScan) -> Vec<FnSummary> {
    let code = scan.code.as_bytes();
    let mut summaries = Vec::new();
    // Tokens before this offset belong to an already-read signature.
    let mut resume = 0;
    for (start, ident) in idents(code, 0..code.len()) {
        if start < resume || ident != b"fn" {
            continue;
        }
        let (name, after_name) = ident_after(code, start + ident.len());
        if name.is_empty() {
            continue;
        }
        // Find the body's opening brace; a `;` first means a trait
        // method signature with no body.
        let mut j = after_name;
        let mut body_open = None;
        while j < code.len() {
            match code[j] {
                b'{' => {
                    body_open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = body_open else {
            continue;
        };
        let close = matching_brace(code, open);
        if !scan.in_test(start) {
            summaries.push(scan_body(path, scan, code, &name, open, close));
        }
        // Continue after the signature; nested fns inside the body are
        // also picked up by the outer loop, so do not skip the body.
        resume = open + 1;
    }
    summaries
}

/// Scans one function body for acquisitions and calls.
fn scan_body(
    path: &str,
    scan: &FileScan,
    code: &[u8],
    name: &str,
    open: usize,
    close: usize,
) -> FnSummary {
    let mut acquisitions = Vec::new();
    let mut calls = Vec::new();
    for (start, ident) in idents(code, open + 1..close) {
        let i = start + ident.len();
        let is_method = prev_nonspace_byte(code, start) == Some(b'.');
        let Some(args_open) = nonspace_at(code, i, b'(') else {
            continue;
        };
        let is_lock_op = matches!(ident, b"read" | b"write" | b"lock");
        let empty_args = nonspace_at(code, args_open + 1, b')').is_some();
        if is_lock_op && is_method && empty_args {
            if let Some(lock) = receiver_name(code, start) {
                acquisitions.push(Acquisition {
                    lock,
                    pos: start,
                    scope_end: guard_scope_end(code, start, open, close),
                    line: scan.line_of(start) + 1,
                });
                continue;
            }
        }
        // Any other name followed by `(` is a call site (methods and
        // free functions alike). Macros (`name!(..)`) are not calls.
        if next_nonspace_byte(code, i) != Some(b'!') && !is_keyword(ident) {
            calls.push(Call {
                callee: String::from_utf8_lossy(ident).into_owned(),
                pos: start,
                line: scan.line_of(start) + 1,
            });
        }
    }
    FnSummary {
        name: name.to_owned(),
        path: path.to_owned(),
        acquisitions,
        calls,
    }
}

impl LockGraph {
    /// Builds the graph from every function summary in the workspace:
    /// direct nested acquisitions plus call-propagated ones.
    pub fn build(functions: &[FnSummary]) -> LockGraph {
        // Locks each function name acquires directly (merged across
        // same-named functions — deliberate over-approximation).
        let mut direct: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut callees: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for f in functions {
            let d = direct.entry(&f.name).or_default();
            for a in &f.acquisitions {
                d.insert(&a.lock);
            }
            let c = callees.entry(&f.name).or_default();
            for call in &f.calls {
                c.insert(&call.callee);
            }
        }
        // Fixpoint: locks a call to `name` may end up acquiring.
        let mut effective: BTreeMap<&str, BTreeSet<String>> = direct
            .iter()
            .map(|(&name, locks)| {
                (
                    name,
                    locks.iter().map(|&l| l.to_owned()).collect::<BTreeSet<_>>(),
                )
            })
            .collect();
        loop {
            let mut changed = false;
            for (name, calls) in &callees {
                let mut grown: BTreeSet<String> = effective
                    .get(name)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default();
                let before = grown.len();
                for callee in calls {
                    if let Some(locks) = effective.get(callee) {
                        grown.extend(locks.iter().cloned());
                    }
                }
                if grown.len() != before {
                    effective.insert(name, grown);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut edges = BTreeSet::new();
        for f in functions {
            for (held, at) in held_pairs(f) {
                match at {
                    Site::Acquire(acq) => {
                        if acq.lock != held {
                            edges.insert(LockEdge {
                                from: held.to_owned(),
                                to: acq.lock.clone(),
                                witness: format!("{}:{} (in fn {})", f.path, acq.line, f.name),
                            });
                        }
                    }
                    Site::Call(call) => {
                        if let Some(locks) = effective.get(call.callee.as_str()) {
                            for lock in locks {
                                if lock != held {
                                    edges.insert(LockEdge {
                                        from: held.to_owned(),
                                        to: lock.clone(),
                                        witness: format!(
                                            "{}:{} (call to {} in fn {})",
                                            f.path, call.line, call.callee, f.name
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        LockGraph {
            edges: edges.into_iter().collect(),
        }
    }

    /// Reports each lock-order cycle as an R5 finding.
    pub fn cycles(&self) -> Vec<Finding> {
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
        for e in &self.edges {
            nodes.insert(&e.from);
            nodes.insert(&e.to);
            adj.entry(&e.from).or_default().push(e);
        }
        let mut findings = Vec::new();
        let mut reported: BTreeSet<Vec<&str>> = BTreeSet::new();
        for &start in &nodes {
            let mut stack = vec![start];
            let mut path_edges: Vec<&LockEdge> = Vec::new();
            find_cycles(
                start,
                &adj,
                &mut stack,
                &mut path_edges,
                &mut reported,
                &mut findings,
            );
        }
        findings
    }
}

enum Site<'a> {
    Acquire(&'a Acquisition),
    Call(&'a Call),
}

/// Pairs each acquisition/call with every lock held at that point.
fn held_pairs<'a>(f: &'a FnSummary) -> Vec<(&'a str, Site<'a>)> {
    let mut pairs = Vec::new();
    for a in &f.acquisitions {
        for held in &f.acquisitions {
            if held.pos < a.pos && a.pos < held.scope_end {
                pairs.push((held.lock.as_str(), Site::Acquire(a)));
            }
        }
    }
    for c in &f.calls {
        for held in &f.acquisitions {
            if held.pos < c.pos && c.pos < held.scope_end {
                pairs.push((held.lock.as_str(), Site::Call(c)));
            }
        }
    }
    pairs
}

fn find_cycles<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a LockEdge>>,
    stack: &mut Vec<&'a str>,
    path_edges: &mut Vec<&'a LockEdge>,
    reported: &mut BTreeSet<Vec<&'a str>>,
    findings: &mut Vec<Finding>,
) {
    // Bounded DFS: cycles longer than the lock population are
    // impossible, and the graph is tiny (a handful of lock classes).
    if stack.len() > 32 {
        return;
    }
    let Some(edges) = adj.get(node) else {
        return;
    };
    for edge in edges {
        let to: &str = &edge.to;
        if let Some(at) = stack.iter().position(|&n| n == to) {
            // Only report cycles that start at their smallest node so
            // each rotation appears once.
            let cycle: Vec<&str> = stack[at..].to_vec();
            let mut canonical = cycle.clone();
            canonical.sort_unstable();
            if cycle.first() == canonical.first() && reported.insert(canonical) {
                let loop_desc: Vec<String> = path_edges[at..]
                    .iter()
                    .chain(std::iter::once(edge))
                    .map(|e| format!("{} -> {} at {}", e.from, e.to, e.witness))
                    .collect();
                let (path, line) = witness_location(edge);
                findings.push(Finding {
                    rule: Rule::LockCycle,
                    path,
                    line,
                    column: 0,
                    snippet: loop_desc.join("; "),
                    message: format!(
                        "lock-order cycle through {{{}}}: two code paths acquire \
                         these locks in opposite orders (potential deadlock)",
                        cycle.join(", ")
                    ),
                });
            }
            continue;
        }
        stack.push(to);
        path_edges.push(edge);
        find_cycles(to, adj, stack, path_edges, reported, findings);
        path_edges.pop();
        stack.pop();
    }
}

/// Splits a witness string back into `(path, line)` for the finding.
fn witness_location(edge: &LockEdge) -> (String, usize) {
    let loc = edge.witness.split(' ').next().unwrap_or("");
    let mut parts = loc.rsplitn(2, ':');
    let line = parts.next().and_then(|l| l.parse().ok()).unwrap_or(0);
    let path = parts.next().unwrap_or(loc).to_owned();
    (path, line)
}

/// The last identifier of the receiver chain before the `.` at the
/// method-name offset: `self.lanes[l].service` → `service`,
/// `self.shards[s]` → `shards`.
fn receiver_name(code: &[u8], method_start: usize) -> Option<String> {
    let mut i = method_start;
    // Back over whitespace to the `.`.
    while i > 0 && code[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 || code[i - 1] != b'.' {
        return None;
    }
    i -= 1;
    while i > 0 && code[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    // Skip one trailing index/call group (`[shard]`, `(..)`).
    if i > 0 && (code[i - 1] == b']' || code[i - 1] == b')') {
        let close = code[i - 1];
        let open = if close == b']' { b'[' } else { b'(' };
        let mut depth = 0;
        while i > 0 {
            i -= 1;
            if code[i] == close {
                depth += 1;
            } else if code[i] == open {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        while i > 0 && code[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
    }
    let end = i;
    while i > 0 && is_ident_byte(code[i - 1]) {
        i -= 1;
    }
    if i == end {
        return None;
    }
    Some(String::from_utf8_lossy(&code[i..end]).into_owned())
}

/// Where the guard acquired at `pos` stops being held: the end of the
/// enclosing block for `let`-bound guards, the end of the statement
/// for temporaries.
fn guard_scope_end(code: &[u8], pos: usize, body_open: usize, body_close: usize) -> usize {
    if statement_is_let(code, pos, body_open) {
        enclosing_block_end(code, pos, body_open, body_close)
    } else {
        statement_end(code, pos, body_close)
    }
}

/// Whether the statement containing `pos` starts with `let`.
fn statement_is_let(code: &[u8], pos: usize, body_open: usize) -> bool {
    let mut i = pos;
    while i > body_open {
        match code[i - 1] {
            b';' | b'{' | b'}' => break,
            _ => i -= 1,
        }
    }
    let (ident, _) = ident_after(code, i);
    ident == "let"
}

/// Offset of the `;` ending the statement containing `pos` (at the
/// statement's own brace depth), or the body end.
fn statement_end(code: &[u8], pos: usize, body_close: usize) -> usize {
    let mut depth = 0i32;
    let mut i = pos;
    while i < body_close {
        match code[i] {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b';' if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    body_close
}

/// Offset of the `}` closing the innermost block containing `pos`.
fn enclosing_block_end(code: &[u8], pos: usize, body_open: usize, body_close: usize) -> usize {
    // Walk from the body start tracking open braces; the innermost
    // unclosed `{` before `pos` is the enclosing block.
    let mut opens = vec![body_open];
    let mut i = body_open + 1;
    while i < pos {
        match code[i] {
            b'{' => opens.push(i),
            b'}' => {
                opens.pop();
            }
            _ => {}
        }
        i += 1;
    }
    match opens.last() {
        Some(&innermost) => matching_brace(code, innermost),
        None => body_close,
    }
}

fn matching_brace(code: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < code.len() {
        match code[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    code.len()
}

fn ident_after(code: &[u8], mut i: usize) -> (String, usize) {
    while i < code.len() && code[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < code.len() && is_ident_byte(code[i]) {
        i += 1;
    }
    (String::from_utf8_lossy(&code[start..i]).into_owned(), i)
}

fn prev_nonspace_byte(code: &[u8], mut i: usize) -> Option<u8> {
    while i > 0 {
        i -= 1;
        if !code[i].is_ascii_whitespace() {
            return Some(code[i]);
        }
    }
    None
}

fn next_nonspace_byte(code: &[u8], mut i: usize) -> Option<u8> {
    while i < code.len() {
        if !code[i].is_ascii_whitespace() {
            return Some(code[i]);
        }
        i += 1;
    }
    None
}

fn nonspace_at(code: &[u8], mut i: usize, want: u8) -> Option<usize> {
    while i < code.len() && code[i].is_ascii_whitespace() {
        i += 1;
    }
    (code.get(i) == Some(&want)).then_some(i)
}

fn is_keyword(ident: &[u8]) -> bool {
    matches!(
        ident,
        b"if"
            | b"while"
            | b"for"
            | b"match"
            | b"loop"
            | b"return"
            | b"fn"
            | b"let"
            | b"else"
            | b"move"
            | b"in"
            | b"as"
            | b"where"
            | b"impl"
            | b"dyn"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries(files: &[(&str, &str)]) -> Vec<FnSummary> {
        let mut all = Vec::new();
        for (path, src) in files {
            let scan = FileScan::scan(src);
            all.extend(scan_functions(path, &scan));
        }
        all
    }

    #[test]
    fn nested_let_guards_create_an_edge() {
        let src = "fn f(&self) {\n    let a = self.alpha.read();\n    let b = self.beta.write();\n    use_both(a, b);\n}\n";
        let fns = summaries(&[("x.rs", src)]);
        let graph = LockGraph::build(&fns);
        assert!(graph
            .edges
            .iter()
            .any(|e| e.from == "alpha" && e.to == "beta"));
    }

    #[test]
    fn temporary_guards_do_not_outlive_their_statement() {
        let src =
            "fn f(&self) {\n    self.alpha.read().touch();\n    let b = self.beta.write();\n}\n";
        let fns = summaries(&[("x.rs", src)]);
        let graph = LockGraph::build(&fns);
        assert!(graph.edges.is_empty(), "edges: {:?}", graph.edges);
    }

    #[test]
    fn block_scoped_guards_release_at_their_brace() {
        let src = "fn f(&self) {\n    {\n        let a = self.alpha.read();\n        a.touch();\n    }\n    let b = self.beta.write();\n}\n";
        let fns = summaries(&[("x.rs", src)]);
        let graph = LockGraph::build(&fns);
        assert!(graph.edges.is_empty(), "edges: {:?}", graph.edges);
    }

    #[test]
    fn receiver_names_skip_index_groups() {
        let src = "fn f(&self, i: usize) {\n    let g = self.shards[i].write();\n    let h = self.lanes[i].service.read();\n}\n";
        let fns = summaries(&[("x.rs", src)]);
        assert_eq!(fns[0].acquisitions[0].lock, "shards");
        assert_eq!(fns[0].acquisitions[1].lock, "service");
    }

    #[test]
    fn calls_propagate_lock_acquisitions_across_functions() {
        let a = "fn outer(&self) {\n    let g = self.alpha.read();\n    self.helper(1);\n}\n";
        let b = "fn helper(&self, x: u32) {\n    let g = self.beta.write();\n}\n";
        let fns = summaries(&[("a.rs", a), ("b.rs", b)]);
        let graph = LockGraph::build(&fns);
        assert!(graph
            .edges
            .iter()
            .any(|e| e.from == "alpha" && e.to == "beta" && e.witness.contains("call to helper")));
    }

    #[test]
    fn seeded_inversion_is_reported_as_a_cycle() {
        let src = "fn ab(&self) {\n    let a = self.alpha.read();\n    let b = self.beta.read();\n}\nfn ba(&self) {\n    let b = self.beta.write();\n    let a = self.alpha.write();\n}\n";
        let fns = summaries(&[("x.rs", src)]);
        let graph = LockGraph::build(&fns);
        let cycles = graph.cycles();
        assert_eq!(cycles.len(), 1, "cycles: {cycles:?}");
        assert_eq!(cycles[0].rule.id(), "R5");
        assert!(cycles[0].message.contains("alpha"));
        assert!(cycles[0].message.contains("beta"));
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let src = "fn one(&self) {\n    let a = self.alpha.read();\n    let b = self.beta.read();\n}\nfn two(&self) {\n    let a = self.alpha.write();\n    let b = self.beta.write();\n}\n";
        let fns = summaries(&[("x.rs", src)]);
        assert!(LockGraph::build(&fns).cycles().is_empty());
    }

    #[test]
    fn test_regions_are_excluded_from_the_graph() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        let b = self.beta.read();\n        let a = self.alpha.read();\n    }\n}\nfn live(&self) {\n    let a = self.alpha.read();\n    let b = self.beta.read();\n}\n";
        let fns = summaries(&[("x.rs", src)]);
        assert_eq!(fns.len(), 1, "only the live fn: {fns:?}");
        assert!(LockGraph::build(&fns).cycles().is_empty());
    }

    #[test]
    fn cross_function_inversion_is_caught() {
        // fn p holds alpha and calls q; fn q holds beta then alpha.
        let src = "fn p(&self) {\n    let a = self.alpha.read();\n    self.q();\n}\nfn q(&self) {\n    let b = self.beta.write();\n    let a2 = self.alpha.write();\n}\n";
        let fns = summaries(&[("x.rs", src)]);
        let graph = LockGraph::build(&fns);
        let cycles = graph.cycles();
        assert!(
            !cycles.is_empty(),
            "alpha->beta (via call) and beta->alpha should cycle; edges: {:?}",
            graph.edges
        );
    }
}
