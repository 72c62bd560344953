//! Finding types and the JSON / human renderings the lint emits.

use std::fmt;

/// The machine-checkable policies. Each variant is one rule the
/// workspace committed to in PRs 3–5; see DESIGN.md §10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: no `unwrap()` / `expect()` / `panic!` / `todo!` /
    /// `unimplemented!` outside test or bench code.
    ForbiddenPanic,
    /// R2: no host clocks (`std::time`, `Instant`, `SystemTime`) in
    /// simulation crates; `crates/bench` is allowlisted.
    HostClock,
    /// R3: every `Ordering::Relaxed` carries a `// relaxed-ok: <why>`
    /// justification on or directly above its line.
    UnjustifiedRelaxed,
    /// R4: no `println!` / `eprintln!` outside binary entry points.
    StrayPrint,
    /// R5: the cross-function lock-acquisition graph must be acyclic.
    LockCycle,
    /// R6: a bare-`pub` library item needs a reader outside tests, or a
    /// `// api-ok: <why>` justification directly above it.
    UnreadApi,
}

impl Rule {
    /// The short stable identifier used in output and allowlists.
    pub fn id(self) -> &'static str {
        match self {
            Rule::ForbiddenPanic => "R1",
            Rule::HostClock => "R2",
            Rule::UnjustifiedRelaxed => "R3",
            Rule::StrayPrint => "R4",
            Rule::LockCycle => "R5",
            Rule::UnreadApi => "R6",
        }
    }

    /// Parses an identifier as written in an allowlist (`R1`..`R6` or
    /// `*` for any, which returns `None`).
    pub fn parse(id: &str) -> Option<Rule> {
        match id {
            "R1" => Some(Rule::ForbiddenPanic),
            "R2" => Some(Rule::HostClock),
            "R3" => Some(Rule::UnjustifiedRelaxed),
            "R4" => Some(Rule::StrayPrint),
            "R5" => Some(Rule::LockCycle),
            "R6" => Some(Rule::UnreadApi),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One policy violation, locatable and renderable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token (0 for whole-graph
    /// findings such as lock cycles).
    pub column: usize,
    /// The offending source line (or cycle description), trimmed.
    pub snippet: String,
    /// What the rule objects to and how to fix it.
    pub message: String,
}

impl Finding {
    /// `path:line: [rule] message` — the human rendering.
    pub fn human(&self) -> String {
        format!(
            "{}:{}:{} [{}] {}\n    {}",
            self.path, self.line, self.column, self.rule, self.message, self.snippet
        )
    }

    /// The finding as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"rule\":{},\"path\":{},\"line\":{},\"column\":{},\"snippet\":{},\"message\":{}}}",
            json_str(self.rule.id()),
            json_str(&self.path),
            self.line,
            self.column,
            json_str(&self.snippet),
            json_str(&self.message)
        )
    }
}

/// Renders findings as a JSON array (stable field order, no trailing
/// newline).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, finding) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&finding.json());
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: Rule::ForbiddenPanic,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            column: 9,
            snippet: "let v = map.get(&k).unwrap();".into(),
            message: "`unwrap()` outside test/bench code".into(),
        }
    }

    #[test]
    fn human_rendering_names_rule_and_location() {
        let text = finding().human();
        assert!(text.starts_with("crates/x/src/lib.rs:3:9 [R1]"));
        assert!(text.contains("unwrap()"));
    }

    #[test]
    fn json_escapes_and_round_trips_fields() {
        let mut f = finding();
        f.snippet = "say \"hi\"\\".into();
        let json = f.json();
        assert!(json.contains("\"rule\":\"R1\""));
        assert!(json.contains("\\\"hi\\\"\\\\"));
        assert!(json.contains("\"line\":3"));
    }

    #[test]
    fn json_array_is_well_formed_when_empty() {
        assert_eq!(render_json(&[]), "[]");
        let arr = render_json(&[finding(), finding()]);
        assert!(arr.starts_with("[\n  {"));
        assert!(arr.ends_with("\n]"));
    }

    #[test]
    fn rule_ids_round_trip() {
        for rule in [
            Rule::ForbiddenPanic,
            Rule::HostClock,
            Rule::UnjustifiedRelaxed,
            Rule::StrayPrint,
            Rule::LockCycle,
        ] {
            assert_eq!(Rule::parse(rule.id()), Some(rule));
        }
        assert_eq!(Rule::parse("R9"), None);
    }
}
