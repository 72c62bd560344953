//! The committed allowlist: deliberate, justified exemptions.
//!
//! The file (`lint.allow` at the workspace root) holds one entry per
//! line, four `|`-separated fields:
//!
//! ```text
//! rule|path-prefix|needle|reason
//! ```
//!
//! * `rule` — `R1`..`R5`, or `*` for any rule.
//! * `path-prefix` — workspace-relative path prefix the entry covers
//!   (`crates/bench/` covers the whole crate).
//! * `needle` — substring the offending source line must contain, or
//!   `*` for any line.
//! * `reason` — mandatory free text; an entry without a reason is a
//!   parse error. The reason is the point: exemptions are documented
//!   decisions, not silent holes.
//!
//! Blank lines and lines starting with `#` are comments. Every entry
//! tracks whether it matched anything so the lint can report stale
//! exemptions.

use crate::report::{Finding, Rule};

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Rule this entry suppresses (`None` = any rule).
    pub rule: Option<Rule>,
    /// Path prefix the entry covers.
    pub path_prefix: String,
    /// Required substring of the offending line (`None` = any).
    pub needle: Option<String>,
    /// Why the exemption exists.
    pub reason: String,
    /// 1-based line in the allowlist file, for diagnostics.
    pub line: usize,
}

/// The parsed allowlist plus per-entry usage tracking.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<Entry>,
    used: Vec<bool>,
}

/// A malformed allowlist line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the bad entry.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.allow:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Allowlist {
    /// Parses allowlist text. Fails on any malformed entry — a typo'd
    /// exemption silently matching nothing would defeat the tool.
    pub fn parse(text: &str) -> Result<Allowlist, ParseError> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.splitn(4, '|').collect();
            if fields.len() != 4 {
                return Err(ParseError {
                    line,
                    message: format!(
                        "expected 4 `|`-separated fields (rule|path|needle|reason), got {}",
                        fields.len()
                    ),
                });
            }
            let rule = match fields[0].trim() {
                "*" => None,
                id => match Rule::parse(id) {
                    Some(rule) => Some(rule),
                    None => {
                        return Err(ParseError {
                            line,
                            message: format!("unknown rule {:?} (want R1..R5 or *)", id),
                        });
                    }
                },
            };
            let path_prefix = fields[1].trim().to_owned();
            if path_prefix.is_empty() {
                return Err(ParseError {
                    line,
                    message: "empty path prefix".to_owned(),
                });
            }
            let needle = match fields[2].trim() {
                "*" => None,
                n => Some(n.to_owned()),
            };
            let reason = fields[3].trim().to_owned();
            if reason.is_empty() {
                return Err(ParseError {
                    line,
                    message: "every allowlist entry needs a reason".to_owned(),
                });
            }
            entries.push(Entry {
                rule,
                path_prefix,
                needle,
                reason,
                line,
            });
        }
        let used = vec![false; entries.len()];
        Ok(Allowlist { entries, used })
    }

    /// Whether `finding` is covered by an entry; marks the entry used.
    pub fn permits(&mut self, finding: &Finding) -> bool {
        for (i, entry) in self.entries.iter().enumerate() {
            let rule_ok = entry.rule.is_none_or(|r| r == finding.rule);
            let path_ok = finding.path.starts_with(&entry.path_prefix);
            let needle_ok = entry
                .needle
                .as_ref()
                .is_none_or(|n| finding.snippet.contains(n.as_str()));
            if rule_ok && path_ok && needle_ok {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// All parsed entries, in file order — lets policy tests pin the
    /// committed allowlist's exact shape.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Entries that never matched a finding — candidates for removal.
    pub fn unused(&self) -> Vec<&Entry> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|&(_, &used)| !used)
            .map(|(entry, _)| entry)
            .collect()
    }

    /// Number of parsed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn finding(rule: Rule, path: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line: 1,
            column: 1,
            snippet: snippet.into(),
            message: String::new(),
        }
    }

    #[test]
    fn entries_match_rule_prefix_and_needle() {
        let mut allow = Allowlist::parse(
            "# comment\n\nR2|crates/bench/|std::time|wall-clock harness\nR1|crates/x/|*|invariant\n",
        )
        .expect("valid allowlist");
        assert_eq!(allow.len(), 2);
        assert!(allow.permits(&finding(
            Rule::HostClock,
            "crates/bench/src/lib.rs",
            "use std::time::Instant;"
        )));
        assert!(!allow.permits(&finding(
            Rule::HostClock,
            "crates/core/src/lib.rs",
            "use std::time::Instant;"
        )));
        assert!(allow.permits(&finding(Rule::ForbiddenPanic, "crates/x/src/a.rs", "x")));
        assert!(!allow.permits(&finding(Rule::StrayPrint, "crates/x/src/a.rs", "x")));
    }

    #[test]
    fn wildcard_rule_covers_everything_on_the_path() {
        let mut allow =
            Allowlist::parse("*|crates/y/|*|generated code\n").expect("valid allowlist");
        assert!(allow.permits(&finding(Rule::StrayPrint, "crates/y/src/gen.rs", "x")));
        assert!(allow.permits(&finding(Rule::HostClock, "crates/y/src/gen.rs", "y")));
    }

    #[test]
    fn missing_reason_is_a_parse_error() {
        let err = Allowlist::parse("R1|crates/x/|*|  \n").expect_err("reason required");
        assert!(err.message.contains("reason"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn malformed_lines_fail_loudly() {
        assert!(Allowlist::parse("R1|crates/x/\n").is_err());
        assert!(Allowlist::parse("R9|crates/x/|*|why\n").is_err());
        assert!(Allowlist::parse("R1||*|why\n").is_err());
    }

    #[test]
    fn unused_entries_are_reported() {
        let mut allow =
            Allowlist::parse("R1|crates/a/|*|one\nR4|crates/b/|*|two\n").expect("valid");
        allow.permits(&finding(Rule::ForbiddenPanic, "crates/a/src/lib.rs", "x"));
        let unused = allow.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].reason, "two");
    }

    /// Lines over the format's own alphabet (rule ids, `|`, `*`, `#`),
    /// four-field entries with maybe-empty fields, and arbitrary bytes.
    fn hostile_text() -> impl Strategy<Value = String> {
        let entry = (
            "[R1-59*]{0,2}",
            "[a-z/ ]{0,6}",
            "[*a-z]{0,4}",
            "[a-z| ]{0,6}",
        )
            .prop_map(|(rule, path, needle, reason)| format!("{rule}|{path}|{needle}|{reason}"));
        let line = prop_oneof!["[|*#R1-9a-z/. \t\r]{0,40}", entry];
        prop_oneof![
            3 => proptest::collection::vec(line, 0..8).prop_map(|lines| lines.join("\n")),
            1 => proptest::collection::vec(any::<u8>(), 0..160)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        ]
    }

    proptest! {
        /// Hostile input never panics: every text parses, or fails with
        /// a typed error naming one of its own lines.
        #[test]
        fn arbitrary_text_parses_or_names_a_line(text in hostile_text()) {
            if let Err(err) = Allowlist::parse(&text) {
                prop_assert!((1..=text.lines().count()).contains(&err.line));
            }
        }
    }
}
