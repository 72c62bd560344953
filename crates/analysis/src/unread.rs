//! R6: public API that no run reads.
//!
//! A bare-`pub` `fn`, `struct`, `enum`, `trait`, `type`, `const` or
//! `static` in library code is a promise to callers. When the only
//! callers are its own tests, the item is dead weight the workspace
//! still documents, re-exports and maintains. The rule is name-based:
//! an item is *read* when its name occurs as an identifier token in the
//! scrubbed, non-test code of any library, binary, example or bench
//! file (`pipeline-bench/src` included). These tokens do not count:
//!
//! * the names being defined (`fn name`, `struct Name`, ..), but not
//!   the types in `&'static T`, `*const T` or `fn(T)`;
//! * anything inside a `use` / `pub use` declaration, so a re-export
//!   alone is not a reader; a `use a::probe as p;` alias makes each
//!   read of `p` (and a `Trait as _` import) a read of `probe`;
//! * strings, comments and doc examples (scrubbed by the lexer) and
//!   test regions.
//!
//! A name collision can only hide a finding. A reader the lexer cannot
//! see, such as a path inside a string attribute or a macro-built
//! name, can raise a false one; such an item takes an `api-ok`.
//!
//! Items under `pipeline-bench/` are never flagged: it is a binary
//! crate, so rustc's `dead_code` lint already covers it. An item kept
//! on purpose carries `// api-ok: <reason>` directly above it (doc
//! comments and attributes may sit in between), read the same way R3
//! reads `// relaxed-ok:`.

use std::collections::HashSet;

use crate::lexer::{idents, FileScan};
use crate::report::{Finding, Rule};
use crate::rules::{marker_justifies, FileClass};

/// Keywords that introduce a named item; the token after one is a
/// definition, not a reader.
const ITEM_KEYWORDS: &[&[u8]] = &[
    b"fn", b"struct", b"enum", b"trait", b"type", b"const", b"static", b"union", b"mod",
];

/// The cross-file state of the rule: every flaggable item, every name
/// read so far, and every `(original, alias)` pair a `use` renames.
#[derive(Debug, Default)]
pub struct UnreadApi {
    items: Vec<(String, Finding)>,
    read: HashSet<String>,
    aliases: Vec<(String, String)>,
}

impl UnreadApi {
    /// Adds one scanned file: its unjustified bare-`pub` items if it is
    /// library code outside `pipeline-bench/`, and its reader tokens if
    /// it is non-test code.
    pub fn add_file(&mut self, path: &str, class: FileClass, scan: &FileScan) {
        if class == FileClass::Test {
            return;
        }
        let code = scan.code.as_bytes();
        let tokens: Vec<_> = idents(code, 0..code.len()).collect();
        if class == FileClass::Lib && !path.starts_with("pipeline-bench/") {
            for (idx, &(at, tok)) in tokens.iter().enumerate() {
                if tok != b"pub" || !is_bare_pub(code, at) || scan.in_test(at) {
                    continue;
                }
                let Some((kind, name)) = pub_item(&tokens[idx + 1..], code) else {
                    continue;
                };
                if !marker_justifies(scan, scan.line_of(at), "api-ok:") {
                    let finding = unread(path, scan, at, kind, &name);
                    self.items.push((name, finding));
                }
            }
        }
        // Tokens before this offset belong to a `use` declaration.
        let mut use_end = 0;
        for (idx, &(at, tok)) in tokens.iter().enumerate() {
            if scan.in_test(at) {
                continue;
            }
            if tok == b"use" {
                use_end = code[at..]
                    .iter()
                    .position(|&b| b == b';')
                    .map_or(code.len(), |semi| at + semi);
            }
            if at < use_end {
                if let (b"as", Some(&(_, original)), Some(&(_, alias))) = (
                    tok,
                    idx.checked_sub(1).map(|p| &tokens[p]),
                    tokens.get(idx + 1),
                ) {
                    self.aliases.push((lossy(original), lossy(alias)));
                }
                continue;
            }
            if idx == 0 || !defines(code, tokens[idx - 1], at) {
                self.read.insert(lossy(tok));
            }
        }
    }

    /// The findings: every collected item whose name has no reader.
    pub fn findings(self) -> Vec<Finding> {
        let mut read = self.read;
        // A read alias reads its original, through chains of renames.
        loop {
            let before = read.len();
            for (original, alias) in &self.aliases {
                if alias == "_" || read.contains(alias) {
                    read.insert(original.clone());
                }
            }
            if read.len() == before {
                break;
            }
        }
        self.items
            .into_iter()
            .filter(|(name, _)| !read.contains(name))
            .map(|(_, finding)| finding)
            .collect()
    }
}

/// Whether the token at `at` is the name that the item keyword token
/// `(kw_at, kw)` before it defines: only whitespace lies between them,
/// and the keyword is not the lifetime `'static`, the raw pointer
/// `*const` or a `fn(..)` type (ruled out by the `(`).
fn defines(code: &[u8], (kw_at, kw): (usize, &[u8]), at: usize) -> bool {
    let before_kw = code[..kw_at]
        .iter()
        .rev()
        .find(|b| !b.is_ascii_whitespace());
    ITEM_KEYWORDS.contains(&kw)
        && code[kw_at + kw.len()..at]
            .iter()
            .all(u8::is_ascii_whitespace)
        && !(kw == b"static" && kw_at > 0 && code[kw_at - 1] == b'\'')
        && !(kw == b"const" && before_kw == Some(&b'*'))
}

fn lossy(token: &[u8]) -> String {
    String::from_utf8_lossy(token).into_owned()
}

/// Whether the `pub` at `at` is bare, not `pub(crate)` / `pub(super)`.
fn is_bare_pub(code: &[u8], at: usize) -> bool {
    let after = &code[at + 3..];
    after.iter().find(|b| !b.is_ascii_whitespace()) != Some(&b'(')
}

/// The kind and name of the item whose tokens after `pub` are
/// `tokens`, skipping `const` / `async` / `unsafe` / `extern`
/// qualifiers of a `fn`; `None` for `pub use`, `pub mod`, fields and
/// macro-built names (`fn $name`).
fn pub_item(tokens: &[(usize, &[u8])], code: &[u8]) -> Option<(&'static str, String)> {
    let mut rest = tokens.iter().copied();
    let (mut at, mut tok) = rest.next()?;
    let kind = loop {
        match tok {
            b"fn" => break "fn",
            b"struct" => break "struct",
            b"enum" => break "enum",
            b"trait" => break "trait",
            b"type" => break "type",
            b"static" => break "static",
            b"const"
                if !matches!(
                    rest.clone().next(),
                    Some((_, b"fn" | b"unsafe" | b"async" | b"extern"))
                ) =>
            {
                break "const"
            }
            b"const" | b"async" | b"unsafe" | b"extern" => (at, tok) = rest.next()?,
            _ => return None,
        }
    };
    let (name_at, name) = rest.next()?;
    // Only whitespace may separate the keyword from the name.
    let gap = &code[at + tok.len()..name_at];
    gap.iter()
        .all(u8::is_ascii_whitespace)
        .then(|| (kind, lossy(name)))
}

fn unread(path: &str, scan: &FileScan, offset: usize, kind: &str, name: &str) -> Finding {
    let line = scan.line_of(offset);
    Finding {
        rule: Rule::UnreadApi,
        path: path.to_owned(),
        line: line + 1,
        column: scan.column_of(offset),
        snippet: scan.source_line(line).trim().to_owned(),
        message: format!(
            "`pub {kind} {name}` has no reader outside tests and `use` lines; \
             delete it (with its tests and re-exports) or justify it with \
             `// api-ok: <reason>` directly above"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// R6 over a set of `(path, source)` files; the unread item names.
    fn unread_names(files: &[(&str, &str)]) -> Vec<String> {
        let mut api = UnreadApi::default();
        for (path, src) in files {
            api.add_file(path, FileClass::classify(path), &FileScan::scan(src));
        }
        api.findings()
            .iter()
            .map(|f| {
                let name = f.message.split('`').nth(1).unwrap_or_default();
                name.rsplit(' ').next().unwrap_or_default().to_owned()
            })
            .collect()
    }

    const LIB: &str = "crates/a/src/lib.rs";
    const DEF: &str = "pub fn probe() {}\n";

    #[test]
    fn a_read_in_another_crates_code_counts() {
        let reader = "fn main() { a::probe(); }\n";
        assert!(unread_names(&[(LIB, DEF), ("crates/b/src/lib.rs", reader)]).is_empty());
        assert!(unread_names(&[(LIB, DEF), ("examples/demo.rs", reader)]).is_empty());
        assert!(unread_names(&[(LIB, DEF), ("crates/bench/src/bin/t.rs", reader)]).is_empty());
        assert!(unread_names(&[(LIB, DEF), ("pipeline-bench/src/main.rs", reader)]).is_empty());
    }

    #[test]
    fn an_unread_item_is_flagged_whatever_its_kind() {
        let src = "pub fn f() {}\npub const fn g() {}\npub struct S;\npub enum E {}\n\
                   pub trait T {}\npub type A = u8;\npub const C: u8 = 1;\npub static M: u8 = 1;\n";
        assert_eq!(
            unread_names(&[(LIB, src)]),
            ["f", "g", "S", "E", "T", "A", "C", "M"]
        );
    }

    #[test]
    fn strings_comments_and_doc_examples_are_not_readers() {
        let other = "fn main() {\n    let s = \"probe()\"; // probe() here too\n}\n\
                     /// ```\n/// a::probe();\n/// ```\npub fn documented() { documented(); }\n";
        assert_eq!(
            unread_names(&[(LIB, DEF), ("crates/b/src/lib.rs", other)]),
            ["probe"]
        );
    }

    #[test]
    fn test_code_is_not_a_reader() {
        let cfg_test = "#[cfg(test)]\nmod tests {\n    fn t() { a::probe(); }\n}\n";
        assert_eq!(
            unread_names(&[(LIB, DEF), ("crates/b/src/lib.rs", cfg_test)]),
            ["probe"]
        );
        let test_fn = "#[test]\nfn t() { a::probe(); }\n";
        assert_eq!(
            unread_names(&[(LIB, DEF), ("crates/b/src/lib.rs", test_fn)]),
            ["probe"]
        );
        let integration = "fn t() { a::probe(); }\n";
        assert_eq!(
            unread_names(&[(LIB, DEF), ("tests/it.rs", integration)]),
            ["probe"]
        );
        // A test-only helper is never flagged itself.
        let helper = "#[cfg(test)]\npub fn only_tests() {}\n";
        assert!(unread_names(&[(LIB, helper)]).is_empty());
    }

    #[test]
    fn a_re_export_alone_is_not_a_reader() {
        let facade = "pub use a::probe;\npub use a::{\n    probe as p,\n};\n";
        assert_eq!(
            unread_names(&[(LIB, DEF), ("src/lib.rs", facade)]),
            ["probe"]
        );
    }

    #[test]
    fn a_read_through_a_use_alias_counts() {
        let facade = "pub use a::probe as p;\n";
        let reader = "fn main() { p(); }\n";
        assert!(unread_names(&[
            (LIB, DEF),
            ("src/lib.rs", facade),
            ("examples/d.rs", reader)
        ])
        .is_empty());
        // An unread alias keeps nothing alive; a `Trait as _` import does.
        assert_eq!(
            unread_names(&[(LIB, DEF), ("src/lib.rs", facade)]),
            ["probe"]
        );
        let trait_import = "use a::probe as _;\n";
        assert!(unread_names(&[(LIB, DEF), ("src/lib.rs", trait_import)]).is_empty());
    }

    #[test]
    fn types_after_static_const_and_fn_in_type_position_are_read() {
        let def = "pub struct T;\n";
        for reader in [
            "fn f(x: &'static T) {}\n",
            "fn f(x: *const T) {}\n",
            "fn f(x: fn(T) -> u8) {}\n",
            "fn f(s: &HashSet<u8>) { s.union(&T); }\n",
        ] {
            assert!(
                unread_names(&[(LIB, def), ("crates/b/src/lib.rs", reader)]).is_empty(),
                "{reader}"
            );
        }
    }

    #[test]
    fn the_definition_does_not_read_itself() {
        let twice = "pub fn probe() {}\nmod inner {\n    pub fn probe() {}\n}\n";
        assert_eq!(unread_names(&[(LIB, twice)]), ["probe", "probe"]);
    }

    #[test]
    fn restricted_visibility_and_non_items_are_never_flagged() {
        let src = "pub(crate) fn a() {}\npub(super) fn b() {}\npub struct S {\n    pub field: u8,\n}\n\
                   pub mod m {}\npub use std::fmt;\nmacro_rules! m { ($n:ident) => { pub fn $n() {} } }\n";
        assert_eq!(unread_names(&[(LIB, src)]), ["S"]);
    }

    #[test]
    fn only_library_code_outside_pipeline_bench_is_checked() {
        for path in [
            "pipeline-bench/src/spans.rs",
            "crates/a/src/bin/tool.rs",
            "examples/demo.rs",
            "crates/bench/src/lib.rs",
            "tests/it.rs",
        ] {
            assert!(unread_names(&[(path, DEF)]).is_empty(), "{path}");
        }
    }

    #[test]
    fn api_ok_needs_a_reason() {
        let kept =
            "// api-ok: read by Figure 9's harness\n/// Docs.\n#[must_use]\npub fn kept() {}\n";
        assert!(unread_names(&[(LIB, kept)]).is_empty());
        let bare = "// api-ok:\n/// Docs.\npub fn bare() {}\n";
        assert_eq!(unread_names(&[(LIB, bare)]), ["bare"]);
        let detached = "// api-ok: too far away\nfn other() {}\npub fn detached() {}\n";
        assert_eq!(unread_names(&[(LIB, detached)]), ["detached"]);
    }
}
