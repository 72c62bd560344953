//! A comment- and string-aware scanner for Rust source files.
//!
//! The lint rules in [`crate::rules`] are textual, so they need a view
//! of a source file where string literals and comments cannot produce
//! false positives (an `"unwrap()"` inside a fixture string, a doc
//! comment mentioning `Instant`). [`FileScan::scan`] produces that
//! view:
//!
//! * `code` — the source with every comment byte and every string /
//!   char-literal *content* byte blanked to a space. The buffer keeps
//!   the exact byte length and line structure of the original, so any
//!   offset into `code` maps 1:1 onto the original file.
//! * per-line comment text — what the comments on each line said,
//!   which is how the `// relaxed-ok:` justification rule reads its
//!   evidence.
//! * test spans — byte ranges covered by `#[cfg(test)]` / `#[test]` /
//!   `#[bench]` items (from the attribute on) and `mod tests { .. }`
//!   blocks, tracked by brace matching over the scrubbed code. Rules
//!   that exempt test code ask [`FileScan::in_test`] instead of
//!   guessing.
//! * attribute spans — the byte range of every `#[..]`, so a rule can
//!   look through an item's attributes ([`FileScan::attribute_only_line`]).
//!
//! The scanner understands nested block comments, raw strings with
//! arbitrary `#` runs, byte strings, char literals vs. lifetimes, and
//! keeps newlines everywhere so line numbers survive scrubbing.

use std::ops::Range;

/// The scrubbed view of one source file. See the module docs.
#[derive(Debug)]
pub struct FileScan {
    /// The original source text.
    pub source: String,
    /// Source with comments and literal contents blanked to spaces;
    /// same byte length and line structure as `source`.
    pub code: String,
    /// Comment text per 0-based line (empty string when the line has
    /// no comment).
    pub comments: Vec<String>,
    /// Byte offset where each 0-based line starts in `code`.
    line_starts: Vec<usize>,
    /// Byte ranges of `code` that belong to test or bench items.
    test_spans: Spans,
    /// Byte ranges of `code` covered by `#[..]` attributes, in order.
    attr_spans: Spans,
}

/// Half-open byte ranges of the scrubbed code.
type Spans = Vec<(usize, usize)>;

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl FileScan {
    /// Scrubs `source` and computes line and test-region maps.
    pub fn scan(source: &str) -> FileScan {
        let bytes = source.as_bytes();
        let mut code = Vec::with_capacity(bytes.len());
        let mut comments: Vec<Vec<u8>> = vec![Vec::new()];
        let mut state = State::Code;
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b == b'\n' {
                // Newlines survive every state so lines stay aligned.
                code.push(b'\n');
                comments.push(Vec::new());
                if state == State::LineComment {
                    state = State::Code;
                }
                i += 1;
                continue;
            }
            match state {
                State::Code => {
                    if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                        state = State::LineComment;
                        push_comment(&mut comments, b"//");
                        code.extend_from_slice(b"  ");
                        i += 2;
                    } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = State::BlockComment(1);
                        push_comment(&mut comments, b"/*");
                        code.extend_from_slice(b"  ");
                        i += 2;
                    } else if let Some(hashes) = raw_string_open(bytes, i) {
                        // r"..", r#".."#, br".." etc.: keep one quote in
                        // the code view so tokens stay separated.
                        let open_len = raw_open_len(bytes, i);
                        code.push(b'"');
                        code.resize(code.len() + open_len - 1, b' ');
                        state = State::RawStr(hashes);
                        i += open_len;
                    } else if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"')) {
                        let skip = if b == b'b' { 2 } else { 1 };
                        code.push(b'"');
                        code.resize(code.len() + skip - 1, b' ');
                        state = State::Str;
                        i += skip;
                    } else if b == b'\'' && char_literal_starts(bytes, i) {
                        code.push(b'\'');
                        state = State::Char;
                        i += 1;
                    } else {
                        code.push(b);
                        i += 1;
                    }
                }
                State::LineComment => {
                    push_comment(&mut comments, &bytes[i..i + 1]);
                    code.push(b' ');
                    i += 1;
                }
                State::BlockComment(depth) => {
                    if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        push_comment(&mut comments, b"*/");
                        code.extend_from_slice(b"  ");
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        push_comment(&mut comments, b"/*");
                        code.extend_from_slice(b"  ");
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        push_comment(&mut comments, &bytes[i..i + 1]);
                        code.push(b' ');
                        i += 1;
                    }
                }
                State::Str => {
                    if b == b'\\' && i + 1 < bytes.len() {
                        code.extend_from_slice(b"  ");
                        i += 2;
                    } else if b == b'"' {
                        code.push(b'"');
                        state = State::Code;
                        i += 1;
                    } else {
                        code.push(b' ');
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if b == b'"' && hash_run(bytes, i + 1) >= hashes {
                        code.push(b'"');
                        code.resize(code.len() + hashes as usize, b' ');
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        code.push(b' ');
                        i += 1;
                    }
                }
                State::Char => {
                    if b == b'\\' && i + 1 < bytes.len() {
                        code.extend_from_slice(b"  ");
                        i += 2;
                    } else if b == b'\'' {
                        code.push(b'\'');
                        state = State::Code;
                        i += 1;
                    } else {
                        code.push(b' ');
                        i += 1;
                    }
                }
            }
        }

        let code = String::from_utf8_lossy(&code).into_owned();
        let mut line_starts = vec![0usize];
        for (pos, b) in code.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(pos + 1);
            }
        }
        let (test_spans, attr_spans) = find_spans(code.as_bytes());
        FileScan {
            source: source.to_owned(),
            code,
            comments: comments
                .into_iter()
                .map(|c| String::from_utf8_lossy(&c).into_owned())
                .collect(),
            line_starts,
            test_spans,
            attr_spans,
        }
    }

    /// 0-based line containing byte `offset` of `code`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(line) => line,
            Err(next) => next - 1,
        }
    }

    /// 1-based column of byte `offset` within its line.
    pub fn column_of(&self, offset: usize) -> usize {
        offset - self.line_starts[self.line_of(offset)] + 1
    }

    /// Whether byte `offset` falls inside a test/bench item.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(start, end)| (start..end).contains(&offset))
    }

    /// The original text of 0-based line `line`, without its newline.
    pub fn source_line(&self, line: usize) -> &str {
        let start = self.line_starts[line];
        let end = self
            .line_starts
            .get(line + 1)
            .map_or(self.source.len(), |&next| next.saturating_sub(1));
        self.source.get(start..end).unwrap_or_default().trim_end()
    }

    /// Comment text on 0-based line `line` (empty when none).
    pub fn comment_on(&self, line: usize) -> &str {
        self.comments.get(line).map_or("", String::as_str)
    }

    /// Whether 0-based line `line` carries comments but no code.
    pub fn comment_only_line(&self, line: usize) -> bool {
        if self.comment_on(line).is_empty() {
            return false;
        }
        let start = self.line_starts[line];
        let end = self
            .line_starts
            .get(line + 1)
            .copied()
            .unwrap_or(self.code.len());
        self.code.as_bytes()[start..end]
            .iter()
            .all(|b| b.is_ascii_whitespace())
    }

    /// Whether 0-based line `line` holds code, all of it inside
    /// `#[..]` attributes (a line of a multi-line attribute counts).
    pub fn attribute_only_line(&self, line: usize) -> bool {
        let start = self.line_starts[line];
        let end = self
            .line_starts
            .get(line + 1)
            .copied()
            .unwrap_or(self.code.len());
        let mut any = false;
        for (pos, b) in self.code.bytes().enumerate().take(end).skip(start) {
            if b.is_ascii_whitespace() {
                continue;
            }
            any = true;
            if !self.attr_spans.iter().any(|&(s, e)| (s..e).contains(&pos)) {
                return false;
            }
        }
        any
    }
}

fn push_comment(comments: &mut [Vec<u8>], bytes: &[u8]) {
    if let Some(last) = comments.last_mut() {
        last.extend_from_slice(bytes);
    }
}

/// `Some(hash_count)` when a raw string literal (`r".."`, `r#".."#`,
/// `br#".."#`) opens at `i`.
fn raw_string_open(bytes: &[u8], i: usize) -> Option<u32> {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    // Avoid treating identifiers ending in `r`/`br` as raw-string
    // prefixes: the previous byte must not be part of an identifier.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return None;
    }
    j += 1;
    let hashes = hash_run(bytes, j);
    if bytes.get(j + hashes as usize) == Some(&b'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Byte length of the raw-string opener at `i` (prefix + hashes + quote).
fn raw_open_len(bytes: &[u8], i: usize) -> usize {
    let prefix = usize::from(bytes.get(i) == Some(&b'b'));
    let hashes = hash_run(bytes, i + prefix + 1) as usize;
    prefix + 1 + hashes + 1
}

fn hash_run(bytes: &[u8], mut i: usize) -> u32 {
    let mut n = 0;
    while bytes.get(i) == Some(&b'#') {
        n += 1;
        i += 1;
    }
    n
}

/// Distinguishes a char literal from a lifetime at a `'` in code.
fn char_literal_starts(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

/// Finds byte ranges of test/bench items in scrubbed code — from a
/// `#[cfg(test)]` / `#[test]` / `#[bench]` attribute through the
/// brace-balanced body (or `;`) of the item it decorates, or a
/// `mod tests` / `mod test` block — and of every `#[..]` attribute.
fn find_spans(code: &[u8]) -> (Spans, Spans) {
    let mut spans = Vec::new();
    let mut attrs = Vec::new();
    // Start of the test attribute whose item has not closed yet.
    let mut pending: Option<usize> = None;
    let mut i = 0;
    while i < code.len() {
        let b = code[i];
        if b == b'#' && code.get(i + 1) == Some(&b'[') {
            let end = matching(code, i + 1, b'[', b']');
            let body = &code[i + 2..end.min(code.len())];
            if pending.is_none()
                && (contains_ident(body, b"test") || contains_ident(body, b"bench"))
            {
                pending = Some(i);
            }
            attrs.push((i, end + 1));
            i = end + 1;
            continue;
        }
        if is_ident_start(b) {
            let start = i;
            while i < code.len() && is_ident_byte(code[i]) {
                i += 1;
            }
            let ident = &code[start..i];
            if ident == b"mod" {
                // `mod tests` / `mod test` without an attribute.
                let (name, after) = next_ident(code, i);
                if name == b"tests" || name == b"test" {
                    if let Some(open) = next_nonspace_is(code, after, b'{') {
                        let close = matching(code, open, b'{', b'}');
                        spans.push((pending.take().unwrap_or(start), close + 1));
                        i = close + 1;
                        continue;
                    }
                }
            }
            continue;
        }
        if let Some(attr) = pending {
            if b == b'{' {
                let close = matching(code, i, b'{', b'}');
                spans.push((attr, close + 1));
                pending = None;
                i = close + 1;
                continue;
            }
            if b == b';' {
                // The attribute decorated a braceless item.
                spans.push((attr, i + 1));
                pending = None;
            }
        }
        i += 1;
    }
    (spans, attrs)
}

/// Offset of the delimiter matching `open` at `at` (or end of input).
fn matching(code: &[u8], at: usize, open: u8, close: u8) -> usize {
    let mut depth = 0usize;
    let mut i = at;
    while i < code.len() {
        if code[i] == open {
            depth += 1;
        } else if code[i] == close {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    code.len()
}

fn contains_ident(hay: &[u8], needle: &[u8]) -> bool {
    let mut i = 0;
    while i + needle.len() <= hay.len() {
        if &hay[i..i + needle.len()] == needle {
            let before_ok = i == 0 || !is_ident_byte(hay[i - 1]);
            let after_ok = i + needle.len() == hay.len() || !is_ident_byte(hay[i + needle.len()]);
            if before_ok && after_ok {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn next_ident(code: &[u8], mut i: usize) -> (&[u8], usize) {
    while i < code.len() && code[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < code.len() && is_ident_byte(code[i]) {
        i += 1;
    }
    (&code[start..i], i)
}

fn next_nonspace_is(code: &[u8], mut i: usize, want: u8) -> Option<usize> {
    while i < code.len() && code[i].is_ascii_whitespace() {
        i += 1;
    }
    (code.get(i) == Some(&want)).then_some(i)
}

/// Whether `b` can start an identifier.
pub fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// Whether `b` can continue an identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier tokens of `code[range]`, each with its byte offset
/// into `code`. Only token starts count: the `wrap` inside `unwrap`
/// (or a token cut by `range.start`) is never yielded.
pub fn idents(code: &[u8], range: Range<usize>) -> impl Iterator<Item = (usize, &[u8])> {
    let Range { start: mut i, end } = range;
    std::iter::from_fn(move || {
        while i < end {
            if is_ident_start(code[i]) && (i == 0 || !is_ident_byte(code[i - 1])) {
                let start = i;
                while i < end && is_ident_byte(code[i]) {
                    i += 1;
                }
                return Some((start, &code[start..i]));
            }
            i += 1;
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked_in_place() {
        let src = "let a = \"unwrap()\"; // tail unwrap()\nlet b = 1;\n";
        let scan = FileScan::scan(src);
        assert_eq!(scan.code.len(), src.len());
        assert!(!scan.code.contains("unwrap"));
        assert!(scan.comment_on(0).contains("tail unwrap()"));
        assert_eq!(scan.comment_on(1), "");
        assert_eq!(scan.source_line(1), "let b = 1;");
    }

    #[test]
    fn raw_strings_and_chars_scrub_without_desync() {
        let src = "let r = r#\"a \"quoted\" panic!\"#; let c = 'x'; let lt: &'static str = \"\";\n";
        let scan = FileScan::scan(src);
        assert_eq!(scan.code.len(), src.len());
        assert!(!scan.code.contains("panic"));
        assert!(scan.code.contains("'static"), "lifetimes survive");
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let scan = FileScan::scan(src);
        assert!(scan.code.contains("let x = 1;"));
        assert!(!scan.code.contains("outer"));
    }

    #[test]
    fn cfg_test_regions_cover_their_braces() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let scan = FileScan::scan(src);
        let helper = scan.code.find("helper").unwrap();
        let live = scan.code.find("live").unwrap();
        let after = scan.code.find("after").unwrap();
        assert!(scan.in_test(helper));
        assert!(!scan.in_test(live));
        assert!(!scan.in_test(after));
    }

    #[test]
    fn bare_mod_tests_counts_as_a_test_region() {
        let src = "mod tests {\n    fn helper() {}\n}\n";
        let scan = FileScan::scan(src);
        let helper = scan.code.find("helper").unwrap();
        assert!(scan.in_test(helper));
    }

    #[test]
    fn test_attribute_on_a_single_fn_scopes_to_its_body() {
        let src = "#[test]\nfn check() { body(); }\nfn live() { other(); }\n";
        let scan = FileScan::scan(src);
        assert!(scan.in_test(scan.code.find("body").unwrap()));
        assert!(!scan.in_test(scan.code.find("other").unwrap()));
    }

    #[test]
    fn comment_only_lines_are_recognized() {
        let src = "// just a comment\nlet x = 1; // trailing\n";
        let scan = FileScan::scan(src);
        assert!(scan.comment_only_line(0));
        assert!(!scan.comment_only_line(1));
    }

    #[test]
    fn line_and_column_mapping_is_exact() {
        let src = "abc\ndefg\nhi\n";
        let scan = FileScan::scan(src);
        assert_eq!(scan.line_of(0), 0);
        assert_eq!(scan.line_of(5), 1);
        assert_eq!(scan.column_of(5), 2);
        assert_eq!(scan.line_of(9), 2);
    }

    #[test]
    fn idents_yield_token_starts_only() {
        let code = b"x.unwrap(); r#in 0x1f _a";
        let all: Vec<_> = idents(code, 0..code.len()).collect();
        let names: Vec<&[u8]> = all.iter().map(|&(_, t)| t).collect();
        assert_eq!(names, [&b"x"[..], b"unwrap", b"r", b"in", b"_a"]);
        assert_eq!(all[1].0, 2);
        // A range that starts inside `unwrap` skips its tail.
        let tail: Vec<_> = idents(code, 4..code.len()).map(|(_, t)| t).collect();
        assert_eq!(tail[0], b"r");
        // The range end cuts the last token.
        assert_eq!(idents(code, 0..5).last(), Some((2, &b"unw"[..])));
    }
}
