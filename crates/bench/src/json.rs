//! The one JSON writer behind every `BENCH_*.json` artifact.
//!
//! A study builds its artifact as a [`Json`] value next to the rows it
//! computes, and [`Json::render`] prints it with one layout rule:
//! two-space indentation, except that an array or object nested three or
//! more levels below the root prints on one line. Floats carry their
//! decimal count, so each field keeps the precision its artifact has
//! always printed.

use std::fmt::Write;

/// An object's fields, in print order.
pub type Fields = Vec<(&'static str, Json)>;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer.
    Uint(u64),
    /// A float printed with this many decimals.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with its fields in print order.
    Object(Fields),
}

/// Containers at this depth or deeper (the root is depth 0) print on
/// one line.
const INLINE_DEPTH: usize = 3;

impl Json {
    /// The value as text, ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::Uint(value) => {
                let _ = write!(out, "{value}");
            }
            Json::Fixed(value, decimals) => {
                let _ = write!(out, "{value:.decimals$}");
            }
            Json::Str(text) => write_string(out, text),
            Json::Array(items) => {
                write_container(
                    out,
                    depth,
                    ['[', ']'],
                    items.iter().map(|item| (None, item)),
                );
            }
            Json::Object(fields) => write_container(
                out,
                depth,
                ['{', '}'],
                fields.iter().map(|(key, value)| (Some(*key), value)),
            ),
        }
    }
}

/// Writes a container's entries (keyed for an object) between `open`
/// and `close`: one per line under `depth`'s indentation, or all on one
/// line at [`INLINE_DEPTH`] and deeper.
fn write_container<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let inline = depth >= INLINE_DEPTH;
    out.push(open);
    let mut written = 0;
    for (key, value) in entries {
        if written > 0 {
            out.push_str(if inline { ", " } else { "," });
        }
        if !inline {
            out.push('\n');
            indent(out, depth + 1);
        }
        written += 1;
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !inline && written > 0 {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `text` as a JSON string literal.
fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Json {
        Json::Uint(value)
    }
}

impl From<u32> for Json {
    fn from(value: u32) -> Json {
        Json::Uint(value.into())
    }
}

impl From<u16> for Json {
    fn from(value: u16) -> Json {
        Json::Uint(value.into())
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Json {
        Json::Uint(value as u64)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::Str(value.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<[T; 2]> for Json {
    fn from(pair: [T; 2]) -> Json {
        Json::Array(pair.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_expand_to_depth_two_and_inline_from_depth_three() {
        let artifact = Json::Object(vec![
            ("bench", "demo".into()),
            ("missing", Json::Null),
            (
                "totals",
                Json::Object(vec![("ratio", Json::Fixed(0.5, 3)), ("ok", true.into())]),
            ),
            (
                "rows",
                Json::Array(vec![Json::Object(vec![
                    ("epoch", 3u32.into()),
                    ("held", false.into()),
                    (
                        "arm",
                        Json::Object(vec![
                            ("hits", [259u64, 24].into()),
                            ("share", Json::Fixed(0.9, 2)),
                        ]),
                    ),
                ])]),
            ),
        ]);
        assert_eq!(
            artifact.render(),
            r#"{
  "bench": "demo",
  "missing": null,
  "totals": {
    "ratio": 0.500,
    "ok": true
  },
  "rows": [
    {
      "epoch": 3,
      "held": false,
      "arm": {"hits": [259, 24], "share": 0.90}
    }
  ]
}
"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let text = Json::from("say \"hi\" \\ to\u{1}\n");
        assert_eq!(text.render(), "\"say \\\"hi\\\" \\\\ to\\u0001\\n\"\n");
    }

    #[test]
    fn empty_containers_print_their_brackets() {
        let artifact = Json::Object(vec![("rows", Json::Array(Vec::new()))]);
        assert_eq!(artifact.render(), "{\n  \"rows\": []\n}\n");
    }
}
