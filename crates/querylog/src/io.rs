//! Text import/export for search logs.
//!
//! The synthetic generator stands in for the m.bing.com logs, but a
//! downstream user may have *real* traces. This module defines a simple
//! line-oriented interchange format so external logs can be replayed
//! through the exact same pipeline (triplet extraction → cache build →
//! replay):
//!
//! ```text
//! # pocket-cloudlets log v1
//! user <tab> day <tab> micros_of_day <tab> kind <tab> device <tab> query <tab> url
//! ```
//!
//! `kind` is `nav` or `web`; `device` is `feature` or `smart`. Lines
//! starting with `#` are comments. Query text and URL are the raw strings;
//! tabs inside them are not supported (they do not occur in queries).

use crate::ids::{stable_hash64, PairId, QueryId, ResultId, UserId};
use crate::log::{DeviceClass, LogEntry, SearchLog, Timestamp};
use crate::universe::QueryKind;

/// The header line identifying the format.
pub const FORMAT_HEADER: &str = "# pocket-cloudlets log v1";

/// Errors from parsing a text log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header line was missing or wrong.
    BadHeader {
        /// What the first line actually was.
        found: String,
    },
    /// A data line did not have exactly seven tab-separated fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        fields: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Name of the offending field.
        field: &'static str,
        /// The raw value.
        value: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader { found } => {
                write!(f, "expected header {FORMAT_HEADER:?}, found {found:?}")
            }
            ParseError::BadFieldCount { line, fields } => {
                write!(
                    f,
                    "line {line}: expected 7 tab-separated fields, found {fields}"
                )
            }
            ParseError::BadField { line, field, value } => {
                write!(f, "line {line}: invalid {field}: {value:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed external log: entries in the id-free interchange space.
///
/// Queries and results are identified by their strings; `to_search_log`
/// interns them into dense ids compatible with the analysis toolkit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExternalLog {
    /// `(user, timestamp, kind, device, query text, url)` rows.
    pub rows: Vec<(u32, Timestamp, QueryKind, DeviceClass, String, String)>,
}

impl ExternalLog {
    // api-ok: turns a parsed real trace into the log §6.2's replay
    // takes; item 4's hostile-input proptest converts every parsed row.
    /// Interns strings into dense ids and produces a [`SearchLog`] plus
    /// the query/url string tables (index = id).
    pub fn to_search_log(&self) -> (SearchLog, Vec<String>, Vec<String>) {
        let mut queries: Vec<String> = Vec::new();
        let mut urls: Vec<String> = Vec::new();
        let mut query_ids = std::collections::HashMap::new();
        let mut url_ids = std::collections::HashMap::new();
        let mut entries = Vec::with_capacity(self.rows.len());
        let days = self.rows.iter().map(|r| r.1.day + 1).max().unwrap_or(0);
        for (user, time, kind, device, query, url) in &self.rows {
            let qid = *query_ids.entry(query.clone()).or_insert_with(|| {
                queries.push(query.clone());
                QueryId::new(queries.len() as u32 - 1)
            });
            let rid = *url_ids.entry(url.clone()).or_insert_with(|| {
                urls.push(url.clone());
                ResultId::new(urls.len() as u32 - 1)
            });
            entries.push(LogEntry {
                user: UserId::new(*user),
                time: *time,
                // External rows carry no pair identity; derive a stable
                // synthetic one from the strings.
                pair: PairId::new(
                    (stable_hash64(format!("{query}\u{0}{url}").as_bytes()) % u64::from(u32::MAX))
                        as u32,
                ),
                query: qid,
                result: rid,
                kind: *kind,
                device: *device,
            });
        }
        (SearchLog::new(entries, days), queries, urls)
    }
}

// api-ok: the entry point for replaying real traces through the §6.2
// pipeline; ROADMAP item 4 counts its hostile-input proptest as done.
/// Parses the interchange text format.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line and field.
pub fn parse_log(text: &str) -> Result<ExternalLog, ParseError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.trim() == FORMAT_HEADER => {}
        other => {
            return Err(ParseError::BadHeader {
                found: other.map(|(_, l)| l.to_owned()).unwrap_or_default(),
            })
        }
    }

    let mut rows = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let trimmed = line.trim_end();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Walk the split iterator directly instead of collecting a
        // per-line `Vec<&str>`; the field count is only tallied on the
        // error path.
        let mut fields = trimmed.split('\t');
        let bad_count = || ParseError::BadFieldCount {
            line: line_no,
            fields: trimmed.split('\t').count(),
        };
        let mut field = || fields.next().ok_or_else(bad_count);
        let bad = |field: &'static str, value: &str| ParseError::BadField {
            line: line_no,
            field,
            value: value.to_owned(),
        };
        let raw = field()?;
        let user: u32 = raw.parse().map_err(|_| bad("user", raw))?;
        let raw = field()?;
        let day: u16 = raw.parse().map_err(|_| bad("day", raw))?;
        // The log spans `max day + 1` days, which must fit the `u16`
        // day count too.
        if day == u16::MAX {
            return Err(bad("day", raw));
        }
        let raw = field()?;
        let micros: u64 = raw.parse().map_err(|_| bad("micros_of_day", raw))?;
        if micros >= 86_400_000_000 {
            return Err(bad("micros_of_day", raw));
        }
        let kind = match field()? {
            "nav" => QueryKind::Navigational,
            "web" => QueryKind::NonNavigational,
            other => return Err(bad("kind", other)),
        };
        let device = match field()? {
            "feature" => DeviceClass::FeaturePhone,
            "smart" => DeviceClass::Smartphone,
            other => return Err(bad("device", other)),
        };
        let query = field()?.to_owned();
        let url = field()?.to_owned();
        if fields.next().is_some() {
            return Err(bad_count());
        }
        rows.push((user, Timestamp::new(day, micros), kind, device, query, url));
    }
    Ok(ExternalLog { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::stats::LogStats;
    use crate::generator::{GeneratorConfig, LogGenerator};
    use crate::triplets::TripletTable;
    use crate::universe::Universe;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// Serializes a synthetic log to the interchange text format.
    fn write_log(log: &SearchLog, universe: &Universe) -> String {
        let mut out = String::with_capacity(log.len() * 64);
        out.push_str(FORMAT_HEADER);
        out.push('\n');
        for e in log.iter() {
            let kind = match e.kind {
                QueryKind::Navigational => "nav",
                QueryKind::NonNavigational => "web",
            };
            let device = match e.device {
                DeviceClass::FeaturePhone => "feature",
                DeviceClass::Smartphone => "smart",
            };
            // Writing into a String is infallible; the Result only exists
            // because `fmt::Write` is shared with fallible sinks.
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{kind}\t{device}\t{}\t{}",
                e.user.index(),
                e.time.day,
                e.time.micros_of_day,
                universe.query(e.query).text,
                universe.result(e.result).url,
            );
        }
        out
    }

    #[test]
    fn export_parse_round_trip_preserves_structure() {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 88);
        let log = g.generate_month();
        let text = write_log(&log, g.universe());
        let parsed = parse_log(&text).expect("exported logs parse");
        assert_eq!(parsed.rows.len(), log.len());

        let (round, queries, urls) = parsed.to_search_log();
        assert_eq!(round.len(), log.len());
        // The interned tables cover exactly the distinct strings used.
        let stats_orig = LogStats::compute(&log);
        let stats_round = LogStats::compute(&round);
        assert_eq!(stats_round.unique_queries, stats_orig.unique_queries);
        assert_eq!(stats_round.unique_results, stats_orig.unique_results);
        assert_eq!(stats_round.users, stats_orig.users);
        assert_eq!(queries.len(), stats_orig.unique_queries);
        assert_eq!(urls.len(), stats_orig.unique_results);

        // The analysis pipeline produces the same triplet totals.
        let t_orig = TripletTable::from_log(&log);
        let t_round = TripletTable::from_log(&round);
        assert_eq!(t_round.total_volume(), t_orig.total_volume());
        assert_eq!(t_round.len(), t_orig.len());
    }

    #[test]
    fn header_is_mandatory() {
        assert!(matches!(
            parse_log("1\t2\t3\tnav\tsmart\tq\tu"),
            Err(ParseError::BadHeader { .. })
        ));
        assert!(matches!(parse_log(""), Err(ParseError::BadHeader { .. })));
    }

    #[test]
    fn field_errors_name_line_and_field() {
        let text =
            format!("{FORMAT_HEADER}\n0\t0\t0\tnav\tsmart\tq\tu\nx\t0\t0\tnav\tsmart\tq\tu\n");
        let err = parse_log(&text).unwrap_err();
        assert_eq!(
            err,
            ParseError::BadField {
                line: 3,
                field: "user",
                value: "x".into()
            }
        );
        assert!(err.to_string().contains("line 3"));

        let text = format!("{FORMAT_HEADER}\n0\t0\t0\tridiculous\tsmart\tq\tu\n");
        assert!(matches!(
            parse_log(&text).unwrap_err(),
            ParseError::BadField { field: "kind", .. }
        ));

        let text = format!("{FORMAT_HEADER}\n0\t0\t0\tnav\tsmart\tq\n");
        assert!(matches!(
            parse_log(&text).unwrap_err(),
            ParseError::BadFieldCount { fields: 6, .. }
        ));
    }

    #[test]
    fn malformed_row_with_extra_fields_is_a_typed_error() {
        // Too many fields must be a BadFieldCount naming the line and
        // the actual count, not a silently truncated row.
        let text = format!("{FORMAT_HEADER}\n0\t0\t0\tnav\tsmart\tq\tu\textra\n");
        assert_eq!(
            parse_log(&text).unwrap_err(),
            ParseError::BadFieldCount { line: 2, fields: 8 }
        );

        // A lone field is also counted exactly.
        let text = format!("{FORMAT_HEADER}\njunk\n");
        assert!(matches!(
            parse_log(&text).unwrap_err(),
            ParseError::BadField { field: "user", .. }
        ));
        let text = format!("{FORMAT_HEADER}\n7\n");
        assert_eq!(
            parse_log(&text).unwrap_err(),
            ParseError::BadFieldCount { line: 2, fields: 1 }
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text =
            format!("{FORMAT_HEADER}\n# comment\n\n0\t1\t2\tweb\tfeature\thello\twww.x.com\n");
        let parsed = parse_log(&text).unwrap();
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.rows[0].4, "hello");
    }

    #[test]
    fn out_of_range_time_is_rejected_not_panicking() {
        let text = format!("{FORMAT_HEADER}\n0\t0\t86400000000\tnav\tsmart\tq\tu\n");
        assert!(matches!(
            parse_log(&text).unwrap_err(),
            ParseError::BadField {
                field: "micros_of_day",
                ..
            }
        ));
    }

    #[test]
    fn last_u16_day_is_rejected_not_overflowing_the_day_window() {
        let row = |day: u16| format!("{FORMAT_HEADER}\n1\t{day}\t0\tweb\tsmart\tq\thttp://u\n");
        assert!(matches!(
            parse_log(&row(u16::MAX)).unwrap_err(),
            ParseError::BadField {
                line: 2,
                field: "day",
                ..
            }
        ));
        let (log, _, _) = parse_log(&row(u16::MAX - 1)).unwrap().to_search_log();
        assert_eq!(log.days(), u16::MAX);
    }

    /// Values no column accepts, or that belong to another column.
    const JUNK: [&str; 7] = ["", "-1", "é", "86400000000", "65536", "web", "feature"];

    /// A valid row with a boundary-leaning day, then maybe one column
    /// swapped for junk, a junk column appended, or the row truncated.
    fn hostile_row() -> impl Strategy<Value = String> {
        let day = prop_oneof![0u16..30, 65_530u16..=u16::MAX];
        let edits = 0..12 * JUNK.len();
        (any::<u32>(), day, 0u64..86_400_000_000, ".{0,12}", edits).prop_map(
            |(user, day, micros, text, edit)| {
                let row = format!("{user}\t{day}\t{micros}\tnav\tsmart\t{text}\t{text}");
                let mut fields: Vec<&str> = row.split('\t').collect();
                let junk = JUNK[edit / 12];
                match edit % 12 {
                    column @ 0..=6 => fields[column] = junk,
                    7 => fields.push(junk),
                    8 => fields.truncate(edit / 12),
                    _ => {}
                }
                fields.join("\t")
            },
        )
    }

    /// The no-panic contract: `Ok` (which must intern without
    /// panicking) or a typed error naming a real line.
    fn assert_parses_or_rejects(text: &str) {
        match parse_log(text) {
            Ok(parsed) => assert_eq!(parsed.to_search_log().0.len(), parsed.rows.len()),
            Err(ParseError::BadHeader { .. }) => {}
            Err(ParseError::BadFieldCount { line, .. } | ParseError::BadField { line, .. }) => {
                assert!((2..=text.lines().count()).contains(&line))
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_text_never_panics(
            text in prop_oneof![
                "[\t\n\r#0-9a-z .:/]{0,160}",
                proptest::collection::vec(any::<u8>(), 0..160)
                    .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
            ],
        ) {
            assert_parses_or_rejects(&text);
        }

        #[test]
        fn arbitrary_rows_never_panic(rows in proptest::collection::vec(hostile_row(), 0..8)) {
            assert_parses_or_rejects(&format!("{FORMAT_HEADER}\n{}", rows.join("\n")));
        }
    }

    #[test]
    fn external_logs_feed_the_cache_pipeline() {
        // The whole point: hand-written rows flow into triplets.
        let text = format!(
            "{FORMAT_HEADER}\n\
             0\t0\t100\tnav\tsmart\tyoutube\twww.youtube.com\n\
             0\t1\t200\tnav\tsmart\tyoutube\twww.youtube.com\n\
             1\t0\t300\tweb\tfeature\tmichael jackson\twww.imdb.com/name/nm0001391\n"
        );
        let (log, queries, _) = parse_log(&text).unwrap().to_search_log();
        let t = TripletTable::from_log(&log);
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().next().unwrap().volume, 2);
        assert!(queries.contains(&"youtube".to_owned()));
    }
}
