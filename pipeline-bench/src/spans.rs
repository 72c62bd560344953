//! Host-clock spans: a timing helper, per-stage span accumulators with
//! self time and a log2 per-call histogram, and the process's peak RSS.
//!
//! The workspace lint (rule R2) confines host clocks to
//! `pocket_bench::wallclock`, so every reading here goes through that
//! module's `measure` rather than naming a clock type directly.

use std::collections::BTreeMap;

use pocket_bench::wallclock::measure;

/// Runs `f` once and returns its result with the host nanoseconds it
/// took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let mut f = Some(f);
    let mut out = None;
    let ns = measure(0, 1, 1, || out = f.take().map(|f| f())).median_ns;
    match out {
        Some(result) => (result, ns as u64),
        None => unreachable!("measure(0, 1, 1, _) calls its closure exactly once"),
    }
}

/// Buckets of a [`Log2Histogram`]: bucket `b` holds values in
/// `[2^b, 2^(b+1))` (bucket 0 also holds 0).
pub const LOG2_BUCKETS: usize = 64;

/// The bucket a nanosecond value falls into.
pub fn log2_bucket(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros()) as usize
}

/// A log2-bucketed histogram of per-call nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            counts: [0; LOG2_BUCKETS],
        }
    }
}

impl Log2Histogram {
    /// A histogram from raw bucket counts.
    pub fn from_counts(counts: [u64; LOG2_BUCKETS]) -> Self {
        Log2Histogram { counts }
    }

    /// Counts one value.
    pub fn record(&mut self, ns: u64) {
        self.counts[log2_bucket(ns)] += 1;
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Values counted.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank `q`-quantile, reported as the exclusive upper edge
    /// of the bucket that holds it (`2^(b+1)` ns); 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64.checked_shl(bucket as u32 + 1).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// One stage's accumulated spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Calls recorded.
    pub calls: u64,
    /// Wall nanoseconds across all calls.
    pub total_ns: u64,
    /// Nanoseconds of the calls' intervals covered by child spans.
    pub child_ns: u64,
    /// Per-call nanoseconds.
    pub histogram: Log2Histogram,
}

impl SpanStats {
    /// Time spent in the stage itself: its spans minus their children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// Named stage accumulators, kept in memory and read out when a run
/// ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTable {
    stages: BTreeMap<&'static str, SpanStats>,
}

impl SpanTable {
    /// Records one call of `stage` that took `ns`.
    pub fn record(&mut self, stage: &'static str, ns: u64) {
        let stats = self.stages.entry(stage).or_default();
        stats.calls += 1;
        stats.total_ns += ns;
        stats.histogram.record(ns);
    }

    /// Folds pre-aggregated spans (e.g. from a lane decorator) into
    /// `stage`.
    pub fn merge(&mut self, stage: &'static str, spans: &SpanStats) {
        let stats = self.stages.entry(stage).or_default();
        stats.calls += spans.calls;
        stats.total_ns += spans.total_ns;
        stats.child_ns += spans.child_ns;
        stats.histogram.merge(&spans.histogram);
    }

    /// Marks `ns` of `parent`'s recorded time as covered by a child
    /// stage.
    pub fn add_child(&mut self, parent: &'static str, ns: u64) {
        self.stages.entry(parent).or_default().child_ns += ns;
    }

    /// The stage's spans, if any were recorded.
    pub fn get(&self, stage: &str) -> Option<&SpanStats> {
        self.stages.get(stage)
    }

    /// Total nanoseconds of `stage` (0 when never recorded).
    pub fn total_ns(&self, stage: &str) -> u64 {
        self.get(stage).map_or(0, |s| s.total_ns)
    }

    /// Calls of `stage` (0 when never recorded).
    pub fn calls(&self, stage: &str) -> u64 {
        self.get(stage).map_or(0, |s| s.calls)
    }

    /// Every recorded stage, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &SpanStats)> {
        self.stages.iter().map(|(&name, stats)| (name, stats))
    }
}

/// The process's peak resident set size (`VmHWM`), in bytes; `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_the_result_and_a_duration() {
        let (value, ns) = timed(|| (0..1_000u64).map(std::hint::black_box).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(ns > 0);
    }

    #[test]
    fn self_time_is_total_minus_children() {
        let mut table = SpanTable::default();
        table.record("frontend.serve_batch", 1_000);
        table.record("frontend.serve_batch", 3_000);
        table.add_child("frontend.serve_batch", 2_500);
        let stats = table.get("frontend.serve_batch").expect("recorded");
        assert_eq!((stats.calls, stats.total_ns), (2, 4_000));
        assert_eq!(stats.self_ns(), 1_500);
        // Children never drive self time negative.
        table.add_child("frontend.serve_batch", 10_000);
        assert_eq!(
            table.get("frontend.serve_batch").map(SpanStats::self_ns),
            Some(0)
        );
        assert_eq!(table.total_ns("never"), 0);
    }

    #[test]
    fn merge_adds_calls_time_and_buckets() {
        let mut lane = SpanStats::default();
        for ns in [100, 200, 300] {
            lane.calls += 1;
            lane.total_ns += ns;
            lane.histogram.record(ns);
        }
        let mut table = SpanTable::default();
        table.merge("population.serve", &lane);
        table.merge("population.serve", &lane);
        let stats = table.get("population.serve").expect("merged");
        assert_eq!((stats.calls, stats.total_ns), (6, 1_200));
        assert_eq!(stats.histogram.count(), 6);
    }

    #[test]
    fn buckets_are_floor_log2() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(1_024), 10);
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank_bucket_edges() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        // 90 calls in [64, 128), 9 in [1024, 2048), 1 in [2^20, 2^21).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(1_500);
        }
        h.record(1 << 20);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.5), 128);
        assert_eq!(h.quantile_ns(0.90), 128);
        assert_eq!(h.quantile_ns(0.91), 2_048);
        assert_eq!(h.quantile_ns(0.99), 2_048);
        assert_eq!(h.quantile_ns(1.0), 1 << 21);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().is_some_and(|b| b > 0));
        }
    }
}
