//! Wall-clock measurement: the workspace's one host timer.
//!
//! Everything else in the workspace runs on simulated time
//! (`mobsim::time`) so results are bit-reproducible across machines —
//! and lint rule R2 bans host clocks to keep it that way. This module
//! is the **one deliberate exception** (see the two `lint.allow`
//! entries pinned by `tests/lint_clean.rs`): how fast the stack itself
//! runs can only come from a host clock. Its one caller is the
//! `pipeline-bench` package, whose spans time each layer of an
//! end-to-end run through [`measure`]. Numbers from here are
//! host-dependent by design; none of them is a committed artifact.
//!
//! [`measure`] is single-threaded: warmup, then `reps` repetitions of
//! `iters_per_rep` calls, reported as median/p5/p95 ns per call.

use std::time::Instant;

/// Single-threaded timing summary of one operation, in nanoseconds per
/// call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median ns per call across repetitions.
    pub median_ns: f64,
    /// 5th-percentile ns per call (best-case repetitions).
    pub p5_ns: f64,
    /// 95th-percentile ns per call (worst-case repetitions).
    pub p95_ns: f64,
    /// Calls timed per repetition.
    pub iters_per_rep: u64,
    /// Repetitions measured (after warmup).
    pub reps: usize,
}

/// `p`-th percentile of an ascending-sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times `f` single-threaded: `warmup_iters` untimed calls, then
/// `reps` repetitions of `iters_per_rep` timed calls each.
///
/// # Panics
///
/// Panics when `iters_per_rep` or `reps` is zero.
pub fn measure<F: FnMut()>(
    warmup_iters: u64,
    iters_per_rep: u64,
    reps: usize,
    mut f: F,
) -> Measurement {
    assert!(iters_per_rep > 0, "need at least one call per repetition");
    assert!(reps > 0, "need at least one repetition");
    for _ in 0..warmup_iters {
        f();
    }
    let mut per_call: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters_per_rep {
            f();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / iters_per_rep as f64);
    }
    per_call.sort_by(f64::total_cmp);
    Measurement {
        median_ns: percentile(&per_call, 50.0),
        p5_ns: percentile(&per_call, 5.0),
        p95_ns: percentile(&per_call, 95.0),
        iters_per_rep,
        reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_sane_percentiles() {
        let mut x = 0u64;
        let m = measure(10, 100, 5, || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            std::hint::black_box(x);
        });
        assert!(m.median_ns >= 0.0);
        assert!(m.p5_ns <= m.median_ns);
        assert!(m.median_ns <= m.p95_ns);
        assert_eq!((m.iters_per_rep, m.reps), (100, 5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 5.0), 1.0);
        assert_eq!(percentile(&sorted, 95.0), 4.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
    }
}
