//! Power-over-time traces (Figure 16).
//!
//! Figure 16 of the paper plots whole-device power while serving ten
//! consecutive queries through PocketSearch (~900 mW for ~4 s) versus the
//! 3G radio (~1500 mW for ~40 s). [`PowerTimeline`] records
//! constant-power segments as the device runs and can re-sample them into
//! exactly that kind of trace.

use serde::{Deserialize, Serialize};

use crate::power::Power;
use crate::time::{SimDuration, SimInstant};

/// One constant-power interval of device activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerSegment {
    /// Segment start.
    pub start: SimInstant,
    /// Segment end (exclusive).
    pub end: SimInstant,
    /// Whole-device power during the segment.
    pub power: Power,
}

impl PowerSegment {
    /// Length of the segment.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// An append-only log of [`PowerSegment`]s.
///
/// # Example
///
/// ```
/// use mobsim::power::Power;
/// use mobsim::time::{SimDuration, SimInstant};
/// use mobsim::timeline::PowerTimeline;
///
/// let mut tl = PowerTimeline::new();
/// tl.push(SimInstant::ZERO, SimDuration::from_secs(4), Power::from_milliwatts(900));
/// assert_eq!(tl.busy_time(), SimDuration::from_secs(4));
/// assert_eq!(tl.peak_power(), Some(Power::from_milliwatts(900)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerTimeline {
    segments: Vec<PowerSegment>,
}

impl PowerTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        PowerTimeline::default()
    }

    /// Appends a segment starting at `start` and lasting `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `start` precedes the end of the last recorded segment;
    /// the timeline is strictly chronological.
    pub fn push(&mut self, start: SimInstant, duration: SimDuration, power: Power) {
        if let Some(last) = self.segments.last() {
            assert!(
                start >= last.end,
                "segments must be chronological: new start {start} precedes previous end {}",
                last.end
            );
        }
        self.segments.push(PowerSegment {
            start,
            end: start + duration,
            power,
        });
    }

    /// All recorded segments in order.
    pub fn segments(&self) -> &[PowerSegment] {
        &self.segments
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// End instant of the last segment (simulation start if empty).
    pub fn end(&self) -> SimInstant {
        self.segments.last().map_or(SimInstant::ZERO, |s| s.end)
    }

    /// Sum of recorded (busy) time; gaps between segments are excluded.
    pub fn busy_time(&self) -> SimDuration {
        self.segments.iter().map(PowerSegment::duration).sum()
    }

    /// Samples the trace at a fixed `step`, from start to [`end`](Self::end).
    ///
    /// Instants not covered by any segment report `idle_power`. This is the
    /// series a Figure 16-style plot consumes.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn sample(&self, step: SimDuration, idle_power: Power) -> Vec<(SimInstant, Power)> {
        assert!(step > SimDuration::ZERO, "sample step must be positive");
        let mut out = Vec::new();
        let end = self.end();
        let mut t = SimInstant::ZERO;
        let mut idx = 0;
        while t < end {
            while idx < self.segments.len() && self.segments[idx].end <= t {
                idx += 1;
            }
            let power = match self.segments.get(idx) {
                Some(seg) if seg.start <= t => seg.power,
                _ => idle_power,
            };
            out.push((t, power));
            t += step;
        }
        out
    }

    /// The peak power recorded, if any segment exists.
    pub fn peak_power(&self) -> Option<Power> {
        self.segments.iter().map(|s| s.power).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::Energy;

    fn mw(p: u32) -> Power {
        Power::from_milliwatts(p)
    }

    #[test]
    fn push_and_totals() {
        let mut tl = PowerTimeline::new();
        tl.push(SimInstant::ZERO, SimDuration::from_secs(2), mw(900));
        tl.push(tl.end(), SimDuration::from_secs(1), mw(1_500));
        assert_eq!(tl.busy_time(), SimDuration::from_secs(3));
        let energy: Energy = tl
            .segments()
            .iter()
            .map(|s| s.power.over(s.duration()))
            .sum();
        assert!((energy.joules() - 3.3).abs() < 1e-9);
        assert_eq!(tl.peak_power(), Some(mw(1_500)));
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn overlapping_segments_are_rejected() {
        let mut tl = PowerTimeline::new();
        tl.push(
            SimInstant::from_micros(100),
            SimDuration::from_micros(50),
            mw(1),
        );
        tl.push(
            SimInstant::from_micros(120),
            SimDuration::from_micros(10),
            mw(1),
        );
    }

    #[test]
    fn sample_reports_idle_in_gaps() {
        let mut tl = PowerTimeline::new();
        tl.push(SimInstant::ZERO, SimDuration::from_secs(1), mw(900));
        // One-second gap, then another busy second.
        tl.push(
            SimInstant::from_micros(2_000_000),
            SimDuration::from_secs(1),
            mw(1_500),
        );
        let samples = tl.sample(SimDuration::from_millis(500), mw(100));
        let powers: Vec<u32> = samples.iter().map(|(_, p)| p.milliwatts()).collect();
        assert_eq!(powers, vec![900, 900, 100, 100, 1_500, 1_500]);
    }

    #[test]
    fn empty_timeline_behaviour() {
        let tl = PowerTimeline::new();
        assert!(tl.is_empty());
        assert_eq!(tl.end(), SimInstant::ZERO);
        assert_eq!(tl.peak_power(), None);
        assert!(tl.sample(SimDuration::from_secs(1), mw(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_sampling_panics() {
        let mut tl = PowerTimeline::new();
        tl.push(SimInstant::ZERO, SimDuration::from_secs(1), mw(1));
        let _ = tl.sample(SimDuration::ZERO, mw(0));
    }

    #[test]
    fn segment_energy_is_power_times_duration() {
        let seg = PowerSegment {
            start: SimInstant::ZERO,
            end: SimInstant::from_micros(500_000),
            power: mw(1_000),
        };
        assert!((seg.power.over(seg.duration()).millijoules() - 500.0).abs() < 1e-9);
    }
}
