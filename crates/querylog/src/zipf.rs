//! Power-law popularity machinery.
//!
//! Mobile query popularity is extremely head-heavy (Figure 4): a few
//! thousand queries carry most of the volume, with a long diverse tail.
//! We model each sub-population with a *two-segment Zipf* profile: a head
//! of `head_count` items following `1/rank^s_head` that together carry
//! `head_mass` of the probability, and a tail following `1/rank^s_tail`
//! carrying the rest. Pinning the head mass directly is what lets the
//! generator hit the paper's "top 6,000 queries ≈ 60% of volume" style
//! statistics by construction.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of a two-segment Zipf popularity profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoSegmentZipf {
    /// Number of items in the popular head.
    pub head_count: usize,
    /// Probability mass carried by the head, in `(0, 1)`.
    pub head_mass: f64,
    /// Zipf exponent within the head.
    pub s_head: f64,
    /// Zipf exponent within the tail.
    pub s_tail: f64,
}

impl TwoSegmentZipf {
    /// Validates the profile for a population of `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `head_count` is zero or at least `n`, or if `head_mass`
    /// is outside `(0, 1)`.
    pub fn validate(&self, n: usize) {
        assert!(n >= 2, "population must have at least 2 items, got {n}");
        assert!(
            self.head_count > 0 && self.head_count < n,
            "head_count {} must be within [1, {})",
            self.head_count,
            n
        );
        assert!(
            self.head_mass > 0.0 && self.head_mass < 1.0,
            "head_mass {} must be within (0, 1)",
            self.head_mass
        );
    }

    /// Unnormalized-then-normalized weights for a population of `n` items,
    /// ordered from most to least popular. Weights sum to 1.
    pub fn weights(&self, n: usize) -> Vec<f64> {
        self.validate(n);
        let mut w = Vec::with_capacity(n);
        let head_raw: Vec<f64> = (0..self.head_count)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.s_head))
            .collect();
        let tail_raw: Vec<f64> = (0..n - self.head_count)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.s_tail))
            .collect();
        let head_sum: f64 = head_raw.iter().sum();
        let tail_sum: f64 = tail_raw.iter().sum();
        w.extend(head_raw.iter().map(|x| x / head_sum * self.head_mass));
        w.extend(
            tail_raw
                .iter()
                .map(|x| x / tail_sum * (1.0 - self.head_mass)),
        );
        w
    }
}

/// Distributions shorter than this keep no guide table: a binary search
/// over a handful of items (a user's 2–14 item repertoire) is already
/// cheaper than a bucket lookup, and they allocate nothing extra.
const GUIDE_MIN_LEN: usize = 64;

/// Most buckets a guide table holds. A bucket per item at the 209k-pair
/// universe scale buys no speed over this cap and costs ~0.8 MB a sampler.
const GUIDE_MAX_BUCKETS: usize = 4_096;

/// Samples indexes from a fixed discrete distribution.
///
/// Draws invert the cumulative weights. Distributions of at least
/// `GUIDE_MIN_LEN` items also keep a *guide table* (a cut-point index): the
/// weight axis is split into `K ≤ 4,096` equal buckets, and bucket `j`
/// records the first item whose cumulative weight exceeds `j·total/K`. A
/// draw reads its bucket and binary-searches only the items between that
/// cut point and the next — a few items even in a 209k-pair Zipf tail,
/// against 18 halvings for the whole array. The guided search returns
/// exactly the index a full binary search would: it verifies that the
/// bracket encloses the draw and falls back to the full search when
/// rounding (or a run of equal cumulative weights) makes that uncertain.
///
/// # Example
///
/// ```
/// use querylog::zipf::WeightedIndex;
/// use rand::SeedableRng;
///
/// let sampler = WeightedIndex::new(vec![0.7, 0.2, 0.1]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let draw = sampler.sample(&mut rng);
/// assert!(draw < 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    /// `K + 1` cut points: `guide[j]` is the first index whose cumulative
    /// weight exceeds `j·total/K`, and `guide[K]` is `len()`. Empty below
    /// `GUIDE_MIN_LEN` items.
    guide: Vec<u32>,
}

impl WeightedIndex {
    /// Builds a sampler from non-negative weights (not necessarily
    /// normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight {i} must be finite and non-negative, got {w}"
            );
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "weights must not all be zero");
        let guide = guide_table(&cumulative);
        WeightedIndex { cumulative, guide }
    }

    /// Number of items in the distribution.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Total (unnormalized) weight.
    pub fn total(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x: f64 = rng.random::<f64>() * self.total();
        self.locate(x)
    }

    /// Finds the index whose cumulative interval contains `x`: the guided
    /// search when a guide table exists and provably agrees, else
    /// [`Self::locate_full`].
    fn locate(&self, x: f64) -> usize {
        let c = &self.cumulative;
        let buckets = self.guide.len().saturating_sub(1);
        if buckets == 0 {
            return self.locate_full(x);
        }
        let j = ((x / self.total() * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        // The answer (the first index whose cumulative weight exceeds `x`)
        // lies in `[lo, hi]` only if everything before `lo` is `<= x` and
        // the item at `hi` (if any) is `> x`; rounding in the bucket
        // arithmetic can break either, so check rather than trust.
        let le = |v: &f64| v.total_cmp(&x).is_le();
        let encloses = (lo == 0 || le(&c[lo - 1])) && c.get(hi).is_none_or(|v| !le(v));
        if !encloses {
            return self.locate_full(x);
        }
        let p = lo + c[lo..hi].partition_point(le);
        // On a run of equal cumulative weights (zero-weight items),
        // `binary_search_by` may return any member of the run: std picks
        // the last today, which `p` matches, but only the full search is
        // sure to reproduce its pick.
        if p >= 2 && c[p - 2].total_cmp(&x).is_eq() {
            return self.locate_full(x);
        }
        p.min(c.len() - 1)
    }

    /// The unguided search: binary search over every cumulative weight.
    fn locate_full(&self, x: f64) -> usize {
        match self.cumulative.binary_search_by(|c| c.total_cmp(&x)) {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// The cut points of a guide table over `cumulative` (see
/// [`WeightedIndex`]), or nothing for a short distribution.
fn guide_table(cumulative: &[f64]) -> Vec<u32> {
    let n = cumulative.len();
    // Every cut point is at most `n`, so `as u32` below is lossless.
    if !(GUIDE_MIN_LEN..=u32::MAX as usize).contains(&n) {
        return Vec::new();
    }
    let buckets = n.min(GUIDE_MAX_BUCKETS);
    let total = cumulative[n - 1];
    let mut guide = Vec::with_capacity(buckets + 1);
    let mut i = 0;
    for j in 0..buckets {
        let cut = j as f64 * total / buckets as f64;
        while i < n && cumulative[i] <= cut {
            i += 1;
        }
        guide.push(i as u32);
    }
    guide.push(n as u32);
    guide
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weights_sum_to_one_and_pin_head_mass() {
        let profile = TwoSegmentZipf {
            head_count: 100,
            head_mass: 0.6,
            s_head: 0.8,
            s_tail: 0.4,
        };
        let w = profile.weights(10_000);
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let head: f64 = w[..100].iter().sum();
        assert!((head - 0.6).abs() < 1e-9);
    }

    #[test]
    fn weights_are_monotonically_non_increasing_within_segments() {
        let profile = TwoSegmentZipf {
            head_count: 50,
            head_mass: 0.7,
            s_head: 1.0,
            s_tail: 0.5,
        };
        let w = profile.weights(500);
        for seg in [&w[..50], &w[50..]] {
            for pair in seg.windows(2) {
                assert!(pair[0] >= pair[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "head_count")]
    fn head_larger_than_population_is_rejected() {
        TwoSegmentZipf {
            head_count: 10,
            head_mass: 0.5,
            s_head: 1.0,
            s_tail: 1.0,
        }
        .validate(10);
    }

    #[test]
    fn sampler_respects_the_distribution() {
        let sampler = WeightedIndex::new(vec![0.8, 0.1, 0.1]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let p0 = counts[0] as f64 / 20_000.0;
        assert!((p0 - 0.8).abs() < 0.02, "p0 was {p0}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn sample_never_returns_out_of_range() {
        let sampler = WeightedIndex::new(vec![1.0; 5]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert!(sampler.sample(&mut rng) < 5);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_weights_are_rejected() {
        let _ = WeightedIndex::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "all be zero")]
    fn all_zero_weights_are_rejected() {
        let _ = WeightedIndex::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_weights_are_rejected() {
        let _ = WeightedIndex::new(vec![1.0, -0.5]);
    }

    #[test]
    fn short_distributions_keep_no_guide_and_long_ones_cap_it() {
        assert!(WeightedIndex::new(vec![1.0; GUIDE_MIN_LEN - 1])
            .guide
            .is_empty());
        let guided = WeightedIndex::new(vec![1.0; GUIDE_MIN_LEN]);
        assert_eq!(guided.guide.len(), GUIDE_MIN_LEN + 1);
        let capped = WeightedIndex::new(vec![1.0; 3 * GUIDE_MAX_BUCKETS]);
        assert_eq!(capped.guide.len(), GUIDE_MAX_BUCKETS + 1);
        assert_eq!(capped.guide[GUIDE_MAX_BUCKETS] as usize, capped.len());
    }

    #[test]
    fn exact_cut_points_and_equal_runs_match_the_full_search() {
        // Uniform weights put cumulative weights exactly on the guide's
        // cut points, where bucket rounding can pick the wrong bracket;
        // zero weights make runs of equal cumulative weights.
        let uniform = [100, 999, 5_000].map(|n| vec![1.0; n]);
        let zero_runs: Vec<f64> = (0..300)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    1.0 + (i % 7) as f64
                }
            })
            .collect();
        for weights in uniform.into_iter().chain([zero_runs]) {
            let sampler = WeightedIndex::new(weights);
            for &c in &sampler.cumulative {
                for x in [c.next_down(), c, c.next_up()] {
                    assert_eq!(sampler.locate(x), sampler.locate_full(x), "x = {x}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn guided_locate_equals_the_binary_search_oracle(
            len in prop_oneof![
                2usize..GUIDE_MIN_LEN + 16,
                GUIDE_MIN_LEN + 16..2_000,
                GUIDE_MAX_BUCKETS - 64..GUIDE_MAX_BUCKETS + 2_000,
            ],
            head_share in 0.001f64..0.5,
            head_mass in 0.05f64..0.95,
            s_head in 0.3f64..2.5,
            s_tail in 0.05f64..1.5,
            jitter_seed in any::<u64>(),
        ) {
            let profile = TwoSegmentZipf {
                head_count: ((len as f64 * head_share) as usize).clamp(1, len - 1),
                head_mass,
                s_head,
                s_tail,
            };
            let mut rng = StdRng::seed_from_u64(jitter_seed);
            let weights: Vec<f64> = profile
                .weights(len)
                .into_iter()
                .map(|w| w * rng.random_range(0.5..2.0))
                .collect();
            prop_assert!(weights.iter().all(|&w| w > 0.0));
            let sampler = WeightedIndex::new(weights);
            prop_assert_eq!(sampler.guide.is_empty(), len < GUIDE_MIN_LEN);
            let mut probes = vec![0.0, sampler.total()];
            for &c in &sampler.cumulative {
                probes.extend([c.next_down(), c, c.next_up()]);
            }
            for x in probes {
                prop_assert_eq!(sampler.locate(x), sampler.locate_full(x), "x = {}", x);
            }
        }
    }

    #[test]
    fn zipf_head_is_much_hotter_than_tail() {
        let profile = TwoSegmentZipf {
            head_count: 10,
            head_mass: 0.9,
            s_head: 1.0,
            s_tail: 0.1,
        };
        let w = profile.weights(1_000);
        assert!(w[0] > 100.0 * w[999]);
    }
}
