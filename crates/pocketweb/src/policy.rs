//! The §3.2 refresh policies and the visit-replay study.

use std::collections::HashMap;

use mobsim::time::{SimDuration, SimInstant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cloudlet::PocketWeb;
use crate::world::{PageId, WebWorld};

/// How cached content is kept fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RefreshPolicy {
    /// Only the nightly bulk refresh; dynamic pages go stale during the
    /// day and are re-fetched on access.
    OvernightOnly,
    /// The paper's proposal: subscribe the `k` most frequently revisited
    /// dynamic pages to real-time updates, bulk-refresh the rest nightly.
    RealtimeTopK {
        /// Size of the real-time subscription set ("a couple of tens").
        k: usize,
    },
    /// Strawman: push every cached dynamic page in real time — the "bulk
    /// updates over power hungry and bandwidth limited radio links" the
    /// paper calls inefficient, if not impossible.
    RealtimeAll,
}

impl RefreshPolicy {
    /// Selects the real-time subscription set from the user's access
    /// history (called during the overnight pass).
    pub(crate) fn pick_realtime_set(
        self,
        world: &WebWorld,
        access_counts: &HashMap<PageId, u32>,
        cached: &HashMap<PageId, impl Sized>,
    ) -> std::collections::BTreeSet<PageId> {
        match self {
            RefreshPolicy::OvernightOnly => Default::default(),
            RefreshPolicy::RealtimeAll => cached
                .keys()
                .copied()
                .filter(|&p| world.page(p).dynamic)
                .collect(),
            RefreshPolicy::RealtimeTopK { k } => {
                let mut dynamic: Vec<(PageId, u32)> = access_counts
                    .iter()
                    .filter(|(&p, _)| world.page(p).dynamic && cached.contains_key(&p))
                    .map(|(&p, &c)| (p, c))
                    .collect();
                dynamic.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
                dynamic.into_iter().take(k).map(|(p, _)| p).collect()
            }
        }
    }
}

impl std::fmt::Display for RefreshPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshPolicy::OvernightOnly => write!(f, "overnight only"),
            RefreshPolicy::RealtimeTopK { k } => write!(f, "real-time top-{k}"),
            RefreshPolicy::RealtimeAll => write!(f, "real-time all"),
        }
    }
}

/// Scorecard of one policy over a replayed visit stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyReport {
    /// The policy scored.
    pub policy: RefreshPolicy,
    /// Total visits replayed.
    pub visits: u64,
    /// Fraction of visits served instantly from fresh cache.
    pub instant_rate: f64,
    /// Megabytes fetched over the radio on demand.
    pub on_demand_mb: f64,
    /// Megabytes pushed over the radio by real-time updates.
    pub realtime_mb: f64,
}

/// A multi-day per-user visit stream: `(page, when)` pairs in time order.
pub type VisitStream = Vec<(PageId, SimInstant)>;

/// Generates per-user browsing streams matching the §3.2 statistics:
/// ~70% of visits are revisits to a small personal set of pages, and the
/// repeatedly-revisited pages skew dynamic (people check the news, not
/// last year's blog post).
pub fn synthetic_visits(
    world: &WebWorld,
    users: usize,
    days: u32,
    visits_per_day: u32,
    seed: u64,
) -> Vec<VisitStream> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dynamic: Vec<PageId> = world
        .pages()
        .iter()
        .filter(|p| p.dynamic)
        .map(|p| p.id)
        .collect();
    let all: Vec<PageId> = world.pages().iter().map(|p| p.id).collect();
    assert!(!dynamic.is_empty(), "the §3.2 study needs dynamic pages");

    (0..users)
        .map(|_| {
            // A personal revisit set of "a couple of tens" of pages,
            // two-thirds of them dynamic.
            let set_size = rng.random_range(10..25usize);
            let mut revisit_set = Vec::with_capacity(set_size);
            while revisit_set.len() < set_size {
                let page = if rng.random::<f64>() < 0.66 {
                    dynamic[rng.random_range(0..dynamic.len())]
                } else {
                    all[rng.random_range(0..all.len())]
                };
                if !revisit_set.contains(&page) {
                    revisit_set.push(page);
                }
            }
            let mut stream = Vec::new();
            for day in 0..days {
                for _ in 0..visits_per_day {
                    let page = if rng.random::<f64>() < 0.70 {
                        revisit_set[rng.random_range(0..revisit_set.len())]
                    } else {
                        all[rng.random_range(0..all.len())]
                    };
                    // Daytime visits, spread over 16 waking hours.
                    let second = rng.random_range(0..16 * 3_600u64) + 6 * 3_600;
                    let when =
                        SimInstant::ZERO + SimDuration::from_secs(u64::from(day) * 86_400 + second);
                    stream.push((page, when));
                }
            }
            stream.sort_by_key(|&(_, t)| t);
            stream
        })
        .collect()
}

/// Replays one user's visit stream under a policy, running the overnight
/// pass between days, and reports freshness vs radio cost.
pub fn replay_visits(
    world: &WebWorld,
    policy: RefreshPolicy,
    stream: &[(PageId, SimInstant)],
) -> PolicyReport {
    let mut web = PocketWeb::new(world, policy);
    let mut current_day = u64::MAX;
    for &(page, when) in stream {
        let day = when.as_micros() / 86_400_000_000;
        if day != current_day {
            // The phone charged overnight: bulk refresh + set re-pick.
            web.overnight_refresh(world, when);
            current_day = day;
        }
        web.visit(world, page, when);
    }
    let stats = web.stats();
    PolicyReport {
        policy,
        visits: stats.visits(),
        instant_rate: stats.instant_rate(),
        on_demand_mb: stats.on_demand_bytes as f64 / 1e6,
        realtime_mb: stats.realtime_bytes as f64 / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn study() -> (WebWorld, Vec<VisitStream>) {
        let world = WebWorld::generate(WorldConfig::test_scale(), 8);
        let streams = synthetic_visits(&world, 12, 7, 20, 8);
        (world, streams)
    }

    fn average(world: &WebWorld, policy: RefreshPolicy, streams: &[VisitStream]) -> PolicyReport {
        let reports: Vec<PolicyReport> = streams
            .iter()
            .map(|s| replay_visits(world, policy, s))
            .collect();
        let n = reports.len() as f64;
        PolicyReport {
            policy,
            visits: reports.iter().map(|r| r.visits).sum(),
            instant_rate: reports.iter().map(|r| r.instant_rate).sum::<f64>() / n,
            on_demand_mb: reports.iter().map(|r| r.on_demand_mb).sum::<f64>() / n,
            realtime_mb: reports.iter().map(|r| r.realtime_mb).sum::<f64>() / n,
        }
    }

    #[test]
    fn topk_recovers_most_of_realtime_alls_freshness_cheaply() {
        let (world, streams) = study();
        let overnight = average(&world, RefreshPolicy::OvernightOnly, &streams);
        // k must sit clearly below the users' cached-dynamic page counts
        // (roughly 15-25 here): at k=20 the top-K set can equal the full
        // subscription set for some generator seeds, making the "fewer
        // pushed bytes" comparison a coin flip.
        let topk = average(&world, RefreshPolicy::RealtimeTopK { k: 10 }, &streams);
        let all = average(&world, RefreshPolicy::RealtimeAll, &streams);

        // Freshness ordering: overnight < top-K <= all.
        assert!(
            topk.instant_rate > overnight.instant_rate + 0.1,
            "top-K {:.2} should clearly beat overnight {:.2}",
            topk.instant_rate,
            overnight.instant_rate
        );
        assert!(all.instant_rate >= topk.instant_rate - 0.02);

        // Top-K captures most of the freshness gain at far lower push cost.
        let gain_ratio = (topk.instant_rate - overnight.instant_rate)
            / (all.instant_rate - overnight.instant_rate).max(1e-9);
        assert!(
            gain_ratio > 0.8,
            "top-K recovered only {gain_ratio:.2} of the gain"
        );
        assert!(
            all.realtime_mb > topk.realtime_mb,
            "subscribing everything must push more bytes"
        );
    }

    #[test]
    fn visit_streams_are_mostly_revisits() {
        let (_, streams) = study();
        for stream in &streams {
            let mut seen = std::collections::HashSet::new();
            let mut revisits = 0;
            for (page, _) in stream {
                if !seen.insert(*page) {
                    revisits += 1;
                }
            }
            let rate = revisits as f64 / stream.len() as f64;
            assert!(rate > 0.5, "revisit rate was only {rate:.2}");
        }
    }

    #[test]
    fn reports_account_all_visits() {
        let (world, streams) = study();
        let r = replay_visits(&world, RefreshPolicy::RealtimeTopK { k: 10 }, &streams[0]);
        assert_eq!(r.visits as usize, streams[0].len());
        assert!(r.realtime_mb >= 0.0);
        assert!((0.0..=1.0).contains(&r.instant_rate));
    }

    #[test]
    fn overnight_only_never_pushes() {
        let (world, streams) = study();
        let r = replay_visits(&world, RefreshPolicy::OvernightOnly, &streams[0]);
        assert_eq!(r.realtime_mb, 0.0);
    }
}
