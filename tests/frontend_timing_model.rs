//! A reference model of the front-end's timing rules, written as plain
//! per-request code and checked against `Frontend::serve_batch`.
//!
//! `tests/frontend_property.rs` pins one seeded batch's times into a
//! digest; a digest says that some time moved, not which time is right.
//! The model below spells the rules out one request at a time: routing,
//! coalescing onto the first answered request of a key in its window,
//! the `READ_WORKERS`-wide read pool for fast-path hits, one exclusive
//! FIFO server per lane, `Reject` admission against the serves still
//! in flight, followers completing at `max(arrival, leader end)`, then
//! queue waits, makespan and nearest-rank percentiles. Lanes are toys
//! whose answers and service times are functions of the key, so the
//! model knows every outcome without asking the front-end.

use proptest::prelude::*;

use pocket_cloudlets::core::frontend::{
    FrontServed, Frontend, FrontendConfig, FrontendReport, HitPathMode, LaneTotals, OverflowPolicy,
    RouteBy, ServeRequest,
};
use pocket_cloudlets::core::service::{CloudletError, CloudletService, ServeKind, ServeOutcome};
use pocket_cloudlets::mobsim::time::{SimDuration, SimInstant};

/// Width of the shared-read worker pool.
const READ_WORKERS: usize = 4;

/// The toy lanes' rules: keys `≡ 5 (mod 11)` are typed errors, keys
/// `≡ 0 (mod 4)` hit, the rest miss. Service times are key-dependent
/// multiples of a per-case unit.
#[derive(Debug, Clone, Copy)]
struct Toy {
    hit_unit: u64,
    miss_unit: u64,
}

impl Toy {
    fn answer(self, key: u64) -> Result<ServeOutcome, CloudletError> {
        if key % 11 == 5 {
            Err(CloudletError::UnknownKey { key })
        } else if key.is_multiple_of(4) {
            let service = SimDuration::from_micros(self.hit_unit * (1 + key % 7));
            Ok(ServeOutcome::hit().with_service(service))
        } else {
            let service = SimDuration::from_micros(self.miss_unit * (1 + key % 13));
            Ok(ServeOutcome::miss(100 + key % 900).with_service(service))
        }
    }

    fn hits(self, key: u64) -> Option<ServeOutcome> {
        self.answer(key).ok().filter(|o| o.kind == ServeKind::Hit)
    }
}

struct ToyLane(Toy);

impl CloudletService for ToyLane {
    fn name(&self) -> &'static str {
        "toy"
    }

    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
        self.0.answer(request.key)
    }

    fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
        self.0.hits(request.key)
    }

    fn cache_bytes(&self) -> u64 {
        0
    }
}

/// The nearest-rank `pct`th percentile of sorted micros.
fn nearest_rank(sorted: &[u64], pct: usize) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    SimDuration::from_micros(sorted[rank - 1])
}

/// What `serve_batch` must return for `requests` on a front-end of toy
/// lanes with `groups[i]` lanes in service group `i`.
fn model(
    config: FrontendConfig,
    groups: &[usize],
    toy: Toy,
    requests: &[ServeRequest],
) -> (Vec<FrontServed>, FrontendReport) {
    let lanes: usize = groups.iter().sum();
    let first_lane: Vec<usize> = groups
        .iter()
        .scan(0, |next, &len| {
            let first = *next;
            *next += len;
            Some(first)
        })
        .collect();
    // When each lane's exclusive server frees up, and the completion
    // instant of every exclusive serve it ran.
    let mut lane_free = vec![SimInstant::ZERO; lanes];
    let mut lane_done: Vec<Vec<SimInstant>> = vec![Vec::new(); lanes];
    let mut pool = [SimInstant::ZERO; READ_WORKERS];
    let shared_read = config.hit_path == HitPathMode::SharedRead;
    let mut served: Vec<FrontServed> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let t = r.at;
        let group = r.service as usize;
        let selector = match config.route_by {
            RouteBy::Key => r.key,
            RouteBy::User => r.user,
        };
        let home = first_lane[group] + (selector % groups[group] as u64) as usize;
        let window_start = match config.coalesce_window {
            usize::MAX => 0,
            w => i / w * w,
        };
        // The leader is the first answered, non-follower request for the
        // same key in this window.
        let leader = (window_start..i).find(|&j| {
            config.coalescing
                && (requests[j].service, requests[j].key) == (r.service, r.key)
                && !served[j].coalesced
                && served[j].outcome.is_ok()
        });
        // A request completes at arrival unless a rule below says when.
        let mut s = FrontServed {
            outcome: toy.answer(r.key),
            lane: home,
            coalesced: false,
            fast_path: false,
            queue_wait: SimDuration::ZERO,
            completed_at: t,
        };
        let in_flight = lane_done[home].iter().filter(|&&d| d > t).count();
        let start = if let Some(j) = leader {
            s.outcome = served[j].outcome.clone();
            s.lane = served[j].lane;
            s.coalesced = true;
            s.completed_at = served[j].completed_at.max(t);
            s.completed_at
        } else if let Some(hit) = toy.hits(r.key).filter(|_| shared_read) {
            let mut worker = 0;
            for w in 1..READ_WORKERS {
                if pool[w] < pool[worker] {
                    worker = w;
                }
            }
            let start = pool[worker].max(t);
            pool[worker] = start + hit.service;
            s.fast_path = true;
            s.completed_at = pool[worker];
            start
        } else if config.overflow == OverflowPolicy::Reject && in_flight >= config.queue_depth {
            s.outcome = Err(CloudletError::QueueFull {
                lane: home,
                depth: config.queue_depth,
            });
            t
        } else if let Ok(o) = &s.outcome {
            let start = lane_free[home].max(t);
            s.completed_at = start + o.service;
            lane_free[home] = s.completed_at;
            lane_done[home].push(s.completed_at);
            start
        } else {
            t
        };
        s.queue_wait = start.saturating_duration_since(t);
        served.push(s);
    }

    let mut totals = vec![LaneTotals::default(); lanes];
    let mut waits = Vec::new();
    let mut last = SimInstant::ZERO;
    for s in &served {
        let lane = &mut totals[s.lane];
        lane.events += 1;
        match &s.outcome {
            Err(CloudletError::QueueFull { .. }) => lane.rejected += 1,
            Err(_) => lane.errors += 1,
            Ok(o) => {
                match o.kind {
                    ServeKind::Hit => lane.hits += 1,
                    _ => lane.misses += 1,
                }
                if s.coalesced {
                    lane.coalesced += 1;
                } else {
                    lane.radio_bytes += o.radio_bytes;
                    lane.busy += o.service;
                }
                waits.push(s.queue_wait.as_micros());
                last = last.max(s.completed_at);
            }
        }
    }
    waits.sort_unstable();
    let first = requests
        .iter()
        .map(|r| r.at)
        .min()
        .unwrap_or(SimInstant::ZERO);
    let report = FrontendReport {
        lanes: totals,
        makespan: last.saturating_duration_since(first),
        queue_wait_p50: nearest_rank(&waits, 50),
        queue_wait_p99: nearest_rank(&waits, 99),
        queue_wait_max: SimDuration::from_micros(waits.last().copied().unwrap_or(0)),
    };
    (served, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every disposition and every report field of a random batch on
    /// random toy lanes under a random configuration equals the model's.
    #[test]
    fn serve_batch_matches_the_reference_timing_model(
        groups in proptest::collection::vec(1usize..=4, 1..3),
        raw in proptest::collection::vec((0u64..16, any::<u64>(), any::<u64>(), any::<u64>()), 0..401),
        key_space in prop_oneof![Just(4u64), Just(40), Just(1 << 20)],
        max_gap in prop_oneof![Just(0u64), Just(10), Just(1_000), Just(100_000), Just(10_000_000)],
        (hit_unit, miss_unit) in (prop_oneof![Just(0u64), 1u64..2_000], 1u64..200_000),
        (depth, window) in (1usize..=6, prop_oneof![Just(usize::MAX), 1usize..=8]),
        flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let (coalescing, shared_read, reject, by_user) = flags;
        let config = FrontendConfig::builder()
            .queue_depth(depth)
            .coalescing(coalescing)
            .coalesce_window(window)
            .hit_path(if shared_read { HitPathMode::SharedRead } else { HitPathMode::Exclusive })
            .overflow(if reject { OverflowPolicy::Reject } else { OverflowPolicy::Park })
            .route_by(if by_user { RouteBy::User } else { RouteBy::Key })
            .build();
        let toy = Toy { hit_unit, miss_unit };
        let mut at = 0;
        let requests: Vec<ServeRequest> = raw
            .iter()
            .map(|&(user, service, key, gap)| {
                at += gap % (max_gap + 1);
                let service = (service % groups.len() as u64) as u32;
                ServeRequest::new(user, service, key % key_space, SimInstant::from_micros(at))
            })
            .collect();
        let lanes = groups
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| Box::new(ToyLane(toy)) as Box<dyn CloudletService + Send + Sync>)
                    .collect()
            })
            .collect();
        let batch = Frontend::new(lanes, config)
            .serve_batch(&requests)
            .expect("every service group exists");
        let (served, report) = model(config, &groups, toy, &requests);
        for (i, (got, want)) in batch.served.iter().zip(&served).enumerate() {
            prop_assert_eq!(got, want, "request {} of {:?}", i, config);
        }
        prop_assert_eq!(batch.served.len(), served.len());
        prop_assert_eq!(&batch.report, &report, "{:?}", config);
    }
}
