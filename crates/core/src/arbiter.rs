//! Adaptive budget arbitration: the §7 arbiter closed over live
//! telemetry.
//!
//! [`crate::coordination::CloudletBudgets`] divides one index budget by
//! *static* priorities. The front-end ([`crate::frontend`]) already
//! measures what each cloudlet is actually doing — one [`LaneTotals`]
//! per lane, fast-path hits included — so this module closes
//! the loop the paper's §5.1/§7 argue for: cache capacity follows
//! observed access value. An [`AdaptiveArbiter`] periodically folds each
//! lane's telemetry into a scalar **utility**, smooths it, turns the
//! smoothed utilities into water-filling priorities, asks every cloudlet
//! for its demand through the redesigned
//! [`CloudletService::budget_demand`](crate::service::CloudletService::budget_demand)
//! (which now receives a [`DemandContext`] instead of a bare priority),
//! and re-runs the §7 allocation.
//!
//! # The utility signal
//!
//! For one epoch's *delta* telemetry, with `served = events − rejected −
//! errors`, `attempted = served − skipped` and `unique = attempted −
//! coalesced`:
//!
//! ```text
//! utility = unique                                   demand pressure
//!         × (UTILITY_EPS + local_rate)               observed hit yield
//!         × (1 + rejected / events)                  queue pressure (sheds)
//!         × (1 + radio_per_unique / fleet_max)       radio spend a bigger
//!                                                    cache could reclaim
//!         × (1 + peer_hits / attempted)              peer-serve yield: demand
//!                                                    the cell is absorbing
//! ```
//!
//! The peer-yield factor is the cooperative tier's demand signal: a
//! lane whose misses are being absorbed by cell peers
//! ([`crate::peer::PeerFabric`]) is traffic the *cell* finds valuable,
//! so its bid for local bytes rises — every peer-served key is one this
//! lane could hit locally with more capacity. A lane with zero peer
//! hits multiplies by exactly `1.0`, so fleets without a fabric (or
//! with solo cells) reproduce the pre-peer utilities bit for bit.
//!
//! `UTILITY_EPS` keeps a lane with traffic but no hits (a cold cache)
//! from reading as worthless — traffic is exactly the signal that bytes
//! are wanted. Lanes with identical telemetry get *identical* utilities,
//! which the priority normalisation below turns into exactly `1.0`
//! each, reproducing the equal-priority allocation bit for bit (the
//! regression anchor `tests/arbiter_property.rs` pins).
//!
//! # Smoothing, hysteresis, and the starvation floor
//!
//! * **EWMA:** `ewma ← α·utility + (1−α)·ewma` (first observation seeds
//!   it), so one bursty epoch cannot swing the split.
//! * **Priorities:** `p_i = max(PRIORITY_FLOOR, ewma_i / max_j ewma_j)`
//!   — the hottest lane anchors at 1.0; an all-idle fleet falls back to
//!   equal priorities.
//! * **Hysteresis:** if no priority moved by more than
//!   [`ArbiterConfig::hysteresis`] since the last epoch, the previous
//!   priorities are reused and the decision is marked *held*, so
//!   allocations don't thrash on noise.
//! * **Floor:** after water-filling, every cloudlet is topped up to
//!   `min(demand, min_share · total)` whenever the floors are jointly
//!   feasible, the deficit taken from the richest-surplus grantees
//!   first (deterministic tie-break on [`CloudletId`]). No cloudlet
//!   starves while it still demands bytes.
//!
//! # Epoch schedule
//!
//! Everything runs in simulated time. [`AdaptiveArbiter::epoch_due`]
//! compares a [`SimInstant`] against the next epoch boundary
//! (multiples of [`ArbiterConfig::epoch_length`]), and
//! [`Frontend::arbitrate`](crate::frontend::Frontend::arbitrate) calls
//! it from the batch loop, so re-arbitration points are a pure function
//! of the request stream — bit-reproducible, never wall-clock.

use std::collections::BTreeMap;

use mobsim::time::{SimDuration, SimInstant};

use crate::coordination::{BudgetDemand, CloudletBudgets, CloudletId};
use crate::frontend::LaneTotals;

/// Additive hit-yield smoothing: a lane with traffic but zero hits
/// still registers this much yield per unique attempt, so cold caches
/// keep bidding for the bytes that would warm them.
pub const UTILITY_EPS: f64 = 0.05;

/// Smallest priority the arbiter ever hands to the water-filler, which
/// requires strictly positive weights.
pub const PRIORITY_FLOOR: f64 = 1e-6;

/// Everything a cloudlet may consult when asked for its budget demand.
///
/// This replaces the old `budget_demand(&self, CloudletId, priority:
/// f64)` surface: the arbiter's priority still arrives (in
/// [`DemandContext::priority`]), but the cloudlet now also sees *which
/// epoch* is being arbitrated and *its own* telemetry for that epoch,
/// so demand can shrink when the lane is idle or a consultation-style
/// cloudlet (ads) can dampen its own priority when it is mostly
/// skipped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandContext {
    /// Arbitration epoch this demand is for (0 for one-shot static
    /// allocations outside any arbiter).
    pub epoch: u64,
    /// The arbiter's utility-derived priority for this cloudlet. A
    /// cloudlet that has no better signal passes it through unchanged.
    pub priority: f64,
    /// This lane's front-end telemetry for the epoch (zeroed for a
    /// static allocation outside any front-end).
    pub totals: LaneTotals,
}

impl DemandContext {
    // api-ok: pipeline-bench's `Traced` forwarding test asks for a
    // demand under it; the cloudlets' unit tests build static contexts.
    /// The static, telemetry-free context: priority 1.0 for everyone,
    /// for one-shot allocations made outside an adaptive arbiter.
    pub fn equal_priority(epoch: u64) -> Self {
        DemandContext {
            epoch,
            priority: 1.0,
            totals: LaneTotals::default(),
        }
    }

    /// Whether any traffic was actually observed in this context. A
    /// static allocation (zeroed telemetry) returns `false`, which is
    /// how demand hooks distinguish "idle lane" from "no telemetry".
    pub fn observed(&self) -> bool {
        self.totals.events > 0
    }
}

/// Configuration of the adaptive arbiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterConfig {
    /// The shared index budget being divided, in bytes.
    pub total_bytes: usize,
    /// Simulated time between re-arbitrations; epoch `k` becomes due at
    /// `k · epoch_length`.
    pub epoch_length: SimDuration,
    /// EWMA weight on the newest epoch's utility, in `(0, 1]`. `1.0`
    /// disables smoothing.
    pub alpha: f64,
    /// Per-cloudlet starvation floor as a fraction of `total_bytes`, in
    /// `[0, 1]`. Each cloudlet is guaranteed `min(demand, min_share ·
    /// total)` whenever those floors are jointly feasible. Keep it at
    /// or below `1/n` for `n` cloudlets or the floors may override the
    /// priority split even for uniform telemetry.
    pub min_share: f64,
    /// Maximum absolute priority drift (priorities live in `(0, 1]`)
    /// that is *held* rather than adopted. `0.0` still holds exactly
    /// unchanged priorities; larger values trade responsiveness for
    /// stability.
    pub hysteresis: f64,
}

impl ArbiterConfig {
    /// Defaults: 60 s epochs, `α = 0.5`, a 5% starvation floor, and a
    /// 2% hysteresis band.
    pub fn new(total_bytes: usize) -> Self {
        ArbiterConfig {
            total_bytes,
            epoch_length: SimDuration::from_secs(60),
            alpha: 0.5,
            min_share: 0.05,
            hysteresis: 0.02,
        }
    }

    /// Replaces the epoch length.
    #[must_use]
    pub fn with_epoch_length(mut self, epoch_length: SimDuration) -> Self {
        self.epoch_length = epoch_length;
        self
    }

    fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0 && self.alpha.is_finite(),
            "alpha must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.min_share) && self.min_share.is_finite(),
            "min_share must be in [0, 1]"
        );
        assert!(
            self.hysteresis >= 0.0 && self.hysteresis.is_finite(),
            "hysteresis must be non-negative"
        );
        assert!(
            self.epoch_length > SimDuration::ZERO,
            "epoch length must be positive"
        );
    }
}

/// One lane's telemetry for one epoch, as *deltas* over that epoch
/// (not cumulative-since-construction counters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochObservation {
    /// The cloudlet the telemetry belongs to.
    pub cloudlet: CloudletId,
    /// Front-end lane totals for the epoch.
    pub totals: LaneTotals,
}

impl EpochObservation {
    /// Wraps one lane's epoch telemetry.
    pub fn new(cloudlet: CloudletId, totals: LaneTotals) -> Self {
        EpochObservation { cloudlet, totals }
    }

    /// A lane that saw no traffic this epoch.
    pub fn idle(cloudlet: CloudletId) -> Self {
        EpochObservation::new(cloudlet, LaneTotals::default())
    }
}

/// One cloudlet's row in a [`BudgetDecision`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEntry {
    /// The cloudlet.
    pub cloudlet: CloudletId,
    /// Unique attempted requests observed this epoch (after removing
    /// sheds, errors, skips, and coalesced followers).
    pub unique_attempted: u64,
    /// Locally-served rate (hits + stale hits over attempted).
    pub local_rate: f64,
    /// Fraction of the lane's events shed with `QueueFull`.
    pub shed_ratio: f64,
    /// Fraction of attempted requests a cooperative cell peer answered
    /// — the peer-serve yield that raised this lane's bid.
    pub peer_rate: f64,
    /// This epoch's raw (pre-EWMA) utility.
    pub raw_utility: f64,
    /// The smoothed utility the priority was derived from.
    pub utility: f64,
    /// The priority handed to the water-filler (after any dampening by
    /// the cloudlet's own demand hook).
    pub priority: f64,
    /// Bytes the cloudlet asked for.
    pub demand_bytes: usize,
    /// The starvation floor applied to this cloudlet,
    /// `min(demand, min_share · total)`.
    pub floor_bytes: usize,
    /// Bytes granted.
    pub granted: usize,
    /// Human-readable explanation of the row.
    pub reason: String,
}

/// One epoch's allocation, with the signals that produced it. The
/// arbiter keeps every decision in an append-only log
/// ([`AdaptiveArbiter::decisions`]) so ablations and operators can
/// replay *why* capacity moved.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetDecision {
    /// Which arbitration epoch this is (1-based).
    pub epoch: u64,
    /// Simulated instant the decision was taken.
    pub at: SimInstant,
    /// The budget that was divided.
    pub total_bytes: usize,
    /// Whether hysteresis held the previous priorities.
    pub held: bool,
    /// Per-cloudlet rows, sorted by [`CloudletId`].
    pub entries: Vec<DecisionEntry>,
}

impl BudgetDecision {
    /// The allocation as a map, for callers that only want the grants.
    pub fn allocations(&self) -> BTreeMap<CloudletId, usize> {
        self.entries
            .iter()
            .map(|e| (e.cloudlet, e.granted))
            .collect()
    }

    /// Bytes granted to `cloudlet`, if it was part of this decision.
    pub fn granted(&self, cloudlet: CloudletId) -> Option<usize> {
        self.entries
            .iter()
            .find(|e| e.cloudlet == cloudlet)
            .map(|e| e.granted)
    }
}

/// Per-lane derived signal, internal to one `run_epoch` call.
struct Signal {
    unique_attempted: u64,
    local_rate: f64,
    shed_ratio: f64,
    radio_per_unique: f64,
    peer_rate: f64,
}

impl Signal {
    fn measure(obs: &EpochObservation) -> Self {
        let t = obs.totals;
        let attempted = t.attempted();
        let unique = attempted.saturating_sub(t.coalesced);
        let local = t.hits + t.stale_hits;
        let local_rate = if attempted == 0 {
            0.0
        } else {
            local as f64 / attempted as f64
        };
        let shed_ratio = if t.events == 0 {
            0.0
        } else {
            t.rejected as f64 / t.events as f64
        };
        let radio_per_unique = if unique == 0 {
            0.0
        } else {
            t.radio_bytes as f64 / unique as f64
        };
        let peer_rate = if attempted == 0 {
            0.0
        } else {
            t.peer_hits as f64 / attempted as f64
        };
        Signal {
            unique_attempted: unique,
            local_rate,
            shed_ratio,
            radio_per_unique,
            peer_rate,
        }
    }

    fn raw_utility(&self, fleet_max_radio_per_unique: f64) -> f64 {
        let radio_norm = if fleet_max_radio_per_unique > 0.0 {
            self.radio_per_unique / fleet_max_radio_per_unique
        } else {
            0.0
        };
        // `1.0 + 0.0` is exact, so peer-free lanes reproduce the
        // pre-peer utility bit for bit.
        self.unique_attempted as f64
            * (UTILITY_EPS + self.local_rate)
            * (1.0 + self.shed_ratio)
            * (1.0 + radio_norm)
            * (1.0 + self.peer_rate)
    }
}

/// The §7 feedback controller. See the module docs for the model.
#[derive(Debug)]
pub struct AdaptiveArbiter {
    config: ArbiterConfig,
    epoch: u64,
    next_epoch_at: SimInstant,
    ewma: BTreeMap<CloudletId, f64>,
    last_priorities: BTreeMap<CloudletId, f64>,
    cumulative: BTreeMap<CloudletId, LaneTotals>,
    decisions: Vec<BudgetDecision>,
}

impl AdaptiveArbiter {
    /// Builds an arbiter.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (`alpha` outside
    /// `(0, 1]`, `min_share` outside `[0, 1]`, negative hysteresis, or
    /// a zero epoch length).
    pub fn new(config: ArbiterConfig) -> Self {
        config.validate();
        AdaptiveArbiter {
            config,
            epoch: 0,
            next_epoch_at: SimInstant::ZERO + config.epoch_length,
            ewma: BTreeMap::new(),
            last_priorities: BTreeMap::new(),
            cumulative: BTreeMap::new(),
            decisions: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    // api-ok: tests/arbiter_property.rs::shifting_workload_shrinks_then_recovers
    // checks that every epoch is logged.
    /// The append-only decision log, oldest first.
    pub fn decisions(&self) -> &[BudgetDecision] {
        &self.decisions
    }

    /// Whether the next epoch boundary has been reached at simulated
    /// instant `now`. Boundaries sit at multiples of
    /// [`ArbiterConfig::epoch_length`]; running an epoch advances the
    /// next boundary past its `at` instant.
    pub fn epoch_due(&self, now: SimInstant) -> bool {
        now >= self.next_epoch_at
    }

    /// Feeds *cumulative* telemetry snapshots (counters since lane
    /// construction, e.g. from
    /// [`Frontend::telemetry`](crate::frontend::Frontend::telemetry))
    /// and arbitrates on the per-epoch deltas, remembering the
    /// snapshots for the next call. A cloudlet seen for the first time
    /// contributes its whole snapshot as the first delta.
    pub fn observe_cumulative<F>(
        &mut self,
        at: SimInstant,
        lanes: &[EpochObservation],
        demand_of: F,
    ) -> BudgetDecision
    where
        F: FnMut(CloudletId, &DemandContext) -> BudgetDemand,
    {
        let deltas: Vec<EpochObservation> = lanes
            .iter()
            .map(|o| match self.cumulative.get(&o.cloudlet) {
                Some(earlier) => EpochObservation::new(o.cloudlet, o.totals.delta_since(earlier)),
                None => *o,
            })
            .collect();
        for o in lanes {
            self.cumulative.insert(o.cloudlet, o.totals);
        }
        self.run_epoch(at, &deltas, demand_of)
    }

    /// Runs one arbitration epoch over per-epoch *delta* telemetry:
    /// derives utilities, smooths them, applies hysteresis, collects
    /// each cloudlet's demand through `demand_of` (handed a
    /// [`DemandContext`] with the lane's telemetry and the derived
    /// priority), water-fills, enforces the starvation floor, and
    /// appends the [`BudgetDecision`] to the log.
    ///
    /// A demand hook returning a non-positive or non-finite priority is
    /// clamped to [`PRIORITY_FLOOR`]; its `cloudlet` field is forced to
    /// the observed lane's id so a buggy hook cannot corrupt the map.
    ///
    /// # Panics
    ///
    /// Panics when `observations` names the same cloudlet twice.
    pub fn run_epoch<F>(
        &mut self,
        at: SimInstant,
        observations: &[EpochObservation],
        mut demand_of: F,
    ) -> BudgetDecision
    where
        F: FnMut(CloudletId, &DemandContext) -> BudgetDemand,
    {
        for (i, a) in observations.iter().enumerate() {
            assert!(
                !observations[..i].iter().any(|b| b.cloudlet == a.cloudlet),
                "{} observed twice in one epoch",
                a.cloudlet
            );
        }
        self.epoch += 1;
        while self.next_epoch_at <= at {
            self.next_epoch_at += self.config.epoch_length;
        }

        // Signals and smoothed utilities.
        let signals: Vec<Signal> = observations.iter().map(Signal::measure).collect();
        let fleet_max_radio = signals
            .iter()
            .map(|s| s.radio_per_unique)
            .fold(0.0, f64::max);
        let raws: Vec<f64> = signals
            .iter()
            .map(|s| s.raw_utility(fleet_max_radio))
            .collect();
        let utilities: Vec<f64> = observations
            .iter()
            .zip(&raws)
            .map(|(o, &raw)| {
                let smoothed = match self.ewma.get(&o.cloudlet) {
                    Some(prev) => self.config.alpha * raw + (1.0 - self.config.alpha) * prev,
                    None => raw,
                };
                self.ewma.insert(o.cloudlet, smoothed);
                smoothed
            })
            .collect();

        // Priorities: normalise by the hottest lane; an all-idle fleet
        // degenerates to equal priorities. Identical utilities divide
        // to exactly 1.0, which is the bit-identical uniform anchor.
        let max_utility = utilities.iter().fold(0.0, |a: f64, &b| a.max(b));
        let fresh: Vec<f64> = if max_utility > 0.0 {
            utilities
                .iter()
                .map(|&u| (u / max_utility).max(PRIORITY_FLOOR))
                .collect()
        } else {
            vec![1.0; observations.len()]
        };

        // Hysteresis: hold the previous priorities while nothing moved
        // beyond the band (and the cloudlet set is unchanged).
        let same_set = self.last_priorities.len() == observations.len()
            && observations
                .iter()
                .all(|o| self.last_priorities.contains_key(&o.cloudlet));
        let held = same_set
            && observations.iter().zip(&fresh).all(|(o, &p)| {
                (p - self.last_priorities[&o.cloudlet]).abs() <= self.config.hysteresis
            });
        let priorities: Vec<f64> = if held {
            observations
                .iter()
                .map(|o| self.last_priorities[&o.cloudlet])
                .collect()
        } else {
            self.last_priorities = observations
                .iter()
                .zip(&fresh)
                .map(|(o, &p)| (o.cloudlet, p))
                .collect();
            fresh
        };

        // Demands, through each cloudlet's own hook.
        let demands: Vec<BudgetDemand> = observations
            .iter()
            .zip(&priorities)
            .map(|(o, &priority)| {
                let ctx = DemandContext {
                    epoch: self.epoch,
                    priority,
                    totals: o.totals,
                };
                let mut d = demand_of(o.cloudlet, &ctx);
                d.cloudlet = o.cloudlet;
                if !(d.priority.is_finite() && d.priority > 0.0) {
                    d.priority = PRIORITY_FLOOR;
                }
                d
            })
            .collect();

        // Water-fill, then enforce the starvation floor.
        let mut budgets = CloudletBudgets::new(self.config.total_bytes);
        for d in &demands {
            budgets.set_demand(*d);
        }
        let mut granted = budgets.allocate();
        let floor_target = (self.config.min_share * self.config.total_bytes as f64) as usize;
        let floors: BTreeMap<CloudletId, usize> = demands
            .iter()
            .map(|d| (d.cloudlet, d.demand_bytes.min(floor_target)))
            .collect();
        let pre_floor = granted.clone();
        if floors.values().sum::<usize>() <= self.config.total_bytes {
            enforce_floors(&mut granted, &floors);
        }

        let mut entries: Vec<DecisionEntry> = observations
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let demand = &demands[i];
                let grant = granted[&o.cloudlet];
                let floor = floors[&o.cloudlet];
                let mut reason = format!(
                    "utility {:.4} (unique {}, local {:.3}, shed {:.3}, peer {:.3}) -> priority {:.4}",
                    utilities[i],
                    signals[i].unique_attempted,
                    signals[i].local_rate,
                    signals[i].shed_ratio,
                    signals[i].peer_rate,
                    demand.priority,
                );
                if held {
                    reason.push_str("; held by hysteresis");
                }
                match grant.cmp(&pre_floor[&o.cloudlet]) {
                    std::cmp::Ordering::Greater => {
                        reason.push_str("; raised to the min-share floor")
                    }
                    std::cmp::Ordering::Less => reason.push_str("; donated to starved lanes"),
                    std::cmp::Ordering::Equal => {}
                }
                DecisionEntry {
                    cloudlet: o.cloudlet,
                    unique_attempted: signals[i].unique_attempted,
                    local_rate: signals[i].local_rate,
                    shed_ratio: signals[i].shed_ratio,
                    peer_rate: signals[i].peer_rate,
                    raw_utility: raws[i],
                    utility: utilities[i],
                    priority: demand.priority,
                    demand_bytes: demand.demand_bytes,
                    floor_bytes: floor,
                    granted: grant,
                    reason,
                }
            })
            .collect();
        entries.sort_by_key(|e| e.cloudlet);

        let decision = BudgetDecision {
            epoch: self.epoch,
            at,
            total_bytes: self.config.total_bytes,
            held,
            entries,
        };
        self.decisions.push(decision.clone());
        decision
    }
}

/// Raises every under-floor grant to its floor, taking the deficit from
/// the richest-surplus grantees first (ties broken by [`CloudletId`]).
/// The caller guarantees joint feasibility (`Σ floors ≤ total`), which
/// together with `floor ≤ demand` makes the donor surplus always cover
/// the deficit.
fn enforce_floors(granted: &mut BTreeMap<CloudletId, usize>, floors: &BTreeMap<CloudletId, usize>) {
    let mut deficit = 0usize;
    for (id, &floor) in floors {
        let Some(g) = granted.get_mut(id) else {
            continue;
        };
        if *g < floor {
            deficit += floor - *g;
            *g = floor;
        }
    }
    if deficit == 0 {
        return;
    }
    let mut donors: Vec<(usize, CloudletId)> = granted
        .iter()
        .filter_map(|(id, &g)| {
            let surplus = g.saturating_sub(floors[id]);
            (surplus > 0).then_some((surplus, *id))
        })
        .collect();
    donors.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (surplus, id) in donors {
        if deficit == 0 {
            break;
        }
        let take = surplus.min(deficit);
        if let Some(g) = granted.get_mut(&id) {
            *g -= take;
            deficit -= take;
        }
    }
    debug_assert_eq!(deficit, 0, "floors were jointly feasible");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(events: u64, hits: u64, rejected: u64, radio: u64) -> LaneTotals {
        LaneTotals {
            events,
            hits,
            misses: events.saturating_sub(hits).saturating_sub(rejected),
            rejected,
            radio_bytes: radio,
            ..LaneTotals::default()
        }
    }

    fn obs(id: u32, t: LaneTotals) -> EpochObservation {
        EpochObservation::new(CloudletId(id), t)
    }

    /// Demand hook: everyone wants `demand` bytes at the arbiter's
    /// priority.
    fn flat_demand(demand: usize) -> impl FnMut(CloudletId, &DemandContext) -> BudgetDemand {
        move |cloudlet, ctx| BudgetDemand {
            cloudlet,
            demand_bytes: demand,
            priority: ctx.priority,
        }
    }

    #[test]
    fn uniform_telemetry_reproduces_equal_priority_allocation() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig::new(10_000));
        let t = totals(100, 60, 0, 4_000);
        let decision = arb.run_epoch(
            SimInstant::from_micros(1),
            &[obs(0, t), obs(1, t), obs(2, t)],
            flat_demand(8_000),
        );
        for e in &decision.entries {
            assert_eq!(e.priority.to_bits(), 1.0f64.to_bits(), "{}", e.reason);
        }
        let mut reference = CloudletBudgets::new(10_000);
        for id in 0..3 {
            reference.register(BudgetDemand {
                cloudlet: CloudletId(id),
                demand_bytes: 8_000,
                priority: 1.0,
            });
        }
        assert_eq!(decision.allocations(), reference.allocate());
        assert!(!decision.held, "first epoch is never held");
    }

    #[test]
    fn hot_lane_outbids_cold_lane() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig::new(10_000));
        let decision = arb.run_epoch(
            SimInstant::from_micros(1),
            &[
                obs(0, totals(900, 500, 0, 40_000)),
                obs(1, totals(100, 55, 0, 4_500)),
            ],
            flat_demand(10_000),
        );
        let hot = decision.granted(CloudletId(0)).expect("hot lane");
        let cold = decision.granted(CloudletId(1)).expect("cold lane");
        assert!(hot > cold, "hot {hot} vs cold {cold}");
        assert_eq!(hot + cold, 10_000, "contended budget is fully granted");
    }

    #[test]
    fn queue_pressure_raises_utility() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig::new(10_000));
        // Identical served traffic, but lane 0 also shed 50 requests.
        let mut shedding = totals(150, 60, 50, 4_000);
        shedding.misses = 40;
        let calm = totals(100, 60, 0, 4_000);
        let decision = arb.run_epoch(
            SimInstant::from_micros(1),
            &[obs(0, shedding), obs(1, calm)],
            flat_demand(10_000),
        );
        let e0 = &decision.entries[0];
        let e1 = &decision.entries[1];
        assert!(e0.shed_ratio > 0.0);
        assert!(
            e0.utility > e1.utility,
            "sheds must bid for more capacity: {} vs {}",
            e0.utility,
            e1.utility
        );
    }

    #[test]
    fn ewma_smooths_a_one_epoch_spike() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig {
            alpha: 0.5,
            hysteresis: 0.0,
            ..ArbiterConfig::new(10_000)
        });
        let steady = totals(100, 60, 0, 4_000);
        arb.run_epoch(
            SimInstant::from_micros(1),
            &[obs(0, steady), obs(1, steady)],
            flat_demand(10_000),
        );
        // Lane 1 bursts 9x for one epoch.
        let d2 = arb.run_epoch(
            SimInstant::from_micros(2),
            &[obs(0, steady), obs(1, totals(900, 540, 0, 36_000))],
            flat_demand(10_000),
        );
        let p0 = d2.entries[0].priority;
        assert!(
            p0 > 1.0 / 9.0 + 0.05,
            "EWMA must damp the spike: lane 0 priority {p0}"
        );
        assert!(p0 < 1.0, "but the spike must still register");
    }

    #[test]
    fn hysteresis_holds_small_drift() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig {
            hysteresis: 0.1,
            ..ArbiterConfig::new(10_000)
        });
        let base = totals(1_000, 600, 0, 40_000);
        let d1 = arb.run_epoch(
            SimInstant::from_micros(1),
            &[obs(0, base), obs(1, totals(500, 300, 0, 20_000))],
            flat_demand(10_000),
        );
        assert!(!d1.held);
        // Tiny drift on lane 1: held, priorities identical to epoch 1.
        let d2 = arb.run_epoch(
            SimInstant::from_micros(2),
            &[obs(0, base), obs(1, totals(510, 306, 0, 20_400))],
            flat_demand(10_000),
        );
        assert!(d2.held, "drift within the band must hold");
        for (a, b) in d1.entries.iter().zip(&d2.entries) {
            assert_eq!(a.priority.to_bits(), b.priority.to_bits());
        }
        // A big swing breaks the hold.
        let d3 = arb.run_epoch(
            SimInstant::from_micros(3),
            &[obs(0, totals(100, 60, 0, 4_000)), obs(1, base)],
            flat_demand(10_000),
        );
        assert!(!d3.held, "a real shift must be adopted");
    }

    #[test]
    fn min_share_floor_prevents_starvation() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig {
            min_share: 0.2,
            hysteresis: 0.0,
            ..ArbiterConfig::new(10_000)
        });
        let decision = arb.run_epoch(
            SimInstant::from_micros(1),
            &[
                obs(0, totals(10_000, 6_000, 0, 400_000)),
                obs(1, LaneTotals::default()),
            ],
            flat_demand(10_000),
        );
        let idle = decision.granted(CloudletId(1)).expect("idle lane");
        assert!(idle >= 2_000, "idle lane floor-granted {idle} < 2000");
        let hot = decision.granted(CloudletId(0)).expect("hot lane");
        assert_eq!(hot + idle, 10_000);
        assert!(decision.entries[1].reason.contains("floor"));
    }

    #[test]
    fn floors_cap_at_demand() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig {
            min_share: 0.3,
            ..ArbiterConfig::new(10_000)
        });
        let decision = arb.run_epoch(
            SimInstant::from_micros(1),
            &[
                obs(0, totals(10_000, 6_000, 0, 400_000)),
                obs(1, LaneTotals::default()),
            ],
            |cloudlet, ctx| BudgetDemand {
                cloudlet,
                // The idle lane only wants 500 bytes: the floor must not
                // over-grant past demand.
                demand_bytes: if cloudlet == CloudletId(1) {
                    500
                } else {
                    10_000
                },
                priority: ctx.priority,
            },
        );
        assert_eq!(decision.granted(CloudletId(1)), Some(500));
        assert_eq!(decision.granted(CloudletId(0)), Some(9_500));
    }

    #[test]
    fn epoch_schedule_is_simulated_time() {
        let config =
            ArbiterConfig::new(1_000).with_epoch_length(SimDuration::from_micros(1_000_000));
        let mut arb = AdaptiveArbiter::new(config);
        assert!(!arb.epoch_due(SimInstant::from_micros(999_999)));
        assert!(arb.epoch_due(SimInstant::from_micros(1_000_000)));
        arb.run_epoch(
            SimInstant::from_micros(1_500_000),
            &[obs(0, totals(10, 5, 0, 100))],
            flat_demand(1_000),
        );
        assert!(!arb.epoch_due(SimInstant::from_micros(1_999_999)));
        assert!(arb.epoch_due(SimInstant::from_micros(2_000_000)));
        assert_eq!(arb.epoch, 1);
        assert_eq!(arb.decisions().len(), 1);
    }

    #[test]
    fn cumulative_snapshots_are_diffed_into_deltas() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig {
            alpha: 1.0,
            ..ArbiterConfig::new(10_000)
        });
        let first = totals(100, 60, 0, 4_000);
        arb.observe_cumulative(
            SimInstant::from_micros(1),
            &[obs(0, first), obs(1, first)],
            flat_demand(10_000),
        );
        // Cumulative counters doubled on lane 0 only: the second
        // epoch's delta is 100 events for lane 0 and 0 for lane 1.
        let second = totals(200, 120, 0, 8_000);
        let d2 = arb.observe_cumulative(
            SimInstant::from_micros(2),
            &[obs(0, second), obs(1, first)],
            flat_demand(10_000),
        );
        assert_eq!(d2.entries[0].unique_attempted, 100);
        assert_eq!(d2.entries[1].unique_attempted, 0);
        assert!(d2.granted(CloudletId(0)) > d2.granted(CloudletId(1)));
    }

    #[test]
    fn idle_fleet_falls_back_to_equal_priorities() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig::new(10_000));
        let decision = arb.run_epoch(
            SimInstant::from_micros(1),
            &[
                EpochObservation::idle(CloudletId(0)),
                EpochObservation::idle(CloudletId(1)),
            ],
            flat_demand(10_000),
        );
        assert_eq!(decision.granted(CloudletId(0)), Some(5_000));
        assert_eq!(decision.granted(CloudletId(1)), Some(5_000));
    }

    #[test]
    fn demand_hook_dampening_flows_into_the_allocation() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig {
            min_share: 0.0,
            ..ArbiterConfig::new(10_000)
        });
        let t = totals(100, 60, 0, 4_000);
        let decision = arb.run_epoch(
            SimInstant::from_micros(1),
            &[obs(0, t), obs(1, t)],
            |cloudlet, ctx| BudgetDemand {
                cloudlet,
                demand_bytes: 10_000,
                priority: if cloudlet == CloudletId(1) {
                    ctx.priority * 0.25
                } else {
                    ctx.priority
                },
            },
        );
        let a = decision.granted(CloudletId(0)).unwrap_or(0);
        let b = decision.granted(CloudletId(1)).unwrap_or(0);
        assert!(a > 3 * b, "dampened hook must shrink the grant: {a} vs {b}");
    }

    #[test]
    fn bad_hook_priorities_are_clamped() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig::new(1_000));
        let decision = arb.run_epoch(
            SimInstant::from_micros(1),
            &[obs(0, totals(10, 5, 0, 100))],
            |cloudlet, _ctx| BudgetDemand {
                cloudlet,
                demand_bytes: 1_000,
                priority: f64::NAN,
            },
        );
        assert!(decision.entries[0].priority > 0.0);
        assert_eq!(decision.granted(CloudletId(0)), Some(1_000));
    }

    #[test]
    #[should_panic(expected = "observed twice")]
    fn duplicate_observations_are_rejected() {
        let mut arb = AdaptiveArbiter::new(ArbiterConfig::new(1_000));
        let t = totals(10, 5, 0, 100);
        arb.run_epoch(
            SimInstant::from_micros(1),
            &[obs(0, t), obs(0, t)],
            flat_demand(1_000),
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_is_rejected() {
        AdaptiveArbiter::new(ArbiterConfig {
            alpha: 0.0,
            ..ArbiterConfig::new(1_000)
        });
    }

    #[test]
    fn equal_priority_context_is_the_static_surface() {
        let ctx = DemandContext::equal_priority(0);
        assert_eq!(ctx.epoch, 0);
        assert_eq!(ctx.priority.to_bits(), 1.0f64.to_bits());
        assert!(!ctx.observed());
        let ctx = DemandContext {
            priority: 0.5,
            totals: totals(10, 5, 0, 100),
            ..ctx
        };
        assert!(ctx.observed());
        assert!((ctx.priority - 0.5).abs() < f64::EPSILON);
    }
}
