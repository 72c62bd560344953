//! Property tests for the adaptive budget arbiter: the uniform-telemetry
//! anchor (a fleet whose lanes all report identical telemetry must
//! reproduce the PR 3 equal-priority allocation *bit for bit*), the
//! starvation floor (whenever the per-cloudlet floors are jointly
//! feasible, nobody with demand is granted less than its floor), and a
//! deterministic shifting-workload scenario showing capacity following
//! the hot lane with EWMA lag and then recovering after the skew flips.

use proptest::prelude::*;

use pocket_cloudlets::core::arbiter::{
    AdaptiveArbiter, ArbiterConfig, DemandContext, EpochObservation,
};
use pocket_cloudlets::core::coordination::{BudgetDemand, CloudletBudgets, CloudletId};
use pocket_cloudlets::core::frontend::LaneTotals;
use pocket_cloudlets::mobsim::time::SimInstant;

/// Lane telemetry with `hits = events · hit_permille / 1000`, the rest
/// misses, and no sheds or errors.
fn totals(events: u64, hit_permille: u64, radio_bytes: u64) -> LaneTotals {
    let hits = events * hit_permille.min(1_000) / 1_000;
    LaneTotals {
        events,
        hits,
        misses: events - hits,
        radio_bytes,
        ..LaneTotals::default()
    }
}

fn obs(id: u32, t: LaneTotals) -> EpochObservation {
    EpochObservation::new(CloudletId(id), t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The regression anchor ISSUE 5 pins: identical telemetry on every
    /// lane must normalise to priority exactly `1.0` (not merely close)
    /// and hand the water-filler the same inputs a static equal-priority
    /// `CloudletBudgets` gets, so the allocation — demands, rounding
    /// behaviour and all — is bit-identical to the PR 3 path.
    #[test]
    fn uniform_telemetry_is_bit_identical_to_equal_priority(
        n in 2usize..=8,
        total in 1usize..1_000_000,
        demands in proptest::collection::vec(0usize..2_000_000, 8..9),
        events in 0u64..10_000,
        hit_permille in 0u64..=1_000,
        radio in 0u64..1_000_000,
    ) {
        let demands = &demands[..n];
        let t = totals(events, hit_permille, radio);
        let lanes: Vec<EpochObservation> =
            (0..n).map(|i| obs(i as u32, t)).collect();

        let mut arb = AdaptiveArbiter::new(ArbiterConfig::new(total));
        let decision = arb.run_epoch(SimInstant::from_micros(1), &lanes, |cloudlet, ctx| {
            BudgetDemand {
                cloudlet,
                demand_bytes: demands[cloudlet.0 as usize],
                priority: ctx.priority,
            }
        });

        for entry in &decision.entries {
            prop_assert_eq!(
                entry.priority.to_bits(),
                1.0f64.to_bits(),
                "uniform telemetry must normalise to exactly 1.0: {}",
                entry.reason
            );
        }

        let mut reference = CloudletBudgets::new(total);
        for (i, &demand_bytes) in demands.iter().enumerate() {
            reference.register(BudgetDemand {
                cloudlet: CloudletId(i as u32),
                demand_bytes,
                priority: 1.0,
            });
        }
        prop_assert_eq!(decision.allocations(), reference.allocate());
    }

    /// Whenever the floors `min(demand, min_share · total)` are jointly
    /// feasible, every cloudlet is granted at least its floor; grants
    /// never exceed demand and the allocation stays work-conserving.
    #[test]
    fn floors_hold_whenever_jointly_feasible(
        total in 1_000usize..1_000_000,
        min_share in 0.0f64..0.3,
        lanes in proptest::collection::vec(
            (0u64..5_000, 0u64..=1_000, 0u64..1_000_000, 0usize..2_000_000),
            2..7,
        ),
    ) {
        let observations: Vec<EpochObservation> = lanes
            .iter()
            .enumerate()
            .map(|(i, &(events, permille, radio, _))| {
                obs(i as u32, totals(events, permille, radio))
            })
            .collect();
        let demands: Vec<usize> = lanes.iter().map(|&(.., d)| d).collect();

        let mut arb = AdaptiveArbiter::new(
            ArbiterConfig::new(total)
                .with_min_share(min_share)
                .with_hysteresis(0.0),
        );
        let decision = arb.run_epoch(SimInstant::from_micros(1), &observations, |cloudlet, ctx| {
            BudgetDemand {
                cloudlet,
                demand_bytes: demands[cloudlet.0 as usize],
                priority: ctx.priority,
            }
        });

        let floor_target = (min_share * total as f64) as usize;
        let floors: Vec<usize> = demands.iter().map(|&d| d.min(floor_target)).collect();
        let feasible = floors.iter().sum::<usize>() <= total;
        let mut granted_sum = 0usize;
        for entry in &decision.entries {
            let i = entry.cloudlet.0 as usize;
            prop_assert!(
                entry.granted <= demands[i],
                "granted {} beyond demand {}",
                entry.granted,
                demands[i]
            );
            prop_assert_eq!(entry.floor_bytes, floors[i]);
            if feasible {
                prop_assert!(
                    entry.granted >= floors[i],
                    "{} starved below its floor: {} < {} ({})",
                    entry.cloudlet,
                    entry.granted,
                    floors[i],
                    entry.reason
                );
            }
            granted_sum += entry.granted;
        }
        prop_assert_eq!(
            granted_sum,
            total.min(demands.iter().sum()),
            "the arbiter must stay work-conserving"
        );
    }
}

/// Capacity follows the workload: while lane 0 is hot, lane 1's grant
/// sits well below the equal split (but at or above its floor); after
/// the skew flips, the EWMA crosses within two epochs and lane 1 ends
/// up with the majority share lane 0 used to hold.
#[test]
fn shifting_workload_shrinks_then_recovers() {
    const TOTAL: usize = 100_000;
    let mut arb = AdaptiveArbiter::new(ArbiterConfig::new(TOTAL).with_hysteresis(0.0));
    let hot = totals(900, 600, 36_000);
    let cold = totals(100, 600, 4_000);
    let full_demand = |cloudlet: CloudletId, ctx: &DemandContext| BudgetDemand {
        cloudlet,
        demand_bytes: TOTAL,
        priority: ctx.priority,
    };

    let mut decision = None;
    for epoch in 1..=3u64 {
        decision = Some(arb.run_epoch(
            SimInstant::from_micros(epoch),
            &[obs(0, hot), obs(1, cold)],
            full_demand,
        ));
    }
    let skewed = decision.take().expect("three epochs ran");
    let floor = (arb.config().min_share * TOTAL as f64) as usize;
    let cold_grant = skewed.granted(CloudletId(1)).expect("cold lane");
    assert!(
        cold_grant < TOTAL / 2,
        "cold lane must sit below the equal split, got {cold_grant}"
    );
    assert!(cold_grant >= floor, "but never below its floor {floor}");

    // The workload flips: lane 1 becomes the hot lane.
    for epoch in 4..=8u64 {
        decision = Some(arb.run_epoch(
            SimInstant::from_micros(epoch),
            &[obs(0, cold), obs(1, hot)],
            full_demand,
        ));
    }
    let flipped = decision.expect("eight epochs ran");
    let recovered = flipped.granted(CloudletId(1)).expect("now-hot lane");
    assert!(
        recovered > TOTAL / 2,
        "after the flip lane 1 must win the majority share, got {recovered}"
    );
    assert!(
        flipped.granted(CloudletId(0)).expect("now-cold lane") >= floor,
        "the demoted lane keeps its floor"
    );
    assert_eq!(arb.decisions().len(), 8, "every epoch is logged");
}
