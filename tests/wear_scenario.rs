//! §5.4 update protocol under flash media wear: a month-long loop of
//! daily serves, clicks, and nightly patch cycles with stuck-at bit
//! injection on worn blocks. The cloudlet must degrade gracefully —
//! corrupted reads surface as typed errors that fall back to the radio,
//! damaged files are re-fetched overnight, and serving never stops —
//! while a zero-wear control run stays bit-identical to today's
//! behavior.

use pocket_cloudlets::mobsim::flash::{AllocPolicy, WearModel};
use pocket_cloudlets::pocketsearch::engine::EngineError;
use pocket_cloudlets::pocketsearch::experiment::{wear_month, WearMonth};
use pocket_cloudlets::pocketsearch::RecoveryStats;
use pocket_cloudlets::prelude::*;

/// Runs the test-scale month (see [`wear_month`]) and checks that every
/// nightly failure is a typed database error: worn media can fail a patch
/// mid-rebuild, but never with a panic or a cache-layer error. The
/// outcome is compared wholesale (including simulated time and energy)
/// for the bit-identical control.
fn run_month(wear: Option<WearModel>, alloc: AllocPolicy) -> WearMonth {
    let world = StudyInputs::build(GeneratorConfig::test_scale(), 2011, 0.55);
    let month = wear_month(&world, wear, alloc);
    for e in &month.update_errors {
        assert!(
            matches!(e, EngineError::Db(_)),
            "nightly failure must come from the database layer: {e}"
        );
    }
    month
}

/// A wear model aggressive enough that a month of daily churn pushes
/// blocks well past their safe life.
fn aggressive_wear() -> WearModel {
    WearModel {
        enabled: true,
        safe_erase_cycles: 12,
        bit_failure_every: 2,
        seed: 0x5EED_F1A5,
    }
}

#[test]
fn month_under_wear_degrades_gracefully_and_keeps_serving() {
    let leveling = AllocPolicy::LeastWorn { spares: 16 };
    let control = run_month(None, leveling);
    let worn = run_month(Some(aggressive_wear()), leveling);

    // Same workload either way; wear changes outcomes, not the schedule.
    assert_eq!(control.serves, worn.serves);
    assert!(control.serves >= 28 * 10, "the month exercised real load");

    // The control month never sees corruption.
    assert_eq!(control.degraded, 0);
    assert!(control.update_errors.is_empty());
    assert_eq!(control.recovery, RecoveryStats::default());

    // The worn month hits corruption — and survives it. Reaching this
    // point at all is the zero-panic claim; the counters show the
    // degradation was real and typed.
    assert!(
        worn.corrupt_degraded > 0,
        "aggressive wear must corrupt at least one serve: {worn:?}"
    );
    assert_eq!(worn.recovery.degraded_serves, worn.corrupt_degraded);
    assert!(worn.recovery.files_repaired > 0, "repairs ran: {worn:?}");
    assert!(worn.recovery.records_refetched > 0);
    assert!(worn.recovery.refetch_bytes > 0);
    assert!(worn.recovery.refetch_time > SimDuration::ZERO);

    // Graceful degradation: the worn month still serves hits, and the
    // hit-ratio loss against the clean control stays bounded.
    assert!(worn.hits > 0, "serving never stopped: {worn:?}");
    assert!(worn.energy > control.energy, "repairs cost radio energy");
    let loss = control.hit_ratio() - worn.hit_ratio();
    assert!(
        loss < 0.15,
        "hit-ratio loss must stay bounded: control {:.3}, worn {:.3}",
        control.hit_ratio(),
        worn.hit_ratio()
    );
}

#[test]
fn zero_wear_control_is_bit_identical_to_wear_disabled() {
    // Wear tracking enabled but with a threshold a month can never reach
    // must be indistinguishable — to the bit, including simulated time
    // and energy — from the model being off entirely.
    let disabled = run_month(None, AllocPolicy::LowestId);
    let unreachable = run_month(
        Some(WearModel {
            enabled: true,
            safe_erase_cycles: u64::MAX,
            bit_failure_every: 1,
            seed: 7,
        }),
        AllocPolicy::LowestId,
    );
    assert_eq!(disabled, unreachable);
    assert_eq!(disabled.degraded, 0);
    assert_eq!(disabled.recovery, RecoveryStats::default());
}
