//! Outputs pinned for the reference seed at full size: each workload's
//! input digest, plus the `population-day` event count and hit ratio
//! that BENCH_population.json records for the same day.

use crate::workloads::SimSummary;

/// The seed the pins hold for.
pub const SEED: u64 = 2011;

const DIGESTS: [(&str, u64); 4] = [
    ("population-day", 0x9450_7248_5cef_c4af),
    ("search-fleet", 0x085b_f524_c756_d560),
    ("peer-cells", 0x83b9_9cc3_aac2_0686),
    ("device-month", 0x603c_2844_c9d2_eb5b),
];

/// Mismatches between `sim` and the pins for `workload`.
pub fn check(workload: &str, sim: &SimSummary) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(&(_, digest)) = DIGESTS.iter().find(|(w, _)| *w == workload) {
        if sim.digest != digest {
            problems.push(format!(
                "input digest {:016x} differs from the pinned {digest:016x}",
                sim.digest
            ));
        }
    }
    if workload == "population-day" {
        let hit_ratio = format!("{:.6}", sim.hit_ratio());
        if sim.events != 3_329_580 || hit_ratio != "0.460187" {
            problems.push(format!(
                "population day served {} events at hit ratio {hit_ratio}; \
                 BENCH_population.json has 3329580 at 0.460187",
                sim.events
            ));
        }
    }
    problems
}
