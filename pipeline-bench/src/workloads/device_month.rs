//! `device-month`: one full-scale PocketSearch device lives 28 days of
//! 4,000 served and clicked queries a day, drawn by the seed from each
//! day of the logged month. Each night the update server
//! mines a sliding 28-day window, then the device applies the §5.4
//! update and its repair pass. Flash writes (click inserts, erase and
//! program patches) run beside CRC-checked flash reads, and server-side
//! mining is the other large cost. The wear model stays off: with it on
//! at full scale the nightly updates fail.

use std::collections::BTreeMap;

use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
use cloudlet_core::corpus::UniverseCorpus;
use cloudlet_core::ranking::RankingPolicy;
use cloudlet_core::update::UpdateServer;
use mobsim::flash::AllocPolicy;
use pocket_bench::{full_scale_study_inputs, test_scale_study_inputs};
use pocketsearch::config::PocketSearchConfig;
use pocketsearch::engine::PocketSearch;
use querylog::log::{LogEntry, SearchLog};
use querylog::triplets::TripletTable;

use super::{Digest, Latencies, Rep, SimSummary, Size, Tracer, WORLD_SEED};
use crate::spans::timed;

/// SplitMix64 finalizer: the seeded per-entry sampling key.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The stages the loop is made of.
pub const LOOP_STAGES: &[&str] = &[
    "engine.serve",
    "engine.click",
    "month.window",
    "contentgen.mine",
    "engine.nightly_update",
    "engine.recover",
];

/// Runs one rep with fresh state.
pub fn rep(seed: u64, size: Size, trace: bool) -> Result<Rep, String> {
    let mut tracer = Tracer::new(trace);
    let per_day = match size {
        Size::Full => 4_000,
        Size::Smoke => 40,
    };
    let ((inputs, mut engine, today, digest), setup_ns) = timed(|| {
        let inputs = match size {
            Size::Full => full_scale_study_inputs(WORLD_SEED),
            Size::Smoke => test_scale_study_inputs(WORLD_SEED),
        };
        let mut engine = PocketSearch::build(
            &inputs.contents,
            &inputs.catalog,
            PocketSearchConfig::default(),
        );
        engine
            .device_mut()
            .flash_mut()
            .set_alloc_policy(AllocPolicy::LeastWorn { spares: 16 });
        let mut digest = Digest::default();
        for e in inputs.build_month.iter().chain(inputs.replay_month.iter()) {
            digest.word(u64::from(e.user.index()));
            digest.word(u64::from(e.pair.index()));
            digest.word(u64::from(e.time.day));
            digest.word(e.time.micros_of_day);
        }
        // The seed picks which `per_day` of each day's logged queries the
        // device serves (in log order): a seeded key per entry, the
        // smallest keys win.
        let mut candidates: Vec<Vec<(u64, usize, LogEntry)>> =
            vec![Vec::new(); usize::from(inputs.replay_month.days())];
        for (i, e) in inputs.replay_month.iter().enumerate() {
            let key = mix64(seed ^ mix64(i as u64));
            candidates[usize::from(e.time.day)].push((key, i, *e));
        }
        let today: Vec<Vec<LogEntry>> = candidates
            .into_iter()
            .map(|mut day| {
                day.sort_unstable_by_key(|&(key, i, _)| (key, i));
                day.truncate(per_day);
                day.sort_unstable_by_key(|&(_, i, _)| i);
                day.into_iter()
                    .map(|(_, i, e)| {
                        digest.word(i as u64);
                        e
                    })
                    .collect()
            })
            .collect();
        (inputs, engine, today, digest)
    });

    let corpus = UniverseCorpus::new(&inputs.universe);
    let admission = AdmissionPolicy::CumulativeShare { share: 0.55 };
    let days = inputs.replay_month.days();
    let miss_bytes = {
        let device = engine.device().config();
        device.request_bytes + device.response_bytes
    };
    let mut sim = SimSummary {
        digest: digest.value(),
        ..SimSummary::default()
    };
    let mut latencies = Latencies::default();
    let (mut added, mut removed) = (0u64, 0u64);
    let ((), loop_ns) = timed(|| {
        for (day, entries) in (0..days).zip(&today) {
            tracer.step(|tracer| {
                for entry in entries {
                    let query = inputs.catalog.query_hash(entry.query);
                    let served = tracer.span("engine.serve", || engine.serve(query));
                    sim.events += 1;
                    if served.hit {
                        sim.hits += 1;
                    } else {
                        sim.misses += 1;
                    }
                    if served.report.transfer.is_some() {
                        sim.radio_bytes += miss_bytes;
                    }
                    if served.degraded.is_some() {
                        sim.failed += 1;
                    }
                    latencies.push(served.report.total_time);
                    tracer.span("engine.click", || {
                        engine.click(query, inputs.catalog.result_hash(entry.result), || {
                            inputs.catalog.record(entry.result)
                        })
                    });
                }
            });

            // The nightly patch against a 28-day sliding window: the
            // rest of the build month plus the replay month so far.
            let window = tracer.stage("month.window", || {
                let entries: Vec<LogEntry> = inputs
                    .build_month
                    .iter()
                    .filter(|e| e.time.day > day)
                    .chain(inputs.replay_month.iter().filter(|e| e.time.day <= day))
                    .copied()
                    .collect();
                SearchLog::new(entries, days)
            });
            let server = tracer.stage("contentgen.mine", || {
                let contents =
                    CacheContents::generate(&TripletTable::from_log(&window), &corpus, admission);
                UpdateServer::from_contents(&contents, RankingPolicy::default())
            });
            match tracer.stage("engine.nightly_update", || {
                engine.nightly_update(&server, &inputs.catalog)
            }) {
                Ok(report) => {
                    added += report.patch.added as u64;
                    removed += report.patch.removed as u64;
                }
                Err(_) => sim.failed += 1,
            }
            tracer.stage("engine.recover", || {
                engine.recover_corrupted(&inputs.catalog)
            });
        }
    });
    latencies.summarize(&mut sim);

    let mut layers = BTreeMap::new();
    layers.insert("flashdb.patch_added", added as f64);
    layers.insert("flashdb.patch_removed", removed as f64);
    layers.insert(
        "flash.total_erases",
        engine.device().flash().wear_summary().total_erases as f64,
    );
    let (spans, steps) = tracer.finish();
    Ok(Rep {
        setup_ns,
        loop_ns,
        steps,
        sim,
        spans,
        loop_stages: LOOP_STAGES,
        layers,
    })
}
