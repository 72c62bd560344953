//! Regenerates every figure of the Pocket Cloudlets paper.
//!
//! ```text
//! figures [--fig <id>] [--scale test|full] [--seed N]
//!   ids: 2 4 5 7 8 11 12 15a 15b 16 17 18 19 daily all
//! ```
//!
//! Each section prints the measured series next to what the paper
//! reports, so the output reads as a reproduction report. `--scale full`
//! (default) uses the paper-scale synthetic logs; `--scale test` runs a
//! miniature world in a couple of seconds. An unknown id or a malformed
//! flag exits 2 before any output.

use std::cell::OnceCell;
use std::process::ExitCode;

use cloudlet_core::cache::CacheMode;
use cloudlet_core::contentgen::AdmissionPolicy;
use cloudlet_core::hashtable::QueryHashTable;
use flashdb::{DbConfig, ResultDb};
use mobsim::flash::{FlashModel, FlashStore};
use mobsim::power::Power;
use mobsim::time::SimDuration;
use nvmscale::{CapacityProjection, DeviceTier, ScalingTechnique, ScalingTrends};
use pocket_bench::{ascii_chart, RunContext, Sections, StudyInputs, Table};
use pocketsearch::experiment::{
    figure15_points, figure16_traces, run_hit_rate_study, HitRateConfig, HitRateStudy,
};
use querylog::analysis::cdf::{query_volume_cdf, result_volume_cdf};
use querylog::analysis::repeat::new_query_probabilities;
use querylog::log::DeviceClass;
use querylog::universe::QueryKind;
use querylog::users::UserClass;

const SECTIONS: Sections = Sections {
    flag: "--fig",
    noun: "figure",
    ids: &[
        "2", "4", "5", "7", "8", "11", "12", "15a", "15b", "16", "17", "18", "19", "daily",
    ],
    out_ids: &[],
};

/// The three cache modes Figures 17–19 compare.
const MODES: [CacheMode; 3] = [
    CacheMode::Full,
    CacheMode::CommunityOnly,
    CacheMode::PersonalizationOnly,
];

fn main() -> ExitCode {
    let ctx = match RunContext::from_env(&SECTIONS) {
        Ok(ctx) => ctx,
        Err(code) => return code,
    };
    let inputs = ctx.world();
    ctx.print_header("figure reproduction");
    println!(
        "workload: {} build-month entries, {} replay-month entries, {} cached pairs ({} results)\n",
        inputs.build_month.len(),
        inputs.replay_month.len(),
        inputs.contents.len(),
        inputs.contents.distinct_results()
    );

    // Figures 17, 18 and 19 read one three-mode replay.
    let three_modes = OnceCell::new();
    for fig in &ctx.ids {
        match fig.as_str() {
            "2" => figure2(),
            "4" => figure4(inputs),
            "5" => figure5(inputs),
            "7" => figure7(inputs),
            "8" => figure8(inputs),
            "11" => figure11(inputs),
            "12" => figure12(inputs),
            "15a" => figure15a(),
            "15b" => figure15b(),
            "16" => figure16(),
            "17" | "18" | "19" => figures_17_18_19(
                inputs,
                three_modes
                    .get_or_init(|| run_hit_rate_study(inputs, &ctx.hit_rate_config(), &MODES)),
                fig,
            ),
            "daily" => daily_updates(&ctx),
            other => unreachable!("figure {other:?} was validated by the parser"),
        }
    }
    ExitCode::SUCCESS
}

fn figure2() {
    let trends = ScalingTrends::paper_table1();
    let mut table = Table::new(
        "Figure 2: smartphone NVM capacity evolution (paper: high-end hits 1 TB in 2018)",
        &["year", "scenario", "high-end", "low-end"],
    );
    for techniques in ScalingTechnique::figure2_scenarios() {
        let proj = CapacityProjection::new(&trends, techniques);
        for (year, cap) in proj.series(DeviceTier::HighEnd) {
            let low = proj
                .capacity(DeviceTier::LowEnd, year)
                .expect("year in range");
            table.row(&[
                year.to_string(),
                techniques.to_string(),
                cap.to_string(),
                low.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    let full = CapacityProjection::new(&trends, ScalingTechnique::all());
    println!(
        "paper checkpoints: 2018 high-end = {} (paper: 1 TB), 2018 low-end = {} (paper: 16 GB), final low-end = {} (paper: 256 GB)\n",
        full.capacity(DeviceTier::HighEnd, 2018).unwrap(),
        full.capacity(DeviceTier::LowEnd, 2018).unwrap(),
        full.capacity(DeviceTier::LowEnd, 2026).unwrap(),
    );
}

fn figure4(inputs: &StudyInputs) {
    let log = &inputs.build_month;
    let scale = log.len() as f64 / 200e6; // relative to the paper's volume
    println!("== Figure 4: cumulative query/result volume CDFs ==");
    println!(
        "(synthetic log is {:.1e}x the paper's 200M queries; ranks scale accordingly)",
        scale
    );

    let curves: Vec<(&str, querylog::analysis::cdf::CdfCurve)> = vec![
        ("queries: all", query_volume_cdf(log, |_| true)),
        (
            "queries: navigational",
            query_volume_cdf(log, |e| e.kind == QueryKind::Navigational),
        ),
        (
            "queries: non-navigational",
            query_volume_cdf(log, |e| e.kind == QueryKind::NonNavigational),
        ),
        (
            "queries: featurephone",
            query_volume_cdf(log, |e| e.device == DeviceClass::FeaturePhone),
        ),
        (
            "queries: smartphone",
            query_volume_cdf(log, |e| e.device == DeviceClass::Smartphone),
        ),
        ("results: all", result_volume_cdf(log, |_| true)),
    ];

    let mut table = Table::new(
        "shares at popularity ranks",
        &["series", "top 1%", "top 5%", "top 10%", "rank@60%"],
    );
    for (name, curve) in &curves {
        let n = curve.distinct_items().max(1);
        table.row(&[
            (*name).to_owned(),
            format!("{:.2}", curve.share_at(n / 100)),
            format!("{:.2}", curve.share_at(n / 20)),
            format!("{:.2}", curve.share_at(n / 10)),
            curve
                .rank_for_share(0.6)
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".to_owned()),
        ]);
    }
    println!("{}", table.render());

    let all_q = &curves[0].1;
    let all_r = &curves[5].1;
    let q60 = all_q.rank_for_share(0.6).unwrap_or(0);
    let r60 = all_r.rank_for_share(0.6).unwrap_or(0);
    println!(
        "60% of query volume needs top {q60} queries; 60% of click volume needs top {r60} results \
         (paper: 6,000 vs 4,000 — ~1.5x more queries than results). measured ratio: {:.2}\n",
        q60 as f64 / r60.max(1) as f64
    );
    let pts: Vec<(f64, f64)> = all_q
        .sample_points(60)
        .into_iter()
        .map(|(k, s)| (k as f64, s))
        .collect();
    println!(
        "{}",
        ascii_chart("Figure 4(a) shape: cumulative query volume", &pts, 10)
    );
}

fn figure5(inputs: &StudyInputs) {
    let dist = new_query_probabilities(&inputs.replay_month, |_| true);
    let nav = new_query_probabilities(&inputs.replay_month, |e| e.kind == QueryKind::Navigational);
    let mut table = Table::new(
        "Figure 5: CDF of per-user new-query probability over a month",
        &["new-query prob <=", "all users", "navigational only"],
    );
    for p in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0] {
        table.row(&[
            format!("{p:.1}"),
            format!("{:.2}", dist.fraction_at_most(p)),
            format!("{:.2}", nav.fraction_at_most(p)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "fraction of users with new-query prob <= 0.30: {:.2} (paper: ~0.50); \
         mean repeat rate: {:.3} (paper: 0.565 mobile vs 0.40 desktop)\n",
        dist.fraction_at_most(0.30),
        dist.mean_repeat_rate()
    );
    let pts: Vec<(f64, f64)> = dist.curve_points(50);
    println!("{}", ascii_chart("Figure 5 shape", &pts, 10));
}

fn figure7(inputs: &StudyInputs) {
    let t = &inputs.triplets;
    let mut table = Table::new(
        "Figure 7: cumulative volume vs most popular query-result pairs",
        &["pairs cached", "cumulative share"],
    );
    let n = t.len();
    for frac in [0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0] {
        let k = ((n as f64) * frac).round() as usize;
        table.row(&[k.to_string(), format!("{:.3}", t.cumulative_share(k))]);
    }
    println!("{}", table.render());
    let k55 = t.prefix_for_share(0.55).len();
    let k58 = t.prefix_for_share(0.58).len();
    let k62 = t.prefix_for_share(0.62).len();
    println!(
        "saturation: 55% needs {k55} pairs; pushing 58% -> 62% grows pairs {k58} -> {k62} \
         ({:.2}x; paper: 2x from 20k to 40k)\n",
        k62 as f64 / k58.max(1) as f64
    );
}

fn figure8(inputs: &StudyInputs) {
    let mut table = Table::new(
        "Figure 8: cache footprint vs aggregate volume (paper at 55%: ~200 KB DRAM, ~1 MB flash)",
        &["share", "pairs", "results", "DRAM KB", "flash KB"],
    );
    for share in [0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.65] {
        let c = inputs.mine(AdmissionPolicy::CumulativeShare { share });
        table.row(&[
            format!("{share:.2}"),
            c.len().to_string(),
            c.distinct_results().to_string(),
            format!("{:.0}", c.dram_bytes() as f64 / 1_000.0),
            format!("{:.0}", c.flash_bytes() as f64 / 1_000.0),
        ]);
    }
    println!("{}", table.render());
}

fn figure11(inputs: &StudyInputs) {
    // Results-per-query distribution of the evaluation cache.
    let mut per_query = std::collections::HashMap::new();
    for p in inputs.contents.pairs() {
        *per_query.entry(p.query).or_insert(0usize) += 1;
    }
    let counts: Vec<usize> = per_query.into_values().collect();
    let mut table = Table::new(
        "Figure 11: hash-table footprint vs results per entry (paper: minimum at 2)",
        &["results/entry", "footprint KB"],
    );
    let mut best = (0usize, usize::MAX);
    for k in 1..=8 {
        let bytes = QueryHashTable::footprint_for(&counts, k);
        if bytes < best.1 {
            best = (k, bytes);
        }
        table.row(&[k.to_string(), format!("{:.1}", bytes as f64 / 1_000.0)]);
    }
    println!("{}", table.render());
    println!(
        "measured minimum at {} results per entry (paper: 2)\n",
        best.0
    );
}

fn figure12(inputs: &StudyInputs) {
    let mut table = Table::new(
        "Figure 12: retrieval time & fragmentation vs database files (paper: 32 is the tradeoff)",
        &["files", "2-result fetch ms", "fragmentation KB"],
    );
    // Two results of a popular query, as the GUI fetches per hit.
    let sample: Vec<u64> = inputs
        .contents
        .pairs()
        .iter()
        .map(|p| p.result_hash)
        .take(2)
        .collect();
    for n_files in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let mut flash = FlashStore::new(FlashModel::default());
        let db = ResultDb::build(
            inputs.community_records(),
            DbConfig::with_files(n_files),
            &mut flash,
        );
        let (_, time) = db
            .get_many(sample.iter().copied(), &flash)
            .expect("sampled results are stored");
        let stats = db.stats(&flash);
        table.row(&[
            n_files.to_string(),
            format!("{:.2}", time.as_millis_f64()),
            format!("{:.1}", stats.fragmentation_bytes as f64 / 1_000.0),
        ]);
    }
    println!("{}", table.render());
}

fn figure15a() {
    let points = figure15_points(SimDuration::from_millis(10));
    let mut table = Table::new(
        "Figure 15(a): average response time per query (paper speedups: 3G 16x, Edge 25x, 802.11g 7x)",
        &["path", "time", "speedup vs PocketSearch"],
    );
    for p in &points {
        table.row(&[
            p.label.clone(),
            p.time.to_string(),
            format!("{:.1}x", p.speedup_vs_pocket),
        ]);
    }
    println!("{}", table.render());
}

fn figure15b() {
    let points = figure15_points(SimDuration::from_millis(10));
    let mut table = Table::new(
        "Figure 15(b): average energy per query (paper ratios: 3G 23x, Edge 41x, 802.11g 11x)",
        &["path", "energy", "ratio vs PocketSearch"],
    );
    for p in &points {
        table.row(&[
            p.label.clone(),
            p.energy.to_string(),
            format!("{:.1}x", p.energy_ratio_vs_pocket),
        ]);
    }
    println!("{}", table.render());
}

fn figure16() {
    let (pocket, radio) = figure16_traces(10, SimDuration::from_millis(10));
    println!("== Figure 16: 10 consecutive queries, power over time ==");
    println!(
        "PocketSearch: {:.1} s busy, peak {} (paper: ~4 s at ~900 mW)",
        pocket.busy_time().as_secs_f64(),
        pocket.peak_power().expect("trace is non-empty"),
    );
    println!(
        "3G:           {:.1} s busy, peak {} (paper: ~40 s at ~1500 mW)\n",
        radio.busy_time().as_secs_f64(),
        radio.peak_power().expect("trace is non-empty"),
    );
    for (name, trace) in [("PocketSearch", &pocket), ("3G", &radio)] {
        let samples = trace.sample(SimDuration::from_millis(500), Power::from_milliwatts(100));
        let pts: Vec<(f64, f64)> = samples
            .iter()
            .map(|(t, p)| (t.as_secs_f64(), f64::from(p.milliwatts())))
            .collect();
        println!(
            "{}",
            ascii_chart(&format!("{name} power trace (mW)"), &pts, 8)
        );
    }
}

fn figures_17_18_19(inputs: &StudyInputs, study: &HitRateStudy, which: &str) {
    match which {
        "17" => {
            let mut table = Table::new(
                "Figure 17: average cache hit rate (paper: full 60/70/75/75% by class; avg 65%, community-only 55%, personalization-only 56.5%)",
                &["mode", "Low", "Medium", "High", "Extreme", "average"],
            );
            for m in &study.modes {
                let rate = |c: UserClass| {
                    m.summaries
                        .iter()
                        .find(|s| s.class == c)
                        .map(|s| format!("{:.2}", s.hit_rate))
                        .unwrap_or_else(|| "-".to_owned())
                };
                table.row(&[
                    m.mode.to_string(),
                    rate(UserClass::Low),
                    rate(UserClass::Medium),
                    rate(UserClass::High),
                    rate(UserClass::Extreme),
                    format!("{:.2}", m.average_hit_rate),
                ]);
            }
            println!("{}", table.render());
            println!(
                "cache: {} pairs, {} results, {:.0} KB DRAM, {:.0} KB flash (paper: ~2,500 results, ~200 KB, ~1 MB)\n",
                inputs.contents.len(),
                inputs.contents.distinct_results(),
                inputs.contents.dram_bytes() as f64 / 1_000.0,
                inputs.contents.flash_bytes() as f64 / 1_000.0,
            );
        }
        "18" => {
            let mut table = Table::new(
                "Figure 18: hit rate after week 1 / weeks 1-2 (paper: community warm start dominates early)",
                &["mode", "class", "week 1", "weeks 1-2", "full month"],
            );
            for m in &study.modes {
                for s in &m.summaries {
                    table.row(&[
                        m.mode.to_string(),
                        s.class.to_string(),
                        format!("{:.2}", s.hit_rate_week1),
                        format!("{:.2}", s.hit_rate_weeks12),
                        format!("{:.2}", s.hit_rate),
                    ]);
                }
            }
            println!("{}", table.render());
        }
        "19" => {
            let full = study
                .modes
                .iter()
                .find(|m| m.mode == CacheMode::Full)
                .expect("full mode was requested");
            let mut table = Table::new(
                "Figure 19: navigational share of cache hits (paper: 59% average, falling for heavier users)",
                &["class", "nav share of hits"],
            );
            for s in &full.summaries {
                table.row(&[s.class.to_string(), format!("{:.2}", s.nav_share_of_hits)]);
            }
            println!("{}", table.render());
        }
        _ => unreachable!(),
    }
}

fn daily_updates(ctx: &RunContext) {
    let base = ctx.hit_rate_config();
    let nightly = HitRateConfig {
        daily_updates: true,
        ..base
    };
    let without = run_hit_rate_study(ctx.world(), &base, &[CacheMode::Full]);
    let with = run_hit_rate_study(ctx.world(), &nightly, &[CacheMode::Full]);
    let mut table = Table::new(
        "§6.2.2: daily community updates (paper: 66% vs 65% — a ~1.5% gain)",
        &["configuration", "average hit rate"],
    );
    table.row(&[
        "monthly cache".to_owned(),
        format!("{:.3}", without.modes[0].average_hit_rate),
    ]);
    table.row(&[
        "daily updates".to_owned(),
        format!("{:.3}", with.modes[0].average_hit_rate),
    ]);
    println!("{}", table.render());
    println!(
        "delta: {:+.3} (paper: +0.015)\n",
        with.modes[0].average_hit_rate - without.modes[0].average_hit_rate
    );
}
