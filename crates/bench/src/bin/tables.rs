//! Regenerates every table of the Pocket Cloudlets paper.
//!
//! ```text
//! tables [--table <id>] [--scale test|full] [--seed N]
//!   ids: 1 2 3 4 5 6 dedup all
//! ```
//!
//! An unknown id or a malformed flag exits 2 before any output.

use std::process::ExitCode;

use mobsim::browser::{BrowserModel, PageWeight};
use mobsim::device::Device;
use mobsim::flash::FlashModel;
use mobsim::radio::RadioKind;
use mobsim::time::SimDuration;
use nvmscale::{CloudletBudget, ScalingTrends};
use pocket_bench::{RunContext, Sections, StudyInputs, Table};
use pocketsearch::navigation::{navigation_speedup, navigation_time};
use querylog::analysis::stats::LogStats;
use querylog::users::UserClass;

const SECTIONS: Sections = Sections {
    flag: "--table",
    noun: "table",
    ids: &["1", "2", "3", "4", "5", "6", "dedup"],
    out_ids: &[],
};

fn main() -> ExitCode {
    let ctx = match RunContext::from_env(&SECTIONS) {
        Ok(ctx) => ctx,
        Err(code) => return code,
    };
    ctx.print_header("table reproduction");
    for t in &ctx.ids {
        match t.as_str() {
            "1" => table1(),
            "2" => table2(),
            "3" => table3(ctx.world()),
            "4" => table4(ctx.world()),
            "5" => table5(),
            "6" => table6(ctx.world()),
            "dedup" => dedup(ctx.world()),
            other => unreachable!("table {other:?} was validated by the parser"),
        }
    }
    ExitCode::SUCCESS
}

fn table1() {
    let trends = ScalingTrends::paper_table1();
    let mut table = Table::new(
        "Table 1: technology scaling trends",
        &[
            "year",
            "tech (nm)",
            "scaling factor",
            "chip stack",
            "cell layers",
            "bits/cell",
            "technology",
        ],
    );
    for n in trends.iter() {
        table.row(&[
            n.year.to_string(),
            n.feature_nm.to_string(),
            n.scaling_factor.to_string(),
            n.chip_stack.to_string(),
            n.cell_layers.to_string(),
            n.bits_per_cell.to_string(),
            n.technology.to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn table2() {
    let budget = CloudletBudget::paper_table2();
    let mut table = Table::new(
        format!(
            "Table 2: items storable in {} (10% of a 256 GB low-end phone)",
            budget.bytes()
        ),
        &[
            "pocket cloudlet",
            "single item",
            "measured items",
            "paper items",
        ],
    );
    for est in budget.table2() {
        table.row(&[
            est.kind.to_string(),
            format!("{} ({})", est.item_size, est.kind.item_description()),
            est.items.to_string(),
            est.kind.paper_item_count().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "mapping coverage at 300x300 m tiles: {:.0} km^2 (a whole US state); web-content headroom vs 1,000 visited URLs: {:.1}x (paper: 17x)\n",
        budget.map_coverage_km2(300.0),
        budget.web_content_headroom(1_000)
    );
}

fn table3(inputs: &StudyInputs) {
    let mut table = Table::new(
        "Table 3: top query-search result pairs by volume",
        &["query", "search result", "volume", "normalized"],
    );
    for (i, t) in inputs.triplets.iter().take(10).enumerate() {
        table.row(&[
            inputs.universe.query(t.query).text.clone(),
            inputs.universe.result(t.result).url.clone(),
            t.volume.to_string(),
            format!("{:.4}", inputs.triplets.normalized_volume(i)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "total volume: {} over {} distinct pairs\n",
        inputs.triplets.total_volume(),
        inputs.triplets.len()
    );
}

fn table4(inputs: &StudyInputs) {
    // Measure the real fetch time from the evaluation-size database.
    let mut flash = mobsim::flash::FlashStore::new(FlashModel::default());
    let db = flashdb::ResultDb::build(
        inputs.community_records(),
        flashdb::DbConfig::default(),
        &mut flash,
    );

    // Like the paper: average the fetch over 100 random cached queries
    // (each displaying its top-two results).
    let pairs = inputs.contents.pairs();
    let mut total = SimDuration::ZERO;
    let samples = 100usize;
    for i in 0..samples {
        let a = pairs[(i * 37) % pairs.len()].result_hash;
        let b = pairs[(i * 101 + 13) % pairs.len()].result_hash;
        let (_, t) = db
            .get_many([a, b], &flash)
            .expect("sampled results are stored");
        total += t;
    }
    let fetch = total.scale(1.0 / samples as f64);

    let mut device = Device::with_defaults();
    let report = device.serve_cache_hit(fetch);
    let b = report.breakdown;
    let share =
        |d: SimDuration| format!("{:.1}%", d.ratio(report.total_time).unwrap_or(0.0) * 100.0);
    let mut table = Table::new(
        "Table 4: PocketSearch user response time breakdown (paper: 0.01 / 10 / 361 / 7 ms, 378 ms total)",
        &["operation", "average time (ms)", "percentage"],
    );
    table.row(&[
        "Hash Table Lookup".to_owned(),
        format!("{:.2}", b.lookup.as_millis_f64()),
        share(b.lookup),
    ]);
    table.row(&[
        "Fetch Search Results".to_owned(),
        format!("{:.2}", b.fetch.as_millis_f64()),
        share(b.fetch),
    ]);
    table.row(&[
        "Browser Rendering".to_owned(),
        format!("{:.2}", b.render.as_millis_f64()),
        share(b.render),
    ]);
    table.row(&[
        "Miscellaneous".to_owned(),
        format!("{:.2}", b.misc.as_millis_f64()),
        share(b.misc),
    ]);
    table.row(&[
        "Total".to_owned(),
        format!("{:.2}", report.total_time.as_millis_f64()),
        "100%".to_owned(),
    ]);
    println!("{}", table.render());
}

fn table5() {
    let browser = BrowserModel::default();
    let mut device = Device::with_defaults();
    let pocket = device
        .serve_cache_hit(SimDuration::from_millis(10))
        .total_time;
    let mut device = Device::with_defaults();
    let threeg = device.serve_via_radio(RadioKind::ThreeG).total_time;

    let mut table = Table::new(
        "Table 5: navigation user response time (paper: 15.378/21.048 s and 30.378/36.048 s; speedups 28.7% / 16.7%)",
        &["page", "PocketSearch", "3G", "speedup over 3G"],
    );
    for page in PageWeight::ALL {
        table.row(&[
            page.to_string(),
            format!(
                "{:.3} s",
                navigation_time(pocket, page, &browser).as_secs_f64()
            ),
            format!(
                "{:.3} s",
                navigation_time(threeg, page, &browser).as_secs_f64()
            ),
            format!("{:.1}%", navigation_speedup(pocket, threeg, page, &browser)),
        ]);
    }
    println!("{}", table.render());
}

fn table6(inputs: &StudyInputs) {
    let stats = LogStats::compute(&inputs.replay_month);
    let mut table = Table::new(
        "Table 6: user classes by monthly query volume",
        &[
            "class",
            "monthly volume",
            "measured % of users",
            "paper % of users",
        ],
    );
    for class in UserClass::ALL {
        let (lo, hi) = class.volume_range();
        let range = if class == UserClass::Extreme {
            format!("[{lo},inf)")
        } else {
            format!("[{lo},{hi})")
        };
        table.row(&[
            class.to_string(),
            range,
            format!("{:.0}%", stats.class_share(class) * 100.0),
            format!("{:.0}%", class.population_share() * 100.0),
        ]);
    }
    println!("{}", table.render());
}

fn dedup(inputs: &StudyInputs) {
    let stats = LogStats::compute(&inputs.build_month);
    println!("== §5.2.1: store-once deduplication ==");
    println!(
        "unique results / unique queries in the logs: {:.2} (paper: ~0.6 at the popular head)",
        stats.unique_result_fraction()
    );

    // Compare the real database against the naive one-file-per-pair layout.
    let model = FlashModel::default();
    let mut flash = mobsim::flash::FlashStore::new(model);
    let records: Vec<_> = inputs.community_records().collect();
    let per_pair_naive: u64 = records
        .iter()
        .map(|r| model.allocated_bytes(r.encoded_len() as u64))
        .sum();
    let db = flashdb::ResultDb::build(records, flashdb::DbConfig::default(), &mut flash);
    let aggregated = db.stats(&flash).allocated_bytes;

    println!(
        "aggregated store-once database: {:.0} KB; one file per query-result pair: {:.0} KB; savings {:.1}x (paper: ~8x)\n",
        aggregated as f64 / 1_000.0,
        per_pair_naive as f64 / 1_000.0,
        per_pair_naive as f64 / aggregated as f64
    );
}
