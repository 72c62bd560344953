//! A day in the life of one mobile user: morning news check, lunchtime
//! searches, an evening browse — then the phone goes on the charger and
//! runs the §5.4 nightly update. Prints the power story of the day and
//! what the personalization component learned.
//!
//! ```text
//! cargo run --example day_in_the_life
//! ```

use pocket_cloudlets::core::update::UpdateServer;
use pocket_cloudlets::prelude::*;
use pocket_cloudlets::querylog::ids::UserId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 1234);
    let build_month = generator.generate_month();
    let triplets = TripletTable::from_log(&build_month);
    let contents = CacheContents::generate(
        &triplets,
        &UniverseCorpus::new(generator.universe()),
        AdmissionPolicy::CumulativeShare { share: 0.55 },
    );
    let catalog = Catalog::new(generator.universe());
    let mut pocket = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());

    // Pick a medium-volume user and take one day of their next month.
    let next_month = generator.generate_month();
    let user = next_month
        .users()
        .into_iter()
        .map(|u| (u, next_month.user_stream(u)))
        .find(|(_, s)| s.len() >= 60)
        .map(|(u, _)| u)
        .unwrap_or(UserId::new(0));
    let stream = next_month.user_stream(user);
    println!(
        "user {user}: {} queries this month; replaying their day...\n",
        stream.len()
    );

    let mut hits = 0usize;
    for (i, entry) in stream.iter().take(10).enumerate() {
        let query_hash = catalog.query_hash(entry.query);
        let served = pocket.serve(query_hash);
        let text = &generator.universe().query(entry.query).text;
        println!(
            "{:>2}. {:<22} {:>9}  {}",
            i + 1,
            format!("\"{text}\""),
            served.report.total_time.to_string(),
            if served.hit {
                "served from pocket"
            } else {
                "3G radio"
            },
        );
        hits += usize::from(served.hit);
        pocket.click(query_hash, catalog.result_hash(entry.result), || {
            catalog.record(entry.result)
        });
        // The phone dozes between queries.
        pocket.device_mut().idle(SimDuration::from_secs(120));
    }

    let meter = pocket.device().meter();
    let peak = meter.peak_power().ok_or("the day should not be empty")?;
    println!(
        "\nday so far: {hits}/10 hits, {:.1} s of activity, {:.1} J dissipated, peak draw {peak}",
        meter.busy_time().as_secs_f64(),
        meter.total().joules(),
    );

    // Overnight, on the charger: upload the table, receive the merged
    // cache and database patches (§5.4).
    let server = UpdateServer::from_contents(&contents, RankingPolicy::default());
    let report = pocket.nightly_update(&server, &catalog)?;
    println!(
        "\nnightly update: uploaded {:.0} KB, downloaded {:.0} KB, {} records patched in, {} dropped",
        report.upload_bytes as f64 / 1_000.0,
        report.download_bytes as f64 / 1_000.0,
        report.patch.added,
        report.patch.removed,
    );
    println!(
        "cache now holds {} pairs; tomorrow starts warm.",
        pocket.cache().table().pair_count()
    );
    Ok(())
}
