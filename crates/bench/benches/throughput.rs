//! Fleet serving throughput across shard counts.
//!
//! Serves the same Zipf `(user, query)` batch through a baseline search
//! front-end at 1, 4, and 16 shards. Two signals come out:
//!
//! * Criterion wall-clock timings of `serve_batch` (hardware-dependent —
//!   on a single-core host the sharded runs mostly measure scheduling,
//!   not speedup);
//! * a printed simulated-throughput table: per-shard busy time is summed
//!   in simulated device time, so `events / makespan` is
//!   machine-independent and is the number the scaling claim rests on.
//!   The aggregate hit ratio is printed alongside because sharding must
//!   not change it.
//!
//! A second group pits the pipelined front-end (coalescing + shared-read
//! hit path) against its PR 3 baseline configuration on the
//! duplicate-heavy Zipf batch, with the same two signals.

use cloudlet_core::frontend::FrontendConfig;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pocket_bench::{fleet_workload, frontend_workload, test_scale_study_inputs};
use pocketsearch::config::PocketSearchConfig;
use pocketsearch::engine::PocketSearch;
use pocketsearch::fleet::search_frontend;
use std::hint::black_box;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

fn bench_serve_batch(c: &mut Criterion) {
    let inputs = test_scale_study_inputs(21);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let requests = fleet_workload(&inputs, 64, 2_000, 77);

    let mut group = c.benchmark_group("fleet/serve_batch_2k");
    for shards in SHARD_COUNTS {
        let (_, frontend) = search_frontend(&engine, shards, FrontendConfig::pr3_baseline());
        group.bench_function(format!("{shards}_shards"), |b| {
            b.iter_batched(
                || requests.clone(),
                |batch| black_box(frontend.serve_batch(&batch)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // The machine-independent result: simulated throughput at one serving
    // lane per shard, with the hit ratio held exactly constant.
    println!("\nfleet simulated throughput (Zipf batch, 2000 events, 64 users)");
    println!(
        "{:>7}  {:>10}  {:>12}  {:>14}  {:>9}",
        "shards", "hits", "makespan s", "sim qps", "hit rate"
    );
    let mut baseline_qps = None;
    for shards in SHARD_COUNTS {
        let (_, frontend) = search_frontend(&engine, shards, FrontendConfig::pr3_baseline());
        let report = frontend.serve_batch(&requests).expect("fleet batch").report;
        let qps = report.throughput_qps();
        let speedup = match baseline_qps {
            None => {
                baseline_qps = Some(qps);
                String::from("1.00x")
            }
            Some(base) => format!("{:.2}x", qps / base),
        };
        println!(
            "{:>7}  {:>10}  {:>12.3}  {:>8.1} ({})  {:>9.4}",
            shards,
            report.totals().hits,
            report.makespan.as_secs_f64(),
            qps,
            speedup,
            report.totals().hit_rate()
        );
    }
}

/// The pipelined front-end against the PR 3 baseline on the
/// duplicate-heavy Zipf batch: Criterion wall-clock for both configs,
/// then the machine-independent simulated table (coalescing and the
/// shared-read hit path change *when* work runs, never its outcome, so
/// the hit ratio must print identically on every row).
fn bench_frontend_batch(c: &mut Criterion) {
    let inputs = test_scale_study_inputs(21);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let requests = frontend_workload(&inputs, 64, 2_000, 79);

    let configs = [
        ("baseline", FrontendConfig::pr3_baseline()),
        ("optimized", FrontendConfig::default()),
    ];
    let mut group = c.benchmark_group("frontend/serve_batch_2k");
    for (name, config) in configs {
        let (_, frontend) = search_frontend(&engine, 8, config);
        group.bench_function(name, |b| {
            b.iter_batched(
                || requests.clone(),
                |batch| black_box(frontend.serve_batch(&batch)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    println!("\nfront-end simulated throughput (duplicate-heavy Zipf, 2000 events, 8 lanes)");
    println!(
        "{:>10}  {:>8}  {:>10}  {:>14}  {:>9}",
        "config", "hits", "coalesced", "sim qps", "hit rate"
    );
    let mut baseline_qps = None;
    for (name, config) in configs {
        let (_, frontend) = search_frontend(&engine, 8, config);
        let batch = frontend.serve_batch(&requests).expect("front-end batch");
        let report = &batch.report;
        let qps = report.throughput_qps();
        let speedup = match baseline_qps {
            None => {
                baseline_qps = Some(qps);
                String::from("1.00x")
            }
            Some(base) => format!("{:.2}x", qps / base),
        };
        println!(
            "{:>10}  {:>8}  {:>10}  {:>8.1} ({})  {:>9.4}",
            name,
            report.totals().hits,
            report.totals().coalesced,
            qps,
            speedup,
            report.totals().hit_rate()
        );
    }
}

fn bench_serve_one(c: &mut Criterion) {
    let inputs = test_scale_study_inputs(21);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let requests = fleet_workload(&inputs, 64, 512, 78);
    let (_, frontend) = search_frontend(&engine, 16, FrontendConfig::pr3_baseline());
    let mut i = 0;
    c.bench_function("fleet/serve_one", |b| {
        b.iter(|| {
            i = (i + 1) % requests.len();
            black_box(frontend.serve_one(black_box(requests[i])))
        })
    });
}

criterion_group!(
    benches,
    bench_serve_batch,
    bench_frontend_batch,
    bench_serve_one
);
criterion_main!(benches);
