//! The serve hot path, locked vs lock-free, on the wall clock.
//!
//! Two complementary views of the same contrast:
//!
//! * Criterion single-thread timings of the bench-local
//!   `pocket_bench::hotpath::LockedShards` baseline (per-shard
//!   read-locked tables) vs `ShardedTable::lookup` (immutable
//!   `FrozenTable` shards) — the per-call cost with no contention;
//! * a `pocket_bench::wallclock::thread_sweep` at 1/8/32 threads —
//!   the shape under contention, which is what the lock-free index
//!   buys. `ablations --study hotpath --out BENCH_hotpath.json` runs
//!   the same sweep at committed scale.
//!
//! All numbers here are host wall-clock time and machine-dependent by
//! design (the workspace's one R2 carve-out; see
//! `pocket_bench::wallclock`).

use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
use cloudlet_core::shard::ShardedTable;
use criterion::{criterion_group, criterion_main, Criterion};
use pocket_bench::hotpath::{mix64, LockedShards};
use pocket_bench::wallclock::thread_sweep;
use std::hint::black_box;

/// One table of `pairs` pairs, partitioned into `shards` both ways.
fn populated(pairs: u64, shards: usize) -> (ShardedTable, LockedShards) {
    let mut t = QueryHashTable::new();
    for q in 0..pairs / 2 {
        t.upsert(q, q + 1_000_000, 0.6, ConflictPolicy::Max);
        t.upsert(q, q + 2_000_000, 0.4, ConflictPolicy::Max);
    }
    (
        ShardedTable::from_table(&t, shards),
        LockedShards::from_table(&t, shards),
    )
}

fn bench_single_thread(c: &mut Criterion) {
    let (sharded, locked) = populated(8_000, 8);
    c.bench_function("hotpath/locked_lookup_hit", |b| {
        let mut q = 0u64;
        b.iter(|| {
            q = (q + 1) % 4_000;
            black_box(locked.lookup(black_box(q)))
        })
    });
    c.bench_function("hotpath/lockfree_lookup_hit", |b| {
        let mut q = 0u64;
        b.iter(|| {
            q = (q + 1) % 4_000;
            black_box(sharded.lookup(black_box(q)))
        })
    });
    c.bench_function("hotpath/lockfree_lookup_miss", |b| {
        b.iter(|| black_box(sharded.lookup(black_box(u64::MAX))))
    });
}

fn bench_thread_sweep(c: &mut Criterion) {
    // Criterion times one whole sweep repetition so the bench registers
    // in the harness; the printed table below is the readable output.
    let (sharded, baseline) = populated(8_000, 8);
    c.bench_function("hotpath/sweep_8_threads_lockfree", |b| {
        b.iter(|| {
            thread_sweep(8, 2_000, 1, |t, i| {
                let key = mix64(((t as u64) << 40) ^ i) % 4_000;
                black_box(sharded.lookup(black_box(key)));
            })
        })
    });

    println!("\nwall-clock thread sweep (locked vs lock-free, ns/lookup):");
    for threads in [1usize, 8, 32] {
        let ops = (64_000 / threads as u64).max(1);
        let locked = thread_sweep(threads, ops, 3, |t, i| {
            let key = mix64(((t as u64) << 40) ^ i) % 4_000;
            black_box(baseline.lookup(black_box(key)));
        });
        let lockfree = thread_sweep(threads, ops, 3, |t, i| {
            let key = mix64(((t as u64) << 40) ^ i) % 4_000;
            black_box(sharded.lookup(black_box(key)));
        });
        println!(
            "  {:>2} threads: locked {:>8.1} ns/op ({:>10.0} qps)  lock-free {:>8.1} ns/op \
             ({:>10.0} qps)  speedup {:.2}x",
            threads,
            locked.ns_per_op,
            locked.qps,
            lockfree.ns_per_op,
            lockfree.qps,
            locked.ns_per_op / lockfree.ns_per_op
        );
    }
}

criterion_group!(benches, bench_single_thread, bench_thread_sweep);
criterion_main!(benches);
