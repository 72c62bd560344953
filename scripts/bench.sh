#!/usr/bin/env bash
# Regenerate the committed benchmark artifacts.
#
# Runs the test-scale `--study frontend` and `--study arbiter` ablations
# (deterministic in the seed — every number is simulated device time, so
# the JSON is identical on any host) and writes, at the repo root:
#   BENCH_frontend.json — sim qps, hit ratio, p99 sim queue wait, and
#     coalesced/stolen counts per front-end config.
#   BENCH_arbiter.json  — static vs adaptive aggregate hit ratio plus the
#     per-epoch grant/priority log under the flipping skewed workload.
#   BENCH_wear.json     — hit ratio, corruption-shed rate, and re-fetch
#     radio bytes/energy across the wear-threshold x allocation sweep.
#   BENCH_population.json — the 1M-user streamed-day diurnal time series
#     plus O(users) residency counters. Always runs at full scale: the
#     million-user population is the point of the study.
#   BENCH_peers.json    — cooperative peer cells vs the solo baseline:
#     hit ratio, peer serves, false-positive probes, and radio vs
#     peer-link energy across the cell-size x summary-bits x skew sweep.
#   BENCH_hotpath.json  — wall-clock ns/lookup and qps at 1/8/32 threads,
#     locked (bench-local per-shard RwLock tables) vs lock-free (the
#     immutable FrozenTable shards of ShardedTable). Unlike
#     every other artifact this one is HOST-DEPENDENT (real time, the
#     workspace's one R2 carve-out) and is committed as a trajectory,
#     not a reproducible number. Committed at test scale: ~20k cached
#     pairs is the paper's pocket-sized community cache; at DRAM-bound
#     sizes both paths converge on memory latency.
#
# Usage: scripts/bench.sh [--full]   (--full runs the paper-scale sweeps;
# the committed artifacts are the test-scale ones, except the population
# study which is committed at full scale.)
set -euo pipefail
cd "$(dirname "$0")/.."

scale_flag="--scale test"
if [[ "${1:-}" == "--full" ]]; then
  scale_flag="--scale full"
fi

cargo run --release -q -p pocket-bench --bin ablations -- \
  --study frontend ${scale_flag} --seed 2011 --out BENCH_frontend.json

cargo run --release -q -p pocket-bench --bin ablations -- \
  --study arbiter ${scale_flag} --seed 2011 --out BENCH_arbiter.json

cargo run --release -q -p pocket-bench --bin ablations -- \
  --study wear ${scale_flag} --seed 2011 --out BENCH_wear.json

cargo run --release -q -p pocket-bench --bin ablations -- \
  --study population --scale full --seed 2011 --out BENCH_population.json

cargo run --release -q -p pocket-bench --bin ablations -- \
  --study peers ${scale_flag} --seed 2011 --out BENCH_peers.json

cargo run --release -q -p pocket-bench --bin ablations -- \
  --study hotpath --scale test --seed 2011 --out BENCH_hotpath.json
