#!/usr/bin/env bash
# Full local gate: what CI runs, in the order a developer wants failures
# surfaced. Works fully offline — every external dependency resolves to
# a vendored path crate (see [workspace.dependencies] in Cargo.toml).
# The root manifest's `default-members` makes every cargo command below
# cover the facade and all member crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo fmt --check (pipeline-bench is its own workspace; the root check skips it)"
cargo fmt --check --manifest-path pipeline-bench/Cargo.toml

echo "==> cloudlet-analysis lint (policy rules R1-R6)"
cargo run -q --locked --offline -p cloudlet-analysis --bin lint -- --root .

echo "==> cargo build --release --locked --offline"
cargo build --release --locked --offline

echo "==> examples (each runs to a zero exit)"
for example in examples/*.rs; do
    cargo run --release --quiet --locked --offline --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> scripts/bench.sh --check (deterministic BENCH_*.json and results/*.txt regenerate byte-identical)"
scripts/bench.sh --check

echo "==> cargo test -q --no-fail-fast --locked --offline (every test binary runs; any failure still fails the step)"
cargo test -q --no-fail-fast --locked --offline

echo "==> pipeline-bench tests (the end-to-end benchmark package builds and runs; --locked fails if its Cargo.lock would change)"
cargo test -q --no-fail-fast --locked --offline --manifest-path pipeline-bench/Cargo.toml

echo "==> pipeline --workload all (full-size correctness: exits 1 if an input digest or population-day's pinned event count or hit ratio moves)"
cargo run --release --quiet --offline --locked --manifest-path pipeline-bench/Cargo.toml --bin pipeline -- --workload all --seed 2011 --seconds 1 --trace 0 >/dev/null

echo "==> cargo clippy --all-targets --locked --offline -- -D warnings"
cargo clippy --all-targets --locked --offline -- -D warnings

echo "==> cargo doc --no-deps --locked --offline (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet --locked --offline

echo "All checks passed."
