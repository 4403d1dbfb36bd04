#!/usr/bin/env bash
# Offline CI for the mcs workspace: feature-matrix release builds, the full
# test suite with debug-checks active, clippy with warnings denied, a perf
# smoke against the committed hot-path baselines, an observability smoke
# run, and a benchmark correctness smoke. No network access required or
# attempted.
set -euo pipefail
cd "$(dirname "$0")"

# Feature matrix. A workspace-wide build unifies mcs-sim's default
# `debug-checks` feature on (the `mcs` root package re-enables it), so the
# oracles and invariant sweeps compile everywhere tests run. Building
# mcs-sim and mcs-bench alone exercises the benchmark configuration, where
# the workspace dependency's `default-features = false` leaves the checks
# out of the simulator entirely. The -p mcs-bench build runs last so the
# bench_engine/obsreport binaries left in target/release are the
# checks-off ones the smoke steps below should measure.
cargo build --release --offline --workspace
cargo build --release --offline -p mcs-sim --no-default-features
cargo build --release --offline -p mcs-bench

# Tier-1 tests (dev profile), with debug-checks on via unification: every
# transaction runs the write oracle, the snoop-filter exactness sweep, and
# the replacement flag-mirror consistency check.
cargo test -q --offline --workspace
cargo clippy --workspace --all-targets --offline -- -D warnings

# Perf smoke: require random-sharing throughput to stay above half the
# committed BENCH_hotpath.json figure. Generous on purpose — it catches
# "the hot path fell off a cliff", not noise.
./target/release/bench_engine --smoke BENCH_hotpath.json

# Fault-matrix smoke: every seeded fault scenario must terminate in a
# structured, deterministic way — no panic, no hang. The wall-clock
# `timeout` is the outer liveness guard; the matrix itself arms the
# in-simulation watchdog in every cell.
timeout 300 ./target/release/faultmatrix

# Observability smoke: export a JSONL trace for two E2 contenders and pipe
# each through the in-tree validator (every line parses, meta header first,
# cycles monotonically non-decreasing).
OBS_DIR=target/obs-smoke
mkdir -p "$OBS_DIR"
for proto in bitar-despain illinois; do
  out="$OBS_DIR/e2-$proto.jsonl"
  ./target/release/obsreport --experiment e2 --protocol "$proto" \
    --json-trace --out "$out"
  ./target/release/obsreport validate "$out"
done

# Benchmark correctness smoke: every simbench workload must reproduce its
# golden Stats, JSONL and report digests, which the last output line
# reports as `"correct": true`.
for workload in dense_sharing lock_handoff observed_locks experiment_suite; do
  last=$(python3 simbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct": true'*) ;;
    *) echo "ci.sh: simbench $workload is not correct: $last" >&2; exit 1 ;;
  esac
done
echo "ci.sh: all checks passed"
