#!/usr/bin/env bash
# Offline CI for the mcs workspace: feature-matrix release builds, the full
# test suite with debug-checks active and its golden, equivalence,
# snoop-filter, engine, fault and JSONL-digest tests again without them,
# clippy with warnings denied (which also rejects
# unwrap/expect/unreachable!/panic! in non-test mcs-model, mcs-cache,
# mcs-protocols, mcs-core, mcs-sim, mcs-obs, mcs-faults and mcs-workloads
# code), rustdoc with warnings denied (a broken
# intra-doc link fails), fault and observability smoke runs, and a
# benchmark smoke that checks every simbench workload's golden digests and
# a calibrated throughput floor on dense_sharing. No network access required or attempted.
set -euo pipefail
cd "$(dirname "$0")"

# Feature matrix. A workspace-wide build unifies mcs-sim's default
# `debug-checks` feature on (the `mcs` root package re-enables it), so the
# oracles and invariant sweeps compile everywhere tests run. Building
# mcs-sim and mcs-bench alone exercises the benchmark configuration, where
# the workspace dependency's `default-features = false` leaves the checks
# out of the simulator entirely. The -p mcs-bench build runs last so the
# faultmatrix/obsreport binaries left in target/release are the checks-off
# ones the smoke steps below run.
cargo build --release --offline --workspace
cargo build --release --offline -p mcs-sim --no-default-features
cargo build --release --offline -p mcs-bench

# Tier-1 tests (dev profile), with debug-checks on via unification: every
# transaction runs the write oracle, the snoop-filter exactness sweep, and
# the replacement recency-ring consistency check.
cargo test -q --offline --workspace
# The same golden digests, engine-mode equivalence, whole-state
# snoop-filter mask checks (across I/O transfers, and at 130 and 256
# processors), and the engine and fault suites (busy-wait register wakes,
# timeouts, lost unlock broadcasts) with debug-checks compiled out: the
# configuration simbench ships. Code on both sides of
# `cfg!(feature = "debug-checks")` must give the same runs and keep the
# masks exact.
cargo test -q --offline -p mcs-sim --no-default-features --test golden_stats --test equivalence --test snoop_filter --test engine --test faults
# The JSONL digests of the ten E2 streams and the fault stream, which pin
# the order of the state-change, lock and bus events. mcs-bench alone
# builds the simulator without debug-checks, as simbench does.
cargo test -q --offline -p mcs-bench --test obs_smoke
# Warnings denied. mcs-model, mcs-cache, mcs-protocols, mcs-core, mcs-sim,
# mcs-obs, mcs-faults and mcs-workloads warn on
# `unwrap`/`expect`/`unreachable!`/`panic!` outside tests, so a panicking
# path in the engine, a protocol, a sink, the cache store, a fault plan or
# a workload fails here: a closed pipe cannot abort a run, and a broken
# invariant surfaces as a typed error.
cargo clippy --workspace --all-targets --offline -- -D warnings
# Rustdoc warnings denied too: an intra-doc link to a renamed or deleted
# item fails here instead of rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# No process-global modes: a mutable static (an atomic, lock, once-cell
# or cell, or `static mut`) in crate sources would let one caller steer
# other runs from a distance. A run's configuration belongs at its call
# site, in its `RunSpec` or `SystemConfig`.
if grep -rnE '^\s*(pub(\([a-z]+\))?\s+)?static\s+(mut\s|[A-Za-z0-9_]+\s*:[^=]*(Atomic|Mutex|RwLock|OnceLock|Cell))' crates/*/src; then
  echo "ci.sh: mutable static declared in crates/*/src (listed above)" >&2
  exit 1
fi

# Fault-matrix smoke: every seeded fault scenario must terminate in a
# structured, deterministic way — no panic, no hang. The wall-clock
# `timeout` is the outer liveness guard; the matrix itself arms the
# in-simulation watchdog in every cell.
timeout 300 ./target/release/faultmatrix

# Observability smoke: export a JSONL trace of two contenders in each cell
# obsreport opens (E2's and E3's) and pipe each through the in-tree
# validator (every line parses, meta header first, cycles monotonically
# non-decreasing).
OBS_DIR=target/obs-smoke
mkdir -p "$OBS_DIR"
for exp in e2 e3; do
  for proto in bitar-despain illinois; do
    out="$OBS_DIR/$exp-$proto.jsonl"
    ./target/release/obsreport --experiment "$exp" --protocol "$proto" \
      --json-trace --out "$out"
    ./target/release/obsreport validate "$out"
  done
done

# Benchmark correctness smoke: every simbench workload must reproduce its
# golden Stats, JSONL and report digests, which the last output line
# reports as `"correct": true`.
# One traced lock_handoff run too: the traced run wraps the protocol,
# workload and sinks to count snoops per transaction, and must reproduce
# the untraced digests. The result line is left in `last` for the perf
# gate below.
simbench_correct() {
  local workload=$1 trace=$2
  last=$(python3 simbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace "$trace" | tail -n 1)
  case "$last" in
    *'"correct": true'*) ;;
    *) echo "ci.sh: simbench $workload (trace $trace) is not correct: $last" >&2; exit 1 ;;
  esac
}

# Perf gate: the dense_sharing run must keep its calibrated refs_per_s
# (retired references per host second, scaled by simbench's calibration
# kernel) above this floor: just over half the 3.67M median of 12 such 3 s
# runs at commit 15f1a10 on a 2-core "Intel(R) Xeon(R) Processor" host
# (range 3.17M-3.72M). Generous on purpose: it catches "the hot path fell
# off a cliff", not noise.
DENSE_REFS_PER_S_FLOOR=1840000
simbench_correct dense_sharing 0
python3 -c '
import json, sys
refs = json.loads(sys.argv[1])["metrics"]["refs_per_s"]["value"]
floor = float(sys.argv[2])
if refs < floor:
    sys.exit(f"ci.sh: perf gate failed: dense_sharing refs_per_s {refs:.0f} is below the floor {floor:.0f}")
print(f"ci.sh: perf gate: dense_sharing refs_per_s {refs:.0f} (floor {floor:.0f})")
' "$last" "$DENSE_REFS_PER_S_FLOOR"

for workload in lock_handoff observed_locks experiment_suite; do
  simbench_correct "$workload" 0
done
simbench_correct lock_handoff 1
echo "ci.sh: all checks passed"
