#!/usr/bin/env bash
# The full local CI gate: release build, the umbrella, workspace and
# benchmark test suites, and the static-analysis gate — everything a change
# must pass before merging.
#
#   scripts/ci.sh
#
# Runs every phase even when an earlier one fails, so one invocation
# reports every broken gate; exits non-zero if any phase failed.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

echo "== ci: cargo build --release =="
cargo build --release || status=$?

echo
echo "== ci: cargo test -q =="
cargo test -q || status=$?

echo
echo "== ci: cargo test --workspace -q =="
# Every member crate's unit and integration tests (the phase above runs
# only the umbrella crate's).
cargo test --workspace -q || status=$?

echo
echo "== ci: cargo test perfbench =="
# The benchmark package is not a workspace member, so the phases above never
# build it; this one catches a renamed entry point it calls.
cargo test --offline -q --manifest-path perfbench/Cargo.toml || status=$?

echo
echo "== ci: static-analysis gate =="
scripts/analyze.sh || status=$?

echo
echo "== ci: kernel bench smoke =="
# One fast iteration at shrunken shapes: proves the benchmark harness and
# the optimized-vs-reference kernel pairing still run; writes no snapshot.
scripts/bench.sh --smoke || status=$?

echo
echo "== ci: trace smoke =="
# One traced lesson under a seeded fault plan: the exported chrome-trace
# must be byte-identical across two replays and show all seven stages.
scripts/trace.sh || status=$?

echo
echo "== ci: kernel regression gate =="
# Re-measures the optimized kernels at the committed shapes and fails if
# the aggregate is >5% slower than BENCH_kernels.json — keeps telemetry
# (and everything else) off the numeric hot paths.
cargo build --release -q -p autolearn-bench --bin kernel_bench || status=$?
./target/release/kernel_bench --check BENCH_kernels.json || status=$?

echo
echo "== ci: analyzer baseline ratchet =="
# Fails on any finding count above the committed snapshot; when counts
# shrink, the snapshot is rewritten in place — commit the updated file.
cargo run -q -p autolearn-analyze -- --workspace \
    --baseline crates/analyze/analyze-baseline.json || status=$?

echo
if [ "$status" -eq 0 ]; then
    echo "ci: all gates green"
else
    echo "ci: FAILED (status $status)"
fi
exit "$status"
