#!/usr/bin/env bash
# The A/A self-test: build once, run every workload twice untraced and
# twice traced on one commit, and hold the two sets against each other
# with the benchmark's own bounds. Exits non-zero if any op failed, if a
# bounded metric differs by more than its bound in either direction, or
# if a count, digest or makespan is not identical.
#
#   benchmark/run.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/mlm-benchmark"
out=benchmark/out
mkdir -p "$out"
seed="${1:-1}"

"$bin" run --all --seed "$seed" --out "$out/a.json"
"$bin" run --all --seed "$seed" --out "$out/b.json"
"$bin" run --all --seed "$seed" --trace --out "$out/trace-a.json"
"$bin" run --all --seed "$seed" --trace --out "$out/trace-b.json"

# `compare BASE NEW` asks whether NEW is worse; agreement is both ways.
"$bin" compare "$out/a.json" "$out/b.json"
"$bin" compare "$out/b.json" "$out/a.json"
"$bin" compare "$out/trace-a.json" "$out/trace-b.json"
echo "A/A self-test passed: reports and traces are under $out/"
