#!/usr/bin/env bash
# Tier-1 verify loop: configure, build everything, run the full test suite.
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

bash scripts/check_docs_links.sh
bash scripts/check_format_spec.sh
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Per-stage throughput gate: run the bench-smoke shape and compare every
# stage's records/sec against the committed baseline floors.
"$BUILD_DIR"/bench/bench_throughput --n=400 --d=64 --k=2 --shards=3 \
  --threads=2 --protocol=future_rand --dedup --checkpoint-mode=delta \
  --corrupt-rate=0.2 --json \
  > "$BUILD_DIR/bench_smoke.json"
bash scripts/check_bench_regression.sh "$BUILD_DIR/bench_smoke.json"

# Same gate for the sketch store: the hash-bucketed hot path has its own
# floors (bench/baseline/bench_smoke_sketch_baseline.json).
"$BUILD_DIR"/bench/bench_throughput --n=400 --d=64 --k=2 --shards=3 \
  --threads=2 --protocol=future_rand --dedup --checkpoint-mode=delta \
  --corrupt-rate=0.2 --store=sketch --sketch-rows=3 --sketch-width=16 --json \
  > "$BUILD_DIR/bench_smoke_sketch.json"
bash scripts/check_bench_regression.sh "$BUILD_DIR/bench_smoke_sketch.json" \
  bench/baseline/bench_smoke_sketch_baseline.json
