#!/usr/bin/env sh
# Performance snapshot of the query engine, seeding the perf trajectory:
#
#   1. the criterion benches covering the read path (`query_engine`:
#      full scan vs `since τ` window, plan cache, compiled predicates;
#      `cache_paths`: insert/select round trips) — human-readable timing
#      per iteration;
#   2. the `bench_query` binary, which measures ops/sec for a full-scan
#      vs a 1%-window select at 1k/10k/100k rows, and for a 50k-row
#      grouped sum into 8 and into 16,384 groups, and writes the result
#      to BENCH_query.json at the repository root.
#
# The acceptance bars are a >= 10x window speedup at 100k rows for the
# zero-copy engine, and a 16,384-group / 8-group ops/s ratio >= 0.03
# for the hashed group lookup (a per-row scan of every group measures
# ~0.001); the script fails if BENCH_query.json misses either. The
# floor is enforced by the bench crate's `check_floor` binary: a missing
# file, missing key, or unparsable metric is a hard failure — a bench
# that did not produce its number must never count as a pass.
set -eu

cd "$(dirname "$0")/.."

echo "==> criterion: query engine"
cargo bench -p cep_bench --bench query_engine

echo "==> criterion: cache paths"
cargo bench -p cep_bench --bench cache_paths

echo "==> snapshot: BENCH_query.json"
cargo run --release -p cep_bench --bin bench_query

cargo run --release -q -p cep_bench --bin check_floor -- \
    BENCH_query.json window_speedup 10.0 \
    "100k-row 1% window speedup"
cargo run --release -q -p cep_bench --bin check_floor -- \
    BENCH_query.json groupby_card_ratio 0.03 \
    "50k-row group-by, 16384-group / 8-group ops/s"

echo "benchmark snapshot complete"
