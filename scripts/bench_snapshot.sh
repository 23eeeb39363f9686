#!/usr/bin/env sh
# Performance snapshot of the query engine, seeding the perf trajectory:
#
#   1. the criterion benches covering the read path (`query_engine`:
#      full scan vs `since τ` window, plan cache, compiled predicates;
#      `cache_paths`: insert/select round trips) — human-readable timing
#      per iteration;
#   2. scripts/bench_query.sh, which writes BENCH_query.json (full-scan
#      vs 1%-window selects, 8- vs 16,384-group sums) and fails if
#      either of its two acceptance floors — declared there, once — is
#      missed.
set -eu

cd "$(dirname "$0")/.."

echo "==> criterion: query engine"
cargo bench -p cep_bench --bench query_engine

echo "==> criterion: cache paths"
cargo bench -p cep_bench --bench cache_paths

sh scripts/bench_query.sh

echo "benchmark snapshot complete"
