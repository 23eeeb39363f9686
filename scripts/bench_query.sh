#!/usr/bin/env sh
# Query engine performance snapshot: ops/sec for a full-scan vs a
# 1%-window select at 1k/10k/100k rows, and for a 50k-row grouped sum
# into 8 and into 16,384 groups. Writes BENCH_query.json at the
# repository root and fails if either acceptance floor is missed:
#
#   window_speedup >= 10        the zero-copy `since τ` window at 100k rows
#   groupby_card_ratio >= 0.03  16,384-group / 8-group ops/s; a group
#                               lookup that scans every group per row
#                               measures ~0.001, a hashed lookup stays
#                               within a few times (~0.1-0.3)
#
# Floors are enforced by the bench crate's `check_floor` binary: a
# missing file, missing key, or unparsable metric is a hard failure —
# a bench that did not produce its number must never count as a pass.
set -eu

cd "$(dirname "$0")/.."

echo "==> snapshot: BENCH_query.json"
cargo run --release -p cep_bench --bin bench_query

cargo run --release -q -p cep_bench --bin check_floor -- \
    BENCH_query.json window_speedup 10.0 \
    "100k-row 1% window speedup"
cargo run --release -q -p cep_bench --bin check_floor -- \
    BENCH_query.json groupby_card_ratio 0.03 \
    "50k-row group-by, 16384-group / 8-group ops/s"

echo "query snapshot complete"
