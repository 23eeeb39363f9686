#!/usr/bin/env sh
# The tier-1 gate as a single command — or stage by stage.
#
#   scripts/ci.sh                 run every stage
#   scripts/ci.sh build test      run only the named stages
#   CI_SKIP_BENCH=1 scripts/ci.sh skip the benchmark floors (escape
#                                 hatch for machines whose disk/timer
#                                 behaviour makes floors meaningless)
#
# Stages (each is a named step in .github/workflows/ci.yml so failures
# are attributable at a glance):
#
#   fmt     cargo fmt --check over the whole workspace
#   clippy  cargo clippy --all-targets with warnings promoted to errors
#   build   release build of the whole workspace (vendored deps only,
#           no network access required)
#   test    the full test suite (unit, integration, property suites)
#   docs    rustdoc -D warnings + every doctest (scripts/check_docs.sh)
#   cluster the multi-node scenario gate: 2 partitions x (durable
#           primary + durable follower) over real sockets, one primary
#           killed and its follower promoted — no acked write lost,
#           scatter-gather intact, subscriptions resume exactly-once —
#           plus the differential property suite proving a partitioned
#           cluster is indistinguishable from one cache
#   bench   the benchmark floors: query-window >= 10x and group-by
#           cardinality ratio (16,384-group / 8-group ops/s) >= 0.03
#           (BENCH_query.json), fan-out >= 10x (BENCH_fanout.json),
#           WAL group commit >= 5x (BENCH_wal.json), replication
#           drained + follower reads within 2x (BENCH_repl.json),
#           RPC pipelining >= 10x the serial read ceiling at 16
#           connections (BENCH_rpc.json), protection layer — dedup
#           within 10% of the untokened hot path and flood fairness
#           >= 0.5 (BENCH_protect.json), lock-free read path —
#           snapshot selects >= 4x the mutex baseline at 8 readers
#           with writer throughput >= 0.8x (BENCH_readpath.json),
#           cluster sharding — 2-partition durable write speedup
#           >= 1.6x over a single primary (BENCH_cluster.json),
#           observability — instrumented RPC and select throughput
#           both >= 0.95x the metrics(false) build (BENCH_obs.json)
#   perfbench the end-to-end benchmark's own test
#           (perfbench/test_repeat.py): every workload's traced run
#           passes its reference checks, exact counts repeat for one
#           seed, and the generated inputs change with the seed
#
# Every floor is parsed hard by the bench crate's `check_floor` binary:
# a missing or unparsable metric fails the gate — a bench that did not
# produce its number never counts as a pass.
set -eu

cd "$(dirname "$0")/.."

# ---------------------------------------------------------------------
# Stage plumbing: run_stage <name> <fn> wraps a stage with wall-clock
# timing; the summary at the end shows where the gate spends its time.
# ---------------------------------------------------------------------
STAGES_RUN=""
TIMINGS=""

run_stage() {
    stage_name=$1
    stage_fn=$2
    echo ""
    echo "==> stage: ${stage_name}"
    stage_start=$(date +%s)
    "${stage_fn}"
    stage_end=$(date +%s)
    stage_secs=$((stage_end - stage_start))
    TIMINGS="${TIMINGS}${stage_name}:${stage_secs}s "
    STAGES_RUN="${STAGES_RUN}${stage_name} "
}

# require_floor <json-file> <key> <floor> <description>
# Delegates to the bench crate's `check_floor` binary, which parses the
# snapshot with a real number scanner (scientific notation, negative
# values and reformatting are handled, unlike the `grep -o` scraper it
# replaced) and fails hard when the key is absent, unparsable, or below
# the floor.
require_floor() {
    cargo run --release -q -p cep_bench --bin check_floor -- "$@"
}

# ---------------------------------------------------------------------
# Stages.
# ---------------------------------------------------------------------
stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --all-targets -- -D warnings
}

stage_build() {
    cargo build --release
}

stage_test() {
    cargo test -q
}

stage_docs() {
    sh scripts/check_docs.sh
}

stage_bench() {
    if [ "${CI_SKIP_BENCH:-0}" = "1" ]; then
        # Every floor that would have run is named: a skipped gate must
        # read as "10 floors NOT checked", never as a quiet pass.
        for floor in \
            "query window_speedup >= 10" \
            "query groupby_card_ratio >= 0.03" \
            "fanout speedup >= 10" \
            "wal group_commit_speedup >= 5" \
            "repl converged + follower_read_ratio >= 0.5" \
            "rpc rpc_speedup_16 >= 10" \
            "protect protect_dedup_ratio >= 0.9 + protect_fairness_ratio >= 0.5" \
            "readpath read_speedup_8r >= 4 + writer_ratio >= 0.8" \
            "cluster cluster_speedup_2 >= 1.6" \
            "obs obs_rpc_ratio >= 0.95 + obs_read_ratio >= 0.95"; do
            echo "SKIPPED (CI_SKIP_BENCH=1): ${floor}"
        done
        return 0
    fi
    echo "--> bench floor: query engine window speedup + group-by cardinality"
    cargo run --release -p cep_bench --bin bench_query
    require_floor BENCH_query.json window_speedup 10.0 \
        "100k-row 1% window speedup"
    # A group lookup that scans every group per row makes the 16,384-group
    # scan ~1000x slower than the 8-group one (ratio ~0.001); a hashed
    # lookup keeps it within a few times (ratio ~0.1-0.3).
    require_floor BENCH_query.json groupby_card_ratio 0.03 \
        "50k-row group-by, 16384-group / 8-group ops/s"
    echo "--> bench floor: automaton fan-out"
    sh scripts/bench_fanout.sh
    echo "--> bench floor: WAL group commit"
    sh scripts/bench_wal.sh
    echo "--> bench floor: replication lag + follower reads"
    sh scripts/bench_repl.sh
    echo "--> bench floor: RPC reactor pipelining"
    sh scripts/bench_rpc.sh
    echo "--> bench floor: protection layer (dedup overhead + flood fairness)"
    sh scripts/bench_protect.sh
    echo "--> bench floor: lock-free read path (snapshot vs mutex selects)"
    sh scripts/bench_readpath.sh
    echo "--> bench floor: cluster sharding write scale-out"
    sh scripts/bench_cluster.sh
    echo "--> bench floor: observability overhead"
    sh scripts/bench_obs.sh
}

stage_perfbench() {
    if [ "${CI_SKIP_BENCH:-0}" = "1" ]; then
        echo "SKIPPED (CI_SKIP_BENCH=1): perfbench test_repeat.py (reference checks, exact repeats, seed-dependent inputs)"
        return 0
    fi
    python3 perfbench/test_repeat.py
}

stage_cluster() {
    # The multi-node scenario gate: 2 partitions x (durable primary +
    # durable follower) over real sockets; one partition primary is
    # killed and its follower promoted — no acked write may be lost,
    # scatter-gather must keep serving every row, and cross-partition
    # subscriptions must resume exactly-once. Alongside it, the
    # differential property suite proving a partitioned cluster is
    # indistinguishable from one big cache.
    cargo test --release -q --test cluster_failover --test cluster_equivalence
}

# ---------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------
if [ $# -eq 0 ]; then
    set -- fmt clippy build test docs cluster bench perfbench
fi

for stage in "$@"; do
    case "${stage}" in
        fmt)     run_stage fmt     stage_fmt ;;
        clippy)  run_stage clippy  stage_clippy ;;
        build)   run_stage build   stage_build ;;
        test)    run_stage test    stage_test ;;
        docs)    run_stage docs    stage_docs ;;
        cluster) run_stage cluster stage_cluster ;;
        bench)   run_stage bench   stage_bench ;;
        perfbench) run_stage perfbench stage_perfbench ;;
        *)
            echo "unknown stage '${stage}' (known: fmt clippy build test docs cluster bench perfbench)" >&2
            exit 2
            ;;
    esac
done

echo ""
echo "stage timings: ${TIMINGS}"
echo "CI gate passed (${STAGES_RUN})"
