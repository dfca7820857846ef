#!/usr/bin/env sh
# Tier-1 verification (see ROADMAP.md). Must pass from a clean checkout
# with no network access: the workspace is hermetic — every dependency is
# a workspace-path crate, so `--offline` is always safe.
set -eu
cd "$(dirname "$0")/.."

# The whole tier is warning-free: any rustc warning fails the build.
RUSTFLAGS="-D warnings ${RUSTFLAGS:-}"
export RUSTFLAGS

cargo fmt --check

# Static invariant gate (DESIGN.md "Static invariant catalog"): any
# unwaived determinism/unsafe/panic-path finding fails the tier. The
# JSON report is kept as a diffable artifact next to the bench JSONs.
cargo run -q --release --offline -p lisa-lint
mkdir -p target/lint
cargo run -q --release --offline -p lisa-lint -- --json >target/lint/lint.json
echo "verify: lisa-lint clean"

cargo build --release --offline
cargo test -q --offline

# Rustdoc is warning-free too, so a doc link to a private or deleted item
# fails the tier. `--lib`: the root package's `lisa-serve` binary and the
# `lisa-serve` library would otherwise collide on one doc path.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --lib
echo "verify: rustdoc is warning-free"

# Frozen benchmark API: the benchmark package in lisa-benchmark/ drives
# the program through its public functions and sits outside this
# workspace, so a change that breaks it must fail here. Its own tests
# include a toy run of every workload, so this checks that the benchmark
# runs, not only that it compiles. RUSTFLAGS is cleared because that
# package is not held to the -D warnings policy.
RUSTFLAGS= cargo test -q --release --offline --manifest-path lisa-benchmark/Cargo.toml
echo "verify: lisa-benchmark tests pass against the public API"

# Bench smoke: run the micro-benches once each (heavy tier is skipped),
# which writes target/bench/BENCH_<suite>.json; bench_check fails if
# BENCH_mapping.json, BENCH_router.json, BENCH_gnn.json,
# BENCH_pipeline.json, or BENCH_serve.json is missing, malformed, or
# lacks the required entries.
cargo test -q --offline -p lisa-bench --benches
cargo run -q --offline -p lisa-bench --bin bench_check

# Big-fabric mapping smoke: map a small kernel end-to-end on a 16×16
# CGRA (256 PEs — beyond the dense hop-table threshold, so the landmark
# distance oracle is exercised). The untrained SA baseline with a small
# kernel and a tight II cap keeps the wall-clock bounded (~seconds).
cargo run -q --release --offline --bin lisa-map -- \
    doitgen --arch 16x16 --mapper sa --max-ii 8 --seed 7
echo "verify: 16x16 fabric maps end-to-end on the distance oracle"

# Unknown-kernel smoke: a kernel name outside the catalog is a usage
# error (one line on stderr, exit 2), not a panic.
mkdir -p target/cli-smoke
STATUS=0
target/release/lisa-map nosuch --arch 4x4 --mapper sa \
    2>target/cli-smoke/nosuch.err || STATUS=$?
if [ "$STATUS" -ne 2 ] || grep -q panicked target/cli-smoke/nosuch.err; then
    echo "verify: unknown kernel exited $STATUS:" >&2
    cat target/cli-smoke/nosuch.err >&2
    exit 1
fi
echo "verify: an unknown kernel is a clean usage error"

# Oversized-fabric smoke: a `ROWSxCOLS` grid past the accelerator's PE
# limit (or whose product overflows) is a usage error, not a panic in
# the distance index.
for ARCH in 300x300 4294967296x4294967296; do
    STATUS=0
    target/release/lisa-map gemm --arch "$ARCH" --mapper sa \
        >/dev/null 2>target/cli-smoke/bigarch.err || STATUS=$?
    if [ "$STATUS" -ne 2 ] || [ "$(wc -l <target/cli-smoke/bigarch.err)" -ne 1 ] ||
        grep -q panicked target/cli-smoke/bigarch.err; then
        echo "verify: --arch $ARCH exited $STATUS:" >&2
        cat target/cli-smoke/bigarch.err >&2
        exit 1
    fi
done
echo "verify: an oversized fabric is a clean usage error"

# Unknown-mapper smoke: the mapper name is checked with the flags, so a
# typo is a usage error (exit 2) before any `mapping ...` line is printed.
STATUS=0
target/release/lisa-map gemm --arch 4x4 --mapper zz \
    2>target/cli-smoke/zz.err || STATUS=$?
if [ "$STATUS" -ne 2 ] || grep -q -e panicked -e '^mapping' target/cli-smoke/zz.err; then
    echo "verify: unknown mapper exited $STATUS:" >&2
    cat target/cli-smoke/zz.err >&2
    exit 1
fi
echo "verify: an unknown mapper is a clean usage error"

# Decision-stream pin: every RNG draw, placement, route and accept
# decision of the annealer feeds these two counts. `--mapper sa` runs the
# II search at parallelism 1 and `--verbose` observes the lane (it routes
# every movement to the end), so they depend on no host. A change that
# keeps every decision keeps both numbers.
target/release/lisa-map doitgen --arch 4x4 --mapper sa --max-ii 8 --seed 7 --verbose \
    >target/cli-smoke/pin.out 2>target/cli-smoke/pin.err
if ! grep -q '^filter: proposals=5015 .* router_invocations=21877 ' target/cli-smoke/pin.out; then
    echo "verify: the doitgen decision stream moved (want proposals=5015 router_invocations=21877):" >&2
    grep '^filter:' target/cli-smoke/pin.out >&2
    exit 1
fi
echo "verify: the doitgen decision stream is pinned (5015 proposals, 21877 router calls)"

# Strategy-lane smoke: the constructive lane alone must land a verified
# mapping of doitgen on the 4x4 (it is deterministic and orders of
# magnitude cheaper than annealing), and the mixed race (constructive,
# then sa) must map as well. lisa-map exits nonzero if the mapping fails
# to verify.
cargo run -q --release --offline --bin lisa-map -- \
    doitgen --arch 4x4 --mapper sa --strategy constructive --max-ii 8 --seed 7
cargo run -q --release --offline --bin lisa-map -- \
    doitgen --arch 4x4 --mapper sa --strategy mixed --max-ii 8 --seed 7
echo "verify: constructive lane and mixed race map doitgen on the 4x4"

# Predict-then-verify smoke: close the capture -> train -> gate loop.
# The capture run (its own seed, mirroring filter_ab: the predictor
# serves *later* mappings of the same kernel) journals (movement
# features, delta-cost) pairs as a free by-product of mapping;
# train-predictor fits the movement filter from them; every gated re-map
# must still verify (lisa-map exits nonzero otherwise), reject at least
# one proposal, and summed over three seeds invoke the router strictly
# less often than the unfiltered runs, read from the `filter:` summary
# both arms print with --verbose. (Summing damps per-seed trajectory
# noise; the real measurement is filter_ab's interleaved median-of-5.)
FILTER_DIR="target/filter-smoke"
rm -rf "$FILTER_DIR"
mkdir -p "$FILTER_DIR"
cargo run -q --release --offline --bin lisa-map -- \
    gemm --arch 4x4 --mapper sa --max-ii 8 --seed 40007 --verbose \
    --capture-movements "$FILTER_DIR/pairs.txt" >"$FILTER_DIR/cap.out"
cargo run -q --release --offline --bin lisa-map -- \
    train-predictor --pairs "$FILTER_DIR/pairs.txt" \
    --out "$FILTER_DIR/movement.predictor" --epochs 60
OFF_CALLS=0
ON_CALLS=0
for SEED in 7 8 9; do
    cargo run -q --release --offline --bin lisa-map -- \
        gemm --arch 4x4 --mapper sa --max-ii 8 --seed "$SEED" --verbose \
        >"$FILTER_DIR/off$SEED.out"
    cargo run -q --release --offline --bin lisa-map -- \
        gemm --arch 4x4 --mapper sa --max-ii 8 --seed "$SEED" --verbose \
        --predictor "$FILTER_DIR/movement.predictor" >"$FILTER_DIR/on$SEED.out"
    grep -q 'filter: .* rejected=0 ' "$FILTER_DIR/off$SEED.out"
    if ! grep -q 'filter: .* rejected=[1-9]' "$FILTER_DIR/on$SEED.out"; then
        echo "verify: movement filter rejected nothing (seed $SEED)" >&2
        exit 1
    fi
    OFF=$(sed -n 's/.* router_invocations=\([0-9][0-9]*\).*/\1/p' "$FILTER_DIR/off$SEED.out")
    ON=$(sed -n 's/.* router_invocations=\([0-9][0-9]*\).*/\1/p' "$FILTER_DIR/on$SEED.out")
    if [ -z "$OFF" ] || [ -z "$ON" ]; then
        echo "verify: movement filter summary missing (seed $SEED)" >&2
        exit 1
    fi
    OFF_CALLS=$((OFF_CALLS + OFF))
    ON_CALLS=$((ON_CALLS + ON))
done
if [ "$ON_CALLS" -ge "$OFF_CALLS" ]; then
    echo "verify: movement filter saved no router work (off=$OFF_CALLS on=$ON_CALLS)" >&2
    exit 1
fi
echo "verify: movement filter cuts router invocations ($OFF_CALLS -> $ON_CALLS) and the mappings verify"

# Pipeline kill/resume smoke: a checkpointed training run stopped after
# the label stage must resume to a model byte-identical with an
# uninterrupted run of the same config.
SMOKE_DIR="target/pipeline-smoke"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
cargo run -q --release --offline --bin lisa-map -- \
    train --arch 4x4 --dfgs 6 --quiet --out "$SMOKE_DIR/cold.model"
cargo run -q --release --offline --bin lisa-map -- \
    train --arch 4x4 --dfgs 6 --quiet \
    --checkpoint "$SMOKE_DIR/ckpt" --stop-after labels
cargo run -q --release --offline --bin lisa-map -- \
    train --arch 4x4 --dfgs 6 --quiet --resume "$SMOKE_DIR/ckpt"
cmp "$SMOKE_DIR/cold.model" "$SMOKE_DIR/ckpt/model.lisa-model"
echo "verify: pipeline resume is byte-identical"

# Label-aware filter smoke: --predictor attaches the movement filter to
# the lisa mapper the same way as to sa. Each gated map of the trained
# model must verify (lisa-map exits nonzero otherwise) and reject at
# least one proposal. Router savings are not gated on this path: three
# seeds are too few to show them on the label-aware trajectories.
for SEED in 7 8 9; do
    cargo run -q --release --offline --bin lisa-map -- \
        gemm --arch 4x4 --seed "$SEED" --verbose --model "$SMOKE_DIR/cold.model" \
        --predictor "$FILTER_DIR/movement.predictor" >"$FILTER_DIR/lisa$SEED.out"
    if ! grep -q 'filter: .* rejected=[1-9]' "$FILTER_DIR/lisa$SEED.out"; then
        echo "verify: movement filter rejected nothing on the lisa mapper (seed $SEED)" >&2
        exit 1
    fi
done
echo "verify: the movement filter gates the label-aware mapper"

# A predictor file that does not exist is a usage error (exit 2) before
# the label models train.
STATUS=0
target/release/lisa-map gemm --arch 4x4 --predictor "$FILTER_DIR/missing.predictor" \
    >/dev/null 2>target/cli-smoke/nopredictor.err || STATUS=$?
if [ "$STATUS" -ne 2 ] || grep -q -e panicked -e 'training label models' \
    target/cli-smoke/nopredictor.err; then
    echo "verify: a missing predictor file exited $STATUS:" >&2
    cat target/cli-smoke/nopredictor.err >&2
    exit 1
fi
echo "verify: a missing predictor file fails before training"

# Serving smoke: start the daemon on an ephemeral port with a disk-backed
# result cache, map the same kernel twice (the repeat must be a memory-tier
# hit, byte-identical, without invoking the annealer), then restart the
# daemon on the same cache directory and check the disk tier answers the
# request byte-identically with zero anneals. A third daemon on the same
# directory serves another model: the cache key covers the model, so it
# must compute instead of answering with the first model's mapping.
SERVE_DIR="$SMOKE_DIR/serve"
mkdir -p "$SERVE_DIR"
SERVE_BIN="target/release/lisa-serve"
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT

start_daemon() {
    rm -f "$SERVE_DIR/addr"
    "$SERVE_BIN" serve --model "$2" \
        --listen 127.0.0.1:0 --port-file "$SERVE_DIR/addr" \
        --cache-dir "$SERVE_DIR/cache" \
        --events "$SERVE_DIR/$1.events.jsonl" 2>"$SERVE_DIR/$1.log" &
    SERVE_PID=$!
    tries=0
    while [ ! -s "$SERVE_DIR/addr" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "verify: daemon failed to start" >&2
            cat "$SERVE_DIR/$1.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR="$(cat "$SERVE_DIR/addr")"
}

start_daemon daemon1 "$SMOKE_DIR/cold.model"
"$SERVE_BIN" client --connect "$ADDR" --kernel gemm --arch 4x4 --max-ii 8 \
    >"$SERVE_DIR/r1"
"$SERVE_BIN" client --connect "$ADDR" --kernel gemm --arch 4x4 --max-ii 8 \
    >"$SERVE_DIR/r2"
cmp "$SERVE_DIR/r1" "$SERVE_DIR/r2"
grep -q '^status ok$' "$SERVE_DIR/r1"
"$SERVE_BIN" client --connect "$ADDR" --stats >"$SERVE_DIR/stats1"
grep -q '^anneals 1$' "$SERVE_DIR/stats1"
grep -q '^hit_memory 1$' "$SERVE_DIR/stats1"
"$SERVE_BIN" client --connect "$ADDR" --shutdown
wait "$SERVE_PID"
SERVE_PID=""

start_daemon daemon2 "$SMOKE_DIR/cold.model"
"$SERVE_BIN" client --connect "$ADDR" --kernel gemm --arch 4x4 --max-ii 8 \
    >"$SERVE_DIR/r3"
cmp "$SERVE_DIR/r1" "$SERVE_DIR/r3"
"$SERVE_BIN" client --connect "$ADDR" --stats >"$SERVE_DIR/stats2"
grep -q '^anneals 0$' "$SERVE_DIR/stats2"
grep -q '^hit_disk 1$' "$SERVE_DIR/stats2"
"$SERVE_BIN" client --connect "$ADDR" --shutdown
wait "$SERVE_PID"
SERVE_PID=""

cargo run -q --release --offline --bin lisa-map -- \
    train --arch 4x4 --dfgs 6 --seed 8 --quiet --out "$SERVE_DIR/seed8.model"
start_daemon daemon3 "$SERVE_DIR/seed8.model"
"$SERVE_BIN" client --connect "$ADDR" --kernel gemm --arch 4x4 --max-ii 8 \
    >"$SERVE_DIR/r4"
grep -q '^status ok$' "$SERVE_DIR/r4"
"$SERVE_BIN" client --connect "$ADDR" --stats >"$SERVE_DIR/stats3"
grep -q '^anneals 1$' "$SERVE_DIR/stats3"
grep -q '^hit_disk 0$' "$SERVE_DIR/stats3"
"$SERVE_BIN" client --connect "$ADDR" --shutdown
wait "$SERVE_PID"
SERVE_PID=""
trap - EXIT
echo "verify: serve cache is byte-identical across restarts and keyed by model"

echo "verify: OK"
