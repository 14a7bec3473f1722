#!/usr/bin/env bash
# The full pre-merge gate. Run from the repository root before every PR:
#
#   scripts/ci.sh
#
# Mirrors what CI enforces: a clean release build, the whole test suite,
# a warning-free clippy pass, and canonical formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
# --workspace matters: a bare `cargo build` here builds only the root
# package, silently leaving e.g. the halk-cli binary stale.
cargo build --release --workspace

# Scratch space for every artifact below; removed on exit.
OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT
ROOT=$PWD

# The test suite and bench smoke pass run twice: once strictly sequential
# and once on a 4-worker pool. Determinism makes both runs assert the same
# values (DESIGN.md §9); the second run exists to exercise the parallel
# code paths under every existing test.
metrics_sum=$(cksum < results/bench_hotpath_metrics.json)
for threads in 1 4; do
    echo "==> HALK_THREADS=$threads cargo test -q"
    HALK_THREADS=$threads cargo test -q

    echo "==> HALK_THREADS=$threads cargo test --workspace -q"
    HALK_THREADS=$threads cargo test --workspace -q

    echo "==> HALK_THREADS=$threads bench_hotpath --smoke"
    # Seconds-scale sanity pass over the hot-path harness (DESIGN.md §8);
    # the committed BENCH_hotpath.json baseline is only regenerated by
    # scripts/bench.sh, never here. Every operator family must report its
    # optimizer step.
    smoke_json="$OBS_TMP/hotpath_smoke_$threads.json"
    HALK_THREADS=$threads cargo run --release -q -p halk-bench --bin bench_hotpath -- \
        --smoke --out "$smoke_json"
    for s in pi 1p 3p 3i 3d 2in; do
        grep -q "\"train_step_$s\"" "$smoke_json"
    done
done
# --smoke writes no metrics snapshot unless asked: the committed full-run
# snapshot under results/ must come out of the loop untouched.
test "$(cksum < results/bench_hotpath_metrics.json)" = "$metrics_sum"

echo "==> observability smoke (traced train/eval + trace_check)"
# An instrumented end-to-end pass: train via the CLI and run the Table I/II
# experiment at smoke scale, with span tracing, debug logging and metrics
# snapshots on; then validate every artifact with trace_check. The coverage
# flag asserts the eval phase spans account for >=95% of each structure's
# wall time (the "phase timings sum to wall" acceptance check).
# Run from $OBS_TMP so results/ (tables, manifests) lands there, not on the
# committed results/ of the repository.
(
    cd "$OBS_TMP"
    HALK_LOG=debug "$ROOT/target/release/halk" \
        gen --dataset fb237 --out g.tsv --seed 3
    HALK_LOG=debug HALK_TRACE=train.jsonl "$ROOT/target/release/halk" \
        train --graph g.tsv --out model --steps 60 --dim 16 \
        --metrics-out train_metrics.json
    test -s train_metrics.json
    test -s results/cli_train/manifest.json
    # `halk ask` validates through the daemon's engine: an entity id past
    # the graph is a typed error (exit 1) naming the id, never a panic
    # (exit 101).
    rc=0
    "$ROOT/target/release/halk" ask --graph g.tsv \
        --sparql 'SELECT ?x WHERE { e:999999 r:0 ?x . }' 2> ask_oob.err || rc=$?
    test "$rc" -eq 1
    grep -q 'e:999999' ask_oob.err
    HALK_LOG=debug HALK_SCALE=smoke "$ROOT/target/release/exp_table1_2" \
        --trace eval.jsonl --metrics-out eval_metrics.json
    test -s eval_metrics.json
    "$ROOT/target/release/trace_check" \
        train.jsonl eval.jsonl \
        --coverage eval_structure:0.95 \
        --manifest results/cli_train/manifest.json \
        --manifest results/table1_2/manifest.json
)

# with_daemon NAME BODY [VAR=VALUE...] -- SERVE_ARGS...
#
# The daemon drill every serve leg shares: boot `halk serve SERVE_ARGS` on
# an ephemeral port (the VAR=VALUE assignments go to the daemon only), with
# stdout/stderr in NAME.log/NAME.err; wait for its `listening on` line and
# export the address as ADDR; run the shell function BODY; then require
# that the daemon survived, drain it with SIGTERM and require `goodbye`.
with_daemon() {
    local name=$1 body=$2
    shift 2
    local env_args=()
    while [ "$1" != -- ]; do
        env_args+=("$1")
        shift
    done
    shift
    env ${env_args[@]+"${env_args[@]}"} "$ROOT/target/release/halk" \
        serve "$@" --addr 127.0.0.1:0 > "$name.log" 2> "$name.err" &
    local pid=$!
    for _ in $(seq 50); do
        grep -q '^listening on ' "$name.log" && break
        kill -0 "$pid" || { cat "$name.err"; exit 1; }
        sleep 0.1
    done
    ADDR=$(sed -n 's/^listening on //p' "$name.log" | head -1)
    test -n "$ADDR"
    "$body"
    kill -0 "$pid"
    kill -TERM "$pid"
    wait "$pid"
    grep -q 'goodbye' "$name.log"
}

echo "==> serve smoke (daemon + load_gen with fault injection + live telemetry)"
# Boot the daemon on an ephemeral port, replay mixed-structure traffic with
# fault injection (disconnects, slowloris, malformed frames, bursts) while
# verifying every answer bit-for-bit against the one-shot path, then drain
# it with SIGTERM and validate the run manifest. Gates: zero mismatches,
# zero daemon crashes, clean exit, schema-valid manifest. This leg also
# drills the live-telemetry surface (DESIGN.md §16): the daemon runs with
# `--obs-addr` (scraped mid-load over /dev/tcp — no curl in the image),
# `--slow-ms 0` (every request emits a slow-query line, so the sleeper
# fault probes are guaranteed to produce traced slow queries), and
# HALK_TRACE; afterwards trace_check --reqids proves every request id in
# the trace resolves to a complete session -> queue -> executor chain,
# and --chrome exercises the about:tracing converter.
(
    cd "$OBS_TMP"
    serve_body() {
        OBS=$(sed -n 's/^metrics on //p' serve.log | head -1)
        test -n "$OBS"
        fetch() {
            exec 3<>"/dev/tcp/${OBS%:*}/${OBS##*:}"
            printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
            cat <&3
            exec 3<&- 3>&-
        }

        "$ROOT/target/release/load_gen" \
            --addr "$ADDR" --graph g.tsv --model model \
            --duration-ms 3000 --clients 4 --faults > loadgen.json &
        LOAD_PID=$!
        sleep 1
        # Scrape while the barrage is in flight: the endpoint must answer
        # under load, expose the cumulative counters and the windowed
        # (~60 s) series.
        fetch /metrics > metrics_scrape.prom
        grep -q '^halk_serve_requests_total ' metrics_scrape.prom
        grep -q '^halk_serve_latency_us_window_p99 ' metrics_scrape.prom
        fetch /healthz > healthz.json
        grep -q '"ok":true' healthz.json
        grep -q '"draining":false' healthz.json
        # One-shot `halk top` render from the same endpoints.
        "$ROOT/target/release/halk" \
            top --addr "$OBS" --serve-addr "$ADDR" --once true > top.txt
        grep -q 'halk top' top.txt
        grep -q 'latency' top.txt
        wait "$LOAD_PID"
        grep -q '"mismatches":0' loadgen.json
        grep -q '"serve_p99_us":' loadgen.json
        # with_daemon then requires that the daemon survived the whole
        # barrage and drains cleanly on SIGTERM, leaving a schema-valid
        # manifest.
    }
    with_daemon serve serve_body HALK_LOG=warn HALK_TRACE=serve_trace.jsonl -- \
        --graph g.tsv --model model \
        --obs-addr 127.0.0.1:0 --slow-ms 0 \
        --test-faults true
    # Slow-query evidence on both channels: the warn log and the trace.
    grep -q 'slow_query req=' serve.err
    grep -q '"name":"slow_query"' serve_trace.jsonl
    "$ROOT/target/release/trace_check" serve_trace.jsonl --reqids \
        --chrome serve_trace_chrome.json \
        --manifest results/serve/manifest.json
    test -s serve_trace_chrome.json
)

echo "==> shard smoke (4-shard daemon + load_gen bit-identity)"
# The same daemon/load_gen drill with sharded scoring pinned on: four arc
# shards on a 4-thread pool, with same-skeleton batching whenever
# requests queue for an execution permit. The load generator checks
# every halk answer bit-for-bit against a local full-vector
# top_k_indices reference, so `"mismatches":0` is the
# sharding + batching correctness gate, not just liveness. The summary
# also carries the daemon's own batching counters (STATS frame).
(
    cd "$OBS_TMP"
    shard_body() {
        "$ROOT/target/release/load_gen" \
            --addr "$ADDR" --graph g.tsv --model model \
            --duration-ms 2000 --clients 4 > loadgen_shard.json
        grep -q '"mismatches":0' loadgen_shard.json
        grep -q '"batched_groups":' loadgen_shard.json
    }
    with_daemon serve_shard shard_body HALK_THREADS=4 -- \
        --graph g.tsv --model model --shards 4
)

echo "==> contended smoke (one execution permit, four clients)"
# Four closed-loop clients against a single execution permit: most requests
# queue (89% in an instrumented 5 s run on 2 vCPUs), so permit holders run
# combining passes and hand released permits to queued sessions, which lead
# their same-skeleton groups and answer companions through reply slots
# (DESIGN.md §12). The benchmark's two connections against two permits
# never queue, so this path gets its own bit-identity gate.
(
    cd "$OBS_TMP"
    contended_body() {
        "$ROOT/target/release/load_gen" \
            --addr "$ADDR" --graph g.tsv --model model \
            --duration-ms 2000 --clients 4 > loadgen_contended.json
        grep -q '"mismatches":0' loadgen_contended.json
        grep -q '"server_errors":0' loadgen_contended.json
    }
    with_daemon serve_contended contended_body -- \
        --graph g.tsv --model model --shards 2 --workers 1
)

echo "==> snapshot smoke (build + inspect + serve --snapshot, f32 and i16)"
# Snapshot boot must answer exactly like the TSV boot it was built from.
# Build a snapshot from the trained artifacts above, inspect it, then run
# the daemon/load_gen drill twice booting from the snapshot alone, at full
# precision and quantized to i16. Both legs are bit-identity gates:
# load_gen verifies every answer against its local TSV-loaded reference
# scored at the daemon's precision, so `"mismatches":0` proves the two
# boot paths agree and that the sharded quantized top-k equals the
# full-vector quantized ranking.
(
    cd "$OBS_TMP"
    "$ROOT/target/release/halk" \
        snapshot build --graph g.tsv --model model --out m.snap
    # Into a file, not a pipe: `grep -q` closing the pipe early would kill
    # the inspect process with SIGPIPE.
    "$ROOT/target/release/halk" \
        snapshot inspect --snap m.snap > inspect.txt
    grep -q 'snapshot version' inspect.txt
    snap_body() {
        "$ROOT/target/release/load_gen" \
            --addr "$ADDR" --graph g.tsv --model model \
            --duration-ms 2000 --clients 4 --precision "$precision" \
            > "loadgen_snap_$precision.json"
        grep -q '"mismatches":0' "loadgen_snap_$precision.json"
        grep -q '"server_errors":0' "loadgen_snap_$precision.json"
        grep -q '"io_errors":0' "loadgen_snap_$precision.json"
    }
    for precision in f32 i16; do
        with_daemon "serve_snap_$precision" snap_body -- \
            --snapshot m.snap --shards 4 --precision "$precision"
    done
)

echo "==> executor smoke (one batch core under train/eval/serve, 1, 2 and 4 threads)"
# Training, evaluation and serving each run their own group kernel on one
# shared batch executor (DESIGN.md §15: caches, plan cache, pool, group
# instrumentation); this drill runs all three surfaces at a strictly
# sequential, a 2-thread and a 4-thread pool. Two is the benchmark's pool
# size and the case where a fork runs one share on the caller and spawns
# exactly one thread. Thread count is a scheduling knob only (DESIGN.md
# §9): the training runs must produce bit-identical checkpoints, the
# eval runs byte-identical tables, and load_gen's
# `"mismatches":0` pins every served answer — grouped by serve's drain with
# a non-default --batch-cap — to the one-shot reference.
(
    cd "$OBS_TMP"
    exec_body() {
        "$ROOT/target/release/load_gen" \
            --addr "$ADDR" --graph g.tsv --model model \
            --duration-ms 1500 --clients 4 > "loadgen_exec_$threads.json"
        grep -q '"mismatches":0' "loadgen_exec_$threads.json"
        # The daemon's STATS frame surfaces the configured drain cap and
        # load_gen copies it into the summary.
        grep -q '"batch_cap":4' "loadgen_exec_$threads.json"
    }
    for threads in 1 2 4; do
        HALK_THREADS=$threads "$ROOT/target/release/halk" \
            train --graph g.tsv --out "model_exec_$threads" --steps 20 --dim 16
        HALK_THREADS=$threads HALK_SCALE=smoke "$ROOT/target/release/exp_table1_2" \
            --metrics-out "eval_exec_$threads.json"
        test -s "eval_exec_$threads.json"
        cp results/table1_2.json "table1_2_exec_$threads.json"
        with_daemon "serve_exec_$threads" exec_body HALK_THREADS="$threads" -- \
            --graph g.tsv --model model --shards 2 --batch-cap 4
    done
    # The executor's fixed-shard gradient reduction makes training
    # bit-reproducible across pool sizes: identical checkpoints, byte for
    # byte. Eval accepts candidates in attempt order and folds ranks
    # sequentially, so the metrics table is byte-identical across pool
    # sizes too.
    for threads in 2 4; do
        cmp model_exec_1/params.ckpt "model_exec_$threads/params.ckpt"
        cmp table1_2_exec_1.json "table1_2_exec_$threads.json"
    done
)

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "ci: all checks passed"
