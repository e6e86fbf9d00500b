#!/bin/sh
# Offline CI gauntlet: format, lint, build, test.
#
# The workspace has zero external dependencies, so every step works
# without network access.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Only rustdoc resolves intra-doc links, so a doc comment naming a
# deleted or private item fails here and nowhere else.
echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release =="
cargo build --release

# `default-members` in the root manifest lists every crate, so this is
# the whole workspace suite.
echo "== cargo test -q =="
cargo test -q

echo "== sweep smoke (multi-threaded, deterministic) =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth fixed-horizon,aggressive 1,2 --threads 2 > /dev/null

echo "== audited sweep smoke (invariants + report reconciliation) =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --audit --threads 2 > /dev/null

echo "== differential fuzz smoke (500 cases, every policy) =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --fuzz 500 --seed 1996 --threads 2 > /dev/null

echo "== differential fuzz (300 cases: forestall incremental vs naive predictor, tuned reverse search vs eight independent runs) =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --fuzz 300 --differential --seed 1996 --threads 2 > /dev/null

echo "== fault-enabled fuzz smoke (500 cases; ~half run under a fault plan) =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --fuzz 500 --seed 2026 --threads 2 > /dev/null

echo "== faulted audited sweep smoke (retry/abandon/degraded invariants) =="
FAULTS='flaky:*:0.05,slow:0:0:2000:2,outage:1:100:600,seed:9'
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --audit --threads 2 --faults "$FAULTS" > /dev/null

echo "== faulted sweep is byte-identical across thread counts =="
tmp1=$(mktemp); tmp2=$(mktemp)
faildir=$(mktemp -d); killdir=$(mktemp -d)
trap 'rm -rf "$tmp1" "$tmp2" "$tmp2.folded" "$faildir" "$killdir"' EXIT
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --threads 1 --faults "$FAULTS" > "$tmp1"
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --threads 2 --faults "$FAULTS" > "$tmp2"
diff "$tmp1" "$tmp2"

echo "== predictor sweep smoke (hints axis, every policy, audited) =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --hints oracle,seq,markov,mithril --audit --threads 2 \
    > "$tmp1" 2> /dev/null
head -n 1 "$tmp1" | grep -q ',hints$'

echo "== predicted sweep is byte-identical across thread counts =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --hints seq,markov,mithril --threads 1 > "$tmp1"
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --hints seq,markov,mithril --threads 4 > "$tmp2"
diff "$tmp1" "$tmp2"

# The `checked` profile is release code with every debug assertion and
# overflow check on. Predicted hints on the paper traces reach states
# the small fuzz traces do not (a wrong guess left behind the cursor),
# so the whole predicted grid runs under it. A panicking cell fails the
# run's exit status, and a panic caught inside a run that still exits 0
# fails the grep; either way the panic messages are printed.
checked_run() {
    ./target/checked/parcache-run "$@" > /dev/null 2> "$tmp2" \
        || { grep panicked "$tmp2" || cat "$tmp2"; exit 1; }
    if grep panicked "$tmp2"; then exit 1; fi
}
echo "== checked build: predicted-hint sweep (996 cells) and differential fuzz, zero panics =="
cargo build --profile checked -q -p parcache-bench --bin parcache-run
checked_run --sweep all all --hints seq,markov,mithril --threads 2
checked_run --fuzz 100 --differential --seed 1996 --threads 2

echo "== explain sweep smoke (per-cause stall columns, audited) =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --explain --audit --threads 2 > "$tmp1" 2> /dev/null
grep -q 'stall_late_prefetch_s,stall_no_prefetch_s,stall_congestion_s' "$tmp1"

echo "== profile smoke (folded stacks parse; span self-times sum <= wall) =="
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep synth all 1,2 --threads 2 --profile "$tmp2" > /dev/null 2>&1
# Every folded line is "path sample_count"; self times must sum to no
# more than the profiled wall clock. Anchor on the document start: each
# worker object carries its own (smaller, per-thread) "wall_us" key.
wall=$(sed -n 's/^{"wall_us":\([0-9]*\).*/\1/p' "$tmp2")
awk -v wall="$wall" '
    NF != 2 || $2 !~ /^[0-9]+$/ { print "bad folded line: " $0; bad = 1 }
    { sum += $2 }
    END {
        if (bad) exit 1
        if (sum > wall) { print "span sum " sum " > wall " wall; exit 1 }
    }' "$tmp2.folded"
grep -q '"workers":\[{"items":' "$tmp2"

echo "== crash-injected sweep smoke (fail-soft isolation, manifest, resume) =="
# Uninterrupted baseline document, written atomically via --out.
./target/release/parcache-run --sweep synth all 1,2 --threads 2 \
    --out "$faildir/base.csv" 2> /dev/null
# Inject a panic into cell 3: the run must complete every other cell,
# publish the partial CSV plus a failure manifest, and exit nonzero.
if PARCACHE_FAIL_CELL=panic:3 RUST_BACKTRACE=0 ./target/release/parcache-run \
    --sweep synth all 1,2 --threads 2 --out "$faildir/part.csv" 2> /dev/null
then
    echo "crash-injected sweep should exit nonzero"; exit 1
fi
grep -q '"status":"panicked"' "$faildir/part.csv.manifest.json"
# Both artifacts were renamed into place; no write temporary lingers.
if ls "$faildir"/.*.tmp.* 2> /dev/null; then
    echo "leftover write temporaries after injected failure"; exit 1
fi
# Resume re-runs only the failed cell and reproduces the baseline
# byte for byte.
./target/release/parcache-run --sweep synth all 1,2 --threads 2 \
    --resume "$faildir/part.csv.manifest.json" --out "$faildir/resumed.csv" \
    2> /dev/null
diff "$faildir/base.csv" "$faildir/resumed.csv"
# A stale manifest (different grid) is rejected up front with exit 2.
status=0
./target/release/parcache-run --sweep synth all 1,4 --threads 2 \
    --resume "$faildir/part.csv.manifest.json" --out "$faildir/stale.csv" \
    > /dev/null 2>&1 || status=$?
if [ "$status" != "2" ]; then
    echo "stale --resume manifest should exit 2, got $status"; exit 1
fi

echo "== SIGKILL mid-sweep leaves no truncated artifacts =="
# The full-grid sweep runs for tens of seconds; killing it two seconds
# in lands long before anything is published. Invoke the binary
# directly (cargo run would leave the child alive when the wrapper
# dies).
./target/release/parcache-run --sweep --threads 2 --out "$killdir/kill.csv" \
    > /dev/null 2>&1 &
victim=$!
sleep 2
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
for f in "$killdir/kill.csv" "$killdir/kill.csv.manifest.json"; do
    if [ -e "$f" ]; then
        echo "unexpected artifact $f after SIGKILL (should be absent, never truncated)"
        exit 1
    fi
done
if ls "$killdir"/.*.tmp.* 2> /dev/null; then
    echo "leftover write temporaries after SIGKILL"; exit 1
fi

echo "== golden appendix-A sweep digest =="
cargo test --release -q -p parcache-bench --test golden appendix_a_sweep -- --ignored

echo "== every figure's output matches its committed digest =="
cargo test --release -q -p parcache-bench --test golden figure_outputs -- --ignored

echo "== golden digest via the CLI (default sweep CSV, hash pinned) =="
# The default (oracle-hint) 332-cell sweep CSV must hash to the committed
# fixture even through the CLI path: the CSV is everything before the
# blank line that separates it from the aggregate table.
cargo run --release -q -p parcache-bench --bin parcache-run -- \
    --sweep > "$tmp1" 2> /dev/null
cli_digest=$(awk '/^$/ { exit } { print }' "$tmp1" | sha256sum | cut -d' ' -f1)
golden=$(cat crates/bench/tests/fixtures/appendix_a_sweep.sha256)
if [ "$cli_digest" != "$golden" ]; then
    echo "default sweep CSV digest $cli_digest != committed $golden"
    exit 1
fi

# Benchmark smoke: replay the smoke sweep subset and fail on a >25%
# cells/sec drop against the committed BENCH_sweep.json. The tolerance
# (see REGRESSION_TOLERANCE in crates/bench/src/bench.rs) absorbs
# single-core/noisy-runner variance; real hot-path regressions are far
# larger. The same invocation applies the scaling-efficiency gate: on
# machines with >= 2 effective cores the smoke subset is re-run at 2
# threads and must reach 75% of linear scaling (SCALING_EFFICIENCY_FLOOR);
# effectively single-core machines skip that gate with a note, since
# multi-thread timing there would measure timeslicing, not the harness.
# Set PARCACHE_BENCH_SKIP=1 to skip on machines too noisy to measure
# anything.
if [ "${PARCACHE_BENCH_SKIP:-0}" = "1" ]; then
    echo "== bench smoke skipped (PARCACHE_BENCH_SKIP=1) =="
else
    echo "== bench smoke vs committed baseline (>25% regression or <0.75 scaling efficiency fails) =="
    cargo run --release -q -p parcache-bench --bin parcache-run -- \
        --bench-smoke --baseline BENCH_sweep.json > /dev/null

    # Per-policy engine throughput floors: each policy's single-threaded
    # events/sec must stay within 25% of the committed BENCH_engine.json,
    # steady-state allocations must stay under ENGINE_ALLOC_CEILING, and
    # forestall must stay within ENGINE_FORESTALL_DEMAND_RATIO of demand
    # in the same run (the stall predictor's hot-path budget).
    echo "== engine bench vs committed baseline (per-policy floors + alloc ceiling) =="
    cargo run --release -q -p parcache-bench --bin parcache-run -- \
        --bench-engine --baseline BENCH_engine.json > /dev/null
fi

echo "CI OK"
