#!/usr/bin/env bash
# Tier-1 gate: everything here runs fully offline.
#
#   build    release build of the whole workspace
#   test     every unit/integration/property/doc test in the workspace,
#            including the pinned host-engine work counts
#            (crates/core/tests/engine_stats.rs and shard.rs's
#            domain-machine pin) and the engine differentials in
#            crates/core/tests/shard_equivalence.rs, among them the
#            invariant-checked epoch differential: five multi-core
#            fixtures with the invariant checker on must match the
#            reference engine, run the unchecked run's epochs, and
#            report a mid-run tripwire at the same cycle
#   clippy   workspace lints on every target (tests and benches
#            included), warnings are errors
#   perfbench  the repository benchmark (perfbench/, a Cargo workspace
#            of its own that links the crates/* APIs) must build
#            offline, and its suite, multicore and io_serving workloads
#            must exit 0 in one-second runs: a non-zero exit is a
#            pinned-digest mismatch or a failed operation; a traced
#            one-second hot_loops run also checks the pinned spin/store/
#            ring digests and runs the per-layer probes (the event-queue
#            probe is the queue's only cancel caller outside the tests);
#            traces land in the ignored .bench_out/.
#            The multicore run is traced too, and its epoch engine's
#            exact work counts are pinned: epoch attempts, commits,
#            bails and ties, and instructions executed. They do not
#            depend on --seconds; a change that moves one updates the
#            pin below and says why. The io_serving run is traced as
#            well, and its simulated counts are pinned the same way:
#            instructions, thread and monitor wakes, false wakes, L1
#            hits, L1/L2/L3 misses and the ioengine latency p50/p99.
#            io_serving also runs at --seed 2, which must exit 0 with its
#            digests matched: the NIC data path on a second arrival trace
#   replay   deterministic-replay check: two same-seed runs of the
#            fault-injected f16 experiment must render byte-identical
#            reports (timing and absolute-path lines stripped)
#   soak     bounded chaos soak: 25 seeded composed fault storms with
#            the machine-wide invariant checker on — must be
#            violation-free, every plan must replay bit-identically
#            from its chaos-plan/v1 artifact, and a second soak run in
#            a fresh process must print identical digests; a third run
#            on the reference engine (SWITCHLESS_ENGINE=reference) must
#            print the same bytes, invariant-check totals included: the
#            fast engine's slot chains check at the boundaries the
#            reference loop does
#   artifact --replay of the committed chaos-plan/v1 artifact
#            (crates/sim/tests/data/) must exit 0 with its recorded
#            digest matched: the replay format and every draw behind it
#            still reproduce a plan written by an earlier build
#   fmt      cargo fmt --check: the tree is rustfmt-clean
#   doc      rustdoc over the workspace with warnings as errors: no
#            broken or private intra-doc links in the public docs
#   examples every program in examples/ runs in release mode and must
#            exit 0; each assembles its guest programs at run time, so an
#            assembler regression fails here even where no test looks.
#            Each also runs on the reference engine
#            (SWITCHLESS_ENGINE=reference) and must print byte-identical
#            stdout: the examples' engine-identity leg
#   jobs     parallel-determinism check: the full --quick suite at
#            --jobs 1 and --jobs 4 must write bit-identical results/
#            trees (the harness's core invariant)
#   engine   engine-identity check: the suite on the reference engine
#            (SWITCHLESS_ENGINE=reference: the serial loop, no
#            superblocks, no epochs) must write results/ trees and logs
#            bit-identical to the default fast engine, both for
#            --quick --jobs 4 and for the full suite (the fast engine
#            may only change wall-clock time, never results)
#   results  the default full run must reproduce the committed
#            results/ CSVs byte for byte, so a quick-mode or stale
#            table cannot be committed
#   mjobs    epoch-worker check: f15, the only experiment that reads
#            --machine-jobs, must write bit-identical trees and logs at
#            --machine-jobs 1, 2 and 4 (loop blocks run inside the
#            workers)
#   loc      informational, not a gate: scripts/loc.sh prints the
#            non-test lines per crate under crates/*/src
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release"
cargo build --release --workspace

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo test"
cargo test -q --workspace

step "cargo clippy --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "examples (each runs in release mode, must exit 0 and print the same on the reference engine)"
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    if ! fast="$(cargo run -q --release --example "$name")"; then
        echo "FAIL: example $name exited non-zero" >&2
        exit 1
    fi
    if ! reference="$(SWITCHLESS_ENGINE=reference cargo run -q --release --example "$name")"; then
        echo "FAIL: example $name exited non-zero on the reference engine" >&2
        exit 1
    fi
    if [ "$fast" != "$reference" ]; then
        echo "FAIL: example $name prints differently on the reference engine" >&2
        diff <(printf '%s\n' "$reference") <(printf '%s\n' "$fast") >&2 || true
        exit 1
    fi
done
echo "examples: every one exits 0 and matches the reference engine"

step "perfbench (offline build; suite, traced multicore and io_serving with pinned counts, io_serving seed 2, traced hot_loops for 1 s each)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
perfbench() {
    if ! cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        "$@" --seconds 1 | tail -1; then
        echo "FAIL: perfbench $* exited non-zero" >&2
        exit 1
    fi
}
# check_pins WORKLOAD METRIC=VALUE...: runs WORKLOAD traced; each named
# metric must equal its pin.
check_pins() {
    local w="$1" line
    shift
    line="$(perfbench --workload "$w" --trace 1)"
    printf '%s\n' "$line"
    python3 - "$w" "$line" "$@" <<'EOF'
import json, sys
workload, line, *pins = sys.argv[1:]
metrics = json.loads(line)["metrics"]
bad = []
for pin in pins:
    k, want = pin.split("=")
    got = metrics.get(k, {}).get("value")
    if got != int(want):
        bad.append(f"{k}: {got} != pinned {want}")
if bad:
    print(f"FAIL: {workload} pinned counts moved", file=sys.stderr)
    for line in bad:
        print("  " + line, file=sys.stderr)
    sys.exit(1)
print(f"{workload}: all {len(pins)} counts match the pins")
EOF
}
perfbench --workload suite
check_pins multicore \
    core.shard.attempts=1029 \
    core.shard.committed=870 \
    core.shard.bailed=120 \
    core.shard.ties=39 \
    core.inst.executed=19697368
check_pins io_serving \
    core.inst.executed=6297117 \
    core.thread.wakes=408632 \
    core.monitor.wakes=693223 \
    core.monitor.false_wakes=0 \
    mem.l1.hits=7157735 \
    mem.l1.misses=275690 \
    mem.l2.misses=215725 \
    mem.l3.misses=148 \
    kern.ioengine.latency.p50_cycles=5664 \
    kern.ioengine.latency.p99_cycles=17536
perfbench --workload io_serving --seed 2
perfbench --workload hot_loops --trace 1
echo "perfbench: builds offline, every workload's digests match"

step "deterministic replay (f16 twice, same seed)"
# Strip wall-clock noise: per-experiment "(N.Ns)" lines, csv paths, and
# the trailing "Run timing" table (always the last block of the log).
strip_volatile() { sed '/^== Run timing/,$d' | grep -v -e '^  ([0-9]' -e '^  csv:'; }
# --out keeps the --quick CSVs off the committed results/ tree.
rp=target/ci-results-replay
a="$(cargo run -q --release -p switchless-experiments -- f16 --quick --out "$rp" | strip_volatile)"
b="$(cargo run -q --release -p switchless-experiments -- f16 --quick --out "$rp" | strip_volatile)"
if [ "$a" != "$b" ]; then
    echo "FAIL: same-seed fault-injection runs diverged" >&2
    diff <(printf '%s\n' "$a") <(printf '%s\n' "$b") >&2 || true
    exit 1
fi
echo "replay: byte-identical"

step "chaos soak (25 plans, invariants on, per-plan artifact replay)"
s1="$(cargo run -q --release -p switchless-experiments -- --soak 25 --quick)"
printf '%s\n' "$s1" | tail -1
s2="$(cargo run -q --release -p switchless-experiments -- --soak 25 --quick)"
if [ "$s1" != "$s2" ]; then
    echo "FAIL: chaos-soak digests diverged between processes" >&2
    diff <(printf '%s\n' "$s1") <(printf '%s\n' "$s2") >&2 || true
    exit 1
fi
s3="$(SWITCHLESS_ENGINE=reference cargo run -q --release -p switchless-experiments -- --soak 25 --quick)"
if [ "$s1" != "$s3" ]; then
    echo "FAIL: chaos soak differs between the fast and reference engines" >&2
    diff <(printf '%s\n' "$s1") <(printf '%s\n' "$s3") >&2 || true
    exit 1
fi
echo "chaos soak: violation-free, digests stable across processes and engines"

step "committed chaos-plan/v1 artifact (--replay must match its digest)"
if ! cargo run -q --release -p switchless-experiments -- \
    --replay crates/sim/tests/data/chaos-plan-v1-seed19.txt; then
    echo "FAIL: the committed chaos-plan/v1 artifact no longer replays" >&2
    exit 1
fi

step "parallel determinism (full --quick suite, --jobs 1 vs --jobs 4)"
j1=target/ci-results-j1
j4=target/ci-results-j4
rm -rf "$j1" "$j4"
log1="$(cargo run -q --release -p switchless-experiments -- all --quick --jobs 1 --out "$j1")"
log4="$(cargo run -q --release -p switchless-experiments -- all --quick --jobs 4 --out "$j4")"
if ! diff -r "$j1" "$j4"; then
    echo "FAIL: results/ trees differ between --jobs 1 and --jobs 4" >&2
    exit 1
fi
s1="$(printf '%s\n' "$log1" | strip_volatile | sed "s|$j1|RESULTS|g")"
s4="$(printf '%s\n' "$log4" | strip_volatile | sed "s|$j4|RESULTS|g")"
if [ "$s1" != "$s4" ]; then
    echo "FAIL: run logs differ between --jobs 1 and --jobs 4" >&2
    diff <(printf '%s\n' "$s1") <(printf '%s\n' "$s4") >&2 || true
    exit 1
fi
echo "parallel determinism: identical results/ trees and logs"

step "engine identity (SWITCHLESS_ENGINE=reference vs default, --quick --jobs 4)"
rq=target/ci-results-ref-quick
rm -rf "$rq"
logr="$(SWITCHLESS_ENGINE=reference cargo run -q --release -p switchless-experiments -- all --quick --jobs 4 --out "$rq")"
if ! diff -r "$j4" "$rq"; then
    echo "FAIL: results/ trees differ between the fast and reference engines (--quick)" >&2
    exit 1
fi
sr="$(printf '%s\n' "$logr" | strip_volatile | sed "s|$rq|RESULTS|g")"
if [ "$s4" != "$sr" ]; then
    echo "FAIL: run logs differ between the fast and reference engines (--quick)" >&2
    diff <(printf '%s\n' "$s4") <(printf '%s\n' "$sr") >&2 || true
    exit 1
fi
echo "engine identity (quick): identical results/ trees and logs"

step "engine identity (SWITCHLESS_ENGINE=reference vs default, full)"
ff=target/ci-results-fast-full
rf=target/ci-results-ref-full
rm -rf "$ff" "$rf"
cargo run -q --release -p switchless-experiments -- all --out "$ff" >/dev/null
SWITCHLESS_ENGINE=reference cargo run -q --release -p switchless-experiments -- all --out "$rf" >/dev/null
if ! diff -r "$ff" "$rf"; then
    echo "FAIL: results/ trees differ between the fast and reference engines (full)" >&2
    exit 1
fi
echo "engine identity (full): identical results/ trees"

step "committed results/ (default full run vs results/)"
# full_run.txt is the committed run log, not a CSV the --out tree holds.
if ! diff -r -x full_run.txt results "$ff"; then
    echo "FAIL: the full run does not reproduce the committed results/ CSVs" >&2
    exit 1
fi
echo "committed results/: reproduced byte for byte"

step "epoch-worker threads (f15, --machine-jobs 1 vs 2 and 4)"
mj1=target/ci-results-mj1
rm -rf "$mj1"
mlog1="$(cargo run -q --release -p switchless-experiments -- f15 --machine-jobs 1 --out "$mj1")"
m1="$(printf '%s\n' "$mlog1" | strip_volatile | sed "s|$mj1|RESULTS|g" | sed 's/--machine-jobs [0-9]*/--machine-jobs N/g')"
for j in 2 4; do
    mjn="target/ci-results-mj$j"
    rm -rf "$mjn"
    mlogn="$(cargo run -q --release -p switchless-experiments -- f15 --machine-jobs "$j" --out "$mjn")"
    if ! diff -r "$mj1" "$mjn"; then
        echo "FAIL: f15 trees differ between --machine-jobs 1 and --machine-jobs $j" >&2
        exit 1
    fi
    mn="$(printf '%s\n' "$mlogn" | strip_volatile | sed "s|$mjn|RESULTS|g" | sed 's/--machine-jobs [0-9]*/--machine-jobs N/g')"
    if [ "$m1" != "$mn" ]; then
        echo "FAIL: f15 logs differ between --machine-jobs 1 and --machine-jobs $j" >&2
        diff <(printf '%s\n' "$m1") <(printf '%s\n' "$mn") >&2 || true
        exit 1
    fi
done
echo "epoch-worker threads: identical f15 trees and logs"

step "non-test lines per crate (informational)"
scripts/loc.sh

printf '\nCI green.\n'
