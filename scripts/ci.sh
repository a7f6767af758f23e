#!/usr/bin/env bash
# Tier-1 gate: everything here runs fully offline.
#
#   build    release build of the whole workspace
#   test     the ~580 unit/integration/property tests
#   clippy   workspace lints, warnings are errors
#   replay   deterministic-replay check: two same-seed runs of the
#            fault-injected f16 experiment must render byte-identical
#            reports (timing and absolute-path lines stripped)
#   soak     bounded chaos soak: 25 seeded composed fault storms with
#            the machine-wide invariant checker on — must be
#            violation-free, every plan must replay bit-identically
#            from its chaos-plan/v1 artifact, and a second soak run in
#            a fresh process must print identical digests
#   fmt      cargo fmt --check: the tree is rustfmt-clean
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
#   mjobs    epoch-worker check: f15 and f17, the only experiments that
#            read --machine-jobs, must write bit-identical trees and
#            logs at --machine-jobs 1 and --machine-jobs 4
#   bench    host-throughput smoke + regression gate: switchless-bench
#            --quick must emit well-formed switchless-bench/v1 JSON, and
#            no bench may drop more than 20% below the newest committed
#            BENCH_*.json baseline. Each bench value is already a
#            median of three windows (the binary's best-of-3), and the
#            gate additionally takes the per-bench max of two quick
#            runs: 40 ms windows on a shared host can swing 2x
#            run-to-run, and a real hot-path regression reproduces in
#            both runs while a noise dip does not. Additionally, every
#            bench key ever committed in any BENCH_*.json must still be
#            present in the current runs — a bench silently dropped
#            from the binary is a gate failure, not a skip.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release"
cargo build --release --workspace

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo test"
cargo test -q --workspace

step "cargo clippy -D warnings"
cargo clippy --workspace -- -D warnings

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
echo "chaos soak: violation-free, digests stable across processes"

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

step "epoch-worker threads (f15 f17, --machine-jobs 1 vs --machine-jobs 4)"
mj1=target/ci-results-mj1
mj4=target/ci-results-mj4
rm -rf "$mj1" "$mj4"
mlog1="$(cargo run -q --release -p switchless-experiments -- f15 f17 --machine-jobs 1 --out "$mj1")"
mlog4="$(cargo run -q --release -p switchless-experiments -- f15 f17 --machine-jobs 4 --out "$mj4")"
if ! diff -r "$mj1" "$mj4"; then
    echo "FAIL: f15/f17 trees differ between --machine-jobs 1 and --machine-jobs 4" >&2
    exit 1
fi
m1="$(printf '%s\n' "$mlog1" | strip_volatile | sed "s|$mj1|RESULTS|g" | sed 's/--machine-jobs [0-9]*/--machine-jobs N/g')"
m4="$(printf '%s\n' "$mlog4" | strip_volatile | sed "s|$mj4|RESULTS|g" | sed 's/--machine-jobs [0-9]*/--machine-jobs N/g')"
if [ "$m1" != "$m4" ]; then
    echo "FAIL: f15/f17 logs differ between --machine-jobs 1 and --machine-jobs 4" >&2
    diff <(printf '%s\n' "$m1") <(printf '%s\n' "$m4") >&2 || true
    exit 1
fi
echo "epoch-worker threads: identical f15/f17 trees and logs"

step "bench smoke (switchless-bench --quick)"
bj=target/bench-smoke.json
rm -f "$bj"
cargo run -q --release -p switchless-bench -- --quick --out "$bj"
python3 - "$bj" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d["schema"] == "switchless-bench/v1", d.get("schema")
for section in ("benches", "baseline", "speedup"):
    assert isinstance(d[section], dict) and d[section], section
for k, v in d["benches"].items():
    assert isinstance(v, (int, float)) and v > 0, (k, v)
print("bench smoke: schema and keys ok")
EOF

step "bench regression gate (median >20% below newest committed BENCH_*.json fails, best of 2 runs)"
base="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)"
if [ -z "$base" ]; then
    echo "bench gate: no committed BENCH_*.json baseline, skipping"
else
    bj2=target/bench-smoke-2.json
    rm -f "$bj2"
    cargo run -q --release -p switchless-bench -- --quick --out "$bj2"
    python3 - "$bj" "$bj2" "$base" BENCH_*.json <<'EOF'
import json, sys
# Medians are the comparison numbers; files from before the best-of-3
# schema (no "benches_median" section) fall back to their single-shot
# "benches" values.
def medians(path):
    with open(path) as f:
        d = json.load(f)
    return d.get("benches_median", d["benches"])
run1 = medians(sys.argv[1])
run2 = medians(sys.argv[2])
ref = medians(sys.argv[3])
bad = []
# Coverage: every bench key ever committed (the union over all
# BENCH_*.json) must still be measured. Comparing only against the
# newest file would let a bench vanish silently: drop it from the
# binary, commit a new BENCH_N.json without it, and the gate would
# never look for it again.
ever = {}
for path in sys.argv[4:]:
    for k in medians(path):
        ever.setdefault(k, path)
for k, first in sorted(ever.items()):
    if k not in run1 and k not in run2:
        bad.append(f"{k}: committed in {first} but missing from current runs")
# Regression: thresholds always against the newest committed file.
for k, v in ref.items():
    c = max(run1.get(k, 0), run2.get(k, 0))
    if c == 0:
        bad.append(f"{k}: missing from current runs")
    elif c < 0.8 * v:
        bad.append(f"{k}: {c:.0f} is {c / v:.2f}x of baseline {v:.0f}")
    else:
        print(f"  {k}: {c / v:.2f}x of {sys.argv[3]}")
if bad:
    print("FAIL: bench regression vs " + sys.argv[3], file=sys.stderr)
    for line in bad:
        print("  " + line, file=sys.stderr)
    sys.exit(1)
print(f"bench gate: all ever-committed benches present, within 20% of {sys.argv[3]} (medians, best of 2 runs)")
EOF
fi

printf '\nCI green.\n'
