//! `switchless-bench` — dependency-free host-throughput benchmark.
//!
//! Criterion (behind the `criterion` feature) is for local deep-dives;
//! this binary is the tier-1-buildable complement: it measures how fast
//! the *host* executes the simulator's hot paths and writes the numbers
//! to a `BENCH_<n>.json` at the repo root so the perf trajectory across
//! PRs has data points. Simulated-cycle results are untouched by
//! anything measured here — see "results/ bit-identical" in
//! EXPERIMENTS.md.
//!
//! The artifact is emitted by iterating one row table, so every
//! measured bench always carries a `baseline` and `speedup` entry —
//! a bench cannot be added to the measurement list without also being
//! auditable from the JSON alone (BENCH_5.json omitted the burst
//! bench's baseline exactly that way).
//!
//! Usage:
//!
//! ```text
//! switchless-bench [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks each measurement window (CI smoke); `--out` defaults
//! to `BENCH_10.json` in the current directory.
//!
//! Every bench is measured best-of-3: three independent windows, and the
//! artifact carries both the per-bench minimum (`benches_min`) and median
//! (`benches_median`). The legacy `benches` section equals the median, so
//! older readers (and the ci.sh gate's backward-compat fallback) keep
//! working; the median is the comparison number — a single noisy window
//! on a shared host no longer defines the PR's data point.

use std::time::Instant;

use switchless_core::machine::{Engine, Machine, MachineConfig, MonitorKind};
use switchless_isa::asm::assemble;
use switchless_mem::monitor::{CamFilter, HashFilter, MonitorFilter, WatchId};
use switchless_mem::PAddr;
use switchless_sim::event::EventQueue;
use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

/// PR-5 numbers (commit 8c8e597, BENCH_5.json), measured on this
/// container with the same windows. They stay in the JSON so the
/// speedup of the superblock engine is auditable from the artifact
/// alone.
mod baseline {
    /// Spin-loop microbench, host instructions/sec.
    pub const SPIN_INSTS_PER_SEC: f64 = 56_841_385.0;
    /// Single-slot burst microbench, host instructions/sec.
    pub const BURST_INSTS_PER_SEC: f64 = 58_548_894.0;
    /// Machine-level store loop (full `after_store` path), insts/sec.
    pub const STORE_LOOP_INSTS_PER_SEC: f64 = 24_364_402.0;
    /// Raw `CamFilter::on_store`, stores/sec (64 armed entries).
    pub const CAM_STORES_PER_SEC: f64 = 47_785_546.0;
    /// Raw `HashFilter::on_store`, stores/sec (64 armed lines).
    pub const HASH_STORES_PER_SEC: f64 = 58_207_769.0;
    /// `EventQueue` schedule/pop/cancel churn, events/sec.
    pub const EVENTS_PER_SEC: f64 = 26_815_347.0;
    /// Where the numbers came from.
    pub const NOTE: &str = "PR 5 (commit 8c8e597, BENCH_5.json), full windows";
}

struct Opts {
    quick: bool,
    out: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: "BENCH_10.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                if let Some(p) = other.strip_prefix("--out=") {
                    opts.out = p.to_owned();
                } else {
                    eprintln!("usage: switchless-bench [--quick] [--out PATH]");
                    std::process::exit(2);
                }
            }
        }
    }
    opts
}

/// Runs `step` (which reports how many operations it performed) until
/// `window_ms` of host time has elapsed, and returns operations/sec.
fn measure(window_ms: u64, mut step: impl FnMut() -> u64) -> f64 {
    // Warmup: one step, unmeasured.
    step();
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        ops += step();
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= window_ms {
            return ops as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Best-of-3: runs `bench` three times (fresh machine each time) and
/// returns `(min, median)`. The median is the artifact's comparison
/// number; the min documents the noise floor of the three windows.
fn best3(mut bench: impl FnMut() -> f64) -> (f64, f64) {
    let mut s = [bench(), bench(), bench()];
    s.sort_by(f64::total_cmp);
    (s[0], s[1])
}

/// The spin machine shared by the spin-family benches: a pure ALU loop
/// whose 4-instruction body unrolls into one 256-instruction
/// superblock.
fn spin_machine(cfg: MachineConfig) -> Machine {
    let mut m = Machine::new(cfg);
    let prog = assemble(
        ".base 0x10000\n\
         entry: movi r1, 0\n\
         loop:  addi r1, r1, 1\n\
         addi r2, r1, 3\n\
         xor r3, r2, r1\n\
         jmp loop\n",
    )
    .expect("spin program");
    let t = m.load_program(0, &prog).expect("load");
    m.start_thread(t);
    m
}

/// Host instructions/sec executing a pure ALU spin loop — the
/// superblock + dispatch-path microbench.
fn bench_spin(window_ms: u64) -> f64 {
    let mut m = spin_machine(MachineConfig::small());
    measure(window_ms, || {
        let before = m.counters().get("inst.executed");
        m.run_for(Cycles(200_000));
        m.counters().get("inst.executed") - before
    })
}

/// `bench_spin` on the reference engine (superblocks off): the
/// per-inst single-step burst path. Keeping this measured guards the fallback
/// path (everything that is not a hot inert loop) against regressions
/// the superblock numbers would mask.
fn bench_spin_nosb(window_ms: u64) -> f64 {
    let mut m = spin_machine(MachineConfig::small());
    m.set_engine(Engine::Reference);
    measure(window_ms, || {
        let before = m.counters().get("inst.executed");
        m.run_for(Cycles(200_000));
        m.counters().get("inst.executed") - before
    })
}

/// Host instructions/sec for a store loop: every iteration goes through
/// `data_access`, the monitor filter, and the mmio-hook scan — the
/// allocation-free store-path microbench. 32 parked waiters keep the
/// filter populated (their watches never match the stored address).
fn bench_store_loop(window_ms: u64, kind: MonitorKind) -> f64 {
    let mut cfg = MachineConfig::small();
    cfg.monitor = kind;
    let mut m = Machine::new(cfg);
    let waiter = assemble(
        ".base 0x30000\n\
         entry: monitor r1\n\
         mwait\n\
         halt\n",
    )
    .expect("waiter program");
    m.load_image(&waiter).expect("load waiter");
    for i in 0..32u64 {
        let w = m.spawn_at(0, 0x30000, true).expect("spawn waiter");
        m.set_thread_reg(w, 1, 0x8000 + i * 64);
        m.start_thread(w);
    }
    let prog = assemble(
        ".base 0x10000\n\
         entry: movi r1, 0x20000\n\
         loop:  st r1, r1, 0\n\
         st r1, r1, 8\n\
         jmp loop\n",
    )
    .expect("store program");
    let t = m.load_program(0, &prog).expect("load");
    m.start_thread(t);
    // Park the waiters before timing.
    m.run_for(Cycles(10_000));
    measure(window_ms, || {
        let before = m.counters().get("inst.executed");
        m.run_for(Cycles(200_000));
        m.counters().get("inst.executed") - before
    })
}

/// Host instructions/sec for a wide store loop: four stores per
/// iteration spread over four cache lines, no waiters armed — the
/// batched memory-superblock path with a multi-line data footprint
/// (the store-loop bench above keeps both stores on one line and a
/// populated filter; this one isolates the line-footprint machinery).
fn bench_store_run(window_ms: u64) -> f64 {
    let mut m = Machine::new(MachineConfig::small());
    let prog = assemble(
        ".base 0x10000\n\
         entry: movi r1, 0x20000\n\
         loop:  st r1, r1, 0\n\
         st r1, r1, 64\n\
         st r1, r1, 128\n\
         st r1, r1, 192\n\
         jmp loop\n",
    )
    .expect("store-run program");
    let t = m.load_program(0, &prog).expect("load");
    m.start_thread(t);
    measure(window_ms, || {
        let before = m.counters().get("inst.executed");
        m.run_for(Cycles(200_000));
        m.counters().get("inst.executed") - before
    })
}

/// Host instructions/sec draining a 16-entry ring: each iteration masks
/// the index, loads the slot, increments it, and stores it back — the
/// load+store mix with data-dependent addressing (a two-line footprint
/// whose lines the block must resolve at run time).
fn bench_ring_drain(window_ms: u64) -> f64 {
    let mut m = Machine::new(MachineConfig::small());
    let prog = assemble(
        ".base 0x10000\n\
         entry: movi r1, 0x20000\n\
         movi r2, 0\n\
         movi r7, 15\n\
         movi r8, 3\n\
         loop:  and r3, r2, r7\n\
         shl r3, r3, r8\n\
         add r3, r3, r1\n\
         ld r4, r3, 0\n\
         addi r4, r4, 1\n\
         st r4, r3, 0\n\
         addi r2, r2, 1\n\
         jmp loop\n",
    )
    .expect("ring-drain program");
    let t = m.load_program(0, &prog).expect("load");
    m.start_thread(t);
    measure(window_ms, || {
        let before = m.counters().get("inst.executed");
        m.run_for(Cycles(200_000));
        m.counters().get("inst.executed") - before
    })
}

/// Best-case burst path: a single spinning thread on a single-slot core
/// with an **empty event horizon** — nothing is pending except the
/// slot's own `SlotFree`, so every dispatch runs a full `MAX_BURST`
/// batch and the queue round-trip cost is amortised over ~1024
/// instructions. The gap between this number and `bench_spin` (which
/// keeps a second SMT slot's retry event in play) is the cost of the
/// sibling-slot machinery, not of the burst loop itself.
fn bench_burst(window_ms: u64) -> f64 {
    let mut cfg = MachineConfig::small();
    cfg.smt_slots = 1;
    let mut m = spin_machine(cfg);
    measure(window_ms, || {
        let before = m.counters().get("inst.executed");
        m.run_for(Cycles(200_000));
        m.counters().get("inst.executed") - before
    })
}

/// Raw filter throughput: stores/sec against 64 armed entries, with a
/// mix of hitting and missing addresses (1 hit per 64 stores).
fn bench_filter(window_ms: u64, mut filter: impl MonitorFilter) -> f64 {
    for i in 0..64u64 {
        filter
            .arm(WatchId(i), PAddr(0x1000 + i * 64), 8)
            .expect("arm");
    }
    let mut out = Vec::new();
    let mut rng = Rng::seed_from(0xb0a7_10ad);
    measure(window_ms, || {
        let mut n = 0u64;
        for _ in 0..1024 {
            // Mostly-miss address pattern: the common case on real
            // store streams (doorbells and mailboxes are rare).
            let addr = 0x100_000 + (rng.next_u64() & 0xffff8);
            out.clear();
            filter.on_store(PAddr(addr), 8, &mut out);
            let hit = 0x1000 + (rng.next_u64() & 63) * 64;
            out.clear();
            filter.on_store(PAddr(hit - 8), 8, &mut out);
            n += 2;
        }
        n
    })
}

/// EventQueue churn: schedule/pop with a 1-in-8 cancel mix.
fn bench_events(window_ms: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng::seed_from(0x5eed);
    let mut now = Cycles::ZERO;
    for i in 0..1024 {
        q.schedule(Cycles(i), i);
    }
    measure(window_ms, || {
        let mut n = 0u64;
        for _ in 0..1024 {
            let (at, v) = q.pop().expect("queue never drains");
            now = now.max(at);
            let tok = q.schedule(now + Cycles(1 + (rng.next_u64() & 255)), v);
            if rng.next_u64() & 7 == 0 {
                q.cancel(tok);
                q.schedule(now + Cycles(1 + (rng.next_u64() & 255)), v);
            }
            n += 1;
        }
        n
    })
}

/// One measured bench with its committed baseline: the single source
/// the `benches*`, `baseline` and `speedup` JSON sections all iterate,
/// so no section can omit a measured bench.
struct Row {
    /// JSON key in `benches*`/`baseline` (e.g. `spin_insts_per_sec`).
    key: &'static str,
    /// JSON key in `speedup` and human label prefix.
    short: &'static str,
    /// Human-readable label for the progress log.
    label: &'static str,
    /// Unit suffix for the progress log.
    unit: &'static str,
    /// Committed baseline (see [`baseline`]); `None` for benches that
    /// postdate the PR-5 baseline set — they get no `baseline`/`speedup`
    /// entry rather than a made-up denominator.
    baseline: Option<f64>,
    /// Minimum of the three measured windows, ops/sec.
    min: f64,
    /// Median of the three measured windows, ops/sec — the comparison
    /// number (also emitted as the legacy `benches` section).
    median: f64,
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.0}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let opts = parse_args();
    let window_ms: u64 = if opts.quick { 40 } else { 400 };

    eprintln!("switchless-bench: window {window_ms} ms/bench, best of 3");
    macro_rules! row {
        ($key:literal, $short:literal, $label:literal, $unit:literal, $base:expr, $bench:expr) => {{
            let (min, median) = best3(|| $bench);
            Row {
                key: $key,
                short: $short,
                label: $label,
                unit: $unit,
                baseline: $base,
                min,
                median,
            }
        }};
    }
    let rows: Vec<Row> = vec![
        row!(
            "spin_insts_per_sec",
            "spin",
            "spin loop",
            "insts/sec",
            Some(baseline::SPIN_INSTS_PER_SEC),
            bench_spin(window_ms)
        ),
        row!(
            "burst_insts_per_sec",
            "burst",
            "burst (1 slot)",
            "insts/sec",
            Some(baseline::BURST_INSTS_PER_SEC),
            bench_burst(window_ms)
        ),
        // The PR-5 spin path *is* the no-superblock path: same code,
        // same machine, blocks not yet invented.
        row!(
            "spin_nosb_insts_per_sec",
            "spin_nosb",
            "spin (no superblocks)",
            "insts/sec",
            Some(baseline::SPIN_INSTS_PER_SEC),
            bench_spin_nosb(window_ms)
        ),
        row!(
            "store_loop_insts_per_sec",
            "store_loop",
            "store loop (cam)",
            "insts/sec",
            Some(baseline::STORE_LOOP_INSTS_PER_SEC),
            bench_store_loop(window_ms, MonitorKind::Cam { capacity: 1024 })
        ),
        row!(
            "store_run_insts_per_sec",
            "store_run",
            "store run (4 lines)",
            "insts/sec",
            None,
            bench_store_run(window_ms)
        ),
        row!(
            "ring_drain_insts_per_sec",
            "ring_drain",
            "ring drain (ld+st)",
            "insts/sec",
            None,
            bench_ring_drain(window_ms)
        ),
        row!(
            "cam_stores_per_sec",
            "cam",
            "cam filter",
            "stores/sec",
            Some(baseline::CAM_STORES_PER_SEC),
            bench_filter(window_ms, CamFilter::new(1024))
        ),
        row!(
            "hash_stores_per_sec",
            "hash",
            "hash filter",
            "stores/sec",
            Some(baseline::HASH_STORES_PER_SEC),
            bench_filter(window_ms, HashFilter::new())
        ),
        row!(
            "event_queue_events_per_sec",
            "events",
            "event queue",
            "events/sec",
            Some(baseline::EVENTS_PER_SEC),
            bench_events(window_ms)
        ),
    ];
    for r in &rows {
        eprintln!(
            "  {:<22} {:>14.0} {} (min {:.0})",
            format!("{}:", r.label),
            r.median,
            r.unit,
            r.min
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"switchless-bench/v1\",\n  \"pr\": 10,\n");
    json.push_str(&format!(
        "  \"quick\": {},\n  \"window_ms\": {window_ms},\n  \"samples\": 3,\n",
        opts.quick
    ));
    // `benches` (the legacy comparison section) equals `benches_median`;
    // both are emitted so older readers need no change and newer ones
    // can be explicit about which statistic they compare.
    for section in ["benches", "benches_median"] {
        json.push_str(&format!("  \"{section}\": {{\n"));
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            json.push_str(&format!("    \"{}\": {}{sep}\n", r.key, json_num(r.median)));
        }
        json.push_str("  },\n");
    }
    json.push_str("  \"benches_min\": {\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!("    \"{}\": {}{sep}\n", r.key, json_num(r.min)));
    }
    json.push_str("  },\n  \"baseline\": {\n");
    json.push_str(&format!("    \"note\": \"{}\"", baseline::NOTE));
    for r in rows.iter().filter(|r| r.baseline.is_some()) {
        json.push_str(&format!(
            ",\n    \"{}\": {}",
            r.key,
            json_num(r.baseline.expect("filtered"))
        ));
    }
    json.push_str("\n  },\n  \"speedup\": {\n");
    let with_base: Vec<&Row> = rows.iter().filter(|r| r.baseline.is_some()).collect();
    for (i, r) in with_base.iter().enumerate() {
        let sep = if i + 1 < with_base.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{}\": {:.2}{sep}\n",
            r.short,
            r.median / r.baseline.expect("filtered")
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&opts.out, json).expect("write BENCH json");
    eprintln!("wrote {}", opts.out);
}
