//! F15 — multi-core extension: event-handling scales across cores, and
//! the OS scheduler's remaining job — "manage the mapping of threads to
//! cores in order to improve locality" (§4) — has a measurable cost
//! model.
//!
//! * **F15a**: aggregate event throughput with per-core handler threads
//!   as cores grow 1 → 4 (each core gets its own event stream; wakes
//!   never cross cores).
//! * **F15b**: migration and locality: a compute thread with a warm
//!   working set is migrated to another core mid-run; the first passes
//!   after migration pay cold private caches (re-warmed through the
//!   shared L3), then performance returns to warm speed — quantifying
//!   both the §4 migration cost and why the scheduler should care about
//!   locality.
//! * **F15c**: the core-sharded epoch engine
//!   ([`switchless_core::shard`]) on a 4-core compute workload with
//!   per-core memory domains. Every simulated metric in the table is
//!   bit-identical for any engine and any `--machine-jobs` value — the
//!   epoch engine commits an epoch only when it can prove it matches
//!   the serial reference loop — so both show up exclusively as
//!   wall-clock time in the run timing table.
//!
//! Every multi-core machine here runs on the process's engine
//! (`SWITCHLESS_ENGINE`, fast by default), so F15a and F15b take the
//! epoch engine too. F15a's device events land every few hundred
//! cycles and truncate most epoch windows to fewer than two busy cores
//! (`TooFew`), which then replay serially: exactly the traffic shape the
//! conservative engine declines to run ahead on.

use switchless_core::machine::{Engine, Machine, MachineConfig};
use switchless_isa::asm::assemble;
use switchless_kern::nointr::EventHandlerSet;
use switchless_sim::report::{fnum, Table};
use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;
use switchless_wl::arrivals::poisson_arrivals;

/// F15a: events/second with one handler thread per core.
fn measure_scaling(cores: usize, events_per_core: usize) -> (f64, u64) {
    let mut cfg = MachineConfig::small();
    cfg.cores = cores;
    let mut m = Machine::new(cfg);
    let mut sets = Vec::new();
    for c in 0..cores {
        let set = EventHandlerSet::install(
            &mut m,
            c,
            &[("ev", 2_000, 7)],
            0x40000 + (c as u64) * 0x10000,
        )
        .expect("install");
        sets.push(set);
    }
    m.run_for(Cycles(30_000));
    let t0 = m.now();
    let mut rng = Rng::seed_from(21);
    for set in &sets {
        let word = set.handlers[0].event_word;
        let source = m.register_device(move |mach, _, v| {
            mach.dma_write(word, &v.to_le_bytes());
        });
        let times = poisson_arrivals(&mut rng, t0 + Cycles(1000), 4_000.0, events_per_core);
        for (i, &at) in times.iter().enumerate() {
            m.at_device(at, source, (i + 1) as u64);
        }
    }
    let total = (cores * events_per_core) as u64;
    let mut guard = 0;
    while sets.iter().map(|s| s.handled(&m, 0)).sum::<u64>() < total && guard < 10_000 {
        m.run_for(Cycles(100_000));
        guard += 1;
    }
    let handled: u64 = sets.iter().map(|s| s.handled(&m, 0)).sum();
    let elapsed = (m.now() - t0).0.max(1);
    (handled as f64 / elapsed as f64 * 1e6, handled)
}

/// F15b: per-pass cycles around a migration.
fn measure_migration() -> (u64, u64, u64, u64) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    cfg.mem_bytes = 16 << 20;
    let mut m = Machine::new(cfg);
    let ws: u64 = 64 * 1024; // fits private L2: locality matters
    let buf = m.alloc(ws);
    let pass_word = m.alloc(64);
    let prog = assemble(&format!(
        r#"
        entry:
            movi r3, {buf}
            movi r4, {end}
        pass:
            ld r2, r3, 0
            addi r3, r3, 64
            blt r3, r4, pass
            movi r3, {buf}
            ld r5, {pw}
            addi r5, r5, 1
            st r5, {pw}
            jmp pass
        "#,
        buf = buf,
        end = buf + ws,
        pw = pass_word,
    ))
    .expect("scan program");
    let tid = m.load_program(0, &prog).expect("load");
    m.start_thread(tid);

    let per_pass = |m: &mut Machine, tid, passes: u64| -> u64 {
        let p0 = m.peek_u64(pass_word);
        let b0 = m.billed_cycles(tid).0;
        let mut guard = 0;
        while m.peek_u64(pass_word) < p0 + passes && guard < 10_000 {
            m.run_for(Cycles(50_000));
            guard += 1;
        }
        let dp = m.peek_u64(pass_word) - p0;
        (m.billed_cycles(tid).0 - b0).checked_div(dp).unwrap_or(0)
    };

    // Warm up on core 0, then measure warm speed.
    m.run_for(Cycles(2_000_000));
    let warm0 = per_pass(&mut m, tid, 8);
    // Migrate to core 1: the next pass runs on cold private caches.
    let tid1 = m.migrate_thread(tid, 1).expect("migrate");
    let cold1 = per_pass(&mut m, tid1, 1);
    let rewarmed = per_pass(&mut m, tid1, 8);
    // Migrate back: core 0's caches have been invalidated/aged too.
    let tid0 = m.migrate_thread(tid1, 0).expect("migrate back");
    let cold0 = per_pass(&mut m, tid0, 1);
    (warm0, cold1, rewarmed, cold0)
}

/// F15c: a 4-core compute workload on the core-sharded engine.
///
/// Each core loops over its own registered memory domain with a
/// staggered stride/work mix so the cores' event streams are not
/// phase-locked. Returns per-core `(iterations, passes, billed cycles)`
/// plus total executed instructions — all *simulated* quantities, so
/// they are bit-identical for any `engine` and `machine_jobs`; only
/// wall-clock time (reported in the run timing table, never in
/// `results/`) changes.
fn measure_sharded(engine: Engine, machine_jobs: usize, t: u64) -> (Vec<(u64, u64, u64)>, u64) {
    const CORES: usize = 4;
    let mut cfg = MachineConfig::small();
    cfg.cores = CORES;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(machine_jobs);
    let mut tids = Vec::new();
    for c in 0..CORES {
        let buf = m.alloc(4096);
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {buf}
                movi r4, {end}
                movi r6, 0
                movi r7, 0
            loop:
                ld r2, r3, 0
                addi r2, r2, {inc}
                st r2, r3, 0
                work {wk}
                addi r3, r3, {stride}
                addi r6, r6, 1
                blt r3, r4, loop
                addi r7, r7, 1
                movi r3, {buf}
                jmp loop
            "#,
            base = 0x40000 + (c as u64) * 0x4000,
            buf = buf,
            end = buf + 4096,
            inc = c + 1,
            wk = 7 + 6 * c,
            stride = 8 * (c as u64 + 1),
        ))
        .expect("compute program");
        let tid = m.load_program(c, &prog).expect("load");
        m.set_core_domain(c, buf, 4096);
        m.start_thread(tid);
        tids.push(tid);
    }
    m.run_until(Cycles(t));
    let rows = tids
        .iter()
        .map(|&tid| {
            (
                m.thread_reg(tid, 6),
                m.thread_reg(tid, 7),
                m.billed_cycles(tid).0,
            )
        })
        .collect();
    (rows, m.counters().get("inst.executed"))
}

/// Runs F15.
///
/// The three core-count measurements of F15a are independent (each
/// builds its own machine with a fixed seed), so they shard across
/// `ctx.jobs` workers; results are collected in input order and the
/// 1-core row doubles as the scaling baseline, making the table
/// bit-identical for any worker count. F15c honors `ctx.machine_jobs`
/// (host threads for the epoch engine's per-core workers).
pub fn run(ctx: &crate::RunCtx) -> Vec<Table> {
    let events = if ctx.quick { 200 } else { 1_000 };
    let mut a = Table::new(
        "F15a: event handling scales across cores",
        &["cores", "events handled", "events/Mcycle", "scaling"],
    );
    let cores = [1usize, 2, 4];
    let rows = switchless_sim::par::par_map(ctx.jobs, &cores, |_, &c| measure_scaling(c, events));
    let base_rate = rows[0].0;
    for (&c, &(rate, handled)) in cores.iter().zip(&rows) {
        a.row_owned(vec![
            c.to_string(),
            handled.to_string(),
            fnum(rate),
            fnum(rate / base_rate),
        ]);
    }
    a.caption(
        "one handler thread per core, independent Poisson event streams; \
         expected shape: near-linear scaling — wakes are core-local memory \
         writes, there is no shared interrupt controller to serialize on",
    );

    let (warm0, cold1, rewarmed, cold0) = measure_migration();
    let mut b = Table::new(
        "F15b: migration cost and cache locality (cycles per 64KiB pass)",
        &["phase", "cy/pass", "vs warm"],
    );
    for (name, v) in [
        ("warm on core 0", warm0),
        ("first pass after migrating to core 1", cold1),
        ("re-warmed on core 1", rewarmed),
        ("first pass after migrating back to core 0", cold0),
    ] {
        b.row_owned(vec![
            name.to_owned(),
            v.to_string(),
            fnum(v as f64 / warm0.max(1) as f64),
        ]);
    }
    b.caption(
        "the state transfer itself is ~100 cycles (two L3-class hops), but \
         the migrated thread's first pass pays cold private caches — the \
         locality cost §4 says the scheduler must manage; steady state \
         returns once the L3-resident set re-warms L1/L2",
    );

    let horizon = if ctx.quick { 4_000_000 } else { 60_000_000 };
    let (sharded, insts) = measure_sharded(Engine::process_default(), ctx.machine_jobs, horizon);
    let mut c = Table::new(
        "F15c: core-sharded engine - simulated results independent of --machine-jobs",
        &["core", "iterations", "passes", "billed cycles", "cy/iter"],
    );
    for (core, &(iters, passes, billed)) in sharded.iter().enumerate() {
        c.row_owned(vec![
            core.to_string(),
            iters.to_string(),
            passes.to_string(),
            billed.to_string(),
            fnum(billed as f64 / iters.max(1) as f64),
        ]);
    }
    c.row_owned(vec![
        "total insts".to_owned(),
        insts.to_string(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    c.caption(&format!(
        "4 compute cores over disjoint memory domains, run to {horizon} \
         cycles on the conservative core-sharded epoch engine \
         (--machine-jobs {}); every value here is simulated and \
         bit-identical for any job count — the engine only commits an \
         epoch it can prove matches the serial engine — so the speedup \
         shows up solely in this experiment's wall-clock line in the run \
         timing table",
        ctx.machine_jobs
    ));
    vec![a, b, c]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicore_scales_event_handling() {
        let (r1, h1) = measure_scaling(1, 200);
        let (r4, h4) = measure_scaling(4, 200);
        assert_eq!(h1, 200);
        assert_eq!(h4, 800);
        assert!(r4 > r1 * 2.5, "4 cores {r4} vs 1 core {r1}");
    }

    #[test]
    fn sharded_rows_match_serial_rows() {
        let serial = measure_sharded(Engine::Reference, 1, 400_000);
        for jobs in [1, 2, 4] {
            assert_eq!(
                serial,
                measure_sharded(Engine::Fast, jobs, 400_000),
                "F15c rows must not depend on the engine (fast, --machine-jobs {jobs})"
            );
        }
        assert!(serial
            .0
            .iter()
            .all(|&(iters, _, billed)| iters > 0 && billed > 0));
    }

    #[test]
    fn migration_first_pass_is_cold_then_recovers() {
        let (warm0, cold1, rewarmed, _cold0) = measure_migration();
        assert!(
            cold1 > warm0 * 3 / 2,
            "first pass after migration ({cold1}) should be well above warm ({warm0})"
        );
        assert!(
            rewarmed < cold1,
            "steady state ({rewarmed}) should recover from the cold pass ({cold1})"
        );
    }
}
