//! Cross-engine equivalence: `Engine::Fast` (superblocks plus the
//! core-sharded epoch engine on every multi-core machine) must be
//! **bit-identical** to `Engine::Reference`, the serial loop — same
//! memory, same architectural state, same counters, same cache and wake
//! statistics, same `now` — at every `machine_jobs` value (1 runs the
//! epoch workers inline), on workloads that commit epochs, bail out of
//! them, and fall back to serial replay.

use std::fmt::Write as _;

#[path = "support/serving.rs"]
mod serving;

use serving::Serving;
use switchless_core::machine::{Engine, Machine, MachineConfig};
use switchless_core::sched::SchedPolicy;
use switchless_core::ThreadId;
use switchless_isa::asm::assemble;
use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

/// Folds every observable surface of a machine into one string: thread
/// architectural state, billed cycles, wake statistics, all nonzero
/// counters, cache/TLB-visible statistics, the wake-latency histogram
/// (bucket-exact), the full cache and TLB state, and an FNV fold of the
/// memory spans of interest.
/// Two machines with equal fingerprints are observably identical.
fn fingerprint(m: &Machine, tids: &[ThreadId], spans: &[(u64, u64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "now={:?} halted={:?}", m.now(), m.halted_reason());
    for (name, v) in m.counters().iter() {
        let _ = writeln!(s, "ctr {name}={v}");
    }
    for (i, &tid) in tids.iter().enumerate() {
        let regs: Vec<u64> = (0..16).map(|r| m.thread_reg(tid, r)).collect();
        let _ = writeln!(
            s,
            "t{i} state={:?} pc={:#x} billed={} wake={:?} regs={regs:?}",
            m.thread_state(tid),
            m.thread_pc(tid),
            m.billed_cycles(tid).0,
            m.thread_wake_stats(tid),
        );
    }
    let cores = m.config().cores;
    for c in 0..cores {
        let _ = writeln!(s, "store{c}={:?}", m.store_stats(c));
    }
    let _ = writeln!(
        s,
        "cache={:?} wb={:?}",
        m.cache_stats(),
        m.cache_writebacks()
    );
    let _ = writeln!(s, "hist={:?}", m.wake_latency());
    // Every cache line's tag, LRU stamp and dirty bit, and every TLB.
    let _ = writeln!(s, "{}", m.cache_state());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(base, len) in spans {
        let mut a = base;
        while a + 8 <= base + len {
            h = (h ^ m.peek_u64(a)).wrapping_mul(0x0000_0100_0000_01b3);
            a += 8;
        }
    }
    let _ = writeln!(s, "mem={h:#x}");
    s
}

/// Per-core compute loops over disjoint memory domains, deliberately
/// staggered (different strides, work amounts and loop lengths) so the
/// cores' event streams do not stay phase-locked.
fn build_compute(
    cores: usize,
    engine: Engine,
    jobs: usize,
) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = cores;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    let mut tids = Vec::new();
    let mut spans = Vec::new();
    for c in 0..cores {
        let buf = m.alloc(4096);
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {buf}
                movi r4, {end}
                movi r6, 0
            pass:
                ld r2, r3, 0
                addi r2, r2, {inc}
                st r2, r3, 0
                work {wk}
                addi r3, r3, {stride}
                addi r6, r6, 1
                blt r3, r4, pass
                movi r3, {buf}
                jmp pass
            "#,
            base = 0x10000 + (c as u64) * 0x4000,
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
        spans.push((buf, 4096));
    }
    (m, tids, spans)
}

/// The fast engine at every job count under test.
const JOBS: [usize; 3] = [1, 2, 4];

/// Runs a machine to `t` in uneven increments (exercises epoch retries,
/// the serial floor, and the `now = t` tail on every segment boundary).
fn run_chunked(m: &mut Machine, t: u64) {
    let cuts = [t / 3, t / 3 + 1, 2 * t / 3, t];
    for &c in &cuts {
        m.run_until(Cycles(c));
    }
}

#[test]
fn sharded_matches_serial_on_domain_compute() {
    let t = 300_000;
    let (mut serial, tids_s, spans) = build_compute(4, Engine::Reference, 1);
    run_chunked(&mut serial, t);
    let want = fingerprint(&serial, &tids_s, &spans);

    for jobs in JOBS {
        let (mut par, tids_p, spans_p) = build_compute(4, Engine::Fast, jobs);
        run_chunked(&mut par, t);
        let got = fingerprint(&par, &tids_p, &spans_p);
        assert_eq!(want, got, "machine-jobs {jobs} diverged from serial");
        let st = par.shard_stats();
        assert!(
            st.committed > 0 && st.insts_parallel > 1_000,
            "expected real parallel epochs, got {st:?}"
        );
        // The 7-instruction `blt` body runs several iterations per entry.
        assert!(
            st.mem_block_insts > 2 * 7 * st.block_runs,
            "expected looping blocks, got {st:?}"
        );
    }
}

#[test]
fn sharded_is_deterministic_across_runs() {
    let t = 150_000;
    let (mut a, tids_a, spans_a) = build_compute(4, Engine::Fast, 4);
    run_chunked(&mut a, t);
    let (mut b, tids_b, spans_b) = build_compute(4, Engine::Fast, 4);
    run_chunked(&mut b, t);
    assert_eq!(
        fingerprint(&a, &tids_a, &spans_a),
        fingerprint(&b, &tids_b, &spans_b),
    );
    assert_eq!(
        a.shard_stats(),
        b.shard_stats(),
        "epoch schedule must be deterministic"
    );
}

/// Monitor/mwait wake traffic driven by device events: they
/// truncate every epoch window, wakes produce histogram samples, and
/// threads repeatedly park. Each wake starts about 1,300 cycles of
/// register-only work, so the two cores' busy spells overlap and the
/// windows between pokes hold both cores' slots: the engine must
/// interleave serial replay with committed epochs and still match.
fn build_wakers(engine: Engine, jobs: usize) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    let mut tids = Vec::new();
    let mut spans = Vec::new();
    for c in 0..2usize {
        let word = m.alloc(64);
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {word}
            loop:
                monitor r3
                mwait
                ld r2, r3, 0
                addi r5, r5, 1
                movi r8, {iters}
            busy:
                work {wk}
                addi r8, r8, -1
                bne r8, r0, busy
                jmp loop
            "#,
            base = 0x20000 + (c as u64) * 0x4000,
            word = word,
            iters = 60 - 20 * c,
            wk = 11 + 8 * c,
        ))
        .expect("waker program");
        let tid = m.load_program(c, &prog).expect("load");
        m.start_thread(tid);
        tids.push(tid);
        spans.push((word, 64));
        let poke = m.register_device(move |mach, _, v| mach.poke_u64(word, v));
        for i in 0..40u64 {
            let at = Cycles(2_000 + i * 1_700 + (c as u64) * 531);
            m.at_device(at, poke, i + 1);
        }
    }
    (m, tids, spans)
}

#[test]
fn sharded_matches_serial_under_wake_traffic() {
    let t = 120_000;
    let (mut serial, tids_s, spans) = build_wakers(Engine::Reference, 1);
    serial.run_until(Cycles(t));
    let want = fingerprint(&serial, &tids_s, &spans);

    for jobs in JOBS {
        let (mut par, tids_p, spans_p) = build_wakers(Engine::Fast, jobs);
        par.run_until(Cycles(t));
        let got = fingerprint(&par, &tids_p, &spans_p);
        assert_eq!(
            want, got,
            "wake-heavy workload diverged at machine-jobs {jobs}"
        );
        let st = par.engine_stats();
        assert!(st.committed > 0, "machine-jobs {jobs}: {st:?}");
    }
}

/// Without registered domains every store leaves the shard, so epochs
/// containing stores bail and replay serially — slower, never wrong.
#[test]
fn sharded_matches_serial_without_domains() {
    let t = 60_000;
    let build = |engine: Engine, jobs: usize| {
        let mut cfg = MachineConfig::small();
        cfg.cores = 2;
        let mut m = Machine::new(cfg);
        m.set_engine(engine);
        m.set_machine_jobs(jobs);
        let mut tids = Vec::new();
        let mut spans = Vec::new();
        for c in 0..2usize {
            let buf = m.alloc(1024);
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                entry:
                    movi r3, {buf}
                    movi r2, 0
                loop:
                    addi r2, r2, {inc}
                    st r2, r3, 0
                    work {wk}
                    jmp loop
                "#,
                base = 0x30000 + (c as u64) * 0x4000,
                buf = buf,
                inc = c + 1,
                wk = 9 + 5 * c,
            ))
            .expect("store program");
            let tid = m.load_program(c, &prog).expect("load");
            m.start_thread(tid);
            tids.push(tid);
            spans.push((buf, 1024));
        }
        (m, tids, spans)
    };
    let (mut serial, tids_s, spans) = build(Engine::Reference, 1);
    serial.run_until(Cycles(t));
    let want = fingerprint(&serial, &tids_s, &spans);
    for jobs in JOBS {
        let (mut par, tids_p, spans_p) = build(Engine::Fast, jobs);
        par.run_until(Cycles(t));
        assert_eq!(
            want,
            fingerprint(&par, &tids_p, &spans_p),
            "machine-jobs {jobs}"
        );
        assert!(
            par.shard_stats().bailed > 0,
            "undomained stores should be bailing epochs: {:?}",
            par.shard_stats()
        );
    }
}

/// Two enrolled threads per core: bursts are ineligible (no sole
/// runnable), so workers replay per-event scheduler rotation.
#[test]
fn sharded_matches_serial_with_scheduler_rotation() {
    let t = 80_000;
    let build = |engine: Engine, jobs: usize| {
        let mut cfg = MachineConfig::small();
        cfg.cores = 2;
        let mut m = Machine::new(cfg);
        m.set_engine(engine);
        m.set_machine_jobs(jobs);
        let mut tids = Vec::new();
        let mut spans = Vec::new();
        for c in 0..2usize {
            let buf = m.alloc(2048);
            m.set_core_domain(c, buf, 2048);
            spans.push((buf, 2048));
            for k in 0..2u64 {
                let prog = assemble(&format!(
                    r#"
                    .base {base:#x}
                    entry:
                        movi r3, {slot}
                        movi r2, 0
                    loop:
                        addi r2, r2, 1
                        st r2, r3, 0
                        work {wk}
                        jmp loop
                    "#,
                    base = 0x40000 + (c as u64) * 0x8000 + k * 0x4000,
                    slot = buf + k * 512,
                    wk = 5 + 3 * (c as u64) + 2 * k,
                ))
                .expect("pair program");
                let tid = m.load_program(c, &prog).expect("load");
                m.start_thread(tid);
                tids.push(tid);
            }
        }
        (m, tids, spans)
    };
    let (mut serial, tids_s, spans) = build(Engine::Reference, 1);
    run_chunked(&mut serial, t);
    let want = fingerprint(&serial, &tids_s, &spans);
    for jobs in [1, 3] {
        let (mut par, tids_p, spans_p) = build(Engine::Fast, jobs);
        run_chunked(&mut par, t);
        assert_eq!(
            want,
            fingerprint(&par, &tids_p, &spans_p),
            "machine-jobs {jobs}"
        );
    }
}

/// One host job runs the epoch workers inline, and the per-core
/// lookahead is where the gain comes from: on the F15c shape nearly every
/// instruction retires inside a committed epoch. Host threads change
/// nothing the engine did: its statistics are identical at every
/// `machine_jobs`, and its tiers add up to the executed instructions.
#[test]
fn machine_jobs_one_commits_epochs() {
    let run = |jobs: usize| {
        let (mut m, _, _) = build_compute(4, Engine::Fast, jobs);
        m.run_until(Cycles(300_000));
        (m.engine_stats(), m.counters().get("inst.executed"))
    };
    let (st, insts) = run(1);
    assert_eq!(st.insts(), insts, "{st:?}");
    assert!(st.committed > 0, "{st:?}");
    assert!(
        st.insts_parallel as f64 / insts as f64 > 0.9,
        "only {} of {insts} instructions retired in committed epochs: {st:?}",
        st.insts_parallel
    );
    for jobs in [2, 4] {
        assert_eq!(run(jobs).0, st, "machine-jobs {jobs}");
    }
}

/// The reference engine never stages an epoch, whatever `machine_jobs`,
/// and never forms or runs a superblock.
#[test]
fn reference_engine_runs_no_epochs() {
    let (mut m, tids, spans) = build_compute(4, Engine::Reference, 4);
    m.run_until(Cycles(50_000));
    let st = m.engine_stats();
    assert_eq!(st.insts(), m.counters().get("inst.executed"), "{st:?}");
    assert_eq!(
        (st.reg_block_insts, st.mem_block_insts, st.blocks_formed),
        (0, 0, 0)
    );
    assert_eq!(
        (
            st.committed,
            st.bailed,
            st.ties,
            st.too_few,
            st.serial_events
        ),
        (0, 0, 0, 0, 0)
    );
    // And produces work: the fingerprint is non-trivial.
    assert!(fingerprint(&m, &tids, &spans).contains("ctr "));
}

/// Per core: two compute threads keep both SMT slots busy, and a third
/// thread parks in `mwait` on its own word. One host callback at
/// `wake_at` wakes the parked thread on every core; with no free slot,
/// each is first dispatched at its core's next slot dispatch — a different
/// cycle on each core, inside the epoch that follows the callback. After
/// the wake every thread only computes, so no later wake overwrites the
/// epoch's wake effects.
fn build_late_wakers(
    engine: Engine,
    jobs: usize,
    wake_at: Cycles,
) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    let mut tids = Vec::new();
    let mut spans = Vec::new();
    let mut words = Vec::new();
    for c in 0..2u64 {
        let buf = m.alloc(2048);
        m.set_core_domain(c as usize, buf, 2048);
        spans.push((buf, 2048));
        for k in 0..2u64 {
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                entry:
                    movi r3, {slot}
                    movi r2, 0
                loop:
                    addi r2, r2, 1
                    st r2, r3, 0
                    work {wk}
                    jmp loop
                "#,
                base = 0x50000 + c * 0xc000 + k * 0x4000,
                slot = buf + k * 512,
                wk = 5 + 4 * c + 3 * k,
            ))
            .expect("busy program");
            let tid = m.load_program(c as usize, &prog).expect("load");
            m.start_thread(tid);
            tids.push(tid);
        }
        let word = m.alloc(64);
        words.push(word);
        spans.push((word, 64));
        // One cache line of code: the wake path stays L1-resident.
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {word}
                monitor r3
                mwait
            spin:
                addi r5, r5, 1
                work {wk}
                jmp spin
            "#,
            base = 0x50000 + c * 0xc000 + 0x8000,
            wk = 13 + 6 * c,
        ))
        .expect("sleeper program");
        let tid = m.load_program(c as usize, &prog).expect("load");
        m.start_thread(tid);
        tids.push(tid);
    }
    let wake = m.register_device(move |mach, _, _| {
        for &w in &words {
            mach.poke_u64(w, 1);
        }
    });
    m.at_device(wake_at, wake, 0);
    (m, tids, spans)
}

/// A committed epoch's wake effects: every sample reaches the histogram.
#[test]
fn sharded_matches_serial_on_wakes_inside_an_epoch() {
    let (wake_at, t) = (Cycles(40_000), 60_000);
    let (mut serial, tids_s, spans) = build_late_wakers(Engine::Reference, 1, wake_at);
    serial.run_until(Cycles(t));
    let want = fingerprint(&serial, &tids_s, &spans);
    let h = serial.wake_latency();
    let want_hist = (h.count(), h.mean(), h.min(), h.max());
    for jobs in [1, 4] {
        let (mut par, tids_p, spans_p) = build_late_wakers(Engine::Fast, jobs, wake_at);
        par.run_until(Cycles(t));
        let h = par.wake_latency();
        assert_eq!(
            (h.count(), h.mean(), h.min(), h.max()),
            want_hist,
            "machine-jobs {jobs}"
        );
        assert_eq!(
            want,
            fingerprint(&par, &tids_p, &spans_p),
            "machine-jobs {jobs}"
        );
        assert!(par.shard_stats().committed > 0, "{:?}", par.shard_stats());
    }
}

/// Per core: one compute thread (its work differs per core, so the
/// cores' event streams do not phase-lock) and one thread parked in
/// `mwait` on its own word, with the same code on both cores. One host
/// callback at `wake_at` wakes both sleepers; each core's idle slot is
/// kicked at that cycle, so the two woken threads are first dispatched
/// on the same cycle, inside the epoch that follows the callback.
fn build_twin_wakers(
    engine: Engine,
    jobs: usize,
    wake_at: Cycles,
) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    let mut tids = Vec::new();
    let mut spans = Vec::new();
    let mut words = Vec::new();
    // Core 1 starts 52 cycles later. Same-cycle starts would make every
    // thread's first activation end on the same cycle on both cores (a
    // survivor tie); this offset lines the compute loops up so that both
    // sleepers are first dispatched at `wake_at + 1` (other offsets
    // spread the two dispatches over the next 15 cycles).
    let start = |m: &mut Machine, tid: ThreadId| {
        if tid.core == 0 {
            m.start_thread(tid);
        } else {
            let dev = m.register_device(move |mach, _, _| mach.start_thread(tid));
            m.at_device(Cycles(52), dev, 0);
        }
    };
    for c in 0..2u64 {
        let buf = m.alloc(512);
        m.set_core_domain(c as usize, buf, 512);
        spans.push((buf, 512));
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {buf}
                movi r2, 0
            loop:
                addi r2, r2, 1
                st r2, r3, 0
                work {wk}
                jmp loop
            "#,
            base = 0x60000 + c * 0x8000,
            wk = 9 + 7 * c,
        ))
        .expect("busy program");
        let tid = m.load_program(c as usize, &prog).expect("load");
        start(&mut m, tid);
        tids.push(tid);
        let word = m.alloc(64);
        words.push(word);
        spans.push((word, 64));
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {word}
                monitor r3
                mwait
            spin:
                addi r5, r5, 1
                work 13
                jmp spin
            "#,
            base = 0x60000 + c * 0x8000 + 0x4000,
        ))
        .expect("sleeper program");
        let tid = m.load_program(c as usize, &prog).expect("load");
        start(&mut m, tid);
        tids.push(tid);
    }
    let wake = m.register_device(move |mach, _, _| {
        for &w in &words {
            mach.poke_u64(w, 1);
        }
    });
    m.at_device(wake_at, wake, 0);
    (m, tids, spans)
}

/// Two cores' wake samples on the same cycle are a multiset for the
/// histogram, so the epoch that holds them commits instead of counting
/// as a tie, and the histogram still matches the serial engine's.
#[test]
fn same_cycle_wakes_on_two_cores_commit() {
    let (wake_at, t) = (Cycles(30_000), 40_000);
    let (mut serial, tids_s, spans) = build_twin_wakers(Engine::Reference, 1, wake_at);
    serial.run_until(Cycles(t));
    let want = fingerprint(&serial, &tids_s, &spans);
    // Each sleeper's start, then the callback's wake, with equal latency.
    let sleepers = [tids_s[1], tids_s[3]];
    let stats = sleepers.map(|tid| serial.thread_wake_stats(tid));
    assert_eq!(stats[0].0, 2, "{stats:?}");
    assert_eq!(stats[0], stats[1]);
    for jobs in JOBS {
        let (mut par, tids_p, spans_p) = build_twin_wakers(Engine::Fast, jobs, wake_at);
        par.run_until(Cycles(t));
        assert_eq!(
            format!("{:?}", par.wake_latency()),
            format!("{:?}", serial.wake_latency()),
            "machine-jobs {jobs}"
        );
        assert_eq!(
            want,
            fingerprint(&par, &tids_p, &spans_p),
            "machine-jobs {jobs}"
        );
        let st = par.engine_stats();
        assert!(st.ties == 0 && st.committed > 0, "{st:?}");
    }
}

/// Two cores count through their own domains, then both store their id
/// to one shared word on the same cycle `T`. Core 1 reaches `T` through
/// one long `work`, core 0 through short ones, so the serial engine
/// queues core 1's event at `T` first and core 1's store lands first:
/// the word ends up holding core 0's id. Run in steps to `T - 60` and
/// `T - 1`, the last window before `T` is short enough that both cores'
/// events at `T` survive it, a survivor tie; committing that window
/// would queue them core by core and flip the two stores.
fn build_store_race(engine: Engine, jobs: usize) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    let mut tids = Vec::new();
    let shared = m.alloc(64);
    let mut spans = vec![(shared, 64)];
    for c in 0..2u64 {
        let buf = m.alloc(512);
        m.set_core_domain(c as usize, buf, 512);
        spans.push((buf, 512));
        // Both tails end at `STORE_RACE_AT`; only the last instruction
        // before it differs in length.
        let tail = if c == 0 {
            "work 839\n work 3\n work 3\n work 3"
        } else {
            "work 40"
        };
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {buf}
                movi r7, {shared}
                movi r6, 0
                movi r8, 200
            loop:
                ld r2, r3, 0
                addi r2, r2, 1
                st r2, r3, 0
                work {wk}
                addi r6, r6, 1
                blt r6, r8, loop
                movi r9, {id}
                {tail}
                st r9, r7, 0
            spin:
                addi r2, r2, 1
                st r2, r3, 8
                work 5
                jmp spin
            "#,
            base = 0x70000 + c * 0x8000,
            wk = 9 + 4 * c,
            id = c + 1,
        ))
        .expect("store-race program");
        let tid = m.load_program(c as usize, &prog).expect("load");
        m.start_thread(tid);
        tids.push(tid);
    }
    (m, tids, spans)
}

/// The cycle both cores of [`build_store_race`] store the shared word.
const STORE_RACE_AT: u64 = 6_260;

/// A survivor tie whose pop order the simulation reads: the tied window
/// replays serially, so the two same-cycle stores land in the serial
/// engine's order.
#[test]
fn survivor_tie_over_same_cycle_shared_stores_matches_serial() {
    let cuts = [STORE_RACE_AT - 60, STORE_RACE_AT - 1, 20_000];
    let (mut serial, tids_s, spans) = build_store_race(Engine::Reference, 1);
    for c in cuts {
        serial.run_until(Cycles(c));
    }
    assert_eq!(serial.peek_u64(spans[0].0), 1, "core 0's store lands last");
    let want = fingerprint(&serial, &tids_s, &spans);
    for jobs in JOBS {
        let (mut par, tids_p, spans_p) = build_store_race(Engine::Fast, jobs);
        for c in cuts {
            par.run_until(Cycles(c));
        }
        assert_eq!(
            want,
            fingerprint(&par, &tids_p, &spans_p),
            "machine-jobs {jobs}"
        );
        let st = par.engine_stats();
        assert!(st.ties > 0 && st.committed > 0, "{st:?}");
    }
}

/// A machine builder from this file, with its engine and job count bound.
type Build = fn() -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>);

/// Seeded cut schedules for a run to `t`: 1–6 distinct cut points in
/// `[1, t)`, sorted, then `t` itself.
fn cut_schedules(t: u64, seeds: u64) -> Vec<Vec<u64>> {
    (0..seeds)
        .map(|seed| {
            let mut rng = Rng::seed_from(seed);
            let n = 1 + rng.next_below(6);
            let mut cuts: Vec<u64> = (0..n).map(|_| 1 + rng.next_below(t - 1)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            cuts.push(t);
            cuts
        })
        .collect()
}

/// A one-core serving machine (`tests/support/serving.rs`) of `workers`
/// workers plus the dispatcher.
fn serving(workers: usize, slots: usize, policy: SchedPolicy, hcall: bool) -> Serving {
    Serving {
        workers,
        slots,
        policy,
        period: 700,
        service: 400,
        hcall,
        ticks: 100,
    }
}

/// Chunking invariance: running a machine to `t` in one `run_until`
/// leaves it exactly as running it through any sequence of earlier cut
/// points does. The one-core serving machines on `Engine::Fast` run slot
/// chains, which a cut may split anywhere.
///
/// Multi-core `Engine::Fast` is left out by name: it breaks this property
/// on the cut schedule `[6259, 20_000]` of [`build_store_race`], through
/// the epoch engine's staggered fresh horizons (ROADMAP item 1; the
/// `shard.rs` module doc describes the divergence). Seeded schedules that
/// happen to pass on it must not stand in for that known failure.
#[test]
fn run_until_is_invariant_under_cut_points() {
    let fixtures: [(&str, Build, u64); 7] = [
        (
            "4-core compute, reference",
            || build_compute(4, Engine::Reference, 1),
            100_000,
        ),
        (
            "wakers, reference",
            || build_wakers(Engine::Reference, 1),
            100_000,
        ),
        (
            "store race, reference",
            || build_store_race(Engine::Reference, 1),
            20_000,
        ),
        (
            "1-core compute, fast",
            || build_compute(1, Engine::Fast, 1),
            100_000,
        ),
        (
            "2-thread serving, one slot, fast",
            || serving(1, 1, SchedPolicy::RoundRobin, true).build(Engine::Fast, false),
            75_000,
        ),
        (
            "4-thread serving, priority, fast",
            || serving(3, 2, SchedPolicy::Priority, false).build(Engine::Fast, false),
            75_000,
        ),
        (
            "8-thread serving, fast",
            || serving(7, 2, SchedPolicy::RoundRobin, true).build(Engine::Fast, false),
            75_000,
        ),
    ];
    for (name, build, t) in fixtures {
        let (mut whole, tids, spans) = build();
        whole.run_until(Cycles(t));
        let want = fingerprint(&whole, &tids, &spans);
        for cuts in cut_schedules(t, 8) {
            let (mut m, tids, spans) = build();
            for &c in &cuts {
                m.run_until(Cycles(c));
            }
            assert_eq!(
                want,
                fingerprint(&m, &tids, &spans),
                "{name}, cuts {cuts:?}"
            );
        }
    }
}

/// A fixture builder from this file, for any engine and job count.
type BuildOn = fn(Engine, usize) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>);

/// The cycle at which [`arm_tripwire`]'s device event trips its invariant.
const TRIPWIRE_AT: u64 = 77_777;

/// Registers `test.tripwire`, an invariant that breaks once a device
/// event at [`TRIPWIRE_AT`] bumps its counter. The machine reads it only
/// at invariant-check boundaries, so the first violation's cycle is the
/// clock at the first check after the bump.
fn arm_tripwire(m: &mut Machine) {
    let bump = m.register_device(|mach, _, _| mach.counters_mut().inc("test.tripwire"));
    m.at_device(Cycles(TRIPWIRE_AT), bump, 0);
    m.register_invariant("test.tripwire", |mach| {
        let n = mach.counters().get("test.tripwire");
        (n > 0).then(|| format!("tripped {n} time(s)"))
    });
}

/// The invariant checker no longer turns the epoch engine off: with
/// checking on, each fixture runs the same epochs as with it off and
/// ends bit-identical to the reference engine, and the only violation is
/// a registered invariant that breaks mid-run, whose first report (name,
/// cycle, detail) is the same on both engines. That holds only if a
/// committed epoch is checked at its first boundary, as the serial loop
/// checks it.
fn assert_checked_epochs_match_serial(fixtures: &[(&str, BuildOn)]) {
    let t = Cycles(80_000);
    for &(name, build) in fixtures {
        let run = |engine: Engine, jobs: usize, check: bool| {
            let (mut m, tids, spans) = build(engine, jobs);
            m.enable_invariants(check);
            arm_tripwire(&mut m);
            m.run_until(t);
            let print = fingerprint(&m, &tids, &spans);
            (m, print)
        };
        let only_tripwire = |m: &Machine, jobs: usize| {
            let report = m.invariant_report();
            assert!(
                report
                    .violations()
                    .iter()
                    .all(|v| v.invariant == "test.tripwire"),
                "{name}, machine-jobs {jobs}: {:?}",
                report.violations()
            );
            report.violations().first().cloned()
        };
        let (unchecked, _) = run(Engine::Fast, 1, false);
        let epochs = unchecked.engine_stats();
        let (reference, want) = run(Engine::Reference, 1, true);
        let first = only_tripwire(&reference, 1);
        assert!(first.is_some(), "{name}: the tripwire never tripped");
        for jobs in JOBS {
            let (m, got) = run(Engine::Fast, jobs, true);
            assert_eq!(want, got, "{name}, machine-jobs {jobs}");
            assert_eq!(m.engine_stats(), epochs, "{name}, machine-jobs {jobs}");
            assert_eq!(
                only_tripwire(&m, jobs),
                first,
                "{name}, machine-jobs {jobs}"
            );
        }
    }
}

/// Fixtures that commit most of their instructions in epochs.
#[test]
fn invariant_checked_epochs_match_serial_on_compute() {
    assert_checked_epochs_match_serial(&[
        ("4-core compute", |e, j| build_compute(4, e, j)),
        ("store race", build_store_race),
    ]);
}

/// Fixtures whose device wakes cut epochs short.
#[test]
fn invariant_checked_epochs_match_serial_under_wakes() {
    assert_checked_epochs_match_serial(&[
        ("wakers", build_wakers),
        ("late wakers", |e, j| {
            build_late_wakers(e, j, Cycles(40_000))
        }),
        ("twin wakers", |e, j| {
            build_twin_wakers(e, j, Cycles(30_000))
        }),
    ]);
}

/// Rounds of [`build_ties`] per core.
const TIE_ROUNDS: u64 = 16;

/// Same-cycle ties between a device event and a slot's next dispatch.
/// On every core a thread parks on a word; round `k`'s `poke` device
/// event writes that word, which wakes the thread and arms the core's
/// idle slots for the same cycle, and schedules a `stamp` device event
/// for that cycle too: before the wake on even rounds, after it on odd
/// ones. `stamp` writes `k` to the word the woken thread reads first,
/// and the thread logs what it read into its own domain. Events due the
/// same cycle run in the order they were scheduled, so the log holds
/// `k` for an even round (the stamp ran first) and `k - 1`, the previous
/// stamp, for an odd one (the slot's dispatch ran first). After each
/// read the thread works for about 2,700 cycles, and the cores' rounds
/// are 1,300 cycles apart, so on two cores the spans between rounds hold
/// both cores' slots and commit epochs. Each core's domain is its log.
fn build_ties(
    cores: usize,
    engine: Engine,
    jobs: usize,
) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = cores;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    let (mut tids, mut spans) = (Vec::new(), Vec::new());
    for c in 0..cores {
        let word = m.alloc(64);
        let stamped = m.alloc(64);
        let log = m.alloc(4096);
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {word}
                movi r4, {stamped}
                movi r6, {log}
            loop:
                monitor r3
                mwait
                ld r5, r4, 0
                st r5, r6, 0
                addi r6, r6, 8
                movi r8, 120
            busy:
                work 20
                addi r8, r8, -1
                bne r8, r0, busy
                jmp loop
            "#,
            base = 0x20000 + (c as u64) * 0x4000,
        ))
        .expect("tie program");
        let tid = m.load_program(c, &prog).expect("load");
        m.set_core_domain(c, log, 4096);
        m.start_thread(tid);
        tids.push(tid);
        spans.push((log, 4096));
        let stamp = m.register_device(move |mach, _, k| mach.poke_u64(stamped, k));
        let poke = m.register_device(move |mach, _, k| {
            let now = mach.now();
            if k % 2 == 0 {
                mach.at_device(now, stamp, k);
                mach.poke_u64(word, k);
            } else {
                mach.poke_u64(word, k);
                mach.at_device(now, stamp, k);
            }
        });
        for k in 1..=TIE_ROUNDS {
            m.at_device(Cycles(3_000 + k * 4_000 + c as u64 * 1_300), poke, k);
        }
    }
    (m, tids, spans)
}

/// The `(time, seq)` merge of slot dispatches and device events: with a
/// device event and a slot due the same cycle, whichever was scheduled
/// first runs first, whether the device event went first or second, on
/// one core and across committed epochs on two, on both engines.
#[test]
fn device_and_slot_ties_run_in_schedule_order() {
    let t = Cycles(3_000 + (TIE_ROUNDS + 2) * 4_000);
    let want_log: Vec<u64> = (1..=TIE_ROUNDS)
        .map(|k| if k % 2 == 0 { k } else { k - 1 })
        .collect();
    let log_of = |m: &Machine, base: u64| -> Vec<u64> {
        (0..TIE_ROUNDS).map(|i| m.peek_u64(base + 8 * i)).collect()
    };
    for cores in [1, 2] {
        let (mut reference, tids, spans) = build_ties(cores, Engine::Reference, 1);
        reference.run_until(t);
        for &(log, _) in &spans {
            assert_eq!(
                log_of(&reference, log),
                want_log,
                "{cores} core(s), reference"
            );
        }
        let want = fingerprint(&reference, &tids, &spans);
        for jobs in JOBS {
            let (mut fast, tids, spans) = build_ties(cores, Engine::Fast, jobs);
            fast.run_until(t);
            for &(log, _) in &spans {
                assert_eq!(
                    log_of(&fast, log),
                    want_log,
                    "{cores} core(s), machine-jobs {jobs}"
                );
            }
            assert_eq!(
                want,
                fingerprint(&fast, &tids, &spans),
                "{cores} core(s), machine-jobs {jobs}"
            );
            let st = fast.engine_stats();
            assert_eq!(
                st.committed > 0,
                cores > 1,
                "{cores} core(s), machine-jobs {jobs}: {st:?}"
            );
        }
    }
}
