//! Memory-inclusive superblocks: the batched load/store fast path must
//! be behaviourally invisible. Each scenario runs on twin machines —
//! `Engine::Reference` (single-step, no superblocks) and `Engine::Fast`
//! (register and memory superblocks) — and requires identical simulated time,
//! thread states, registers, statistics counters, and cache hit/miss
//! totals. Scenarios target the three bail routes the fast path adds:
//!
//! 1. an armed monitor line inside a block's store footprint (the
//!    aggregated `would_wake` intersection must bail so the wakeup fires
//!    at the exact serial cycle),
//! 2. a mid-footprint L1 eviction by a cross-core DMA write (the block
//!    must fall back without double-counting cache statistics), and
//! 3. a self-modifying store aimed at the block's *own* fetch lines
//!    (the probe must bail and the single-step store must kill the
//!    block).

use switchless_core::machine::{Engine, Machine, MachineConfig, ThreadId};
use switchless_core::tid::ThreadState;
use switchless_isa::asm::{assemble, Program};
use switchless_sim::time::Cycles;

const ENGINES: [Engine; 2] = [Engine::Reference, Engine::Fast];

fn machine(engine: Engine) -> Machine {
    let mut m = Machine::new(MachineConfig::small());
    m.set_engine(engine);
    m
}

/// Everything the scenarios compare across engines. Counter equality is
/// total (every bumped counter, not a curated subset): the fast path
/// commits the same `inst.executed`, dispatch, wake, and activation
/// counts as the serial walk or it is not equivalent.
#[derive(Debug, PartialEq)]
struct Observed {
    now: Cycles,
    states: Vec<ThreadState>,
    regs: Vec<[u64; 16]>,
    counters: Vec<(String, u64)>,
    cache: ((u64, u64), (u64, u64), (u64, u64)),
}

fn observe(m: &Machine, tids: &[ThreadId]) -> Observed {
    Observed {
        now: m.now(),
        states: tids.iter().map(|&t| m.thread_state(t)).collect(),
        regs: tids
            .iter()
            .map(|&t| core::array::from_fn(|r| m.thread_reg(t, r)))
            .collect(),
        counters: m
            .counters()
            .iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        cache: m.cache_stats(),
    }
}

/// Runs `scenario` on both engines and asserts the final
/// observations match. A single end-of-scenario snapshot suffices:
/// every intermediate divergence would feed forward into the final
/// counters, registers, or simulated time.
fn assert_equivalent(scenario: impl Fn(&mut Machine) -> Vec<ThreadId>) {
    let mut baseline: Option<Observed> = None;
    for engine in ENGINES {
        let mut m = machine(engine);
        let tids = scenario(&mut m);
        let obs = observe(&m, &tids);
        match &baseline {
            None => baseline = Some(obs),
            Some(base) => {
                assert_eq!(
                    base, &obs,
                    "engine {engine:?} diverged from {:?}",
                    ENGINES[0]
                );
            }
        }
    }
}

fn halt_word() -> u64 {
    assemble("entry: halt").unwrap().words[0]
}

/// Hot storer: a 3-instruction self-loop whose body stores its counter
/// to `[r2]` every iteration — the canonical memory-inclusive block.
fn storer() -> Program {
    assemble(
        r#"
        .base 0x10000
        entry:
            movi r1, 0
            movi r2, 0x20000
        hot:
            addi r1, r1, 1
            st r1, r2, 0
            jmp hot
        "#,
    )
    .unwrap()
}

/// Scenario 1: a waiter arms a monitor on the line the hot block stores
/// to. The aggregated store-footprint/filter intersection must bail the
/// block, and the single-step store must deliver the wakeup at the
/// exact serial cycle — observed through `r7`, the storer's iteration
/// count the waiter reads at wake, and through `monitor.wakes` /
/// simulated `now` equality.
#[test]
fn armed_monitor_line_bails_block_and_wakes_on_serial_cycle() {
    assert_equivalent(|m| {
        let storer_prog = storer();
        let storer_tid = m.load_program(0, &storer_prog).unwrap();
        m.start_thread(storer_tid);
        // Form the block and get deep into the loop before the waiter
        // exists.
        m.run_for(Cycles(50_000));
        assert_eq!(m.thread_state(storer_tid), ThreadState::Runnable);
        assert!(m.thread_reg(storer_tid, 1) > 1_000, "storer must be hot");

        let waiter_prog = assemble(
            r#"
            .base 0x30000
            entry:
                movi r9, 0x20000
                monitor r9
                mwait
                ld r7, r9, 0
                halt
            "#,
        )
        .unwrap();
        let waiter_tid = m.load_program(0, &waiter_prog).unwrap();
        m.start_thread(waiter_tid);
        m.run_for(Cycles(50_000));
        assert_eq!(
            m.thread_state(waiter_tid),
            ThreadState::Halted,
            "the armed line sits in the block's store footprint; the \
             block must bail and the store must wake the waiter"
        );
        assert!(m.thread_reg(waiter_tid, 7) > 0);
        vec![storer_tid, waiter_tid]
    });
}

/// Scenario 2: mid-run, a DMA write evicts one line of the block's data
/// footprint from the storer's L1. The next block arrival must fall
/// back to single-step (re-warming the line) with zero double-counted
/// cache statistics — asserted by total equality of per-level hit/miss
/// counts against both fallback engines.
#[test]
fn dma_eviction_of_footprint_line_falls_back_without_stat_skew() {
    assert_equivalent(|m| {
        // Two-line store body, so the DMA can hit a non-entry line of
        // the data footprint.
        let p = assemble(
            r#"
            .base 0x10000
            entry:
                movi r1, 0
                movi r2, 0x20000
            hot:
                addi r1, r1, 1
                st r1, r2, 0
                st r1, r2, 64
                jmp hot
            "#,
        )
        .unwrap();
        let tid = m.load_program(0, &p).unwrap();
        m.start_thread(tid);
        m.run_for(Cycles(50_000));
        assert_eq!(m.thread_state(tid), ThreadState::Runnable);
        let before = m.thread_reg(tid, 1);
        assert!(before > 1_000, "storer must be hot");

        // Evict the second footprint line; the write also lands new
        // bytes the loop immediately overwrites.
        m.dma_write(0x20040, &0xdead_beefu64.to_le_bytes());
        m.run_for(Cycles(50_000));
        assert_eq!(m.thread_state(tid), ThreadState::Runnable);
        assert!(m.thread_reg(tid, 1) > before, "loop must keep running");
        vec![tid]
    });
}

/// Scenario 3: the hot block's own store is re-aimed at the block's
/// fetch lines. The probe's self-store-overlaps-own-code check must
/// bail, and the single-step store must kill the block: the thread
/// executes the freshly patched `halt` instead of replaying stale
/// pre-costed instructions forever.
#[test]
fn self_store_into_own_fetch_lines_kills_block() {
    assert_equivalent(|m| {
        let p = assemble(
            r#"
            .base 0x10000
            entry:
                movi r1, 0
                movi r5, 2000
                movi r2, 0x20000
                ld r4, newinst
            hot:
                addi r1, r1, 1
                st r4, r2, 0
            patchme:
                bne r1, r5, hot
                ld r2, paddr
                movi r1, 0
                jmp hot
            newinst: .word 0
            paddr:   .word 0
            "#,
        )
        .unwrap();
        let tid = m.load_program(0, &p).unwrap();
        m.poke_u64(p.symbol("newinst").unwrap(), halt_word());
        m.poke_u64(p.symbol("paddr").unwrap(), p.symbol("patchme").unwrap());
        m.start_thread(tid);
        m.run_for(Cycles(200_000));
        assert_eq!(
            m.thread_state(tid),
            ThreadState::Halted,
            "the self-aimed store must land and the patched `halt` must \
             execute; a stale block would spin forever"
        );
        // The patching store happens on the first post-switch iteration.
        assert_eq!(m.thread_reg(tid, 1), 1);
        vec![tid]
    });
}
