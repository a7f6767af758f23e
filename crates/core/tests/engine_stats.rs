//! Pinned host-engine work: each machine below runs a fixed number of
//! cycles and must report exactly these [`EngineStats`] — slot
//! dispatches and run-loop pops, instructions per engine tier, bursts,
//! superblocks formed, entered and bailed, decode-cache misses. Host noise cannot move these counts, so they
//! are the gate for the engines whose only job is speed: halving
//! `MAX_BURST`, turning superblocks off, or forming register-only blocks
//! changes them while leaving every simulated result unchanged. A
//! change that moves a pin updates it here and says why. The 4-core
//! epoch machine's pin is in `shard.rs`'s unit tests, next to that
//! machine.

#[path = "support/serving.rs"]
mod serving;

use serving::Serving;
use switchless_core::machine::{Engine, EngineStats, Machine, MachineConfig, MonitorKind};
use switchless_core::sched::SchedPolicy;
use switchless_isa::asm::assemble;
use switchless_sim::time::Cycles;

/// Runs `m` for `cycles` and checks its stats against `want`, after
/// checking that the tiers add up to the executed instructions.
fn assert_pinned(m: &mut Machine, cycles: u64, want: EngineStats) {
    m.run_for(Cycles(cycles));
    let got = m.engine_stats();
    assert_eq!(got.insts(), m.counters().get("inst.executed"), "{got:?}");
    assert_eq!(got, want);
}

/// A pure ALU loop whose 4-instruction body unrolls into one
/// 256-instruction register superblock.
fn spin_machine(cfg: MachineConfig, engine: Engine) -> Machine {
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
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

/// One thread on one core: `prog` loaded and started.
fn one_thread(prog: &str) -> Machine {
    let mut m = Machine::new(MachineConfig::small());
    m.set_engine(Engine::Fast);
    let prog = assemble(prog).expect("program");
    let t = m.load_program(0, &prog).expect("load");
    m.start_thread(t);
    m
}

#[test]
fn spin_stats_are_pinned() {
    let mut m = spin_machine(MachineConfig::small(), Engine::Fast);
    assert_pinned(
        &mut m,
        200_000,
        EngineStats {
            slot_events: 392,
            loop_pops: 1,
            bursts: 195,
            step_insts: 699,
            reg_block_insts: 198_656,
            blocks_formed: 1,
            block_runs: 194,
            ..EngineStats::default()
        },
    );
}

/// One SMT slot, so no sibling slot for the burst gate to skip: every
/// burst runs to `MAX_BURST`, as on two slots, with half the slot
/// events (two slots add the sibling's inert retry after each burst).
#[test]
fn one_slot_burst_stats_are_pinned() {
    let mut cfg = MachineConfig::small();
    cfg.smt_slots = 1;
    let mut m = spin_machine(cfg, Engine::Fast);
    assert_pinned(
        &mut m,
        200_000,
        EngineStats {
            slot_events: 196,
            loop_pops: 1,
            bursts: 195,
            step_insts: 699,
            reg_block_insts: 198_656,
            blocks_formed: 1,
            block_runs: 194,
            ..EngineStats::default()
        },
    );
}

/// The reference engine single-steps every instruction after a burst's
/// first: no blocks, no epochs.
#[test]
fn reference_spin_stats_are_pinned() {
    let mut m = spin_machine(MachineConfig::small(), Engine::Reference);
    assert_pinned(
        &mut m,
        200_000,
        EngineStats {
            slot_events: 392,
            loop_pops: 392,
            bursts: 195,
            step_insts: 199_355,
            ..EngineStats::default()
        },
    );
}

/// Two stores per iteration to one line, with 32 parked waiters
/// keeping the monitor filter populated (their watches never match).
fn store_loop(kind: MonitorKind) -> Machine {
    let mut cfg = MachineConfig::small();
    cfg.monitor = kind;
    let mut m = Machine::new(cfg);
    m.set_engine(Engine::Fast);
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
    m
}

#[test]
fn cam_store_loop_stats_are_pinned() {
    let mut m = store_loop(MonitorKind::Cam { capacity: 1024 });
    assert_pinned(
        &mut m,
        200_000,
        EngineStats {
            slot_events: 153,
            loop_pops: 1,
            bursts: 108,
            step_insts: 193,
            mem_block_insts: 53_805,
            blocks_formed: 1,
            block_runs: 43,
            ..EngineStats::default()
        },
    );
}

#[test]
fn hash_store_loop_stats_are_pinned() {
    let mut m = store_loop(MonitorKind::Hash);
    assert_pinned(
        &mut m,
        200_000,
        EngineStats {
            slot_events: 153,
            loop_pops: 1,
            bursts: 108,
            step_insts: 193,
            mem_block_insts: 53_805,
            blocks_formed: 1,
            block_runs: 43,
            ..EngineStats::default()
        },
    );
}

/// Four stores per iteration over four cache lines, no waiters.
#[test]
fn store_run_stats_are_pinned() {
    let mut m = one_thread(
        ".base 0x10000\n\
         entry: movi r1, 0x20000\n\
         loop:  st r1, r1, 0\n\
         st r1, r1, 64\n\
         st r1, r1, 128\n\
         st r1, r1, 192\n\
         jmp loop\n",
    );
    assert_pinned(
        &mut m,
        200_000,
        EngineStats {
            slot_events: 96,
            loop_pops: 1,
            bursts: 47,
            step_insts: 183,
            mem_block_insts: 47_044,
            blocks_formed: 2,
            block_runs: 77,
            ..EngineStats::default()
        },
    );
}

/// Drains a 16-entry ring: mask the index, load the slot, increment
/// it, store it back — data-dependent addresses over two lines.
#[test]
fn ring_drain_stats_are_pinned() {
    let mut m = one_thread(
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
    );
    assert_pinned(
        &mut m,
        200_000,
        EngineStats {
            slot_events: 196,
            loop_pops: 1,
            bursts: 97,
            step_insts: 418,
            mem_block_insts: 98_871,
            blocks_formed: 2,
            block_runs: 177,
            ..EngineStats::default()
        },
    );
}

/// The F15c loop body on one core: load, add, store back and work over a
/// 4 KiB buffer, closed by a `blt` back-edge, so its 7-instruction block
/// runs many iterations per entry. The cold first pass bails an
/// iteration at each new line, and entries stop where a burst would.
#[test]
fn f15c_loop_stats_are_pinned() {
    let mut m = one_thread(
        ".base 0x10000\n\
         entry: movi r3, 0x20000\n\
         movi r4, 0x21000\n\
         loop:  ld r2, r3, 0\n\
         addi r2, r2, 1\n\
         st r2, r3, 0\n\
         work 7\n\
         addi r3, r3, 8\n\
         addi r6, r6, 1\n\
         blt r3, r4, loop\n\
         addi r7, r7, 1\n\
         movi r3, 0x20000\n\
         jmp loop\n",
    );
    assert_pinned(
        &mut m,
        200_000,
        EngineStats {
            slot_events: 122,
            loop_pops: 1,
            bursts: 60,
            step_insts: 690,
            mem_block_insts: 60_871,
            blocks_formed: 2,
            block_runs: 180,
            block_bails: 62,
            ..EngineStats::default()
        },
    );
}

/// The serving fixture: a dispatcher and 8 workers on one core's two
/// SMT slots, a tail bump every 500 cycles, 600 cycles of `work` per
/// request.
const SERVING: Serving = Serving {
    workers: 8,
    slots: 2,
    policy: SchedPolicy::RoundRobin,
    period: 500,
    service: 600,
    hcall: false,
    ticks: 400,
};

/// Cycles the serving fixture runs.
const SERVING_CYCLES: u64 = 210_000;

/// On the fast engine, most slot dispatches run inline in a chain, so
/// the run loop pops one event per 17 instructions (0.059; the
/// reference engine pops 0.86) for the reference engine's dispatches
/// and bursts.
#[test]
fn serving_stats_are_pinned() {
    let (mut m, _, _) = SERVING.build(Engine::Fast, false);
    assert_pinned(
        &mut m,
        SERVING_CYCLES,
        EngineStats {
            slot_events: 10_324,
            loop_pops: 735,
            bursts: 9806,
            step_insts: 2677,
            blocks_formed: 10,
            block_bails: 179,
            ..EngineStats::default()
        },
    );
}

/// The reference engine pops every slot dispatch and every tick: its
/// 10,324 dispatches are the count every engine made before slot
/// chains.
#[test]
fn reference_serving_stats_are_pinned() {
    let (mut m, _, _) = SERVING.build(Engine::Reference, false);
    assert_pinned(
        &mut m,
        SERVING_CYCLES,
        EngineStats {
            slot_events: 10_324,
            loop_pops: 10_724,
            bursts: 9806,
            step_insts: 2677,
            ..EngineStats::default()
        },
    );
}
