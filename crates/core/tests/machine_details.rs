//! Machine-model details: timing knobs, cache/TLB interaction, DMA
//! semantics, and accounting edge cases.

use switchless_core::machine::{Machine, MachineConfig, MonitorKind, Transition};
use switchless_core::tid::ThreadState;
use switchless_isa::asm::assemble;
use switchless_sim::time::Cycles;

fn small() -> Machine {
    Machine::new(MachineConfig::small())
}

/// A park/wake worker used by several tests.
fn worker_src(base: u64, mb: u64) -> String {
    format!(
        r#"
        .base {base:#x}
        entry:
            movi r1, 0
        loop:
            monitor {mb}
            ld r2, {mb}
            bne r2, r1, serve
            mwait
            jmp loop
        serve:
            mov r1, r2
            jmp loop
        "#
    )
}

#[test]
fn vector_state_threads_pay_bigger_transfers() {
    // §2 "Access to All Registers in the Kernel": threads using the
    // vector file carry 672-byte-class state; their tier transfers are
    // proportionally slower than base-state threads'.
    let measure = |vector: bool| -> u64 {
        let mut cfg = MachineConfig::small();
        cfg.store.rf_threads = 1; // force L2 parking immediately
        cfg.store.dirty_tracking = false; // move full state
        cfg.store.prefetch_on_wake = false;
        let mut m = Machine::new(cfg);
        let mb_a = m.alloc(64);
        let mb_b = m.alloc(64);
        let a = m
            .load_program(0, &assemble(&worker_src(0x10000, mb_a)).unwrap())
            .unwrap();
        let b = m
            .load_program(0, &assemble(&worker_src(0x20000, mb_b)).unwrap())
            .unwrap();
        m.set_thread_vector_state(a, vector);
        m.set_thread_vector_state(b, vector);
        m.start_thread(a);
        m.start_thread(b);
        m.run_for(Cycles(100_000));
        m.reset_wake_latency();
        // Alternate wakes: each wake displaces the other from the
        // 1-entry RF tier, so every wake is an L2-class transfer.
        for i in 1..=20u64 {
            m.poke_u64(mb_a, i);
            m.run_for(Cycles(5_000));
            m.poke_u64(mb_b, i);
            m.run_for(Cycles(5_000));
        }
        m.wake_latency().p50()
    };
    let base = measure(false);
    let vector = measure(true);
    // Base 160B vs vector 672B over a 32B/cy link: ~16 cycles more.
    assert!(
        vector >= base + 10,
        "vector-state wake {vector} should exceed base-state wake {base}"
    );
}

#[test]
fn dirty_tracking_shrinks_vector_transfer_back_down() {
    // The worker touches only 2-3 GPRs; with dirty tracking the vector
    // file never moves, so vector threads wake as fast as base threads.
    let measure = |vector: bool| -> u64 {
        let mut cfg = MachineConfig::small();
        cfg.store.rf_threads = 1;
        cfg.store.dirty_tracking = true;
        cfg.store.prefetch_on_wake = false;
        let mut m = Machine::new(cfg);
        let mb_a = m.alloc(64);
        let mb_b = m.alloc(64);
        let a = m
            .load_program(0, &assemble(&worker_src(0x10000, mb_a)).unwrap())
            .unwrap();
        let b = m
            .load_program(0, &assemble(&worker_src(0x20000, mb_b)).unwrap())
            .unwrap();
        m.set_thread_vector_state(a, vector);
        m.set_thread_vector_state(b, vector);
        m.start_thread(a);
        m.start_thread(b);
        m.run_for(Cycles(100_000));
        m.reset_wake_latency();
        for i in 1..=20u64 {
            m.poke_u64(mb_a, i);
            m.run_for(Cycles(5_000));
            m.poke_u64(mb_b, i);
            m.run_for(Cycles(5_000));
        }
        m.wake_latency().p50()
    };
    assert_eq!(measure(false), measure(true));
}

#[test]
fn out_of_range_dma_is_a_counted_no_op() {
    let mut m = small();
    let mem = MachineConfig::small().mem_bytes;
    let last = mem - 8;
    assert!(m.dma_write(last, &7u64.to_le_bytes()), "the last word fits");
    let before = m.counters().get("dma.bytes");
    for (addr, len) in [
        (mem - 4, 8),       // straddles the end
        (mem, 1),           // starts at the end
        (0x7fff_0000, 512), // far outside
        (u64::MAX - 3, 8),  // address + length overflows
        (u64::MAX, 1),
    ] {
        assert!(!m.dma_write(addr, &vec![0xab; len]), "{addr:#x}+{len}");
    }
    assert_eq!(m.counters().get("dma.rejected"), 5);
    assert_eq!(m.counters().get("dma.bytes"), before, "nothing landed");
    assert_eq!(m.peek_u64(last), 7, "memory untouched");
}

#[test]
fn dma_ddio_deposits_into_l3() {
    // DMA deposits its lines in L3 (DDIO): a thread reading a freshly
    // DMA'd buffer hits L3, where one reading a never-touched buffer
    // goes to DRAM.
    let run = |dma: bool| -> u64 {
        let mut m = Machine::new(MachineConfig::small());
        let buf = m.alloc(4096);
        let prog = assemble(&format!(
            r#"
            entry:
                movi r3, {buf}
                movi r4, {end}
            loop:
                ld r2, r3, 0
                addi r3, r3, 64
                blt r3, r4, loop
                halt
            "#,
            buf = buf,
            end = buf + 4096,
        ))
        .unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        if dma {
            assert!(m.dma_write(buf, &[0xee; 4096]));
        }
        m.start_thread(tid);
        assert!(m.run_until_state(tid, ThreadState::Halted, Cycles(1_000_000)));
        m.billed_cycles(tid).0
    };
    let dma = run(true);
    let untouched = run(false);
    assert!(
        dma * 2 < untouched,
        "DDIO reads ({dma}) should be far cheaper than DRAM reads ({untouched})"
    );
}

#[test]
fn tlb_misses_charge_page_walks() {
    // Striding across many pages pays the walk penalty; re-touching the
    // same pages is cheap.
    let mut cfg = MachineConfig::small();
    cfg.tlb.entries = 8;
    cfg.tlb.walk_penalty = Cycles(100);
    let mut m = Machine::new(cfg);
    // Touch 64 distinct pages (8x TLB capacity), then halt.
    let base = m.alloc(64 * 4096 + 4096) & !4095;
    let prog = assemble(&format!(
        r#"
        entry:
            movi r3, {base}
            movi r4, {end}
        loop:
            ld r2, r3, 0
            addi r3, r3, 4096
            blt r3, r4, loop
            halt
        "#,
        base = base,
        end = base + 64 * 4096,
    ))
    .unwrap();
    let tid = m.load_program(0, &prog).unwrap();
    m.start_thread(tid);
    assert!(m.run_until_state(tid, ThreadState::Halted, Cycles(10_000_000)));
    // 64 data loads, each TLB-missing: >= 64 * 100 cycles of walks, plus
    // DRAM fills. Well above the no-walk floor of ~64*200.
    let billed = m.billed_cycles(tid).0;
    assert!(billed >= 64 * (100 + 190), "billed {billed}");
}

#[test]
fn hot_loop_ifetch_is_free_after_first_miss() {
    // The frontend hides L1-hit instruction fetches; a tight ALU loop
    // therefore costs ~1 cycle per instruction after warmup.
    let mut m = small();
    let prog = assemble(
        r#"
        entry:
            movi r1, 10000
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &prog).unwrap();
    m.start_thread(tid);
    assert!(m.run_until_state(tid, ThreadState::Halted, Cycles(10_000_000)));
    let billed = m.billed_cycles(tid).0;
    // 20001 instructions; allow activation + cold fetches + slack.
    assert!(billed < 21_500, "hot loop cost {billed} cycles");
    assert!(billed >= 20_001, "cannot beat 1 cycle/inst: {billed}");
}

#[test]
fn hash_filter_machine_integration_spurious_wake_reparks() {
    let mut cfg = MachineConfig::small();
    cfg.monitor = MonitorKind::Hash;
    let mut m = Machine::new(cfg);
    let line = m.alloc(64);
    let watched = line;
    let neighbour = line + 8;
    let prog = assemble(&worker_src(0x10000, watched)).unwrap();
    let tid = m.load_program(0, &prog).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(20_000));
    assert_eq!(m.thread_state(tid), ThreadState::Waiting);
    // A write to the neighbouring word falsely wakes the thread; its
    // arm-check-wait loop re-parks it.
    m.poke_u64(neighbour, 1);
    m.run_for(Cycles(20_000));
    assert_eq!(m.thread_state(tid), ThreadState::Waiting);
    assert_eq!(m.counters().get("monitor.false_wakes"), 1);
    // A genuine write still gets through.
    m.poke_u64(watched, 7);
    m.run_for(Cycles(20_000));
    assert_eq!(m.thread_reg(tid, 1), 7);
}

#[test]
fn work_bursts_do_not_monopolize_a_slot_pair() {
    // Two SMT slots: a long `work` burst on one thread must not stall an
    // independent thread on the other slot.
    let mut m = small();
    let burst = assemble(".base 0x10000\nentry: work 100000\nhalt\n").unwrap();
    let nimble = assemble(
        ".base 0x20000\nentry:\n movi r1, 1000\nloop:\n addi r1, r1, -1\n bne r1, r0, loop\n halt\n",
    )
    .unwrap();
    let tb = m.load_program(0, &burst).unwrap();
    let tn = m.load_program(0, &nimble).unwrap();
    m.start_thread(tb);
    m.run_for(Cycles(100)); // burst occupies slot 0
    m.start_thread(tn);
    assert!(
        m.run_until_state(tn, ThreadState::Halted, Cycles(20_000)),
        "nimble thread should finish on the second slot long before the burst ends"
    );
    assert_eq!(
        m.thread_state(tb),
        ThreadState::Runnable,
        "burst still going"
    );
}

#[test]
fn counters_track_instruction_and_dispatch_totals() {
    let mut m = small();
    let prog = assemble("entry: nop\nnop\nnop\nhalt\n").unwrap();
    let tid = m.load_program(0, &prog).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(100_000));
    assert_eq!(m.counters().get("inst.executed"), 4);
    assert_eq!(m.counters().get("sched.dispatches"), 4);
    assert!(m.billed_cycles(tid).0 >= 4);
}

#[test]
fn trace_ring_records_wake_and_block_events() {
    let mut m = small();
    m.trace_mut().set_enabled(true);
    let mb = m.alloc(64);
    let prog = assemble(&worker_src(0x10000, mb)).unwrap();
    let tid = m.load_program(0, &prog).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(10_000));
    let parked = m.now();
    m.poke_u64(mb, 1);
    m.run_for(Cycles(10_000));
    let trace = m.trace().snapshot();
    assert!(trace.iter().all(|r| r.ptid == tid.ptid), "{trace:?}");
    let transitions: Vec<Transition> = trace.iter().map(|r| r.transition).collect();
    let parks = Transition::Block(ThreadState::Waiting);
    assert_eq!(
        transitions,
        [Transition::Wake, parks, Transition::Wake, parks],
        "{}",
        m.trace().dump()
    );
    assert!(trace[1].at < parked && trace[2].at >= parked, "{trace:?}");
    assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
}

#[test]
fn alloc_is_line_aligned_and_disjoint() {
    let mut m = small();
    let a = m.alloc(100);
    let b = m.alloc(1);
    let c = m.alloc(64);
    assert_eq!(a % 64, 0);
    assert_eq!(b % 64, 0);
    assert_eq!(c % 64, 0);
    assert!(b < a, "allocations grow downward without overlap");
    assert!(c + 64 <= b);
}

#[test]
fn byte_loads_and_stores_work() {
    // Parse a "packet": sum the first 4 header bytes, write the result
    // as a byte checksum at offset 63.
    let mut m = small();
    let buf = m.alloc(64);
    m.dma_write(buf, &[0x10, 0x20, 0x30, 0x40, 0, 0, 0, 0]);
    let prog = assemble(&format!(
        r#"
        entry:
            movi r3, {buf}
            ldb r1, r3, 0
            ldb r2, r3, 1
            add r1, r1, r2
            ldb r2, r3, 2
            add r1, r1, r2
            ldb r2, r3, 3
            add r1, r1, r2
            stb r1, r3, 63
            halt
        "#,
        buf = buf
    ))
    .unwrap();
    let tid = m.load_program(0, &prog).unwrap();
    m.start_thread(tid);
    assert!(m.run_until_state(tid, ThreadState::Halted, Cycles(100_000)));
    assert_eq!(m.thread_reg(tid, 1), 0xa0);
    assert_eq!(
        m.peek_u64(buf + 56) >> 56,
        0xa0,
        "checksum byte landed at offset 63"
    );
}

#[test]
fn byte_store_wakes_monitor() {
    // The generalized monitor sees single-byte stores too.
    let mut m = small();
    let mb = m.alloc(64);
    let waiter = assemble(&worker_src(0x10000, mb)).unwrap();
    let tid = m.load_program(0, &waiter).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(10_000));
    assert_eq!(m.thread_state(tid), ThreadState::Waiting);
    let poker = assemble(&format!(
        ".base 0x20000\nentry:\n movi r3, {mb}\n movi r1, 5\n stb r1, r3, 0\n halt\n"
    ))
    .unwrap();
    let tp = m.load_program(0, &poker).unwrap();
    m.start_thread(tp);
    m.run_for(Cycles(50_000));
    assert_eq!(
        m.thread_reg(tid, 1),
        5,
        "woken by the byte store and served it"
    );
    assert_eq!(
        m.thread_state(tid),
        ThreadState::Waiting,
        "re-parked after serving"
    );
    assert_eq!(m.counters().get("monitor.wakes"), 1);
}

#[test]
fn byte_access_out_of_bounds_faults() {
    let mut m = small();
    let edp = m.alloc(32);
    let prog = assemble("entry:\n movi r3, 0x3fffff8\n ldb r1, r3, 100\n halt\n").unwrap();
    let tid = m.load_program(0, &prog).unwrap();
    m.set_thread_edp(tid, edp);
    m.start_thread(tid);
    m.run_for(Cycles(50_000));
    assert_eq!(m.thread_state(tid), ThreadState::Disabled);
}
