//! Cross-core completion routing under the core-sharded engine.
//!
//! Device completions (NIC DMA + tail bumps, MSI-X translated
//! interrupts) are device events: the sharded engine must truncate its
//! epoch windows at each one, deliver it serially, route the resulting
//! wake to whichever core the monitoring thread lives on, and still
//! produce bit-identical machine state — while compute cores with
//! registered memory domains keep committing parallel epochs in the
//! gaps between completions.

use std::fmt::Write as _;

use switchless_core::machine::{Engine, Machine, MachineConfig};
use switchless_core::ThreadId;
use switchless_dev::msix::MsixBridge;
use switchless_dev::nic::{Nic, NicConfig};
use switchless_isa::asm::assemble;
use switchless_sim::time::Cycles;

/// A consumer that parks on `watch` and counts wakeups in r3.
fn parker_src(base: u64, watch: u64) -> String {
    format!(
        r#"
        .base {base:#x}
        entry:
            movi r1, 0
        wait:
            monitor r0
            ld r2, {watch}
            bne r2, r1, fresh
            mwait
            jmp wait
        fresh:
            addi r1, r2, 0
            addi r3, r3, 1
            jmp wait
        "#
    )
}

/// Observable machine surface: counters, per-thread state, memory words.
fn fingerprint(m: &Machine, tids: &[ThreadId], words: &[u64]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "now={:?}", m.now());
    for (name, v) in m.counters().iter() {
        let _ = writeln!(s, "ctr {name}={v}");
    }
    for (i, &tid) in tids.iter().enumerate() {
        let regs: Vec<u64> = (0..8).map(|r| m.thread_reg(tid, r)).collect();
        let _ = writeln!(
            s,
            "t{i} state={:?} pc={:#x} billed={} regs={regs:?}",
            m.thread_state(tid),
            m.thread_pc(tid),
            m.billed_cycles(tid).0,
        );
    }
    for &w in words {
        let _ = writeln!(s, "word {w:#x}={}", m.peek_u64(w));
    }
    let _ = writeln!(s, "hist={:?}", m.wake_latency());
    s
}

/// Builds a 4-core machine: NIC consumer on core 0, MSI-X parker on
/// core 1, domain compute loops on cores 2 and 3; NIC RX and MSI-X
/// completion traffic throughout the run.
fn build(engine: Engine, jobs: usize) -> (Machine, Vec<ThreadId>, Vec<u64>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 4;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    let mut tids = Vec::new();
    let mut words = Vec::new();

    let nic = Nic::try_attach(&mut m, NicConfig::default()).expect("nic attaches");
    let prog = assemble(&parker_src(0x20000, nic.rx_tail)).expect("nic parker");
    let tid = m.load_program(0, &prog).expect("load nic parker");
    m.start_thread(tid);
    tids.push(tid);
    words.push(nic.rx_tail);

    let msix_word = m.alloc(64);
    let mut bridge = MsixBridge::new();
    bridge.route(7, msix_word);
    let prog = assemble(&parker_src(0x24000, msix_word)).expect("msix parker");
    let tid = m.load_program(1, &prog).expect("load msix parker");
    m.start_thread(tid);
    tids.push(tid);
    words.push(msix_word);

    for c in 2..4usize {
        let buf = m.alloc(2048);
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {buf}
                movi r4, {end}
            loop:
                ld r2, r3, 0
                addi r2, r2, {inc}
                st r2, r3, 0
                work {wk}
                addi r3, r3, 16
                addi r6, r6, 1
                blt r3, r4, loop
                movi r3, {buf}
                jmp loop
            "#,
            base = 0x28000 + (c as u64) * 0x4000,
            buf = buf,
            end = buf + 2048,
            inc = c,
            wk = 5 + 4 * c,
        ))
        .expect("compute program");
        let tid = m.load_program(c, &prog).expect("load compute");
        m.set_core_domain(c, buf, 2048);
        m.start_thread(tid);
        tids.push(tid);
        words.push(buf);
    }

    // Completion traffic: 30 NIC packets and 30 MSI-X raises, staggered
    // so they interleave with (and truncate) the compute epochs.
    let raise = m.register_device(move |mach, _, vector| bridge.raise(mach, vector as u32));
    for i in 0..30u64 {
        let payload = [i as u8 + 1; 24];
        nic.schedule_rx(&mut m, Cycles(3_000 + i * 2_100), i, &payload);
        m.at_device(Cycles(4_000 + i * 2_300), raise, 7);
    }
    (m, tids, words)
}

#[test]
fn completion_routing_matches_serial_engine() {
    let t = 120_000;
    let (mut serial, tids_s, words) = build(Engine::Reference, 1);
    serial.run_until(Cycles(t));
    let want = fingerprint(&serial, &tids_s, &words);
    assert!(
        serial.counters().get("nic.rx.packets") == 30
            && serial.counters().get("msix.translated") == 30,
        "fixture must actually deliver completions"
    );

    for jobs in [1, 2, 4] {
        let (mut par, tids_p, words_p) = build(Engine::Fast, jobs);
        par.run_until(Cycles(t));
        let got = fingerprint(&par, &tids_p, &words_p);
        assert_eq!(
            want, got,
            "fast engine at machine-jobs {jobs} diverged under device completions"
        );
        // And the epoch engine did real work between completions.
        let st = par.shard_stats();
        assert!(
            st.committed > 0,
            "compute cores should commit epochs between completions: {st:?}"
        );
    }
}
