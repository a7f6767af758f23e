//! NIC RX as device events: pending storage stays bounded by packets in
//! flight over a long incremental run, and a multi-core machine serving
//! RX reaches the same state on every engine and epoch-worker count.

use std::cell::Cell;
use std::rc::Rc;

use switchless_core::machine::{Engine, EngineStats, Machine, MachineConfig};
use switchless_dev::nic::{Nic, NicConfig};
use switchless_isa::asm::assemble;
use switchless_sim::chaos::Digest;
use switchless_sim::fault::{FaultKind, FaultPlan};
use switchless_sim::time::Cycles;

const PACKETS: u64 = 100_000;
const PERIOD: u64 = 40;

/// Host state of the incremental producer.
#[derive(Default)]
struct Watch {
    peak_in_flight: Cell<usize>,
    peak_host_bytes: Cell<usize>,
}

/// Schedules packet `seq` at `at` and the next one a period later, from
/// a host callback (as F17 does), sampling the pending storage each time.
fn produce(m: &mut Machine, nic: Nic, seq: u64, at: Cycles, w: Rc<Watch>) {
    if seq == PACKETS {
        return;
    }
    m.at(at, move |mach| {
        let len = 1 + (seq as usize * 13) % 200;
        nic.schedule_rx(mach, at, seq, &vec![seq as u8; len]);
        w.peak_in_flight
            .set(w.peak_in_flight.get().max(nic.rx_pending()));
        w.peak_host_bytes
            .set(w.peak_host_bytes.get().max(nic.rx_pending_host_bytes()));
        produce(mach, nic, seq + 1, at + Cycles(PERIOD), w);
    });
}

#[test]
fn pending_storage_stays_bounded_by_packets_in_flight() {
    let mut m = Machine::new(MachineConfig::small());
    // Stalls land packets out of order, so reclaiming needs compaction,
    // not just the arena's front.
    m.install_fault_plan(
        FaultPlan::new(8)
            .with_rate(FaultKind::NicStall, 0.1)
            .with_delay(FaultKind::NicStall, Cycles(1), Cycles(4_000)),
    );
    let nic = Nic::attach(&mut m, NicConfig::default());
    let w = Rc::new(Watch::default());
    produce(&mut m, nic.clone(), 0, Cycles(0), Rc::clone(&w));
    m.run_for(Cycles(PACKETS * PERIOD / 10));
    let early = w.peak_host_bytes.get();
    m.run_for(Cycles(PACKETS * PERIOD + 10_000));
    assert_eq!(m.counters().get("nic.rx.packets"), PACKETS);
    assert_eq!(nic.rx_pending(), 0);
    let (peak, host) = (w.peak_in_flight.get(), w.peak_host_bytes.get());
    // Live bytes are at most `peak` packets of header plus 200 bytes;
    // the arena keeps under twice that, rounded up by doubling, beside a
    // 4-byte record and free-list slot per packet.
    let bound = 4 * peak * (16 + 200) + 16 * peak;
    assert!(
        host <= bound,
        "{host} host bytes for at most {peak} packets in flight (bound {bound})"
    );
    assert!(peak < 200, "a few dozen packets in flight, not {peak}");
    assert_eq!(
        host, early,
        "the storage reached its size in the first tenth and never grew"
    );
}

/// A consumer that parks on `watch` and counts wakeups in r3.
fn parker(base: u64, watch: u64) -> String {
    format!(
        r#"
        .base {base:#x}
        entry:
            movi r1, 0
        wait:
            monitor {watch}
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

/// A 2-core machine: an RX consumer on core 0 beside a compute loop,
/// and a domain-registered compute loop on core 1, with 400 packets
/// (some dropped, corrupted or stalled) arriving throughout. Returns the
/// run's digest and engine statistics.
fn rx_machine(engine: Engine, jobs: usize) -> (u64, EngineStats) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    m.install_fault_plan(
        FaultPlan::new(3)
            .with_rate(FaultKind::NicDrop, 0.05)
            .with_rate(FaultKind::NicCorrupt, 0.05)
            .with_rate(FaultKind::NicStall, 0.1)
            .with_delay(FaultKind::NicStall, Cycles(50), Cycles(5_000)),
    );
    let nic = Nic::attach(&mut m, NicConfig::default());
    let mut tids = vec![m
        .load_program(0, &assemble(&parker(0x20000, nic.rx_tail)).expect("parker"))
        .expect("load parker")];
    for core in 0..2usize {
        let buf = m.alloc(1024);
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {buf}
                movi r4, {end}
            loop:
                ld r2, r3, 0
                addi r2, r2, 1
                st r2, r3, 0
                work 9
                addi r3, r3, 16
                blt r3, r4, loop
                movi r3, {buf}
                jmp loop
            "#,
            base = 0x24000 + core as u64 * 0x4000,
            end = buf + 1024,
        ))
        .expect("compute");
        tids.push(m.load_program(core, &prog).expect("load compute"));
        if core == 1 {
            m.set_core_domain(core, buf, 1024);
        }
    }
    for &t in &tids {
        m.start_thread(t);
    }
    for seq in 0..400u64 {
        nic.schedule_rx(&mut m, Cycles(2_000 + seq * 700), seq, &[seq as u8; 48]);
    }
    m.run_until(Cycles(300_000));
    assert!(m.counters().get("nic.rx.packets") > 300, "RX actually ran");

    let mut d = Digest::new();
    let mut all: Vec<(String, u64)> = m
        .counters()
        .iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    all.sort();
    for (k, v) in &all {
        d.push_str(k);
        d.push_u64(*v);
    }
    d.push_u64(m.now().0);
    let l = *m.ledger("nic.rx");
    for v in [l.posted, l.completed, l.in_flight, l.dropped] {
        d.push_u64(v);
    }
    for &t in &tids {
        d.push_str(&format!("{:?}", m.thread_state(t)));
        for r in 0..8 {
            d.push_u64(m.thread_reg(t, r));
        }
        d.push_u64(m.billed_cycles(t).0);
    }
    for a in (0..m.config().mem_bytes).step_by(8) {
        d.push_u64(m.peek_u64(a));
    }
    let stats = m.engine_stats();
    assert_eq!(
        stats.bursts + stats.step_insts + stats.reg_block_insts + stats.mem_block_insts,
        m.counters().get("inst.executed"),
        "engine tiers sum to the instructions executed"
    );
    (d.finish(), stats)
}

#[test]
fn rx_machine_is_engine_and_worker_count_invariant() {
    let (want, reference) = rx_machine(Engine::Reference, 1);
    assert_eq!(
        reference.committed, 0,
        "the reference engine runs no epochs"
    );
    let (digest, fast) = rx_machine(Engine::Fast, 1);
    assert_eq!(digest, want, "fast engine at machine-jobs 1 diverged");
    assert!(
        fast.committed > 0,
        "epochs committed between deliveries: {fast:?}"
    );
    for jobs in [2, 4] {
        let (digest, stats) = rx_machine(Engine::Fast, jobs);
        assert_eq!(digest, want, "fast engine at machine-jobs {jobs} diverged");
        assert_eq!(stats, fast, "engine stats at machine-jobs {jobs}");
    }
}
