//! A one-core serving machine, shared by the burst, engine-statistics
//! and cut-point tests: a dispatcher parked on a tail word and `workers`
//! workers parked on mailboxes, all with `monitor`/`mwait`. A periodic
//! device bumps the tail with a host store; on each bump the dispatcher
//! wakes, and hands the request to the next worker in turn by storing to
//! its mailbox, which wakes that worker. A worker loads and stores its
//! own counter word, then serves the request with `work` or with an
//! `hcall` whose handler charges the service time, and parks again.

// Each test crate that includes this module uses a different part of it.
#![allow(dead_code)]

use std::fmt::Write as _;

use switchless_core::machine::{Engine, Machine, MachineConfig, ThreadId, Transition};
use switchless_core::sched::SchedPolicy;
use switchless_isa::asm::assemble;
use switchless_sim::time::Cycles;

/// The hcall number a worker serves its request through.
const HCALL_SERVE: u16 = 9;

/// One serving machine's shape.
#[derive(Clone, Copy, Debug)]
pub struct Serving {
    /// Worker threads (the dispatcher is one more).
    pub workers: usize,
    /// SMT slots on the core.
    pub slots: usize,
    /// Hardware scheduling policy; under `Priority` the dispatcher runs
    /// in class 7 and the workers in class 0.
    pub policy: SchedPolicy,
    /// Cycles between tail bumps.
    pub period: u64,
    /// Service cycles per request.
    pub service: u32,
    /// Serve through an `hcall` that charges `service`, instead of `work`.
    pub hcall: bool,
    /// Tail bumps in the run.
    pub ticks: u64,
}

impl Serving {
    /// The first bump's time: after every thread has parked.
    pub const START: u64 = 2_000;

    /// The times the device bumps the tail.
    pub fn ticks(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.ticks).map(|k| Serving::START + k * self.period)
    }

    /// Builds the machine on `engine`, with the invariant checker `on` or
    /// off. Returns it with the threads (dispatcher first) and the
    /// memory spans the fixture writes.
    pub fn build(
        &self,
        engine: Engine,
        invariants: bool,
    ) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
        let mut cfg = MachineConfig::small();
        cfg.smt_slots = self.slots;
        cfg.sched = self.policy;
        let mut m = Machine::new(cfg);
        m.set_engine(engine);
        m.enable_invariants(invariants);
        let tail = m.alloc(64);
        let mailboxes = m.alloc(64 * self.workers as u64);
        let data = m.alloc(64 * self.workers as u64);
        let service = self.service;
        m.register_hcall(HCALL_SERVE, move |m, _| {
            m.charge(Cycles(u64::from(service)))
        });

        let dispatcher = assemble(&format!(
            r#"
            .base 0x10000
            entry:
                movi r1, 0
                movi r5, 0
                movi r8, 6
                movi r9, {last}
            loop:
                monitor {tail}
                ld r2, {tail}
                bne r2, r1, serve
                mwait
                jmp loop
            serve:
                addi r1, r1, 1
                movi r6, {mailboxes}
                shl r7, r5, r8
                add r6, r6, r7
                ld r3, r6, 0
                addi r3, r3, 1
                st r3, r6, 0
                addi r5, r5, 1
                blt r9, r5, wrap
                jmp loop
            wrap:
                movi r5, 0
                jmp loop
            "#,
            last = self.workers - 1,
        ))
        .expect("dispatcher assembles");
        let mut tids = vec![m.load_program(0, &dispatcher).expect("load dispatcher")];
        for w in 0..self.workers as u64 {
            let serve = if self.hcall {
                format!("hcall {HCALL_SERVE}")
            } else {
                format!("work {}", self.service)
            };
            let worker = assemble(&format!(
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
                    addi r1, r1, 1
                    ld r3, {word}
                    addi r3, r3, 3
                    st r3, {word}
                    {serve}
                    jmp loop
                "#,
                base = 0x20000 + w * 0x1000,
                mb = mailboxes + 64 * w,
                word = data + 64 * w,
            ))
            .expect("worker assembles");
            tids.push(m.load_program(0, &worker).expect("load worker"));
        }
        if self.policy == SchedPolicy::Priority {
            m.set_thread_prio(tids[0], 7);
        }
        for &t in &tids {
            m.start_thread(t);
        }
        let bump = m.register_device(move |m, _, _| {
            let v = m.peek_u64(tail);
            m.poke_u64(tail, v + 1);
        });
        for at in self.ticks() {
            m.at_device(Cycles(at), bump, 0);
        }
        let spans = vec![
            (tail, 64),
            (mailboxes, 64 * self.workers as u64),
            (data, 64 * self.workers as u64),
        ];
        (m, tids, spans)
    }

    /// The cycles at which some thread woke on a reference run to `t`,
    /// from the transition trace (at most its capacity's worth).
    pub fn wake_times(&self, t: u64) -> Vec<u64> {
        let (mut m, _, _) = self.build(Engine::Reference, false);
        m.trace_mut().set_enabled(true);
        m.run_until(Cycles(t));
        let mut at: Vec<u64> = m
            .trace()
            .snapshot()
            .iter()
            .filter(|r| r.transition == Transition::Wake)
            .map(|r| r.at.0)
            .collect();
        at.dedup();
        at
    }
}

/// Everything the engines must agree on: the clock and halt state, every
/// counter, per thread its state, pc, registers, billed cycles and wake
/// statistics, the store tiers, the wake-latency histogram, every cache
/// line and TLB, the invariant checker's check count and violations,
/// and a hash of the spans' bytes.
pub fn fingerprint(m: &Machine, tids: &[ThreadId], spans: &[(u64, u64)]) -> String {
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
    let _ = writeln!(s, "store={:?}", m.store_stats(0));
    let _ = writeln!(s, "hist={:?}", m.wake_latency());
    let _ = writeln!(s, "{}", m.cache_state());
    let report = m.invariant_report();
    let _ = writeln!(
        s,
        "checks={} violations={:?}",
        report.checks(),
        report.violations()
    );
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
