//! Machine-wide invariant checking and the burst/fault timing contract.
//!
//! Three groups:
//!
//! * The invariant checker (§7) stays clean across healthy runs — park/wake
//!   traffic, exception descriptors, overflow drops — and records registered
//!   violations with name, time and detail when one trips.
//! * A fault (any device event) scheduled mid-burst bounds the burst via
//!   `next_deadline`: the handler observes the exact cycle it was scheduled
//!   for and the exact architectural state a single-stepped machine would
//!   show. Faults are never deferred to a burst boundary.
//! * Watchdog edges: the deadline is exclusive-before/inclusive-at, and a
//!   wake racing the deadline cycle loses deterministically (FIFO by
//!   schedule order) to the earlier-armed watchdog.

use std::cell::RefCell;
use std::rc::Rc;

use switchless_core::exception::ExceptionKind;
use switchless_core::machine::{Machine, MachineConfig};
use switchless_core::tid::ThreadState;
use switchless_isa::asm::assemble;
use switchless_sim::time::Cycles;

fn small() -> Machine {
    Machine::new(MachineConfig::small())
}

/// A park/serve worker: waits for new values in its mailbox forever.
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

/// A busy spinner that never parks, so the burst engine engages fully.
fn spinner_src(base: u64) -> String {
    format!(
        r#"
        .base {base:#x}
        entry:
            addi r1, r1, 1
            jmp entry
        "#
    )
}

// ---------------------------------------------------------------- invariants

/// A healthy park/wake workload trips nothing: every boundary check passes
/// and the report stays clean.
#[test]
fn invariants_clean_on_healthy_park_wake() {
    let mut m = small();
    m.enable_invariants(true);
    let mb = m.alloc(64);
    let tid = m
        .load_program(0, &assemble(&worker_src(0x10000, mb)).unwrap())
        .unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(2_000));
    for i in 1..=5u64 {
        m.poke_u64(mb, i);
        m.run_for(Cycles(5_000));
    }
    m.check_invariants(); // final sweep after the run settles
    let rep = m.invariant_report();
    assert!(rep.is_clean(), "violations: {:?}", rep.violations());
    assert!(rep.checks() > 5, "boundary hook actually ran");
}

/// Exception descriptors — including an overflow drop — keep the
/// posted/completed/dropped ledger balanced under checking.
#[test]
fn invariants_clean_across_descriptor_overflow() {
    let mut m = small();
    m.enable_invariants(true);
    let edp = m.alloc(32);
    let mk = |base: u64| {
        assemble(&format!(
            ".base {base:#x}\nentry:\n movi r2, 0\n div r1, r1, r2\n halt\n"
        ))
        .unwrap()
    };
    let ta = m.load_program_user(0, &mk(0x10000)).unwrap();
    let tb = m.load_program_user(0, &mk(0x20000)).unwrap();
    m.set_thread_edp(ta, edp);
    m.set_thread_edp(tb, edp);
    m.start_thread(ta);
    m.run_for(Cycles(10_000));
    m.start_thread(tb);
    m.run_for(Cycles(10_000));
    assert_eq!(m.counters().get("exception.descriptor_overflow"), 1);
    m.check_invariants();
    let rep = m.invariant_report();
    assert!(rep.is_clean(), "violations: {:?}", rep.violations());
}

/// A registered invariant that trips is recorded with its name, the cycle
/// it tripped at, and the diagnostic detail — and keeps being re-checked.
#[test]
fn registered_invariant_violation_is_recorded() {
    let mut m = small();
    m.enable_invariants(true);
    m.register_invariant("test.too_many_insts", |m| {
        let n = m.counters().get("inst.executed");
        (n >= 10).then(|| format!("{n} instructions executed"))
    });
    let tid = m
        .load_program(0, &assemble(&spinner_src(0x10000)).unwrap())
        .unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(5_000));
    m.check_invariants();
    let rep = m.invariant_report();
    assert!(!rep.is_clean());
    assert!(rep.total() >= 1);
    let v = &rep.violations()[0];
    assert_eq!(v.invariant, "test.too_many_insts");
    assert!(v.detail.contains("instructions executed"));
}

/// Checking is off by default: the boundary hook must not run (the report
/// records no checks), so default-path runs pay only a branch per event.
#[test]
fn invariants_off_by_default() {
    let mut m = small();
    let mb = m.alloc(64);
    let tid = m
        .load_program(0, &assemble(&worker_src(0x10000, mb)).unwrap())
        .unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(10_000));
    assert_eq!(m.invariant_report().checks(), 0);
    assert!(m.invariant_report().is_clean());
}

// ---------------------------------------------------- burst/fault bounding

/// A fault event scheduled mid-burst must observe the machine at
/// exactly its scheduled cycle, with exactly the architectural state a
/// single-stepped machine shows — the burst engine's event-horizon gate
/// (`next_deadline`) bounds the burst, never deferring the event.
#[test]
fn fault_event_mid_burst_bounds_the_burst() {
    const T: u64 = 40_000;
    let observe = |dense_single_step: bool| -> (u64, u64, u64) {
        let mut m = small();
        let tid = m
            .load_program(0, &assemble(&spinner_src(0x10000)).unwrap())
            .unwrap();
        m.start_thread(tid);
        if dense_single_step {
            // Reference machine: an event due every cycle keeps the
            // event-horizon at 1, forcing the engine to single-step.
            let nop = m.register_device(|_, _, _| {});
            for c in 1..=T {
                m.at_device(Cycles(c), nop, 0);
            }
        }
        let seen = Rc::new(RefCell::new((0u64, 0u64, 0u64)));
        let rec = Rc::clone(&seen);
        let observer = m.register_device(move |mach, _, _| {
            *rec.borrow_mut() = (
                mach.now().0,
                mach.counters().get("inst.executed"),
                mach.thread_reg(tid, 1),
            );
        });
        m.at_device(Cycles(T), observer, 0);
        m.run_until(Cycles(T + 1_000));
        let got = *seen.borrow();
        got
    };
    let burst = observe(false);
    let stepped = observe(true);
    assert_eq!(
        burst.0, T,
        "the event ran at its scheduled cycle, not a burst boundary"
    );
    assert_eq!(
        burst, stepped,
        "mid-burst state identical to single-stepped reference"
    );
    assert!(burst.1 > 1_000, "spinner actually executed a long stretch");
}

// --------------------------------------------------------- watchdog edges

/// The watchdog deadline is exact: one cycle before it the parked thread
/// is untouched; at the deadline cycle it faults with `WatchdogExpired`.
#[test]
fn watchdog_fires_exactly_at_deadline_cycle() {
    const W: u64 = 10_000;
    let mut m = small();
    let mb = m.alloc(64);
    let edp = m.alloc(32);
    let tid = m
        .load_program(0, &assemble(&worker_src(0x10000, mb)).unwrap())
        .unwrap();
    m.set_thread_edp(tid, edp);
    m.set_thread_watchdog(tid, Some(Cycles(W)));
    m.start_thread(tid);
    assert!(m.run_until_state(tid, ThreadState::Waiting, Cycles(100_000)));
    let parked = m.now().0; // the watchdog epoch is armed at the park cycle
    m.run_until(Cycles(parked + W - 1));
    assert_eq!(
        m.thread_state(tid),
        ThreadState::Waiting,
        "one cycle early: untouched"
    );
    assert_eq!(m.counters().get("watchdog.fired"), 0);
    m.run_until(Cycles(parked + W));
    assert_eq!(
        m.thread_state(tid),
        ThreadState::Disabled,
        "fires exactly at deadline"
    );
    assert_eq!(m.counters().get("watchdog.fired"), 1);
    assert_eq!(m.peek_u64(edp), ExceptionKind::WatchdogExpired.code());
    assert_eq!(
        m.peek_u64(edp + 8),
        u64::from(tid.ptid.0),
        "the parked ptid"
    );
    assert_eq!(m.peek_u64(edp + 24), parked + W, "info word: the deadline");
    assert_eq!(m.thread_fault_time(tid), Some(Cycles(parked + W)));
}

/// A wake landing on the deadline cycle itself loses deterministically:
/// the watchdog event was scheduled first (at park time), so same-cycle
/// FIFO order fires it before the late wake, which then finds a disabled
/// thread and is refused.
#[test]
fn wake_on_deadline_cycle_loses_to_watchdog() {
    const W: u64 = 10_000;
    let mut m = small();
    let mb = m.alloc(64);
    let edp = m.alloc(32);
    let tid = m
        .load_program(0, &assemble(&worker_src(0x10000, mb)).unwrap())
        .unwrap();
    m.set_thread_edp(tid, edp);
    m.set_thread_watchdog(tid, Some(Cycles(W)));
    m.start_thread(tid);
    assert!(m.run_until_state(tid, ThreadState::Waiting, Cycles(100_000)));
    let deadline = m.now().0 + W;
    // Scheduled after the park, so it sorts after the watchdog at `deadline`.
    let wake = m.register_device(move |mach, _, v| mach.poke_u64(mb, v));
    m.at_device(Cycles(deadline), wake, 1);
    m.run_until(Cycles(deadline + 50_000));
    assert_eq!(m.counters().get("watchdog.fired"), 1);
    assert_eq!(
        m.thread_state(tid),
        ThreadState::Disabled,
        "late wake cannot resurrect"
    );
    assert_eq!(m.peek_u64(edp), ExceptionKind::WatchdogExpired.code());
}

/// A wake one cycle before the deadline saves the thread: the epoch guard
/// makes the stale timer a no-op even though its event still fires.
#[test]
fn wake_one_cycle_before_deadline_saves_the_thread() {
    const W: u64 = 10_000;
    let mut m = small();
    let mb = m.alloc(64);
    let tid = m
        .load_program(0, &assemble(&worker_src(0x10000, mb)).unwrap())
        .unwrap();
    m.set_thread_watchdog(tid, Some(Cycles(W)));
    m.start_thread(tid);
    assert!(m.run_until_state(tid, ThreadState::Waiting, Cycles(100_000)));
    let deadline = m.now().0 + W;
    let wake = m.register_device(move |mach, _, v| mach.poke_u64(mb, v));
    m.at_device(Cycles(deadline - 1), wake, 1);
    // Run just past the stale timer — but well short of the fresh deadline
    // armed by the re-park, which would (correctly) fire if left wedged.
    m.run_until(Cycles(deadline + W / 2));
    assert_eq!(
        m.counters().get("watchdog.fired"),
        0,
        "stale epoch timer is inert"
    );
    assert_eq!(
        m.thread_state(tid),
        ThreadState::Waiting,
        "served and re-parked"
    );
}
