//! The machinery the burst engine leans on (DESIGN.md §8): idle-slot
//! parking and `kick_core` re-arming, the exact deadline-boundary
//! semantics of `run_until_state` that the burst's watch-pair bailout
//! must preserve, and the differential of [`Engine::Fast`]'s slot chains
//! against [`Engine::Reference`] on one-core serving machines of 2 to 8
//! threads.

#[path = "support/serving.rs"]
mod serving;

use serving::{fingerprint, Serving};
use switchless_core::machine::{Engine, Machine, MachineConfig};
use switchless_core::sched::SchedPolicy;
use switchless_core::tid::ThreadState;
use switchless_isa::asm::assemble;
use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

/// A worker that parks on a mailbox and halts once it reads a nonzero
/// value.
fn parker_src(base: u64, mb: u64) -> String {
    format!(
        r#"
        .base {base:#x}
        entry:
            monitor {mb}
            ld r2, {mb}
            bne r2, r0, done
            mwait
        done:
            halt
        "#
    )
}

#[test]
fn idle_slots_park_and_wake_rearms_exactly_once() {
    // One thread on a 2-slot core: once it parks in mwait, every slot
    // must go idle — a fully parked machine may not burn dispatch
    // attempts (no retry storm while nothing is runnable).
    let mut m = Machine::new(MachineConfig::small());
    let mb = m.alloc(64);
    let t = m
        .load_program(0, &assemble(&parker_src(0x10000, mb)).unwrap())
        .unwrap();
    m.start_thread(t);
    assert!(m.run_until_state(t, ThreadState::Waiting, Cycles(100_000)));

    let parked_at = m.now();
    let d0 = m.counters().get("sched.dispatches");
    let i0 = m.counters().get("inst.executed");
    m.run_for(Cycles(1_000_000));
    assert_eq!(
        m.counters().get("sched.dispatches"),
        d0,
        "idle slots must stay parked: no pick attempts while nothing is runnable"
    );
    assert_eq!(m.counters().get("inst.executed"), i0);

    // A wake re-arms the core: the thread runs again and halts. The
    // wake-to-dispatch path must fire exactly once — the woken thread
    // resumes after `mwait` and executes exactly its one remaining
    // instruction (`halt`), with no duplicate dispatch of the same wake.
    m.poke_u64(mb, 1);
    assert!(m.run_until_state(t, ThreadState::Halted, Cycles(100_000)));
    assert_eq!(
        m.counters().get("inst.executed") - i0,
        1,
        "one wake dispatches the parked thread exactly once (halt only)"
    );
    assert!(m.now() > parked_at);

    // And once halted, the machine is quiescent again.
    let d1 = m.counters().get("sched.dispatches");
    m.run_for(Cycles(1_000_000));
    assert_eq!(m.counters().get("sched.dispatches"), d1);
}

#[test]
fn run_until_state_deadline_boundary_is_inclusive_and_exact() {
    // Halt time is discovered once, then replayed on fresh machines to
    // pin the boundary semantics: an event *exactly at* the deadline
    // still fires, one cycle less and it must not.
    let halt_prog = assemble(
        ".base 0x10000\n\
         entry: addi r1, r1, 1\n\
         addi r1, r1, 1\n\
         halt\n",
    )
    .unwrap();
    let fresh = |prog: &switchless_isa::asm::Program| {
        let mut m = Machine::new(MachineConfig::small());
        let t = m.load_program(0, prog).unwrap();
        m.start_thread(t);
        (m, t)
    };

    let (mut probe, t) = fresh(&halt_prog);
    assert!(probe.run_until_state(t, ThreadState::Halted, Cycles(100_000)));
    let halt_at = probe.now();
    assert!(halt_at > Cycles::ZERO);

    // Deadline exactly on the halting event: reached, and `now` lands
    // exactly on the event time (the burst watch-pair bails the moment
    // the state flips, so no overshoot is allowed).
    let (mut m, t) = fresh(&halt_prog);
    assert!(m.run_until_state(t, ThreadState::Halted, halt_at));
    assert_eq!(m.now(), halt_at, "no overshoot past the state flip");

    // One cycle short: the final event is beyond the deadline and must
    // not run.
    let (mut m, t) = fresh(&halt_prog);
    assert!(!m.run_until_state(t, ThreadState::Halted, halt_at - Cycles(1)));
    assert_ne!(m.thread_state(t), ThreadState::Halted);

    // Re-running with the state already reached returns immediately
    // without advancing time.
    let (mut m, t) = fresh(&halt_prog);
    assert!(m.run_until_state(t, ThreadState::Halted, halt_at));
    let now = m.now();
    assert!(m.run_until_state(t, ThreadState::Halted, Cycles(100_000)));
    assert_eq!(m.now(), now);
}

/// The serving shapes the differential runs: 2, 4 and 8 threads, on one
/// and two SMT slots, under both policies, half of them serving through
/// an hcall charge and half through `work`.
fn shapes() -> Vec<Serving> {
    let mut out = Vec::new();
    for workers in [1, 3, 7] {
        for slots in [1, 2] {
            for policy in [SchedPolicy::RoundRobin, SchedPolicy::Priority] {
                out.push(Serving {
                    workers,
                    slots,
                    policy,
                    period: 700,
                    service: 300 + 150 * workers as u32,
                    hcall: (workers + slots) % 2 == 0,
                    ticks: 40,
                });
            }
        }
    }
    out
}

/// A run long enough to drain the last tick's request.
fn horizon(s: &Serving) -> u64 {
    Serving::START + s.ticks * s.period + 4_000
}

/// `s` on `engine` with invariants `on`, run to `t` through each cut in
/// turn, then fingerprinted, with its engine statistics.
fn run_cut(
    s: &Serving,
    engine: Engine,
    on: bool,
    cuts: &[u64],
) -> (String, switchless_core::EngineStats) {
    let (mut m, tids, spans) = s.build(engine, on);
    for &c in cuts {
        m.run_until(Cycles(c));
    }
    (fingerprint(&m, &tids, &spans), m.engine_stats())
}

/// Fast and Reference under one cut schedule: the same fingerprint, the
/// invariant checker's check count included. Returns both engines'
/// statistics.
fn assert_engines_agree(
    s: &Serving,
    on: bool,
    cuts: &[u64],
) -> (switchless_core::EngineStats, switchless_core::EngineStats) {
    let (want, reference) = run_cut(s, Engine::Reference, on, cuts);
    let (got, fast) = run_cut(s, Engine::Fast, on, cuts);
    assert_eq!(want, got, "{s:?}, invariants {on}, cuts {cuts:?}");
    (fast, reference)
}

/// Seeded cut schedules over `(0, t]`, each ending at `t`.
fn seeded_cuts(t: u64, seeds: u64) -> Vec<Vec<u64>> {
    (0..seeds)
        .map(|seed| {
            let mut rng = Rng::seed_from(0x5e7 + seed);
            let n = 1 + rng.next_below(8);
            let mut cuts: Vec<u64> = (0..n).map(|_| 1 + rng.next_below(t - 1)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            cuts.push(t);
            cuts
        })
        .collect()
}

/// The slot chain changes only how the host runs a serving machine: at
/// one `run_until` and at seeded cut schedules, with the invariant
/// checker off and on, [`Engine::Fast`] ends exactly where
/// [`Engine::Reference`] does. The chain must actually run here: the
/// fast engine pops fewer events for the same dispatches.
#[test]
fn serving_fast_matches_reference_at_seeded_cuts() {
    let mut chained = false;
    for s in shapes() {
        let t = horizon(&s);
        for on in [false, true] {
            let (fast, reference) = assert_engines_agree(&s, on, &[t]);
            assert_eq!(
                reference.loop_pops,
                reference.slot_events + s.ticks,
                "{s:?}"
            );
            assert!(fast.loop_pops < reference.loop_pops, "{s:?}: {fast:?}");
            assert_eq!(fast.slot_events, reference.slot_events, "{s:?}");
            chained |= fast.slot_events > fast.loop_pops;
            for cuts in seeded_cuts(t, 6) {
                assert_engines_agree(&s, on, &cuts);
            }
        }
    }
    assert!(chained, "no slot chain ran");
}

/// Cuts one cycle before every device tick and every wake: each lands a
/// `run_until` deadline just ahead of the event that ends a chain or a
/// burst.
#[test]
fn serving_fast_matches_reference_at_targeted_cuts() {
    for s in shapes() {
        let t = horizon(&s);
        let mut cuts: Vec<u64> = s.ticks().chain(s.wake_times(t)).map(|at| at - 1).collect();
        cuts.push(t);
        cuts.sort_unstable();
        cuts.dedup();
        assert!(cuts.len() > s.ticks as usize, "{s:?}: wakes were traced");
        for on in [false, true] {
            assert_engines_agree(&s, on, &cuts);
        }
    }
}
