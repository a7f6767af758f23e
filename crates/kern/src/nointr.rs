//! "No More Interrupts" (§2): a hardware thread per event type.
//!
//! Instead of registering handlers in an IDT, the kernel designates one
//! hardware thread per core per interrupt type. Each thread parks in
//! `mwait` on an event word; the event source (APIC timer, NIC, MSI-X
//! bridge) *writes that word*, and the thread wakes directly into its
//! handler body — no IRQ context, no vectoring, no preemption of
//! whatever else was running.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use switchless_core::machine::{DeviceId, Machine, ThreadId};
use switchless_core::tid::ThreadState;
use switchless_isa::asm::assemble;
use switchless_sim::error::SimError;
use switchless_sim::stats::Histogram;
use switchless_sim::time::Cycles;

use crate::ioengine::RetryPolicy;

/// One installed event-handler thread.
#[derive(Clone, Copy, Debug)]
pub struct EventHandler {
    /// The handler's hardware thread.
    pub tid: ThreadId,
    /// The event word the handler waits on (write here to fire).
    pub event_word: u64,
    /// Counter word the handler increments per handled event.
    pub handled_word: u64,
}

/// A set of per-event-type handler threads on one core.
#[derive(Clone, Debug)]
pub struct EventHandlerSet {
    /// Installed handlers, in installation order.
    pub handlers: Vec<EventHandler>,
}

impl EventHandlerSet {
    /// Installs `specs` = `(event-name, handler-work-cycles, priority)`
    /// handler threads on `core`. Returns the set with one event word
    /// per handler.
    ///
    /// The handler body is pure ISA: an event-counter loop that never
    /// misses wakeups (monitor → mwait → drain), doing `work` cycles of
    /// simulated handler work per event.
    pub fn install(
        m: &mut Machine,
        core: usize,
        specs: &[(&str, u32, u8)],
        image_base: u64,
    ) -> Result<EventHandlerSet, SimError> {
        let mut handlers = Vec::with_capacity(specs.len());
        for (i, &(_name, work, prio)) in specs.iter().enumerate() {
            let event_word = m.alloc(64);
            let handled_word = m.alloc(64);
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                ; r1 = events seen
                ; Arm-check-wait order: the monitor is armed *before* the
                ; counter is read, so a write landing between the read
                ; and the mwait trips the armed trigger and mwait falls
                ; through — no lost wakeups.
                entry:
                    movi r1, 0
                loop:
                    monitor {event}
                    ld r2, {event}
                    bne r2, r1, serve
                    mwait
                    jmp loop
                serve:
                    addi r1, r1, 1
                    work {work}
                    ld r3, {handled}
                    addi r3, r3, 1
                    st r3, {handled}
                    jmp loop
                "#,
                base = image_base + (i as u64) * 0x1000,
                event = event_word,
                handled = handled_word,
                work = work,
            ))
            .map_err(|e| SimError::Assemble {
                context: "event-handler template",
                detail: e.to_string(),
            })?;
            let tid = m.load_program(core, &prog)?;
            m.set_thread_prio(tid, prio);
            m.start_thread(tid);
            handlers.push(EventHandler {
                tid,
                event_word,
                handled_word,
            });
        }
        Ok(EventHandlerSet { handlers })
    }

    /// Events handled so far by handler `idx`.
    #[must_use]
    pub fn handled(&self, m: &Machine, idx: usize) -> u64 {
        m.peek_u64(self.handlers[idx].handled_word)
    }
}

/// Default hcall number for the supervisor's triage service.
pub const HCALL_SUPERVISE: u16 = 120;

struct SupState {
    /// The shared exception-descriptor slot all wards point at.
    edp: u64,
    /// Supervised threads, in registration order.
    wards: Vec<ThreadId>,
    /// Ptids with a restart already scheduled.
    pending: HashSet<u32>,
    /// Per-ward fault count, drives the backoff schedule.
    attempts: HashMap<u32, u32>,
    policy: RetryPolicy,
    /// Fault (thread disable) → restart latency, in cycles.
    recovery: Histogram,
    restarts: u64,
    /// Cool-down after which a budget-exhausted (quarantined) ward is
    /// pardoned and restarted with a fresh attempt budget; `None` means
    /// quarantine is forever.
    pardon_after: Option<Cycles>,
}

/// A recovery supervisor: one hardware thread that parks on a shared
/// exception-descriptor slot and restarts faulted wards (§3 taken to
/// its conclusion — *recovery* without a context switch either).
///
/// Wards [`Supervisor::supervise`]d get their EDP pointed at the shared
/// slot. When one faults (watchdog expiry, div-zero, ...), the
/// descriptor write wakes the supervisor out of `mwait`; it acks the
/// slot (zero-to-ack, reopening it under backpressure) and schedules a
/// [`Machine::restart_thread`] after a capped [`RetryPolicy`] backoff.
/// Every triage and every restart also sweeps the ward list for
/// casualties whose descriptors were overflow-dropped, so simultaneous
/// faults are never lost — only their descriptors are.
pub struct Supervisor {
    /// The supervisor's hardware thread.
    pub tid: ThreadId,
    /// The shared exception-descriptor slot (32 bytes).
    pub edp: u64,
    state: Rc<RefCell<SupState>>,
}

/// Low bit of a supervisor event's `arg`, above which sits the ward's
/// ptid: a restart after the retry backoff ...
const RESTART: u64 = 0;
/// ... or a pardon after the quarantine cool-down.
const PARDON: u64 = 1;

/// Schedules a restart of `tid` after the policy backoff, or
/// quarantines it when the retry budget is spent. Both restarts and
/// pardons are events of the supervisor's device `me`.
fn schedule_restart(s: &mut SupState, mach: &mut Machine, me: DeviceId, tid: ThreadId) {
    if s.pending.contains(&tid.ptid.0) || mach.is_quarantined(tid) {
        return;
    }
    let n = s.attempts.entry(tid.ptid.0).or_insert(0);
    let attempt = *n;
    *n += 1;
    let ward = u64::from(tid.ptid.0) << 1;
    match s.policy.backoff(attempt) {
        Some(d) => {
            s.pending.insert(tid.ptid.0);
            mach.at_device(mach.now() + d, me, ward | RESTART);
        }
        None => {
            mach.counters_mut().inc("supervisor.gave_up");
            mach.quarantine_thread(tid);
            // Graceful fallback: a crash-loop storm is often transient
            // (a fault window that passes). With a pardon configured the
            // ward sits out the cool-down and then gets a fresh attempt
            // budget instead of staying dead for the machine's lifetime.
            if let Some(cool) = s.pardon_after {
                mach.at_device(mach.now() + cool, me, ward | PARDON);
            }
        }
    }
}

/// Runs a restart or pardon event of the supervisor's device `me`.
fn run_event(s: &mut SupState, mach: &mut Machine, me: DeviceId, arg: u64) {
    let ptid = (arg >> 1) as u32;
    let tid = s
        .wards
        .iter()
        .copied()
        .find(|t| t.ptid.0 == ptid)
        .expect("only wards are scheduled");
    if arg & 1 == PARDON {
        if !mach.is_quarantined(tid) {
            return; // something else already revived it
        }
        s.attempts.insert(ptid, 0);
        // Deliberately no recovery-latency sample: the cool-down is a
        // policy sentence, not recovery time.
        if mach.restart_thread(tid) {
            s.restarts += 1;
            mach.counters_mut().inc("supervisor.pardoned");
        }
        return;
    }
    s.pending.remove(&ptid);
    if let Some(fault_at) = mach.thread_fault_time(tid) {
        s.recovery.record((mach.now() - fault_at).0);
    }
    if mach.restart_thread(tid) {
        s.restarts += 1;
    }
    // The slot was busy while this restart was pending; a second
    // casualty may have had its descriptor dropped.
    sweep(s, mach, me);
}

/// Finds descriptor-less casualties: wards sitting disabled with a
/// fault time but no scheduled restart (their descriptor hit
/// backpressure and was dropped).
fn sweep(s: &mut SupState, mach: &mut Machine, me: DeviceId) {
    let wards = s.wards.clone();
    for tid in wards {
        if mach.thread_state(tid) == ThreadState::Disabled && mach.thread_fault_time(tid).is_some()
        {
            schedule_restart(s, mach, me, tid);
        }
    }
}

impl Supervisor {
    /// Installs the supervisor thread on `core` (program image at
    /// `image_base`, one 4 KiB page).
    pub fn install(
        m: &mut Machine,
        core: usize,
        policy: RetryPolicy,
        image_base: u64,
    ) -> Result<Supervisor, SimError> {
        let edp = m.alloc(64); // 32-byte descriptor, own cache line
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            ; Arm-check-wait on the descriptor KIND word: nonzero means
            ; a ward faulted. The hcall acks (zeroes) it, so the re-check
            ; after serving catches a descriptor that landed meanwhile.
            entry:
                movi r1, 0
            loop:
                monitor {edp}
                ld r2, {edp}
                bne r2, r1, serve
                mwait
                jmp loop
            serve:
                hcall {sup}
                jmp loop
            "#,
            base = image_base,
            edp = edp,
            sup = HCALL_SUPERVISE,
        ))
        .map_err(|e| SimError::Assemble {
            context: "supervisor template",
            detail: e.to_string(),
        })?;
        let tid = m.load_program(core, &prog)?;
        // A private slot so a supervisor fault can't halt the machine.
        let own_edp = m.alloc(64);
        m.set_thread_edp(tid, own_edp);
        m.set_thread_prio(tid, 7);
        m.start_thread(tid);

        let state = Rc::new(RefCell::new(SupState {
            edp,
            wards: Vec::new(),
            pending: HashSet::new(),
            attempts: HashMap::new(),
            policy,
            recovery: Histogram::new(),
            restarts: 0,
            pardon_after: None,
        }));

        let st = Rc::clone(&state);
        let device = m.register_device(move |mach, me, arg| {
            run_event(&mut st.borrow_mut(), mach, me, arg);
        });
        let st = Rc::clone(&state);
        m.register_hcall(HCALL_SUPERVISE, move |mach, _tid| {
            let mut s = st.borrow_mut();
            let kind = mach.peek_u64(s.edp);
            if kind != 0 {
                let ptid = mach.peek_u64(s.edp + 8);
                mach.poke_u64(s.edp, 0); // ack: reopen the slot
                mach.charge(Cycles(50)); // triage bookkeeping
                if let Some(tid) = s
                    .wards
                    .iter()
                    .copied()
                    .find(|t| u64::from(t.ptid.0) == ptid)
                {
                    schedule_restart(&mut s, mach, device, tid);
                }
            }
            sweep(&mut s, mach, device);
        });

        Ok(Supervisor { tid, edp, state })
    }

    /// Registers `tid` as a ward: its exceptions now land in the shared
    /// slot and earn it a restart. Set a watchdog separately
    /// ([`Machine::set_thread_watchdog`]) to catch wedged parks too.
    pub fn supervise(&self, m: &mut Machine, tid: ThreadId) {
        m.set_thread_edp(tid, self.edp);
        self.state.borrow_mut().wards.push(tid);
    }

    /// Enables the graceful quarantine fallback: a ward whose retry
    /// budget is exhausted is pardoned `cool` cycles after quarantine —
    /// restarted with a fresh attempt budget (counted as
    /// `supervisor.pardoned`) — instead of staying dead forever. `None`
    /// (the default) keeps quarantine permanent.
    pub fn pardon_after(&self, cool: Option<Cycles>) {
        self.state.borrow_mut().pardon_after = cool;
    }

    /// Fault → restart latency histogram.
    #[must_use]
    pub fn recovery_latency(&self) -> Histogram {
        self.state.borrow().recovery.clone()
    }

    /// Restarts performed.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.state.borrow().restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_dev::timer::ApicTimer;

    /// Fires event `idx` once, as a device would: increments its event
    /// word through the DMA path.
    fn fire(set: &EventHandlerSet, m: &mut Machine, idx: usize) {
        let word = set.handlers[idx].event_word;
        let v = m.peek_u64(word).wrapping_add(1);
        m.dma_write(word, &v.to_le_bytes());
    }

    #[test]
    fn handler_wakes_per_event_and_reparks() {
        let mut m = Machine::new(MachineConfig::small());
        let set = EventHandlerSet::install(&mut m, 0, &[("timer", 500, 7)], 0x40000).unwrap();
        m.run_for(Cycles(5_000));
        assert_eq!(
            m.thread_state(set.handlers[0].tid),
            ThreadState::Waiting,
            "handler parks without polling"
        );
        for _ in 0..3 {
            fire(&set, &mut m, 0);
            m.run_for(Cycles(10_000));
        }
        assert_eq!(set.handled(&m, 0), 3);
        assert_eq!(m.thread_state(set.handlers[0].tid), ThreadState::Waiting);
    }

    #[test]
    fn burst_of_events_all_drained() {
        // Events fired while the handler is mid-work must not be lost:
        // the counter-drain loop catches them.
        let mut m = Machine::new(MachineConfig::small());
        let set = EventHandlerSet::install(&mut m, 0, &[("nic", 2_000, 7)], 0x40000).unwrap();
        m.run_for(Cycles(5_000));
        for _ in 0..5 {
            fire(&set, &mut m, 0); // all at once
        }
        m.run_for(Cycles(100_000));
        assert_eq!(set.handled(&m, 0), 5, "no lost events");
    }

    #[test]
    fn multiple_event_types_independent_threads() {
        let mut m = Machine::new(MachineConfig::small());
        let set = EventHandlerSet::install(
            &mut m,
            0,
            &[("timer", 300, 7), ("nic", 300, 6), ("disk", 300, 5)],
            0x40000,
        )
        .unwrap();
        m.run_for(Cycles(5_000));
        fire(&set, &mut m, 1);
        m.run_for(Cycles(20_000));
        assert_eq!(set.handled(&m, 0), 0);
        assert_eq!(set.handled(&m, 1), 1);
        assert_eq!(set.handled(&m, 2), 0);
    }

    #[test]
    fn apic_timer_drives_scheduler_handler() {
        // The §2 sketch end-to-end: the APIC timer increments a counter;
        // the "kernel scheduler" hardware thread wakes per tick.
        let mut m = Machine::new(MachineConfig::small());
        let set =
            EventHandlerSet::install(&mut m, 0, &[("sched-tick", 1_000, 7)], 0x40000).unwrap();
        m.run_for(Cycles(2_000));
        ApicTimer::start_periodic(
            &mut m,
            set.handlers[0].event_word,
            Cycles(10_000),
            Cycles(30_000),
            5,
        );
        m.run_for(Cycles(300_000));
        assert_eq!(set.handled(&m, 0), 5);
    }

    /// A park/serve worker waiting on `mb` forever.
    fn ward_src(base: u64, mb: u64) -> String {
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
    fn supervisor_restarts_wedged_ward() {
        let mut m = Machine::new(MachineConfig::small());
        let sup = Supervisor::install(&mut m, 0, RetryPolicy::default(), 0x40000).unwrap();
        let mb = m.alloc(64);
        let ward = m
            .load_program(0, &assemble(&ward_src(0x50000, mb)).unwrap())
            .unwrap();
        sup.supervise(&mut m, ward);
        m.set_thread_watchdog(ward, Some(Cycles(10_000)));
        m.start_thread(ward);
        // Nobody ever writes the mailbox: the ward wedges, the watchdog
        // turns it into a descriptor, the supervisor restarts it (and it
        // wedges again — the cycle is the point).
        m.run_for(Cycles(100_000));
        assert!(
            sup.restarts() >= 2,
            "restart cycle running: {}",
            sup.restarts()
        );
        assert_eq!(
            sup.recovery_latency().count(),
            sup.restarts(),
            "one latency sample per restart"
        );
        assert!(m.halted_reason().is_none(), "machine survives the wedging");
    }

    #[test]
    fn overflow_dropped_casualty_is_swept() {
        // Two wards crash near-simultaneously into ONE descriptor slot:
        // the second descriptor is dropped by backpressure, but the
        // supervisor's sweep still finds and restarts the second ward.
        let mut m = Machine::new(MachineConfig::small());
        let sup = Supervisor::install(
            &mut m,
            0,
            RetryPolicy {
                initial_backoff: Cycles(2_000),
                max_backoff: Cycles(2_000),
                max_retries: 4,
            },
            0x40000,
        )
        .unwrap();
        // Crash on the first life only; halt cleanly on the second.
        let mk = |base: u64, ctr: u64| {
            assemble(&format!(
                r#"
                .base {base:#x}
                entry:
                    ld r1, {ctr}
                    addi r1, r1, 1
                    st r1, {ctr}
                    movi r2, 1
                    beq r1, r2, crash
                    halt
                crash:
                    movi r3, 0
                    div r4, r4, r3
                    halt
                "#
            ))
            .unwrap()
        };
        let ctr_a = m.alloc(64);
        let ctr_b = m.alloc(64);
        let ta = m.load_program(0, &mk(0x50000, ctr_a)).unwrap();
        let tb = m.load_program(0, &mk(0x60000, ctr_b)).unwrap();
        sup.supervise(&mut m, ta);
        sup.supervise(&mut m, tb);
        m.start_thread(ta);
        m.start_thread(tb);
        m.run_for(Cycles(100_000));
        assert_eq!(m.peek_u64(ctr_a), 2, "ward A got its second life");
        assert_eq!(
            m.peek_u64(ctr_b),
            2,
            "ward B recovered despite no descriptor"
        );
        assert_eq!(m.thread_state(ta), ThreadState::Halted);
        assert_eq!(m.thread_state(tb), ThreadState::Halted);
        assert_eq!(sup.restarts(), 2);
        assert!(
            m.counters().get("exception.descriptor_overflow") >= 1,
            "the second descriptor did hit backpressure"
        );
    }

    #[test]
    fn exhausted_retries_quarantine_the_ward() {
        let mut m = Machine::new(MachineConfig::small());
        let sup = Supervisor::install(
            &mut m,
            0,
            RetryPolicy {
                initial_backoff: Cycles(5_000),
                max_backoff: Cycles(5_000),
                max_retries: 1,
            },
            0x40000,
        )
        .unwrap();
        let mb = m.alloc(64);
        let ward = m
            .load_program(0, &assemble(&ward_src(0x50000, mb)).unwrap())
            .unwrap();
        sup.supervise(&mut m, ward);
        m.set_thread_watchdog(ward, Some(Cycles(10_000)));
        m.start_thread(ward);
        m.run_for(Cycles(200_000));
        // One restart (fault -> 5k backoff -> restart), then the second
        // wedge exhausts the budget: quarantined, no restart churn.
        assert_eq!(sup.restarts(), 1);
        assert!(m.is_quarantined(ward));
        assert_eq!(m.counters().get("supervisor.gave_up"), 1);
        // Recovery latency = watchdog descriptor -> restart: the 5k
        // backoff plus the supervisor's wake+triage overhead.
        let lat = sup.recovery_latency();
        assert!(lat.min() >= 5_000, "min {}", lat.min());
        assert!(lat.max() < 8_000, "max {}", lat.max());
        assert_eq!(m.thread_state(ward), ThreadState::Disabled);
    }

    #[test]
    fn pardon_revives_quarantined_ward_with_fresh_budget() {
        let mut m = Machine::new(MachineConfig::small());
        let sup = Supervisor::install(
            &mut m,
            0,
            RetryPolicy {
                initial_backoff: Cycles(5_000),
                max_backoff: Cycles(5_000),
                max_retries: 1,
            },
            0x40000,
        )
        .unwrap();
        sup.pardon_after(Some(Cycles(50_000)));
        let mb = m.alloc(64);
        let ward = m
            .load_program(0, &assemble(&ward_src(0x50000, mb)).unwrap())
            .unwrap();
        sup.supervise(&mut m, ward);
        m.set_thread_watchdog(ward, Some(Cycles(10_000)));
        m.start_thread(ward);
        // Fault ~10k, restart ~15k, fault ~25k -> budget spent -> quarantine.
        m.run_for(Cycles(40_000));
        assert!(m.is_quarantined(ward), "budget exhausted first");
        assert_eq!(m.counters().get("supervisor.gave_up"), 1);
        // Pardon lands ~75k: quarantine lifted, budget reset, the ward
        // gets another restart cycle instead of staying dead.
        m.run_for(Cycles(45_000));
        assert!(!m.is_quarantined(ward), "pardoned after the cool-down");
        assert_eq!(m.counters().get("supervisor.pardoned"), 1);
        // The fresh budget drives a full second quarantine->pardon lap.
        m.run_for(Cycles(120_000));
        assert!(m.counters().get("supervisor.gave_up") >= 2);
        assert!(m.counters().get("supervisor.pardoned") >= 2);
        assert!(m.halted_reason().is_none());
    }

    #[test]
    fn install_surfaces_structured_errors() {
        // Core 99 does not exist: the error is a structured SimError
        // (machine layer), not a panic.
        let mut m = Machine::new(MachineConfig::small());
        let Err(err) = Supervisor::install(&mut m, 99, RetryPolicy::default(), 0x40000) else {
            panic!("install on a nonexistent core must fail")
        };
        assert!(matches!(err, SimError::Machine { .. }), "{err}");
        assert!(err.to_string().contains("core 99"), "{err}");
    }
}
