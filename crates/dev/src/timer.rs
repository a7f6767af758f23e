//! The local APIC timer, reimagined per §2: instead of raising a timer
//! interrupt, "the timer in the local APIC writes to the memory address
//! that its target hardware thread is waiting on" — each tick increments
//! a counter word.

use std::cell::Cell;
use std::rc::Rc;

use switchless_core::machine::Machine;
use switchless_sim::time::Cycles;

/// Handle to a running periodic timer. Dropping the handle does **not**
/// stop the timer; call [`ApicTimer::stop`].
#[derive(Clone, Debug)]
pub struct ApicTimer {
    /// Counter word the timer increments (the mwait target).
    pub counter_addr: u64,
    running: Rc<Cell<bool>>,
    ticks: Rc<Cell<u64>>,
}

impl ApicTimer {
    /// Starts a periodic timer that increments `counter_addr` every
    /// `period`, beginning at `first_tick`, for at most `max_ticks` ticks
    /// (a bound so simulations always drain).
    ///
    /// The timer is a registered device: each tick's event carries its
    /// due time, and the handler queues the next one.
    pub fn start_periodic(
        m: &mut Machine,
        counter_addr: u64,
        first_tick: Cycles,
        period: Cycles,
        max_ticks: u64,
    ) -> ApicTimer {
        assert!(period > Cycles::ZERO, "period must be positive");
        let timer = ApicTimer {
            counter_addr,
            running: Rc::new(Cell::new(true)),
            ticks: Rc::new(Cell::new(0)),
        };
        let t = timer.clone();
        let mut remaining = max_ticks;
        let id = m.register_device(move |mach, me, at| {
            if !t.running.get() {
                return;
            }
            let v = mach.peek_u64(t.counter_addr).wrapping_add(1);
            // The APIC's write is an external memory write: it goes through
            // the same DMA path as device writes, waking any monitor.
            mach.dma_write(t.counter_addr, &v.to_le_bytes());
            t.ticks.set(t.ticks.get() + 1);
            mach.counters_mut().inc("timer.ticks");
            remaining -= 1;
            if remaining > 0 && t.running.get() {
                let next = Cycles(at) + period;
                mach.at_device(next, me, next.0);
            }
        });
        if max_ticks > 0 {
            m.at_device(first_tick, id, first_tick.0);
        }
        timer
    }

    /// Stops the timer after the current tick.
    pub fn stop(&self) {
        self.running.set(false);
    }

    /// Ticks delivered so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_core::tid::ThreadState;
    use switchless_isa::asm::assemble;

    #[test]
    fn periodic_ticks_increment_counter() {
        let mut m = Machine::new(MachineConfig::small());
        let ctr = m.alloc(8);
        let t = ApicTimer::start_periodic(&mut m, ctr, Cycles(100), Cycles(1000), 100);
        m.run_for(Cycles(5_150));
        // Ticks at 100, 1100, 2100, 3100, 4100, 5100 = 6.
        assert_eq!(m.peek_u64(ctr), 6);
        assert_eq!(t.ticks(), 6);
    }

    #[test]
    fn stop_halts_future_ticks() {
        let mut m = Machine::new(MachineConfig::small());
        let ctr = m.alloc(8);
        let t = ApicTimer::start_periodic(&mut m, ctr, Cycles(100), Cycles(1000), 100);
        m.run_for(Cycles(1_500));
        t.stop();
        m.run_for(Cycles(100_000));
        assert_eq!(m.peek_u64(ctr), 2);
    }

    #[test]
    fn max_ticks_bounds_the_timer() {
        let mut m = Machine::new(MachineConfig::small());
        let ctr = m.alloc(8);
        ApicTimer::start_periodic(&mut m, ctr, Cycles(0), Cycles(10), 3);
        m.run_for(Cycles(100_000));
        assert_eq!(m.peek_u64(ctr), 3);
    }

    #[test]
    fn scheduler_thread_wakes_every_tick() {
        // The §2 "No More Interrupts" scheme: a kernel scheduler thread
        // mwaits on the APIC counter instead of taking timer IRQs.
        let mut m = Machine::new(MachineConfig::small());
        let ctr = m.alloc(8);
        let prog = assemble(&format!(
            r#"
            entry:
                movi r1, 0          ; wakeups handled
                movi r2, 3          ; quit after 3
            loop:
                monitor {ctr}
                mwait
                addi r1, r1, 1
                bne r1, r2, loop
                halt
            "#,
            ctr = ctr
        ))
        .unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        m.start_thread(tid);
        ApicTimer::start_periodic(&mut m, ctr, Cycles(10_000), Cycles(10_000), 10);
        m.run_for(Cycles(200_000));
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
        assert_eq!(m.thread_reg(tid, 1), 3);
    }
}
