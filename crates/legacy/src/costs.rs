//! Cost parameters of today's mechanisms, with provenance.
//!
//! All values are cycles on the project's reference 3 GHz clock
//! (1 µs = 3000 cycles). They are deliberately *favourable to the
//! baseline* where the literature gives a range — the paper's argument
//! should not need a strawman.

use switchless_sim::time::Cycles;

/// The legacy-mechanism cost book.
#[derive(Clone, Copy, Debug)]
pub struct LegacyCosts {
    /// Hardware interrupt entry: vector through the IDT, save frame,
    /// enter hard-IRQ context. Literature: ~200–600 ns end-to-end for
    /// NIC interrupt delivery; entry alone ~600 cycles.
    pub irq_entry: Cycles,
    /// IRQ exit: EOI, restore, return. ~300 cycles.
    pub irq_exit: Cycles,
    /// Running the scheduler to wake a blocked thread: runqueue lock,
    /// enqueue, pick. ~1–2 µs in Linux (`[63]` measures multi-µs wakeups);
    /// 3000 cycles = 1 µs.
    pub sched_wakeup: Cycles,
    /// Cross-core inter-processor interrupt: trigger + remote entry.
    /// ~2000 cycles (~0.7 µs).
    pub ipi: Cycles,
    /// Direct software context-switch cost: save/restore registers,
    /// switch stacks and address space. "hundreds of cycles" `[25, 46]`;
    /// Linux measures ~1–2 µs with cache effects; direct part ~1500.
    pub ctx_switch_direct: Cycles,
    /// System-call mode switch, entry + exit: "can take hundreds of
    /// cycles" `[46, 69]`; with KPTI considerably more. 300 cycles.
    pub syscall_mode_switch: Cycles,
    /// VM-exit + VM-entry round trip: ~1000–2000 cycles on modern parts
    /// (`[20]` reports higher for older parts). 1500 cycles.
    pub vmexit_roundtrip: Cycles,
    /// OS scheduler preemption quantum. Linux CFS targets milliseconds;
    /// 1 ms = 3_000_000 cycles.
    pub quantum: Cycles,
    /// One iteration of a polling loop (ring check, branch). ~100 ns
    /// budget per DPDK-style iteration: 300 cycles worst-case freshness.
    pub poll_iteration: Cycles,
}

impl Default for LegacyCosts {
    fn default() -> LegacyCosts {
        LegacyCosts {
            irq_entry: Cycles(600),
            irq_exit: Cycles(300),
            sched_wakeup: Cycles(3000),
            ipi: Cycles(2000),
            ctx_switch_direct: Cycles(1500),
            syscall_mode_switch: Cycles(300),
            vmexit_roundtrip: Cycles(1500),
            quantum: Cycles(3_000_000),
            poll_iteration: Cycles(300),
        }
    }
}

impl LegacyCosts {
    /// Full interrupt-driven wakeup path for a blocked thread:
    /// IRQ entry + handler bookkeeping is charged by the caller; this is
    /// the post-handler path — scheduler wakeup, optional cross-core IPI,
    /// and the context switch onto the CPU.
    #[must_use]
    pub fn blocked_wakeup_path(&self, cross_core: bool) -> Cycles {
        let ipi = if cross_core { self.ipi } else { Cycles::ZERO };
        self.irq_entry + self.sched_wakeup + ipi + self.ctx_switch_direct + self.irq_exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_sim::time::Freq;

    #[test]
    fn wakeup_path_is_microsecond_scale() {
        let c = LegacyCosts::default();
        let same = c.blocked_wakeup_path(false);
        let cross = c.blocked_wakeup_path(true);
        assert!(cross > same);
        let ns = Freq::GHZ3.cycles_to_ns(cross);
        // The paper's motivation: interrupt wakeups are ~µs scale.
        assert!((1000.0..4000.0).contains(&ns), "cross-core wakeup {ns}ns");
    }

    #[test]
    fn syscall_is_hundreds_of_cycles() {
        let c = LegacyCosts::default();
        assert!((100..1000).contains(&c.syscall_mode_switch.0));
    }

    #[test]
    fn quantum_is_milliseconds() {
        let c = LegacyCosts::default();
        assert!(c.quantum.0 >= 1_000_000, "quantum must be ms-scale");
    }
}
