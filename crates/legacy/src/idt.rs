//! Interrupt delivery through an interrupt descriptor table.
//!
//! This is the machinery §2 "No More Interrupts" deletes: the kernel
//! registers handlers in the IDT; a device interrupt vectors the current
//! execution into IRQ context (entry cost), runs the handler, and exits
//! (EOI + restore). The model tracks vector registration and delivery
//! counts, and produces the handler-start latency for each delivery.

use std::collections::HashMap;

use switchless_sim::stats::Histogram;
use switchless_sim::time::Cycles;

use crate::costs::LegacyCosts;

/// Outcome of one delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// When the handler began running (after IRQ entry).
    pub handler_start: Cycles,
    /// When IRQ context was exited (entry + handler + exit).
    pub done: Cycles,
}

/// The interrupt controller + IDT model for one core.
#[derive(Clone, Debug)]
pub struct Idt {
    costs: LegacyCosts,
    /// Registered vectors and the handler work (top half) each
    /// delivery charges.
    vectors: HashMap<u32, Cycles>,
    /// IRQ context is non-reentrant: deliveries queue behind this time.
    busy_until: Cycles,
    delivered: u64,
    dropped: u64,
    /// Handler-start latency relative to raise time.
    latency: Histogram,
}

impl Idt {
    /// Creates an empty IDT with the given cost book.
    #[must_use]
    pub fn new(costs: LegacyCosts) -> Idt {
        Idt {
            costs,
            vectors: HashMap::new(),
            busy_until: Cycles::ZERO,
            delivered: 0,
            dropped: 0,
            latency: Histogram::new(),
        }
    }

    /// Registers a handler for `vector`.
    pub fn register(&mut self, vector: u32, handler_cost: Cycles) {
        self.vectors.insert(vector, handler_cost);
    }

    /// Raises `vector` at time `now`. Returns the delivery timing, or
    /// `None` if the vector is unregistered (dropped).
    pub fn raise(&mut self, now: Cycles, vector: u32) -> Option<Delivery> {
        let Some(&handler_cost) = self.vectors.get(&vector) else {
            self.dropped += 1;
            return None;
        };
        // Non-reentrant IRQ context: wait for any in-flight handler.
        let begin = now.max(self.busy_until);
        let handler_start = begin + self.costs.irq_entry;
        let done = handler_start + handler_cost + self.costs.irq_exit;
        self.busy_until = done;
        self.delivered += 1;
        self.latency.record((handler_start - now).0);
        Some(Delivery {
            handler_start,
            done,
        })
    }

    /// `(delivered, dropped)` counts.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.delivered, self.dropped)
    }

    /// Handler-start latency distribution.
    #[must_use]
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idt() -> Idt {
        Idt::new(LegacyCosts::default())
    }

    #[test]
    fn delivery_charges_entry_and_exit() {
        let mut i = idt();
        i.register(32, Cycles(1000));
        let d = i.raise(Cycles(0), 32).unwrap();
        assert_eq!(d.handler_start, Cycles(600));
        assert_eq!(d.done, Cycles(600 + 1000 + 300));
    }

    #[test]
    fn unregistered_vector_dropped() {
        let mut i = idt();
        assert!(i.raise(Cycles(0), 99).is_none());
        assert_eq!(i.stats(), (0, 1));
    }

    #[test]
    fn irq_context_serialises_back_to_back_interrupts() {
        let mut i = idt();
        i.register(32, Cycles(1000));
        let d1 = i.raise(Cycles(0), 32).unwrap();
        let d2 = i.raise(Cycles(100), 32).unwrap();
        assert!(d2.handler_start >= d1.done, "second waits for first");
        // The queueing shows up in the latency histogram.
        assert!(i.latency().max() > i.latency().min());
    }

    #[test]
    fn idle_system_delivers_at_entry_cost() {
        let mut i = idt();
        i.register(40, Cycles(0));
        let d = i.raise(Cycles(10_000), 40).unwrap();
        assert_eq!((d.handler_start - Cycles(10_000)).0, 600);
    }
}
