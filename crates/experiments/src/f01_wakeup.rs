//! F1 — the headline microbenchmark: how long from "event happens" to
//! "handler thread executes"?
//!
//! * **legacy-irq**: the interrupt path alone (IDT vectoring into IRQ
//!   context), which is the *best case* for today's kernels — the
//!   handler runs in IRQ context.
//! * **legacy-wakeup**: the realistic case the paper opens with: waking
//!   a *blocked thread* needs IRQ + scheduler + (IPI) + context switch.
//! * **hwt-mwait**: the paper's design, measured on the machine — a
//!   hardware thread parked in `mwait` on the event word, woken by the
//!   event write.

use switchless_core::machine::MachineConfig;
use switchless_core::Machine;
use switchless_kern::nointr::EventHandlerSet;
use switchless_legacy::costs::LegacyCosts;
use switchless_legacy::idt::Idt;
use switchless_sim::report::Table;
use switchless_sim::rng::Rng;
use switchless_sim::stats::Histogram;
use switchless_sim::time::Cycles;
use switchless_wl::arrivals::poisson_arrivals;

use crate::common::{cy_ns, FREQ};

/// Measures the hwt design on the machine: Poisson event stream into a
/// parked handler thread; returns the machine's wake histogram.
fn measure_hwt(n_events: usize, mean_gap: f64) -> Histogram {
    let mut m = Machine::new(MachineConfig::small());
    let set =
        EventHandlerSet::install(&mut m, 0, &[("ev", 500, 7)], 0x40000).expect("install handler");
    m.run_for(Cycles(20_000));
    m.reset_wake_latency();
    let mut rng = Rng::seed_from(11);
    let start = m.now();
    let times = poisson_arrivals(&mut rng, start + Cycles(1000), mean_gap, n_events);
    let word = set.handlers[0].event_word;
    // The event source: each event DMA-writes its `arg` to the word.
    let source = m.register_device(move |mach, _, v| {
        mach.dma_write(word, &v.to_le_bytes());
    });
    for (i, &at) in times.iter().enumerate() {
        m.at_device(at, source, (i + 1) as u64);
    }
    let horizon = times.last().copied().unwrap_or(start) + Cycles(1_000_000);
    m.run_until(horizon);
    assert_eq!(set.handled(&m, 0), n_events as u64, "all events handled");
    m.wake_latency().clone()
}

/// Measures the legacy IRQ path through the IDT model with the same
/// arrival process.
fn measure_legacy_irq(n_events: usize, mean_gap: f64) -> Histogram {
    let mut idt = Idt::new(LegacyCosts::default());
    idt.register(33, Cycles(500));
    let mut rng = Rng::seed_from(11);
    let times = poisson_arrivals(&mut rng, Cycles(1000), mean_gap, n_events);
    for at in times {
        idt.raise(at, 33);
    }
    idt.latency().clone()
}

/// Runs F1.
pub fn run(ctx: &crate::RunCtx) -> Vec<Table> {
    let quick = ctx.quick;
    let n = if quick { 1_000 } else { 10_000 };
    let mean_gap = 30_000.0; // 10 µs between events: uncontended.

    let hwt = measure_hwt(n, mean_gap);
    let irq = measure_legacy_irq(n, mean_gap);
    let costs = LegacyCosts::default();
    let wake_same = costs.blocked_wakeup_path(false);
    let wake_cross = costs.blocked_wakeup_path(true);

    let mut t = Table::new(
        "F1: event-to-handler latency by design",
        &["design", "p50", "p99", "mean"],
    );
    t.row_owned(vec![
        "legacy-irq (handler in IRQ ctx)".into(),
        cy_ns(irq.p50()),
        cy_ns(irq.p99()),
        cy_ns(irq.mean() as u64),
    ]);
    t.row_owned(vec![
        "legacy-wakeup (blocked thread, same core)".into(),
        cy_ns(wake_same.0),
        cy_ns(wake_same.0),
        cy_ns(wake_same.0),
    ]);
    t.row_owned(vec![
        "legacy-wakeup (blocked thread, cross core)".into(),
        cy_ns(wake_cross.0),
        cy_ns(wake_cross.0),
        cy_ns(wake_cross.0),
    ]);
    t.row_owned(vec![
        "hwt-mwait (this paper, measured)".into(),
        cy_ns(hwt.p50()),
        cy_ns(hwt.p99()),
        cy_ns(hwt.mean() as u64),
    ]);
    let speedup = wake_cross.0 as f64 / hwt.p50().max(1) as f64;
    t.caption(&format!(
        "hwt wake beats the blocked-thread path by ~{speedup:.0}x \
         ({:.0}ns vs {:.0}ns); the paper argues exactly this gap",
        FREQ.cycles_to_ns(Cycles(hwt.p50())),
        FREQ.cycles_to_ns(wake_cross),
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwt_wake_is_orders_of_magnitude_faster() {
        let hwt = measure_hwt(200, 30_000.0);
        let legacy = LegacyCosts::default().blocked_wakeup_path(true);
        assert!(
            hwt.p50() * 20 < legacy.0,
            "hwt p50 {} vs legacy {}",
            hwt.p50(),
            legacy.0
        );
    }

    #[test]
    fn legacy_irq_alone_still_slower_than_mwait() {
        let hwt = measure_hwt(200, 30_000.0);
        let irq = measure_legacy_irq(200, 30_000.0);
        assert!(hwt.p50() < irq.p50(), "{} vs {}", hwt.p50(), irq.p50());
    }
}
