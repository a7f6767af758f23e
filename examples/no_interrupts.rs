//! "No More Interrupts" — §2: the kernel designates a hardware thread
//! per event type instead of registering IDT handlers; the APIC timer
//! *writes a counter* instead of raising an interrupt.
//!
//! ```sh
//! cargo run --example no_interrupts
//! ```

use switchless::core::machine::{Machine, MachineConfig};
use switchless::dev::timer::ApicTimer;
use switchless::kern::nointr::EventHandlerSet;
use switchless::sim::time::{Cycles, Freq};

fn main() {
    let mut m = Machine::new(MachineConfig::small());

    // Three event types, each with its own parked handler thread. The
    // scheduler-tick handler gets the highest priority — §4's answer to
    // time-critical interrupts.
    let set = EventHandlerSet::install(
        &mut m,
        0,
        &[
            ("sched-tick", 800, 7),
            ("nic-rx", 1_500, 6),
            ("disk-cq", 1_200, 5),
        ],
        0x40000,
    )
    .expect("handlers install");
    m.run_for(Cycles(20_000));
    m.reset_wake_latency();

    // The timer ticks every 10 µs by incrementing the handler's counter.
    ApicTimer::start_periodic(
        &mut m,
        set.handlers[0].event_word,
        Cycles(10_000),
        Cycles(30_000),
        50,
    );
    // Sporadic NIC and disk events: two more periodic devices, which
    // bump their handler's event word 20 times each.
    for (handler, first, period) in [(1, 40_000, 61_000), (2, 55_000, 83_000)] {
        let word = set.handlers[handler].event_word;
        let device = m.register_device(move |mach, me, left| {
            let v = mach.peek_u64(word) + 1;
            mach.dma_write(word, &v.to_le_bytes());
            if left > 1 {
                let next = mach.now() + Cycles(period);
                mach.at_device(next, me, left - 1);
            }
        });
        m.at_device(Cycles(first), device, 20);
    }
    m.run_for(Cycles(2_500_000));

    for (i, name) in ["sched-tick", "nic-rx", "disk-cq"].iter().enumerate() {
        println!("{name:10} handled {:3} events", set.handled(&m, i));
    }
    let h = m.wake_latency();
    println!(
        "event-to-handler latency: p50={}cy ({:.0}ns)  p99={}cy ({:.0}ns)",
        h.p50(),
        Freq::GHZ3.cycles_to_ns(Cycles(h.p50())),
        h.p99(),
        Freq::GHZ3.cycles_to_ns(Cycles(h.p99())),
    );
    println!(
        "IRQ-context entries taken: 0 (there is no IDT); timer ticks: {}",
        m.counters().get("timer.ticks"),
    );
}
