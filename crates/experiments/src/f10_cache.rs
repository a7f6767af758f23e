//! F10 — "Managing Non-register State" (§4): protecting a critical
//! thread's working set with fine-grain cache partitioning.
//!
//! The eviction pressure in an I/O-heavy server comes from devices as
//! much as from threads: DDIO-style DMA deposits packet data straight
//! into L3. Here a critical thread scans a 1 MiB working set (larger
//! than the private L2, so L3 residency is what matters) while a DMA
//! stream floods the L3 at a configurable rate. A Vantage-style L3
//! partition (1/8 of the cache, §4's "hundreds of small partitions")
//! pins the critical set.
//!
//! Metric: the critical thread's *own* execution cycles per pass (wall
//! time also reported). Without the partition, flooding evicts the set
//! to DRAM; with it, the set stays at L3 latency.

use std::cell::Cell;
use std::rc::Rc;

use switchless_core::machine::{DeviceId, Machine, MachineConfig};
use switchless_isa::asm::assemble;
use switchless_mem::cache::PartitionId;
use switchless_sim::report::{fnum, Table};
use switchless_sim::time::Cycles;

const CRIT_WS: u64 = 1024 * 1024;
const WARMUP: u64 = 2_000_000;

fn scan_program(base: u64, buf: u64, ws: u64, pass_word: u64) -> String {
    format!(
        r#"
        .base {base:#x}
        entry:
            movi r3, {buf}
            movi r4, {end}
        pass:
            ld r2, r3, 0
            addi r3, r3, 64
            blt r3, r4, pass
            movi r3, {buf}
            ld r5, {pw}
            addi r5, r5, 1
            st r5, {pw}
            jmp pass
        "#,
        base = base,
        buf = buf,
        end = buf + ws,
        pw = pass_word,
    )
}

/// Recurring DMA stream: every `period`, deposit `lines` cache lines at
/// an advancing cursor (wrapping over `span` bytes), `events` times from
/// `first`. A registered device: each event carries its due time and the
/// handler queues the next, so a tick boxes nothing and reuses one
/// buffer.
fn stream(
    m: &mut Machine,
    first: Cycles,
    base: u64,
    span: u64,
    lines: u64,
    period: Cycles,
    events: u64,
) {
    if events == 0 {
        return;
    }
    let buf = vec![0xaau8; (lines * 64) as usize];
    let mut cursor = 0u64;
    let mut remaining = events;
    // The handler reschedules itself, so it learns its id once
    // registered.
    let me = Rc::new(Cell::new(None::<DeviceId>));
    let id_cell = Rc::clone(&me);
    let id = m.register_device(move |mach, at| {
        mach.dma_write(base + (cursor % span), &buf);
        cursor += lines * 64;
        remaining -= 1;
        if remaining > 0 {
            let next = Cycles(at) + period;
            let id = id_cell.get().expect("registered before the first event");
            mach.at_device(next, id, next.0);
        }
    });
    me.set(Some(id));
    m.at_device(first, id, first.0);
}

struct Outcome {
    passes: u64,
    cy_per_pass: u64,
    l3_miss_rate: f64,
}

fn measure(rate_lines_per_kcy: u64, partition: bool, window: u64) -> Outcome {
    let mut cfg = MachineConfig::small();
    cfg.mem_bytes = 64 << 20;
    // Hugepage-class TLB reach: page walks would hit both configurations
    // identically and mask the cache effect under test.
    cfg.tlb.entries = 16_384;
    let mut m = Machine::new(cfg);
    let crit_buf = m.alloc(CRIT_WS);
    let crit_pass = m.alloc(64);
    let prog = assemble(&scan_program(0x40000, crit_buf, CRIT_WS, crit_pass)).expect("crit");
    let crit = m.load_program(0, &prog).expect("load");
    if partition {
        m.set_l3_partition(PartitionId(1), 1.0 / 8.0);
        m.set_thread_partition(crit, PartitionId(1));
    }
    if rate_lines_per_kcy > 0 {
        let span: u64 = 16 << 20;
        let base = m.alloc(span);
        let events = (WARMUP + window) / 1000 + 1;
        stream(
            &mut m,
            Cycles(0),
            base,
            span - rate_lines_per_kcy * 64,
            rate_lines_per_kcy,
            Cycles(1000),
            events,
        );
    }
    m.start_thread(crit);
    m.run_for(Cycles(WARMUP));
    let p0 = m.peek_u64(crit_pass);
    let b0 = m.billed_cycles(crit).0;
    let (_, _, (h0, m0)) = m.cache_stats();
    m.run_for(Cycles(window));
    let passes = m.peek_u64(crit_pass) - p0;
    let billed = m.billed_cycles(crit).0 - b0;
    let (_, _, (h1, m1)) = m.cache_stats();
    let (dh, dm) = (h1 - h0, m1 - m0);
    Outcome {
        passes,
        cy_per_pass: billed.checked_div(passes).unwrap_or(billed),
        l3_miss_rate: if dh + dm == 0 {
            0.0
        } else {
            dm as f64 / (dh + dm) as f64
        },
    }
}

/// Runs F10.
pub fn run(ctx: &crate::RunCtx) -> Vec<Table> {
    let quick = ctx.quick;
    let window = if quick { 6_000_000 } else { 12_000_000 };
    let rates: &[u64] = if quick { &[0, 64] } else { &[0, 16, 64, 256] };
    let mut t = Table::new(
        "F10: critical working set vs DMA cache flooding",
        &[
            "dma lines/kcy",
            "passes shared",
            "passes part.",
            "cy/pass shared",
            "cy/pass part.",
            "speedup",
            "L3 miss shared",
            "L3 miss part.",
        ],
    );
    for &r in rates {
        let shared = measure(r, false, window);
        let part = measure(r, true, window);
        t.row_owned(vec![
            r.to_string(),
            shared.passes.to_string(),
            part.passes.to_string(),
            shared.cy_per_pass.to_string(),
            part.cy_per_pass.to_string(),
            fnum(shared.cy_per_pass as f64 / part.cy_per_pass.max(1) as f64),
            fnum(shared.l3_miss_rate),
            fnum(part.l3_miss_rate),
        ]);
    }
    t.caption(
        "1MiB critical set (> private L2), 1/8-L3 Vantage-style partition; \
         expected shape: once the DMA flood exceeds ~64 lines/kcy the \
         unpartitioned critical thread drops to DRAM speed (~4-5x more \
         cycles per pass) while the partitioned one is unaffected — the \
         §4 pinning argument",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flooding_hurts_unpartitioned_progress() {
        let calm = measure(0, false, 6_000_000);
        let flooded = measure(128, false, 6_000_000);
        assert!(
            flooded.cy_per_pass > calm.cy_per_pass * 2,
            "flooded {} vs calm {}",
            flooded.cy_per_pass,
            calm.cy_per_pass
        );
    }

    #[test]
    fn partitioning_recovers_progress_under_flood() {
        let shared = measure(128, false, 6_000_000);
        let part = measure(128, true, 6_000_000);
        assert!(
            shared.cy_per_pass > part.cy_per_pass * 2,
            "partitioned {} should be >=2x faster than shared {}",
            part.cy_per_pass,
            shared.cy_per_pass
        );
        assert!(part.passes > shared.passes);
    }
}
