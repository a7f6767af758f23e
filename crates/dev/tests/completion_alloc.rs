//! SSD commands and fabric RPCs allocate nothing per operation, from
//! submission through completion: a pending completion is a record in
//! the device's slab plus one 16-byte device event, a read's data
//! pattern is built in one reused buffer, and every store only grows by
//! doubling. A counting global allocator makes the claim an exact count
//! rather than a timing.
//!
//! This file holds one test, so nothing else allocates on its thread
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use switchless_core::machine::{Machine, MachineConfig};
use switchless_dev::fabric::{Fabric, FabricConfig};
use switchless_dev::ssd::{Ssd, SsdConfig, SsdOp};
use switchless_sim::time::Cycles;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract passes through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract passes through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract passes through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made while submitting `n` SSD commands (alternating
/// 512-byte reads and writes, spread over many wheel horizons) on a
/// freshly attached SSD and running until every one has completed.
fn ssd_allocs(n: u64) -> u64 {
    let mut m = Machine::new(MachineConfig::small());
    let ssd = Ssd::attach(&mut m, SsdConfig::default());
    let buf = m.alloc(4096);
    let before = allocs();
    for seq in 0..n {
        let op = if seq % 2 == 0 {
            SsdOp::Read {
                buf_addr: buf + (seq % 8) * 512,
                len: 512,
            }
        } else {
            SsdOp::Write
        };
        ssd.submit(&mut m, Cycles(1_000 + seq * 997), seq, op, seq);
    }
    m.run_until(Cycles(1_000 + n * 997 + 100_000));
    let made = allocs() - before;
    assert_eq!(ssd.tail(&m), n, "every command completed");
    assert_eq!(m.counters().get("ssd.completions"), n);
    made
}

/// Allocations made while issuing `n` RPCs on a freshly attached fabric
/// and running until every response has landed.
fn fabric_allocs(n: u64) -> u64 {
    let mut m = Machine::new(MachineConfig::small());
    let fabric = Fabric::attach(&mut m, FabricConfig::default());
    let resp = m.alloc(64 * 8);
    let before = allocs();
    for seq in 0..n {
        let at = Cycles(1_000 + seq * 997);
        fabric.rpc(&mut m, at, Cycles(3_000), resp + (seq % 8) * 64, seq + 1);
    }
    m.run_until(Cycles(1_000 + n * 997 + 100_000));
    let made = allocs() - before;
    assert_eq!(m.counters().get("fabric.rpc.completed"), n);
    made
}

#[test]
fn ssd_and_fabric_traffic_allocates_logarithmically() {
    for (what, count) in [
        ("SSD commands", ssd_allocs as fn(u64) -> u64),
        ("fabric RPCs", fabric_allocs),
    ] {
        let small = count(1_000);
        let large = count(10_000);
        // A few growable stores (the record slab and its free list, the
        // event queue's far FIFO, the read buffer) plus first-use
        // counter and ledger entries: a few dozen allocations for 10,000
        // operations, where a boxed closure per completion (and a data
        // `Vec` per read) made at least 10,000.
        assert!(large < 64, "10,000 {what} made {large} allocations");
        // Ten times the operations adds about log2(10) doublings to each
        // store whose size follows the pending count: 39 → 55 for SSD
        // commands and 31 → 43 for RPCs when this was written.
        assert!(
            large <= small + 24,
            "{what}: allocations grow with log n: {small} for 1,000, {large} for 10,000"
        );
    }
}
