//! `Nic::schedule_rx` allocates nothing per packet: a scheduled packet
//! is a record and a payload in the NIC's pending storage plus one
//! 16-byte device event, and all three only grow by doubling. A counting
//! global allocator makes the claim an exact count rather than a timing.
//!
//! This file holds one test, so nothing else allocates on its thread
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use switchless_core::machine::{Machine, MachineConfig};
use switchless_dev::nic::{Nic, NicConfig};
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

/// Allocations made while scheduling `n` packets, spread over many wheel
/// horizons, on a freshly attached NIC.
fn schedule_allocs(n: u64) -> u64 {
    let mut m = Machine::new(MachineConfig::small());
    let nic = Nic::attach(&mut m, NicConfig::default());
    let payload = [0x5a; 64];
    let before = allocs();
    for seq in 0..n {
        nic.schedule_rx(&mut m, Cycles(1_000 + seq * 997), seq, &payload);
    }
    let made = allocs() - before;
    assert_eq!(nic.rx_pending() as u64, n);
    made
}

#[test]
fn scheduling_rx_packets_allocates_logarithmically() {
    let small = schedule_allocs(1_000);
    let large = schedule_allocs(10_000);
    // Three growable buffers (payload arena, records, the event queue's
    // far FIFO) plus the first ledger entry: a few dozen reallocations
    // for 10,000 packets, where a boxed closure and a payload `Vec` per
    // packet made at least 20,000.
    assert!(large < 64, "10,000 packets made {large} allocations");
    // Ten times the packets adds about log2(10) doublings per buffer.
    assert!(
        large <= small + 16,
        "allocations grow with log n: {small} for 1,000, {large} for 10,000"
    );
}
