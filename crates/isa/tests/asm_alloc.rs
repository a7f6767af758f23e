//! `assemble` allocates per label, not per line: instruction tokens are
//! borrowed slices of the source kept in a fixed array, and numbers are
//! parsed without copying the token. A counting global allocator makes
//! the claim an exact count rather than a timing.
//!
//! This file holds one test, so nothing else allocates on its thread
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use switchless_isa::asm::assemble;

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

/// Labels in the generated source; each heads four lines.
const LABELS: u64 = 900;

/// A 3,604-line source: per label, an immediate with separators, a
/// negative immediate, a register+offset store and a branch back to
/// the label, plus `.equ` constants and the entry point.
fn source() -> String {
    let mut src = String::from(".base 0x20000\n.equ STEP, 0x1_0\n.equ LIMIT, 1_000_000\nentry:\n");
    for i in 0..LABELS {
        let _ = write!(
            src,
            "l{i}: movi r1, {i}_000\n    addi r2, r1, -0x{i:x}\n    st r2, r3, STEP\n    blt r1, r2, l{i}\n"
        );
    }
    src
}

#[test]
fn assembling_allocates_per_label_not_per_line() {
    let src = source();
    assert_eq!(src.lines().count(), 3_604);
    let before = allocs();
    let p = assemble(&src).expect("generated source assembles");
    let made = allocs() - before;
    assert_eq!(p.words.len() as u64, 4 * LABELS);
    // One owned name per symbol (900 labels, two `.equ`s) and 45
    // reallocations as the item list, label list, symbol map and image
    // grow. Copying each operand to drop separators and collecting each
    // line's tokens made 8,150.
    assert_eq!(made, LABELS + 2 + 45, "{made} allocations");
}
