//! A cancellable, deterministic discrete-event queue.
//!
//! Events are ordered by their scheduled cycle; ties are broken by insertion
//! order (FIFO), which makes simulations deterministic for a fixed seed.
//! Cancellation is by token: [`EventQueue::schedule`] returns an
//! [`EventToken`] carrying the event's `(time, seq)` key, and
//! [`EventQueue::cancel`] uses that key to remove the event from wherever
//! it is queued. Every queued event is therefore live, so the queue keeps
//! no per-seq state.
//!
//! A caller may keep some due values outside the queue and still share
//! its order: [`EventQueue::issue_seq`] stamps such a value with the next
//! seq, as a schedule would, and [`EventQueue::peek_key`] gives the
//! head's `(time, seq)` to merge it against. The machine keeps each
//! pipeline slot's next dispatch this way, so the queue holds only
//! device events.
//!
//! # Internals: timing wheel + far FIFO + overflow heap
//!
//! Simulators schedule almost every event a short, bounded distance into
//! the future (instruction costs, activation latencies), so the common
//! case is served by a timing wheel: slot `at % WHEEL_SLOTS` holds a FIFO
//! of the events due at cycle `at`. A two-level occupancy bitmap — one
//! bit per slot, plus one summary word with a bit per non-empty bitmap
//! word — finds the next non-empty slot with two `trailing_zeros`, however
//! sparse the wheel is.
//!
//! Events outside the wheel horizon (more than `WHEEL_SLOTS` cycles
//! ahead) are usually a pre-scheduled trace — device arrivals handed to
//! the queue in time order. Such an event, due no earlier than the far
//! FIFO's last entry, is appended to that FIFO, which is therefore sorted
//! by `(time, seq)` by construction. Only far events that arrive out of
//! order, and events scheduled in the past, go to a binary heap. The
//! choice follows the observed schedule order alone; there is no setting.
//!
//! The wheel is exact, not approximate: every wheel entry's time lies in
//! `[cursor, cursor + WHEEL_SLOTS)` where `cursor` is the last popped
//! time (pops are monotone), so a slot never holds two distinct times
//! and slot order equals time order starting from the cursor's slot.
//! Far FIFO entries always lie beyond that window: when a pop moves the
//! cursor, the far entries its new window covers move to their wheel
//! slots before anything else can be scheduled. That keeps each slot's
//! FIFO in schedule order — a far entry due at `T` was scheduled before
//! any wheel entry at `T` could be, because the window only moves
//! forward — and it means the far FIFO's head is the minimum only when
//! the wheel is empty. So the pop side merges by `(time, seq)` only
//! while the heap holds events, and which structure holds an event never
//! changes the order it pops in.

use core::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Cycles;

/// Handle identifying a scheduled event, used for cancellation: the
/// event's `(time, seq)` key, which locates it in the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventToken {
    at: Cycles,
    seq: u64,
}

/// Number of wheel slots; also the wheel horizon in cycles. Power of two
/// so the slot index is a mask. Events due further out overflow to the
/// heap, which is correct but slower.
const WHEEL_SLOTS: usize = 4096;
/// Words in the slot-occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
// The summary word holds one bit per bitmap word.
const _: () = assert!(WHEEL_WORDS == 64);

/// A passive priority queue of timestamped events.
///
/// The queue does not dispatch; the owner pops `(time, event)` pairs and
/// acts on them. Same-cycle events pop in the order they were scheduled.
///
/// # Complexity
///
/// | operation                         | cost            |
/// |-----------------------------------|-----------------|
/// | [`schedule`](EventQueue::schedule) | O(1) within the wheel horizon or in time order beyond it; O(log n) for out-of-order far or past events |
/// | [`pop`](EventQueue::pop) / [`pop_due`](EventQueue::pop_due) | O(1) amortised, except O(log n) for heap entries |
/// | [`cancel`](EventQueue::cancel)    | O(events due that cycle) in the wheel; O(log n) plus a shift in the far FIFO; O(n) in the heap |
/// | [`peek_time`](EventQueue::peek_time) / [`peek_key`](EventQueue::peek_key) | O(1), exact, `&self` |
/// | [`issue_seq`](EventQueue::issue_seq) | O(1) |
/// | [`len`](EventQueue::len) / [`is_empty`](EventQueue::is_empty) | O(1), exact |
///
/// A cancel removes its event at once, so nothing cancelled is ever
/// queued and a cancel of a popped or cancelled token finds nothing.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-future events: slot `at & (WHEEL_SLOTS - 1)` holds a FIFO as
    /// a singly-linked chain of `slab` nodes (head..tail, seq-ascending).
    slots: Box<[Fifo; WHEEL_SLOTS]>,
    /// Node arena backing every slot FIFO. Freed nodes go to a LIFO
    /// freelist threaded through `next`, so a pop-then-schedule cycle —
    /// the steady state of a running simulation — reuses the cache line
    /// it just vacated instead of touching a per-slot buffer that went
    /// cold a full wheel lap ago.
    slab: Vec<Node<E>>,
    /// Head of the freelist through `Node::next`, or [`NIL`].
    free_head: u32,
    /// One bit per wheel slot, set when that slot's FIFO is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Bit `w` set when `occupied[w]` is non-zero.
    summary: u64,
    /// Far-future events scheduled at or after the previous far event's
    /// time, so sorted by `(time, seq)` as appended. All lie beyond the
    /// wheel window; `take` moves them into the wheel as it reaches them.
    far: VecDeque<Entry<E>>,
    /// Every other event outside the wheel horizon (out-of-order far
    /// future, or scheduled in the past). Wheel, `far` and `overflow` are
    /// merged by `(time, seq)` at pop time.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Exact number of queued events.
    live: usize,
    next_seq: u64,
    /// Timestamp of the most recently popped event; pops are monotone,
    /// which is what anchors the wheel window.
    last_popped: Cycles,
}

#[derive(Debug)]
struct Entry<E> {
    at: Cycles,
    seq: u64,
    event: E,
}

/// Sentinel slab index: empty FIFO / end of chain / end of freelist.
const NIL: u32 = u32::MAX;

/// Head and tail slab indices of one wheel slot's FIFO, plus a copy of
/// the head node's key so the min scan (`min_src`) never dereferences
/// the slab: `at`/`seq` mirror `slab[head]` whenever `head != NIL`.
#[derive(Clone, Copy, Debug)]
struct Fifo {
    head: u32,
    tail: u32,
    at: Cycles,
    seq: u64,
}

/// One queued wheel event. `event` is `None` only while the node sits on
/// the freelist.
#[derive(Debug)]
struct Node<E> {
    at: Cycles,
    seq: u64,
    next: u32,
    event: Option<E>,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Where the current head (minimum) entry lives.
#[derive(Clone, Copy)]
enum Src {
    Wheel(usize),
    Far,
    Overflow,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            slots: Box::new(
                [Fifo {
                    head: NIL,
                    tail: NIL,
                    at: Cycles::ZERO,
                    seq: 0,
                }; WHEEL_SLOTS],
            ),
            slab: Vec::new(),
            free_head: NIL,
            occupied: [0; WHEEL_WORDS],
            summary: 0,
            far: VecDeque::new(),
            overflow: BinaryHeap::new(),
            live: 0,
            next_seq: 0,
            last_popped: Cycles::ZERO,
        }
    }

    /// Whether `at` lies in the wheel window `[cursor, cursor + WHEEL_SLOTS)`.
    #[inline]
    fn in_wheel(&self, at: Cycles) -> bool {
        at >= self.last_popped && at.0 - self.last_popped.0 < WHEEL_SLOTS as u64
    }

    /// Takes a node from the freelist (or grows the slab) and fills it.
    #[inline]
    fn alloc_node(&mut self, at: Cycles, seq: u64, event: E) -> u32 {
        let i = self.free_head;
        if i != NIL {
            let n = &mut self.slab[i as usize];
            self.free_head = n.next;
            *n = Node {
                at,
                seq,
                next: NIL,
                event: Some(event),
            };
            i
        } else {
            let i = u32::try_from(self.slab.len()).expect("slab fits in u32 indices");
            self.slab.push(Node {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            i
        }
    }

    /// Appends a node to `slot`'s FIFO and marks the slot occupied.
    #[inline]
    fn slot_push_back(&mut self, slot: usize, at: Cycles, seq: u64, event: E) {
        let idx = self.alloc_node(at, seq, event);
        let f = self.slots[slot];
        if f.tail == NIL {
            self.slots[slot] = Fifo {
                head: idx,
                tail: idx,
                at,
                seq,
            };
        } else {
            self.slab[f.tail as usize].next = idx;
            self.slots[slot].tail = idx;
        }
        self.mark_occupied(slot);
    }

    /// Sets `slot`'s occupancy bit, and its word's summary bit when the
    /// word was empty.
    #[inline]
    fn mark_occupied(&mut self, slot: usize) {
        let w = (slot >> 6) & (WHEEL_WORDS - 1);
        let word = &mut self.occupied[w];
        if *word == 0 {
            self.summary |= 1 << w;
        }
        *word |= 1 << (slot & 63);
    }

    /// Unlinks and returns `slot`'s head node, clearing the occupancy bit
    /// when the slot empties; the node returns to the freelist.
    #[inline]
    fn slot_pop_front(&mut self, slot: usize) -> Entry<E> {
        let i = self.slots[slot].head;
        debug_assert!(i != NIL, "pop from empty slot");
        let n = &mut self.slab[i as usize];
        let at = n.at;
        let seq = n.seq;
        let event = n.event.take().expect("live node has an event");
        let next = n.next;
        n.next = self.free_head;
        self.free_head = i;
        if next == NIL {
            self.slots[slot].head = NIL;
            self.slots[slot].tail = NIL;
            let w = (slot >> 6) & (WHEEL_WORDS - 1);
            let word = &mut self.occupied[w];
            *word &= !(1 << (slot & 63));
            if *word == 0 {
                self.summary &= !(1 << w);
            }
        } else {
            let nn = &self.slab[next as usize];
            let (nat, nseq) = (nn.at, nn.seq);
            let f = &mut self.slots[slot];
            f.head = next;
            f.at = nat;
            f.seq = nseq;
        }
        Entry { at, seq, event }
    }

    /// Schedules `event` to fire at absolute time `at`. O(1) for events
    /// within the wheel horizon and for far events in time order, O(log n)
    /// for out-of-order far events and events in the past.
    ///
    /// Returns a token usable with [`EventQueue::cancel`]. Scheduling in the
    /// past is allowed (the event fires "immediately", i.e. before any
    /// later-stamped event), which simplifies zero-latency notifications.
    pub fn schedule(&mut self, at: Cycles, event: E) -> EventToken {
        let seq = self.issue_seq();
        if self.in_wheel(at) {
            let slot = at.0 as usize & (WHEEL_SLOTS - 1);
            self.slot_push_back(slot, at, seq, event);
        } else {
            self.push_beyond_wheel(Entry { at, seq, event });
        }
        self.live += 1;
        EventToken { at, seq }
    }

    /// Queues a newly scheduled event outside the wheel horizon: in the
    /// far FIFO when it is in the future and no earlier than the FIFO's
    /// last entry, else in the heap. Out of line so the wheel path of
    /// `schedule` stays small: inlined, it made a device-serving run
    /// about 7% slower.
    #[inline(never)]
    fn push_beyond_wheel(&mut self, e: Entry<E>) {
        if e.at > self.last_popped && self.far.back().is_none_or(|b| e.at >= b.at) {
            // `e.seq` is the newest, so the FIFO stays `(time, seq)` sorted.
            self.far.push_back(e);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Cancels a previously scheduled event, removing it from wherever it
    /// is queued: unlinked from its wheel slot's chain, binary-searched
    /// out of the far FIFO, or filtered out of the heap.
    ///
    /// Returns `true` if the event was still queued. Cancelling a popped
    /// or already-cancelled token finds nothing and returns `false`.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let EventToken { at, seq } = token;
        let removed =
            self.wheel_unlink(at, seq) || self.far_remove(at, seq) || self.heap_remove(at, seq);
        if removed {
            self.live -= 1;
        }
        removed
    }

    /// Unlinks `(at, seq)` from its wheel slot's chain, if it is there,
    /// fixing the slot's head, tail, cached head key and occupancy bits.
    fn wheel_unlink(&mut self, at: Cycles, seq: u64) -> bool {
        let slot = at.0 as usize & (WHEEL_SLOTS - 1);
        let f = self.slots[slot];
        // A slot holds events of one time, and the wheel only times in
        // its window: a head of another time means the event is elsewhere.
        if f.head == NIL || f.at != at || seq < f.seq {
            return false;
        }
        if seq == f.seq {
            self.slot_pop_front(slot);
            return true;
        }
        let p = self.chain_pred(slot, seq);
        let i = self.slab[p as usize].next;
        if i == NIL || self.slab[i as usize].seq != seq {
            return false;
        }
        let n = &mut self.slab[i as usize];
        let next = n.next;
        n.event = None;
        n.next = self.free_head;
        self.free_head = i;
        self.slab[p as usize].next = next;
        if next == NIL {
            self.slots[slot].tail = p;
        }
        true
    }

    /// The last node of `slot`'s seq-ascending chain whose seq is below
    /// `seq`; the chain's head must be below it.
    fn chain_pred(&self, slot: usize, seq: u64) -> u32 {
        let mut p = self.slots[slot].head;
        loop {
            let nxt = self.slab[p as usize].next;
            if nxt == NIL || self.slab[nxt as usize].seq >= seq {
                return p;
            }
            p = nxt;
        }
    }

    /// Removes `(at, seq)` from the far FIFO, if it is there.
    fn far_remove(&mut self, at: Cycles, seq: u64) -> bool {
        let i = self.far.binary_search_by(|e| (e.at, e.seq).cmp(&(at, seq)));
        i.map(|i| self.far.remove(i)).is_ok()
    }

    /// Removes `(at, seq)` from the overflow heap, if it is there.
    fn heap_remove(&mut self, at: Cycles, seq: u64) -> bool {
        let n = self.overflow.len();
        self.overflow
            .retain(|Reverse(e)| (e.at, e.seq) != (at, seq));
        self.overflow.len() != n
    }

    /// Time of the earliest pending event, if any. O(1).
    ///
    /// A simulator executing work inline (without re-entering the queue
    /// per step) must never advance past this time: anything at or before
    /// it (a device callback, a timer) has to observe machine state
    /// first. The empty-queue fast path is one load, so callers can
    /// afford to consult it per step.
    #[must_use]
    #[inline]
    pub fn peek_time(&self) -> Option<Cycles> {
        self.min_src().map(|(_, at, _)| at)
    }

    /// The earliest pending event's `(time, seq)` key without removing
    /// it. O(1). A value kept outside the queue under a seq from
    /// [`EventQueue::issue_seq`] pops before the head exactly when its
    /// key is smaller.
    #[must_use]
    #[inline]
    pub fn peek_key(&self) -> Option<(Cycles, u64)> {
        self.min_src().map(|(_, at, seq)| (at, seq))
    }

    /// Issues the next seq without queueing anything, as a schedule
    /// would. A caller that keeps a due value outside the queue (a
    /// pipeline slot's next dispatch, say) stamps it with this seq and
    /// merges it against [`EventQueue::peek_key`], so the outside value
    /// and the queued events share one `(time, seq)` order.
    #[inline]
    pub fn issue_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Monotone count of seqs ever issued, by a schedule or by
    /// [`EventQueue::issue_seq`]. A caller that cached
    /// [`EventQueue::peek_time`] may keep using the cached value while
    /// this mark is unchanged: only a schedule can move the head
    /// **earlier**. Pops and cancels can only move it later, which leaves
    /// a cached value conservative, never unsafe.
    #[must_use]
    #[inline]
    pub fn schedule_mark(&self) -> u64 {
        self.next_seq
    }

    /// Pops the earliest pending event. O(1) amortised for wheel and far
    /// FIFO events, O(log n) for overflow heap events.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let (src, ..) = self.min_src()?;
        let e = self.take(src);
        Some((e.at, e.event))
    }

    /// Pops the earliest event only if it is due at or before `now`.
    /// Same cost as [`EventQueue::pop`].
    pub fn pop_due(&mut self, now: Cycles) -> Option<(Cycles, E)> {
        let (src, at, ..) = self.min_src()?;
        if at > now {
            return None;
        }
        let e = self.take(src);
        Some((e.at, e.event))
    }

    /// Number of pending (scheduled, not yet popped or cancelled) events.
    /// Exact and O(1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no events are pending. Exact and O(1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Locates the minimum `(time, seq)` entry across wheel, far FIFO and
    /// overflow; returns its source plus that `(time, seq)` so callers do
    /// not have to re-find the front.
    #[inline]
    fn min_src(&self) -> Option<(Src, Cycles, u64)> {
        if self.live == 0 {
            return None;
        }
        if self.overflow.is_empty() {
            // The steady state: every wheel entry precedes every far one
            // (the far FIFO lies beyond the window), so no merge.
            return match self.next_occupied_slot() {
                Some(slot) => {
                    let f = &self.slots[slot & (WHEEL_SLOTS - 1)];
                    Some((Src::Wheel(slot), f.at, f.seq))
                }
                None => self.far.front().map(|e| (Src::Far, e.at, e.seq)),
            };
        }
        self.merge_min()
    }

    /// `min_src` with overflow events pending: the earliest of the
    /// wheel's first occupied slot, the far FIFO's head and the heap's.
    /// Out of line so the common path of `min_src` stays small.
    #[inline(never)]
    fn merge_min(&self) -> Option<(Src, Cycles, u64)> {
        let mut best = self.next_occupied_slot().map(|slot| {
            let f = &self.slots[slot & (WHEEL_SLOTS - 1)];
            (Src::Wheel(slot), f.at, f.seq)
        });
        let heads = [
            self.far.front().map(|e| (Src::Far, e)),
            self.overflow.peek().map(|Reverse(e)| (Src::Overflow, e)),
        ];
        for (src, e) in heads.into_iter().flatten() {
            if best.is_none_or(|(_, at, seq)| (e.at, e.seq) < (at, seq)) {
                best = Some((src, e.at, e.seq));
            }
        }
        best
    }

    /// First occupied wheel slot in time order, starting at the cursor's
    /// slot and wrapping: the cursor's own word first, then the summary
    /// word picks the next non-empty word.
    fn next_occupied_slot(&self) -> Option<usize> {
        let start = self.last_popped.0 as usize & (WHEEL_SLOTS - 1);
        let w0 = start >> 6;
        let first = self.occupied[w0] & (!0u64 << (start & 63));
        if first != 0 {
            return Some((w0 << 6) + first.trailing_zeros() as usize);
        }
        // Rotate so word `w0 + 1` is bit 0 and `w0` itself comes last: its
        // bits at or above `start` are clear, so any left are below
        // `start` (wrapped, i.e. latest-in-window times).
        let rest = self
            .summary
            .rotate_right(((w0 + 1) & (WHEEL_WORDS - 1)) as u32);
        if rest == 0 {
            return None;
        }
        let w = (w0 + 1 + rest.trailing_zeros() as usize) & (WHEEL_WORDS - 1);
        Some((w << 6) + self.occupied[w].trailing_zeros() as usize)
    }

    /// Removes and returns the head entry, which the caller has located
    /// via `min_src`, and advances the cursor to its time, moving the
    /// far entries the new window covers into their wheel slots.
    fn take(&mut self, src: Src) -> Entry<E> {
        let e = match src {
            Src::Wheel(slot) => self.slot_pop_front(slot & (WHEEL_SLOTS - 1)),
            Src::Far => self.far.pop_front().expect("checked"),
            Src::Overflow => self.overflow.pop().expect("checked").0,
        };
        self.live -= 1;
        if e.at > self.last_popped {
            self.last_popped = e.at;
            if self.far.front().is_some_and(|f| self.in_wheel(f.at)) {
                self.migrate_far();
            }
        }
        e
    }

    /// Appends every far entry inside the wheel window to its slot. The
    /// window has just moved, so no wheel entry shares those times yet
    /// and each slot's FIFO stays seq-ascending.
    #[inline(never)]
    fn migrate_far(&mut self) {
        while let Some(f) = self.far.front() {
            if !self.in_wheel(f.at) {
                break;
            }
            let Entry { at, seq, event } = self.far.pop_front().expect("checked");
            self.slot_push_back(at.0 as usize & (WHEEL_SLOTS - 1), at, seq, event);
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(30), "c");
        q.schedule(Cycles(10), "a");
        q.schedule(Cycles(20), "b");
        assert_eq!(q.pop(), Some((Cycles(10), "a")));
        assert_eq!(q.pop(), Some((Cycles(20), "b")));
        assert_eq!(q.pop(), Some((Cycles(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(7), i)));
        }
    }

    #[test]
    fn cancel_prevents_pop() {
        let mut q = EventQueue::new();
        let t1 = q.schedule(Cycles(1), "one");
        let _t2 = q.schedule(Cycles(2), "two");
        assert!(q.cancel(t1));
        assert_eq!(q.pop(), Some((Cycles(2), "two")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_reports_false() {
        let mut q = EventQueue::new();
        let t = q.schedule(Cycles(1), ());
        assert!(q.cancel(t));
        assert!(!q.cancel(t));
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), "later");
        assert_eq!(q.pop_due(Cycles(5)), None);
        assert_eq!(q.pop_due(Cycles(10)), Some((Cycles(10), "later")));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let t = q.schedule(Cycles(1), "dead");
        q.schedule(Cycles(5), "live");
        q.cancel(t);
        assert_eq!(q.peek_time(), Some(Cycles(5)));
    }

    #[test]
    fn scheduling_in_past_fires_first() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(100), "future");
        q.pop();
        q.schedule(Cycles(1), "past");
        assert_eq!(q.pop(), Some((Cycles(1), "past")));
    }

    #[test]
    fn is_empty_after_all_cancelled() {
        let mut q: EventQueue<()> = EventQueue::new();
        let a = q.schedule(Cycles(1), ());
        let b = q.schedule(Cycles(2), ());
        q.cancel(a);
        q.cancel(b);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancel_after_pop_reports_false_and_leaks_nothing() {
        // Cancelling an already-popped token finds nothing to remove and
        // must report `false`.
        let mut q = EventQueue::new();
        let mut popped_tokens = Vec::new();
        for i in 0..1000 {
            popped_tokens.push(q.schedule(Cycles(i), i));
        }
        for _ in 0..1000 {
            q.pop().unwrap();
        }
        for t in popped_tokens {
            assert!(!q.cancel(t), "cancelling a fired token must be false");
        }
        assert_eq!(q.len(), 0);
        // A token cancelled while live, whose event then reaches the
        // queue head, is also fully drained.
        let t = q.schedule(Cycles(1), 0);
        q.schedule(Cycles(2), 1);
        assert!(q.cancel(t));
        assert_eq!(q.pop(), Some((Cycles(2), 1)));
        assert!(!q.cancel(t), "second cancel of the same token is false");
    }

    #[test]
    fn cancel_of_unissued_token_is_false() {
        // A token forged beyond next_seq (or from another queue) must not
        // poison the cancellation bookkeeping either.
        let mut q: EventQueue<()> = EventQueue::new();
        let mut other: EventQueue<()> = EventQueue::new();
        other.schedule(Cycles(1), ());
        let foreign = other.schedule(Cycles(2), ());
        assert!(!q.cancel(foreign));
    }

    #[test]
    fn len_is_exact_under_cancels() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        let a = q.schedule(Cycles(5), "a");
        let b = q.schedule(Cycles(6), "b");
        q.schedule(Cycles(7), "c");
        assert_eq!(q.len(), 3);
        q.cancel(b);
        // Exact immediately, even though the queue still holds "b".
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop().unwrap();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn long_lived_tokens_stay_cancellable_across_churn() {
        // Events that outlive thousands of later schedules and pops
        // (device arrivals scheduled before the run) must cancel and pop
        // exactly like fresh ones.
        let mut q = EventQueue::new();
        let old_live = q.schedule(Cycles(1_000_000), "old-live");
        let old_cancel = q.schedule(Cycles(2_000_000), "old-cancelled");
        assert!(q.cancel(old_cancel));
        for i in 0..(WHEEL_SLOTS as u64 * 3) {
            let t = q.schedule(Cycles(i), "churn");
            assert_eq!(q.pop(), Some((Cycles(i), "churn")));
            assert!(!q.cancel(t), "popped token must stay dead");
        }
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(old_cancel), "second cancel stays false");
        assert!(q.cancel(old_live), "long-lived event is still cancellable");
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn long_lived_event_pops_after_churn() {
        let mut q = EventQueue::new();
        let survivor = q.schedule(Cycles(u64::MAX), "survivor");
        for i in 0..(WHEEL_SLOTS as u64 * 2) {
            q.schedule(Cycles(i), "churn");
            q.pop().unwrap();
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Cycles(u64::MAX), "survivor")));
        assert!(
            !q.cancel(survivor),
            "cancel after pop is false for a long-lived event"
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn wheel_horizon_boundary_orders_exactly() {
        // Events just inside and just outside the wheel horizon (and at
        // the same cycle across both structures) must interleave in
        // (time, insertion) order.
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        q.schedule(Cycles(w + 10), "overflow-first"); // beyond horizon
        q.schedule(Cycles(w - 1), "wheel-edge"); // last in-horizon cycle
        q.schedule(Cycles(w + 10), "overflow-second");
        assert_eq!(q.pop(), Some((Cycles(w - 1), "wheel-edge")));
        // Cursor is now w - 1: cycle w + 10 is inside the new horizon,
        // so this one lands in the wheel while two same-cycle events sit
        // in overflow with smaller seqs.
        q.schedule(Cycles(w + 10), "wheel-third");
        assert_eq!(q.pop(), Some((Cycles(w + 10), "overflow-first")));
        assert_eq!(q.pop(), Some((Cycles(w + 10), "overflow-second")));
        assert_eq!(q.pop(), Some((Cycles(w + 10), "wheel-third")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_wraps_across_many_laps() {
        // March time forward across several wheel laps with a sparse
        // event every ~1.5 slots-width to exercise bitmap wrap-around.
        let mut q = EventQueue::new();
        let mut at = 0u64;
        for i in 0..64u64 {
            at += (WHEEL_SLOTS as u64 * 3) / 2 + i;
            q.schedule(Cycles(at), i);
            // Half are scheduled one-at-a-time (always overflow, then
            // popped); interleave a near event to keep the wheel hot.
            q.schedule(Cycles(at.saturating_sub(1)), 1000 + i);
            assert_eq!(q.pop(), Some((Cycles(at - 1), 1000 + i)));
            assert_eq!(q.pop(), Some((Cycles(at), i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn next_deadline_tracks_min_and_mark_counts_schedules() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        let m0 = q.schedule_mark();
        q.schedule(Cycles(50), "far");
        assert_eq!(q.schedule_mark(), m0 + 1);
        assert_eq!(q.peek_time(), Some(Cycles(50)));
        // A later schedule can only pull the deadline earlier.
        q.schedule(Cycles(10), "near");
        assert_eq!(q.schedule_mark(), m0 + 2);
        assert_eq!(q.peek_time(), Some(Cycles(10)));
        // Popping does not disturb the mark (it only counts schedules).
        assert_eq!(q.pop(), Some((Cycles(10), "near")));
        assert_eq!(q.schedule_mark(), m0 + 2);
        assert_eq!(q.peek_time(), Some(Cycles(50)));
        // Cancelling the last event drains the deadline too.
        let t = q.schedule(Cycles(60), "dead");
        q.cancel(t);
        assert_eq!(q.pop(), Some((Cycles(50), "far")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn issued_seqs_order_outside_values_against_the_head() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), "a");
        // A value kept outside the queue at the head's time: its seq is
        // newer than "a"'s, older than "b"'s, so it ties between them.
        let outside = (Cycles(10), q.issue_seq());
        q.schedule(Cycles(10), "b");
        assert_eq!(q.len(), 2, "issuing a seq queues nothing");
        assert!(q.peek_key() < Some(outside));
        assert_eq!(q.pop(), Some((Cycles(10), "a")));
        assert!(Some(outside) < q.peek_key());
        assert_eq!(q.peek_key().map(|(at, _)| at), Some(Cycles(10)));
        // Issues count toward the mark like schedules do.
        let mark = q.schedule_mark();
        q.issue_seq();
        assert_eq!(q.schedule_mark(), mark + 1);
    }

    #[test]
    fn in_order_far_events_use_the_fifo_and_others_the_heap() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        // An arrival trace in time order (ties included) beyond the
        // horizon: FIFO only.
        for (i, at) in [2 * w, 3 * w, 3 * w, 9 * w].into_iter().enumerate() {
            q.schedule(Cycles(at), i);
        }
        assert_eq!((q.far.len(), q.overflow.len()), (4, 0));
        // Behind the FIFO tail: heap. In the wheel horizon: wheel.
        q.schedule(Cycles(5 * w), 4);
        q.schedule(Cycles(w - 1), 5);
        assert_eq!((q.far.len(), q.overflow.len()), (4, 1));
        let order: Vec<_> = core::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (Cycles(w - 1), 5),
                (Cycles(2 * w), 0),
                (Cycles(3 * w), 1),
                (Cycles(3 * w), 2),
                (Cycles(5 * w), 4),
                (Cycles(9 * w), 3),
            ]
        );
        // In the past: heap, even with the FIFO empty.
        q.schedule(Cycles(1), 6);
        assert_eq!((q.far.len(), q.overflow.len()), (0, 1));
        assert_eq!(q.pop(), Some((Cycles(1), 6)));
    }

    #[test]
    fn far_entries_move_into_the_wheel_as_the_window_reaches_them() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        for (at, name) in [(w + 5, "d"), (2 * w, "a"), (2 * w, "b"), (4 * w, "c")] {
            q.schedule(Cycles(at), name);
        }
        q.schedule(Cycles(10), "near");
        assert_eq!(q.far.len(), 4);
        // The window now reaches w + 9: "d" moves, the rest wait.
        assert_eq!(q.pop(), Some((Cycles(10), "near")));
        assert_eq!(q.far.len(), 3);
        // A same-cycle event scheduled after the move queues behind it.
        q.schedule(Cycles(w + 5), "d-tie");
        assert_eq!(q.pop(), Some((Cycles(w + 5), "d")));
        assert_eq!(q.far.len(), 1, "a and b moved with the window");
        assert_eq!(q.pop(), Some((Cycles(w + 5), "d-tie")));
        q.schedule(Cycles(2 * w), "a-tie");
        assert_eq!(
            drain(&mut q),
            [
                (Cycles(2 * w), "a"),
                (Cycles(2 * w), "b"),
                (Cycles(2 * w), "a-tie"),
                (Cycles(4 * w), "c"),
            ]
        );
        assert_eq!((q.far.len(), q.overflow.len(), q.summary), (0, 0, 0));
    }

    #[test]
    fn summary_word_finds_slots_in_any_word_and_wraps() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        // Move the cursor into the middle of a bitmap word.
        q.schedule(Cycles(1000), "cursor");
        assert_eq!(q.pop(), Some((Cycles(1000), "cursor")));
        // The last in-horizon cycle maps to the slot just below the
        // cursor's (same word, wrapped); the others sit in later words.
        q.schedule(Cycles(1000 + w - 1), "wrapped");
        q.schedule(Cycles(1000 + 3000), "later-word");
        q.schedule(Cycles(1000 + 100), "next-word");
        assert_eq!(q.summary.count_ones(), 3);
        assert_eq!(q.pop(), Some((Cycles(1100), "next-word")));
        assert_eq!(q.pop(), Some((Cycles(4000), "later-word")));
        assert_eq!(q.pop(), Some((Cycles(1000 + w - 1), "wrapped")));
        assert_eq!((q.summary, q.occupied), (0, [0; WHEEL_WORDS]));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_key_returns_the_head_key_without_removing() {
        let mut q = EventQueue::new();
        let t = q.schedule(Cycles(3), "dead");
        q.schedule(Cycles(4), "live");
        q.cancel(t);
        assert_eq!(q.peek_key(), Some((Cycles(4), 1)));
        assert_eq!(q.len(), 1, "peek_key must not remove live events");
        assert_eq!(q.pop(), Some((Cycles(4), "live")));
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(Cycles, E)> {
        core::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn cancel_unlinks_wheel_slot_head_middle_and_tail() {
        for victim in 0..3 {
            let mut q = EventQueue::new();
            let toks: Vec<_> = (0..3).map(|i| q.schedule(Cycles(5), i)).collect();
            q.schedule(Cycles(6), 9);
            assert!(q.cancel(toks[victim]));
            assert!(!q.cancel(toks[victim]));
            assert_eq!(q.len(), 3);
            let mut want: Vec<_> = (0..3)
                .filter(|&i| i != victim)
                .map(|i| (Cycles(5), i))
                .collect();
            want.push((Cycles(6), 9));
            assert_eq!(drain(&mut q), want, "victim {victim}");
        }
    }

    #[test]
    fn cancelled_tail_is_not_the_append_point() {
        // A stale `tail` would link the new event behind the freed node,
        // where no walk from the head finds it.
        let mut q = EventQueue::new();
        q.schedule(Cycles(5), "a");
        q.schedule(Cycles(5), "b");
        let c = q.schedule(Cycles(5), "c");
        assert!(q.cancel(c));
        q.schedule(Cycles(5), "d");
        assert_eq!(q.len(), 3);
        assert_eq!(
            drain(&mut q),
            [(Cycles(5), "a"), (Cycles(5), "b"), (Cycles(5), "d")]
        );
    }

    #[test]
    fn cancelling_a_slots_only_event_clears_its_bits() {
        let mut q = EventQueue::new();
        let t = q.schedule(Cycles(700), "only");
        assert_eq!(q.summary.count_ones(), 1);
        assert!(q.cancel(t));
        assert_eq!((q.summary, q.occupied), (0, [0; WHEEL_WORDS]));
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        // The slot is reusable for the next lap's cycle.
        q.schedule(Cycles(700), "next");
        assert_eq!(q.pop(), Some((Cycles(700), "next")));
    }

    #[test]
    fn cancel_removes_from_the_far_fifo() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        let toks: Vec<_> = (0..5).map(|i| q.schedule(Cycles((2 + i) * w), i)).collect();
        assert_eq!(q.far.len(), 5);
        assert!(q.cancel(toks[0]));
        assert!(q.cancel(toks[2]));
        assert!(q.cancel(toks[4]));
        assert!(!q.cancel(toks[2]));
        assert_eq!((q.far.len(), q.len()), (2, 2));
        assert_eq!(drain(&mut q), [(Cycles(3 * w), 1), (Cycles(5 * w), 3)]);
    }

    #[test]
    fn cancel_removes_from_the_overflow_heap() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        q.schedule(Cycles(100), "cursor");
        assert_eq!(q.pop(), Some((Cycles(100), "cursor")));
        // In the past, and far but behind the FIFO's tail: both heap.
        let past = q.schedule(Cycles(1), "past");
        q.schedule(Cycles(2), "past-kept");
        q.schedule(Cycles(9 * w), "far");
        let out_of_order = q.schedule(Cycles(5 * w), "out-of-order");
        q.schedule(Cycles(4 * w), "out-of-order-kept");
        assert_eq!((q.far.len(), q.overflow.len()), (1, 4));
        assert!(q.cancel(past));
        assert!(q.cancel(out_of_order));
        assert!(!q.cancel(out_of_order));
        assert_eq!((q.overflow.len(), q.len()), (2, 3));
        assert_eq!(
            drain(&mut q),
            [
                (Cycles(2), "past-kept"),
                (Cycles(4 * w), "out-of-order-kept"),
                (Cycles(9 * w), "far"),
            ]
        );
    }
}

#[cfg(test)]
mod order_tests {
    use super::*;

    /// Brute-force ordering check: any interleaving of schedules and
    /// cancels pops live events in (time, insertion) order.
    #[test]
    fn random_schedule_cancel_preserves_order() {
        // A deterministic pseudo-random driver (no external RNG in this
        // crate's tests).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..50 {
            let mut q = EventQueue::new();
            let mut live: Vec<(u64, u64)> = Vec::new(); // (time, seq)
            let mut tokens = Vec::new();
            let mut seq = 0u64;
            for _ in 0..200 {
                let r = next();
                if r % 4 == 0 && !tokens.is_empty() {
                    let idx = (r as usize / 7) % tokens.len();
                    let (tok, time, s): (EventToken, u64, u64) = tokens.swap_remove(idx);
                    if q.cancel(tok) {
                        live.retain(|&(t, sq)| !(t == time && sq == s));
                    }
                } else {
                    let at = r % 1000;
                    let tok = q.schedule(Cycles(at), seq);
                    tokens.push((tok, at, seq));
                    live.push((at, seq));
                    seq += 1;
                }
            }
            live.sort();
            let mut popped = Vec::new();
            while let Some((at, s)) = q.pop() {
                popped.push((at.0, s));
            }
            assert_eq!(popped, live, "ordering violated");
        }
    }

    /// Same brute force, but with interleaved pops and a time range that
    /// straddles the wheel horizon, so wheel/overflow merging and the
    /// advancing cursor are both exercised.
    #[test]
    fn random_interleaved_pops_preserve_order() {
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..20 {
            let mut q = EventQueue::new();
            // Model: sorted list of live (time, seq); pops must match its
            // prefix, respecting monotone time (never schedule before the
            // last popped time so the model stays comparable).
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut floor = 0u64;
            let mut seq = 0u64;
            let mut tokens: Vec<(EventToken, u64, u64)> = Vec::new();
            for _ in 0..400 {
                let r = next();
                match r % 5 {
                    0 | 1 => {
                        // Spread far beyond one wheel width.
                        let at = floor + r % (3 * WHEEL_SLOTS as u64);
                        let tok = q.schedule(Cycles(at), seq);
                        tokens.push((tok, at, seq));
                        model.push((at, seq));
                        seq += 1;
                    }
                    2 if !tokens.is_empty() => {
                        let idx = (r as usize / 7) % tokens.len();
                        let (tok, time, s) = tokens.swap_remove(idx);
                        if q.cancel(tok) {
                            model.retain(|&(t, sq)| !(t == time && sq == s));
                        }
                    }
                    _ => {
                        model.sort_unstable();
                        if model.is_empty() {
                            assert_eq!(q.pop(), None);
                        } else {
                            let (at, s) = model.remove(0);
                            assert_eq!(q.pop(), Some((Cycles(at), s)));
                            floor = at;
                        }
                    }
                }
            }
            model.sort_unstable();
            for (at, s) in model {
                assert_eq!(q.pop(), Some((Cycles(at), s)));
            }
            assert_eq!(q.pop(), None);
        }
    }
}
