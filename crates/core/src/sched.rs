//! The per-core hardware thread scheduler (§4 "Support for Thread
//! Scheduling").
//!
//! "A simple way ... is to execute runnable hardware threads in a
//! fine-grain, round-robin (RR) manner, which emulates processor sharing
//! (PS) and allows all runnable threads to make progress without the need
//! for interrupts. In addition to RR scheduling, we can introduce
//! hardware support for thread priorities."
//!
//! [`HwScheduler`] dispatches at instruction granularity: every time a
//! pipeline slot frees, it picks the next eligible runnable thread. Two
//! policies:
//!
//! * [`SchedPolicy::RoundRobin`] — one rotating queue: processor sharing.
//! * [`SchedPolicy::Priority`] — strict priority classes, RR within a
//!   class. Time-critical handler threads (e.g. §2's per-interrupt-type
//!   threads) are placed in high classes so they win the next slot the
//!   moment they wake.
//!
//! The scheduler also keeps per-thread cycle accounting — §4's "fine-grain
//! tracking of threads' resource consumption for cloud billing".

use std::collections::VecDeque;

use switchless_sim::time::Cycles;

use crate::tid::Ptid;

/// Dispatch policy for runnable hardware threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Fine-grain round-robin over all runnable threads (processor
    /// sharing).
    #[default]
    RoundRobin,
    /// Strict priority classes (higher `prio` wins), round-robin within a
    /// class.
    Priority,
}

/// Number of priority classes supported by [`SchedPolicy::Priority`].
pub const PRIO_CLASSES: usize = 8;

/// Per-core hardware scheduler state.
#[derive(Clone, Debug)]
pub struct HwScheduler {
    policy: SchedPolicy,
    /// One queue per priority class; RoundRobin uses only class 0.
    queues: [VecDeque<Ptid>; PRIO_CLASSES],
    /// Which queue each enqueued thread is in (for removal), indexed by
    /// ptid; `None` when not enqueued. Grows to the highest ptid seen.
    enrolled: Vec<Option<u8>>,
    /// Number of `Some` entries in `enrolled`.
    enrolled_len: usize,
    /// Cycles consumed per thread (billing), indexed by ptid. A plain
    /// vector because this is bumped on every dispatched instruction.
    usage: Vec<Cycles>,
}

impl HwScheduler {
    /// Creates an empty scheduler.
    #[must_use]
    pub fn new(policy: SchedPolicy) -> HwScheduler {
        HwScheduler {
            policy,
            queues: Default::default(),
            enrolled: Vec::new(),
            enrolled_len: 0,
            usage: Vec::new(),
        }
    }

    fn class_of(&self, prio: u8) -> u8 {
        match self.policy {
            SchedPolicy::RoundRobin => 0,
            SchedPolicy::Priority => prio.min(PRIO_CLASSES as u8 - 1),
        }
    }

    fn enrolled_slot(&mut self, ptid: Ptid) -> &mut Option<u8> {
        let i = ptid.0 as usize;
        if i >= self.enrolled.len() {
            self.enrolled.resize(i + 1, None);
        }
        &mut self.enrolled[i]
    }

    /// Adds a thread that became runnable. Idempotent.
    pub fn enqueue(&mut self, ptid: Ptid, prio: u8) {
        let class = self.class_of(prio);
        let slot = self.enrolled_slot(ptid);
        if slot.is_some() {
            return;
        }
        *slot = Some(class);
        self.enrolled_len += 1;
        self.queues[class as usize].push_back(ptid);
    }

    /// Removes a thread that blocked, was stopped, or halted.
    pub fn dequeue(&mut self, ptid: Ptid) {
        if let Some(class) = self.enrolled_slot(ptid).take() {
            self.enrolled_len -= 1;
            let q = &mut self.queues[class as usize];
            if let Some(pos) = q.iter().position(|&p| p == ptid) {
                q.remove(pos);
            }
        }
    }

    /// Whether `ptid` is currently enqueued (invariant checking: enrolment
    /// must match the thread's `Runnable` state exactly).
    #[must_use]
    pub fn is_enrolled(&self, ptid: Ptid) -> bool {
        self.enrolled
            .get(ptid.0 as usize)
            .is_some_and(Option::is_some)
    }

    /// Picks the next thread to dispatch, skipping threads for which
    /// `busy` returns true (already executing on another slot).
    ///
    /// The picked thread is rotated to the back of its queue, giving
    /// instruction-granular round robin.
    pub fn pick(&mut self, mut busy: impl FnMut(Ptid) -> bool) -> Option<Ptid> {
        for class in (0..PRIO_CLASSES).rev() {
            let q = &mut self.queues[class];
            let len = q.len();
            for _ in 0..len {
                let p = q.pop_front().expect("queue length checked");
                q.push_back(p);
                if !busy(p) {
                    return Some(p);
                }
            }
        }
        None
    }

    /// The single enqueued thread, if exactly one is enrolled — the
    /// "alone and unpreemptable" query behind burst execution: with one
    /// runnable thread, instruction-granular round robin (and strict
    /// priority) degenerate to "pick it again", so the machine may execute
    /// a run of its instructions inline without consulting the scheduler
    /// per instruction. Any second enrolment (a wake, a migration in)
    /// makes this return `None`, forcing single-step arbitration again.
    #[must_use]
    #[inline]
    pub fn sole_runnable(&self) -> Option<Ptid> {
        if self.enrolled_len != 1 {
            return None;
        }
        self.queues.iter().find_map(|q| q.front().copied())
    }

    /// Iterates every enqueued (runnable) thread, in no particular order.
    pub fn iter_enrolled(&self) -> impl Iterator<Item = Ptid> + '_ {
        self.queues.iter().flatten().copied()
    }

    /// Minimum of `f` over every enqueued thread. Equivalent to
    /// `iter_enrolled().map(f).filter(Option::is_some).min()` but a plain
    /// loop: this runs on the all-slots-busy dispatch path, once per
    /// simulated instruction.
    pub fn min_over_enrolled<T: Ord + Copy>(
        &self,
        mut f: impl FnMut(Ptid) -> Option<T>,
    ) -> Option<T> {
        let mut best: Option<T> = None;
        for q in &self.queues {
            for &p in q {
                if let Some(v) = f(p) {
                    best = Some(match best {
                        Some(b) if b <= v => b,
                        _ => v,
                    });
                }
            }
        }
        best
    }

    /// Charges `cycles` of pipeline time to `ptid` (billing).
    pub fn account(&mut self, ptid: Ptid, cycles: Cycles) {
        let i = ptid.0 as usize;
        if i >= self.usage.len() {
            self.usage.resize(i + 1, Cycles::ZERO);
        }
        self.usage[i] += cycles;
    }

    /// Total cycles billed to `ptid`.
    #[must_use]
    pub fn usage_of(&self, ptid: Ptid) -> Cycles {
        self.usage
            .get(ptid.0 as usize)
            .copied()
            .unwrap_or(Cycles::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair() {
        let mut s = HwScheduler::new(SchedPolicy::RoundRobin);
        for i in 0..3 {
            s.enqueue(Ptid(i), 0);
        }
        let picks: Vec<u32> = (0..6).map(|_| s.pick(|_| false).unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn priority_wins_every_slot() {
        let mut s = HwScheduler::new(SchedPolicy::Priority);
        s.enqueue(Ptid(1), 0);
        s.enqueue(Ptid(2), 5);
        for _ in 0..4 {
            assert_eq!(s.pick(|_| false), Some(Ptid(2)));
        }
        s.dequeue(Ptid(2));
        assert_eq!(s.pick(|_| false), Some(Ptid(1)));
    }

    #[test]
    fn priority_ignored_under_round_robin() {
        let mut s = HwScheduler::new(SchedPolicy::RoundRobin);
        s.enqueue(Ptid(1), 0);
        s.enqueue(Ptid(2), 7);
        let picks: Vec<u32> = (0..4).map(|_| s.pick(|_| false).unwrap().0).collect();
        assert_eq!(picks, vec![1, 2, 1, 2]);
    }

    #[test]
    fn busy_threads_are_skipped() {
        let mut s = HwScheduler::new(SchedPolicy::RoundRobin);
        s.enqueue(Ptid(1), 0);
        s.enqueue(Ptid(2), 0);
        assert_eq!(s.pick(|p| p == Ptid(1)), Some(Ptid(2)));
        // All busy: nothing to dispatch.
        assert_eq!(s.pick(|_| true), None);
    }

    #[test]
    fn enqueue_is_idempotent() {
        let mut s = HwScheduler::new(SchedPolicy::RoundRobin);
        s.enqueue(Ptid(1), 0);
        s.enqueue(Ptid(1), 0);
        assert_eq!(s.sole_runnable(), Some(Ptid(1)));
        s.dequeue(Ptid(1));
        assert!(!s.is_enrolled(Ptid(1)));
        assert_eq!(s.pick(|_| false), None);
    }

    #[test]
    fn dequeue_missing_is_noop() {
        let mut s = HwScheduler::new(SchedPolicy::RoundRobin);
        s.dequeue(Ptid(9));
        assert_eq!(s.pick(|_| false), None);
        s.enqueue(Ptid(1), 0);
        assert_eq!(s.sole_runnable(), Some(Ptid(1)), "the count did not move");
    }

    #[test]
    fn rr_max_wait_is_bounded() {
        // Property the paper relies on: with RR every runnable thread is
        // served within as many picks as there are enqueued threads.
        let mut s = HwScheduler::new(SchedPolicy::RoundRobin);
        for i in 0..10 {
            s.enqueue(Ptid(i), 0);
        }
        let mut last_seen = switchless_sim::hash::FxHashMap::default();
        for step in 0u64..100 {
            let p = s.pick(|_| false).unwrap();
            if let Some(prev) = last_seen.insert(p, step) {
                assert!(step - prev <= 10, "{p} starved for {} picks", step - prev);
            }
        }
    }

    #[test]
    fn sole_runnable_requires_exactly_one() {
        let mut s = HwScheduler::new(SchedPolicy::Priority);
        assert_eq!(s.sole_runnable(), None);
        s.enqueue(Ptid(3), 5);
        assert_eq!(s.sole_runnable(), Some(Ptid(3)));
        s.enqueue(Ptid(4), 0);
        assert_eq!(s.sole_runnable(), None, "contention forces single-step");
        s.dequeue(Ptid(3));
        assert_eq!(s.sole_runnable(), Some(Ptid(4)));
        s.dequeue(Ptid(4));
        assert_eq!(s.sole_runnable(), None);
    }

    #[test]
    fn accounting_accumulates() {
        let mut s = HwScheduler::new(SchedPolicy::RoundRobin);
        s.account(Ptid(1), Cycles(5));
        s.account(Ptid(1), Cycles(7));
        assert_eq!(s.usage_of(Ptid(1)), Cycles(12));
        assert_eq!(s.usage_of(Ptid(2)), Cycles::ZERO);
    }

    #[test]
    fn high_class_prio_clamped() {
        let mut s = HwScheduler::new(SchedPolicy::Priority);
        s.enqueue(Ptid(1), 200); // clamps to top class
        s.enqueue(Ptid(2), 7);
        // Both in class 7: RR between them.
        let picks: Vec<u32> = (0..4).map(|_| s.pick(|_| false).unwrap().0).collect();
        assert_eq!(picks, vec![1, 2, 1, 2]);
    }
}
