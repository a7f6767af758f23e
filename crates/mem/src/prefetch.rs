//! Working-set capture and wake-prefetch (§4 "Managing Non-register State").
//!
//! The paper proposes "prefetching techniques that warm up caches of all
//! types as soon as threads become runnable", capturing "the cache line
//! they perform an `mwait` on and memory regions written to by I/O
//! devices". [`WakePrefetcher`] records the last-N distinct lines each
//! thread touches while running; when the thread is woken, the recorded
//! set is replayed into the waking core's caches.

use std::collections::hash_map::Entry;

use switchless_sim::hash::FxHashMap;

use crate::addr::PAddr;
use crate::monitor::WatchId;

/// Per-thread working-set capture: the most-recent `capacity` distinct
/// lines each thread touched, oldest first. [`WakePrefetcher`] owns one
/// for every thread; an epoch worker records into a clone holding its
/// core's threads ([`WakePrefetcher::core_view`]), folded back with
/// [`WakePrefetcher::absorb`] at commit.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Fx-hashed: only keyed lookups; replay order comes from each
    /// thread's recency list, never from map iteration.
    sets: FxHashMap<WatchId, Lines>,
    /// Max distinct lines remembered per thread.
    capacity: usize,
    enabled: bool,
}

/// No slot: the end of a recency list.
const NIL: u32 = u32::MAX;

/// A captured line and its neighbours in recency order.
#[derive(Clone, Copy, Debug)]
struct Slot {
    line: PAddr,
    /// The next older slot, or [`NIL`].
    older: u32,
    /// The next newer slot, or [`NIL`].
    newer: u32,
}

/// One thread's captured lines: at most `capacity` slots linked from
/// oldest to newest, and a map from line to slot, so a record is O(1).
/// Slots are never freed; once all are in use the oldest is reused.
#[derive(Clone, Debug)]
struct Lines {
    slots: Vec<Slot>,
    slot_of: FxHashMap<PAddr, u32>,
    oldest: u32,
    newest: u32,
}

impl Default for Lines {
    fn default() -> Lines {
        Lines {
            slots: Vec::new(),
            slot_of: FxHashMap::default(),
            oldest: NIL,
            newest: NIL,
        }
    }
}

impl Lines {
    /// Makes `line` the newest, evicting the oldest line if `capacity`
    /// distinct lines are already held.
    fn record(&mut self, line: PAddr, capacity: usize) {
        // The slot a new line takes: a fresh one, or the oldest's.
        let fresh = if self.slots.len() < capacity {
            u32::try_from(self.slots.len()).expect("capacity fits u32")
        } else {
            self.oldest
        };
        let s = match self.slot_of.entry(line) {
            Entry::Occupied(e) => {
                let s = *e.get();
                self.unlink(s);
                s
            }
            Entry::Vacant(e) => {
                e.insert(fresh);
                if fresh as usize == self.slots.len() {
                    self.slots.push(Slot {
                        line,
                        older: NIL,
                        newer: NIL,
                    });
                } else {
                    self.unlink(fresh);
                    let old = std::mem::replace(&mut self.slots[fresh as usize].line, line);
                    self.slot_of.remove(&old);
                }
                fresh
            }
        };
        let slot = &mut self.slots[s as usize];
        slot.older = self.newest;
        slot.newer = NIL;
        match self.newest {
            NIL => self.oldest = s,
            n => self.slots[n as usize].newer = s,
        }
        self.newest = s;
    }

    /// Takes slot `s` out of the recency list.
    fn unlink(&mut self, s: u32) {
        let Slot { older, newer, .. } = self.slots[s as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
    }

    /// Whether the newest lines are `lines`, in this order. Recording
    /// distinct lines that already are then changes nothing.
    fn ends_with(&self, lines: &[PAddr]) -> bool {
        let mut s = self.newest;
        lines
            .iter()
            .rev()
            .all(|&line| match self.slots.get(s as usize) {
                Some(slot) if slot.line == line => {
                    s = slot.older;
                    true
                }
                _ => false,
            })
    }

    /// The lines, oldest first.
    fn oldest_first(&self) -> impl Iterator<Item = PAddr> + '_ {
        let mut s = self.oldest;
        std::iter::from_fn(move || {
            // `NIL` indexes past every slot: the walk ends there.
            let slot = self.slots.get(s as usize)?;
            s = slot.newer;
            Some(slot.line)
        })
    }
}

impl Capture {
    /// Notes that `thread` touched `addr` while running.
    pub fn record_access(&mut self, thread: WatchId, addr: PAddr) {
        self.record_run(thread, &[addr.line()]);
    }

    /// Batch equivalent of a run of [`Capture::record_access`] calls:
    /// `lines` must be the run's **distinct** line addresses in
    /// last-access order. The per-thread state is an LRU list — after
    /// any access history it holds the last `capacity` distinct lines
    /// of that history in last-access order, which is a function of the
    /// history's dedup-keep-last projection only. Replaying the deduped
    /// run therefore lands in exactly the state the full per-access run
    /// would.
    pub fn record_run(&mut self, thread: WatchId, lines: &[PAddr]) {
        if !self.enabled || lines.is_empty() {
            return;
        }
        let set = self.sets.entry(thread).or_default();
        // A loop re-running the same lines leaves the list as it is.
        if set.ends_with(lines) {
            return;
        }
        for &line in lines {
            set.record(line, self.capacity);
        }
    }
}

/// Records working sets per thread and replays them on wake.
#[derive(Clone, Debug)]
pub struct WakePrefetcher {
    capture: Capture,
    /// The last [`WakePrefetcher::wake_set`], oldest first.
    wake_lines: Vec<PAddr>,
    replays: u64,
    lines_replayed: u64,
}

impl WakePrefetcher {
    /// Creates a prefetcher remembering up to `capacity` lines per thread.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> WakePrefetcher {
        assert!(capacity > 0, "prefetcher capacity must be positive");
        WakePrefetcher {
            capture: Capture {
                sets: FxHashMap::default(),
                capacity,
                enabled: true,
            },
            wake_lines: Vec::new(),
            replays: 0,
            lines_replayed: 0,
        }
    }

    /// Enables or disables capture+replay (the F13 ablation switch).
    pub fn set_enabled(&mut self, on: bool) {
        self.capture.enabled = on;
    }

    /// Whether the prefetcher is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.capture.enabled
    }

    /// The capture state running threads record into.
    pub fn capture_mut(&mut self) -> &mut Capture {
        &mut self.capture
    }

    /// Returns the lines to warm for a thread being woken (oldest first),
    /// empty when disabled or unknown. Borrows rather than allocating —
    /// wakes are frequent under I/O-heavy workloads.
    #[must_use]
    pub fn wake_set(&mut self, thread: WatchId) -> &[PAddr] {
        if !self.capture.enabled {
            return &[];
        }
        let Some(lines) = self.capture.sets.get(&thread) else {
            return &[];
        };
        self.wake_lines.clear();
        self.wake_lines.extend(lines.oldest_first());
        self.replays += 1;
        self.lines_replayed += self.wake_lines.len() as u64;
        &self.wake_lines
    }

    /// Forgets a thread's set (thread destroyed / reassigned).
    pub fn forget(&mut self, thread: WatchId) {
        self.capture.sets.remove(&thread);
    }

    /// `(wake replays performed, total lines replayed)`.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.replays, self.lines_replayed)
    }

    /// Number of distinct lines currently captured for `thread`.
    #[must_use]
    pub fn captured_len(&self, thread: WatchId) -> usize {
        self.capture.sets.get(&thread).map_or(0, |l| l.slots.len())
    }

    /// Clones the capture state for `threads` into a [`Capture`] an
    /// epoch worker can record into off-thread. Wake replay never happens
    /// inside a committed epoch (a wake ends it), so only capture state
    /// travels.
    pub fn core_view<I: IntoIterator<Item = WatchId>>(&self, threads: I) -> Capture {
        let c = &self.capture;
        let sets = threads
            .into_iter()
            .filter_map(|t| Some((t, c.sets.get(&t)?.clone())))
            .collect();
        Capture { sets, ..*c }
    }

    /// Folds a worker's [`Capture`] back in: each thread's captured set
    /// is replaced wholesale (per-thread state, so per-key overwrite
    /// reproduces the serial outcome regardless of merge order).
    pub fn absorb(&mut self, view: Capture) {
        self.capture.sets.extend(view.sets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_distinct_lines() {
        let mut p = WakePrefetcher::new(8);
        let t = WatchId(1);
        p.capture_mut().record_access(t, PAddr(0));
        p.capture_mut().record_access(t, PAddr(8)); // same line
        p.capture_mut().record_access(t, PAddr(64));
        assert_eq!(p.captured_len(t), 2);
        assert_eq!(p.wake_set(t), vec![PAddr(0), PAddr(64)]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut p = WakePrefetcher::new(2);
        let t = WatchId(1);
        p.capture_mut().record_access(t, PAddr(0));
        p.capture_mut().record_access(t, PAddr(64));
        p.capture_mut().record_access(t, PAddr(128));
        assert_eq!(p.wake_set(t), vec![PAddr(64), PAddr(128)]);
    }

    #[test]
    fn retouch_refreshes_recency() {
        let mut p = WakePrefetcher::new(2);
        let t = WatchId(1);
        p.capture_mut().record_access(t, PAddr(0));
        p.capture_mut().record_access(t, PAddr(64));
        p.capture_mut().record_access(t, PAddr(0)); // refresh line 0
        p.capture_mut().record_access(t, PAddr(128)); // evicts 64
        assert_eq!(p.wake_set(t), vec![PAddr(0), PAddr(128)]);
    }

    #[test]
    fn record_run_matches_per_access_recording() {
        // Full access stream vs its dedup-keep-last projection: final
        // state must be identical, including capacity evictions that
        // happen mid-run.
        let mut per = WakePrefetcher::new(2);
        let mut run = WakePrefetcher::new(2);
        let t = WatchId(7);
        for p in [&mut per, &mut run] {
            p.capture_mut().record_access(t, PAddr(0));
            p.capture_mut().record_access(t, PAddr(64));
        }
        // Stream: 128, 0, 128, 192 (lines). Dedup keep-last: 0, 128, 192.
        for a in [128u64, 0, 128, 192] {
            per.capture_mut().record_access(t, PAddr(a));
        }
        run.capture_mut()
            .record_run(t, &[PAddr(0), PAddr(128), PAddr(192)]);
        assert_eq!(per.wake_set(t).to_vec(), run.wake_set(t).to_vec());
        assert_eq!(per.captured_len(t), run.captured_len(t));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut p = WakePrefetcher::new(4);
        p.set_enabled(false);
        let t = WatchId(1);
        p.capture_mut().record_access(t, PAddr(0));
        assert!(p.wake_set(t).is_empty());
        assert_eq!(p.stats(), (0, 0));
    }

    #[test]
    fn worker_view_round_trip_equals_direct_recording() {
        // Two threads on the worker's core, one elsewhere; capacity 3 so
        // the worker's stream evicts mid-run.
        let (a, b, other) = (WatchId(1), WatchId(2), WatchId(3));
        let stream: &[(WatchId, u64)] = &[
            (a, 0x40),
            (b, 0x80),
            (a, 0x48), // same line as 0x40: refresh
            (a, 0xc0),
            (a, 0x100),
            (a, 0x140), // evicts the oldest of a's lines
            (b, 0x80),
            (b, 0x2000),
        ];
        for enabled in [true, false] {
            let mut direct = WakePrefetcher::new(3);
            direct.set_enabled(enabled);
            for t in [a, other] {
                direct.capture_mut().record_access(t, PAddr(0x1000));
            }
            let mut viewed = direct.clone();
            let mut view = viewed.core_view([a, b]);
            for &(t, addr) in stream {
                direct.capture_mut().record_access(t, PAddr(addr));
                view.record_access(t, PAddr(addr));
            }
            viewed.absorb(view);
            for t in [a, b, other] {
                assert_eq!(direct.captured_len(t), viewed.captured_len(t));
                assert_eq!(direct.wake_set(t).to_vec(), viewed.wake_set(t).to_vec());
            }
            assert_eq!(direct.stats(), viewed.stats());
            assert_eq!(direct.captured_len(a), if enabled { 3 } else { 0 });
        }
    }

    #[test]
    fn unknown_thread_empty() {
        let mut p = WakePrefetcher::new(4);
        assert!(p.wake_set(WatchId(42)).is_empty());
    }

    #[test]
    fn forget_clears() {
        let mut p = WakePrefetcher::new(4);
        let t = WatchId(1);
        p.capture_mut().record_access(t, PAddr(0));
        p.forget(t);
        assert_eq!(p.captured_len(t), 0);
    }

    #[test]
    fn stats_count_replays() {
        let mut p = WakePrefetcher::new(4);
        let t = WatchId(1);
        p.capture_mut().record_access(t, PAddr(0));
        p.capture_mut().record_access(t, PAddr(64));
        let _ = p.wake_set(t);
        let _ = p.wake_set(t);
        assert_eq!(p.stats(), (2, 4));
    }
}
