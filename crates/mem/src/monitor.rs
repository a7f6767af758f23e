//! The generalized monitor filter (§3.1, §4 "Generalized monitor-mwait").
//!
//! The paper requires `monitor`/`mwait` to observe **any write to any
//! address** — CPU stores, DMA writes from devices, MMIO register updates —
//! from **any privilege level**, with one thread able to monitor multiple
//! locations. This module models the hardware structure that makes that
//! possible: a filter consulted on every store, mapping the written range
//! to the set of waiting hardware threads to wake.
//!
//! Two designs let experiment F12 compare design points. Both hold the
//! same watch index: each cache line maps to the watches touching it, in
//! arm order, and each watcher to its lines, so a store costs the host
//! O(watches on its lines) either way. They differ in how a store
//! matches the index:
//!
//! * [`CamFilter`] — a fully-associative array (CAM). Exact byte-range
//!   matching, constant lookup time, but bounded capacity: arming beyond
//!   capacity fails, forcing software fallback.
//! * [`HashFilter`] — banked hash table indexed by cache line. Effectively
//!   unbounded, but line-granular: every watch on a stored line wakes, so
//!   a store to an unwatched byte of a watched line produces a *false
//!   wakeup* (the woken thread re-checks its condition and re-waits,
//!   exactly like x86 `mwait` spurious wakeups), and each watch in the
//!   line's bucket adds lookup latency.

use switchless_sim::hash::FxHashMap;
use switchless_sim::time::Cycles;

use crate::addr::{lines_covering, PAddr};

/// Identifies the waiting entity (in practice a hardware thread / ptid).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WatchId(pub u64);

/// A wakeup produced by a store hitting the filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WakeEvent {
    /// The watcher to wake.
    pub watcher: WatchId,
    /// `true` if the store byte-range actually overlapped the armed
    /// range; `false` is a line-granularity false wakeup.
    pub exact: bool,
}

/// Error arming a watch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorError {
    /// The filter is out of entries (CAM capacity exhausted).
    CapacityExhausted,
}

impl core::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MonitorError::CapacityExhausted => write!(f, "monitor filter capacity exhausted"),
        }
    }
}

impl std::error::Error for MonitorError {}

/// Common interface of monitor-filter implementations.
///
/// `Send + Sync` because the shard engine's epoch workers consult the
/// filter read-only (via [`MonitorFilter::would_wake`]) from worker
/// threads while the owning machine is parked at the epoch barrier.
pub trait MonitorFilter: Send + Sync {
    /// Arms a watch on the byte range `[addr, addr + len)`.
    ///
    /// One watcher may arm multiple ranges (§3.1: "a hardware thread can
    /// monitor multiple memory locations").
    fn arm(&mut self, watcher: WatchId, addr: PAddr, len: u64) -> Result<(), MonitorError>;

    /// Removes every watch held by `watcher` (on wake or `stop`).
    fn disarm_all(&mut self, watcher: WatchId);

    /// Reports a store; pushes wakeups into `out` and returns the modeled
    /// lookup cost the store incurs.
    fn on_store(&mut self, addr: PAddr, len: u64, out: &mut Vec<WakeEvent>) -> Cycles;

    /// Number of armed entries: watches for the CAM, (line, watch) pairs
    /// for the hashed filter, which files a watch under every line it
    /// touches.
    fn armed_len(&self) -> usize;

    /// Whether `watcher` holds at least one armed watch.
    ///
    /// Used by the machine's invariant checker to prove no-lost-wakeup: a
    /// parked thread whose filter entries have vanished can never be woken
    /// by a store again.
    fn is_armed(&self, watcher: WatchId) -> bool;

    /// Whether a store to `[addr, addr + len)` would produce at least one
    /// wakeup (exact or false), without performing it. Pure, so epoch
    /// workers may consult it through a shared reference.
    fn would_wake(&self, addr: PAddr, len: u64) -> bool;
}

fn ranges_overlap(a_start: u64, a_len: u64, b_start: u64, b_len: u64) -> bool {
    let a_end = a_start.saturating_add(a_len);
    let b_end = b_start.saturating_add(b_len);
    a_start < b_end && b_start < a_end
}

/// Whether `[addr, addr + len)`, `len >= 1`, lies in one cache line.
fn one_line(addr: PAddr, len: u64) -> bool {
    PAddr(addr.0 + (len - 1)).line() == addr.line()
}

// ---------------------------------------------------------------------------
// The shared watch index
// ---------------------------------------------------------------------------

/// One armed watch: `(id, watcher, addr, len)`. Ids grow in arm order.
type Watch = (u64, WatchId, PAddr, u64);

/// Line → watches and watcher → lines, with both designs' counts.
#[derive(Clone, Debug, Default)]
struct WatchIndex {
    /// Line address → the watches touching that line, in arm order. A
    /// bucket is removed when it empties.
    by_line: FxHashMap<u64, Vec<Watch>>,
    /// Watcher → the lines its watches touch (a line repeats when two of
    /// its watches share it).
    by_watcher: FxHashMap<WatchId, Vec<u64>>,
    /// Armed watches.
    watches: usize,
    /// Armed (line, watch) pairs.
    pairs: usize,
    next_id: u64,
}

impl WatchIndex {
    /// Arms `[addr, addr + len)` for `watcher` unless it holds that exact
    /// range already: re-arming is idempotent (x86 `monitor` semantics),
    /// so software loops that arm before every condition check do not
    /// leak entries. Fails when `capacity` watches are armed.
    fn arm(
        &mut self,
        watcher: WatchId,
        addr: PAddr,
        len: u64,
        capacity: usize,
    ) -> Result<(), MonitorError> {
        let len = len.max(1);
        // A watch sits in every bucket it touches, so its first line's
        // bucket shows whether it is armed.
        let armed = self.by_line.get(&addr.line().0).is_some_and(|b| {
            b.iter()
                .any(|&(_, w, a, l)| (w, a, l) == (watcher, addr, len))
        });
        if armed {
            return Ok(());
        }
        if self.watches >= capacity {
            return Err(MonitorError::CapacityExhausted);
        }
        let watch = (self.next_id, watcher, addr, len);
        self.next_id += 1;
        self.watches += 1;
        let lines = self.by_watcher.entry(watcher).or_default();
        for line in lines_covering(addr, len) {
            self.by_line.entry(line.0).or_default().push(watch);
            lines.push(line.0);
            self.pairs += 1;
        }
        Ok(())
    }

    fn disarm_all(&mut self, watcher: WatchId) {
        let Some(lines) = self.by_watcher.remove(&watcher) else {
            return;
        };
        for line in lines {
            // A repeated line's bucket is already clean, or gone.
            let Some(bucket) = self.by_line.get_mut(&line) else {
                continue;
            };
            bucket.retain(|&(_, w, a, _)| {
                if w != watcher {
                    return true;
                }
                self.pairs -= 1;
                // Count each watch once: on its first line.
                if a.line().0 == line {
                    self.watches -= 1;
                }
                false
            });
            if bucket.is_empty() {
                self.by_line.remove(&line);
            }
        }
    }

    /// Calls `f` on the bucket of each armed line `[addr, addr + len)`
    /// touches, in address order, until it returns `true`; returns
    /// whether one did.
    #[inline]
    fn any_line(&self, addr: PAddr, len: u64, mut f: impl FnMut(&[Watch]) -> bool) -> bool {
        if one_line(addr, len) {
            // Single-line stores, nearly all of them: one probe, no line
            // iterator.
            return self.by_line.get(&addr.line().0).is_some_and(|b| f(b));
        }
        lines_covering(addr, len).any(|line| self.by_line.get(&line.0).is_some_and(|b| f(b)))
    }
}

// ---------------------------------------------------------------------------
// CAM design
// ---------------------------------------------------------------------------

/// A CAM compares all entries in parallel: one cycle per store.
const CAM_LOOKUP: Cycles = Cycles(1);

/// Fully-associative monitor filter with exact matching.
///
/// The *functional* lookup is the line index, so the host cost of a store
/// is O(armed-on-stored-lines), not O(all armed entries); the *modeled*
/// cycle cost is the constant-time CAM compare. Wakes come in arm order,
/// as a linear scan of the entries would produce them.
#[derive(Clone, Debug)]
pub struct CamFilter {
    index: WatchIndex,
    capacity: usize,
    /// `(id, watcher)` hits of the current store, reused across stores.
    hits: Vec<(u64, WatchId)>,
}

impl CamFilter {
    /// Creates a CAM filter holding up to `capacity` armed ranges.
    #[must_use]
    pub fn new(capacity: usize) -> CamFilter {
        CamFilter {
            index: WatchIndex::default(),
            capacity,
            hits: Vec::new(),
        }
    }
}

impl MonitorFilter for CamFilter {
    fn arm(&mut self, watcher: WatchId, addr: PAddr, len: u64) -> Result<(), MonitorError> {
        self.index.arm(watcher, addr, len, self.capacity)
    }

    fn disarm_all(&mut self, watcher: WatchId) {
        self.index.disarm_all(watcher);
    }

    fn on_store(&mut self, addr: PAddr, len: u64, out: &mut Vec<WakeEvent>) -> Cycles {
        let len = len.max(1);
        let hits = &mut self.hits;
        hits.clear();
        self.index.any_line(addr, len, |bucket| {
            hits.extend(
                bucket
                    .iter()
                    .filter(|&&(_, _, a, l)| ranges_overlap(addr.0, len, a.0, l))
                    .map(|&(id, w, _, _)| (id, w)),
            );
            false
        });
        // A watch spanning several stored lines hits once per line;
        // sorted ids restore arm order across lines.
        if !one_line(addr, len) {
            hits.sort_unstable();
            hits.dedup();
        }
        out.extend(hits.iter().map(|&(_, watcher)| WakeEvent {
            watcher,
            exact: true,
        }));
        CAM_LOOKUP
    }

    fn armed_len(&self) -> usize {
        self.index.watches
    }

    fn is_armed(&self, watcher: WatchId) -> bool {
        self.index.by_watcher.contains_key(&watcher)
    }

    fn would_wake(&self, addr: PAddr, len: u64) -> bool {
        let len = len.max(1);
        self.index.any_line(addr, len, |bucket| {
            bucket
                .iter()
                .any(|&(_, _, a, l)| ranges_overlap(addr.0, len, a.0, l))
        })
    }
}

// ---------------------------------------------------------------------------
// Hashed-bank design
// ---------------------------------------------------------------------------

/// The hashed filter's bucket probe; each watch scanned adds a cycle.
const HASH_PROBE: Cycles = Cycles(2);

/// Line-granular hashed monitor filter.
#[derive(Clone, Debug, Default)]
pub struct HashFilter {
    index: WatchIndex,
}

impl HashFilter {
    /// Creates an empty hashed filter.
    #[must_use]
    pub fn new() -> HashFilter {
        HashFilter::default()
    }
}

impl MonitorFilter for HashFilter {
    fn arm(&mut self, watcher: WatchId, addr: PAddr, len: u64) -> Result<(), MonitorError> {
        self.index.arm(watcher, addr, len, usize::MAX)
    }

    fn disarm_all(&mut self, watcher: WatchId) {
        self.index.disarm_all(watcher);
    }

    fn on_store(&mut self, addr: PAddr, len: u64, out: &mut Vec<WakeEvent>) -> Cycles {
        let len = len.max(1);
        let before = out.len();
        let mut scanned = 0u64;
        self.index.any_line(addr, len, |bucket| {
            scanned += bucket.len() as u64;
            for &(_, w, a, l) in bucket {
                // Line-granular hardware wakes on any write to the line;
                // software re-checks the condition.
                if !out[before..].iter().any(|e| e.watcher == w) {
                    let exact = ranges_overlap(addr.0, len, a.0, l);
                    out.push(WakeEvent { watcher: w, exact });
                }
            }
            false
        });
        HASH_PROBE + Cycles(scanned)
    }

    fn armed_len(&self) -> usize {
        self.index.pairs
    }

    fn is_armed(&self, watcher: WatchId) -> bool {
        self.index.by_watcher.contains_key(&watcher)
    }

    fn would_wake(&self, addr: PAddr, len: u64) -> bool {
        // Any watch on a stored line wakes, even if the byte ranges are
        // disjoint (a false wakeup is still a wakeup); buckets are never
        // empty.
        self.index.any_line(addr, len.max(1), |_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wakes(f: &mut dyn MonitorFilter, addr: PAddr, len: u64) -> Vec<WakeEvent> {
        let mut out = Vec::new();
        f.on_store(addr, len, &mut out);
        out
    }

    #[test]
    fn cam_exact_hit() {
        let mut f = CamFilter::new(8);
        f.arm(WatchId(1), PAddr(0x100), 8).unwrap();
        let w = wakes(&mut f, PAddr(0x100), 8);
        assert_eq!(
            w,
            vec![WakeEvent {
                watcher: WatchId(1),
                exact: true
            }]
        );
    }

    #[test]
    fn cam_non_overlapping_store_is_silent() {
        let mut f = CamFilter::new(8);
        f.arm(WatchId(1), PAddr(0x100), 8).unwrap();
        assert!(wakes(&mut f, PAddr(0x108), 8).is_empty());
        assert!(wakes(&mut f, PAddr(0xf8), 8).is_empty());
    }

    #[test]
    fn cam_partial_overlap_wakes() {
        let mut f = CamFilter::new(8);
        f.arm(WatchId(1), PAddr(0x100), 8).unwrap();
        assert_eq!(wakes(&mut f, PAddr(0x104), 8).len(), 1);
    }

    #[test]
    fn cam_capacity_enforced() {
        let mut f = CamFilter::new(2);
        f.arm(WatchId(1), PAddr(0), 1).unwrap();
        f.arm(WatchId(2), PAddr(8), 1).unwrap();
        assert_eq!(
            f.arm(WatchId(3), PAddr(16), 1),
            Err(MonitorError::CapacityExhausted)
        );
        // Disarming frees space.
        f.disarm_all(WatchId(1));
        assert!(f.arm(WatchId(3), PAddr(16), 1).is_ok());
    }

    #[test]
    fn cam_multiple_watchers_same_address() {
        let mut f = CamFilter::new(8);
        f.arm(WatchId(1), PAddr(0x40), 8).unwrap();
        f.arm(WatchId(2), PAddr(0x40), 8).unwrap();
        let w = wakes(&mut f, PAddr(0x40), 1);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn cam_one_watcher_multiple_ranges() {
        let mut f = CamFilter::new(8);
        f.arm(WatchId(1), PAddr(0x40), 8).unwrap();
        f.arm(WatchId(1), PAddr(0x4000), 8).unwrap();
        assert_eq!(f.armed_len(), 2);
        assert_eq!(wakes(&mut f, PAddr(0x4000), 4).len(), 1);
        f.disarm_all(WatchId(1));
        assert_eq!(f.armed_len(), 0);
    }

    #[test]
    fn hash_exact_and_false_wakes() {
        let mut f = HashFilter::new();
        // Watch bytes [0x100, 0x108); store to same line but outside range.
        f.arm(WatchId(1), PAddr(0x100), 8).unwrap();
        let w = wakes(&mut f, PAddr(0x110), 4);
        assert_eq!(w.len(), 1, "line-granular filter wakes");
        assert!(!w[0].exact, "but it is a false wakeup");
        let w = wakes(&mut f, PAddr(0x100), 4);
        assert!(w[0].exact);
    }

    #[test]
    fn hash_cross_line_range() {
        let mut f = HashFilter::new();
        // Range spans two lines: watch entries on both.
        f.arm(WatchId(9), PAddr(0x7c), 16).unwrap();
        assert_eq!(f.armed_len(), 2);
        assert_eq!(wakes(&mut f, PAddr(0x80), 1).len(), 1);
        assert_eq!(wakes(&mut f, PAddr(0x7c), 1).len(), 1);
    }

    #[test]
    fn hash_no_duplicate_wake_for_same_store() {
        let mut f = HashFilter::new();
        f.arm(WatchId(1), PAddr(0x7c), 16).unwrap();
        // A store spanning both watched lines must wake the watcher once.
        let w = wakes(&mut f, PAddr(0x7e), 8);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn hash_lookup_cost_grows_with_collisions() {
        let mut f = HashFilter::new();
        let mut out = Vec::new();
        let base = f.on_store(PAddr(0x40), 1, &mut out);
        for i in 0..10 {
            f.arm(WatchId(i), PAddr(0x40), 4).unwrap();
        }
        out.clear();
        let loaded = f.on_store(PAddr(0x40), 1, &mut out);
        assert!(loaded > base, "collisions must add latency");
    }

    #[test]
    fn hash_disarm_removes_all_lines() {
        let mut f = HashFilter::new();
        f.arm(WatchId(1), PAddr(0x7c), 16).unwrap();
        f.arm(WatchId(2), PAddr(0x7c), 4).unwrap();
        f.disarm_all(WatchId(1));
        assert_eq!(f.armed_len(), 1);
        let w = wakes(&mut f, PAddr(0x7c), 2);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].watcher, WatchId(2));
    }

    #[test]
    fn rearming_same_range_is_idempotent() {
        // Regression: a wait loop arms before every condition check; if
        // it takes the serve path (no mwait/disarm), re-arming must not
        // leak entries toward CAM exhaustion.
        let mut cam = CamFilter::new(4);
        for _ in 0..100 {
            cam.arm(WatchId(1), PAddr(0x40), 8).unwrap();
        }
        assert_eq!(cam.armed_len(), 1);
        let mut hash = HashFilter::new();
        for _ in 0..100 {
            hash.arm(WatchId(1), PAddr(0x40), 8).unwrap();
        }
        assert_eq!(hash.armed_len(), 1);
        // A *different* range still adds.
        cam.arm(WatchId(1), PAddr(0x80), 8).unwrap();
        assert_eq!(cam.armed_len(), 2);
    }

    #[test]
    fn zero_len_store_treated_as_one_byte() {
        let mut f = CamFilter::new(4);
        f.arm(WatchId(1), PAddr(0x100), 0).unwrap();
        assert_eq!(wakes(&mut f, PAddr(0x100), 0).len(), 1);
    }

    #[test]
    fn cam_wake_order_is_arm_order() {
        let mut f = CamFilter::new(8);
        // Arm in a deliberately non-address order; wakes must come back
        // in arm order (what the pre-index linear scan produced).
        f.arm(WatchId(5), PAddr(0x108), 8).unwrap();
        f.arm(WatchId(2), PAddr(0x100), 8).unwrap();
        f.arm(WatchId(9), PAddr(0x104), 8).unwrap();
        let w = wakes(&mut f, PAddr(0x100), 16);
        let order: Vec<u64> = w.iter().map(|e| e.watcher.0).collect();
        assert_eq!(order, vec![5, 2, 9]);
    }

    #[test]
    fn cam_large_range_still_matches() {
        let mut f = CamFilter::new(8);
        // 1 MiB watch: 16,384 lines, each indexed.
        f.arm(WatchId(1), PAddr(0x10_0000), 1 << 20).unwrap();
        assert_eq!(wakes(&mut f, PAddr(0x18_0000), 8).len(), 1);
        assert!(wakes(&mut f, PAddr(0x20_0000), 8).is_empty());
        f.disarm_all(WatchId(1));
        assert_eq!(f.armed_len(), 0);
        assert!(wakes(&mut f, PAddr(0x18_0000), 8).is_empty());
    }
}

/// The pre-index linear-scan filters, kept verbatim as the behavioural
/// oracle: the property tests below drive random arm/disarm/store
/// sequences through both implementations and require identical wake
/// sets (order included), cycle costs, and armed counts.
#[cfg(test)]
mod reference {
    use super::*;

    pub struct RefCam {
        entries: Vec<(WatchId, PAddr, u64)>,
        capacity: usize,
    }

    impl RefCam {
        pub fn new(capacity: usize) -> RefCam {
            RefCam {
                entries: Vec::new(),
                capacity,
            }
        }

        pub fn arm(&mut self, watcher: WatchId, addr: PAddr, len: u64) -> Result<(), MonitorError> {
            let len = len.max(1);
            if self.entries.contains(&(watcher, addr, len)) {
                return Ok(());
            }
            if self.entries.len() >= self.capacity {
                return Err(MonitorError::CapacityExhausted);
            }
            self.entries.push((watcher, addr, len));
            Ok(())
        }

        pub fn disarm_all(&mut self, watcher: WatchId) {
            self.entries.retain(|(w, _, _)| *w != watcher);
        }

        pub fn on_store(&mut self, addr: PAddr, len: u64, out: &mut Vec<WakeEvent>) -> Cycles {
            let len = len.max(1);
            for &(w, a, l) in &self.entries {
                if ranges_overlap(addr.0, len, a.0, l) {
                    out.push(WakeEvent {
                        watcher: w,
                        exact: true,
                    });
                }
            }
            Cycles(1)
        }

        pub fn armed_len(&self) -> usize {
            self.entries.len()
        }
    }

    pub struct RefHash {
        lines: std::collections::HashMap<u64, Vec<(WatchId, PAddr, u64)>>,
        armed: usize,
    }

    impl RefHash {
        pub fn new() -> RefHash {
            RefHash {
                lines: std::collections::HashMap::new(),
                armed: 0,
            }
        }

        pub fn arm(&mut self, watcher: WatchId, addr: PAddr, len: u64) {
            let len = len.max(1);
            for line in lines_covering(addr, len) {
                let bucket = self.lines.entry(line.0).or_default();
                if bucket.contains(&(watcher, addr, len)) {
                    continue;
                }
                bucket.push((watcher, addr, len));
                self.armed += 1;
            }
        }

        pub fn disarm_all(&mut self, watcher: WatchId) {
            let mut removed = 0usize;
            self.lines.retain(|_, v| {
                let before = v.len();
                v.retain(|(w, _, _)| *w != watcher);
                removed += before - v.len();
                !v.is_empty()
            });
            self.armed -= removed;
        }

        pub fn on_store(&mut self, addr: PAddr, len: u64, out: &mut Vec<WakeEvent>) -> Cycles {
            let len = len.max(1);
            let mut scanned = 0u64;
            let before = out.len();
            for line in lines_covering(addr, len) {
                if let Some(entries) = self.lines.get(&line.0) {
                    for &(w, a, l) in entries {
                        scanned += 1;
                        let exact = ranges_overlap(addr.0, len, a.0, l);
                        if !out[before..].iter().any(|e| e.watcher == w) {
                            out.push(WakeEvent { watcher: w, exact });
                        }
                    }
                }
            }
            Cycles(2) + Cycles(scanned)
        }

        pub fn armed_len(&self) -> usize {
            self.armed
        }
    }
}

#[cfg(test)]
mod index_equivalence {
    use super::reference::{RefCam, RefHash};
    use super::*;

    /// xorshift64 driver — deterministic, no external RNG dependency.
    fn driver(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Address/len generator biased toward collisions: a small address
    /// window, lens spanning sub-line to many-line (up to 18 lines).
    fn pick_range(next: &mut impl FnMut() -> u64) -> (PAddr, u64) {
        let r = next();
        let addr = PAddr((r >> 8) % 4096);
        let len = match r % 8 {
            0 => 1,
            1 => 4,
            2 => 8,
            3 => 16,
            4 => 100,
            5 => 0, // zero-len: treated as one byte
            6 => 64 * 18,
            _ => 48,
        };
        (addr, len)
    }

    #[test]
    fn cam_index_matches_linear_reference() {
        let mut next = driver(0xdead_beef_cafe_f00d);
        for _round in 0..30 {
            let mut idx = CamFilter::new(24);
            let mut lin = RefCam::new(24);
            // The reference holds a watcher's watch iff one of its arms
            // succeeded since its last disarm.
            let mut armed = [false; 6];
            for _op in 0..400 {
                let r = next();
                let watcher = WatchId(r % 6);
                match r % 10 {
                    0..=3 => {
                        let (addr, len) = pick_range(&mut next);
                        let res = lin.arm(watcher, addr, len);
                        assert_eq!(idx.arm(watcher, addr, len), res);
                        armed[watcher.0 as usize] |= res.is_ok();
                    }
                    4 => {
                        idx.disarm_all(watcher);
                        lin.disarm_all(watcher);
                        armed[watcher.0 as usize] = false;
                    }
                    _ => {
                        let (addr, len) = pick_range(&mut next);
                        let mut probe = Vec::new();
                        lin.on_store(addr, len, &mut probe);
                        assert_eq!(
                            idx.would_wake(addr, len),
                            !probe.is_empty(),
                            "would_wake diverged at store {addr:?}+{len}"
                        );
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        let ca = idx.on_store(addr, len, &mut a);
                        let cb = lin.on_store(addr, len, &mut b);
                        assert_eq!(a, b, "wake set diverged at store {addr:?}+{len}");
                        assert_eq!(ca, cb, "cycle cost diverged");
                    }
                }
                assert_eq!(idx.armed_len(), lin.armed_len());
                for (w, &held) in armed.iter().enumerate() {
                    assert_eq!(
                        idx.is_armed(WatchId(w as u64)),
                        held,
                        "is_armed({w}) diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn hash_index_matches_linear_reference() {
        let mut next = driver(0x0123_4567_89ab_cdef);
        for _round in 0..30 {
            let mut idx = HashFilter::new();
            let mut lin = RefHash::new();
            // Every arm of the reference succeeds.
            let mut armed = [false; 6];
            for _op in 0..400 {
                let r = next();
                let watcher = WatchId(r % 6);
                match r % 10 {
                    0..=3 => {
                        let (addr, len) = pick_range(&mut next);
                        idx.arm(watcher, addr, len).unwrap();
                        lin.arm(watcher, addr, len);
                        armed[watcher.0 as usize] = true;
                    }
                    4 => {
                        idx.disarm_all(watcher);
                        lin.disarm_all(watcher);
                        armed[watcher.0 as usize] = false;
                    }
                    _ => {
                        let (addr, len) = pick_range(&mut next);
                        let mut probe = Vec::new();
                        lin.on_store(addr, len, &mut probe);
                        assert_eq!(
                            idx.would_wake(addr, len),
                            !probe.is_empty(),
                            "would_wake diverged at store {addr:?}+{len}"
                        );
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        let ca = idx.on_store(addr, len, &mut a);
                        let cb = lin.on_store(addr, len, &mut b);
                        assert_eq!(a, b, "wake set diverged at store {addr:?}+{len}");
                        assert_eq!(ca, cb, "cycle cost diverged");
                    }
                }
                assert_eq!(idx.armed_len(), lin.armed_len());
                for (w, &held) in armed.iter().enumerate() {
                    assert_eq!(
                        idx.is_armed(WatchId(w as u64)),
                        held,
                        "is_armed({w}) diverged"
                    );
                }
            }
        }
    }
}
