//! A TLB model with page-walk penalties.
//!
//! §4 of the paper notes that "misses in caches and TLBs can lead to
//! significant performance loss and even thrashing as numerous hardware
//! threads start and stop". The experiments that quantify that (F10) use
//! this model: a fully-associative LRU TLB per core, charged with a
//! configurable page-walk penalty on miss.

use switchless_sim::hash::{fx_map_with_capacity, FxHashMap};
use switchless_sim::time::Cycles;

/// Configuration for a [`Tlb`].
#[derive(Clone, Copy, Debug)]
pub struct TlbConfig {
    /// Number of entries (e.g. 64 for an L1 DTLB).
    pub entries: usize,
    /// Cycles charged for a page walk on miss (~4 dependent cache
    /// accesses; ≈100 cycles when walks hit the L2).
    pub walk_penalty: Cycles,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig {
            entries: 64,
            walk_penalty: Cycles(100),
        }
    }
}

/// A fully-associative, LRU translation lookaside buffer.
///
/// Tracks page-number residency only; the simulator's address space is
/// identity-mapped, so the TLB contributes *timing*, not translation.
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// Page number -> last-use stamp.
    ///
    /// Fx-hashed: LRU eviction takes a `min_by_key` over unique stamps,
    /// so the victim never depends on map iteration order.
    entries: FxHashMap<u64, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    #[must_use]
    pub fn new(config: TlbConfig) -> Tlb {
        Tlb {
            config,
            entries: fx_map_with_capacity(config.entries + 1),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates a page access; returns the added latency (zero on hit,
    /// the walk penalty on miss) and installs the entry.
    pub fn access(&mut self, page_number: u64) -> Cycles {
        self.tick += 1;
        if let Some(stamp) = self.entries.get_mut(&page_number) {
            *stamp = self.tick;
            self.hits += 1;
            return Cycles::ZERO;
        }
        self.misses += 1;
        if self.entries.len() >= self.config.entries {
            // Evict the LRU entry.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &s)| s) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(page_number, self.tick);
        self.config.walk_penalty
    }

    /// Whether `page_number` is currently resident. Pure: no
    /// tick advance, no stamp refresh, no stats — the superblock probe
    /// uses this to decide residency *before* committing any state.
    #[must_use]
    pub fn contains(&self, page_number: u64) -> bool {
        self.entries.contains_key(&page_number)
    }

    /// Batch equivalent of `n` consecutive all-hit [`Tlb::access`]
    /// calls. `pages` holds each distinct page with the 1-based index of
    /// its **last** access within the run of `n`; the caller guarantees
    /// the indices come from one in-order access walk. Returns `false`
    /// without touching any state unless every page is resident — the
    /// caller then falls back to per-access calls.
    ///
    /// Equivalence to the sequential path: every access in an all-hit
    /// run bumps `tick` and `hits` by one and leaves each page stamped
    /// with the tick of its last access, which is exactly
    /// `tick0 + last_index`.
    pub fn access_run(&mut self, pages: &[(u64, u64)], n: u64) -> bool {
        if !pages.iter().all(|&(p, _)| self.contains(p)) {
            return false;
        }
        for &(p, last) in pages {
            let stamp = self.entries.get_mut(&p).expect("residency checked above");
            *stamp = self.tick + last;
        }
        self.tick += n;
        self.hits += n;
        true
    }

    /// Lifetime (hits, misses).
    #[must_use]
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 4,
            walk_penalty: Cycles(100),
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut t = small();
        assert_eq!(t.access(5), Cycles(100));
        assert_eq!(t.access(5), Cycles::ZERO);
        assert_eq!(t.hit_miss(), (1, 1));
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut t = small();
        for p in 0..4 {
            t.access(p);
        }
        // Touch page 0 so page 1 is LRU.
        t.access(0);
        t.access(99); // evicts page 1
        assert_eq!(t.access(0), Cycles::ZERO);
        assert_eq!(t.access(1), Cycles(100), "page 1 should have been evicted");
    }

    #[test]
    fn access_run_matches_sequential_accesses_exactly() {
        // Whole-state equivalence via Debug formatting, like the cache
        // batch test: stamps, tick, and hit/miss counters all included.
        let mut a = small();
        let mut b = small();
        for t in [&mut a, &mut b] {
            t.access(1);
            t.access(2);
            t.access(3);
        }
        // Run: pages 2, 1, 2, 2, 1 -> last access of 2 at index 4, of
        // 1 at index 5.
        for p in [2, 1, 2, 2, 1] {
            assert_eq!(a.access(p), Cycles::ZERO);
        }
        assert!(b.access_run(&[(2, 4), (1, 5)], 5));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn access_run_refuses_non_resident_page_untouched() {
        let mut t = small();
        t.access(1);
        let before = format!("{t:?}");
        assert!(!t.access_run(&[(1, 1), (9, 2)], 2));
        assert_eq!(format!("{t:?}"), before, "refusal must not mutate");
    }

    #[test]
    fn contains_is_pure() {
        let mut t = small();
        t.access(1);
        let before = format!("{t:?}");
        assert!(t.contains(1));
        assert!(!t.contains(2));
        assert_eq!(format!("{t:?}"), before);
    }
}
