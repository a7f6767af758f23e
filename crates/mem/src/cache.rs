//! A set-associative, tag-only cache model with fine-grain partitioning.
//!
//! The paper (§4, "Managing Non-register State") proposes pinning critical
//! per-thread state using "fine-grain cache partitioning techniques that
//! allow hundreds of small partitions without loss of associativity"
//! (Vantage, `[66]`). [`Cache`] approximates Vantage: partitions declare a
//! *target fraction* of the cache; insertion evicts preferentially from
//! partitions that are over target, so a small partition keeps its lines
//! resident no matter how hard other partitions thrash.

use switchless_sim::hash::FxHashMap;

use crate::addr::{PAddr, LINE_BYTES};

/// Identifies a cache partition. Partition 0 is the default/unmanaged pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// The default partition that unpartitioned traffic maps to.
    pub const DEFAULT: PartitionId = PartitionId(0);
}

/// Cache geometry: total size, associativity, line size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Number of ways per set.
    pub ways: u32,
}

impl CacheGeom {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, or size not an
    /// integer number of `ways * LINE_BYTES`), or the set count is not a
    /// power of two.
    #[must_use]
    pub fn sets(&self) -> u64 {
        assert!(self.ways > 0, "cache must have at least one way");
        let way_bytes = u64::from(self.ways) * LINE_BYTES;
        assert!(
            self.size_bytes.is_multiple_of(way_bytes),
            "cache size {} not divisible by ways*line {}",
            self.size_bytes,
            way_bytes
        );
        let sets = self.size_bytes / way_bytes;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        sets
    }

    /// Capacity in cache lines.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }
}

#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    part: PartitionId,
    /// Global LRU stamp; larger is more recent.
    stamp: u64,
}

const INVALID_WAY: Way = Way {
    tag: 0,
    valid: false,
    dirty: false,
    part: PartitionId(0),
    stamp: 0,
};

/// Result of a fill: a dirty line was evicted and must be written back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Writeback {
    /// Line address of the evicted dirty line.
    pub line: PAddr,
}

/// A set-associative cache with optional partition occupancy targets.
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeom,
    sets: u64,
    ways: Vec<Way>,
    tick: u64,
    /// Per-partition target in lines. Absent partitions are unmanaged.
    targets: FxHashMap<PartitionId, u64>,
    /// Per-partition current occupancy in lines.
    occupancy: FxHashMap<PartitionId, u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geom: CacheGeom) -> Cache {
        let sets = geom.sets();
        Cache {
            geom,
            sets,
            ways: vec![INVALID_WAY; (sets * u64::from(geom.ways)) as usize],
            tick: 0,
            targets: FxHashMap::default(),
            occupancy: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry this cache was built with.
    #[must_use]
    pub fn geom(&self) -> CacheGeom {
        self.geom
    }

    /// Declares a partition with a target fraction of the cache.
    ///
    /// Fractions over all partitions may exceed 1.0; targets are soft
    /// quotas used only for victim selection, exactly as in Vantage.
    pub fn set_partition_target(&mut self, part: PartitionId, fraction: f64) {
        let lines = (self.geom.lines() as f64 * fraction.clamp(0.0, 1.0)) as u64;
        self.targets.insert(part, lines.max(1));
    }

    /// Current occupancy of a partition, in lines.
    #[must_use]
    pub fn occupancy(&self, part: PartitionId) -> u64 {
        self.occupancy.get(&part).copied().unwrap_or(0)
    }

    /// Total (hits, misses) since construction.
    #[must_use]
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn set_range(&self, addr: PAddr) -> std::ops::Range<usize> {
        let set = (addr.0 / LINE_BYTES) & (self.sets - 1);
        let base = (set * u64::from(self.geom.ways)) as usize;
        base..base + self.geom.ways as usize
    }

    /// Looks up a line; updates LRU and dirty state on hit.
    ///
    /// Returns `true` on hit. Does **not** fill on miss — callers decide
    /// (the hierarchy fills on the way back down).
    pub fn access(&mut self, addr: PAddr, write: bool) -> bool {
        let hit = self.hit(addr, write);
        if !hit {
            self.miss();
        }
        hit
    }

    /// The hit half of [`Cache::access`]: on a hit, exactly its effect;
    /// on a miss, no effect at all — the caller records the miss with
    /// [`Cache::miss`] once the access goes ahead.
    #[inline]
    pub(crate) fn hit(&mut self, addr: PAddr, write: bool) -> bool {
        let tag = addr.0 / LINE_BYTES;
        let range = self.set_range(addr);
        let stamp = self.tick + 1;
        let Some(w) = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
        else {
            return false;
        };
        w.stamp = stamp;
        w.dirty |= write;
        self.tick = stamp;
        self.hits += 1;
        true
    }

    /// The miss half of [`Cache::access`].
    #[inline]
    pub(crate) fn miss(&mut self) {
        self.tick += 1;
        self.misses += 1;
    }

    /// Applies a pre-computed run of `n` sequential hits — the merged
    /// fetch+data access stream of one superblock — as a single batch.
    ///
    /// `lines` holds each distinct line with the 1-based index of its
    /// **last** access within the run and the OR of the `write` flags of
    /// every access that touched it. Because LRU stamps are absolute
    /// `tick` values, `n` sequential all-hit `access()` calls leave each
    /// line stamped `tick + last_index` with `dirty |= any_write`, the
    /// tick advanced by `n`, and `n` extra hits — so this reproduces the
    /// per-access path bit-for-bit in O(lines) instead of O(n).
    ///
    /// Returns `false` — and mutates nothing — unless every line is
    /// resident: a miss anywhere in the run must be modelled by the
    /// caller's per-access path (fills, latency, eviction order all
    /// depend on where in the stream it lands).
    pub fn access_run_mixed(&mut self, lines: &[(PAddr, u64, bool)], n: u64) -> bool {
        if !lines.iter().all(|&(a, _, _)| self.contains(a)) {
            return false;
        }
        for &(addr, last, write) in lines {
            let tag = addr.0 / LINE_BYTES;
            let range = self.set_range(addr);
            for w in &mut self.ways[range] {
                if w.valid && w.tag == tag {
                    w.stamp = self.tick + last;
                    w.dirty |= write;
                    break;
                }
            }
        }
        self.tick += n;
        self.hits += n;
        true
    }

    /// Checks residency without perturbing LRU or statistics.
    #[must_use]
    pub fn contains(&self, addr: PAddr) -> bool {
        let tag = addr.0 / LINE_BYTES;
        let range = self.set_range(addr);
        self.ways[range].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Inserts a line for `part`, evicting a victim if the set is full.
    ///
    /// Victim preference order (the Vantage approximation):
    /// 1. an invalid way;
    /// 2. the LRU way among lines whose partition is *over its target*;
    /// 3. the globally LRU way.
    ///
    /// Returns a [`Writeback`] if the victim was dirty.
    pub fn fill(&mut self, addr: PAddr, part: PartitionId, write: bool) -> Option<Writeback> {
        self.tick += 1;
        let tag = addr.0 / LINE_BYTES;
        let range = self.set_range(addr);
        // Already present (e.g. raced fill): just refresh.
        for w in &mut self.ways[range.clone()] {
            if w.valid && w.tag == tag {
                w.stamp = self.tick;
                w.dirty |= write;
                return None;
            }
        }

        // Pass 1: invalid way.
        let mut victim: Option<usize> = None;
        for i in range.clone() {
            if !self.ways[i].valid {
                victim = Some(i);
                break;
            }
        }
        // Pass 2: LRU among over-target partitions.
        if victim.is_none() {
            let mut best: Option<(u64, usize)> = None;
            for i in range.clone() {
                let w = &self.ways[i];
                let over = match self.targets.get(&w.part) {
                    Some(&t) => self.occupancy(w.part) > t,
                    // Unmanaged partitions are always considered over
                    // target so managed partitions win conflicts.
                    None => true,
                };
                if over && best.is_none_or(|(s, _)| w.stamp < s) {
                    best = Some((w.stamp, i));
                }
            }
            victim = best.map(|(_, i)| i);
        }
        // Pass 3: global LRU.
        let victim = victim.unwrap_or_else(|| {
            let mut best = range.start;
            for i in range.clone() {
                if self.ways[i].stamp < self.ways[best].stamp {
                    best = i;
                }
            }
            best
        });

        let old = self.ways[victim];
        let mut wb = None;
        if old.valid {
            if let Some(o) = self.occupancy.get_mut(&old.part) {
                *o = o.saturating_sub(1);
            }
            if old.dirty {
                wb = Some(Writeback {
                    line: PAddr(old.tag * LINE_BYTES),
                });
            }
        }
        self.ways[victim] = Way {
            tag,
            valid: true,
            dirty: write,
            part,
            stamp: self.tick,
        };
        *self.occupancy.entry(part).or_insert(0) += 1;
        wb
    }

    /// Invalidates a line if present; returns a writeback if it was dirty.
    pub fn invalidate(&mut self, addr: PAddr) -> Option<Writeback> {
        let tag = addr.0 / LINE_BYTES;
        let range = self.set_range(addr);
        for i in range {
            let w = self.ways[i];
            if w.valid && w.tag == tag {
                self.ways[i].valid = false;
                if let Some(o) = self.occupancy.get_mut(&w.part) {
                    *o = o.saturating_sub(1);
                }
                return w.dirty.then_some(Writeback {
                    line: PAddr(tag * LINE_BYTES),
                });
            }
        }
        None
    }

    /// Invalidates everything (e.g. simulated machine reset).
    pub fn flush_all(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            w.dirty = false;
        }
        self.occupancy.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheGeom {
            size_bytes: 512,
            ways: 2,
        })
    }

    /// Address that maps to `set` with tag distinguisher `k`.
    fn addr(set: u64, k: u64) -> PAddr {
        PAddr((k * 4 + set) * LINE_BYTES)
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeom {
            size_bytes: 32 * 1024,
            ways: 8,
        };
        assert_eq!(g.sets(), 64);
        assert_eq!(g.lines(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let g = CacheGeom {
            size_bytes: 3 * 64 * 2,
            ways: 2,
        };
        let _ = g.sets();
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let a = addr(0, 0);
        assert!(!c.access(a, false));
        c.fill(a, PartitionId::DEFAULT, false);
        assert!(c.access(a, false));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        let a = addr(1, 0);
        let b = addr(1, 1);
        let x = addr(1, 2);
        c.fill(a, PartitionId::DEFAULT, false);
        c.fill(b, PartitionId::DEFAULT, false);
        // Touch `a` so `b` is LRU.
        assert!(c.access(a, false));
        c.fill(x, PartitionId::DEFAULT, false);
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(x));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        let a = addr(2, 0);
        c.fill(a, PartitionId::DEFAULT, true);
        let b = addr(2, 1);
        c.fill(b, PartitionId::DEFAULT, false);
        let wb = c.fill(addr(2, 2), PartitionId::DEFAULT, false);
        assert_eq!(wb, Some(Writeback { line: a.line() }));
    }

    #[test]
    fn partition_protects_resident_lines() {
        let mut c = tiny();
        let prot = PartitionId(1);
        // Protect 25% of the cache (2 lines) for partition 1.
        c.set_partition_target(prot, 0.25);
        let pinned = addr(3, 0);
        c.fill(pinned, prot, false);
        // Thrash the same set with unmanaged traffic: pinned line survives
        // because unmanaged lines are always preferred victims.
        for k in 1..50 {
            c.fill(addr(3, k), PartitionId::DEFAULT, false);
        }
        assert!(c.contains(pinned), "partitioned line was evicted");
    }

    #[test]
    fn without_partition_line_is_thrashed_out() {
        let mut c = tiny();
        let victim = addr(3, 0);
        c.fill(victim, PartitionId::DEFAULT, false);
        for k in 1..50 {
            c.fill(addr(3, k), PartitionId::DEFAULT, false);
        }
        assert!(!c.contains(victim));
    }

    #[test]
    fn over_target_partition_loses_protection() {
        let mut c = tiny();
        let p = PartitionId(1);
        // Target of 1 line; insert 3 lines into different sets for p.
        c.targets.insert(p, 1);
        c.fill(addr(0, 0), p, false);
        c.fill(addr(1, 0), p, false);
        c.fill(addr(2, 0), p, false);
        assert_eq!(c.occupancy(p), 3);
        // p is over target, so its lines are evictable by default traffic.
        c.fill(addr(0, 1), PartitionId::DEFAULT, false);
        c.fill(addr(0, 2), PartitionId::DEFAULT, false);
        c.fill(addr(0, 3), PartitionId::DEFAULT, false);
        assert!(!c.contains(addr(0, 0)));
    }

    #[test]
    fn occupancy_tracks_fills_and_invalidates() {
        let mut c = tiny();
        let p = PartitionId(7);
        c.fill(addr(0, 0), p, false);
        c.fill(addr(1, 0), p, false);
        assert_eq!(c.occupancy(p), 2);
        c.invalidate(addr(0, 0));
        assert_eq!(c.occupancy(p), 1);
        c.flush_all();
        assert_eq!(c.occupancy(p), 0);
    }

    #[test]
    fn invalidate_dirty_returns_writeback() {
        let mut c = tiny();
        let a = addr(0, 0);
        c.fill(a, PartitionId::DEFAULT, true);
        assert_eq!(c.invalidate(a), Some(Writeback { line: a.line() }));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn access_run_matches_sequential_accesses_exactly() {
        let mut a = tiny();
        for s in 0..4 {
            a.fill(addr(s, 0), PartitionId::DEFAULT, false);
        }
        let mut b = a.clone();
        // A fetch stream touching lines (0,0) x3, (1,0) x2, (0,0) again:
        // 6 accesses; last indices 6 and 5.
        for &(s, _) in &[(0, 1u64), (0, 2), (0, 3), (1, 4), (1, 5), (0, 6)] {
            assert!(a.access(addr(s, 0), false));
        }
        let lines = [(addr(0, 0), 6u64, false), (addr(1, 0), 5, false)];
        assert!(b.access_run_mixed(&lines, 6));
        // `Cache` derives `Debug` over every field (ways with stamps,
        // tick, stats): textual equality is full state equality.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn access_run_refuses_non_resident_line_untouched() {
        let mut c = tiny();
        c.fill(addr(0, 0), PartitionId::DEFAULT, false);
        let before = format!("{c:?}");
        let lines = [(addr(0, 0), 1u64, false), (addr(1, 0), 2, false)];
        assert!(!c.access_run_mixed(&lines, 2), "line (1,0) is not resident");
        assert_eq!(format!("{c:?}"), before, "a refused run must not mutate");
    }

    #[test]
    fn access_run_mixed_matches_sequential_accesses_exactly() {
        let mut a = tiny();
        for s in 0..4 {
            a.fill(addr(s, 0), PartitionId::DEFAULT, false);
        }
        let mut b = a.clone();
        // Mixed stream: fetch (0,0), store (1,0), fetch (0,0), load
        // (1,0), store (2,0), fetch (0,0) — 6 accesses. Last indices:
        // line (0,0)=6 clean, (1,0)=4 dirty (store at 2), (2,0)=5 dirty.
        for &(s, w) in &[
            (0u64, false),
            (1, true),
            (0, false),
            (1, false),
            (2, true),
            (0, false),
        ] {
            assert!(a.access(addr(s, 0), w));
        }
        let lines = [
            (addr(0, 0), 6u64, false),
            (addr(1, 0), 4, true),
            (addr(2, 0), 5, true),
        ];
        assert!(b.access_run_mixed(&lines, 6));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn access_run_mixed_refuses_non_resident_line_untouched() {
        let mut c = tiny();
        c.fill(addr(0, 0), PartitionId::DEFAULT, false);
        let before = format!("{c:?}");
        let lines = [(addr(0, 0), 1u64, true), (addr(3, 0), 2, false)];
        assert!(!c.access_run_mixed(&lines, 2), "line (3,0) is not resident");
        assert_eq!(format!("{c:?}"), before, "a refused run must not mutate");
    }

    #[test]
    fn refill_same_line_is_idempotent() {
        let mut c = tiny();
        let a = addr(0, 0);
        c.fill(a, PartitionId::DEFAULT, false);
        assert!(c.fill(a, PartitionId::DEFAULT, true).is_none());
        assert_eq!(c.occupancy(PartitionId::DEFAULT), 1);
        // The second fill marked it dirty.
        let wb = c.invalidate(a);
        assert!(wb.is_some());
    }
}
