//! A set-associative, tag-only cache model with fine-grain partitioning.
//!
//! The paper (§4, "Managing Non-register State") proposes pinning critical
//! per-thread state using "fine-grain cache partitioning techniques that
//! allow hundreds of small partitions without loss of associativity"
//! (Vantage, `[66]`). [`Cache`] approximates Vantage: partitions declare a
//! *target fraction* of the cache; insertion evicts preferentially from
//! partitions that are over target, so a small partition keeps its lines
//! resident no matter how hard other partitions thrash.

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

/// Result of a fill: a dirty line was evicted and must be written back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Writeback {
    /// Line address of the evicted dirty line.
    pub line: PAddr,
}

/// One partition's quota and occupancy.
#[derive(Clone, Copy, Debug)]
struct Part {
    id: PartitionId,
    /// Target in lines; 0 means unmanaged (declared targets are at
    /// least one line).
    target: u64,
    /// Current occupancy in lines.
    occupancy: u64,
}

impl Part {
    fn new(id: PartitionId) -> Part {
        Part {
            id,
            target: 0,
            occupancy: 0,
        }
    }
}

/// A set-associative cache with optional partition occupancy targets.
///
/// Way `i` lives in three parallel arrays in which all-zero is an
/// invalid way, so a new cache is zeroed memory: `keys[i]` is the line
/// number plus one (0 = invalid), `stamps[i]` its global LRU stamp
/// (larger is more recent), and `meta[i]` its partition slot shifted
/// left by one with the dirty bit in bit 0. Partition slots index
/// `parts` and are handed out on first use; slot 0 is
/// [`PartitionId::DEFAULT`]. The fields of an invalid way other than
/// its key are stale and never read.
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeom,
    sets: u64,
    keys: Vec<u64>,
    stamps: Vec<u64>,
    meta: Vec<u32>,
    tick: u64,
    parts: Vec<Part>,
    /// Whether any partition has a target.
    managed: bool,
    hits: u64,
    misses: u64,
}

/// The `keys` entry of the line holding `addr`.
fn key_of(addr: PAddr) -> u64 {
    addr.0 / LINE_BYTES + 1
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geom: CacheGeom) -> Cache {
        let sets = geom.sets();
        let n = (sets * u64::from(geom.ways)) as usize;
        Cache {
            geom,
            sets,
            keys: vec![0; n],
            stamps: vec![0; n],
            meta: vec![0; n],
            tick: 0,
            parts: vec![Part::new(PartitionId::DEFAULT)],
            managed: false,
            hits: 0,
            misses: 0,
        }
    }

    /// `part`'s slot in `parts`, if it has one.
    fn find_slot(&self, part: PartitionId) -> Option<usize> {
        self.parts.iter().position(|p| p.id == part)
    }

    /// `part`'s slot in `parts`, handing out the next one on first use.
    fn slot(&mut self, part: PartitionId) -> usize {
        self.find_slot(part).unwrap_or_else(|| {
            self.parts.push(Part::new(part));
            self.parts.len() - 1
        })
    }

    /// Declares a partition with a target fraction of the cache.
    ///
    /// Fractions over all partitions may exceed 1.0; targets are soft
    /// quotas used only for victim selection, exactly as in Vantage.
    pub fn set_partition_target(&mut self, part: PartitionId, fraction: f64) {
        let lines = (self.geom.lines() as f64 * fraction.clamp(0.0, 1.0)) as u64;
        let slot = self.slot(part);
        self.parts[slot].target = lines.max(1);
        self.managed = true;
    }

    /// Current occupancy of a partition, in lines.
    #[must_use]
    pub fn occupancy(&self, part: PartitionId) -> u64 {
        self.find_slot(part).map_or(0, |s| self.parts[s].occupancy)
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

    /// The way holding `addr`'s line, if resident.
    #[inline]
    fn find(&self, addr: PAddr) -> Option<usize> {
        let range = self.set_range(addr);
        let key = key_of(addr);
        let start = range.start;
        self.keys[range]
            .iter()
            .position(|&k| k == key)
            .map(|i| start + i)
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
        let Some(i) = self.find(addr) else {
            return false;
        };
        self.tick += 1;
        self.stamps[i] = self.tick;
        self.meta[i] |= u32::from(write);
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
            let i = self.find(addr).expect("checked resident");
            self.stamps[i] = self.tick + last;
            self.meta[i] |= u32::from(write);
        }
        self.tick += n;
        self.hits += n;
        true
    }

    /// Checks residency without perturbing LRU or statistics.
    #[must_use]
    pub fn contains(&self, addr: PAddr) -> bool {
        self.find(addr).is_some()
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
        let (own, free) = self.scan(addr);
        // Already present (e.g. raced fill): just refresh.
        if let Some(i) = own {
            self.stamps[i] = self.tick;
            self.meta[i] |= u32::from(write);
            return None;
        }
        let victim = free.unwrap_or_else(|| self.victim(addr));
        self.install(victim, addr, part, write)
    }

    /// Device deposit of a whole line (DDIO-style DMA): exactly
    /// [`Cache::invalidate`] then [`Cache::fill`] into the default
    /// partition, dirty, in one scan of the set. The line lands in the
    /// earlier of its own way and the first invalid way, or else evicts
    /// a victim as a fill does; the returned [`Writeback`] is that
    /// victim's. The old copy is overwritten, so it is never written
    /// back.
    pub fn deposit(&mut self, addr: PAddr) -> Option<Writeback> {
        self.tick += 1;
        let (own, free) = self.scan(addr);
        if let Some(i) = own {
            self.evict(i);
        }
        let way = free.or(own).unwrap_or_else(|| self.victim(addr));
        self.install(way, addr, PartitionId::DEFAULT, true)
    }

    /// One scan of `addr`'s set: the way holding its line, and the first
    /// invalid way before it (before the set's end if it is absent).
    fn scan(&self, addr: PAddr) -> (Option<usize>, Option<usize>) {
        let key = key_of(addr);
        let mut free = None;
        for i in self.set_range(addr) {
            match self.keys[i] {
                k if k == key => return (Some(i), free),
                0 if free.is_none() => free = Some(i),
                _ => {}
            }
        }
        (None, free)
    }

    /// The way to evict from `addr`'s full set: the LRU way among lines
    /// of over-target partitions (unmanaged ones always count as over,
    /// so managed partitions win conflicts), else the LRU way. Ties go
    /// to the lowest way. With no target declared every partition is
    /// unmanaged, so only the LRU way is tracked.
    fn victim(&self, addr: PAddr) -> usize {
        let range = self.set_range(addr);
        let stamps = &self.stamps[range.clone()];
        let meta = &self.meta[range.clone()];
        let mut lru = 0;
        let mut over_lru: Option<usize> = None;
        for (i, &stamp) in stamps.iter().enumerate() {
            if stamp < stamps[lru] {
                lru = i;
            }
            if self.managed {
                // A valid way's partition holds at least that line, so
                // an unmanaged one (target 0) is always over.
                let p = &self.parts[(meta[i] >> 1) as usize];
                if p.occupancy > p.target && over_lru.is_none_or(|o| stamp < stamps[o]) {
                    over_lru = Some(i);
                }
            }
        }
        range.start + over_lru.unwrap_or(lru)
    }

    /// Puts `addr`'s line for `part` in way `i`, evicting whatever valid
    /// line was there.
    fn install(
        &mut self,
        i: usize,
        addr: PAddr,
        part: PartitionId,
        write: bool,
    ) -> Option<Writeback> {
        let wb = self.evict(i);
        let slot = self.slot(part);
        self.parts[slot].occupancy += 1;
        self.keys[i] = key_of(addr);
        self.stamps[i] = self.tick;
        self.meta[i] =
            (u32::try_from(slot).expect("partition count fits u32") << 1) | u32::from(write);
        wb
    }

    /// Invalidates way `i` if it is valid; returns a writeback if its
    /// line was dirty.
    fn evict(&mut self, i: usize) -> Option<Writeback> {
        if self.keys[i] == 0 {
            return None;
        }
        let line = PAddr((self.keys[i] - 1) * LINE_BYTES);
        self.keys[i] = 0;
        self.parts[(self.meta[i] >> 1) as usize].occupancy -= 1;
        (self.meta[i] & 1 != 0).then_some(Writeback { line })
    }

    /// Invalidates a line if present; returns a writeback if it was dirty.
    pub fn invalidate(&mut self, addr: PAddr) -> Option<Writeback> {
        self.evict(self.find(addr)?)
    }

    /// Invalidates everything (e.g. simulated machine reset).
    pub fn flush_all(&mut self) {
        self.keys.fill(0);
        for p in &mut self.parts {
            p.occupancy = 0;
        }
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
        c.set_partition_target(p, 1.0 / 8.0);
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
