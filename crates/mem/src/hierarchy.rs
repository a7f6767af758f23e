//! The full cache hierarchy: per-core L1/L2, shared L3, DRAM.
//!
//! Latencies follow the figures the paper's §4 arithmetic assumes for a
//! ~3 GHz server part: L1 ≈ 4 cycles, L2 ≈ 14, L3 ≈ 42, DRAM ≈ 190.
//! The hierarchy is inclusive-on-fill: a DRAM fill installs the line at
//! every level on the way back to the requesting core.

use switchless_sim::time::Cycles;

use crate::addr::PAddr;
use crate::cache::{Cache, CacheGeom, PartitionId};
use crate::dram::{Dram, DramConfig};

/// Which level served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the core's L1 data cache.
    L1,
    /// Served by the core's private L2.
    L2,
    /// Served by the shared L3.
    L3,
    /// Served by DRAM (off-chip).
    Dram,
}

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Outcome of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Total load-to-use latency.
    pub latency: Cycles,
    /// The level that had the line.
    pub level: HitLevel,
}

/// Geometry and latency configuration for [`Hierarchy`].
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// Per-core L1 data cache geometry.
    pub l1: CacheGeom,
    /// Per-core private L2 geometry.
    pub l2: CacheGeom,
    /// Shared L3 geometry.
    pub l3: CacheGeom,
    /// L1 hit latency.
    pub lat_l1: Cycles,
    /// L2 hit latency.
    pub lat_l2: Cycles,
    /// L3 hit latency.
    pub lat_l3: Cycles,
    /// DRAM model parameters.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// A representative server-class configuration.
    #[must_use]
    pub fn server() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheGeom {
                size_bytes: 32 * 1024,
                ways: 8,
            },
            l2: CacheGeom {
                size_bytes: 512 * 1024,
                ways: 8,
            },
            l3: CacheGeom {
                size_bytes: 8 * 1024 * 1024,
                ways: 16,
            },
            lat_l1: Cycles(4),
            lat_l2: Cycles(14),
            lat_l3: Cycles(42),
            dram: DramConfig::default(),
        }
    }

    /// A tiny configuration for fast unit tests.
    #[must_use]
    pub fn tiny() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheGeom {
                size_bytes: 1024,
                ways: 2,
            },
            l2: CacheGeom {
                size_bytes: 4096,
                ways: 4,
            },
            l3: CacheGeom {
                size_bytes: 16 * 1024,
                ways: 4,
            },
            lat_l1: Cycles(4),
            lat_l2: Cycles(14),
            lat_l3: Cycles(42),
            dram: DramConfig::default(),
        }
    }
}

/// One core's private cache levels (L1 + L2) and their write-back
/// counts: the per-core half of a [`Hierarchy`].
///
/// Only instructions executing on core `c` touch its private levels
/// (cross-core effects like DMA invalidates go through the machine and
/// end a shard-engine epoch), so an epoch worker may run against a clone
/// ([`Hierarchy::core_view`]) that is assigned back verbatim at the epoch
/// barrier ([`Hierarchy::commit_core_view`]) — LRU stamps, dirty bits,
/// hit/miss and write-back counts land exactly as if the accesses had run
/// serially.
#[derive(Clone, Debug)]
pub struct CoreCaches {
    l1: Cache,
    l2: Cache,
    lat_l1: Cycles,
    lat_l2: Cycles,
    wb_l1: u64,
    wb_l2: u64,
}

impl CoreCaches {
    fn new(config: &HierarchyConfig) -> CoreCaches {
        CoreCaches {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            lat_l1: config.lat_l1,
            lat_l2: config.lat_l2,
            wb_l1: 0,
            wb_l2: 0,
        }
    }

    /// Serves one access from the private levels alone: the L1/L2 prefix
    /// of [`Hierarchy::access`]. `None` means the line is in neither
    /// level and the access needs the shared L3; the levels are then
    /// left untouched (the hierarchy records both misses before going
    /// on).
    #[inline]
    pub fn try_access(
        &mut self,
        addr: PAddr,
        kind: AccessKind,
        part: PartitionId,
    ) -> Option<AccessResult> {
        let write = kind == AccessKind::Write;
        if self.l1.hit(addr, write) {
            return Some(AccessResult {
                latency: self.lat_l1,
                level: HitLevel::L1,
            });
        }
        if !self.l2.hit(addr, write) {
            return None;
        }
        self.l1.miss();
        if self.l1.fill(addr, part, write).is_some() {
            self.wb_l1 += 1;
        }
        Some(AccessResult {
            latency: self.lat_l2,
            level: HitLevel::L2,
        })
    }

    /// Installs a line served from beyond the private levels (L2 clean,
    /// L1 dirty on a write), counting dirty evictions.
    fn fill(&mut self, addr: PAddr, part: PartitionId, write: bool) {
        if self.l2.fill(addr, part, false).is_some() {
            self.wb_l2 += 1;
        }
        if self.l1.fill(addr, part, write).is_some() {
            self.wb_l1 += 1;
        }
    }

    /// Whether the L1 holds the line (no LRU/statistics effect).
    #[must_use]
    pub fn l1_contains(&self, addr: PAddr) -> bool {
        self.l1.contains(addr)
    }

    /// Applies a superblock's merged fetch+data stream against the L1 as
    /// one batch (see [`Cache::access_run_mixed`]): `false` — and no
    /// mutation — unless every line is L1-resident.
    pub fn l1_access_run_mixed(&mut self, lines: &[(PAddr, u64, bool)], n: u64) -> bool {
        self.l1.access_run_mixed(lines, n)
    }
}

/// A multi-core cache hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    cores: Vec<CoreCaches>,
    l3: Cache,
    dram: Dram,
    /// Dirty lines written back on L3 eviction.
    wb_l3: u64,
}

impl Hierarchy {
    /// Builds a hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn new(cores: usize, config: HierarchyConfig) -> Hierarchy {
        assert!(cores > 0, "hierarchy needs at least one core");
        Hierarchy {
            config,
            cores: (0..cores).map(|_| CoreCaches::new(&config)).collect(),
            l3: Cache::new(config.l3),
            dram: Dram::new(config.dram),
            wb_l3: 0,
        }
    }

    /// Number of cores this hierarchy was built for.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs one access from `core`, filling lines on the way back.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        now: Cycles,
        core: usize,
        addr: PAddr,
        kind: AccessKind,
        part: PartitionId,
    ) -> AccessResult {
        let cc = &mut self.cores[core];
        if let Some(r) = cc.try_access(addr, kind, part) {
            return r;
        }
        cc.l1.miss();
        cc.l2.miss();
        let write = kind == AccessKind::Write;
        let (latency, level) = if self.l3.access(addr, write) {
            (self.config.lat_l3, HitLevel::L3)
        } else {
            let dram_lat = self.dram.access_line(now, addr.line().0);
            if self.l3.fill(addr, part, false).is_some() {
                self.wb_l3 += 1;
            }
            (self.config.lat_l3 + dram_lat, HitLevel::Dram)
        };
        cc.fill(addr, part, write);
        AccessResult { latency, level }
    }

    /// `core`'s private levels.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_mut(&mut self, core: usize) -> &mut CoreCaches {
        &mut self.cores[core]
    }

    /// A clone of `core`'s private levels an epoch worker can mutate
    /// off-thread.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_view(&self, core: usize) -> CoreCaches {
        self.cores[core].clone()
    }

    /// Installs a worker's [`CoreCaches`] view as `core`'s private levels.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn commit_core_view(&mut self, core: usize, view: CoreCaches) {
        self.cores[core] = view;
    }

    /// Dirty lines written back on eviction, per level `(l1, l2, l3)`.
    ///
    /// Write-back traffic is counted but not charged to the evicting
    /// access (the write buffer drains off the critical path).
    #[must_use]
    pub fn writebacks(&self) -> (u64, u64, u64) {
        let (l1, l2) = self
            .cores
            .iter()
            .fold((0, 0), |(a, b), c| (a + c.wb_l1, b + c.wb_l2));
        (l1, l2, self.wb_l3)
    }

    /// Installs a line into `core`'s caches without charging latency —
    /// used by the wake-prefetcher (§4) to warm a thread's working set.
    pub fn warm(&mut self, core: usize, addr: PAddr, part: PartitionId) {
        self.l3.fill(addr, part, false);
        let cc = &mut self.cores[core];
        cc.l2.fill(addr, part, false);
        cc.l1.fill(addr, part, false);
    }

    /// Declares a partition quota at the shared L3 (the level §4 pins).
    pub fn set_l3_partition(&mut self, part: PartitionId, fraction: f64) {
        self.l3.set_partition_target(part, fraction);
    }

    /// A device deposits a line in the shared L3 — DDIO-style DMA: the
    /// private levels lose their stale copies and the L3 holds the line
    /// dirty in the default partition ([`Cache::deposit`]). Like any
    /// invalidation, it writes nothing back.
    pub fn dma_deposit(&mut self, addr: PAddr) {
        for c in &mut self.cores {
            c.l1.invalidate(addr);
            c.l2.invalidate(addr);
        }
        self.l3.deposit(addr);
    }

    /// Per-level (hits, misses) aggregated over cores: `(l1, l2, l3)`.
    #[must_use]
    pub fn level_stats(&self) -> ((u64, u64), (u64, u64), (u64, u64)) {
        let agg = |level: fn(&CoreCaches) -> &Cache| {
            self.cores.iter().fold((0, 0), |(h, m), c| {
                let (ch, cm) = level(c).hit_miss();
                (h + ch, m + cm)
            })
        };
        (agg(|c| &c.l1), agg(|c| &c.l2), self.l3.hit_miss())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(2, HierarchyConfig::tiny())
    }

    #[test]
    fn cold_access_goes_to_dram() {
        let mut m = h();
        let r = m.access(
            Cycles(0),
            0,
            PAddr(0x1000),
            AccessKind::Read,
            PartitionId::DEFAULT,
        );
        assert_eq!(r.level, HitLevel::Dram);
        assert!(r.latency > Cycles(180));
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = h();
        let a = PAddr(0x1000);
        m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        let r = m.access(Cycles(10), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, Cycles(4));
    }

    #[test]
    fn other_core_hits_shared_l3() {
        let mut m = h();
        let a = PAddr(0x1000);
        m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        let r = m.access(Cycles(10), 1, a, AccessKind::Read, PartitionId::DEFAULT);
        assert_eq!(r.level, HitLevel::L3);
        assert_eq!(r.latency, Cycles(42));
    }

    #[test]
    fn warm_makes_l1_hit() {
        let mut m = h();
        let a = PAddr(0x2000);
        m.warm(0, a, PartitionId::DEFAULT);
        let r = m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn level_stats_accumulate() {
        let mut m = h();
        let a = PAddr(0x4000);
        m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        m.access(Cycles(1), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        let ((l1h, l1m), _, (l3h, l3m)) = m.level_stats();
        assert_eq!((l1h, l1m), (1, 1));
        assert_eq!((l3h, l3m), (0, 1));
    }

    /// 32 lines, written, then read back: core 0's L2 holds all of
    /// them, its L1 the last 16.
    fn warmed() -> Hierarchy {
        let mut m = h();
        for i in 0..32u64 {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            m.access(Cycles(i), 0, PAddr(i * 64), kind, PartitionId::DEFAULT);
        }
        m
    }

    #[test]
    fn core_view_round_trip_equals_direct_access() {
        let mut direct = warmed();
        let mut viewed = direct.clone();
        let mut view = viewed.core_view(0);
        // Every line is L1- or L2-resident: L2 hits refill the L1 and
        // write dirty victims back.
        for round in 0..3u64 {
            for i in 0..32u64 {
                let addr = PAddr(i * 64 + round * 8);
                let kind = if (i + round) % 2 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let want = direct.access(Cycles(100), 0, addr, kind, PartitionId::DEFAULT);
                let got = view.try_access(addr, kind, PartitionId::DEFAULT);
                assert_eq!(got, Some(want));
            }
        }
        viewed.commit_core_view(0, view);
        assert_eq!(format!("{direct:?}"), format!("{viewed:?}"));
        assert_eq!(direct.level_stats(), viewed.level_stats());
        assert_eq!(direct.writebacks(), viewed.writebacks());
        assert!(
            direct.writebacks().0 > 0,
            "the stream must evict dirty L1 lines"
        );
    }

    #[test]
    fn l3_bound_try_access_leaves_view_untouched() {
        let mut m = warmed();
        // In the shared L3 only (core 1 pulled it in), and nowhere.
        let l3_only = PAddr(0x8000);
        m.access(
            Cycles(0),
            1,
            l3_only,
            AccessKind::Read,
            PartitionId::DEFAULT,
        );
        let mut view = m.core_view(0);
        let before = format!("{view:?}");
        for addr in [l3_only, PAddr(0x9000)] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                assert_eq!(view.try_access(addr, kind, PartitionId::DEFAULT), None);
                assert_eq!(format!("{view:?}"), before);
            }
        }
    }

    #[test]
    fn l3_partition_survives_thrash_from_other_core() {
        let mut m = Hierarchy::new(1, HierarchyConfig::tiny());
        let pinned_part = PartitionId(3);
        m.set_l3_partition(pinned_part, 0.2);
        let pinned = PAddr(0);
        m.access(Cycles(0), 0, pinned, AccessKind::Read, pinned_part);
        // Thrash far more lines than the L3 holds.
        for i in 1..2000u64 {
            m.access(
                Cycles(i),
                0,
                PAddr(i * 64),
                AccessKind::Read,
                PartitionId::DEFAULT,
            );
        }
        // Pinned line must still be on-chip: next access must not be DRAM.
        let r = m.access(Cycles(9999), 0, pinned, AccessKind::Read, pinned_part);
        assert!(r.level < HitLevel::Dram, "pinned line went off-chip");
    }
}

#[cfg(test)]
mod writeback_tests {
    use super::*;

    #[test]
    fn dirty_evictions_are_counted() {
        let mut m = Hierarchy::new(1, HierarchyConfig::tiny());
        // Dirty many lines mapping beyond L1 capacity (1 KiB = 16 lines).
        for i in 0..64u64 {
            m.access(
                Cycles(i),
                0,
                PAddr(i * 64),
                AccessKind::Write,
                PartitionId::DEFAULT,
            );
        }
        let (l1_wb, _, _) = m.writebacks();
        assert!(l1_wb > 0, "dirty L1 evictions must be counted");
    }

    #[test]
    fn clean_traffic_produces_no_writebacks() {
        let mut m = Hierarchy::new(1, HierarchyConfig::tiny());
        for i in 0..64u64 {
            m.access(
                Cycles(i),
                0,
                PAddr(i * 64),
                AccessKind::Read,
                PartitionId::DEFAULT,
            );
        }
        assert_eq!(m.writebacks(), (0, 0, 0));
    }
}
