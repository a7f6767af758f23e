//! The hardware TDT cache with explicit `invtid` invalidation.
//!
//! §3.1: "Any update to a ptid's TDT must be followed by an `invtid`.
//! Requiring explicit invalidation facilitates hardware caching and
//! virtualization." We model that caching faithfully: lookups that hit
//! the cache **do not see memory updates** until the entry is invalidated
//! — software that forgets `invtid` observes stale translations, and our
//! tests assert it.

use switchless_sim::hash::{fx_map_with_capacity, FxHashMap};
use switchless_sim::time::Cycles;

use crate::perm::TdtEntry;
use crate::tid::Vtid;

/// Per-core cache of TDT entries, keyed by (table base, vtid).
///
/// Keying by table base means threads with different `TDTR` values never
/// alias, and switching `TDTR` needs no flush — the same behaviour as a
/// PCID-tagged TLB.
#[derive(Clone, Debug)]
pub struct TdtCache {
    /// Fx-hashed: the "random" eviction victim in [`TdtCache::install`]
    /// is now the same on every run, instead of varying with SipHash's
    /// per-process seed.
    entries: FxHashMap<(u64, u16), TdtEntry>,
    capacity: usize,
    hit_cost: Cycles,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl TdtCache {
    /// Creates an empty cache holding up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> TdtCache {
        assert!(capacity > 0, "TDT cache capacity must be positive");
        TdtCache {
            entries: fx_map_with_capacity(capacity),
            capacity,
            hit_cost: Cycles(1),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Looks up a cached entry. `Some((entry, cost))` on hit.
    pub fn lookup(&mut self, tdtr: u64, vtid: Vtid) -> Option<(TdtEntry, Cycles)> {
        match self.entries.get(&(tdtr, vtid.0)) {
            Some(&e) => {
                self.hits += 1;
                Some((e, self.hit_cost))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs an entry fetched from memory (random replacement when
    /// full — TDT caches are tiny and replacement policy is not load-
    /// bearing for any experiment).
    pub fn install(&mut self, tdtr: u64, vtid: Vtid, entry: TdtEntry) {
        if self.entries.len() >= self.capacity {
            if let Some(&k) = self.entries.keys().next() {
                self.entries.remove(&k);
            }
        }
        self.entries.insert((tdtr, vtid.0), entry);
    }

    /// `invtid`: drops the cached entry for `(tdtr, vtid)`.
    pub fn invalidate(&mut self, tdtr: u64, vtid: Vtid) {
        self.invalidations += 1;
        self.entries.remove(&(tdtr, vtid.0));
    }

    /// Lifetime (hits, misses, invalidations).
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.invalidations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::Perms;
    use crate::tid::Ptid;

    #[test]
    fn miss_then_install_then_hit() {
        let mut c = TdtCache::new(8);
        let e = TdtEntry::new(Ptid(5), Perms::ALL);
        assert!(c.lookup(0x1000, Vtid(2)).is_none());
        c.install(0x1000, Vtid(2), e);
        let (got, cost) = c.lookup(0x1000, Vtid(2)).unwrap();
        assert_eq!(got, e);
        assert_eq!(cost, Cycles(1));
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn different_tdtr_does_not_alias() {
        let mut c = TdtCache::new(8);
        c.install(0x1000, Vtid(2), TdtEntry::new(Ptid(5), Perms::ALL));
        assert!(c.lookup(0x2000, Vtid(2)).is_none());
    }

    #[test]
    fn invalidate_drops_entry() {
        let mut c = TdtCache::new(8);
        c.install(0x1000, Vtid(2), TdtEntry::new(Ptid(5), Perms::ALL));
        c.invalidate(0x1000, Vtid(2));
        assert!(c.lookup(0x1000, Vtid(2)).is_none());
        assert_eq!(c.stats(), (0, 1, 1));
    }

    #[test]
    fn stale_entry_persists_until_invtid() {
        // The load-bearing semantic: updating the "memory" copy without
        // invalidation leaves the stale cached entry visible.
        let mut c = TdtCache::new(8);
        let old = TdtEntry::new(Ptid(5), Perms::ALL);
        c.install(0x1000, Vtid(2), old);
        // Software rewrote memory to map vtid2 -> ptid9, but no invtid:
        let (got, _) = c.lookup(0x1000, Vtid(2)).unwrap();
        assert_eq!(got.ptid, Ptid(5), "stale mapping must still be served");
    }

    #[test]
    fn capacity_evicts_something() {
        let mut c = TdtCache::new(2);
        c.install(0, Vtid(0), TdtEntry::new(Ptid(0), Perms::NONE));
        c.install(0, Vtid(1), TdtEntry::new(Ptid(1), Perms::NONE));
        c.install(0, Vtid(2), TdtEntry::new(Ptid(2), Perms::NONE));
        let resident = (0..3).filter(|&i| c.lookup(0, Vtid(i)).is_some()).count();
        assert_eq!(resident, 2);
    }
}
