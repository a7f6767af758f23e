//! The thread-state storage hierarchy (§4 "Storage for Thread State").
//!
//! The paper's central hardware-feasibility argument: keep a small number
//! of threads' register state in a fast **register-file tier** (starts
//! cost ~a pipeline refill, ≈20 cycles), back more threads in fractions of
//! the private **L2** and shared **L3** (bulk transfers over 32-byte links
//! cost 10–50 cycles), and spill the long tail to **DRAM** (off-chip,
//! "severe performance losses"). This module models that placement with
//! the three §4 optimizations as switchable policies:
//!
//! * *criticality placement* — keep high-priority threads in the RF tier;
//! * *dirty-register tracking* — transfer only touched state;
//! * *wake-prefetch* — start the transfer when a thread becomes runnable
//!   rather than when it is first scheduled (driven by the machine).

use switchless_sim::time::Cycles;

use crate::tid::Ptid;

/// Where a parked thread's architectural state currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Register-file tier: immediately startable.
    Rf,
    /// Private L2 fraction.
    L2,
    /// Shared L3 fraction.
    L3,
    /// Spilled off-chip.
    Dram,
}

impl Tier {
    /// Short label for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Rf => "rf",
            Tier::L2 => "l2",
            Tier::L3 => "l3",
            Tier::Dram => "dram",
        }
    }
}

/// Capacities, costs and policy switches for a per-core [`StateStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Threads whose state fits the RF tier (per core).
    pub rf_threads: usize,
    /// Threads backed by the L2 fraction (per core).
    pub l2_threads: usize,
    /// Threads backed by this core's share of L3.
    pub l3_threads: usize,
    /// Pipeline-refill cost to start an RF-resident thread (§4: ~20).
    pub rf_start: Cycles,
    /// Interconnect link width for bulk state transfer (§4: 32-byte).
    pub link_bytes_per_cycle: u64,
    /// Base latency of an L2 state transfer (§4: 10–50 cycle range).
    pub l2_base: Cycles,
    /// Base latency of an L3 state transfer.
    pub l3_base: Cycles,
    /// Base latency of a DRAM state transfer (off-chip).
    pub dram_base: Cycles,
    /// Track touched registers and transfer only those (§4 optimization).
    pub dirty_tracking: bool,
    /// Evict low-priority threads from the RF tier first (§4: "selecting
    /// which threads are stored closer to the core based on criticality").
    pub criticality_placement: bool,
    /// Begin the state transfer at wakeup rather than first dispatch.
    pub prefetch_on_wake: bool,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            rf_threads: 16,
            l2_threads: 64,
            l3_threads: 512,
            rf_start: Cycles(20),
            link_bytes_per_cycle: 32,
            l2_base: Cycles(10),
            l3_base: Cycles(30),
            dram_base: Cycles(200),
            dirty_tracking: true,
            criticality_placement: true,
            prefetch_on_wake: true,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    tier: Tier,
    stamp: u64,
    prio: u8,
}

/// Per-core thread-state placement and activation-cost model.
///
/// Placement state is ptid-indexed vectors and per-tier arrays rather
/// than hash maps: [`StateStore::tier_of`]/[`StateStore::touch`] run on
/// every dispatch, so lookups must be bare indexing. Victim selection
/// scans `entries` in ptid order, but stamps are unique and compared
/// strictly, so the chosen minimum never depends on scan order.
#[derive(Clone, Debug)]
pub struct StateStore {
    config: StoreConfig,
    /// Placement per ptid; `None` for threads never activated here.
    entries: Vec<Option<Entry>>,
    /// Resident-thread counts, indexed by `Tier as usize`.
    counts: [usize; 4],
    tick: u64,
    /// Lifetime activations served, indexed by `Tier as usize`.
    activations: [u64; 4],
}

impl StateStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new(config: StoreConfig) -> StateStore {
        StateStore {
            config,
            entries: Vec::new(),
            counts: [0; 4],
            tick: 0,
            activations: [0; 4],
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Tier a thread's state currently occupies (unknown threads are
    /// considered DRAM-resident — never yet loaded).
    #[must_use]
    pub fn tier_of(&self, ptid: Ptid) -> Tier {
        match self.entries.get(ptid.0 as usize) {
            Some(&Some(e)) => e.tier,
            _ => Tier::Dram,
        }
    }

    fn slot(&mut self, ptid: Ptid) -> &mut Option<Entry> {
        let i = ptid.0 as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        &mut self.entries[i]
    }

    /// Cost to begin executing a thread whose state is in `tier`, given
    /// the bytes that must move.
    #[must_use]
    pub fn activation_cost(&self, tier: Tier, bytes: u64) -> Cycles {
        let link = self.config.link_bytes_per_cycle.max(1);
        let xfer = Cycles(bytes.div_ceil(link));
        match tier {
            Tier::Rf => self.config.rf_start,
            Tier::L2 => self.config.rf_start + self.config.l2_base + xfer,
            Tier::L3 => self.config.rf_start + self.config.l3_base + xfer,
            Tier::Dram => self.config.rf_start + self.config.dram_base + xfer,
        }
    }

    /// Activates a thread: charges the tier cost and promotes the thread
    /// into the RF tier, demoting victims down the hierarchy.
    ///
    /// `bytes` is the state volume to transfer (the machine passes the
    /// dirty subset when dirty tracking is on). Returns the activation
    /// latency and the tier the state was found in.
    pub fn activate(&mut self, ptid: Ptid, prio: u8, bytes: u64) -> (Cycles, Tier) {
        let from = self.tier_of(ptid);
        let cost = self.activation_cost(from, bytes);
        self.activations[from as usize] += 1;
        self.tick += 1;
        // Remove from current tier.
        if let Some(e) = self.slot(ptid).take() {
            self.counts[e.tier as usize] = self.counts[e.tier as usize].saturating_sub(1);
        }
        self.place(ptid, Tier::Rf, prio);
        (cost, from)
    }

    /// Refreshes recency (called when a resident thread is dispatched).
    ///
    /// A burst dispatch (machine.rs) touches once per *burst*, not once
    /// per instruction. That is exact, not approximate: ticks are
    /// strictly increasing and only their relative order is ever read
    /// (LRU victim choice compares stamps), and no other thread is
    /// dispatched on the core inside a burst (it is the core's sole
    /// enrolled thread) — no other thread's stamp can land between the
    /// elided touches, so every victim comparison orders identically. A
    /// wake's state prefetch does stamp another thread, but a wake
    /// enrols that thread, which ends the burst.
    pub fn touch(&mut self, ptid: Ptid) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(Some(e)) = self.entries.get_mut(ptid.0 as usize) {
            e.stamp = tick;
        }
    }

    /// Removes a thread entirely (destroyed / reset).
    pub fn remove(&mut self, ptid: Ptid) {
        let i = ptid.0 as usize;
        if i < self.entries.len() {
            if let Some(e) = self.entries[i].take() {
                self.counts[e.tier as usize] = self.counts[e.tier as usize].saturating_sub(1);
            }
        }
    }

    /// Number of threads resident in `tier`.
    #[must_use]
    pub fn occupancy(&self, tier: Tier) -> usize {
        self.counts[tier as usize]
    }

    /// Lifetime activations served from each tier `(rf, l2, l3, dram)`.
    #[must_use]
    pub fn activation_stats(&self) -> (u64, u64, u64, u64) {
        let a = &self.activations;
        (a[0], a[1], a[2], a[3])
    }

    fn capacity(&self, tier: Tier) -> usize {
        match tier {
            Tier::Rf => self.config.rf_threads,
            Tier::L2 => self.config.l2_threads,
            Tier::L3 => self.config.l3_threads,
            Tier::Dram => usize::MAX,
        }
    }

    fn next_down(tier: Tier) -> Tier {
        match tier {
            Tier::Rf => Tier::L2,
            Tier::L2 => Tier::L3,
            Tier::L3 | Tier::Dram => Tier::Dram,
        }
    }

    /// Places a thread in `tier`, demoting a victim if over capacity.
    /// Demotions are modeled as free (write-back happens off the critical
    /// path; the cost is paid by whoever re-activates the victim later).
    fn place(&mut self, ptid: Ptid, tier: Tier, prio: u8) {
        self.tick += 1;
        *self.slot(ptid) = Some(Entry {
            tier,
            stamp: self.tick,
            prio,
        });
        self.counts[tier as usize] += 1;
        // Cascade demotions while any tier is over capacity.
        let mut t = tier;
        while t != Tier::Dram && self.occupancy(t) > self.capacity(t) {
            let victim = self.pick_victim(t, ptid);
            let Some(victim) = victim else { break };
            let down = StateStore::next_down(t);
            if let Some(Some(e)) = self.entries.get_mut(victim.0 as usize) {
                e.tier = down;
            }
            self.counts[t as usize] -= 1;
            self.counts[down as usize] += 1;
            t = down;
        }
    }

    /// LRU victim in `tier`, or lowest-priority-then-LRU when criticality
    /// placement is enabled. Never evicts `protect` (the just-placed
    /// thread).
    fn pick_victim(&self, tier: Tier, protect: Ptid) -> Option<Ptid> {
        let mut best: Option<(u8, u64, Ptid)> = None;
        for (i, slot) in self.entries.iter().enumerate() {
            let Some(e) = slot else { continue };
            let p = Ptid(i as u32);
            if e.tier != tier || p == protect {
                continue;
            }
            let key = if self.config.criticality_placement {
                (e.prio, e.stamp, p)
            } else {
                (0, e.stamp, p)
            };
            if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                best = Some(key);
            }
        }
        best.map(|(_, _, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StateStore {
        StateStore::new(StoreConfig {
            rf_threads: 2,
            l2_threads: 2,
            l3_threads: 2,
            ..StoreConfig::default()
        })
    }

    #[test]
    fn costs_match_paper_ranges() {
        let s = StateStore::new(StoreConfig::default());
        // RF start: one pipeline refill, ~20 cycles.
        assert_eq!(s.activation_cost(Tier::Rf, 160), Cycles(20));
        // L2: 20 + 10 + ceil(160/32)=5 -> 35 cycles.
        assert_eq!(s.activation_cost(Tier::L2, 160), Cycles(35));
        // L3: 20 + 30 + 5 = 55.
        assert_eq!(s.activation_cost(Tier::L3, 160), Cycles(55));
        // DRAM: 20 + 200 + 5 = 225 -> clearly "severe".
        assert_eq!(s.activation_cost(Tier::Dram, 160), Cycles(225));
    }

    #[test]
    fn unknown_thread_is_dram_resident() {
        let s = tiny();
        assert_eq!(s.tier_of(Ptid(9)), Tier::Dram);
    }

    #[test]
    fn first_activation_comes_from_dram() {
        let mut s = tiny();
        let (cost, from) = s.activate(Ptid(1), 0, 160);
        assert_eq!(from, Tier::Dram);
        assert!(cost > Cycles(200));
        assert_eq!(s.tier_of(Ptid(1)), Tier::Rf);
    }

    #[test]
    fn reactivation_is_rf_cheap() {
        let mut s = tiny();
        s.activate(Ptid(1), 0, 160);
        let (cost, from) = s.activate(Ptid(1), 0, 160);
        assert_eq!(from, Tier::Rf);
        assert_eq!(cost, Cycles(20));
    }

    #[test]
    fn overflow_demotes_lru_down_the_hierarchy() {
        let mut s = tiny();
        // Capacity 2 per tier: activating 3 threads pushes the LRU to L2.
        s.activate(Ptid(1), 0, 160);
        s.activate(Ptid(2), 0, 160);
        s.activate(Ptid(3), 0, 160);
        assert_eq!(s.tier_of(Ptid(1)), Tier::L2);
        assert_eq!(s.tier_of(Ptid(2)), Tier::Rf);
        assert_eq!(s.tier_of(Ptid(3)), Tier::Rf);
        // Five more: the oldest cascade all the way down.
        for i in 4..=7 {
            s.activate(Ptid(i), 0, 160);
        }
        assert_eq!(s.occupancy(Tier::Rf), 2);
        assert_eq!(s.occupancy(Tier::L2), 2);
        assert_eq!(s.occupancy(Tier::L3), 2);
        assert_eq!(s.occupancy(Tier::Dram), 1);
    }

    #[test]
    fn criticality_placement_protects_high_priority() {
        let mut s = tiny();
        s.activate(Ptid(1), 7, 160); // high priority
        s.activate(Ptid(2), 0, 160);
        s.activate(Ptid(3), 0, 160); // RF full: victim should be ptid2
        assert_eq!(s.tier_of(Ptid(1)), Tier::Rf, "high-prio stays in RF");
        assert_eq!(s.tier_of(Ptid(2)), Tier::L2);
    }

    #[test]
    fn without_criticality_lru_wins() {
        let mut s = StateStore::new(StoreConfig {
            rf_threads: 2,
            l2_threads: 2,
            l3_threads: 2,
            criticality_placement: false,
            ..StoreConfig::default()
        });
        s.activate(Ptid(1), 7, 160);
        s.activate(Ptid(2), 0, 160);
        s.activate(Ptid(3), 0, 160);
        // LRU is ptid1 despite its priority.
        assert_eq!(s.tier_of(Ptid(1)), Tier::L2);
    }

    #[test]
    fn touch_refreshes_lru() {
        let mut s = tiny();
        s.activate(Ptid(1), 0, 160);
        s.activate(Ptid(2), 0, 160);
        s.touch(Ptid(1)); // now ptid2 is LRU
        s.activate(Ptid(3), 0, 160);
        assert_eq!(s.tier_of(Ptid(1)), Tier::Rf);
        assert_eq!(s.tier_of(Ptid(2)), Tier::L2);
    }

    #[test]
    fn dirty_bytes_shrink_transfer() {
        let s = StateStore::new(StoreConfig::default());
        let full = s.activation_cost(Tier::L3, 160);
        let dirty = s.activation_cost(Tier::L3, 32);
        assert!(dirty < full);
        assert_eq!(full - dirty, Cycles(4)); // (160-32)/32 link cycles
    }

    #[test]
    fn activation_stats_by_tier() {
        let mut s = tiny();
        s.activate(Ptid(1), 0, 160); // dram
        s.activate(Ptid(1), 0, 160); // rf
        let (rf, l2, l3, dram) = s.activation_stats();
        assert_eq!((rf, l2, l3, dram), (1, 0, 0, 1));
    }

    #[test]
    fn remove_frees_slot() {
        let mut s = tiny();
        s.activate(Ptid(1), 0, 160);
        s.remove(Ptid(1));
        assert_eq!(s.occupancy(Tier::Rf), 0);
        assert_eq!(s.tier_of(Ptid(1)), Tier::Dram);
    }
}
