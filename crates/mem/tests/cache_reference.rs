//! Differential test: [`Cache`] against the array-of-structs model it
//! replaced, kept here as the reference: one `Way` struct per way and
//! partition targets and occupancy in hash maps keyed by partition id.
//!
//! Seeded op streams run through both with no, one, and several declared
//! partitions, and with ids near `u32::MAX`. After every op the test
//! compares the op's result, hits and misses, every partition's
//! occupancy and the residency of every line in play. The new
//! [`Cache::deposit`] is checked against the reference's `invalidate`
//! then dirty default-partition `fill`.

use switchless_mem::addr::{PAddr, LINE_BYTES};
use switchless_mem::cache::{Cache, CacheGeom, PartitionId, Writeback};
use switchless_sim::hash::FxHashMap;
use switchless_sim::rng::Rng;

#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    part: PartitionId,
    stamp: u64,
}

struct RefCache {
    geom: CacheGeom,
    sets: u64,
    ways: Vec<Way>,
    tick: u64,
    targets: FxHashMap<PartitionId, u64>,
    occupancy: FxHashMap<PartitionId, u64>,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(geom: CacheGeom) -> RefCache {
        let sets = geom.sets();
        let invalid = Way {
            tag: 0,
            valid: false,
            dirty: false,
            part: PartitionId(0),
            stamp: 0,
        };
        RefCache {
            geom,
            sets,
            ways: vec![invalid; (sets * u64::from(geom.ways)) as usize],
            tick: 0,
            targets: FxHashMap::default(),
            occupancy: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    fn set_partition_target(&mut self, part: PartitionId, fraction: f64) {
        let lines = (self.geom.lines() as f64 * fraction.clamp(0.0, 1.0)) as u64;
        self.targets.insert(part, lines.max(1));
    }

    fn occupancy(&self, part: PartitionId) -> u64 {
        self.occupancy.get(&part).copied().unwrap_or(0)
    }

    fn set_range(&self, addr: PAddr) -> std::ops::Range<usize> {
        let set = (addr.0 / LINE_BYTES) & (self.sets - 1);
        let base = (set * u64::from(self.geom.ways)) as usize;
        base..base + self.geom.ways as usize
    }

    fn access(&mut self, addr: PAddr, write: bool) -> bool {
        let tag = addr.0 / LINE_BYTES;
        let range = self.set_range(addr);
        self.tick += 1;
        for w in &mut self.ways[range] {
            if w.valid && w.tag == tag {
                w.stamp = self.tick;
                w.dirty |= write;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    fn access_run_mixed(&mut self, lines: &[(PAddr, u64, bool)], n: u64) -> bool {
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

    fn contains(&self, addr: PAddr) -> bool {
        let tag = addr.0 / LINE_BYTES;
        let range = self.set_range(addr);
        self.ways[range].iter().any(|w| w.valid && w.tag == tag)
    }

    fn fill(&mut self, addr: PAddr, part: PartitionId, write: bool) -> Option<Writeback> {
        self.tick += 1;
        let tag = addr.0 / LINE_BYTES;
        let range = self.set_range(addr);
        for w in &mut self.ways[range.clone()] {
            if w.valid && w.tag == tag {
                w.stamp = self.tick;
                w.dirty |= write;
                return None;
            }
        }
        let mut victim = range.clone().find(|&i| !self.ways[i].valid);
        if victim.is_none() {
            let mut best: Option<(u64, usize)> = None;
            for i in range.clone() {
                let w = &self.ways[i];
                let over = match self.targets.get(&w.part) {
                    Some(&t) => self.occupancy(w.part) > t,
                    None => true,
                };
                if over && best.is_none_or(|(s, _)| w.stamp < s) {
                    best = Some((w.stamp, i));
                }
            }
            victim = best.map(|(_, i)| i);
        }
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

    fn invalidate(&mut self, addr: PAddr) -> Option<Writeback> {
        let tag = addr.0 / LINE_BYTES;
        for i in self.set_range(addr) {
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

    fn flush_all(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            w.dirty = false;
        }
        self.occupancy.clear();
    }
}

/// 4 sets x 4 ways.
const GEOM: CacheGeom = CacheGeom {
    size_bytes: 1024,
    ways: 4,
};

/// Addresses in play: 48 lines over the 4 sets (some named by an
/// interior byte) and two lines at the top of the address space.
fn universe() -> Vec<PAddr> {
    let mut u: Vec<PAddr> = (0..48u64)
        .map(|l| PAddr(l * LINE_BYTES + (l % 3) * 8))
        .collect();
    u.push(PAddr(u64::MAX - 7));
    u.push(PAddr(u64::MAX - LINE_BYTES - 7));
    u
}

/// Runs `ops` seeded ops through both models with fills drawn from
/// `parts`, declaring `targets` up front and re-declaring one now and
/// then.
fn differential(seed: u64, ops: usize, parts: &[PartitionId], targets: &[(PartitionId, f64)]) {
    let mut rng = Rng::seed_from(seed);
    let mut new = Cache::new(GEOM);
    let mut old = RefCache::new(GEOM);
    for &(p, f) in targets {
        new.set_partition_target(p, f);
        old.set_partition_target(p, f);
    }
    let u = universe();
    let pick = |rng: &mut Rng| u[rng.next_below(u.len() as u64) as usize];
    let mut watched: Vec<PartitionId> = parts.to_vec();
    watched.extend([PartitionId::DEFAULT, PartitionId(4242)]);
    for op in 0..ops {
        let ctx = format!("seed {seed} op {op}");
        let write = rng.chance(0.3);
        match rng.next_below(100) {
            0..30 => {
                let a = pick(&mut rng);
                assert_eq!(new.access(a, write), old.access(a, write), "access: {ctx}");
            }
            30..60 => {
                let a = pick(&mut rng);
                let p = parts[rng.next_below(parts.len() as u64) as usize];
                assert_eq!(new.fill(a, p, write), old.fill(a, p, write), "fill: {ctx}");
            }
            60..70 => {
                let a = pick(&mut rng);
                assert_eq!(new.invalidate(a), old.invalidate(a), "invalidate: {ctx}");
            }
            70..82 => {
                let a = pick(&mut rng);
                old.invalidate(a);
                let want = old.fill(a, PartitionId::DEFAULT, true);
                assert_eq!(new.deposit(a), want, "deposit: {ctx}");
            }
            82..97 => {
                // Distinct lines with distinct last-access indices in 1..=n.
                let k = 1 + rng.next_below(4) as usize;
                let n = k as u64 + rng.next_below(4);
                let mut idx: Vec<u64> = (1..=n).collect();
                rng.shuffle(&mut idx);
                let mut lines: Vec<(PAddr, u64, bool)> = Vec::new();
                while lines.len() < k {
                    let a = pick(&mut rng);
                    if lines.iter().all(|&(l, _, _)| l.line() != a.line()) {
                        lines.push((a, idx[lines.len()], rng.chance(0.3)));
                    }
                }
                assert_eq!(
                    new.access_run_mixed(&lines, n),
                    old.access_run_mixed(&lines, n),
                    "access_run_mixed: {ctx}"
                );
            }
            97..99 if !targets.is_empty() => {
                let (p, _) = targets[rng.next_below(targets.len() as u64) as usize];
                let f = rng.next_f64() * 0.5;
                new.set_partition_target(p, f);
                old.set_partition_target(p, f);
            }
            _ => {
                new.flush_all();
                old.flush_all();
            }
        }
        assert_eq!(new.hit_miss(), (old.hits, old.misses), "hits/misses: {ctx}");
        for &p in &watched {
            assert_eq!(new.occupancy(p), old.occupancy(p), "occupancy {p:?}: {ctx}");
        }
        for &a in &u {
            assert_eq!(new.contains(a), old.contains(a), "residency {a:?}: {ctx}");
        }
    }
}

#[test]
fn matches_reference_without_partitions() {
    for seed in 0..12 {
        differential(seed, 3_000, &[PartitionId::DEFAULT], &[]);
    }
}

#[test]
fn matches_reference_with_one_partition() {
    let p = PartitionId(1);
    for seed in 100..112 {
        differential(seed, 3_000, &[PartitionId::DEFAULT, p], &[(p, 0.25)]);
    }
}

#[test]
fn matches_reference_with_several_partitions() {
    let ids = [1, 2, 3, 7, 9].map(PartitionId);
    let targets = [(ids[0], 0.1), (ids[1], 0.25), (ids[2], 0.05), (ids[3], 0.4)];
    let mut parts = vec![PartitionId::DEFAULT];
    parts.extend(ids); // 9 stays unmanaged
    for seed in 200..212 {
        differential(seed, 3_000, &parts, &targets);
    }
}

#[test]
fn matches_reference_with_partition_ids_near_u32_max() {
    let (a, b) = (PartitionId(u32::MAX), PartitionId(u32::MAX - 1));
    let parts = [PartitionId::DEFAULT, a, b];
    for seed in 300..312 {
        differential(seed, 3_000, &parts, &[(a, 0.2), (b, 0.1)]);
    }
}

#[test]
fn writebacks_match_reference_under_dirty_thrash() {
    // Every op writes: the dirty-victim path runs on nearly every fill.
    let mut new = Cache::new(GEOM);
    let mut old = RefCache::new(GEOM);
    let mut rng = Rng::seed_from(9);
    let u = universe();
    let mut wbs = 0;
    for _ in 0..5_000 {
        let a = u[rng.next_below(u.len() as u64) as usize];
        let wb = new.fill(a, PartitionId::DEFAULT, true);
        assert_eq!(wb, old.fill(a, PartitionId::DEFAULT, true));
        wbs += usize::from(wb.is_some());
    }
    assert!(wbs > 1_000, "the stream must evict dirty lines: {wbs}");
}
