//! Differential test: the wake prefetcher's working-set capture against
//! the per-thread `Vec` it replaced, kept here as the reference: the most
//! recent `capacity` distinct lines, oldest first, kept by a linear
//! search and a shift.
//!
//! Seeded streams of single accesses, deduped runs and repeated runs go
//! to both, across capacities from 1 up to the machine's 64, so
//! capacity-edge evictions are frequent. The test compares `wake_set`, `captured_len` and
//! `stats`, also across a `core_view` / `absorb` round trip and after
//! `forget`.

use switchless_mem::addr::{PAddr, LINE_BYTES};
use switchless_mem::monitor::WatchId;
use switchless_mem::prefetch::WakePrefetcher;
use switchless_sim::hash::FxHashMap;
use switchless_sim::rng::Rng;

#[derive(Clone, Default)]
struct RefCapture {
    sets: FxHashMap<WatchId, Vec<PAddr>>,
    capacity: usize,
}

impl RefCapture {
    fn record_run(&mut self, thread: WatchId, lines: &[PAddr]) {
        if lines.is_empty() {
            return;
        }
        let set = self.sets.entry(thread).or_default();
        for &line in lines {
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
            } else if set.len() >= self.capacity {
                set.remove(0);
            }
            set.push(line);
        }
    }

    fn wake_set(&self, thread: WatchId) -> Vec<PAddr> {
        self.sets.get(&thread).cloned().unwrap_or_default()
    }
}

const THREADS: [WatchId; 4] = [WatchId(0), WatchId(1), WatchId(7), WatchId(u64::MAX)];

/// A run of `k` distinct lines from a universe of `lines` lines.
fn distinct_run(rng: &mut Rng, lines: u64, k: usize) -> Vec<PAddr> {
    let mut run: Vec<PAddr> = Vec::new();
    while run.len() < k.min(lines as usize) {
        let l = PAddr(rng.next_below(lines) * LINE_BYTES);
        if !run.contains(&l) {
            run.push(l);
        }
    }
    run
}

fn assert_same(new: &mut WakePrefetcher, old: &RefCapture, replays: &mut (u64, u64), ctx: &str) {
    for t in THREADS {
        let want = old.wake_set(t);
        assert_eq!(new.captured_len(t), want.len(), "captured_len {t:?}: {ctx}");
        assert_eq!(new.wake_set(t), want.as_slice(), "wake_set {t:?}: {ctx}");
        if old.sets.contains_key(&t) {
            replays.0 += 1;
            replays.1 += want.len() as u64;
        }
    }
    assert_eq!(new.stats(), *replays, "stats: {ctx}");
}

/// One seeded stream; the universe is about twice the capacity, so the
/// stream mixes refreshes and evictions.
fn differential(seed: u64, capacity: usize, ops: usize) {
    let mut rng = Rng::seed_from(seed);
    let lines = 2 * capacity as u64 + 3;
    let mut new = WakePrefetcher::new(capacity);
    let mut old = RefCapture {
        capacity,
        ..RefCapture::default()
    };
    let mut replays = (0, 0);
    let mut last_run: (WatchId, Vec<PAddr>) = (THREADS[0], Vec::new());
    for op in 0..ops {
        let ctx = format!("seed {seed} capacity {capacity} op {op}");
        let t = THREADS[rng.next_below(THREADS.len() as u64) as usize];
        match rng.next_below(100) {
            0..60 => {
                // An interior byte: recording keeps the line address.
                let addr = PAddr(rng.next_below(lines) * LINE_BYTES + rng.next_below(64));
                new.capture_mut().record_access(t, addr);
                old.record_run(t, &[addr.line()]);
            }
            60..80 => {
                let k = rng.next_below(2 * capacity as u64 + 2) as usize;
                let run = distinct_run(&mut rng, lines, k);
                new.capture_mut().record_run(t, &run);
                old.record_run(t, &run);
                last_run = (t, run);
            }
            80..90 => {
                // A loop re-running its lines, sometimes one line short
                // or rotated, so the run may or may not be the list's tail.
                let (t, mut run) = last_run.clone();
                match rng.next_below(3) {
                    0 => {}
                    1 => {
                        run.pop();
                    }
                    _ if !run.is_empty() => run.rotate_left(1),
                    _ => {}
                }
                new.capture_mut().record_run(t, &run);
                old.record_run(t, &run);
            }
            90..97 => assert_same(&mut new, &old, &mut replays, &ctx),
            _ => {
                new.forget(t);
                old.sets.remove(&t);
            }
        }
    }
    assert_same(&mut new, &old, &mut replays, &format!("seed {seed} end"));
}

#[test]
fn matches_vec_reference_across_capacities() {
    for (seed, capacity) in [1, 2, 3, 5, 8, 17, 64].into_iter().enumerate() {
        for round in 0..4 {
            differential(seed as u64 * 10 + round, capacity, 2_000);
        }
    }
}

#[test]
fn core_view_absorb_round_trip_matches_vec_reference() {
    let mut rng = Rng::seed_from(77);
    for capacity in [1, 3, 64] {
        let lines = 2 * capacity as u64 + 3;
        let mut direct = WakePrefetcher::new(capacity);
        let mut old = RefCapture {
            capacity,
            ..RefCapture::default()
        };
        for round in 0..30 {
            // The worker's core holds two of the threads.
            let mine = [THREADS[round % 4], THREADS[(round + 1) % 4]];
            let mut viewed = direct.clone();
            let mut view = viewed.core_view(mine);
            for _ in 0..50 {
                let t = mine[rng.next_below(2) as usize];
                let k = 1 + rng.next_below(capacity as u64 + 2) as usize;
                let run = distinct_run(&mut rng, lines, k);
                direct.capture_mut().record_run(t, &run);
                view.record_run(t, &run);
                old.record_run(t, &run);
            }
            viewed.absorb(view);
            for t in THREADS {
                let want = old.wake_set(t);
                assert_eq!(viewed.captured_len(t), want.len(), "round {round}");
                assert_eq!(viewed.wake_set(t), want.as_slice(), "round {round}");
                assert_eq!(direct.wake_set(t), want.as_slice(), "round {round}");
            }
            assert_eq!(direct.stats(), viewed.stats(), "round {round}");
        }
    }
}
