//! Differential fuzz for `EventQueue`: random interleavings of
//! `schedule` / `cancel` / `pop_due` / `pop_keyed` / `restore` with times
//! spanning well past the 4096-cycle wheel horizon, checked against a
//! naive reference model (a flat list ordered by the same `(time, issue
//! order)` key). This is exactly the API surface the burst engine and the
//! shard engine lean on; wheel-cursor and overflow-spill bugs hide here.
//!
//! Besides uniformly random times, the scenarios build the schedules the
//! simulator really produces beyond the horizon: a pre-scheduled arrival
//! trace in time order (the far FIFO), several sorted streams scheduled
//! one after another (far FIFO and heap at once), schedules in the
//! past, and same-cycle ties between far entries the advancing window
//! moved into the wheel and entries scheduled there afterwards.

use std::collections::BTreeSet;

use switchless_sim::event::{EventQueue, EventToken};
use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

/// The wheel horizon in cycles.
const HORIZON: u64 = 4096;

/// Where a scheduled event currently is, from the model's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Where {
    /// In the queue, poppable.
    Live,
    /// Removed with `pop_keyed`, restorable.
    Held,
    /// Popped for good or cancelled.
    Gone,
}

struct Rec {
    at: Cycles,
    token: EventToken,
    val: u64,
    site: Where,
}

/// The queue under test beside its reference model. The queue orders by
/// `(time, schedule order)` and `restore` preserves the original key, so
/// an ordered set of `(time, issue index)` pairs — the textbook
/// priority-queue semantics — is the whole specification. Every method
/// applies one operation to both and checks they agree.
struct Harness {
    label: String,
    q: EventQueue<u64>,
    recs: Vec<Rec>,
    live: BTreeSet<(Cycles, usize)>,
    /// Highest time popped so far (the machine's clock).
    now: Cycles,
}

impl Harness {
    fn new(label: String) -> Harness {
        Harness {
            label,
            q: EventQueue::new(),
            recs: Vec::new(),
            live: BTreeSet::new(),
            now: Cycles(0),
        }
    }

    fn min_live(&self) -> Option<usize> {
        self.live.first().map(|&(_, i)| i)
    }

    fn set_site(&mut self, i: usize, site: Where) {
        let key = (self.recs[i].at, i);
        if site == Where::Live {
            self.live.insert(key);
        } else {
            self.live.remove(&key);
        }
        self.recs[i].site = site;
    }

    /// Schedules a new event at `at`; returns its record index.
    fn schedule(&mut self, at: Cycles) -> usize {
        let i = self.recs.len();
        let val = i as u64;
        let token = self.q.schedule(at, val);
        self.recs.push(Rec {
            at,
            token,
            val,
            site: Where::Live,
        });
        self.live.insert((at, i));
        i
    }

    /// Bounded pop; advances the clock. Returns the popped record.
    fn pop_due(&mut self, bound: Cycles) -> Option<usize> {
        let got = self.q.pop_due(bound);
        let want = self.min_live().filter(|&i| self.recs[i].at <= bound);
        match (got, want) {
            (None, None) => None,
            (Some((at, val)), Some(i)) => {
                let r = &self.recs[i];
                assert_eq!((at, val), (r.at, r.val), "{}: pop_due", self.label);
                self.set_site(i, Where::Gone);
                self.now = self.now.max(at);
                Some(i)
            }
            (got, want) => panic!(
                "{}: pop_due diverged: queue {:?} vs model {:?}",
                self.label,
                got,
                want.map(|i| (self.recs[i].at, self.recs[i].val)),
            ),
        }
    }

    /// Unbounded pop that can be restored. Returns the held record.
    fn pop_keyed(&mut self) -> Option<usize> {
        match (self.q.pop_keyed(), self.min_live()) {
            (None, None) => None,
            (Some((at, token, val)), Some(i)) => {
                let r = &self.recs[i];
                assert_eq!(
                    (at, token, val),
                    (r.at, r.token, r.val),
                    "{}: pop_keyed",
                    self.label
                );
                self.set_site(i, Where::Held);
                Some(i)
            }
            (got, want) => panic!(
                "{}: pop_keyed diverged: queue {:?} vs model {:?}",
                self.label,
                got,
                want.map(|i| (self.recs[i].at, self.recs[i].val)),
            ),
        }
    }

    /// Puts a held record back under its original key.
    fn restore(&mut self, i: usize) {
        let r = &self.recs[i];
        assert_eq!(r.site, Where::Held, "{}: restore of a non-held", self.label);
        self.q.restore(r.token, r.val);
        self.set_site(i, Where::Live);
    }

    /// Cancels any record ever issued; the queue must report whether it
    /// was actually live (popped/cancelled tokens are refused).
    fn cancel(&mut self, i: usize) -> bool {
        let want = self.recs[i].site == Where::Live;
        assert_eq!(
            self.q.cancel(self.recs[i].token),
            want,
            "{}: cancel",
            self.label
        );
        if want {
            self.set_site(i, Where::Gone);
        }
        want
    }

    /// Checks the queue's exact length and deadline against the model.
    fn check(&self) {
        let label = &self.label;
        assert_eq!(self.q.len(), self.live.len(), "{label}: len");
        let want_deadline = self.min_live().map(|i| self.recs[i].at);
        assert_eq!(self.q.peek_time(), want_deadline, "{label}: peek_time");
    }

    /// Drains what is left in the queue and checks full order agreement.
    fn drain(&mut self) {
        while self.pop_due(Cycles(u64::MAX)).is_some() {}
        assert_eq!(
            self.q.pop_due(Cycles(u64::MAX)),
            None,
            "{}: drained",
            self.label
        );
        assert!(
            self.live.is_empty(),
            "{}: model has leftover events",
            self.label
        );
    }

    /// Records currently held by `pop_keyed`.
    fn held(&self) -> Vec<usize> {
        (0..self.recs.len())
            .filter(|&i| self.recs[i].site == Where::Held)
            .collect()
    }
}

fn fuzz_once(seed: u64, ops: u32) {
    let mut rng = Rng::seed_from(seed);
    let mut h = Harness::new(format!("seed {seed}"));
    for step in 0..ops {
        h.label = format!("seed {seed} step {step}");
        match rng.next_below(100) {
            // schedule: spread times across several wheel horizons. The
            // clock only moves forward (as in the machine): events are
            // scheduled at or after the highest time `pop_due` handed out.
            0..=39 => {
                h.schedule(h.now + Cycles(rng.next_below(3 * HORIZON)));
            }
            // pop_due: bounded pop, advances the clock.
            40..=64 => {
                h.pop_due(h.now + Cycles(rng.next_below(2 * HORIZON)));
            }
            // pop_keyed: unbounded pop that can be restored.
            65..=79 => {
                h.pop_keyed();
            }
            // restore: put a held entry back under its original key.
            80..=89 => {
                let held = h.held();
                if !held.is_empty() {
                    h.restore(held[rng.next_below(held.len() as u64) as usize]);
                }
            }
            // cancel: any token ever issued.
            _ => {
                if !h.recs.is_empty() {
                    h.cancel(rng.next_below(h.recs.len() as u64) as usize);
                }
            }
        }
        h.check();
    }
    h.drain();
}

#[test]
fn event_queue_matches_reference_model_across_wheel_horizon() {
    for seed in 0..12 {
        fuzz_once(seed, 6_000);
    }
}

#[test]
fn event_queue_matches_reference_model_long_run() {
    // One long run so the wheel window wraps many times and tokens
    // outlive thousands of later schedules before they are cancelled.
    fuzz_once(0xfeed, 40_000);
}

/// Serves every pending event the way the machine does: pop the head;
/// a popped event may schedule a near-term follow-up (instruction and
/// DMA latencies), now and then one in the past; sometimes the head is
/// lifted with `pop_keyed` and restored after newer work is scheduled
/// (epoch staging), and sometimes a random earlier token is cancelled.
fn serve(h: &mut Harness, rng: &mut Rng, far: &[usize]) {
    let mut step = 0u64;
    loop {
        step += 1;
        match rng.next_below(100) {
            // Stage the head (often a far entry when the wheel is idle)
            // and put it back after scheduling behind it.
            0..=7 => {
                let Some(i) = h.pop_keyed() else { break };
                if rng.chance(0.5) {
                    let at = h.recs[i].at;
                    h.schedule(at);
                    h.schedule(at + Cycles(rng.next_below(2 * HORIZON)));
                }
                h.restore(i);
            }
            // Cancel a far arrival (head, middle or already gone).
            8..=11 if !far.is_empty() => {
                h.cancel(far[rng.next_below(far.len() as u64) as usize]);
            }
            // A zero-latency notification stamped in the past.
            12..=14 => {
                let back = rng.next_below(2 * HORIZON);
                h.schedule(Cycles(h.now.0.saturating_sub(back)));
            }
            _ => {
                if h.pop_due(Cycles(u64::MAX)).is_none() {
                    break;
                }
                // Half a follow-up per pop on average, so the queue drains.
                if rng.chance(0.5) {
                    h.schedule(h.now + Cycles(rng.next_below(600)));
                }
            }
        }
        if step.is_multiple_of(8) {
            h.check();
        }
    }
    h.check();
    h.drain();
}

/// Random gap of a Poisson-like arrival trace: mostly shorter than the
/// wheel horizon, often several horizons long.
fn arrival_gap(rng: &mut Rng) -> u64 {
    rng.next_exp(3.0 * HORIZON as f64) as u64
}

#[test]
fn in_order_far_trace_matches_reference_model() {
    // The device-serving shape: every arrival is pre-scheduled in time
    // order before the run, so all but the first few sit beyond the
    // horizon in the far FIFO.
    for seed in 0..8 {
        let mut rng = Rng::seed_from(0xa11e_0000 + seed);
        let mut h = Harness::new(format!("far trace seed {seed}"));
        let mut t = 0u64;
        let mut far = Vec::new();
        for _ in 0..2_000 {
            t += arrival_gap(&mut rng);
            far.push(h.schedule(Cycles(t)));
        }
        // Cancel the FIFO's head, its second entry and a run in the
        // middle before anything pops.
        h.cancel(far[0]);
        h.cancel(far[1]);
        for &i in &far[900..910] {
            h.cancel(i);
        }
        h.check();
        serve(&mut h, &mut rng, &far);
    }
}

#[test]
fn interleaved_sorted_streams_match_reference_model() {
    // The per-core stream shape: each stream is sorted, but the streams
    // are scheduled one after another, so a later stream's early entries
    // land behind the FIFO tail (heap) while its late ones extend the
    // FIFO: both hold far events at once.
    for seed in 0..8 {
        let mut rng = Rng::seed_from(0x5eed_0000 + seed);
        let mut h = Harness::new(format!("streams seed {seed}"));
        let mut far = Vec::new();
        for _stream in 0..4 {
            let mut t = rng.next_below(8 * HORIZON);
            for _ in 0..400 {
                t += arrival_gap(&mut rng);
                far.push(h.schedule(Cycles(t)));
            }
        }
        h.check();
        serve(&mut h, &mut rng, &far);
    }
}

#[test]
fn far_trace_scheduled_while_running_matches_reference_model() {
    // Arrivals appended during the run, each a few horizons past the
    // clock and in time order, with the wheel busy in between.
    for seed in 0..4 {
        let mut rng = Rng::seed_from(0xf1f0_0000 + seed);
        let mut h = Harness::new(format!("running trace seed {seed}"));
        let mut far = Vec::new();
        let mut t = 2 * HORIZON;
        for _ in 0..1_500 {
            t = t.max(h.now.0 + HORIZON) + arrival_gap(&mut rng);
            far.push(h.schedule(Cycles(t)));
            for _ in 0..rng.next_below(4) {
                if h.pop_due(h.now + Cycles(rng.next_below(HORIZON))).is_some() {
                    h.schedule(h.now + Cycles(rng.next_below(300)));
                }
            }
            if rng.chance(0.05) {
                h.cancel(far[rng.next_below(far.len() as u64) as usize]);
            }
            h.check();
        }
        serve(&mut h, &mut rng, &far);
    }
}

#[test]
fn migrated_far_entries_tie_with_wheel_entries() {
    // Far arrivals on a coarse grid, up to three per cycle, move into
    // the wheel as the clock reaches their window. Follow-ups scheduled
    // onto the same grid cycles tie with them and must pop after them;
    // cancels and stage-and-restore hit entries that already moved.
    const GRID: u64 = 256;
    for seed in 0..8 {
        let mut rng = Rng::seed_from(0x71e5_0000 + seed);
        let mut h = Harness::new(format!("ties seed {seed}"));
        let mut far = Vec::new();
        for k in 1..300u64 {
            for _ in 0..=rng.next_below(3) {
                far.push(h.schedule(Cycles(2 * HORIZON + k * GRID)));
            }
        }
        let mut step = 0u64;
        loop {
            step += 1;
            h.label = format!("ties seed {seed} step {step}");
            match rng.next_below(10) {
                // A tie: a grid cycle ahead of the clock, inside the
                // window or just past it.
                0 | 1 => {
                    let k = h.now.0 / GRID + 1 + rng.next_below(HORIZON / GRID);
                    h.schedule(Cycles(k * GRID));
                }
                // Cancel a far arrival the window already covers.
                2 => {
                    let now = h.now;
                    let moved: Vec<usize> = far
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let at = h.recs[i].at;
                            at >= now && at.0 - now.0 < HORIZON
                        })
                        .collect();
                    if !moved.is_empty() {
                        h.cancel(moved[rng.next_below(moved.len() as u64) as usize]);
                    }
                }
                // Stage the head, schedule a same-cycle tie behind it,
                // put it back.
                3 => {
                    let Some(i) = h.pop_keyed() else { break };
                    let at = h.recs[i].at;
                    h.schedule(at);
                    h.restore(i);
                }
                _ => {
                    if h.pop_due(Cycles(u64::MAX)).is_none() {
                        break;
                    }
                }
            }
            h.check();
        }
        h.drain();
    }
}
