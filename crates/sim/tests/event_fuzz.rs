//! Differential fuzz for `EventQueue`: random interleavings of
//! `schedule` / `cancel` / `pop_due` and of values kept *outside* the
//! queue under a seq from `issue_seq`, with times spanning well past the
//! 4096-cycle wheel horizon, checked against a naive reference model (a
//! flat list ordered by the same `(time, issue order)` key). An outside
//! value is merged against `peek_key` the way the machine merges a
//! slot's next dispatch with the device queue, so it must order against
//! queued events by `(time, seq)`. This is exactly the API surface the
//! machine's run loop and the epoch engine lean on; wheel-cursor and
//! overflow-spill bugs hide here.
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

/// At most this many values are kept outside the queue at once (the
/// machine keeps one per pipeline slot).
const OUTSIDE_MAX: usize = 8;

/// Where an issued record currently is, from the model's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Where {
    /// In the queue, poppable and cancellable.
    Queued,
    /// Kept outside the queue under an issued seq; pops by the merge.
    Outside,
    /// Popped for good or cancelled.
    Gone,
}

struct Rec {
    at: Cycles,
    /// The cancel token of a queued record; outside records have none.
    token: Option<EventToken>,
    val: u64,
    site: Where,
}

/// The queue under test beside its reference model. Every record takes
/// one seq in issue order, so its index is its seq, and an ordered set
/// of `(time, index)` pairs — the textbook priority-queue semantics —
/// is the whole specification. Every method applies one operation to
/// both and checks they agree.
struct Harness {
    label: String,
    q: EventQueue<u64>,
    recs: Vec<Rec>,
    /// Queued and outside records, in pop order.
    live: BTreeSet<(Cycles, usize)>,
    /// Indices of the outside records.
    outside: Vec<usize>,
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
            outside: Vec::new(),
            now: Cycles(0),
        }
    }

    fn min_live(&self) -> Option<usize> {
        self.live.first().map(|&(_, i)| i)
    }

    /// Schedules a new event at `at`; returns its record index.
    fn schedule(&mut self, at: Cycles) -> usize {
        let i = self.recs.len();
        let val = i as u64;
        let token = self.q.schedule(at, val);
        self.recs.push(Rec {
            at,
            token: Some(token),
            val,
            site: Where::Queued,
        });
        self.live.insert((at, i));
        i
    }

    /// Keeps a new value due at `at` outside the queue under an issued
    /// seq, if fewer than [`OUTSIDE_MAX`] are outside already.
    fn issue(&mut self, at: Cycles) {
        if self.outside.len() >= OUTSIDE_MAX {
            return;
        }
        let i = self.recs.len();
        assert_eq!(self.q.issue_seq(), i as u64, "{}: issue_seq", self.label);
        self.recs.push(Rec {
            at,
            token: None,
            val: i as u64,
            site: Where::Outside,
        });
        self.live.insert((at, i));
        self.outside.push(i);
    }

    /// Bounded pop of the earliest record, queued or outside, merged by
    /// `(time, seq)` against `peek_key`; advances the clock. Returns the
    /// popped record.
    fn pop_due(&mut self, bound: Cycles) -> Option<usize> {
        let out = self
            .outside
            .iter()
            .map(|&i| (self.recs[i].at, i as u64))
            .min()
            .filter(|&key| self.q.peek_key().is_none_or(|head| key < head));
        let got = match out {
            Some((at, i)) if at <= bound => {
                self.outside.retain(|&j| j as u64 != i);
                Some((at, i))
            }
            Some(_) => None,
            None => self.q.pop_due(bound),
        };
        let want = self.min_live().filter(|&i| self.recs[i].at <= bound);
        match (got, want) {
            (None, None) => None,
            (Some((at, val)), Some(i)) => {
                let r = &self.recs[i];
                assert_eq!((at, val), (r.at, r.val), "{}: pop_due", self.label);
                self.live.remove(&(r.at, i));
                self.recs[i].site = Where::Gone;
                self.now = self.now.max(at);
                Some(i)
            }
            (got, want) => panic!(
                "{}: pop_due diverged: merge {:?} vs model {:?}",
                self.label,
                got,
                want.map(|i| (self.recs[i].at, self.recs[i].val)),
            ),
        }
    }

    /// Cancels any queued record ever issued; the queue must report
    /// whether it was actually queued (popped/cancelled tokens are
    /// refused).
    fn cancel(&mut self, i: usize) -> bool {
        let Some(token) = self.recs[i].token else {
            return false;
        };
        let want = self.recs[i].site == Where::Queued;
        assert_eq!(self.q.cancel(token), want, "{}: cancel", self.label);
        if want {
            self.live.remove(&(self.recs[i].at, i));
            self.recs[i].site = Where::Gone;
        }
        want
    }

    /// Checks the queue's exact length, head time and head key against
    /// the model's queued records.
    fn check(&self) {
        let label = &self.label;
        let mut queued = self
            .live
            .iter()
            .filter(|&&(_, i)| self.recs[i].site == Where::Queued);
        let head = queued.next().map(|&(at, i)| (at, i as u64));
        let len = self.live.len() - self.outside.len();
        assert_eq!(self.q.len(), len, "{label}: len");
        assert_eq!(self.q.peek_key(), head, "{label}: peek_key");
        assert_eq!(
            self.q.peek_time(),
            head.map(|(at, _)| at),
            "{label}: peek_time"
        );
    }

    /// Drains what is left and checks full order agreement.
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
            // issue: a value kept outside the queue, due in the same
            // spread of times.
            65..=84 => {
                h.issue(h.now + Cycles(rng.next_below(3 * HORIZON)));
            }
            // cancel: any record ever issued.
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

/// Serves every pending event the way the machine does: pop the
/// earliest, queued or outside; a popped event may schedule a near-term
/// follow-up (instruction and DMA latencies), now and then one in the
/// past; sometimes an outside value is issued at the queue head's time
/// with queued work scheduled behind it (a slot armed while device
/// events wait), and sometimes a random earlier token is cancelled.
fn serve(h: &mut Harness, rng: &mut Rng, far: &[usize]) {
    let mut step = 0u64;
    loop {
        step += 1;
        match rng.next_below(100) {
            // Tie an outside value with the head (often a far entry when
            // the wheel is idle) and schedule behind it.
            0..=7 => {
                let Some((at, _)) = h.q.peek_key() else { break };
                h.issue(at);
                if rng.chance(0.5) {
                    h.schedule(at);
                    h.schedule(at + Cycles(rng.next_below(2 * HORIZON)));
                }
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
    // cancels hit entries that already moved, and outside values tie
    // with them.
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
                // Tie an outside value with the head, and schedule a
                // same-cycle tie behind both.
                3 => {
                    let Some((at, _)) = h.q.peek_key() else { break };
                    h.issue(at);
                    h.schedule(at);
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
