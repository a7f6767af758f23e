//! Seeded chaos plans: composed fault storms, replay artifacts, and an
//! automatic plan shrinker.
//!
//! F16 demonstrated switchless recovery under hand-written single-fault
//! scenarios. A chaos soak asks the harder question: does the machine hold
//! its invariants under *composed* storms — several fault kinds bursting
//! in overlapping windows, intensities sweeping up mid-storm, faults
//! landing inside instruction bursts? A [`ChaosPlan`] is the deterministic
//! unit of that campaign:
//!
//! * [`ChaosPlan::generate`] derives a storm schedule from a single seed —
//!   correlated multi-kind episodes, log-uniform intensities, optional
//!   ramping sweeps — and resolves same-kind window collisions
//!   deterministically, so the result always converts to a valid
//!   [`FaultPlan`].
//! * [`ChaosPlan::to_text`] / [`ChaosPlan::parse`] round-trip the plan
//!   through the `chaos-plan/v1` artifact format (rates serialized as
//!   f64 bit patterns, so replay is exact, never a decimal approximation).
//!   A plan has no device axis; the format's `devices 1` line and `0`
//!   device column are fixed, and the parser refuses any other value.
//! * [`shrink`] reduces a failing plan to a minimal reproducer with a
//!   caller-supplied oracle — delta-debugging over the burst set, then
//!   bisection of each surviving window.
//!
//! The module is machine-agnostic on purpose: running a plan (and deciding
//! what "fails" means) belongs to the experiment harness; expressing,
//! persisting and minimising plans belongs here.

use crate::error::SimError;
use crate::fault::{FaultKind, FaultPlan, FaultPlanError};
use crate::rng::{mix_seed, Rng};
use crate::time::Cycles;

/// RNG stream tag for chaos-plan generation ("CHAS").
const CHAOS_STREAM: u64 = 0x4348_4153;

/// Longest soak duration [`ChaosPlan::parse`] accepts, in cycles. The
/// soak generator's longest plan is 6 M cycles; a billion leaves ample
/// headroom while refusing artifacts that would run (nearly) forever.
pub const MAX_DURATION: Cycles = Cycles(1_000_000_000);

/// Storm episodes [`ChaosPlan::generate`] composes (each contributes
/// 1–3 kinds).
const EPISODES: u32 = 6;

/// Upper bound on generated per-operation fault rates; intensities are
/// drawn log-uniformly from three decades below it.
const MAX_RATE: f64 = 0.1;

/// Oracle-call budget for [`shrink`]; generous for plans of tens of
/// bursts, and a hard stop against pathological oracles.
const SHRINK_BUDGET: u32 = 512;

/// One windowed storm burst: `kind` fires at `rate` while the clock is in
/// `[from, to)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosBurst {
    /// The fault kind this burst drives.
    pub kind: FaultKind,
    /// Per-operation fault probability inside the window.
    pub rate: f64,
    /// Window start (inclusive).
    pub from: Cycles,
    /// Window end (exclusive).
    pub to: Cycles,
}

/// A seeded, serializable, shrinkable storm schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the [`FaultPlan`]'s component streams (and, for generated
    /// plans, the schedule itself).
    pub seed: u64,
    /// Soak duration the plan was built for.
    pub duration: Cycles,
    /// The composed storm, sorted canonically (kind, window).
    pub bursts: Vec<ChaosBurst>,
    /// Outcome digest recorded by a previous run, if any; replay compares
    /// against this to prove bit-identical re-execution.
    pub digest: Option<u64>,
}

impl ChaosPlan {
    /// Generates a composed storm schedule deterministically from `seed`
    /// for a soak of `duration`: every burst window lies inside
    /// `[0, duration)`.
    ///
    /// Each of six episodes picks a window, 1–3 correlated kinds sharing
    /// it, and a log-uniform intensity of at most 10%; ~30% of episodes
    /// become three-step ramping intensity sweeps instead of flat bursts. Same-kind window
    /// collisions are resolved by clipping the later burst, so the result
    /// always satisfies [`FaultPlan`] validation.
    #[must_use]
    pub fn generate(seed: u64, duration: Cycles) -> ChaosPlan {
        let mut rng = Rng::seed_from(mix_seed(seed, CHAOS_STREAM));
        let dur = duration.0.max(64);
        let mut bursts: Vec<ChaosBurst> = Vec::new();
        for _ in 0..EPISODES {
            let start = rng.next_below(dur - dur / 8);
            let len = (dur / 64).max(1) + rng.next_below((dur / 8).max(1));
            let from = start;
            let to = (start + len).min(dur);
            if from >= to {
                continue;
            }
            // Correlated episode: up to 3 distinct kinds share the window.
            let kinds_n = 1 + rng.next_below(3) as usize;
            let mut pool: Vec<FaultKind> = FaultKind::ALL.to_vec();
            rng.shuffle(&mut pool);
            // Log-uniform intensity across three decades below MAX_RATE.
            let rate = MAX_RATE * 10f64.powf(-3.0 * rng.next_f64());
            let sweep = rng.chance(0.3) && (to - from) >= 3;
            for kind in pool.into_iter().take(kinds_n) {
                // This draw once picked a device id (always 0); it stays
                // so every seed still generates the same storm.
                rng.next_u64();
                if sweep {
                    // Ramp: third the window at rate/4, rate/2, rate.
                    let step = (to - from) / 3;
                    for (i, r) in [rate / 4.0, rate / 2.0, rate].iter().enumerate() {
                        let f = from + step * i as u64;
                        let t = if i == 2 {
                            to
                        } else {
                            from + step * (i as u64 + 1)
                        };
                        bursts.push(ChaosBurst {
                            kind,
                            rate: *r,
                            from: Cycles(f),
                            to: Cycles(t),
                        });
                    }
                } else {
                    bursts.push(ChaosBurst {
                        kind,
                        rate,
                        from: Cycles(from),
                        to: Cycles(to),
                    });
                }
            }
        }
        let mut plan = ChaosPlan {
            seed,
            duration,
            bursts,
            digest: None,
        };
        plan.canonicalise();
        plan
    }

    /// Sorts bursts canonically and clips same-kind overlaps so the plan
    /// always passes [`FaultPlan`] validation.
    fn canonicalise(&mut self) {
        self.bursts
            .sort_by_key(|b| (b.kind.index(), b.from.0, b.to.0));
        let mut out: Vec<ChaosBurst> = Vec::with_capacity(self.bursts.len());
        let mut cursor: Option<(usize, u64)> = None;
        for mut b in self.bursts.drain(..) {
            if let Some((k, end)) = cursor {
                if k == b.kind.index() {
                    b.from = Cycles(b.from.0.max(end));
                }
            }
            if b.from >= b.to {
                continue; // fully shadowed by an earlier burst
            }
            cursor = Some((b.kind.index(), b.to.0));
            out.push(b);
        }
        self.bursts = out;
    }

    /// Builds the executable [`FaultPlan`] for this schedule.
    pub fn to_fault_plan(&self) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::new(self.seed);
        for b in &self.bursts {
            plan = plan.try_with_burst(b.kind, b.rate, b.from, b.to)?;
        }
        Ok(plan)
    }

    /// Renders the plan in the `chaos-plan/v1` replay-artifact format.
    ///
    /// Rates are serialized as hexadecimal f64 bit patterns (with an
    /// approximate decimal in a trailing comment) so a parsed plan is
    /// *bit-identical* to the one that was written, never a rounding
    /// neighbour. The format's `devices 1` line and `0` device column
    /// are fixed: a plan has one instance of each device.
    #[must_use]
    pub fn to_text(&self) -> String {
        use core::fmt::Write as _;
        let mut s = String::new();
        s.push_str("chaos-plan/v1\n");
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "duration {}", self.duration.0);
        s.push_str("devices 1\n");
        for b in &self.bursts {
            let _ = writeln!(
                s,
                "burst {} 0 {} {} {:016x} # rate≈{:.2e}",
                b.kind,
                b.from.0,
                b.to.0,
                b.rate.to_bits(),
                b.rate
            );
        }
        if let Some(d) = self.digest {
            let _ = writeln!(s, "digest {d:016x}");
        }
        s
    }

    /// Parses a `chaos-plan/v1` artifact.
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] for a malformed line, a duration above
    /// [`MAX_DURATION`], a device count other than 1 or device id other
    /// than 0, a missing `seed` or `duration`, a repeated `seed`,
    /// `duration` or `digest`, or a burst window that ends past the
    /// duration; [`SimError::FaultPlan`] for bursts that do not form a
    /// valid [`FaultPlan`].
    pub fn parse(text: &str) -> Result<ChaosPlan, SimError> {
        let bad = |line: usize, detail: String| SimError::Parse { line, detail };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "chaos-plan/v1")) => {}
            other => {
                return Err(bad(
                    1,
                    format!(
                        "expected header `chaos-plan/v1`, got {:?}",
                        other.map(|(_, l)| l).unwrap_or("")
                    ),
                ))
            }
        }
        let (mut seed, mut duration, mut digest) = (None, None, None);
        // Each burst with its line, for the window check once the
        // duration is known.
        let mut bursts: Vec<(ChaosBurst, usize)> = Vec::new();
        let once = |seen: bool, line: usize, what: &str| {
            if seen {
                Err(bad(line, format!("repeated `{what}`")))
            } else {
                Ok(())
            }
        };
        fn take_u64<'a, I>(f: &mut I, n: usize, what: &str, radix: u32) -> Result<u64, SimError>
        where
            I: Iterator<Item = &'a str>,
        {
            let tok = f.next().ok_or(SimError::Parse {
                line: n,
                detail: format!("missing {what}"),
            })?;
            u64::from_str_radix(tok, radix).map_err(|e| SimError::Parse {
                line: n,
                detail: format!("bad {what} `{tok}`: {e}"),
            })
        }
        for (i, raw) in lines {
            let n = i + 1; // 1-based for diagnostics
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut f = line.split_ascii_whitespace();
            match f.next().unwrap_or("") {
                "seed" => {
                    once(seed.is_some(), n, "seed")?;
                    seed = Some(take_u64(&mut f, n, "seed", 10)?);
                }
                "duration" => {
                    once(duration.is_some(), n, "duration")?;
                    let d = Cycles(take_u64(&mut f, n, "duration", 10)?);
                    if d > MAX_DURATION {
                        return Err(bad(
                            n,
                            format!(
                                "duration {} exceeds the cap of {} cycles",
                                d.0, MAX_DURATION.0
                            ),
                        ));
                    }
                    duration = Some(d);
                }
                "devices" => {
                    let count = take_u64(&mut f, n, "device count", 10)?;
                    if count != 1 {
                        return Err(bad(n, format!("device count {count} is not 1")));
                    }
                }
                "digest" => {
                    once(digest.is_some(), n, "digest")?;
                    digest = Some(take_u64(&mut f, n, "digest", 16)?);
                }
                "burst" => {
                    let name = f
                        .next()
                        .ok_or_else(|| bad(n, "missing fault kind".into()))?;
                    let kind = FaultKind::ALL
                        .into_iter()
                        .find(|k| k.to_string() == name)
                        .ok_or_else(|| bad(n, format!("unknown fault kind `{name}`")))?;
                    let device = take_u64(&mut f, n, "device", 10)?;
                    if device != 0 {
                        return Err(bad(n, format!("device {device} is not 0")));
                    }
                    let from = Cycles(take_u64(&mut f, n, "window start", 10)?);
                    let to = Cycles(take_u64(&mut f, n, "window end", 10)?);
                    let rate = f64::from_bits(take_u64(&mut f, n, "rate bits", 16)?);
                    bursts.push((
                        ChaosBurst {
                            kind,
                            rate,
                            from,
                            to,
                        },
                        n,
                    ));
                }
                other => return Err(bad(n, format!("unknown directive `{other}`"))),
            }
        }
        // A plan without its seed or duration would replay a default
        // soak, not the recorded one.
        let end = text.lines().count();
        let seed = seed.ok_or_else(|| bad(end, "missing `seed`".into()))?;
        let duration = duration.ok_or_else(|| bad(end, "missing `duration`".into()))?;
        if let Some(&(b, n)) = bursts.iter().find(|(b, _)| b.to > duration) {
            return Err(bad(
                n,
                format!(
                    "burst window ends at {} past the duration {}",
                    b.to.0, duration.0
                ),
            ));
        }
        let plan = ChaosPlan {
            seed,
            duration,
            bursts: bursts.into_iter().map(|(b, _)| b).collect(),
            digest,
        };
        // Surface invalid windows and rates now, structurally, rather
        // than as a panic at run time.
        plan.to_fault_plan().map_err(SimError::FaultPlan)?;
        Ok(plan)
    }
}

/// What [`shrink`] did, for logging and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Oracle invocations spent.
    pub oracle_calls: u32,
    /// Bursts removed by delta-debugging.
    pub removed: usize,
    /// Windows narrowed by bisection.
    pub narrowed: usize,
}

/// Reduces a failing chaos plan to a minimal reproducer.
///
/// `fails` must return `true` for any plan that still reproduces the
/// problem (invariant violation, replay divergence, …); it is assumed to
/// hold for `plan` itself. Two phases, both deterministic and bounded by
/// an internal oracle budget:
///
/// 1. **Burst minimisation** (ddmin): repeatedly drop chunks of the burst
///    list while the failure persists, down to single-burst granularity.
/// 2. **Window narrowing**: bisect each surviving burst's window — keep
///    the failing half — until neither half alone reproduces.
///
/// Returns the reduced plan (digest cleared; it describes a different run)
/// and statistics about the reduction.
pub fn shrink<F>(plan: &ChaosPlan, mut fails: F) -> (ChaosPlan, ShrinkStats)
where
    F: FnMut(&ChaosPlan) -> bool,
{
    let mut stats = ShrinkStats::default();
    let mut cur = plan.clone();
    cur.digest = None;
    let before = cur.bursts.len();

    // Phase 1: ddmin over the burst set.
    let mut n = 2usize;
    'outer: while cur.bursts.len() >= 2 && stats.oracle_calls < SHRINK_BUDGET {
        let len = cur.bursts.len();
        let gran = n.min(len);
        let chunk = len.div_ceil(gran);
        for i in 0..gran {
            let lo = i * chunk;
            if lo >= len {
                break;
            }
            let hi = (lo + chunk).min(len);
            let mut cand = cur.clone();
            cand.bursts.drain(lo..hi);
            if cand.bursts.is_empty() {
                continue;
            }
            stats.oracle_calls += 1;
            if fails(&cand) {
                cur = cand;
                n = 2;
                continue 'outer;
            }
            if stats.oracle_calls >= SHRINK_BUDGET {
                break 'outer;
            }
        }
        if gran >= len {
            break;
        }
        n = (n * 2).min(len);
    }
    stats.removed = before - cur.bursts.len();

    // Phase 2: bisect each surviving window.
    for i in 0..cur.bursts.len() {
        loop {
            if stats.oracle_calls + 2 > SHRINK_BUDGET {
                break;
            }
            let b = cur.bursts[i];
            if b.to.0 - b.from.0 <= 1 {
                break;
            }
            let mid = Cycles(b.from.0 + (b.to.0 - b.from.0) / 2);
            let mut left = cur.clone();
            left.bursts[i].to = mid;
            stats.oracle_calls += 1;
            if fails(&left) {
                cur = left;
                stats.narrowed += 1;
                continue;
            }
            let mut right = cur.clone();
            right.bursts[i].from = mid;
            stats.oracle_calls += 1;
            if fails(&right) {
                cur = right;
                stats.narrowed += 1;
                continue;
            }
            break;
        }
    }
    (cur, stats)
}

/// A tiny streaming FNV-1a 64 digest for run outcomes.
///
/// Replay needs a cheap, dependency-free way to compare two whole-machine
/// runs bit-for-bit: fold every observable (counters, histogram buckets,
/// final cycle count) into one of these on both sides.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a u64 (little-endian) into the digest.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Folds a string into the digest.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// The accumulated 64-bit digest.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DURATION: Cycles = Cycles(1_000_000);

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..50u64 {
            let a = ChaosPlan::generate(seed, DURATION);
            let b = ChaosPlan::generate(seed, DURATION);
            assert_eq!(a, b, "seed {seed}");
            assert!(!a.bursts.is_empty(), "seed {seed} generated no storm");
            a.to_fault_plan()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for w in &a.bursts {
                assert!(w.from < w.to && w.to.0 <= a.duration.0, "seed {seed}");
            }
        }
    }

    #[test]
    fn distinct_seeds_generate_distinct_storms() {
        let a = ChaosPlan::generate(1, DURATION);
        let b = ChaosPlan::generate(2, DURATION);
        assert_ne!(a.bursts, b.bursts);
    }

    #[test]
    fn text_round_trip_is_exact() {
        for seed in [0u64, 7, 42, 1 << 40] {
            let mut plan = ChaosPlan::generate(seed, DURATION);
            plan.digest = Some(0xdead_beef_cafe_f00d);
            let parsed = ChaosPlan::parse(&plan.to_text()).unwrap();
            assert_eq!(plan, parsed, "seed {seed}");
            // Exact f64 bits survive, not a decimal approximation.
            for (a, b) in plan.bursts.iter().zip(&parsed.bursts) {
                assert_eq!(a.rate.to_bits(), b.rate.to_bits());
            }
        }
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let e = ChaosPlan::parse("not-a-plan\n").unwrap_err();
        assert!(matches!(e, SimError::Parse { line: 1, .. }), "{e}");
        let text = "chaos-plan/v1\nseed 1\nburst nic.blorp 0 0 10 0\n";
        let e = ChaosPlan::parse(text).unwrap_err();
        assert!(matches!(e, SimError::Parse { line: 3, .. }), "{e}");
        // Structurally invalid plans are refused at parse time too.
        let text = "chaos-plan/v1\nseed 1\nduration 100\nburst nic.drop 0 20 10 3fb999999999999a\n";
        let e = ChaosPlan::parse(text).unwrap_err();
        assert!(matches!(e, SimError::FaultPlan(_)), "{e}");
    }

    #[test]
    fn parse_rejects_durations_above_the_cap() {
        let text = format!("chaos-plan/v1\nseed 1\nduration {}\n", u64::MAX);
        let e = ChaosPlan::parse(&text).unwrap_err();
        assert!(matches!(e, SimError::Parse { line: 3, .. }), "{e}");
        let over = format!("chaos-plan/v1\nduration {}\n", MAX_DURATION.0 + 1);
        assert!(ChaosPlan::parse(&over).is_err());
        let at_cap = format!("chaos-plan/v1\nseed 1\nduration {}\n", MAX_DURATION.0);
        assert_eq!(ChaosPlan::parse(&at_cap).unwrap().duration, MAX_DURATION);
    }

    /// The line a parse error names, or a panic naming the plan.
    fn parse_error_line(text: &str) -> usize {
        match ChaosPlan::parse(text) {
            Err(SimError::Parse { line, .. }) => line,
            other => panic!("{text:?} gave {other:?}"),
        }
    }

    #[test]
    fn parse_refuses_a_plan_without_a_seed() {
        assert_eq!(
            parse_error_line("chaos-plan/v1\nduration 100\ndevices 1\n"),
            3
        );
    }

    #[test]
    fn parse_refuses_a_plan_without_a_duration() {
        assert_eq!(parse_error_line("chaos-plan/v1\nseed 1\n"), 2);
    }

    #[test]
    fn parse_refuses_a_repeated_seed() {
        assert_eq!(
            parse_error_line("chaos-plan/v1\nseed 1\nseed 2\nduration 100\n"),
            3
        );
    }

    #[test]
    fn parse_refuses_a_repeated_duration() {
        let text = "chaos-plan/v1\nseed 1\nduration 100\n# again\nduration 200\n";
        assert_eq!(parse_error_line(text), 5);
    }

    #[test]
    fn parse_refuses_a_repeated_digest() {
        let text = "chaos-plan/v1\nseed 1\nduration 100\ndigest 1f\ndigest 1f\n";
        assert_eq!(parse_error_line(text), 5);
    }

    #[test]
    fn parse_refuses_a_burst_ending_past_the_duration() {
        let burst = "burst nic.drop 0 500 900000 3fb999999999999a";
        // Checked once the duration is known, whichever line comes first.
        let text = format!("chaos-plan/v1\nseed 1\nduration 1000\n{burst}\n");
        assert_eq!(parse_error_line(&text), 4);
        let text = format!("chaos-plan/v1\nseed 1\n{burst}\nduration 1000\n");
        assert_eq!(parse_error_line(&text), 3);
        // A window ending exactly at the duration is inside it.
        let text =
            "chaos-plan/v1\nseed 1\nduration 1000\nburst nic.drop 0 500 1000 3fb999999999999a\n";
        assert_eq!(ChaosPlan::parse(text).unwrap().bursts.len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "chaos-plan/v1\n# a comment\n\nseed 9\nduration 100\n";
        let plan = ChaosPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.duration, Cycles(100));
    }

    #[test]
    fn shrinker_finds_minimal_reproducer() {
        // Synthetic oracle: the "bug" needs a FabricLoss burst covering
        // cycle 500_000 AND a NicDrop burst covering cycle 200_000.
        let needs = |p: &ChaosPlan| {
            let covers = |k: FaultKind, c: u64| {
                p.bursts
                    .iter()
                    .any(|b| b.kind == k && b.from.0 <= c && c < b.to.0 && b.rate > 0.0)
            };
            covers(FaultKind::FabricLoss, 500_000) && covers(FaultKind::NicDrop, 200_000)
        };
        // Find a generated plan that actually triggers the oracle.
        let plan = (0..2000u64)
            .map(|s| ChaosPlan::generate(s, DURATION))
            .find(|p| needs(p))
            .expect("some seed composes the required storm");
        let (small, stats) = shrink(&plan, needs);
        assert!(needs(&small), "shrunk plan no longer reproduces");
        // Minimal: exactly the two necessary bursts survive…
        assert_eq!(small.bursts.len(), 2, "{small:?}");
        // …and each window is pinned tightly around its trigger cycle.
        for b in &small.bursts {
            assert!(b.to.0 - b.from.0 <= 2, "window not narrowed: {b:?}");
        }
        assert!(stats.oracle_calls <= SHRINK_BUDGET);
        assert!(stats.removed >= plan.bursts.len() - 2);
        // Shrinking is deterministic.
        let (again, _) = shrink(&plan, needs);
        assert_eq!(small, again);
    }

    #[test]
    fn shrinker_is_identity_for_single_necessary_burst() {
        let mut plan = ChaosPlan {
            seed: 3,
            duration: Cycles(1000),
            bursts: vec![ChaosBurst {
                kind: FaultKind::SsdReadError,
                rate: 1.0,
                from: Cycles(0),
                to: Cycles(1000),
            }],
            digest: Some(1),
        };
        let (small, stats) = shrink(&plan, |p| !p.bursts.is_empty());
        assert_eq!(small.bursts.len(), 1);
        assert!(small.digest.is_none(), "digest must be cleared");
        // Window narrows to a single cycle: any non-empty plan fails.
        assert_eq!(small.bursts[0].to.0 - small.bursts[0].from.0, 1);
        assert!(stats.oracle_calls > 0);
        plan.digest = None;
        assert_ne!(small, plan);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::new();
        a.push_u64(1);
        a.push_str("x");
        let mut b = Digest::new();
        b.push_str("x");
        b.push_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.push_u64(1);
        c.push_str("x");
        assert_eq!(a.finish(), c.finish());
    }
}
