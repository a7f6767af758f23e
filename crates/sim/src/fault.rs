//! Deterministic fault-injection plans.
//!
//! The paper's §3 claim is not just that switchless I/O is fast, but that
//! fault *containment and recovery* work without context switches. To
//! measure that, device models must be able to fail — on demand, and
//! reproducibly. A [`FaultPlan`] gives each fault kind a base rate and an
//! extra-delay range, and layers windowed bursts over the base rates (a
//! burst is the only way to confine a rate to a stretch of cycles). It
//! draws from per-component [`Rng`] streams forked from one seed so that:
//!
//! * two runs with the same seed inject the byte-identical fault sequence;
//! * adding draws for one component never perturbs another component's
//!   sequence (streams are decorrelated);
//! * a kind with rate 0 consumes **no** randomness, so an installed plan
//!   with all rates at zero is behaviourally identical to no plan at all.
//!
//! Device models ask the machine (which owns the plan) a single question
//! per operation — "does fault K fire now?" — and express the failure
//! through their existing completion-queue/doorbell protocol, never as a
//! Rust error.
//!
//! # Examples
//!
//! ```
//! use switchless_sim::fault::{FaultKind, FaultPlan};
//! use switchless_sim::time::Cycles;
//!
//! let mut plan = FaultPlan::new(42).with_rate(FaultKind::NicDrop, 0.5);
//! let fired: u32 = (0..1000)
//!     .map(|i| u32::from(plan.draw(Cycles(i), FaultKind::NicDrop)))
//!     .sum();
//! assert!((400..600).contains(&fired)); // ~half the packets drop
//! ```

use crate::rng::Rng;
use crate::time::Cycles;

/// The component a fault kind belongs to; each gets its own RNG stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultComponent {
    /// Network interface (RX path).
    Nic,
    /// Storage device (submission/completion path).
    Ssd,
    /// Inter-node fabric (RPC path).
    Fabric,
    /// Legacy MSI-X interrupt bridge.
    Msix,
}

impl FaultComponent {
    const COUNT: usize = 4;

    fn index(self) -> usize {
        match self {
            FaultComponent::Nic => 0,
            FaultComponent::Ssd => 1,
            FaultComponent::Fabric => 2,
            FaultComponent::Msix => 3,
        }
    }
}

/// A specific way a device operation can fail.
///
/// Kinds are deliberately concrete — each maps to one injection point in
/// one device model, surfaced through that device's normal completion
/// protocol (a skipped descriptor write, a flipped payload byte, a status
/// bit in the completion word, a delayed tail bump, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// NIC silently drops an RX packet: no DMA, no descriptor, no tail.
    NicDrop,
    /// NIC delivers the packet with a corrupted payload byte.
    NicCorrupt,
    /// NIC delivers the packet late by a drawn stall delay.
    NicStall,
    /// SSD read completes with the error bit set and no data DMA.
    SsdReadError,
    /// SSD operation completes after an extra drawn latency spike.
    SsdLatencySpike,
    /// SSD completion-queue entry is torn: the tail bump and cookie land
    /// on time, the sequence word lands later.
    SsdTornCompletion,
    /// Fabric loses an RPC response outright; the caller never hears back.
    FabricLoss,
    /// Fabric delays an RPC response by a drawn reorder gap.
    FabricReorder,
    /// MSI-X bridge loses a routed interrupt (legacy baseline only).
    MsixLostInterrupt,
}

impl FaultKind {
    /// Every kind, in stable declaration order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::NicDrop,
        FaultKind::NicCorrupt,
        FaultKind::NicStall,
        FaultKind::SsdReadError,
        FaultKind::SsdLatencySpike,
        FaultKind::SsdTornCompletion,
        FaultKind::FabricLoss,
        FaultKind::FabricReorder,
        FaultKind::MsixLostInterrupt,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            FaultKind::NicDrop => 0,
            FaultKind::NicCorrupt => 1,
            FaultKind::NicStall => 2,
            FaultKind::SsdReadError => 3,
            FaultKind::SsdLatencySpike => 4,
            FaultKind::SsdTornCompletion => 5,
            FaultKind::FabricLoss => 6,
            FaultKind::FabricReorder => 7,
            FaultKind::MsixLostInterrupt => 8,
        }
    }

    /// The component whose RNG stream this kind draws from.
    #[must_use]
    pub fn component(self) -> FaultComponent {
        match self {
            FaultKind::NicDrop | FaultKind::NicCorrupt | FaultKind::NicStall => FaultComponent::Nic,
            FaultKind::SsdReadError | FaultKind::SsdLatencySpike | FaultKind::SsdTornCompletion => {
                FaultComponent::Ssd
            }
            FaultKind::FabricLoss | FaultKind::FabricReorder => FaultComponent::Fabric,
            FaultKind::MsixLostInterrupt => FaultComponent::Msix,
        }
    }

    /// The machine counter incremented when this kind fires.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            FaultKind::NicDrop => "fault.nic.drop",
            FaultKind::NicCorrupt => "fault.nic.corrupt",
            FaultKind::NicStall => "fault.nic.stall",
            FaultKind::SsdReadError => "fault.ssd.read_error",
            FaultKind::SsdLatencySpike => "fault.ssd.latency_spike",
            FaultKind::SsdTornCompletion => "fault.ssd.torn_completion",
            FaultKind::FabricLoss => "fault.fabric.loss",
            FaultKind::FabricReorder => "fault.fabric.reorder",
            FaultKind::MsixLostInterrupt => "fault.msix.lost",
        }
    }

    /// Default extra-delay range (cycles) for delay-shaped kinds.
    ///
    /// Only meaningful for kinds whose failure mode is "late, not lost":
    /// stalls, spikes, torn completions and reorders. On a 3 GHz clock,
    /// 3000 cycles = 1 µs.
    fn default_delay(self) -> (Cycles, Cycles) {
        match self {
            // NIC RX stall: 1–10 µs, a PCIe replay / pause-frame hiccup.
            FaultKind::NicStall => (Cycles(3_000), Cycles(30_000)),
            // SSD latency spike: 100 µs – 1 ms, GC or error-recovery pause.
            FaultKind::SsdLatencySpike => (Cycles(300_000), Cycles(3_000_000)),
            // Torn completion: the seq word lags the cookie by 1–10 µs.
            FaultKind::SsdTornCompletion => (Cycles(3_000), Cycles(30_000)),
            // Fabric reorder: one extra RTT-ish of skew.
            FaultKind::FabricReorder => (Cycles(6_000), Cycles(60_000)),
            // Loss-shaped kinds never ask for a delay; keep it degenerate.
            _ => (Cycles(0), Cycles(0)),
        }
    }
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // "fault.nic.drop" -> "nic.drop"
        let name = self
            .counter_name()
            .strip_prefix("fault.")
            .unwrap_or_else(|| self.counter_name());
        f.write_str(name)
    }
}

/// A structured reason a [`FaultPlan`] burst was rejected.
///
/// Returned by [`FaultPlan::try_with_burst`] so callers (the chaos
/// generator, the replay parser) can refuse a bad plan at construction
/// time instead of panicking — or worse, silently misbehaving — mid-soak.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A window with `from >= to` can never fire; almost certainly a bug
    /// in the caller's schedule arithmetic.
    EmptyWindow {
        /// The kind whose window is degenerate.
        kind: FaultKind,
        /// Window start (inclusive).
        from: Cycles,
        /// Window end (exclusive).
        to: Cycles,
    },
    /// Two bursts for the same kind overlap in time, which would make the
    /// effective rate ambiguous.
    OverlappingWindows {
        /// The kind with conflicting bursts.
        kind: FaultKind,
        /// The previously accepted window.
        first: (Cycles, Cycles),
        /// The rejected window.
        second: (Cycles, Cycles),
    },
    /// A rate outside `[0, 1]` (or NaN) is not a probability.
    RateOutOfRange {
        /// The kind with the bad rate.
        kind: FaultKind,
        /// The offending value.
        rate: f64,
    },
}

impl core::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultPlanError::EmptyWindow { kind, from, to } => {
                write!(f, "{kind}: window [{}, {}) is empty", from.0, to.0)
            }
            FaultPlanError::OverlappingWindows {
                kind,
                first,
                second,
            } => write!(
                f,
                "{kind}: burst [{}, {}) overlaps [{}, {})",
                second.0 .0, second.1 .0, first.0 .0, first.1 .0
            ),
            FaultPlanError::RateOutOfRange { kind, rate } => {
                write!(f, "{kind}: rate {rate} is not in [0, 1]")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A validated, windowed rate override for one kind.
#[derive(Clone, Copy, Debug)]
struct Burst {
    kind: FaultKind,
    rate: f64,
    from: Cycles,
    to: Cycles,
}

/// Per-kind injection settings.
#[derive(Clone, Copy, Debug)]
struct KindSetting {
    /// Probability a single eligible operation faults, in `[0, 1]`.
    rate: f64,
    /// Extra-delay range for delay-shaped kinds.
    delay: (Cycles, Cycles),
}

/// A seeded, deterministic schedule of device faults.
///
/// Construct with [`FaultPlan::new`], configure with the builder methods,
/// then install on the machine. Devices never hold the plan directly; they
/// query it through the machine so counters and tracing stay centralised.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// One decorrelated stream per component, forked from the seed.
    streams: [Rng; FaultComponent::COUNT],
    settings: [KindSetting; FaultKind::ALL.len()],
    /// Validated windowed overrides, sorted by nothing in particular —
    /// at most one burst per kind covers any instant.
    bursts: Vec<Burst>,
}

impl FaultPlan {
    /// Creates a plan with every rate at zero (injects nothing).
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        let mut root = Rng::seed_from(seed);
        let streams = [root.fork(1), root.fork(2), root.fork(3), root.fork(4)];
        let settings = FaultKind::ALL.map(|k| KindSetting {
            rate: 0.0,
            delay: k.default_delay(),
        });
        FaultPlan {
            streams,
            settings,
            bursts: Vec::new(),
        }
    }

    /// Sets the per-operation fault probability for one kind.
    #[must_use]
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> FaultPlan {
        self.settings[kind.index()].rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Overrides the extra-delay range for a delay-shaped kind.
    ///
    /// # Panics
    ///
    /// Panics on an inverted range (`lo > hi`), naming the kind.
    #[must_use]
    pub fn with_delay(mut self, kind: FaultKind, lo: Cycles, hi: Cycles) -> FaultPlan {
        assert!(
            lo <= hi,
            "{kind}: delay range {}..{} is inverted",
            lo.0,
            hi.0
        );
        self.settings[kind.index()].delay = (lo, hi);
        self
    }

    /// Adds a validated, windowed rate override for `kind`.
    ///
    /// While `now` is inside `[from, to)` the burst's rate replaces the
    /// kind's base rate — so a plan can layer storms (and calm stretches)
    /// over a background rate, or, at a base rate of zero, confine a kind
    /// to one window. Bursts for the *same* kind must not overlap; bursts
    /// for different kinds may, which is how composed storms are
    /// expressed.
    pub fn try_with_burst(
        mut self,
        kind: FaultKind,
        rate: f64,
        from: Cycles,
        to: Cycles,
    ) -> Result<FaultPlan, FaultPlanError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(FaultPlanError::RateOutOfRange { kind, rate });
        }
        if from >= to {
            return Err(FaultPlanError::EmptyWindow { kind, from, to });
        }
        if let Some(prev) = self
            .bursts
            .iter()
            .find(|b| b.kind == kind && from < b.to && b.from < to)
        {
            return Err(FaultPlanError::OverlappingWindows {
                kind,
                first: (prev.from, prev.to),
                second: (from, to),
            });
        }
        self.bursts.push(Burst {
            kind,
            rate,
            from,
            to,
        });
        Ok(self)
    }

    /// Decides whether `kind` fires for one operation at time `now`,
    /// honouring any burst covering that instant.
    ///
    /// Randomness is consumed **only** when the kind's effective rate is
    /// positive at `now`, so disabled kinds (and calm bursts) leave every
    /// stream untouched — determinism of the active kinds is unaffected
    /// by how often inactive ones are queried.
    pub fn draw(&mut self, now: Cycles, kind: FaultKind) -> bool {
        let rate = self.effective_rate(now, kind);
        if rate <= 0.0 {
            return false;
        }
        self.streams[kind.component().index()].chance(rate)
    }

    /// The rate in force for `kind` at `now`: the covering burst's rate
    /// if one exists, else the base rate.
    fn effective_rate(&self, now: Cycles, kind: FaultKind) -> f64 {
        self.bursts
            .iter()
            .find(|b| b.kind == kind && now >= b.from && now < b.to)
            .map_or(self.settings[kind.index()].rate, |b| b.rate)
    }

    /// Draws the extra delay for a delay-shaped kind that just fired.
    ///
    /// Returns [`Cycles::ZERO`]-ish degenerate values for loss-shaped
    /// kinds (their default range is `0..=0`).
    pub fn draw_delay(&mut self, kind: FaultKind) -> Cycles {
        let (lo, hi) = self.settings[kind.index()].delay;
        if lo == hi {
            return lo;
        }
        Cycles(self.streams[kind.component().index()].next_range(lo.0, hi.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire_seq(plan: &mut FaultPlan, kind: FaultKind, n: u64) -> Vec<bool> {
        (0..n).map(|i| plan.draw(Cycles(i), kind)).collect()
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = FaultPlan::new(7).with_rate(FaultKind::NicDrop, 0.01);
        let mut b = FaultPlan::new(7).with_rate(FaultKind::NicDrop, 0.01);
        assert_eq!(
            fire_seq(&mut a, FaultKind::NicDrop, 10_000),
            fire_seq(&mut b, FaultKind::NicDrop, 10_000)
        );
    }

    #[test]
    fn zero_rate_consumes_no_randomness() {
        // Interleaving draws of a zero-rate kind must not perturb the
        // active kind's sequence, even within the same component stream.
        let mut plain = FaultPlan::new(9).with_rate(FaultKind::NicDrop, 0.05);
        let expect = fire_seq(&mut plain, FaultKind::NicDrop, 2_000);

        let mut mixed = FaultPlan::new(9).with_rate(FaultKind::NicDrop, 0.05);
        let got: Vec<bool> = (0..2_000)
            .map(|i| {
                // NicCorrupt shares the Nic stream but has rate 0.
                assert!(!mixed.draw(Cycles(i), FaultKind::NicCorrupt));
                mixed.draw(Cycles(i), FaultKind::NicDrop)
            })
            .collect();
        assert_eq!(expect, got);
    }

    #[test]
    fn window_gates_firing() {
        // A burst over a zero base rate is how a kind is confined to a
        // window.
        let mut p = FaultPlan::new(3)
            .try_with_burst(FaultKind::FabricLoss, 1.0, Cycles(100), Cycles(200))
            .unwrap();
        assert!(!p.draw(Cycles(99), FaultKind::FabricLoss));
        assert!(p.draw(Cycles(100), FaultKind::FabricLoss));
        assert!(p.draw(Cycles(199), FaultKind::FabricLoss));
        assert!(!p.draw(Cycles(200), FaultKind::FabricLoss));
    }

    #[test]
    fn component_streams_are_independent() {
        // Drawing lots of SSD faults must not change the NIC sequence.
        let mut a = FaultPlan::new(11)
            .with_rate(FaultKind::NicDrop, 0.02)
            .with_rate(FaultKind::SsdReadError, 0.5);
        let mut b = FaultPlan::new(11)
            .with_rate(FaultKind::NicDrop, 0.02)
            .with_rate(FaultKind::SsdReadError, 0.5);
        let nic_a = fire_seq(&mut a, FaultKind::NicDrop, 1_000);
        let nic_b: Vec<bool> = (0..1_000)
            .map(|i| {
                b.draw(Cycles(i), FaultKind::SsdReadError);
                b.draw(Cycles(i), FaultKind::NicDrop)
            })
            .collect();
        assert_eq!(nic_a, nic_b);
    }

    #[test]
    fn empirical_rate_matches() {
        let mut p = FaultPlan::new(21).with_rate(FaultKind::SsdLatencySpike, 0.1);
        let n = 100_000;
        let fired = fire_seq(&mut p, FaultKind::SsdLatencySpike, n)
            .iter()
            .filter(|&&f| f)
            .count();
        let rate = fired as f64 / n as f64;
        assert!((0.09..0.11).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn delay_in_configured_range() {
        let mut p = FaultPlan::new(5).with_delay(FaultKind::FabricReorder, Cycles(10), Cycles(20));
        for _ in 0..1_000 {
            let d = p.draw_delay(FaultKind::FabricReorder);
            assert!((10..=20).contains(&d.0), "delay {d:?}");
        }
        // Loss-shaped kinds have a degenerate range and draw nothing.
        assert_eq!(p.draw_delay(FaultKind::NicDrop), Cycles(0));
    }

    #[test]
    fn counter_names_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for k in FaultKind::ALL {
            let name = k.counter_name();
            assert!(name.starts_with("fault."), "{name}");
            assert!(seen.insert(name), "duplicate counter {name}");
            assert_eq!(format!("{k}"), name.strip_prefix("fault.").unwrap());
        }
    }

    #[test]
    fn empty_windows_are_rejected() {
        let err = FaultPlan::new(1)
            .try_with_burst(FaultKind::NicDrop, 0.5, Cycles(50), Cycles(50))
            .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::EmptyWindow {
                kind: FaultKind::NicDrop,
                from: Cycles(50),
                to: Cycles(50)
            }
        );
        let err = FaultPlan::new(1)
            .try_with_burst(FaultKind::SsdReadError, 0.1, Cycles(9), Cycles(3))
            .unwrap_err();
        assert!(matches!(err, FaultPlanError::EmptyWindow { .. }));
    }

    #[test]
    fn overlapping_bursts_same_kind_are_rejected() {
        let err = FaultPlan::new(1)
            .try_with_burst(FaultKind::FabricLoss, 0.2, Cycles(100), Cycles(200))
            .unwrap()
            .try_with_burst(FaultKind::FabricLoss, 0.4, Cycles(150), Cycles(300))
            .unwrap_err();
        assert!(
            matches!(err, FaultPlanError::OverlappingWindows { kind, .. }
                if kind == FaultKind::FabricLoss),
            "{err}"
        );
        // Adjacent ([100,200) then [200,300)) is fine.
        FaultPlan::new(1)
            .try_with_burst(FaultKind::FabricLoss, 0.2, Cycles(100), Cycles(200))
            .unwrap()
            .try_with_burst(FaultKind::FabricLoss, 0.4, Cycles(200), Cycles(300))
            .unwrap();
        // Same window on a *different* kind overlaps freely (composed storm).
        FaultPlan::new(1)
            .try_with_burst(FaultKind::FabricLoss, 0.2, Cycles(100), Cycles(200))
            .unwrap()
            .try_with_burst(FaultKind::NicDrop, 0.2, Cycles(100), Cycles(200))
            .unwrap();
    }

    #[test]
    fn burst_rates_are_validated() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = FaultPlan::new(1)
                .try_with_burst(FaultKind::NicDrop, bad, Cycles(0), Cycles(10))
                .unwrap_err();
            assert!(
                matches!(err, FaultPlanError::RateOutOfRange { .. }),
                "{bad}"
            );
        }
    }

    #[test]
    fn inverted_delay_is_structured() {
        let payload = std::panic::catch_unwind(|| {
            FaultPlan::new(1).with_delay(FaultKind::NicStall, Cycles(20), Cycles(10))
        })
        .unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic message is formatted");
        assert_eq!(msg, "nic.stall: delay range 20..10 is inverted");
    }

    #[test]
    fn burst_overrides_base_rate_inside_window_only() {
        let mut p = FaultPlan::new(4)
            .with_rate(FaultKind::FabricLoss, 1.0)
            .try_with_burst(FaultKind::FabricLoss, 0.0, Cycles(100), Cycles(200))
            .unwrap();
        // Base rate 1.0 outside the burst, calm (0.0) inside it.
        assert!(p.draw(Cycles(99), FaultKind::FabricLoss));
        assert!(!p.draw(Cycles(100), FaultKind::FabricLoss));
        assert!(!p.draw(Cycles(199), FaultKind::FabricLoss));
        assert!(p.draw(Cycles(200), FaultKind::FabricLoss));
    }

    #[test]
    fn burstless_plan_draws_are_bit_identical_to_legacy_path() {
        // A plan with no bursts must consume the exact same randomness as
        // before bursts existed: one `chance(rate)` on the component's
        // stream, forked from the seed in component order, per draw.
        let mut p = FaultPlan::new(77).with_rate(FaultKind::SsdReadError, 0.3);
        let mut root = Rng::seed_from(77);
        let _nic = root.fork(1);
        let mut ssd = root.fork(2);
        for i in 0..5_000 {
            assert_eq!(p.draw(Cycles(i), FaultKind::SsdReadError), ssd.chance(0.3));
        }
    }

    #[test]
    fn calm_burst_consumes_no_randomness() {
        // A zero-rate burst must leave the stream untouched so draws after
        // the calm window realign with an uninterrupted plan.
        let mut plain = FaultPlan::new(8).with_rate(FaultKind::NicDrop, 0.5);
        let mut calmed = FaultPlan::new(8)
            .with_rate(FaultKind::NicDrop, 0.5)
            .try_with_burst(FaultKind::NicDrop, 0.0, Cycles(10), Cycles(20))
            .unwrap();
        let a: Vec<bool> = (0..10)
            .map(|i| plain.draw(Cycles(i), FaultKind::NicDrop))
            .collect();
        let b: Vec<bool> = (0..10)
            .map(|i| calmed.draw(Cycles(i), FaultKind::NicDrop))
            .collect();
        assert_eq!(a, b);
        // Querying inside the calm window fires nothing and draws nothing…
        for i in 10..20 {
            assert!(!calmed.draw(Cycles(i), FaultKind::NicDrop));
        }
        // …so after the window the calmed plan's stream matches a plan
        // that was simply never queried during [10, 20).
        let a: Vec<bool> = (20..40)
            .map(|i| plain.draw(Cycles(i), FaultKind::NicDrop))
            .collect();
        let b: Vec<bool> = (20..40)
            .map(|i| calmed.draw(Cycles(i), FaultKind::NicDrop))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_kind_fires_at_rate_one() {
        for k in FaultKind::ALL {
            let mut p = FaultPlan::new(1).with_rate(k, 1.0);
            assert!(p.draw(Cycles(0), k), "{k} should fire at rate 1");
        }
    }
}
