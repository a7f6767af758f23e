//! Machine-wide invariant checking plumbing.
//!
//! Chaos soaks are only as trustworthy as the oracle that watches them: a
//! storm that corrupts state *silently* proves nothing. This module holds
//! the machine-agnostic half of the invariant checker — the violation
//! record, the bounded report, and the conservation [`Ledger`] device
//! models keep their descriptor-ring accounting in. The machine-specific
//! checks (thread-state legality, no-lost-wakeup, queue monotonicity,
//! quarantine liveness) live in `switchless-core`, which walks its own
//! state at event-queue boundaries and records anything illegal here.
//!
//! Checking is **off by default** and enabled per machine for chaos and
//! debug runs, so the measured experiments stay bit-identical.

use crate::time::Cycles;

/// One observed violation of a named invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name, e.g. `"thread.state"` or `"nic.rx.ring"`.
    pub invariant: &'static str,
    /// Simulated time at which the check failed.
    pub at: Cycles,
    /// Human-readable specifics (thread id, counter values, …).
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{}] {} at cycle {}",
            self.invariant, self.detail, self.at.0
        )
    }
}

/// Violations kept verbatim before the report starts counting only.
const KEEP: usize = 32;

/// A bounded accumulator of invariant violations.
///
/// Keeps the first `KEEP` violations verbatim (a broken invariant tends
/// to fire on every subsequent check, and the *first* occurrence is the
/// diagnostic one) plus an exact total count and the number of checks run.
#[derive(Clone, Debug, Default)]
pub struct InvariantReport {
    kept: Vec<Violation>,
    total: u64,
    checks: u64,
}

impl InvariantReport {
    /// A fresh, empty report.
    #[must_use]
    pub fn new() -> InvariantReport {
        InvariantReport::default()
    }

    /// Records one violation.
    pub fn record(&mut self, invariant: &'static str, at: Cycles, detail: String) {
        self.total += 1;
        if self.kept.len() < KEEP {
            self.kept.push(Violation {
                invariant,
                at,
                detail,
            });
        }
    }

    /// Notes that one checking pass ran (violation-free or not).
    pub fn note_check(&mut self) {
        self.checks += 1;
    }

    /// True when no violation has ever been recorded.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Total violations recorded (including ones beyond the kept window).
    ///
    /// Like [`InvariantReport::checks`], this depends on the host engine
    /// (a broken invariant fires once per check); the first violation
    /// does not.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of checking passes run. The count depends on the host
    /// engine: the core-sharded epoch engine checks once per committed
    /// epoch where the serial loop checks at every clock advance inside
    /// it. The first violation is the same on every engine.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// The first violations, up to the kept bound.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.kept
    }

    /// Drops all recorded state, keeping checking enabled-ness to the
    /// caller (the report does not know whether it is active).
    pub fn clear(&mut self) {
        self.kept.clear();
        self.total = 0;
        self.checks = 0;
    }
}

/// Descriptor-ring conservation ledger: every posted operation must end up
/// exactly one of completed, in-flight, or dropped.
///
/// Device models account each operation at the moment its fate changes
/// (posted → in-flight → completed/dropped); the checker then asserts
/// `posted == completed + in_flight + dropped`. The value of the check is
/// that the four counters are bumped on *different code paths* — a path
/// that forgets or double-counts an operation (the classic lost-completion
/// bug) unbalances the ledger immediately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Operations handed to the device.
    pub posted: u64,
    /// Operations whose completion was delivered.
    pub completed: u64,
    /// Operations accepted but not yet completed or dropped.
    pub in_flight: u64,
    /// Operations deliberately lost (injected fault, backpressure).
    pub dropped: u64,
}

impl Ledger {
    /// True when the ring conserves descriptors.
    #[must_use]
    pub fn balanced(&self) -> bool {
        self.posted == self.completed + self.in_flight + self.dropped
    }

    /// Diagnostic rendering for violation details.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "posted={} completed={} in_flight={} dropped={}",
            self.posted, self.completed, self.in_flight, self.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_keeps_first_violations_and_exact_total() {
        let mut r = InvariantReport::new();
        assert!(r.is_clean());
        for i in 0..100u64 {
            r.record("thread.state", Cycles(i), format!("v{i}"));
        }
        assert!(!r.is_clean());
        assert_eq!(r.total(), 100);
        assert_eq!(r.violations().len(), KEEP);
        assert_eq!(r.violations()[0].detail, "v0");
        r.clear();
        assert!(r.is_clean());
        assert_eq!(r.checks(), 0);
    }

    #[test]
    fn ledger_balance() {
        let mut l = Ledger::default();
        assert!(l.balanced());
        l.posted = 10;
        l.completed = 6;
        l.in_flight = 3;
        l.dropped = 1;
        assert!(l.balanced());
        l.dropped = 0; // a lost completion
        assert!(!l.balanced());
        assert!(l.describe().contains("posted=10"));
    }

    #[test]
    fn violation_display_names_invariant() {
        let v = Violation {
            invariant: "queue.monotone",
            at: Cycles(42),
            detail: "t=41 after t=42".into(),
        };
        let s = v.to_string();
        assert!(s.contains("queue.monotone") && s.contains("42"), "{s}");
    }
}
