//! Dedicated-core polling dataplanes (IX `[24]`, ZygOS `[65]`, DPDK `[3]`,
//! TAS `[48]`, Snap `[55]`): the design §2 says the new model makes
//! unnecessary. Polling gets near-zero notification latency but "wastes
//! one or more cores and complicates core allocation under varying I/O
//! load".

use switchless_sim::time::Cycles;
use switchless_wl::queue::{Discipline, QueueConfig};

use crate::costs::LegacyCosts;

/// A polling dataplane with a fixed set of dedicated cores.
#[derive(Clone, Copy, Debug)]
pub struct PollingPlane {
    /// Cost book.
    pub costs: LegacyCosts,
    /// Cores dedicated to spinning.
    pub polling_cores: usize,
}

impl PollingPlane {
    /// Creates a plane with `polling_cores` burned cores.
    #[must_use]
    pub fn new(costs: LegacyCosts, polling_cores: usize) -> PollingPlane {
        assert!(polling_cores > 0, "polling needs at least one core");
        PollingPlane {
            costs,
            polling_cores,
        }
    }

    /// Mean notification latency: half a poll iteration.
    #[must_use]
    pub fn mean_notification(&self) -> Cycles {
        Cycles(self.costs.poll_iteration.0 / 2)
    }

    /// Maps run-to-completion polling onto the queueing simulator: FCFS
    /// on the dedicated cores with the poll-freshness wakeup term.
    #[must_use]
    pub fn to_queue_config(&self) -> QueueConfig {
        QueueConfig {
            servers: self.polling_cores,
            discipline: Discipline::Fcfs,
            wakeup_overhead: self.mean_notification(),
            dispatch_overhead: Cycles::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_sim::rng::Rng;
    use switchless_wl::dist::ServiceDist;
    use switchless_wl::queue::QueueSim;
    use switchless_wl::sweep::make_jobs;

    #[test]
    fn notification_is_sub_microsecond() {
        let p = PollingPlane::new(LegacyCosts::default(), 1);
        assert!(p.mean_notification().0 < 300);
    }

    #[test]
    fn low_load_wastes_nearly_everything() {
        let p = PollingPlane::new(LegacyCosts::default(), 2);
        let mut rng = Rng::seed_from(1);
        // 5% load on 2 cores.
        let jobs = make_jobs(&mut rng, &ServiceDist::Fixed(3000), 2, 0.05, 2_000);
        let r = QueueSim::run(&p.to_queue_config(), &jobs, Cycles::ZERO);
        // Everything the cores did not spend on work is wasted spin.
        let total = r.makespan.0 * 2;
        let wasted = total.saturating_sub(r.busy_cycles);
        assert!(
            wasted as f64 / total as f64 > 0.9,
            "only {:.0}% wasted",
            100.0 * wasted as f64 / total as f64
        );
    }

    #[test]
    fn latency_is_excellent_when_cores_free() {
        let p = PollingPlane::new(LegacyCosts::default(), 2);
        let mut rng = Rng::seed_from(2);
        let jobs = make_jobs(&mut rng, &ServiceDist::Fixed(3000), 2, 0.3, 5_000);
        let r = QueueSim::run(&p.to_queue_config(), &jobs, Cycles::ZERO);
        // Near service time: 3000 + 150 mean notification + queueing.
        assert!(r.sojourn.p50() < 3000 * 2, "p50 {}", r.sojourn.p50());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = PollingPlane::new(LegacyCosts::default(), 0);
    }
}
