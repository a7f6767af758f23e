//! Load-sweep points shared by the experiment harness: [`make_jobs`]
//! draws one point's job trace and [`run_point`] measures it.
//!
//! Per-point seeding: callers seed each point's RNG with
//! `switchless_sim::rng::mix_seed(seed, point_index)`, a SplitMix64
//! derivation that fully decorrelates points. (An earlier scheme,
//! `seed ^ (rho * 1e6) as u64`, only perturbed a few low bits,
//! correlating — and for some rho grids colliding — the streams of nearby
//! points.) Because the seed depends on the point *index*, not on which
//! worker ran it, a parallel sweep is bit-identical for any worker count.

use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

use crate::arrivals::{gap_for_utilization, poisson_arrivals};
use crate::dist::ServiceDist;
use crate::queue::{QueueConfig, QueueResult, QueueSim};

/// One measured point of a load sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Offered utilization (fraction of aggregate capacity).
    pub rho: f64,
    /// Achieved throughput, jobs/cycle.
    pub throughput: f64,
    /// Median sojourn (cycles).
    pub p50: u64,
    /// 99th-percentile sojourn (cycles).
    pub p99: u64,
    /// Mean sojourn (cycles).
    pub mean: f64,
    /// Mean server utilization actually achieved.
    pub achieved_util: f64,
}

/// Generates one job trace: Poisson arrivals at utilization `rho` for a
/// given service distribution.
pub fn make_jobs(
    rng: &mut Rng,
    dist: &ServiceDist,
    servers: usize,
    rho: f64,
    n: usize,
) -> Vec<(Cycles, Cycles)> {
    let gap = gap_for_utilization(dist.mean(), servers, rho);
    poisson_arrivals(rng, Cycles(0), gap, n)
        .into_iter()
        .map(|a| (a, dist.sample(rng)))
        .collect()
}

/// Runs one sweep point through the queueing simulator, trimming the
/// first `warmup_frac` of jobs.
pub fn run_point(
    cfg: &QueueConfig,
    jobs: &[(Cycles, Cycles)],
    warmup_frac: f64,
    rho: f64,
) -> SweepPoint {
    let cut = ((jobs.len() as f64) * warmup_frac) as usize;
    let warmup = jobs.get(cut).map_or(Cycles::ZERO, |j| j.0);
    let r: QueueResult = QueueSim::run(cfg, jobs, warmup);
    SweepPoint {
        rho,
        throughput: r.throughput(),
        p50: r.sojourn.p50(),
        p99: r.sojourn.p99(),
        mean: r.sojourn.mean(),
        achieved_util: r.utilization(cfg.servers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Discipline;
    use switchless_sim::rng::mix_seed;

    fn cfg() -> QueueConfig {
        QueueConfig {
            servers: 2,
            discipline: Discipline::Fcfs,
            wakeup_overhead: Cycles::ZERO,
            dispatch_overhead: Cycles::ZERO,
        }
    }

    /// Measures each rho as F7 does: point `i` draws its trace from
    /// `mix_seed(seed, i)` and trims the first 10% as warmup.
    fn sweep(seed: u64, dist: &ServiceDist, rhos: &[f64], n: usize) -> Vec<SweepPoint> {
        let cfg = cfg();
        rhos.iter()
            .enumerate()
            .map(|(i, &rho)| {
                let mut rng = Rng::seed_from(mix_seed(seed, i as u64));
                let jobs = make_jobs(&mut rng, dist, cfg.servers, rho, n);
                run_point(&cfg, &jobs, 0.1, rho)
            })
            .collect()
    }

    #[test]
    fn latency_grows_with_load() {
        let pts = sweep(
            1,
            &ServiceDist::Exponential { mean: 1000 },
            &[0.3, 0.9],
            20_000,
        );
        assert!(
            pts[1].p99 > pts[0].p99 * 2,
            "{} vs {}",
            pts[1].p99,
            pts[0].p99
        );
        assert!(pts[1].mean > pts[0].mean);
    }

    #[test]
    fn achieved_utilization_tracks_offered() {
        let pts = sweep(2, &ServiceDist::Fixed(1000), &[0.5], 50_000);
        assert!(
            (pts[0].achieved_util - 0.5).abs() < 0.05,
            "{}",
            pts[0].achieved_util
        );
    }

    #[test]
    fn per_point_seeds_are_decorrelated() {
        // Regression for `seed ^ (rho * 1e6) as u64`: distinct rhos (and
        // duplicate rhos at different indices) must get decorrelated
        // arrival streams. With the old scheme, sweeping a duplicated rho
        // replayed the identical stream at both points.
        let dist = ServiceDist::Exponential { mean: 1000 };
        let seed = 42;
        let streams: Vec<Vec<Cycles>> = [0u64, 1, 2]
            .iter()
            .map(|&i| {
                let mut rng = Rng::seed_from(mix_seed(seed, i));
                make_jobs(&mut rng, &dist, 2, 0.5, 64)
                    .into_iter()
                    .map(|(a, _)| a)
                    .collect()
            })
            .collect();
        for a in 0..streams.len() {
            for b in (a + 1)..streams.len() {
                assert_ne!(streams[a], streams[b], "points {a} and {b} correlated");
            }
        }
        // End-to-end: a sweep over the same rho twice measures two
        // independent replications, not one replayed one.
        let pts = sweep(seed, &dist, &[0.5, 0.5], 5_000);
        assert_ne!(
            (pts[0].mean, pts[0].p99),
            (pts[1].mean, pts[1].p99),
            "duplicate rhos replayed the same stream"
        );
    }

    #[test]
    fn throughput_matches_offered_rate_below_saturation() {
        let dist = ServiceDist::Fixed(1000);
        let pts = sweep(3, &dist, &[0.6], 50_000);
        // Offered rate = servers * rho / mean = 2*0.6/1000.
        let offered = 2.0 * 0.6 / 1000.0;
        let err = (pts[0].throughput - offered).abs() / offered;
        assert!(
            err < 0.05,
            "throughput {} vs offered {offered}",
            pts[0].throughput
        );
    }
}
