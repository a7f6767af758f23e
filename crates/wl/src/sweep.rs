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
use crate::queue::{QueueConfig, QueueSim};

/// One measured point of a load sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Offered utilization (fraction of aggregate capacity).
    pub rho: f64,
    /// Median sojourn (cycles).
    pub p50: u64,
    /// 99th-percentile sojourn (cycles).
    pub p99: u64,
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
    let r = QueueSim::run(cfg, jobs, warmup_at(jobs, warmup_frac));
    SweepPoint {
        rho,
        p50: r.sojourn.p50(),
        p99: r.sojourn.p99(),
    }
}

/// The arrival time that ends the first `warmup_frac` of `jobs`.
fn warmup_at(jobs: &[(Cycles, Cycles)], warmup_frac: f64) -> Cycles {
    let cut = ((jobs.len() as f64) * warmup_frac) as usize;
    jobs.get(cut).map_or(Cycles::ZERO, |j| j.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Discipline, QueueResult};
    use switchless_sim::rng::mix_seed;

    fn cfg() -> QueueConfig {
        QueueConfig {
            servers: 2,
            discipline: Discipline::Fcfs,
            wakeup_overhead: Cycles::ZERO,
            dispatch_overhead: Cycles::ZERO,
        }
    }

    /// Each rho's job trace as F7 draws it: point `i` from
    /// `mix_seed(seed, i)`.
    fn traces(seed: u64, dist: &ServiceDist, rhos: &[f64], n: usize) -> Vec<Vec<(Cycles, Cycles)>> {
        rhos.iter()
            .enumerate()
            .map(|(i, &rho)| {
                let mut rng = Rng::seed_from(mix_seed(seed, i as u64));
                make_jobs(&mut rng, dist, cfg().servers, rho, n)
            })
            .collect()
    }

    /// The queue run behind [`run_point`] for one trace, with F7's 10%
    /// warmup.
    fn queue_run(jobs: &[(Cycles, Cycles)]) -> QueueResult {
        QueueSim::run(&cfg(), jobs, warmup_at(jobs, 0.1))
    }

    #[test]
    fn latency_grows_with_load() {
        let rhos = [0.3, 0.9];
        let pts: Vec<SweepPoint> =
            traces(1, &ServiceDist::Exponential { mean: 1000 }, &rhos, 20_000)
                .iter()
                .zip(rhos)
                .map(|(jobs, rho)| run_point(&cfg(), jobs, 0.1, rho))
                .collect();
        assert!(
            pts[1].p99 > pts[0].p99 * 2,
            "{} vs {}",
            pts[1].p99,
            pts[0].p99
        );
        assert!(pts[1].p50 > pts[0].p50);
    }

    #[test]
    fn achieved_utilization_tracks_offered() {
        let r = queue_run(&traces(2, &ServiceDist::Fixed(1000), &[0.5], 50_000)[0]);
        let util = r.busy_cycles as f64 / (r.makespan.0 as f64 * 2.0);
        assert!((util - 0.5).abs() < 0.05, "{util}");
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
        let runs: Vec<QueueResult> = traces(seed, &dist, &[0.5, 0.5], 5_000)
            .iter()
            .map(|jobs| queue_run(jobs))
            .collect();
        assert_ne!(
            (runs[0].makespan, runs[0].busy_cycles),
            (runs[1].makespan, runs[1].busy_cycles),
            "duplicate rhos replayed the same stream"
        );
    }

    #[test]
    fn throughput_matches_offered_rate_below_saturation() {
        let r = queue_run(&traces(3, &ServiceDist::Fixed(1000), &[0.6], 50_000)[0]);
        let throughput = r.completed as f64 / r.makespan.0 as f64;
        // Offered rate = servers * rho / mean = 2*0.6/1000.
        let offered = 2.0 * 0.6 / 1000.0;
        let err = (throughput - offered).abs() / offered;
        assert!(err < 0.05, "throughput {throughput} vs offered {offered}");
    }
}
