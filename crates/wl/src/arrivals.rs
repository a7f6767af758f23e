//! Arrival processes.

use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

/// Generates `n` open-loop Poisson arrival times starting at `start`,
/// with mean inter-arrival gap `mean_gap` cycles.
///
/// # Examples
///
/// ```
/// use switchless_sim::rng::Rng;
/// use switchless_sim::time::Cycles;
/// use switchless_wl::arrivals::poisson_arrivals;
///
/// let mut rng = Rng::seed_from(1);
/// let ts = poisson_arrivals(&mut rng, Cycles(0), 5000.0, 100);
/// assert_eq!(ts.len(), 100);
/// assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted");
/// ```
pub fn poisson_arrivals(rng: &mut Rng, start: Cycles, mean_gap: f64, n: usize) -> Vec<Cycles> {
    assert!(mean_gap > 0.0, "mean gap must be positive");
    let mut t = start.0 as f64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.next_exp(mean_gap).max(0.0);
        out.push(Cycles(t.round() as u64));
    }
    out
}

/// Converts a target utilization into a mean inter-arrival gap, given
/// mean service time and server count: `gap = service / (servers * rho)`.
#[must_use]
pub fn gap_for_utilization(mean_service: f64, servers: usize, rho: f64) -> f64 {
    assert!(rho > 0.0, "utilization must be positive");
    mean_service / (servers as f64 * rho)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_approximately_correct() {
        let mut rng = Rng::seed_from(7);
        let n = 50_000;
        let ts = poisson_arrivals(&mut rng, Cycles(0), 1000.0, n);
        let span = ts.last().unwrap().0 as f64;
        let rate = n as f64 / span;
        assert!((rate - 0.001).abs() / 0.001 < 0.03, "rate {rate}");
    }

    #[test]
    fn poisson_is_monotone_and_deterministic() {
        let mut a = Rng::seed_from(9);
        let mut b = Rng::seed_from(9);
        let ta = poisson_arrivals(&mut a, Cycles(5), 100.0, 1000);
        let tb = poisson_arrivals(&mut b, Cycles(5), 100.0, 1000);
        assert_eq!(ta, tb);
        assert!(ta.windows(2).all(|w| w[0] <= w[1]));
        assert!(ta[0] >= Cycles(5));
    }

    #[test]
    fn utilization_gap_math() {
        // service 3000cy, 2 servers, rho 0.5 -> gap 3000.
        assert!((gap_for_utilization(3000.0, 2, 0.5) - 3000.0).abs() < 1e-9);
        // rho 1.0 on 1 server -> gap == service.
        assert!((gap_for_utilization(3000.0, 1, 1.0) - 3000.0).abs() < 1e-9);
    }
}
