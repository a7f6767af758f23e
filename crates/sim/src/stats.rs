//! Streaming statistics: latency histograms and named counters.
//!
//! The experiment harness reports percentiles (p50/p90/p99/p99.9) of
//! latency distributions, as the papers cited by our target (`[46]` Shinjuku,
//! `[63]` Shenango) do. [`Histogram`] is a log-bucketed (HDR-style) histogram
//! with bounded relative error, so recording is O(1) and memory is constant
//! regardless of sample count.

use core::fmt;

use crate::hash::FxHashMap;

/// Log-bucketed histogram of non-negative integer values (e.g. cycles).
///
/// Values are bucketed with `SUB_BITS` sub-buckets per power of two, giving
/// a worst-case relative quantile error of `2^-SUB_BITS` (< 2% with the
/// default 6 bits). Recording saturates at `2^62` rather than panicking.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: u128,
    max: u64,
    min: u64,
}

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per octave (<2% error).
const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS;
/// 63 octaves × 64 sub-buckets covers the full u64-ish range.
const NBUCKETS: usize = 63 * SUBS;

fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS;
    let sub = (v >> octave) as usize - SUBS;
    ((octave as usize) * SUBS + SUBS + sub).min(NBUCKETS - 1)
}

/// Representative (midpoint) value for a bucket index.
fn bucket_value(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let octave = (idx - SUBS) / SUBS;
    let sub = (idx - SUBS) % SUBS;
    let lo = ((SUBS + sub) as u64) << octave;
    let width = 1u64 << octave;
    lo + width / 2
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; NBUCKETS],
            count: 0,
            total: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let v = v.min(1 << 62);
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.total += u128::from(v);
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Exact maximum recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in `[0, 1]`, within the bucket resolution.
    ///
    /// Returns 0 for an empty histogram. `q` outside `[0,1]` is clamped.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based ceil like HdrHistogram.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median (p50) shorthand.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile shorthand.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile shorthand.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Clears all recorded samples (e.g. at the end of a warmup window).
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.total = 0;
        self.max = 0;
        self.min = u64::MAX;
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} p99.9={} max={}",
            self.count,
            self.mean(),
            self.p50(),
            self.p99(),
            self.p999(),
            self.max()
        )
    }
}

/// A registry of named monotonically increasing counters.
///
/// Kernels and devices bump counters ("irq.delivered", "nic.rx.drops") and
/// experiments snapshot them. [`Counters::iter`] sorts, so output stays in
/// name order while the hot `add`/`inc` path is a single hash lookup that
/// allocates only the first time a name is seen.
///
/// For the hottest sites (bumped once or more per simulated instruction),
/// [`Counters::id`] resolves a name to a [`CounterId`] once, and
/// [`Counters::bump`] is then a bare array index — no hashing, no string
/// compare. Still-zero counters are not reported by [`Counters::iter`],
/// so pre-registering an id does not change output.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    index: FxHashMap<String, u32>,
    /// Parallel arrays; `index` maps a name to its slot in both.
    names: Vec<String>,
    slots: Vec<u64>,
}

/// A pre-resolved counter handle; see [`Counters::id`].
///
/// Ids stay valid for the lifetime of the registry ([`Counters::reset`]
/// zeroes values but keeps registrations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u32);

impl Counters {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Resolves `name` to a stable [`CounterId`], registering it at zero
    /// on first use. O(name) once; [`Counters::bump`] is O(1) after.
    pub fn id(&mut self, name: &str) -> CounterId {
        if let Some(&i) = self.index.get(name) {
            return CounterId(i);
        }
        let i = u32::try_from(self.slots.len()).expect("counter registry overflow");
        self.index.insert(name.to_owned(), i);
        self.names.push(name.to_owned());
        self.slots.push(0);
        CounterId(i)
    }

    /// Adds `n` to the counter behind a pre-resolved id (O(1), no hash).
    #[inline]
    pub fn bump(&mut self, id: CounterId, n: u64) {
        self.slots[id.0 as usize] += n;
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        let id = self.id(name);
        self.bump(id, n);
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 if never bumped).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.index.get(name).map_or(0, |&i| self.slots[i as usize])
    }

    /// Iterates `(name, value)` of every nonzero counter, in name order
    /// (sorted on each call; registered-but-never-bumped names are
    /// omitted, matching the output of a purely on-demand registry).
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut all: Vec<(&str, u64)> = self
            .names
            .iter()
            .zip(&self.slots)
            .filter(|&(_, &v)| v != 0)
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all.into_iter()
    }

    /// Zeroes all counters. Registered [`CounterId`]s remain valid.
    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(|v| *v = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUBS as u64 {
            h.record(v);
        }
        // Below SUBS every value has its own bucket, so quantiles are exact.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUBS as u64 - 1);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let expect = (q * 100_000.0) as u64;
            let got = h.quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.03, "q={q} got={got} expect={expect} err={err}");
        }
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert!((h.mean() - 25.0).abs() < 1e-12);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn histogram_reset() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_single_value() {
        let mut h = Histogram::new();
        h.record(77);
        assert_eq!(h.p50(), 77);
        assert_eq!(h.p999(), 77);
        assert_eq!(h.min(), 77);
    }

    #[test]
    fn histogram_huge_value_saturates() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), 1 << 62);
    }

    #[test]
    fn quantile_empty_histogram_is_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0, -1.0, 2.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_single_sample_every_q() {
        let mut h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.25, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 777);
        }
    }

    #[test]
    fn quantile_extremes_hit_min_and_max_exactly() {
        // Values below SUBS have exact buckets, so q=0 / q=1 are exact.
        let mut h = Histogram::new();
        for v in 5..=60u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 5);
        assert_eq!(h.quantile(1.0), 60);
        // Out-of-range q clamps to the same extremes.
        assert_eq!(h.quantile(-3.5), 5);
        assert_eq!(h.quantile(7.0), 60);
    }

    #[test]
    fn quantile_at_saturation_boundary() {
        // Everything at or above 2^62 saturates into one exact point.
        let mut h = Histogram::new();
        h.record(1 << 62);
        h.record(u64::MAX);
        h.record((1 << 62) + 1);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 1 << 62);
        }
        assert_eq!(h.min(), 1 << 62);
        // A mixed histogram still reports the saturated value at the tail.
        h.record(10);
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(1.0), 1 << 62);
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        for v in [1u64, 63, 64, 65, 100, 1000, 123_456, 1 << 30, 1 << 45] {
            let idx = bucket_index(v);
            let rep = bucket_value(idx);
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.02, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn counter_ids_bump_fast_path() {
        let mut c = Counters::new();
        let id = c.id("hot");
        assert_eq!(c.id("hot"), id, "id() is idempotent per name");
        c.bump(id, 3);
        c.inc("hot");
        assert_eq!(c.get("hot"), 4);
        // Registered-but-never-bumped names don't leak into iter().
        let _cold = c.id("cold");
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["hot"]);
        // reset zeroes values but ids stay valid.
        c.reset();
        assert_eq!(c.get("hot"), 0);
        c.bump(id, 1);
        assert_eq!(c.get("hot"), 1);
    }

    #[test]
    fn counters_basic() {
        let mut c = Counters::new();
        c.inc("a");
        c.add("a", 4);
        c.inc("b");
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("b"), 1);
        assert_eq!(c.get("missing"), 0);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
