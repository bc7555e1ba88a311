//! Exact nearest-rank percentiles over raw samples.
//!
//! Every latency the benchmark reports is computed from the full sample
//! vector, never from a bucketed histogram, so two runs with the same
//! samples report the same number and a p99 is an observed sample.

/// Samples a percentile needs *beyond* its rank before it is reported as
/// supported: with fewer, a p99 is the max of a handful of samples.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `per_10k / 10_000` among `n` samples:
/// the smallest rank with at least that share of the mass at or below it.
pub fn nearest_rank(n: usize, per_10k: usize) -> usize {
    (n * per_10k).div_ceil(10_000).max(1)
}

/// Samples strictly beyond the nearest rank of `per_10k`.
pub fn beyond(n: usize, per_10k: usize) -> usize {
    n.saturating_sub(nearest_rank(n, per_10k))
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the p99 rank
/// (true from 1,000 samples on).
pub fn p99_supported(n: usize) -> bool {
    n > 0 && beyond(n, 9_900) >= MIN_BEYOND
}

/// A sorted copy of a sample vector with nearest-rank accessors.
#[derive(Debug, Clone, Default)]
pub struct Sorted(Vec<u64>);

impl Sorted {
    /// Sorts `samples`.
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Sorted(samples)
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank quantile `per_10k / 10_000`; 0 when empty.
    pub fn quantile(&self, per_10k: usize) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        self.0[nearest_rank(self.0.len(), per_10k) - 1]
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(5_000)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(9_900)
    }
}

/// Median of a small list of measurements (the mean of the middle two for
/// an even count).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median over `n` equal time slices of `[t0, t1)` of a statistic of the
/// samples whose timestamp falls in each slice. A burst of co-tenant load
/// then moves one slice, not the reported number.
pub fn sliced_median(
    samples: &[(u64, u64)],
    t0: u64,
    t1: u64,
    n: usize,
    stat: impl Fn(&Sorted) -> f64,
) -> f64 {
    let n = n.max(1);
    let width = (t1.saturating_sub(t0) / n as u64).max(1);
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); n];
    for &(at, value) in samples {
        let i = (at.saturating_sub(t0) / width).min(n as u64 - 1) as usize;
        slices[i].push(value);
    }
    let stats: Vec<f64> = slices.into_iter().map(|s| stat(&Sorted::new(s))).collect();
    median_f64(&stats)
}
