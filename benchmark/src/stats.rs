//! Order statistics for run results: quartiles that agree with Python's
//! `statistics.quantiles(values, n=4)` (the rule the acceptance check
//! uses), and the "highest percentile with at least ten samples beyond it"
//! rule for latency tails.

/// Sort a copy of `values` ascending (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `i`-th quartile (`i` in 1..=3) of an ascending-sorted slice, by the
/// same arithmetic as `statistics.quantiles(values, n=4)` (the default
/// *exclusive* method: rank `i·(m+1)/4`, linearly interpolated — and, like
/// Python, extrapolated when a two-value sample puts that rank outside it).
pub fn quartile_sorted(sorted: &[f64], i: usize) -> f64 {
    assert!((1..=3).contains(&i), "quartile index out of range");
    let m = sorted.len();
    match m {
        0 => f64::NAN,
        1 => sorted[0],
        _ => {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        }
    }
}

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (any order).
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Self {
            min: s.first().copied().unwrap_or(f64::NAN),
            q1: quartile_sorted(&s, 1),
            median: quartile_sorted(&s, 2),
            q3: quartile_sorted(&s, 3),
            max: s.last().copied().unwrap_or(f64::NAN),
            n: s.len(),
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance check compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Samples that must lie beyond a reported tail percentile for it to be
/// more than an anecdote.
pub const MIN_BEYOND: usize = 10;

/// The highest whole percentile `p ≤ cap` that still leaves at least
/// [`MIN_BEYOND`] samples strictly above its rank, never below the
/// median. With 288 samples and `cap = 95` this is 95 (14 beyond); with
/// 120 samples it is 91.
pub fn supported_percentile(samples: usize, cap: u32) -> u32 {
    let mut p = cap.min(99);
    while p > 50 && samples.saturating_sub(rank_of(samples, p)) < MIN_BEYOND {
        p -= 1;
    }
    p
}

/// 1-based nearest-rank index of percentile `p` among `samples` values.
fn rank_of(samples: usize, p: u32) -> usize {
    ((p as f64 / 100.0 * samples as f64).ceil() as usize).clamp(1, samples.max(1))
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank_of(sorted.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!((q.min, q.max, q.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) -> [2.0, 8.0, 32.0]
        let q = Quartiles::of(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 8.0, 32.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Quartiles::of(&v).spread() - 1.0).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        // 288 seal samples: p95 has rank 274, 14 beyond.
        assert_eq!(supported_percentile(288, 95), 95);
        // 200 samples: rank 190, exactly 10 beyond.
        assert_eq!(supported_percentile(200, 95), 95);
        // 199 samples: p95 rank 190 leaves 9; p94 rank 188 leaves 11.
        assert_eq!(supported_percentile(199, 95), 94);
        // 120 samples: p91 rank 110 leaves 10.
        assert_eq!(supported_percentile(120, 95), 91);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_percentile(12, 95), 50);
        assert_eq!(supported_percentile(1, 95), 50);
        // p99 needs 1000 samples.
        assert_eq!(supported_percentile(1000, 99), 99);
        assert_eq!(supported_percentile(999, 99), 98);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50), 50.0);
        assert_eq!(percentile_sorted(&v, 95), 95.0);
        assert_eq!(percentile_sorted(&v, 100), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 95), 7.0);
        assert!(percentile_sorted(&[], 95).is_nan());
    }
}
