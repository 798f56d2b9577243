//! Order statistics and compensated sums for the benchmark's reports.

/// Smallest number of samples that must lie beyond a reported
/// percentile for it to count as measured rather than a lone outlier.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 <= q <= 1`) of `samples`, by linear
/// interpolation between closest ranks (the "type 7" estimator). The
/// slice is sorted in place. `None` when there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

/// The median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Number of samples strictly beyond the `q`-quantile's rank.
pub fn samples_beyond(count: usize, q: f64) -> usize {
    if count == 0 {
        return 0;
    }
    let rank = (q * (count - 1) as f64).ceil() as usize;
    count - 1 - rank.min(count - 1)
}

/// Whether a `q`-quantile of `count` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail_is_measured(count: usize, q: f64) -> bool {
    samples_beyond(count, q) >= MIN_BEYOND
}

/// The latency tail a run of `count` operations can report: p99 when it
/// has ten samples beyond it, else p90.
pub fn tail_q(count: usize) -> f64 {
    if tail_is_measured(count, 0.99) {
        0.99
    } else {
        0.9
    }
}

/// Neumaier-compensated summation: the running error term keeps the
/// sum accurate to about one rounding of the result regardless of `n`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompensatedSum {
    sum: f64,
    comp: f64,
}

impl CompensatedSum {
    /// Adds one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 0.5), Some(3.0));
        assert_eq!(quantile(&mut v, 1.0), Some(5.0));
        assert_eq!(quantile(&mut v, 0.25), Some(2.0));
        let mut w = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut w), Some(2.5));
        assert_eq!(quantile(&mut w, 0.9), Some(3.7));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(quantile(&mut [1.0], 1.5), None);
    }

    #[test]
    fn quantile_matches_sorted_rank_on_unsorted_input() {
        let mut v: Vec<f64> = (0..101).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 0.9), Some(90.0));
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        assert_eq!(samples_beyond(101, 0.9), 10);
        assert!(tail_is_measured(101, 0.9));
        assert!(!tail_is_measured(100, 0.9));
        assert_eq!(samples_beyond(1001, 0.99), 10);
        assert!(!tail_is_measured(1000, 0.99));
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert_eq!(samples_beyond(1, 0.99), 0);
        assert_eq!(tail_q(1001), 0.99);
        assert_eq!(tail_q(1000), 0.9);
    }

    #[test]
    fn compensated_sum_keeps_small_terms() {
        let mut s = CompensatedSum::default();
        s.add(1.0);
        for _ in 0..1000 {
            s.add(1e-16);
        }
        s.add(-1.0);
        assert!((s.value() - 1e-13).abs() < 1e-20, "{}", s.value());
    }
}
