//! Correctness oracles that stay affordable at 2^20 points.
//!
//! An O(n^2) reference DFT is out of reach at the sizes the paper is
//! about, so the benchmark checks each output two ways in O(n):
//!
//! * a few seeded bins are evaluated exactly, each as one O(n) sum with
//!   compensated summation and the twiddle index reduced as `j*k mod n`
//!   into one table of exactly rounded roots of unity;
//! * Parseval's identity (`sum |y|^2 == n * sum |x|^2` for the
//!   unnormalized transform) covers every bin at once.
//!
//! Both tolerances scale as `c * eps * log2 n`, the growth of a
//! Cooley-Tukey FFT's rounding error.

use dynamic_data_layout::num::twiddle::root_of_unity;
use dynamic_data_layout::num::{Complex64, Direction};

use crate::rng::Rng;
use crate::stats::CompensatedSum;

/// The constant `c` of the `c * eps * log2 n` tolerance.
const TOL_C: f64 = 32.0;

/// Bins checked exactly per output.
pub const CHECKED_BINS: usize = 8;

fn tolerance(n: usize) -> f64 {
    TOL_C * f64::EPSILON * (n.max(2) as f64).log2()
}

/// Bin 0 plus `CHECKED_BINS - 1` seeded bins of an `n`-point output.
pub fn seeded_bins(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0xb1);
    let mut bins = vec![0];
    while bins.len() < CHECKED_BINS.min(n) {
        let k = rng.below(n as u64) as usize;
        if !bins.contains(&k) {
            bins.push(k);
        }
    }
    bins
}

/// Exact reference values for one complex DFT input.
#[derive(Clone, Debug)]
pub struct DftOracle {
    n: usize,
    bins: Vec<(usize, Complex64)>,
    /// `n * sum |x|^2`, the output energy Parseval predicts.
    energy: f64,
    /// `||x||_2`, the scale of one bin's rounding error.
    norm: f64,
}

/// The `n` roots of unity `w_n^m` of one direction, each rounded once.
pub fn roots_of_unity(n: usize, dir: Direction) -> Vec<Complex64> {
    (0..n).map(|m| root_of_unity(n, m, dir)).collect()
}

impl DftOracle {
    /// Evaluates the `bins` of the DFT of `x` exactly. `roots` must be
    /// [`roots_of_unity`] of `x.len()` in the transform's direction.
    pub fn new(x: &[Complex64], roots: &[Complex64], bins: &[usize]) -> DftOracle {
        let n = x.len();
        assert_eq!(roots.len(), n, "one root of unity per point");
        let mut sq = CompensatedSum::default();
        for v in x {
            sq.add(v.norm_sqr());
        }
        let bins = bins
            .iter()
            .map(|&k| {
                let (mut re, mut im) = (CompensatedSum::default(), CompensatedSum::default());
                let mut m = 0usize;
                for v in x {
                    let w = roots[m];
                    re.add(v.re * w.re);
                    re.add(-(v.im * w.im));
                    im.add(v.re * w.im);
                    im.add(v.im * w.re);
                    m += k;
                    if m >= n {
                        m -= n;
                    }
                }
                (k, Complex64::new(re.value(), im.value()))
            })
            .collect();
        DftOracle {
            n,
            bins,
            energy: n as f64 * sq.value(),
            norm: sq.value().sqrt(),
        }
    }

    /// Checks one transform output against the reference.
    pub fn check(&self, y: &[Complex64]) -> Result<(), String> {
        if y.len() < self.n {
            return Err(format!("output has {} of {} points", y.len(), self.n));
        }
        let mut e = CompensatedSum::default();
        for v in &y[..self.n] {
            e.add(v.norm_sqr());
        }
        verdict(
            self.n,
            self.bins.iter().map(|&(k, want)| (k, (y[k] - want).abs())),
            self.norm,
            e.value(),
            self.energy,
        )
    }
}

/// Judges one output: every checked bin's error against `tol * norm`,
/// and the output energy against Parseval's prediction. A NaN error
/// fails.
fn verdict(
    n: usize,
    bin_errors: impl Iterator<Item = (usize, f64)>,
    norm: f64,
    energy: f64,
    want_energy: f64,
) -> Result<(), String> {
    let tol = tolerance(n);
    for (k, err) in bin_errors {
        if err.is_nan() || err > tol * norm {
            return Err(format!(
                "bin {k}: error {err:.3e} exceeds {:.3e}",
                tol * norm
            ));
        }
    }
    let rel = (energy - want_energy).abs() / want_energy.max(f64::MIN_POSITIVE);
    if rel.is_nan() || rel > tol {
        return Err(format!(
            "Parseval: relative energy error {rel:.3e} exceeds {tol:.3e}"
        ));
    }
    Ok(())
}

/// Exact reference values for one Walsh-Hadamard input (natural order:
/// `y[k] = sum_j x[j] * (-1)^popcount(j & k)`).
#[derive(Clone, Debug)]
pub struct WhtOracle {
    n: usize,
    bins: Vec<(usize, f64)>,
    energy: f64,
    norm: f64,
}

impl WhtOracle {
    /// Evaluates the `bins` of the WHT of `x` exactly.
    pub fn new(x: &[f64], bins: &[usize]) -> WhtOracle {
        let n = x.len();
        let mut sq = CompensatedSum::default();
        for v in x {
            sq.add(v * v);
        }
        let bins = bins
            .iter()
            .map(|&k| {
                let mut s = CompensatedSum::default();
                for (j, v) in x.iter().enumerate() {
                    s.add(if (j & k).count_ones() % 2 == 0 {
                        *v
                    } else {
                        -*v
                    });
                }
                (k, s.value())
            })
            .collect();
        WhtOracle {
            n,
            bins,
            energy: n as f64 * sq.value(),
            norm: sq.value().sqrt(),
        }
    }

    /// Checks one transform output against the reference.
    pub fn check(&self, y: &[f64]) -> Result<(), String> {
        if y.len() < self.n {
            return Err(format!("output has {} of {} points", y.len(), self.n));
        }
        let mut e = CompensatedSum::default();
        for v in &y[..self.n] {
            e.add(v * v);
        }
        verdict(
            self.n,
            self.bins.iter().map(|&(k, want)| (k, (y[k] - want).abs())),
            self.norm,
            e.value(),
            self.energy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_data_layout::prelude::*;

    fn planned_dft(n: usize, seed: u64) -> (Vec<Complex64>, Vec<Complex64>) {
        let x = Rng::new(seed, 1).complex_signal(n);
        let plan = DftPlan::new(
            plan_dft(n, &PlannerConfig::ddl_analytical()).tree,
            Direction::Forward,
        )
        .unwrap();
        let mut y = vec![Complex64::ZERO; n];
        plan.execute(&x, &mut y);
        (x, y)
    }

    #[test]
    fn dft_oracle_accepts_the_library_and_matches_a_naive_dft() {
        let n = 256;
        let (x, y) = planned_dft(n, 7);
        let naive = dynamic_data_layout::kernels::naive_dft(&x, Direction::Forward);
        let bins = seeded_bins(n, 3);
        let oracle = DftOracle::new(&x, &roots_of_unity(n, Direction::Forward), &bins);
        oracle.check(&y).unwrap();
        oracle.check(&naive).unwrap();
    }

    #[test]
    fn dft_oracle_flags_one_corrupted_checked_bin() {
        let n = 4096;
        let (x, mut y) = planned_dft(n, 11);
        let bins = seeded_bins(n, 5);
        let oracle = DftOracle::new(&x, &roots_of_unity(n, Direction::Forward), &bins);
        oracle.check(&y).unwrap();
        // A relative error of 1e-9 in one bin: far below what Parseval
        // over 4096 bins can see, so only the exact bin check catches it.
        let k = bins[3];
        y[k] = y[k] + Complex64::new(1e-9 * y[k].abs(), 0.0);
        let err = oracle.check(&y).unwrap_err();
        assert!(err.starts_with(&format!("bin {k}:")), "{err}");
    }

    #[test]
    fn dft_oracle_flags_one_corrupted_unchecked_bin_through_parseval() {
        let n = 4096;
        let (x, mut y) = planned_dft(n, 13);
        let bins = seeded_bins(n, 5);
        let oracle = DftOracle::new(&x, &roots_of_unity(n, Direction::Forward), &bins);
        let k = (1..n).find(|k| !bins.contains(k)).unwrap();
        y[k] = y[k].scale(1.01);
        let err = oracle.check(&y).unwrap_err();
        assert!(err.starts_with("Parseval"), "{err}");
    }

    #[test]
    fn wht_oracle_accepts_the_library_and_flags_a_corrupted_bin() {
        let n = 1024;
        let x = Rng::new(17, 2).real_signal(n);
        let plan = WhtPlan::new(plan_wht(n, &PlannerConfig::ddl_analytical()).tree).unwrap();
        let mut y = x.clone();
        plan.execute(&mut y);
        let bins = seeded_bins(n, 9);
        let oracle = WhtOracle::new(&x, &bins);
        oracle.check(&y).unwrap();
        y[bins[2]] += 1e-9;
        assert!(oracle.check(&y).is_err());
    }

    #[test]
    fn seeded_bins_are_distinct_and_repeatable() {
        let a = seeded_bins(1 << 20, 42);
        assert_eq!(a, seeded_bins(1 << 20, 42));
        assert_ne!(a, seeded_bins(1 << 20, 43));
        assert_eq!(a[0], 0);
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), CHECKED_BINS);
        assert_eq!(seeded_bins(4, 1).len(), 4);
    }
}
