//! Seeded input generation: SplitMix64, so a seed fixes every input.

use dynamic_data_layout::num::Complex64;

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, fast, and fully
/// determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`, so independent inputs
    /// drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform integer in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Exponentially distributed with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// `n` complex points with both parts uniform in `[-1, 1)`.
    pub fn complex_signal(&mut self, n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|_| Complex64::new(self.signed(), self.signed()))
            .collect()
    }

    /// `n` reals uniform in `[-1, 1)`.
    pub fn real_signal(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.signed()).collect()
    }
}
