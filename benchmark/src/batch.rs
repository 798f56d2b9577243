//! Batches through the work-stealing scheduler, on two threads and one.

use std::time::{Duration, Instant};

use dynamic_data_layout::num::Complex64;
use dynamic_data_layout::prelude::{try_execute_dft_batch, DftPlan};

use crate::oracle::{roots_of_unity, seeded_bins, DftOracle};
use crate::report::Report;
use crate::rng::Rng;

/// One seeded batch: `items` signals of `plan.n()` points each, with the
/// exact reference bins of every item.
pub struct Batch {
    /// The plan every item runs.
    pub plan: DftPlan,
    /// The concatenated signals.
    pub inputs: Vec<Complex64>,
    oracles: Vec<DftOracle>,
}

impl Batch {
    /// Draws the batch's signals from `seed` and evaluates their
    /// reference bins.
    pub fn new(plan: DftPlan, items: usize, seed: u64) -> Batch {
        let n = plan.n();
        let mut rng = Rng::new(seed, 0xba);
        let inputs = rng.complex_signal(n * items);
        let roots = roots_of_unity(n, plan.direction());
        let oracles = inputs
            .chunks_exact(n)
            .enumerate()
            .map(|(i, x)| DftOracle::new(x, &roots, &seeded_bins(n, seed ^ i as u64)))
            .collect();
        Batch {
            plan,
            inputs,
            oracles,
        }
    }

    /// Checks every item of an output batch.
    pub fn check(&self, outputs: &[Complex64]) -> Result<(), String> {
        for (i, (o, y)) in self
            .oracles
            .iter()
            .zip(outputs.chunks_exact(self.plan.n()))
            .enumerate()
        {
            o.check(y).map_err(|e| format!("item {i}: {e}"))?;
        }
        Ok(())
    }
}

/// Samples from a series of batch pairs.
#[derive(Debug, Default)]
pub struct BatchRun {
    /// Two-thread batch call times.
    pub wall_2t: Vec<Duration>,
    /// One-thread batch call times.
    pub wall_1t: Vec<Duration>,
    /// Per two-thread batch: summed item time / (2 x batch wall).
    pub efficiency: Vec<f64>,
    /// Tasks stolen, over all two-thread batches.
    pub steals: u64,
    /// Batches that fell back to sequential execution.
    pub degraded: u64,
}

/// One batch call; returns its wall time and the report's efficiency,
/// steals and degradation, or why it failed.
fn one_batch(
    batch: &Batch,
    out: &mut [Complex64],
    threads: usize,
) -> Result<(Duration, f64, u64, bool), String> {
    let t0 = Instant::now();
    let report = try_execute_dft_batch(&batch.plan, &batch.inputs, out, threads)
        .map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    if let Some((i, e)) = report.failures().next() {
        return Err(format!("item {i}: {e}"));
    }
    let busy: u64 = report.timings().iter().map(|t| t.run_ns).sum();
    let eff = busy as f64 / (threads as f64 * report.wall_ns().max(1) as f64);
    Ok((wall, eff, report.steals(), report.degraded_to_sequential()))
}

/// The first two-thread call on fresh output buffers, checked: the
/// warm-up before [`run_pairs`] times anything.
pub fn first_batch(batch: &Batch) -> Result<(), String> {
    let mut out = vec![Complex64::ZERO; batch.inputs.len()];
    one_batch(batch, &mut out, 2).and_then(|_| batch.check(&out))
}

/// Runs pairs of (two-thread, one-thread) batches, alternating which
/// goes first, until `seconds` have passed and at least `min_pairs` pairs
/// ran. Outputs are checked outside the timed calls, into `r`: every
/// batch against the oracle, and the two outputs of each pair against
/// each other.
pub fn run_pairs(batch: &Batch, seconds: f64, min_pairs: usize, r: &mut Report) -> BatchRun {
    let mut out2 = vec![Complex64::ZERO; batch.inputs.len()];
    let mut out1 = vec![Complex64::ZERO; batch.inputs.len()];
    let mut run = BatchRun::default();
    let start = Instant::now();
    let mut pair = 0usize;
    while pair < min_pairs || start.elapsed().as_secs_f64() < seconds {
        let order = if pair.is_multiple_of(2) {
            [2, 1]
        } else {
            [1, 2]
        };
        for threads in order {
            let out = if threads == 2 { &mut out2 } else { &mut out1 };
            let outcome = one_batch(batch, out, threads).map(|(wall, eff, steals, degraded)| {
                run.degraded += u64::from(degraded);
                if threads == 2 {
                    run.wall_2t.push(wall);
                    run.efficiency.push(eff);
                    run.steals += steals;
                } else {
                    run.wall_1t.push(wall);
                }
            });
            r.check(
                &format!("{threads}-thread batch"),
                outcome.and_then(|()| batch.check(out)),
            );
        }
        r.check(
            "two-thread vs one-thread batch",
            if out1 == out2 {
                Ok(())
            } else {
                Err("outputs differ".into())
            },
        );
        pair += 1;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_data_layout::prelude::*;

    fn plan(n: usize) -> DftPlan {
        DftPlan::new(
            plan_dft(n, &PlannerConfig::ddl_analytical()).tree,
            Direction::Forward,
        )
        .unwrap()
    }

    #[test]
    fn same_seed_gives_the_same_batch() {
        let a = Batch::new(plan(256), 4, 9);
        let b = Batch::new(plan(256), 4, 9);
        assert_eq!(a.inputs, b.inputs);
        assert_ne!(a.inputs, Batch::new(plan(256), 4, 10).inputs);
    }

    #[test]
    fn pairs_run_clean_and_agree_across_thread_counts() {
        let batch = Batch::new(plan(1024), 6, 1);
        first_batch(&batch).unwrap();
        let mut r = Report::default();
        let run = run_pairs(&batch, 0.0, 3, &mut r);
        assert_eq!(r.failed, 0);
        assert_eq!(r.attempted, 9);
        assert_eq!(run.wall_2t.len(), 3);
        assert_eq!(run.wall_1t.len(), 3);
        assert_eq!(run.efficiency.len(), 3);
    }
}
