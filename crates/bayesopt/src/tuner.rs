//! The budgeted Bayesian-optimization tuning loop.
//!
//! Mirrors the paper's `BO(2h)` competitor: warm-started from similar
//! training instances (OtterTune style), then iterating
//! fit-surrogate → maximize-EI → execute, until the tuning budget —
//! measured in *executed application seconds*, exactly how the paper
//! charges BO's overhead — is exhausted.

use crate::gp::{GaussianProcess, GpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One observation available before tuning starts (warm start).
#[derive(Debug, Clone)]
pub struct BoObservation {
    /// Point in the normalized `[0,1]^D` configuration encoding.
    pub point: Vec<f64>,
    /// Observed execution time in seconds.
    pub time_s: f64,
}

/// One step of a tuning trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneTrace {
    /// Cumulative tuning overhead (seconds of executed application time)
    /// when this evaluation finished.
    pub overhead_s: f64,
    /// Execution time of the evaluated configuration.
    pub time_s: f64,
    /// Best execution time seen so far (including this step).
    pub best_s: f64,
}

/// Bayesian-optimization tuner over the normalized configuration cube.
#[derive(Debug, Clone)]
pub struct BoTuner {
    /// Problem dimensionality.
    pub dim: usize,
    /// Candidate pool size per acquisition maximization.
    pub acquisition_pool: usize,
    /// EI exploration jitter.
    pub xi: f64,
    /// GP hyper-parameters.
    pub gp: GpConfig,
    seed: u64,
}

impl BoTuner {
    /// A tuner for `dim`-dimensional problems.
    pub fn new(dim: usize, seed: u64) -> BoTuner {
        BoTuner {
            dim,
            acquisition_pool: 512,
            xi: 0.01,
            gp: GpConfig { length_scales: vec![0.25], ..Default::default() },
            seed,
        }
    }

    /// Run tuning until `budget_s` seconds of executed application time
    /// have been spent. `objective` maps a normalized point to an
    /// execution time (capped by the caller for failures). Returns the
    /// trajectory and the best point found.
    pub fn run(
        &self,
        warm: &[BoObservation],
        mut objective: impl FnMut(&[f64]) -> f64,
        budget_s: f64,
    ) -> (Vec<TuneTrace>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut xs: Vec<Vec<f64>> = warm.iter().map(|o| o.point.clone()).collect();
        // Surrogate regresses log-time: multiplicative structure and
        // failure caps otherwise wreck the GP.
        let mut ys: Vec<f64> = warm.iter().map(|o| (1.0 + o.time_s).ln()).collect();
        let mut raw: Vec<f64> = warm.iter().map(|o| o.time_s).collect();

        let mut trace = Vec::new();
        let mut overhead = 0.0;
        let mut best = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut best_point = warm
            .iter()
            .min_by(|a, b| a.time_s.total_cmp(&b.time_s))
            .map(|o| o.point.clone())
            .unwrap_or_else(|| vec![0.5; self.dim]);

        // Always spend at least one evaluation, even on tiny budgets (the
        // paper's BO baseline runs "at least 2 hours").
        loop {
            let point = if xs.is_empty() {
                uniform_point(self.dim, &mut rng)
            } else {
                let gp = GaussianProcess::fit(xs.clone(), &ys, self.gp.clone());
                let best_log = ys.iter().cloned().fold(f64::INFINITY, f64::min);
                let mut cand_best = uniform_point(self.dim, &mut rng);
                let mut cand_ei = f64::NEG_INFINITY;
                for _ in 0..self.acquisition_pool {
                    let p = uniform_point(self.dim, &mut rng);
                    let ei = gp.expected_improvement(&p, best_log, self.xi);
                    if ei > cand_ei {
                        cand_ei = ei;
                        cand_best = p;
                    }
                }
                cand_best
            };

            let t = objective(&point);
            overhead += t;
            if t < best {
                best = t;
                best_point = point.clone();
            }
            trace.push(TuneTrace { overhead_s: overhead, time_s: t, best_s: best });
            xs.push(point);
            ys.push((1.0 + t).ln());
            raw.push(t);

            if overhead >= budget_s {
                break;
            }
        }
        (trace, best_point)
    }
}

fn uniform_point(dim: usize, rng: &mut StdRng) -> Vec<f64> {
    use rand::Rng;
    (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth 2-D bowl: minimum 10 s at (0.7, 0.3).
    fn bowl(p: &[f64]) -> f64 {
        10.0 + 200.0 * ((p[0] - 0.7).powi(2) + (p[1] - 0.3).powi(2))
    }

    #[test]
    fn bo_improves_over_random_warm_start() {
        let tuner = BoTuner::new(2, 5);
        let warm = vec![
            BoObservation { point: vec![0.1, 0.9], time_s: bowl(&[0.1, 0.9]) },
            BoObservation { point: vec![0.9, 0.9], time_s: bowl(&[0.9, 0.9]) },
        ];
        let warm_best = warm.iter().map(|o| o.time_s).fold(f64::INFINITY, f64::min);
        let (trace, best_point) = tuner.run(&warm, bowl, 3000.0);
        let best = trace.last().unwrap().best_s;
        assert!(best < 0.6 * warm_best, "best {best} vs warm {warm_best}");
        assert!((best_point[0] - 0.7).abs() < 0.25, "{best_point:?}");
    }

    #[test]
    fn trace_best_is_monotone_and_overhead_cumulative() {
        let tuner = BoTuner::new(2, 6);
        let (trace, _) = tuner.run(&[], bowl, 1500.0);
        for w in trace.windows(2) {
            assert!(w[1].best_s <= w[0].best_s);
            assert!(w[1].overhead_s > w[0].overhead_s);
        }
        assert!(trace.last().unwrap().overhead_s >= 1500.0);
    }

    #[test]
    fn budget_limits_evaluations() {
        let tuner = BoTuner::new(2, 7);
        // Every evaluation costs ~100+ s, budget 500 s => at most ~6 evals.
        let (trace, _) = tuner.run(&[], |p| 100.0 + bowl(p), 500.0);
        assert!(trace.len() <= 6, "{} evals", trace.len());
        assert!(!trace.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let t1 = BoTuner::new(2, 9);
        let t2 = BoTuner::new(2, 9);
        let (a, _) = t1.run(&[], bowl, 800.0);
        let (b, _) = t2.run(&[], bowl, 800.0);
        assert_eq!(a, b);
    }
}
