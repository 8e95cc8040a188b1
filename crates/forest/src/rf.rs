//! Random-forest regression (bagged CART with feature subsampling).
//!
//! Adaptive Candidate Generation (paper Section IV-A) fits one of these
//! per knob: `RFR^d(app, datasize) → knob value`.

use crate::cart::{RegressionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for the forest.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees.
    pub num_trees: usize,
    /// Per-tree config (feature subsampling defaults to `sqrt(F)` when
    /// `max_features` is `None` here).
    pub tree: TreeConfig,
    /// Bootstrap sample fraction of the training set.
    pub sample_fraction: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            num_trees: 64,
            tree: TreeConfig { max_depth: 10, ..Default::default() },
            sample_fraction: 1.0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    trees: Vec<RegressionTree>,
}

impl RandomForestRegressor {
    /// Fit with bootstrap bagging; deterministic per seed.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &ForestConfig, seed: u64) -> Self {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len());
        let num_features = x[0].len();
        let mut tree_cfg = config.tree;
        if tree_cfg.max_features.is_none() {
            tree_cfg.max_features = Some(((num_features as f64).sqrt().ceil() as usize).max(1));
        }
        let n_boot = ((x.len() as f64 * config.sample_fraction).round() as usize).max(1);
        let trees = (0..config.num_trees)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64 * 0x9e37));
                let mut bx = Vec::with_capacity(n_boot);
                let mut by = Vec::with_capacity(n_boot);
                for _ in 0..n_boot {
                    let i = rng.gen_range(0..x.len());
                    bx.push(x[i].clone());
                    by.push(y[i]);
                }
                RegressionTree::fit(&bx, &by, &tree_cfg, &mut rng)
            })
            .collect();
        RandomForestRegressor { trees }
    }

    /// Mean prediction over trees.
    pub fn predict(&self, sample: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(sample)).sum::<f64>() / self.trees.len() as f64
    }

    /// Per-tree predictions (for uncertainty diagnostics).
    pub fn predict_all(&self, sample: &[f64]) -> Vec<f64> {
        self.trees.iter().map(|t| t.predict(sample)).collect()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedman_like(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n).map(|_| (0..4).map(|_| rng.gen::<f64>()).collect()).collect();
        let y: Vec<f64> =
            x.iter().map(|v| 10.0 * v[0] + 5.0 * (v[1] * v[2]) - 3.0 * v[3]).collect();
        (x, y)
    }

    #[test]
    fn forest_beats_mean_predictor() {
        let (x, y) = friedman_like(400, 1);
        let rf = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 7);
        let (tx, ty) = friedman_like(100, 2);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let mut sse_rf = 0.0;
        let mut sse_mean = 0.0;
        for (v, t) in tx.iter().zip(ty.iter()) {
            sse_rf += (rf.predict(v) - t).powi(2);
            sse_mean += (mean - t).powi(2);
        }
        assert!(sse_rf < 0.25 * sse_mean, "rf {sse_rf} vs mean {sse_mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = friedman_like(100, 3);
        let a = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 9);
        let b = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 9);
        let c = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 10);
        let probe = vec![0.3, 0.5, 0.2, 0.9];
        assert_eq!(a.predict(&probe), b.predict(&probe));
        assert_ne!(a.predict(&probe), c.predict(&probe));
    }

    #[test]
    fn prediction_is_mean_of_trees() {
        let (x, y) = friedman_like(80, 4);
        let rf = RandomForestRegressor::fit(
            &x,
            &y,
            &ForestConfig { num_trees: 8, ..Default::default() },
            5,
        );
        let probe = vec![0.1, 0.9, 0.4, 0.6];
        let all = rf.predict_all(&probe);
        assert_eq!(all.len(), 8);
        let mean = all.iter().sum::<f64>() / 8.0;
        assert!((mean - rf.predict(&probe)).abs() < 1e-12);
    }
}
