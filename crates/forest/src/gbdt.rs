//! Histogram-binned gradient-boosted regression trees.
//!
//! The paper's strongest non-neural baseline is LightGBM. This module
//! implements the same family: squared-loss gradient boosting where each
//! round fits a depth-limited tree on feature histograms (256 bins,
//! gradient/count statistics per bin) with shrinkage and L2 leaf
//! regularization.

/// GBDT hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GbdtConfig {
    /// Boosting rounds.
    pub num_rounds: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Maximum tree depth per round.
    pub max_depth: usize,
    /// Histogram bins per feature (≤ 256).
    pub num_bins: usize,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            num_rounds: 120,
            learning_rate: 0.1,
            max_depth: 5,
            num_bins: 64,
            lambda: 1.0,
            min_samples_leaf: 4,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, bin: u8, left: usize, right: usize },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict_binned(&self, bins: &[u8]) -> f64 {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, bin, left, right } => {
                    cur = if bins[*feature] <= *bin { *left } else { *right };
                }
            }
        }
    }
}

/// A fitted GBDT ensemble.
#[derive(Debug, Clone)]
pub struct GbdtRegressor {
    base: f64,
    trees: Vec<Tree>,
    /// Per-feature bin upper edges (length `num_bins - 1`).
    edges: Vec<Vec<f64>>,
    config: GbdtConfig,
}

impl GbdtRegressor {
    /// Fit on row-major samples.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &GbdtConfig) -> GbdtRegressor {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len());
        assert!(config.num_bins >= 2 && config.num_bins <= 256);
        let num_features = x[0].len();
        let edges: Vec<Vec<f64>> =
            (0..num_features).map(|f| quantile_edges(x, f, config.num_bins)).collect();
        let binned: Vec<Vec<u8>> = x.iter().map(|row| bin_row(row, &edges)).collect();

        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut pred = vec![base; y.len()];
        let mut trees = Vec::with_capacity(config.num_rounds);
        for _ in 0..config.num_rounds {
            // Squared loss: negative gradient is the residual.
            let grad: Vec<f64> = y.iter().zip(pred.iter()).map(|(t, p)| t - p).collect();
            let idx: Vec<usize> = (0..y.len()).collect();
            let mut tree = Tree { nodes: Vec::new() };
            grow(&mut tree, &binned, &grad, idx, 0, config, num_features);
            for (p, b) in pred.iter_mut().zip(binned.iter()) {
                *p += config.learning_rate * tree.predict_binned(b);
            }
            trees.push(tree);
        }
        GbdtRegressor { base, trees, edges, config: *config }
    }

    /// Predict one sample.
    pub fn predict(&self, sample: &[f64]) -> f64 {
        let bins = bin_row(sample, &self.edges);
        self.base
            + self.config.learning_rate
                * self.trees.iter().map(|t| t.predict_binned(&bins)).sum::<f64>()
    }

    /// Number of boosting rounds fitted.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

fn quantile_edges(x: &[Vec<f64>], feature: usize, num_bins: usize) -> Vec<f64> {
    let mut vals: Vec<f64> = x.iter().map(|r| r[feature]).collect();
    vals.sort_by(f64::total_cmp);
    vals.dedup();
    let n_edges = num_bins - 1;
    if vals.len() <= 1 {
        return Vec::new();
    }
    (1..=n_edges)
        .map(|k| {
            let q = k as f64 / num_bins as f64;
            let pos = (q * (vals.len() - 1) as f64).round() as usize;
            vals[pos.min(vals.len() - 1)]
        })
        .collect()
}

fn bin_row(row: &[f64], edges: &[Vec<f64>]) -> Vec<u8> {
    row.iter().zip(edges.iter()).map(|(&v, e)| e.partition_point(|&edge| edge < v) as u8).collect()
}

fn grow(
    tree: &mut Tree,
    binned: &[Vec<u8>],
    grad: &[f64],
    idx: Vec<usize>,
    depth: usize,
    config: &GbdtConfig,
    num_features: usize,
) -> usize {
    let node_id = tree.nodes.len();
    let g_sum: f64 = idx.iter().map(|&i| grad[i]).sum();
    let n = idx.len() as f64;
    let leaf_value = g_sum / (n + config.lambda);
    if depth >= config.max_depth || idx.len() < 2 * config.min_samples_leaf {
        tree.nodes.push(Node::Leaf { value: leaf_value });
        return node_id;
    }

    // Histogram per feature: (grad sum, count) per bin; pick the split
    // maximizing the regularized gain.
    let parent_score = g_sum * g_sum / (n + config.lambda);
    let mut best: Option<(usize, u8, f64)> = None;
    // `f` indexes the second dimension of `binned[i][f]`, not `binned`
    // itself, so the iterator rewrite the lint suggests does not apply.
    #[allow(clippy::needless_range_loop)]
    for f in 0..num_features {
        let mut hist_g = [0.0f64; 256];
        let mut hist_n = [0u32; 256];
        let mut max_bin = 0usize;
        for &i in &idx {
            let b = binned[i][f] as usize;
            hist_g[b] += grad[i];
            hist_n[b] += 1;
            max_bin = max_bin.max(b);
        }
        let mut left_g = 0.0;
        let mut left_n = 0u32;
        for b in 0..max_bin {
            left_g += hist_g[b];
            left_n += hist_n[b];
            let right_n = idx.len() as u32 - left_n;
            if (left_n as usize) < config.min_samples_leaf
                || (right_n as usize) < config.min_samples_leaf
            {
                continue;
            }
            let right_g = g_sum - left_g;
            let score = left_g * left_g / (left_n as f64 + config.lambda)
                + right_g * right_g / (right_n as f64 + config.lambda);
            if score > parent_score + 1e-12 && best.is_none_or(|(_, _, s)| score > s) {
                best = Some((f, b as u8, score));
            }
        }
    }

    let Some((feature, bin, _)) = best else {
        tree.nodes.push(Node::Leaf { value: leaf_value });
        return node_id;
    };
    let (li, ri): (Vec<usize>, Vec<usize>) =
        idx.into_iter().partition(|&i| binned[i][feature] <= bin);
    tree.nodes.push(Node::Leaf { value: leaf_value });
    let left = grow(tree, binned, grad, li, depth + 1, config, num_features);
    let right = grow(tree, binned, grad, ri, depth + 1, config, num_features);
    tree.nodes[node_id] = Node::Split { feature, bin, left, right };
    node_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn nonlinear(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n).map(|_| (0..3).map(|_| rng.gen::<f64>()).collect()).collect();
        let y: Vec<f64> =
            x.iter().map(|v| (v[0] * 6.0).sin() * 3.0 + v[1] * v[1] * 4.0 - 2.0 * v[2]).collect();
        (x, y)
    }

    #[test]
    fn gbdt_fits_nonlinear_target() {
        let (x, y) = nonlinear(600, 1);
        let model = GbdtRegressor::fit(&x, &y, &GbdtConfig::default());
        let (tx, ty) = nonlinear(150, 2);
        let var = {
            let m = ty.iter().sum::<f64>() / ty.len() as f64;
            ty.iter().map(|v| (v - m).powi(2)).sum::<f64>()
        };
        let sse: f64 = tx.iter().zip(ty.iter()).map(|(v, t)| (model.predict(v) - t).powi(2)).sum();
        assert!(sse < 0.15 * var, "R2 too low: sse {sse} var {var}");
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let (x, y) = nonlinear(300, 3);
        let small = GbdtRegressor::fit(&x, &y, &GbdtConfig { num_rounds: 5, ..Default::default() });
        let large =
            GbdtRegressor::fit(&x, &y, &GbdtConfig { num_rounds: 100, ..Default::default() });
        let sse = |m: &GbdtRegressor| -> f64 {
            x.iter().zip(y.iter()).map(|(v, t)| (m.predict(v) - t).powi(2)).sum()
        };
        assert!(sse(&large) < sse(&small));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![3.5; 20];
        let model = GbdtRegressor::fit(&x, &y, &GbdtConfig::default());
        assert!((model.predict(&[7.0]) - 3.5).abs() < 1e-9);
        assert!((model.predict(&[-100.0]) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn binning_handles_duplicate_values() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 2) as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| (i % 2) as f64 * 10.0).collect();
        let model = GbdtRegressor::fit(&x, &y, &GbdtConfig::default());
        assert!((model.predict(&[0.0]) - 0.0).abs() < 0.5);
        assert!((model.predict(&[1.0]) - 10.0).abs() < 0.5);
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = nonlinear(100, 4);
        let a = GbdtRegressor::fit(&x, &y, &GbdtConfig::default());
        let b = GbdtRegressor::fit(&x, &y, &GbdtConfig::default());
        let probe = vec![0.5, 0.5, 0.5];
        assert_eq!(a.predict(&probe), b.predict(&probe));
    }
}
