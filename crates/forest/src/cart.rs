//! CART regression trees with exact variance-gain splits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Hyper-parameters for tree induction.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 12, min_samples_split: 4, min_samples_leaf: 2, max_features: None }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Fit on row-major samples. `rng` drives feature subsampling when
    /// `config.max_features` is set; pass any seeded rng for determinism.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &TreeConfig, rng: &mut StdRng) -> RegressionTree {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        let num_features = x[0].len();
        let mut tree = RegressionTree { nodes: Vec::new(), num_features };
        let idx: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, y, idx, 0, config, rng);
        tree
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        idx: Vec<usize>,
        depth: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        let node_id = self.nodes.len();
        if depth >= config.max_depth || idx.len() < config.min_samples_split {
            self.nodes.push(Node::Leaf { value: mean });
            return node_id;
        }

        let mut features: Vec<usize> = (0..self.num_features).collect();
        if let Some(k) = config.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(self.num_features));
        }

        let best = best_split(x, y, &idx, &features, config.min_samples_leaf);
        let Some((feature, threshold)) = best else {
            self.nodes.push(Node::Leaf { value: mean });
            return node_id;
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| x[i][feature] <= threshold);
        // Reserve the split slot, grow children, then fill it.
        self.nodes.push(Node::Leaf { value: mean });
        let left = self.grow(x, y, left_idx, depth + 1, config, rng);
        let right = self.grow(x, y, right_idx, depth + 1, config, rng);
        self.nodes[node_id] = Node::Split { feature, threshold, left, right };
        node_id
    }

    /// Predict one sample.
    pub fn predict(&self, sample: &[f64]) -> f64 {
        assert_eq!(sample.len(), self.num_features, "feature count mismatch");
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    cur = if sample[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }
}

/// Exhaustive best split over candidate features by weighted-variance
/// (equivalently SSE) reduction. Returns `None` when no split satisfies
/// the leaf-size constraint or reduces impurity.
fn best_split(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    features: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64)> {
    let n = idx.len() as f64;
    let total_sum: f64 = idx.iter().map(|&i| y[i]).sum();
    let parent_sse_base = total_sum * total_sum / n;

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
    for &f in features {
        let mut order: Vec<usize> = idx.to_vec();
        order.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
        let mut left_sum = 0.0;
        let mut left_n = 0.0;
        for w in 0..order.len() - 1 {
            let i = order[w];
            left_sum += y[i];
            left_n += 1.0;
            let xv = x[i][f];
            let xn = x[order[w + 1]][f];
            if xv == xn {
                continue; // can't split between equal values
            }
            let ln = w + 1;
            let rn = order.len() - ln;
            if ln < min_leaf || rn < min_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            // Maximizing sum-of-squares of child means == minimizing SSE.
            let score = left_sum * left_sum / left_n + right_sum * right_sum / (n - left_n);
            if score > parent_sse_base + 1e-12 && best.is_none_or(|(_, _, s)| score > s) {
                best = Some((f, (xv + xn) / 2.0, score));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        assert!((tree.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[30.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let cfg = TreeConfig { max_depth: 2, ..Default::default() };
        let tree = RegressionTree::fit(&x, &y, &cfg, &mut rng());
        assert!(tree.num_leaves() <= 4, "{} leaves at depth 2", tree.num_leaves());
    }

    #[test]
    fn predictions_stay_in_target_hull() {
        let mut r = rng();
        use rand::Rng;
        let x: Vec<Vec<f64>> = (0..200).map(|_| vec![r.gen::<f64>(), r.gen::<f64>()]).collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * 3.0 - v[1]).collect();
        let (lo, hi) =
            y.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        for _ in 0..100 {
            let p = tree.predict(&[r.gen::<f64>() * 2.0 - 0.5, r.gen::<f64>() * 2.0 - 0.5]);
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 10];
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[100.0]), 7.0);
    }

    #[test]
    fn min_samples_leaf_is_enforced() {
        let x: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let y = vec![0.0, 0.0, 0.0, 0.0, 0.0, 10.0];
        let cfg = TreeConfig { min_samples_leaf: 3, ..Default::default() };
        let tree = RegressionTree::fit(&x, &y, &cfg, &mut rng());
        // The only allowed split is 3/3; outlier can't be isolated.
        assert!(tree.num_leaves() <= 2);
    }

    #[test]
    fn ties_in_feature_values_do_not_split_between_equals() {
        let x: Vec<Vec<f64>> = vec![vec![1.0], vec![1.0], vec![2.0], vec![2.0]];
        let y = vec![0.0, 1.0, 10.0, 11.0];
        let tree = RegressionTree::fit(
            &x,
            &y,
            &TreeConfig { min_samples_leaf: 1, ..Default::default() },
            &mut rng(),
        );
        assert!((tree.predict(&[1.0]) - 0.5).abs() < 1e-9);
        assert!((tree.predict(&[2.0]) - 10.5).abs() < 1e-9);
    }
}
