//! # lite-bench — the experiment harness
//!
//! One binary per paper table/figure (see DESIGN.md §3). This library
//! holds the shared protocol pieces:
//! dataset construction, the evaluation settings grid (clusters A/B/C on
//! validation data + "Large" on cluster C test data), gold-ranking
//! evaluation, the rule-based "Manual" tuner, cell formatting, and the
//! stdout printer every table goes through ([`table`]).

pub mod table;
pub mod tuning;

use lite_core::baselines::AnyModel;
use lite_core::experiment::{gold_times, Dataset, DatasetBuilder, PredictionContext};
use lite_core::recommend::infeasible_score;
use lite_metrics::ranking::{hr_at_k, ndcg_at_k};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, Knob, SparkConf};
use lite_workloads::apps::AppId;
use lite_workloads::data::{DataSpec, SizeTier};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configurations sampled per training cell.
pub const TRAIN_CONFS_PER_CELL: usize = 6;

/// NECS training epochs.
pub const NECS_EPOCHS: usize = 30;

/// Candidate configurations per ranking evaluation: the gold set each
/// model ranks (not `lite_core::recommend::NUM_CANDIDATES`, the
/// candidates one recommendation scores).
pub const GOLD_CANDIDATES: usize = 40;

/// Build the paper's offline training dataset (all apps, clusters A/B/C,
/// four small tiers).
pub fn training_dataset(seed: u64) -> Dataset {
    DatasetBuilder::paper_training(TRAIN_CONFS_PER_CELL, seed).build()
}

/// One evaluation setting of Table VII: an application instance on a
/// cluster with a data tier.
#[derive(Debug, Clone)]
pub struct EvalSetting {
    /// Group label: `"Cluster A"`, `"Cluster B"`, `"Cluster C"`, `"Large"`.
    pub group: &'static str,
    /// Application.
    pub app: AppId,
    /// Cluster the instance runs on.
    pub cluster: ClusterSpec,
    /// Input data.
    pub data: DataSpec,
}

/// The Table VII evaluation grid: every app on each cluster with
/// validation (mid) data, plus large test data on cluster C.
pub fn eval_settings() -> Vec<EvalSetting> {
    let mut out = Vec::new();
    let groups: [(&'static str, ClusterSpec, SizeTier); 4] = [
        ("Cluster A", ClusterSpec::cluster_a(), SizeTier::Valid),
        ("Cluster B", ClusterSpec::cluster_b(), SizeTier::Valid),
        ("Cluster C", ClusterSpec::cluster_c(), SizeTier::Valid),
        ("Large", ClusterSpec::cluster_c(), SizeTier::Test),
    ];
    for (group, cluster, tier) in groups {
        for app in AppId::all() {
            out.push(EvalSetting { group, app, cluster: cluster.clone(), data: app.dataset(tier) });
        }
    }
    out
}

/// Gold candidate set for one setting: seeded random configurations plus
/// their simulated (capped) execution times.
pub struct GoldSet {
    /// Candidate configurations.
    pub confs: Vec<SparkConf>,
    /// Simulated execution times (failure-capped).
    pub times: Vec<f64>,
}

/// Build the gold set for a setting (deterministic per seed).
pub fn gold_set(space: &ConfSpace, setting: &EvalSetting, n: usize, seed: u64) -> GoldSet {
    let mut rng = StdRng::seed_from_u64(seed ^ ((setting.app.index() as u64) << 8));
    let confs: Vec<SparkConf> = (0..n).map(|_| space.sample(&mut rng)).collect();
    let times = gold_times(&setting.cluster, setting.app, &setting.data, &confs, seed);
    GoldSet { confs, times }
}

/// HR@5 / NDCG@5 of a model on one setting, given its gold set. Returns
/// `None` when the model cannot produce a warm prediction context.
pub fn ranking_scores(
    model: &AnyModel,
    ds: &Dataset,
    setting: &EvalSetting,
    gold: &GoldSet,
) -> Option<(f64, f64)> {
    let ctx = PredictionContext::warm(&ds.registry, setting.app, &setting.data, &setting.cluster)?;
    let preds: Vec<f64> = gold
        .confs
        .iter()
        .map(|c| {
            // Statically invalid configurations are rejected by the
            // engine's pre-flight before any model is consulted — every
            // method gets this check uniformly.
            infeasible_score(&setting.cluster, c, setting.data.bytes)
                .unwrap_or_else(|| model.predict_app(&ds.registry, &ctx, c))
        })
        .collect();
    Some((hr_at_k(&preds, &gold.times, 5), ndcg_at_k(&preds, &gold.times, 5)))
}

/// The rule-based "Manual" tuner: encodes the standard cloudera/databricks
/// sizing guidance a hired expert applies (5 cores per executor, leave one
/// core and 1 GB per node for the OS, parallelism = 2–3× total cores,
/// 128 MB partitions, compression on).
pub fn manual_conf(space: &ConfSpace, cluster: &ClusterSpec) -> SparkConf {
    let mut c = space.default_conf();
    let cores_per_exec = 5.0_f64.min(cluster.cores_per_node as f64 - 1.0).max(1.0);
    let execs_per_node = ((cluster.cores_per_node as f64 - 1.0) / cores_per_exec).floor().max(1.0);
    let instances = execs_per_node * cluster.nodes as f64;
    let mem_per_exec =
        ((cluster.mem_gb_per_node - 1.0) / execs_per_node * 0.9 - 0.5).floor().max(1.0);
    c.set(space, Knob::ExecutorCores, cores_per_exec);
    c.set(space, Knob::ExecutorInstances, instances);
    c.set(space, Knob::ExecutorMemoryGb, mem_per_exec);
    c.set(space, Knob::ExecutorMemoryOverheadMb, (mem_per_exec * 1024.0 * 0.1).max(384.0));
    c.set(space, Knob::DefaultParallelism, 2.5 * instances * cores_per_exec);
    c.set(space, Knob::DriverMemoryGb, 4.0);
    c.set(space, Knob::DriverCores, 2.0);
    c.set(space, Knob::FilesMaxPartitionMb, 128.0);
    c.set(space, Knob::MemoryFraction, 0.6);
    c.set(space, Knob::MemoryStorageFraction, 0.5);
    c.set(space, Knob::ReducerMaxSizeInFlightMb, 48.0);
    c.set(space, Knob::ShuffleCompress, 1.0);
    c.set(space, Knob::ShuffleSpillCompress, 1.0);
    c.set(space, Knob::ShuffleFileBufferKb, 64.0);
    c
}

/// Format a float to 4 decimal places (ranking metrics).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Format seconds like the paper's t columns.
pub fn secs(v: f64) -> String {
    format!("{v:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_grid_covers_four_groups_times_fifteen_apps() {
        let s = eval_settings();
        assert_eq!(s.len(), 60);
        assert_eq!(s.iter().filter(|e| e.group == "Large").count(), 15);
    }

    #[test]
    fn manual_conf_is_valid_and_feasible() {
        let space = ConfSpace::table_iv();
        for cluster in ClusterSpec::all_evaluation_clusters() {
            let c = manual_conf(&space, &cluster);
            assert!(space.is_valid(&c), "{}: invalid manual conf", cluster.name);
            assert!(
                lite_sparksim::exec::allocate(&cluster, &c).is_some(),
                "{}: manual conf does not allocate",
                cluster.name
            );
        }
    }

    #[test]
    fn gold_set_is_deterministic() {
        let space = ConfSpace::table_iv();
        let setting = &eval_settings()[0];
        let a = gold_set(&space, setting, 5, 3);
        let b = gold_set(&space, setting, 5, 3);
        assert_eq!(a.times, b.times);
    }
}
