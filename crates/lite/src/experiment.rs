//! Dataset builders and evaluation oracles on the simulator.
//!
//! Reproduces the paper's data protocol (Table V): per application and
//! cluster, training runs use four small input sizes with sampled knob
//! configurations; validation uses mid-scale inputs; testing uses large
//! inputs on cluster C. Gold rankings come from actually simulating every
//! candidate configuration.

use crate::features::{StageInstance, TemplateKey, TemplateRegistry};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, SparkConf};
use lite_sparksim::exec::simulate;
use lite_sparksim::result::RunResult;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::{DataSpec, SizeTier};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One executed (simulated) application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application.
    pub app: AppId,
    /// Size tier of the input.
    pub tier: SizeTier,
    /// Index into the dataset's cluster list.
    pub cluster: usize,
    /// Input data description.
    pub data: DataSpec,
    /// Configuration used.
    pub conf: SparkConf,
    /// Simulated outcome.
    pub result: RunResult,
}

/// A training dataset: runs, their stage instances, and the shared
/// template registry.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Knob space.
    pub space: ConfSpace,
    /// Evaluation clusters (index space for [`AppRun::cluster`]).
    pub clusters: Vec<ClusterSpec>,
    /// Template registry built from the training applications.
    pub registry: TemplateRegistry,
    /// Application runs.
    pub runs: Vec<AppRun>,
    /// Stage-level instances extracted from the runs.
    pub instances: Vec<StageInstance>,
}

impl Dataset {
    /// Total application execution time per run, capped for failures.
    pub fn run_time(&self, run: &AppRun) -> f64 {
        run.result.capped_time(lite_metrics::ranking::EXECUTION_CAP_S)
    }
}

/// Builder for [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    /// Applications whose runs (and templates/vocabularies) go into the
    /// training set.
    pub apps: Vec<AppId>,
    /// Clusters to run on.
    pub clusters: Vec<ClusterSpec>,
    /// Size tiers per (app, cluster).
    pub tiers: Vec<SizeTier>,
    /// Sampled configurations per (app, cluster, tier) — the default
    /// configuration is always added on top.
    pub confs_per_cell: usize,
    /// RNG seed for configuration sampling and simulation.
    pub seed: u64,
}

impl DatasetBuilder {
    /// The paper's offline-training protocol: all fifteen apps, clusters
    /// A/B/C, the four small training tiers.
    pub fn paper_training(confs_per_cell: usize, seed: u64) -> DatasetBuilder {
        DatasetBuilder {
            apps: AppId::all().to_vec(),
            clusters: ClusterSpec::all_evaluation_clusters(),
            tiers: SizeTier::train_tiers().to_vec(),
            confs_per_cell,
            seed,
        }
    }

    /// Run every cell and assemble the dataset.
    pub fn build(&self) -> Dataset {
        let space = ConfSpace::table_iv();
        let registry = TemplateRegistry::build(&self.apps);
        let mut runs = Vec::new();
        let mut instances = Vec::new();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for &app in &self.apps {
            for (ci, cluster) in self.clusters.iter().enumerate() {
                for &tier in &self.tiers {
                    let data = app.dataset(tier);
                    let mut confs: Vec<SparkConf> =
                        (0..self.confs_per_cell).map(|_| space.sample(&mut rng)).collect();
                    confs.push(space.default_conf());
                    for conf in confs {
                        let run_seed = splitmix(
                            self.seed
                                ^ ((app.index() as u64) << 40)
                                ^ ((ci as u64) << 32)
                                ^ runs.len() as u64,
                        );
                        let plan = build_job(app, &data);
                        let result = simulate(cluster, &conf, &plan, run_seed);
                        let run_id = runs.len();
                        extract_stage_instances(
                            &registry,
                            app,
                            &conf,
                            &data,
                            cluster,
                            &result,
                            run_id,
                            &mut instances,
                        );
                        runs.push(AppRun { app, tier, cluster: ci, data, conf, result });
                    }
                }
            }
        }
        Dataset { space, clusters: self.clusters.clone(), registry, runs, instances }
    }
}

/// Extract stage instances from one run into `out` (skips zero-duration
/// stages, e.g. the failing stage of an OOM run).
#[allow(clippy::too_many_arguments)]
pub fn extract_stage_instances(
    registry: &TemplateRegistry,
    app: AppId,
    conf: &SparkConf,
    data: &DataSpec,
    cluster: &ClusterSpec,
    result: &RunResult,
    run_id: usize,
    out: &mut Vec<StageInstance>,
) {
    let env = cluster.env_features();
    for st in &result.stages {
        if st.duration_s <= 0.0 {
            continue;
        }
        let Some(template) = registry.key_of(app, &st.name) else {
            continue; // template not interned (e.g. cold-start app)
        };
        out.push(StageInstance {
            app,
            template,
            conf: conf.clone(),
            data: *data,
            env,
            y: st.duration_s,
            app_instance: run_id,
        });
    }
}

/// Everything a model needs to predict one application instance's
/// execution time before running it (paper Eq. 5's inputs).
#[derive(Debug, Clone)]
pub struct PredictionContext {
    /// Application to be tuned.
    pub app: AppId,
    /// Input data description.
    pub data: DataSpec,
    /// Environment features of the production cluster.
    pub env: [f64; 6],
    /// Stage templates of the application's plan, one entry per stage
    /// *instance* (iterative templates repeat), so per-stage predictions
    /// aggregate exactly as in Eq. 5.
    pub stages: Vec<TemplateKey>,
}

impl PredictionContext {
    /// Build for a warm-start application (templates already interned).
    /// Returns `None` if any stage template is unknown.
    pub fn warm(
        registry: &TemplateRegistry,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
    ) -> Option<PredictionContext> {
        let plan = build_job(app, data);
        let stages: Option<Vec<TemplateKey>> =
            plan.stages.iter().map(|s| registry.key_of(app, &s.name)).collect();
        Some(PredictionContext { app, data: *data, env: cluster.env_features(), stages: stages? })
    }

    /// Build for a cold-start application: run instrumentation on the
    /// smallest dataset and intern its templates first (paper Section IV,
    /// Step 1).
    pub fn cold(
        registry: &mut TemplateRegistry,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
    ) -> PredictionContext {
        for stage in lite_workloads::instrument::instrument_app(app) {
            registry.intern(app, &stage);
        }
        Self::warm(registry, app, data, cluster).expect("templates interned above")
    }
}

/// Simulate ground-truth times for candidate configurations of one
/// application instance (the gold-standard list for HR/NDCG). Returned
/// times are failure-capped.
pub fn gold_times(
    cluster: &ClusterSpec,
    app: AppId,
    data: &DataSpec,
    confs: &[SparkConf],
    seed: u64,
) -> Vec<f64> {
    let plan = build_job(app, data);
    confs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            simulate(cluster, c, &plan, splitmix(seed ^ (i as u64) << 16))
                .capped_time(lite_metrics::ranking::EXECUTION_CAP_S)
        })
        .collect()
}

/// SplitMix64 (seed derivation): the simulator's own per-key hash.
pub use lite_sparksim::fault::mix64 as splitmix;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_builder() -> DatasetBuilder {
        DatasetBuilder {
            apps: vec![AppId::Sort, AppId::PageRank],
            clusters: vec![ClusterSpec::cluster_a()],
            tiers: vec![SizeTier::Train(0), SizeTier::Train(1)],
            confs_per_cell: 2,
            seed: 17,
        }
    }

    #[test]
    fn builder_produces_runs_and_instances() {
        let ds = tiny_builder().build();
        // 2 apps x 1 cluster x 2 tiers x (2 sampled + 1 default) = 12 runs.
        assert_eq!(ds.runs.len(), 12);
        assert!(!ds.instances.is_empty());
        // Stage augmentation: many more instances than runs.
        assert!(ds.instances.len() > 3 * ds.runs.len());
        // Instances reference valid runs and templates.
        for inst in &ds.instances {
            assert!(inst.app_instance < ds.runs.len());
            assert!(inst.template.0 < ds.registry.len());
            assert!(inst.y > 0.0);
        }
    }

    #[test]
    fn dataset_build_is_deterministic() {
        let a = tiny_builder().build();
        let b = tiny_builder().build();
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(b.runs.iter()) {
            assert_eq!(x.result.total_time_s, y.result.total_time_s);
        }
    }

    #[test]
    fn instances_share_run_level_features() {
        let ds = tiny_builder().build();
        for inst in &ds.instances {
            let run = &ds.runs[inst.app_instance];
            assert_eq!(inst.conf, run.conf);
            assert_eq!(inst.data, run.data);
            assert_eq!(inst.app, run.app);
        }
    }

    #[test]
    fn warm_context_covers_all_plan_stages() {
        let ds = tiny_builder().build();
        let data = AppId::PageRank.dataset(SizeTier::Valid);
        let ctx = PredictionContext::warm(&ds.registry, AppId::PageRank, &data, &ds.clusters[0])
            .expect("warm app");
        let plan = build_job(AppId::PageRank, &data);
        assert_eq!(ctx.stages.len(), plan.stages.len());
    }

    #[test]
    fn warm_context_fails_for_unknown_app() {
        let ds = tiny_builder().build();
        let data = AppId::KMeans.dataset(SizeTier::Valid);
        assert!(
            PredictionContext::warm(&ds.registry, AppId::KMeans, &data, &ds.clusters[0]).is_none()
        );
    }

    #[test]
    fn cold_context_interns_templates() {
        let ds = tiny_builder().build();
        let mut registry = ds.registry.clone();
        let before = registry.len();
        let data = AppId::KMeans.dataset(SizeTier::Valid);
        let ctx = PredictionContext::cold(&mut registry, AppId::KMeans, &data, &ds.clusters[0]);
        assert!(registry.len() > before);
        assert!(!ctx.stages.is_empty());
    }

    #[test]
    fn gold_times_are_capped_and_deterministic() {
        let space = ConfSpace::table_iv();
        let mut rng = StdRng::seed_from_u64(3);
        let confs: Vec<SparkConf> = (0..5).map(|_| space.sample(&mut rng)).collect();
        let data = AppId::Sort.dataset(SizeTier::Train(0));
        let a = gold_times(&ClusterSpec::cluster_a(), AppId::Sort, &data, &confs, 9);
        let b = gold_times(&ClusterSpec::cluster_a(), AppId::Sort, &data, &confs, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| t > 0.0 && t <= lite_metrics::ranking::EXECUTION_CAP_S));
    }
}
