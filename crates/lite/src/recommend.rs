//! The LITE online recommendation loop (paper Section IV, Steps 1–4).
//!
//! Given a trained [`Necs`] and a fitted [`AdaptiveCandidateGenerator`],
//! tuning an application is: collect its features (instrumenting first for
//! cold-start apps), sample candidates in the ACG region, rank them by the
//! aggregated per-stage NECS prediction (Eq. 5), and return the argmin.
//! Executed recommendations feed back as target-domain instances; once a
//! batch accumulates, [`LiteTuner::update`] fine-tunes NECS via Adaptive
//! Model Update.

use crate::acg::AdaptiveCandidateGenerator;
use crate::amu::{adaptive_model_update, AmuConfig, AmuEpoch};
use crate::experiment::{extract_stage_instances, Dataset, PredictionContext};
use crate::features::{StageInstance, TemplateRegistry};
use crate::necs::{Necs, NecsConfig};
use lite_obs::Tracer;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::SparkConf;
use lite_sparksim::result::RunResult;
use lite_workloads::apps::AppId;
use lite_workloads::data::DataSpec;

/// Candidates sampled per recommendation (paper: "a small number").
pub const NUM_CANDIDATES: usize = 30;

/// The score of a configuration that fails the engine's static pre-flight:
/// ten times the execution cap, behind every prediction.
pub const INFEASIBLE_S: f64 = lite_metrics::ranking::EXECUTION_CAP_S * 10.0;

/// [`INFEASIBLE_S`] when `conf` fails the engine's static pre-flight on
/// `cluster` for `bytes` of input (an unsatisfiable allocation, partitions
/// that cannot fit a task's heap share: it would never start on a real
/// cluster), else `None` and the caller predicts it. Every method ranks
/// candidates through this one rule.
pub fn infeasible_score(cluster: &ClusterSpec, conf: &SparkConf, bytes: u64) -> Option<f64> {
    lite_sparksim::exec::preflight(cluster, conf, bytes).is_err().then_some(INFEASIBLE_S)
}

/// A ranked candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCandidate {
    /// The configuration.
    pub conf: SparkConf,
    /// NECS-predicted total execution time in seconds.
    pub predicted_s: f64,
}

/// Score candidate configurations for one prediction context: preflight
/// failures score [`infeasible_score`], survivors are scored in **one**
/// batched NECS pass ([`Necs::predict_app_batch`]).
/// Returns one prediction per input candidate, in input order. Shared by
/// [`LiteTuner`] and the serving path (which interleaves a cache, so it
/// needs scoring separate from sampling and sorting, and records one
/// `lite.candidate` span per score on its own tracer).
pub fn score_candidates(
    model: &Necs,
    registry: &TemplateRegistry,
    ctx: &PredictionContext,
    cluster: &ClusterSpec,
    confs: &[SparkConf],
    tracer: &Tracer,
) -> Vec<f64> {
    let infeasible: Vec<Option<f64>> =
        confs.iter().map(|conf| infeasible_score(cluster, conf, ctx.data.bytes)).collect();
    let survivors =
        confs.iter().zip(&infeasible).filter(|(_, score)| score.is_none()).map(|(conf, _)| conf);
    let mut batched = model.predict_confs(registry, ctx, survivors).into_iter();
    infeasible
        .iter()
        .enumerate()
        .map(|(i, score)| {
            let predicted_s = score
                .unwrap_or_else(|| batched.next().expect("one prediction per preflight survivor"));
            let mut cand_span = tracer.span("lite.candidate");
            if cand_span.is_recording() {
                cand_span.attr_u64("candidate", i as u64);
                cand_span.attr_bool("preflight_ok", score.is_none());
                cand_span.attr_f64("predicted_s", predicted_s);
            }
            predicted_s
        })
        .collect()
}

/// The assembled LITE system.
pub struct LiteTuner {
    /// The performance estimator.
    pub model: Necs,
    /// The candidate generator.
    pub acg: AdaptiveCandidateGenerator,
    /// Template registry (grows when cold-start apps are instrumented).
    pub registry: TemplateRegistry,
    /// Feedback batch size that triggers an adaptive update.
    pub update_batch: usize,
    feedback: Vec<StageInstance>,
    feedback_runs: usize,
}

impl LiteTuner {
    /// Offline phase: train NECS on the dataset and fit ACG.
    pub fn from_dataset(ds: &Dataset, necs_config: NecsConfig, seed: u64) -> LiteTuner {
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let model = Necs::train(&ds.registry, &ds.space, &refs, necs_config);
        let acg = AdaptiveCandidateGenerator::fit(ds, seed);
        LiteTuner {
            model,
            acg,
            registry: ds.registry.clone(),
            update_batch: 50,
            feedback: Vec::new(),
            feedback_runs: 0,
        }
    }

    /// Steps 1–3 for a warm-start application: returns the ranked
    /// candidate list, best first. `None` if the application was never
    /// seen (use [`LiteTuner::recommend_cold`]).
    pub fn recommend(
        &self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        seed: u64,
    ) -> Option<Vec<RankedCandidate>> {
        let ctx = PredictionContext::warm(&self.registry, app, data, cluster)?;
        Some(self.rank_candidates(&ctx, cluster, seed))
    }

    /// Steps 1–3 for a cold-start application: instruments it on the
    /// smallest dataset first (paper Section IV Step 1), then recommends.
    pub fn recommend_cold(
        &mut self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        seed: u64,
    ) -> Vec<RankedCandidate> {
        let ctx = PredictionContext::cold(&mut self.registry, app, data, cluster);
        self.rank_candidates(&ctx, cluster, seed)
    }

    fn rank_candidates(
        &self,
        ctx: &PredictionContext,
        cluster: &ClusterSpec,
        seed: u64,
    ) -> Vec<RankedCandidate> {
        let confs = self.acg.candidates_seeded(ctx.app, &ctx.data, &ctx.env, NUM_CANDIDATES, seed);
        let scores = score_candidates(
            &self.model,
            &self.registry,
            ctx,
            cluster,
            &confs,
            &Tracer::disabled(),
        );
        let mut ranked: Vec<RankedCandidate> = confs
            .into_iter()
            .zip(scores)
            .map(|(conf, predicted_s)| RankedCandidate { conf, predicted_s })
            .collect();
        // total_cmp, not partial_cmp: a non-finite prediction must degrade
        // the ranking (NaN sorts last), never panic a serving thread.
        ranked.sort_by(|a, b| a.predicted_s.total_cmp(&b.predicted_s));
        ranked
    }

    /// Step 4a: record executed feedback (the user ran the recommended
    /// configuration; we collect its stage-level observations as target-
    /// domain instances).
    pub fn observe(
        &mut self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        conf: &SparkConf,
        result: &RunResult,
    ) {
        let run_id = usize::MAX - self.feedback_runs; // disjoint from DS run ids
        self.feedback_runs += 1;
        extract_stage_instances(
            &self.registry,
            app,
            conf,
            data,
            cluster,
            result,
            run_id,
            &mut self.feedback,
        );
    }

    /// Number of feedback instances collected so far.
    pub fn feedback_len(&self) -> usize {
        self.feedback.len()
    }

    /// Whether enough feedback accumulated to trigger an update.
    pub fn update_due(&self) -> bool {
        self.feedback.len() >= self.update_batch
    }

    /// Step 4b: Adaptive Model Update against the source dataset. Clears
    /// the feedback buffer on success.
    pub fn update(&mut self, source: &Dataset, config: &AmuConfig) -> Vec<AmuEpoch> {
        let src: Vec<&StageInstance> = source.instances.iter().collect();
        let tgt: Vec<&StageInstance> = self.feedback.iter().collect();
        let history = adaptive_model_update(&mut self.model, &self.registry, &src, &tgt, config);
        self.feedback.clear();
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DatasetBuilder;
    use lite_sparksim::exec::simulate;
    use lite_workloads::apps::build_job;
    use lite_workloads::data::SizeTier;

    fn tuner() -> (Dataset, LiteTuner) {
        let ds = DatasetBuilder {
            apps: vec![AppId::Sort, AppId::PageRank, AppId::KMeans],
            clusters: vec![ClusterSpec::cluster_a(), ClusterSpec::cluster_c()],
            tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
            confs_per_cell: 4,
            seed: 29,
        }
        .build();
        let tuner = LiteTuner::from_dataset(
            &ds,
            NecsConfig { epochs: 5, batch_size: 512, ..Default::default() },
            29,
        );
        (ds, tuner)
    }

    #[test]
    fn warm_recommendation_is_ranked_and_valid() {
        let (ds, tuner) = tuner();
        let data = AppId::KMeans.dataset(SizeTier::Valid);
        let ranked =
            tuner.recommend(AppId::KMeans, &data, &ds.clusters[1], 1).expect("KMeans is warm");
        assert_eq!(ranked.len(), NUM_CANDIDATES);
        for w in ranked.windows(2) {
            assert!(w[0].predicted_s <= w[1].predicted_s);
        }
        for c in &ranked {
            assert!(ds.space.is_valid(&c.conf));
        }
    }

    #[test]
    fn recommended_conf_beats_default_on_large_data() {
        let (ds, tuner) = tuner();
        let cluster = &ds.clusters[1]; // cluster C
        let data = AppId::KMeans.dataset(SizeTier::Test);
        let best = tuner.recommend(AppId::KMeans, &data, cluster, 2).expect("warm")[0].conf.clone();
        let plan = build_job(AppId::KMeans, &data);
        let t_best = simulate(cluster, &best, &plan, 77).capped_time(7200.0);
        let t_default = simulate(cluster, &ds.space.default_conf(), &plan, 77).capped_time(7200.0);
        assert!(t_best < t_default, "LITE did not beat default: {t_best} vs {t_default}");
    }

    #[test]
    fn cold_start_recommendation_works_for_unseen_app() {
        let (ds, mut tuner) = tuner();
        // Terasort was NOT in the training apps.
        let data = AppId::Terasort.dataset(SizeTier::Valid);
        assert!(tuner.recommend(AppId::Terasort, &data, &ds.clusters[0], 3).is_none());
        let ranked = tuner.recommend_cold(AppId::Terasort, &data, &ds.clusters[0], 3);
        assert_eq!(ranked.len(), NUM_CANDIDATES);
        assert!(ranked[0].predicted_s.is_finite());
    }

    #[test]
    fn feedback_loop_triggers_update() {
        let (ds, mut tuner) = tuner();
        tuner.update_batch = 30;
        let cluster = ds.clusters[1].clone();
        let data = AppId::PageRank.dataset(SizeTier::Valid);
        let mut k = 0u64;
        while !tuner.update_due() {
            let rec = tuner.recommend(AppId::PageRank, &data, &cluster, k).unwrap();
            let result =
                simulate(&cluster, &rec[0].conf, &build_job(AppId::PageRank, &data), 500 + k);
            tuner.observe(AppId::PageRank, &data, &cluster, &rec[0].conf, &result);
            k += 1;
            assert!(k < 50, "feedback never accumulated");
        }
        let hist = tuner.update(&ds, &AmuConfig { epochs: 2, ..Default::default() });
        assert_eq!(hist.len(), 2);
        assert_eq!(tuner.feedback_len(), 0);
    }
}
