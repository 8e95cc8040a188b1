//! NECS-backed hover: predict the open document's runtime.
//!
//! Hover text answers the question a tuning engineer actually has while
//! editing stage code: *how long will this run under the best
//! configuration LITE would pick right now?* The pipeline is the paper's
//! cold-start path applied to the live buffer:
//!
//! 1. [`extract_stages`] recovers the document's stage templates
//!    statically (no run);
//! 2. each template is expanded to stage-level source and interned into a
//!    clone of the tuner's registry — NECS encodes unseen templates from
//!    their code, so an edited document needs no retraining;
//! 3. ACG samples candidate configurations and one **batched**
//!    [`score_candidates`] pass prices all of them plus the default
//!    configuration.
//!
//! Training the scorer is expensive, so it is built lazily on the first
//! hover and controlled by [`ScorerConfig`]: `LITE_LSP_QUICK=1` selects a
//! deliberately tiny dataset/epoch budget for smoke tests and first-run
//! latency; the default is a fuller (still single-cluster) setup.

use lite_analyze::extract::{extract_stages, ExtractOptions};
use lite_core::experiment::PredictionContext;
use lite_core::recommend::score_candidates;
use lite_core::{LiteTuner, NecsConfig};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::ConfSpace;
use lite_sparksim::plan::OpDag;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use lite_workloads::instrument::StageCode;
use lite_workloads::srcgen::expand_stage_source;
use std::cell::OnceCell;

/// Offline-training budget for the hover scorer.
#[derive(Debug, Clone)]
pub struct ScorerConfig {
    /// Apps whose runs train NECS/ACG (and seed the vocabulary).
    pub apps: Vec<AppId>,
    /// Size tiers per app.
    pub tiers: Vec<SizeTier>,
    /// Sampled configurations per (app, cluster, tier) cell.
    pub confs_per_cell: usize,
    /// NECS training epochs.
    pub epochs: usize,
    /// Seed for sampling, training and candidate generation.
    pub seed: u64,
}

impl ScorerConfig {
    /// Tiny budget: two fast apps, one tier, two epochs. First hover
    /// trains in a few seconds; predictions are rough but well-formed.
    pub fn quick() -> ScorerConfig {
        ScorerConfig {
            apps: vec![AppId::Sort, AppId::Terasort],
            tiers: vec![SizeTier::Train(0)],
            confs_per_cell: 3,
            epochs: 2,
            seed: 0x11fe,
        }
    }

    /// Fuller budget: every app, two training tiers.
    pub fn full() -> ScorerConfig {
        ScorerConfig {
            apps: AppId::all().to_vec(),
            tiers: vec![SizeTier::Train(0), SizeTier::Train(1)],
            confs_per_cell: 6,
            epochs: 12,
            seed: 0x11fe,
        }
    }

    /// `LITE_LSP_QUICK=1` selects [`ScorerConfig::quick`].
    pub fn from_env() -> ScorerConfig {
        match std::env::var("LITE_LSP_QUICK") {
            Ok(v) if v == "1" => ScorerConfig::quick(),
            _ => ScorerConfig::full(),
        }
    }
}

/// Lazily trained scorer; the server owns one per process.
pub struct ScorerHandle {
    cfg: ScorerConfig,
    cell: OnceCell<HoverScorer>,
}

impl ScorerHandle {
    pub fn new(cfg: ScorerConfig) -> ScorerHandle {
        ScorerHandle { cfg, cell: OnceCell::new() }
    }

    /// Hover markdown for a document, or `None` when the document has no
    /// extractable stage plan (e.g. it does not parse).
    pub fn hover(&self, text: &str) -> Option<String> {
        self.cell.get_or_init(|| HoverScorer::train(&self.cfg)).hover(text)
    }
}

struct HoverScorer {
    tuner: LiteTuner,
    cluster: ClusterSpec,
}

impl HoverScorer {
    fn train(cfg: &ScorerConfig) -> HoverScorer {
        let cluster = ClusterSpec::cluster_a();
        let ds = lite_core::DatasetBuilder {
            apps: cfg.apps.clone(),
            clusters: vec![cluster.clone()],
            tiers: cfg.tiers.clone(),
            confs_per_cell: cfg.confs_per_cell,
            seed: cfg.seed,
        }
        .build();
        let necs = NecsConfig { epochs: cfg.epochs, seed: cfg.seed, ..NecsConfig::default() };
        let tuner = LiteTuner::from_dataset(&ds, necs, cfg.seed);
        HoverScorer { tuner, cluster }
    }

    fn hover(&self, text: &str) -> Option<String> {
        let ext = extract_stages(text, ExtractOptions::default()).ok()?;
        if ext.stages.is_empty() {
            return None;
        }
        // Anchor data-size/candidate sampling on the named corpus app when
        // the buffer names one; otherwise fall back to the generic
        // shuffle app. The *stage plan* always comes from the buffer.
        let app = ext
            .app_name
            .as_deref()
            .and_then(|n| AppId::all().iter().copied().find(|a| a.name() == n))
            .unwrap_or(AppId::Sort);
        let mut registry = self.tuner.registry.clone();
        let mut stages = Vec::new();
        for t in &ext.stages {
            let dag = OpDag::chain(&t.ops);
            let source = expand_stage_source(&dag, app.stage_closure(&t.template));
            let code = StageCode {
                template: t.template.clone(),
                dag,
                source,
                instances_per_run: t.instances_per_run.max(1),
            };
            let key = registry.intern(app, &code);
            stages.extend(std::iter::repeat_n(key, t.instances_per_run.max(1)));
        }
        let data = app.dataset(SizeTier::Test);
        let ctx = PredictionContext { app, data, env: self.cluster.env_features(), stages };
        let mut confs = self.tuner.acg.candidates_seeded(
            app,
            &ctx.data,
            &ctx.env,
            self.tuner.num_candidates,
            0x5eed,
        );
        let n_candidates = confs.len();
        confs.push(ConfSpace::table_iv().default_conf());
        let scores = score_candidates(
            &self.tuner.model,
            &registry,
            &ctx,
            &self.cluster,
            &confs,
            &lite_obs::Tracer::disabled(),
        );
        let default_s = *scores.last()?;
        let best_s = scores[..n_candidates].iter().copied().fold(f64::INFINITY, f64::min);
        let best_s = if best_s.is_finite() { best_s } else { default_s };
        Some(format!(
            "**NECS-predicted runtime: {best_s:.1} s** under the best of {n_candidates} \
             candidate configurations (default configuration: {default_s:.1} s).\n\n\
             Stage plan: {} template(s), {} instance(s) per run.",
            ext.stages.len(),
            ctx.stages.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hover_prices_a_plain_pipeline_document() {
        let handle = ScorerHandle::new(ScorerConfig::quick());
        let doc = "val sc = new SparkContext(sparkConf)\n\
                   val data = sc.textFile(p).map(x => x)\n\
                   val n = data.sortByKey(t).count\n";
        let text = handle.hover(doc).expect("hover produces a prediction");
        assert!(text.contains("NECS-predicted runtime"), "{text}");
        assert!(text.contains("candidate configurations"), "{text}");
        // A broken document yields no hover rather than a crash.
        assert!(handle.hover("val broken = sc.textFile(\n").is_none());
    }
}
