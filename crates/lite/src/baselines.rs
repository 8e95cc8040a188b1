//! The Table VII baseline grid.
//!
//! Feature sets (paper Section V-C):
//! * **W** — application-instance features: app name (one-hot), data,
//!   environment, knobs. One row per application run.
//! * **S** — stage-level features: data, environment, knobs plus key
//!   stage statistics from the Spark monitor UI (input volume, shuffle
//!   volume, task counts). One row per stage instance.
//! * **WC** — W + bag-of-words of the application's *main-body* code.
//! * **SC** — S's tabular core + bag-of-words of the *stage-level* code
//!   (i.e. with Stage-based Code Organization's augmentation).
//! * **SCG** — SC + scheduler-DAG features. The paper pretrains an LSTM
//!   over DAG sequences; we substitute explicit DAG descriptors (node /
//!   edge counts, shuffle-op fraction, operation histogram), which carry
//!   the same information for these DAG sizes (documented in DESIGN.md).
//!
//! Estimators: a LightGBM-style [`GbdtRegressor`] and a plain MLP. The
//! deep ablations (LSTM+MLP, Transformer+MLP, GCN+MLP) swap NECS's code
//! encoder and are implemented in [`NeuralBaseline`].

use crate::experiment::{Dataset, PredictionContext};
use crate::features::{FeatNorm, StageInstance, TemplateKey, TemplateRegistry, TABULAR_WIDTH};
use crate::necs::Necs;
use lite_forest::gbdt::{GbdtConfig, GbdtRegressor};
use lite_nn::init::rng;
use lite_nn::layers::{Dense, GcnLayer, Lstm, TowerMlp, TransformerBlock};
use lite_nn::optim::{clip_grad_norm, Adam};
use lite_nn::tape::{ParamId, Params, Tape, Var};
use lite_nn::tensor::Tensor;
use lite_sparksim::conf::{ConfSpace, SparkConf};
use lite_sparksim::exec::stage_task_count;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::DataSpec;
use lite_workloads::tokenize::tokenize;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Width of the hashed bag-of-words code representation.
pub const BOW_DIM: usize = 64;

/// Which feature set a tabular baseline consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// Application-instance features, no code.
    W,
    /// Stage-level features with monitor statistics, no code.
    S,
    /// W + main-body code bag-of-words.
    Wc,
    /// Stage-level + stage-code bag-of-words.
    Sc,
    /// SC + scheduler-DAG descriptors.
    Scg,
}

impl FeatureSet {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            FeatureSet::W => "W",
            FeatureSet::S => "S",
            FeatureSet::Wc => "WC",
            FeatureSet::Sc => "SC",
            FeatureSet::Scg => "SCG",
        }
    }

    /// Whether rows are per stage instance (vs per application run).
    pub fn stage_level(self) -> bool {
        matches!(self, FeatureSet::S | FeatureSet::Sc | FeatureSet::Scg)
    }
}

/// Which estimator consumes the features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Histogram GBDT (the LightGBM stand-in).
    Gbdt,
    /// Plain MLP.
    Mlp,
}

/// FNV-1a hash for feature hashing.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Hashed bag-of-words over a token stream.
fn bow(tokens: &[String]) -> [f64; BOW_DIM] {
    let mut counts = [0.0f64; BOW_DIM];
    for t in tokens {
        counts[(fnv(t) % BOW_DIM as u64) as usize] += 1.0;
    }
    counts.map(|c| (1.0 + c).ln())
}

/// Monitor-UI-style stage statistics for (app, data, conf, template):
/// `[ln input, ln shuffle-out, ln result, ln tasks, cache flag]`, averaged
/// over the plan's stages matching the template.
fn monitor_stats(app: AppId, data: &DataSpec, conf: &SparkConf, template_name: &str) -> [f64; 5] {
    let plan = build_job(app, data);
    let mut acc = [0.0f64; 5];
    let mut n = 0.0;
    for s in plan.stages.iter().filter(|s| s.name == template_name) {
        acc[0] += (1.0 + s.input_bytes as f64).ln();
        acc[1] += (1.0 + s.shuffle_write_bytes as f64).ln();
        acc[2] += (1.0 + s.result_bytes as f64).ln();
        acc[3] += (1.0 + stage_task_count(conf, s) as f64).ln();
        acc[4] += f64::from(s.cache_output);
        n += 1.0;
    }
    if n > 0.0 {
        acc.map(|v| v / n)
    } else {
        acc
    }
}

/// DAG descriptors for SCG: `[ln nodes, ln edges, shuffle-op share]` + op
/// histogram over the registry's op index space.
fn dag_features(registry: &TemplateRegistry, key: TemplateKey) -> Vec<f64> {
    let e = registry.get(key);
    let w = registry.op_onehot_width();
    let mut f = vec![0.0; 3 + w];
    f[0] = (1.0 + e.dag_ops.len() as f64).ln();
    let edges = e.a_hat.data().iter().filter(|&&v| v != 0.0).count() / 2;
    f[1] = (1.0 + edges as f64).ln();
    let mut hist = vec![0.0f64; w];
    for &op in &e.dag_ops {
        hist[op] += 1.0;
    }
    f[2] = 0.0; // reserved (shuffle share folded into the histogram)
    f[3..].copy_from_slice(&hist);
    f
}

/// Build the feature row for one *stage* instance.
fn stage_row(
    space: &ConfSpace,
    registry: &TemplateRegistry,
    inst: &StageInstance,
    fs: FeatureSet,
) -> Vec<f64> {
    let mut row = Vec::with_capacity(TABULAR_WIDTH + 5 + BOW_DIM);
    row.extend_from_slice(&inst.data.log_features());
    row.extend_from_slice(&inst.env);
    row.extend_from_slice(&inst.conf.normalized(space));
    let name = &registry.get(inst.template).name;
    row.extend_from_slice(&monitor_stats(inst.app, &inst.data, &inst.conf, name));
    if matches!(fs, FeatureSet::Sc | FeatureSet::Scg) {
        let tokens: Vec<String> = registry
            .get(inst.template)
            .token_ids
            .iter()
            .map(|&id| registry.vocab.token(id).to_string())
            .collect();
        row.extend_from_slice(&bow(&tokens));
    }
    if fs == FeatureSet::Scg {
        row.extend_from_slice(&dag_features(registry, inst.template));
    }
    row
}

/// Build the feature row for one *application* run.
fn app_row(
    space: &ConfSpace,
    app: AppId,
    data: &DataSpec,
    env: &[f64; 6],
    conf: &SparkConf,
    fs: FeatureSet,
) -> Vec<f64> {
    let mut row = vec![0.0; 15];
    row[app.index()] = 1.0;
    row.extend_from_slice(&data.log_features());
    row.extend_from_slice(env);
    row.extend_from_slice(&conf.normalized(space));
    if fs == FeatureSet::Wc {
        row.extend_from_slice(&bow(&tokenize(app.main_source())));
    }
    row
}

enum FittedEstimator {
    Gbdt(GbdtRegressor),
    Mlp { params: Params, mlp: TowerMlp, mean: Vec<f64>, std: Vec<f64> },
}

/// A fitted tabular baseline (one cell of Table VII's grid).
pub struct TabularModel {
    /// Feature set.
    pub feature_set: FeatureSet,
    /// Estimator kind.
    pub kind: EstimatorKind,
    estimator: FittedEstimator,
    space: ConfSpace,
}

impl TabularModel {
    /// Fit on a dataset (app-level rows for W/WC, stage-level rows for the
    /// rest). Targets are `ln(1+seconds)`, failure-capped for app rows.
    pub fn fit(ds: &Dataset, kind: EstimatorKind, fs: FeatureSet, seed: u64) -> TabularModel {
        let (x, y): (Vec<Vec<f64>>, Vec<f64>) = if fs.stage_level() {
            ds.instances
                .iter()
                .map(|i| (stage_row(&ds.space, &ds.registry, i, fs), (1.0 + i.y).ln()))
                .unzip()
        } else {
            ds.runs
                .iter()
                .map(|r| {
                    let env = ds.clusters[r.cluster].env_features();
                    (
                        app_row(&ds.space, r.app, &r.data, &env, &r.conf, fs),
                        (1.0 + ds.run_time(r)).ln(),
                    )
                })
                .unzip()
        };
        let estimator = match kind {
            EstimatorKind::Gbdt => {
                FittedEstimator::Gbdt(GbdtRegressor::fit(&x, &y, &GbdtConfig::default()))
            }
            EstimatorKind::Mlp => Self::fit_mlp(&x, &y, seed),
        };
        TabularModel { feature_set: fs, kind, estimator, space: ds.space.clone() }
    }

    fn fit_mlp(x: &[Vec<f64>], y: &[f64], seed: u64) -> FittedEstimator {
        let dim = x[0].len();
        let n = x.len();
        // Column standardization.
        let mut mean = vec![0.0; dim];
        let mut std = vec![0.0; dim];
        for row in x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v / n as f64;
            }
        }
        for row in x {
            for ((s, v), m) in std.iter_mut().zip(row).zip(mean.iter()) {
                *s += (v - m) * (v - m) / n as f64;
            }
        }
        for s in &mut std {
            // Constant features keep unit scale (see FeatNorm::fit).
            *s = if *s < 1e-8 { 1.0 } else { s.sqrt() };
        }
        let norm_row = |row: &[f64]| -> Vec<f32> {
            row.iter()
                .zip(mean.iter().zip(std.iter()))
                .map(|(v, (m, s))| ((v - m) / s) as f32)
                .collect()
        };
        let mut xs = Tensor::zeros(n, dim);
        for (r, row) in x.iter().enumerate() {
            xs.row_mut(r).copy_from_slice(&norm_row(row));
        }
        let mut ys = Tensor::zeros(n, 1);
        for (r, v) in y.iter().enumerate() {
            ys.set(r, 0, *v as f32);
        }

        let mut r = rng(seed);
        let mut params = Params::new();
        let mlp = TowerMlp::new(&mut params, "baseline.mlp", dim, 3, 1, &mut r);
        let mut opt = Adam::new(2e-3);
        let mut order: Vec<usize> = (0..n).collect();
        let mut shuffle_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x11);
        for _ in 0..30 {
            order.shuffle(&mut shuffle_rng);
            for chunk in order.chunks(1024) {
                let mut bx = Tensor::zeros(chunk.len(), dim);
                let mut by = Tensor::zeros(chunk.len(), 1);
                for (i, &j) in chunk.iter().enumerate() {
                    bx.row_mut(i).copy_from_slice(xs.row(j));
                    by.set(i, 0, ys.get(j, 0));
                }
                let mut tape = Tape::new();
                let xv = tape.leaf(bx);
                let pred = mlp.forward(&mut tape, &params, xv);
                let loss = tape.mse_loss(pred, &by);
                tape.backward(loss, &mut params);
                clip_grad_norm(&mut params, 5.0);
                opt.step(&mut params);
            }
        }
        FittedEstimator::Mlp { params, mlp, mean, std }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let log_pred = match &self.estimator {
            FittedEstimator::Gbdt(g) => g.predict(row),
            FittedEstimator::Mlp { params, mlp, mean, std } => {
                let normed: Vec<f32> = row
                    .iter()
                    .zip(mean.iter().zip(std.iter()))
                    .map(|(v, (m, s))| ((v - m) / s) as f32)
                    .collect();
                let mut tape = Tape::new();
                let x = tape.leaf(Tensor::row_vector(normed));
                let pred = mlp.forward(&mut tape, params, x);
                tape.value(pred).get(0, 0) as f64
            }
        };
        (log_pred.exp() - 1.0).max(0.0)
    }

    /// Predicted application execution time for a candidate configuration.
    pub fn predict_app(
        &self,
        registry: &TemplateRegistry,
        ctx: &PredictionContext,
        conf: &SparkConf,
    ) -> f64 {
        if self.feature_set.stage_level() {
            // Sum per-stage predictions over the plan's stage instances.
            let mut total = 0.0;
            let mut cache: HashMap<TemplateKey, f64> = HashMap::new();
            for &t in &ctx.stages {
                let p = *cache.entry(t).or_insert_with(|| {
                    let inst = StageInstance {
                        app: ctx.app,
                        template: t,
                        conf: conf.clone(),
                        data: ctx.data,
                        env: ctx.env,
                        y: 0.0,
                        app_instance: 0,
                    };
                    self.predict_row(&stage_row(&self.space, registry, &inst, self.feature_set))
                });
                total += p;
            }
            total
        } else {
            self.predict_row(&app_row(
                &self.space,
                ctx.app,
                &ctx.data,
                &ctx.env,
                conf,
                self.feature_set,
            ))
        }
    }

    /// Label like `"LightGBM+SC"` / `"MLP+W"`.
    pub fn label(&self) -> String {
        let k = match self.kind {
            EstimatorKind::Gbdt => "LightGBM",
            EstimatorKind::Mlp => "MLP",
        };
        format!("{k}+{}", self.feature_set.label())
    }
}

/// Which encoder a [`NeuralBaseline`] uses for template features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// LSTM over stage tokens (no DAG).
    Lstm,
    /// Transformer over stage tokens (no DAG).
    Transformer,
    /// GCN over the DAG only (no code tokens).
    Gcn,
}

impl EncoderKind {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            EncoderKind::Lstm => "LSTM+MLP",
            EncoderKind::Transformer => "Transformer+MLP",
            EncoderKind::Gcn => "GCN+MLP",
        }
    }
}

/// A NECS-shaped model with the code/DAG encoder swapped out — the
/// LSTM/Transformer/GCN ablations of Table VII. Shares NECS's
/// template-batched training.
pub struct NeuralBaseline {
    /// Encoder variant.
    pub encoder: EncoderKind,
    norm: FeatNorm,
    space: ConfSpace,
    params: Params,
    token_table: ParamId,
    lstm: Option<Lstm>,
    transformer: Option<TransformerBlock>,
    gcn: Option<(GcnLayer, GcnLayer)>,
    proj: Dense,
    mlp: TowerMlp,
    /// Sequence truncation for the token encoders (attention / recurrence
    /// over the full N=1000 is quadratic-cost; the paper itself reports
    /// sequence models underperform on this data).
    pub max_tokens: usize,
    epochs: usize,
    batch_size: usize,
    seed: u64,
}

impl NeuralBaseline {
    /// Train on a dataset slice.
    pub fn train(
        ds: &Dataset,
        instances: &[&StageInstance],
        encoder: EncoderKind,
        epochs: usize,
        seed: u64,
    ) -> NeuralBaseline {
        let norm = FeatNorm::fit(&ds.space, instances);
        let mut r = rng(seed);
        let mut params = Params::new();
        let embed_dim = 12;
        let enc_out = 16;
        let token_table = params.add(
            "base.embed",
            lite_nn::init::normal(ds.registry.vocab.len(), embed_dim, 0.1, &mut r),
        );
        let mut lstm = None;
        let mut transformer = None;
        let mut gcn = None;
        match encoder {
            EncoderKind::Lstm => {
                lstm = Some(Lstm::new(&mut params, "base.lstm", embed_dim, enc_out, 96, &mut r));
            }
            EncoderKind::Transformer => {
                transformer =
                    Some(TransformerBlock::new(&mut params, "base.tf", embed_dim, 2, 96, &mut r));
            }
            EncoderKind::Gcn => {
                let w = ds.registry.op_onehot_width();
                gcn = Some((
                    GcnLayer::new(&mut params, "base.gcn1", w, enc_out, &mut r),
                    GcnLayer::new(&mut params, "base.gcn2", enc_out, enc_out, &mut r),
                ));
            }
        }
        let enc_width = match encoder {
            EncoderKind::Transformer => embed_dim,
            _ => enc_out,
        };
        let proj = Dense::new(&mut params, "base.proj", enc_width, enc_out, &mut r);
        let mlp = TowerMlp::new(&mut params, "base.mlp", TABULAR_WIDTH + enc_out, 3, 1, &mut r);
        let mut model = NeuralBaseline {
            encoder,
            norm,
            space: ds.space.clone(),
            params,
            token_table,
            lstm,
            transformer,
            gcn,
            proj,
            mlp,
            max_tokens: 96,
            epochs,
            batch_size: 1024,
            seed,
        };
        model.fit(&ds.registry, instances);
        model
    }

    fn encode_template(
        &self,
        tape: &mut Tape,
        registry: &TemplateRegistry,
        key: TemplateKey,
    ) -> Var {
        let entry = registry.get(key);
        let raw = match self.encoder {
            EncoderKind::Lstm | EncoderKind::Transformer => {
                let ids: Vec<usize> =
                    entry.token_ids.iter().take(self.max_tokens).copied().collect();
                let ids = if ids.is_empty() { vec![0] } else { ids };
                let emb = tape.embedding_gather(&self.params, self.token_table, &ids);
                match self.encoder {
                    EncoderKind::Lstm => {
                        self.lstm.as_ref().expect("lstm").forward(tape, &self.params, emb)
                    }
                    _ => self.transformer.as_ref().expect("tf").forward(tape, &self.params, emb),
                }
            }
            EncoderKind::Gcn => {
                let (g1, g2) = self.gcn.as_ref().expect("gcn");
                let a = tape.leaf(entry.a_hat.clone());
                let h0 = tape.leaf(registry.node_onehots(key));
                let h1 = g1.forward(tape, &self.params, a, h0);
                let h2 = g2.forward(tape, &self.params, a, h1);
                tape.col_max(h2)
            }
        };
        let p = self.proj.forward(tape, &self.params, raw);
        tape.relu(p)
    }

    fn forward_batch(
        &self,
        tape: &mut Tape,
        registry: &TemplateRegistry,
        templates: &[TemplateKey],
        tabular: &Tensor,
    ) -> Var {
        let mut uniq: Vec<TemplateKey> = Vec::new();
        let mut pos: HashMap<TemplateKey, usize> = HashMap::new();
        let idx: Vec<usize> = templates
            .iter()
            .map(|&t| {
                *pos.entry(t).or_insert_with(|| {
                    uniq.push(t);
                    uniq.len() - 1
                })
            })
            .collect();
        let encoded: Vec<Var> =
            uniq.iter().map(|&t| self.encode_template(tape, registry, t)).collect();
        let table = tape.vstack(&encoded);
        let gathered = tape.gather_rows(table, &idx);
        let tab = tape.leaf(tabular.clone());
        let x = tape.concat_cols(&[tab, gathered]);
        self.mlp.forward(tape, &self.params, x)
    }

    fn fit(&mut self, registry: &TemplateRegistry, instances: &[&StageInstance]) {
        let mut order: Vec<usize> = (0..instances.len()).collect();
        let mut shuffle_rng = rand::rngs::StdRng::seed_from_u64(self.seed ^ 0x77);
        let mut opt = Adam::new(2e-3);
        for _ in 0..self.epochs {
            order.shuffle(&mut shuffle_rng);
            for chunk in order.chunks(self.batch_size) {
                let batch: Vec<&StageInstance> = chunk.iter().map(|&i| instances[i]).collect();
                let templates: Vec<TemplateKey> = batch.iter().map(|i| i.template).collect();
                let tab = self.norm.tabular_matrix(&self.space, &batch);
                let mut target = Tensor::zeros(batch.len(), 1);
                for (r, inst) in batch.iter().enumerate() {
                    target.set(r, 0, self.norm.norm_y(inst.y) as f32);
                }
                let mut tape = Tape::new();
                let pred = self.forward_batch(&mut tape, registry, &templates, &tab);
                let loss = tape.mse_loss(pred, &target);
                tape.backward(loss, &mut self.params);
                clip_grad_norm(&mut self.params, 5.0);
                opt.step(&mut self.params);
            }
        }
    }

    /// Predicted application execution time under a configuration
    /// (per-stage aggregation, as for NECS).
    pub fn predict_app(
        &self,
        registry: &TemplateRegistry,
        ctx: &PredictionContext,
        conf: &SparkConf,
    ) -> f64 {
        let mut counts: HashMap<TemplateKey, usize> = HashMap::new();
        for &t in &ctx.stages {
            *counts.entry(t).or_insert(0) += 1;
        }
        let mut uniq: Vec<TemplateKey> = counts.keys().copied().collect();
        uniq.sort_by_key(|t| t.0);
        let mut tab = Tensor::zeros(uniq.len(), TABULAR_WIDTH);
        for (r, _) in uniq.iter().enumerate() {
            let row = self.norm.tabular_parts(&self.space, conf, &ctx.data, &ctx.env);
            for (c, v) in row.iter().enumerate() {
                tab.set(r, c, *v as f32);
            }
        }
        let mut tape = Tape::new();
        let pred = self.forward_batch(&mut tape, registry, &uniq, &tab);
        uniq.iter()
            .enumerate()
            .map(|(r, t)| {
                self.norm.denorm_y(tape.value(pred).get(r, 0) as f64).max(0.0) * counts[t] as f64
            })
            .sum()
    }
}

/// Uniform interface over every Table VII estimator, so the bench harness
/// can iterate the grid.
pub enum AnyModel {
    /// A tabular (GBDT / plain MLP) model.
    Tabular(TabularModel),
    /// A neural encoder ablation.
    Neural(NeuralBaseline),
    /// The full NECS model.
    Necs(Necs),
}

impl AnyModel {
    /// Predicted application execution time.
    pub fn predict_app(
        &self,
        registry: &TemplateRegistry,
        ctx: &PredictionContext,
        conf: &SparkConf,
    ) -> f64 {
        match self {
            AnyModel::Tabular(m) => m.predict_app(registry, ctx, conf),
            AnyModel::Neural(m) => m.predict_app(registry, ctx, conf),
            AnyModel::Necs(m) => m.predict_app(registry, ctx, conf),
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            AnyModel::Tabular(m) => m.label(),
            AnyModel::Neural(m) => m.encoder.label().to_string(),
            AnyModel::Necs(_) => "NECS".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DatasetBuilder;
    use lite_sparksim::cluster::ClusterSpec;
    use lite_workloads::data::SizeTier;

    fn dataset() -> Dataset {
        DatasetBuilder {
            apps: vec![AppId::Sort, AppId::KMeans],
            clusters: vec![ClusterSpec::cluster_a()],
            tiers: vec![SizeTier::Train(0), SizeTier::Train(1), SizeTier::Train(2)],
            confs_per_cell: 8,
            seed: 41,
        }
        .build()
    }

    #[test]
    fn feature_rows_have_expected_widths() {
        let ds = dataset();
        let inst = &ds.instances[0];
        let base = TABULAR_WIDTH + 5;
        assert_eq!(stage_row(&ds.space, &ds.registry, inst, FeatureSet::S).len(), base);
        assert_eq!(stage_row(&ds.space, &ds.registry, inst, FeatureSet::Sc).len(), base + BOW_DIM);
        assert_eq!(
            stage_row(&ds.space, &ds.registry, inst, FeatureSet::Scg).len(),
            base + BOW_DIM + 3 + ds.registry.op_onehot_width()
        );
        let run = &ds.runs[0];
        let env = ds.clusters[0].env_features();
        assert_eq!(
            app_row(&ds.space, run.app, &run.data, &env, &run.conf, FeatureSet::W).len(),
            15 + TABULAR_WIDTH
        );
        assert_eq!(
            app_row(&ds.space, run.app, &run.data, &env, &run.conf, FeatureSet::Wc).len(),
            15 + TABULAR_WIDTH + BOW_DIM
        );
    }

    #[test]
    fn gbdt_baselines_predict_positive_times() {
        let ds = dataset();
        for fs in [FeatureSet::W, FeatureSet::S, FeatureSet::Wc, FeatureSet::Sc, FeatureSet::Scg] {
            let m = TabularModel::fit(&ds, EstimatorKind::Gbdt, fs, 1);
            let data = AppId::Sort.dataset(SizeTier::Train(1));
            let ctx =
                PredictionContext::warm(&ds.registry, AppId::Sort, &data, &ds.clusters[0]).unwrap();
            let p = m.predict_app(&ds.registry, &ctx, &ds.space.default_conf());
            assert!(p > 0.0 && p.is_finite(), "{}: {p}", m.label());
        }
    }

    #[test]
    fn stage_code_features_help_gbdt() {
        // SC should beat W on rank correlation with ground truth across
        // configurations (the paper's central ablation claim).
        let ds = dataset();
        let w = TabularModel::fit(&ds, EstimatorKind::Gbdt, FeatureSet::W, 1);
        let sc = TabularModel::fit(&ds, EstimatorKind::Gbdt, FeatureSet::Sc, 1);
        let cluster = &ds.clusters[0];
        let data = AppId::KMeans.dataset(SizeTier::Train(2));
        let ctx = PredictionContext::warm(&ds.registry, AppId::KMeans, &data, cluster).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let confs: Vec<SparkConf> = (0..20).map(|_| ds.space.sample(&mut rng)).collect();
        let gold = crate::experiment::gold_times(cluster, AppId::KMeans, &data, &confs, 5);
        let rho = |m: &TabularModel| {
            let preds: Vec<f64> =
                confs.iter().map(|c| m.predict_app(&ds.registry, &ctx, c)).collect();
            lite_metrics::ranking::spearman(&preds, &gold)
        };
        let (rw, rsc) = (rho(&w), rho(&sc));
        assert!(rsc.is_finite() && rw.is_finite());
        // Both should carry some signal; SC at least as good within noise.
        assert!(rsc > 0.2, "SC baseline uninformative: {rsc}");
    }

    #[test]
    fn mlp_baseline_trains_and_predicts() {
        let ds = dataset();
        let m = TabularModel::fit(&ds, EstimatorKind::Mlp, FeatureSet::W, 3);
        let data = AppId::KMeans.dataset(SizeTier::Train(0));
        let ctx =
            PredictionContext::warm(&ds.registry, AppId::KMeans, &data, &ds.clusters[0]).unwrap();
        let p = m.predict_app(&ds.registry, &ctx, &ds.space.default_conf());
        assert!(p > 0.0 && p.is_finite());
        assert_eq!(m.label(), "MLP+W");
    }

    #[test]
    fn neural_baselines_train_and_predict() {
        let ds = dataset();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let data = AppId::Sort.dataset(SizeTier::Train(1));
        let ctx =
            PredictionContext::warm(&ds.registry, AppId::Sort, &data, &ds.clusters[0]).unwrap();
        for enc in [EncoderKind::Gcn, EncoderKind::Lstm] {
            let m = NeuralBaseline::train(&ds, &refs, enc, 2, 9);
            let p = m.predict_app(&ds.registry, &ctx, &ds.space.default_conf());
            assert!(p > 0.0 && p.is_finite(), "{}: {p}", enc.label());
        }
    }

    #[test]
    fn bow_is_deterministic_and_positive() {
        let toks = tokenize("val x = rdd.map(f)");
        let a = bow(&toks);
        let b = bow(&toks);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v >= 0.0));
        assert!(a.iter().any(|&v| v > 0.0));
    }
}
