//! Stage-based Code Organization and feature assembly (paper Section III).
//!
//! The training unit is the **stage instance** `⟨o, C, G, d, e, y⟩`:
//! configuration, code features, scheduler features, data features,
//! environment features, stage execution time. Stage *templates* (the code
//! and DAG of one stage kind of one application) are interned in a
//! [`TemplateRegistry`] so that
//!
//! * one application run yields many stage instances (the augmentation of
//!   paper Figure 9), and
//! * models encode each template once per minibatch and share the encoding
//!   across all of its instances.

use lite_nn::layers::normalized_adjacency;
use lite_nn::tensor::Tensor;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, SparkConf, NUM_KNOBS};
use lite_workloads::apps::AppId;
use lite_workloads::data::DataSpec;
use lite_workloads::instrument::{instrument_app, StageCode};
use lite_workloads::tokenize::{tokenize, Vocab};
use std::collections::HashMap;

/// Maximum tokens per stage (`N` in the paper: 1000, zero-padded).
pub const TOKEN_CAP: usize = 1000;

/// Index of a stage template within a [`TemplateRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateKey(pub usize);

/// One interned stage template: encoded code plus DAG.
#[derive(Debug, Clone)]
pub struct TemplateEntry {
    /// Owning application.
    pub app: AppId,
    /// Stage template name (e.g. `"pr-contrib"`).
    pub name: String,
    /// Token ids (vocab-encoded, truncated at [`TOKEN_CAP`], *not* padded —
    /// encoders pad or window as they need).
    pub token_ids: Vec<usize>,
    /// DAG node labels as op-vocab indices (0 = oov).
    pub dag_ops: Vec<usize>,
    /// Normalized adjacency `Â` of the DAG.
    pub a_hat: Tensor,
    /// FNV-1a over everything a model encodes this template from (token
    /// ids, DAG ops, `Â`, one-hot width), computed once at interning.
    /// Registries cloned from one parent hand out the same
    /// [`TemplateKey`] for different cold apps; anything cached per
    /// template must key on this as well.
    pub fingerprint: u64,
}

/// Interned templates + vocabularies shared by every model.
#[derive(Debug, Clone)]
pub struct TemplateRegistry {
    entries: Vec<TemplateEntry>,
    /// Per application, its templates by name: looked up by `&str`, with
    /// no `String` built per lookup.
    by_key: HashMap<AppId, HashMap<String, TemplateKey>>,
    /// Token vocabulary built from the training applications' stage codes.
    pub vocab: Vocab,
    /// Operation vocabulary: maps `OpKind` id → one-hot index (1-based;
    /// index 0 is the oov operation). `S` = number of training-time ops.
    op_index: HashMap<usize, usize>,
}

impl TemplateRegistry {
    /// Build a registry by instrumenting `apps` (the training
    /// applications). Vocabularies are derived from these apps only, so
    /// cold-start applications added later exercise the `<oov>` paths
    /// exactly as in the paper.
    pub fn build(apps: &[AppId]) -> TemplateRegistry {
        let instrumented: Vec<(AppId, Vec<StageCode>)> =
            apps.iter().map(|&a| (a, instrument_app(a))).collect();
        // Token vocabulary over all training stage codes.
        let token_streams: Vec<Vec<String>> = instrumented
            .iter()
            .flat_map(|(_, stages)| stages.iter().map(|s| tokenize(&s.source)))
            .collect();
        let refs: Vec<&[String]> = token_streams.iter().map(|s| s.as_slice()).collect();
        // min_count = 1: each template contributes exactly one stream to
        // this corpus, so any higher threshold would silently collapse all
        // template-unique distinctive tokens (the paper's C1 motivation)
        // into <oov>.
        let vocab = Vocab::build(refs.iter().copied(), 1);

        // Operation vocabulary (one-hot index space, 0 reserved for oov).
        let mut op_index = HashMap::new();
        for (_, stages) in &instrumented {
            for s in stages {
                for op in &s.dag.nodes {
                    let next = op_index.len() + 1;
                    op_index.entry(op.id()).or_insert(next);
                }
            }
        }

        let mut reg =
            TemplateRegistry { entries: Vec::new(), by_key: HashMap::new(), vocab, op_index };
        // Intern from the streams the vocabulary was built from: each
        // template is tokenized once.
        let mut streams = token_streams.into_iter();
        for (app, stages) in instrumented {
            for s in stages {
                let tokens = streams.next().expect("one token stream per stage");
                reg.intern_tokens(app, &s, || tokens);
            }
        }
        reg
    }

    /// Intern one instrumented stage (idempotent per `(app, name)`).
    /// Unknown tokens map to `<oov>`; unknown operations map to the oov
    /// one-hot index.
    pub fn intern(&mut self, app: AppId, stage: &StageCode) -> TemplateKey {
        self.intern_tokens(app, stage, || tokenize(&stage.source))
    }

    /// [`TemplateRegistry::intern`] with the stage's token stream supplied
    /// by `tokens`, which runs only if the stage is new.
    fn intern_tokens(
        &mut self,
        app: AppId,
        stage: &StageCode,
        tokens: impl FnOnce() -> Vec<String>,
    ) -> TemplateKey {
        if let Some(k) = self.key_of(app, &stage.template) {
            return k;
        }
        let tokens = tokens();
        let token_ids: Vec<usize> =
            tokens.iter().take(TOKEN_CAP).map(|t| self.vocab.id(t)).collect();
        let dag_ops: Vec<usize> = stage
            .dag
            .nodes
            .iter()
            .map(|op| self.op_index.get(&op.id()).copied().unwrap_or(0))
            .collect();
        let a_hat = normalized_adjacency(stage.dag.nodes.len(), &stage.dag.edges);
        // Each variable-length part follows its length, so two different
        // contents never fold the same word stream.
        let mut fingerprint = 0xcbf29ce484222325u64;
        let mut mix = |w: usize| fingerprint = (fingerprint ^ w as u64).wrapping_mul(0x100000001b3);
        mix(self.op_onehot_width());
        mix(token_ids.len());
        token_ids.iter().for_each(|&t| mix(t));
        mix(dag_ops.len());
        dag_ops.iter().for_each(|&op| mix(op));
        a_hat.data().iter().for_each(|v| mix(v.to_bits() as usize));
        let key = TemplateKey(self.entries.len());
        self.entries.push(TemplateEntry {
            app,
            name: stage.template.clone(),
            token_ids,
            dag_ops,
            a_hat,
            fingerprint,
        });
        self.by_key.entry(app).or_default().insert(stage.template.clone(), key);
        key
    }

    /// Look up a template.
    pub fn get(&self, key: TemplateKey) -> &TemplateEntry {
        &self.entries[key.0]
    }

    /// Key for `(app, template name)`, if interned.
    pub fn key_of(&self, app: AppId, name: &str) -> Option<TemplateKey> {
        self.by_key.get(&app)?.get(name).copied()
    }

    /// Number of interned templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One-hot width for DAG nodes: `S + 1` (paper Section III-B, step 3).
    pub fn op_onehot_width(&self) -> usize {
        self.op_index.len() + 1
    }

    /// Node one-hot feature matrix `V_i ∈ R^{|V| × (S+1)}` for a template.
    pub fn node_onehots(&self, key: TemplateKey) -> Tensor {
        let e = self.get(key);
        let w = self.op_onehot_width();
        let mut m = Tensor::zeros(e.dag_ops.len(), w);
        for (r, &idx) in e.dag_ops.iter().enumerate() {
            m.set(r, idx, 1.0);
        }
        m
    }

    /// Node one-hots as if every operation were unseen (the paper's
    /// Cold-UNK ablation *without* the oov token maps unseen ops to zero
    /// vectors instead).
    pub fn node_onehots_no_oov(&self, key: TemplateKey) -> Tensor {
        let e = self.get(key);
        let w = self.op_onehot_width();
        let mut m = Tensor::zeros(e.dag_ops.len(), w);
        for (r, &idx) in e.dag_ops.iter().enumerate() {
            if idx != 0 {
                m.set(r, idx, 1.0);
            }
        }
        m
    }
}

/// One stage-level training instance (paper Section III-C).
#[derive(Debug, Clone)]
pub struct StageInstance {
    /// Owning application.
    pub app: AppId,
    /// Interned template (code features `C_i` + scheduler features `G_i`).
    pub template: TemplateKey,
    /// Knob values `o_i`.
    pub conf: SparkConf,
    /// Data features `d_i`.
    pub data: DataSpec,
    /// Environment features `e_i` (Table II).
    pub env: [f64; 6],
    /// Stage execution time `y_i` in seconds.
    pub y: f64,
    /// Application-instance id `w(x_i)`: instances from the same run share
    /// `o`, `d`, `e`.
    pub app_instance: usize,
}

/// Width of the tabular part of the model input:
/// `d (4) + e (6) + o (16)`.
pub const TABULAR_WIDTH: usize = CONTEXT_WIDTH + NUM_KNOBS;

/// The leading tabular columns, `d (4) + e (6)`: the ones a dataset and an
/// environment fix, whatever the configuration.
pub const CONTEXT_WIDTH: usize = 4 + 6;

/// Normalization statistics for tabular features and targets, estimated on
/// the training set and reused verbatim at test time (the small→large
/// migration must not peek at test statistics).
#[derive(Debug, Clone)]
pub struct FeatNorm {
    mean: Vec<f64>,
    std: Vec<f64>,
    /// Mean of `ln(1+y)`.
    pub y_mean: f64,
    /// Std of `ln(1+y)`.
    pub y_std: f64,
}

impl FeatNorm {
    /// Estimate from training instances.
    pub fn fit(space: &ConfSpace, instances: &[&StageInstance]) -> FeatNorm {
        assert!(!instances.is_empty(), "cannot normalize an empty training set");
        let rows: Vec<[f64; TABULAR_WIDTH]> =
            instances.iter().map(|i| raw_tabular(space, i)).collect();
        let n = rows.len() as f64;
        let mut mean = vec![0.0; TABULAR_WIDTH];
        for r in &rows {
            for (m, v) in mean.iter_mut().zip(r.iter()) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; TABULAR_WIDTH];
        for r in &rows {
            for ((s, v), m) in std.iter_mut().zip(r.iter()).zip(mean.iter()) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut std {
            // Features constant in training (e.g. a single cluster) keep
            // unit scale: a tiny floor would explode any test-time
            // deviation into astronomical z-scores.
            *s = if *s < 1e-8 { 1.0 } else { s.sqrt() };
        }
        let ys: Vec<f64> = instances.iter().map(|i| (1.0 + i.y).ln()).collect();
        let y_mean = ys.iter().sum::<f64>() / n;
        let y_std =
            (ys.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n).sqrt().max(1e-6);
        FeatNorm { mean, std, y_mean, y_std }
    }

    /// Normalized tabular features from raw parts (used at recommendation
    /// time where no `StageInstance` exists yet).
    pub fn tabular_parts(
        &self,
        space: &ConfSpace,
        conf: &SparkConf,
        data: &DataSpec,
        env: &[f64; 6],
    ) -> Vec<f64> {
        self.normalized(0, raw_tabular_parts(space, conf, data, env)).collect()
    }

    /// [`FeatNorm::tabular_parts`] narrowed to `f32` straight into a model
    /// input row (`out.len()` = [`TABULAR_WIDTH`]), with no allocation.
    pub fn tabular_into(
        &self,
        space: &ConfSpace,
        conf: &SparkConf,
        data: &DataSpec,
        env: &[f64; 6],
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), TABULAR_WIDTH);
        narrow_into(self.normalized(0, raw_tabular_parts(space, conf, data, env)), out);
    }

    /// [`FeatNorm::tabular_into`]'s first [`CONTEXT_WIDTH`] columns, the
    /// ones `data` and `env` fix: computed once, they serve every
    /// configuration scored in that context, with the same bits.
    pub fn context_into(&self, data: &DataSpec, env: &[f64; 6], out: &mut [f32]) {
        assert_eq!(out.len(), CONTEXT_WIDTH);
        narrow_into(self.normalized(0, raw_context(data, env)), out);
    }

    /// [`FeatNorm::tabular_into`]'s last [`NUM_KNOBS`] columns, the
    /// configuration's, with the same bits.
    pub fn conf_into(&self, space: &ConfSpace, conf: &SparkConf, out: &mut [f32]) {
        assert_eq!(out.len(), NUM_KNOBS);
        narrow_into(self.normalized(CONTEXT_WIDTH, conf.normalized(space)), out);
    }

    /// The `[B, TABULAR_WIDTH]` model input of a batch of instances.
    pub fn tabular_matrix(&self, space: &ConfSpace, instances: &[&StageInstance]) -> Tensor {
        let mut m = Tensor::zeros(instances.len(), TABULAR_WIDTH);
        for (r, inst) in instances.iter().enumerate() {
            self.tabular_into(space, &inst.conf, &inst.data, &inst.env, m.row_mut(r));
        }
        m
    }

    /// `raw`'s columns z-scored, for a `raw` holding the tabular row's
    /// columns `from ..`.
    fn normalized<const W: usize>(
        &self,
        from: usize,
        raw: [f64; W],
    ) -> impl Iterator<Item = f64> + '_ {
        let stats = self.mean[from..].iter().zip(&self.std[from..]);
        raw.into_iter().zip(stats).map(|(v, (m, s))| (v - m) / s)
    }

    /// Normalize a target time.
    pub fn norm_y(&self, y: f64) -> f64 {
        ((1.0 + y).ln() - self.y_mean) / self.y_std
    }

    /// Invert [`FeatNorm::norm_y`]. The normalized input is clamped to
    /// ±20σ so wild extrapolations stay finite.
    pub fn denorm_y(&self, z: f64) -> f64 {
        (z.clamp(-20.0, 20.0) * self.y_std + self.y_mean).exp() - 1.0
    }
}

fn raw_tabular(space: &ConfSpace, inst: &StageInstance) -> [f64; TABULAR_WIDTH] {
    raw_tabular_parts(space, &inst.conf, &inst.data, &inst.env)
}

fn raw_tabular_parts(
    space: &ConfSpace,
    conf: &SparkConf,
    data: &DataSpec,
    env: &[f64; 6],
) -> [f64; TABULAR_WIDTH] {
    let mut out = [0.0; TABULAR_WIDTH];
    out[..CONTEXT_WIDTH].copy_from_slice(&raw_context(data, env));
    out[CONTEXT_WIDTH..].copy_from_slice(&conf.normalized(space));
    out
}

fn raw_context(data: &DataSpec, env: &[f64; 6]) -> [f64; CONTEXT_WIDTH] {
    let mut out = [0.0; CONTEXT_WIDTH];
    out[..4].copy_from_slice(&data.log_features());
    // Pre-scale raw environment units into comparable ranges (memory speed
    // is in thousands of MT/s) before z-scoring.
    out[4..].copy_from_slice(&[env[0], env[1], env[2], env[3] / 8.0, env[4] / 1000.0, env[5]]);
    out
}

/// Each value narrowed to `f32` into `out`.
fn narrow_into(values: impl Iterator<Item = f64>, out: &mut [f32]) {
    for (o, v) in out.iter_mut().zip(values) {
        *o = v as f32;
    }
}

/// Environment feature helper.
pub fn env_features(cluster: &ClusterSpec) -> [f64; 6] {
    cluster.env_features()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lite_workloads::data::SizeTier;

    #[test]
    fn registry_interns_all_training_templates() {
        let reg = TemplateRegistry::build(&[AppId::Terasort, AppId::PageRank]);
        assert!(reg.len() >= 4 + 4, "{} templates", reg.len());
        assert!(reg.key_of(AppId::Terasort, "sort-partitions").is_some());
        assert!(reg.key_of(AppId::PageRank, "pr-contrib").is_some());
        assert!(reg.key_of(AppId::KMeans, "km-assign").is_none());
    }

    #[test]
    fn key_of_finds_every_template_of_the_fifteen_apps_by_name() {
        let reg = TemplateRegistry::build(&AppId::all());
        for i in 0..reg.len() {
            let entry = reg.get(TemplateKey(i));
            assert_eq!(reg.key_of(entry.app, &entry.name), Some(TemplateKey(i)), "{}", entry.name);
        }
        for app in AppId::all() {
            for stage in instrument_app(app) {
                assert!(reg.key_of(app, &stage.template).is_some(), "{app:?} {}", stage.template);
            }
        }
        // A name is looked up within its own application only.
        let pagerank = reg.get(reg.key_of(AppId::PageRank, "pr-contrib").unwrap());
        assert_eq!(pagerank.app, AppId::PageRank);
        assert_eq!(reg.key_of(AppId::Sort, "pr-contrib"), None);
    }

    #[test]
    fn token_cap_is_respected() {
        let reg = TemplateRegistry::build(&[AppId::StronglyConnectedComponent]);
        for i in 0..reg.len() {
            assert!(reg.get(TemplateKey(i)).token_ids.len() <= TOKEN_CAP);
        }
    }

    #[test]
    fn unseen_app_tokens_hit_oov() {
        // Vocabulary from Terasort only; KMeans stage codes share operator
        // impls but the closures contain unseen tokens.
        let mut reg = TemplateRegistry::build(&[AppId::Terasort]);
        let km = instrument_app(AppId::KMeans);
        let key = reg.intern(AppId::KMeans, &km[1]); // km-assign
        let ids = &reg.get(key).token_ids;
        let oov = ids.iter().filter(|&&t| t == lite_workloads::tokenize::OOV_TOKEN_ID).count()
            as f64
            / ids.len() as f64;
        assert!(oov > 0.0);
        // But shared RDD-impl tokens keep oov well below 100%.
        assert!(oov < 0.8, "{oov}");
    }

    #[test]
    fn node_onehots_are_one_hot_with_oov_column() {
        let mut reg = TemplateRegistry::build(&[AppId::Sort]);
        let w = reg.op_onehot_width();
        // SCC uses Pregel ops never seen in Sort.
        let scc = instrument_app(AppId::StronglyConnectedComponent);
        let fwd = scc.iter().find(|s| s.template == "scc-forward-reach").unwrap();
        let key = reg.intern(AppId::StronglyConnectedComponent, fwd);
        let m = reg.node_onehots(key);
        assert_eq!(m.cols(), w);
        // Every row sums to exactly 1, and some rows hit the oov column 0.
        let mut oov_rows = 0;
        for r in 0..m.rows() {
            let s: f32 = m.row(r).iter().sum();
            assert_eq!(s, 1.0);
            if m.get(r, 0) == 1.0 {
                oov_rows += 1;
            }
        }
        assert!(oov_rows > 0, "expected oov ops in SCC under Sort vocab");
        // The no-oov variant zeroes those rows instead.
        let m2 = reg.node_onehots_no_oov(key);
        let zero_rows = (0..m2.rows()).filter(|&r| m2.row(r).iter().all(|&v| v == 0.0)).count();
        assert_eq!(zero_rows, oov_rows);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut reg = TemplateRegistry::build(&[AppId::Sort]);
        let n = reg.len();
        let sort = instrument_app(AppId::Sort);
        let k1 = reg.intern(AppId::Sort, &sort[0]);
        assert_eq!(reg.len(), n);
        assert_eq!(Some(k1), reg.key_of(AppId::Sort, &sort[0].template));
    }

    fn dummy_instance(y: f64) -> StageInstance {
        StageInstance {
            app: AppId::Sort,
            template: TemplateKey(0),
            conf: ConfSpace::table_iv().default_conf(),
            data: AppId::Sort.dataset(SizeTier::Train(0)),
            env: ClusterSpec::cluster_a().env_features(),
            y,
            app_instance: 0,
        }
    }

    #[test]
    fn featnorm_roundtrips_targets() {
        let space = ConfSpace::table_iv();
        let insts: Vec<StageInstance> =
            [1.0, 5.0, 20.0, 100.0].iter().map(|&y| dummy_instance(y)).collect();
        let norm = FeatNorm::fit(&space, &insts.iter().collect::<Vec<_>>());
        for y in [0.5, 3.0, 50.0, 700.0] {
            let z = norm.norm_y(y);
            assert!((norm.denorm_y(z) - y).abs() < 1e-6 * (1.0 + y));
        }
    }

    #[test]
    fn featnorm_standardizes_training_features() {
        let space = ConfSpace::table_iv();
        let mut insts = Vec::new();
        for (i, y) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            let mut inst = dummy_instance(*y);
            inst.data = AppId::Sort.dataset(SizeTier::Train(i as u8));
            insts.push(inst);
        }
        let norm = FeatNorm::fit(&space, &insts.iter().collect::<Vec<_>>());
        // The datasize feature varies across instances -> mean ~0 across
        // the training set after normalization.
        let tabular = |i: &StageInstance| norm.tabular_parts(&space, &i.conf, &i.data, &i.env);
        let sum: f64 = insts.iter().map(|inst| tabular(inst)[0]).sum();
        assert!(sum.abs() < 1e-9, "{sum}");
        assert_eq!(tabular(&insts[0]).len(), TABULAR_WIDTH);
    }
}
