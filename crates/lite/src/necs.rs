//! NECS: Neural Estimator via Code and Scheduler representation
//! (paper Section III).
//!
//! Architecture, following Eq. 1–3:
//!
//! * token embeddings → multi-width **CNN** with global max pooling → ReLU
//!   projection `h_code` (Eq. 1),
//! * one-hot DAG nodes → two **GCN** layers over `Â` → column-wise max
//!   pooling `h_DAG` (Eq. 2),
//! * `concat(d, e, o, h_code, h_DAG)` → **tower MLP** → predicted stage
//!   time (Eq. 3), trained with MSE (Eq. 4) on log-scaled targets.
//!
//! Stage templates are encoded **once per minibatch** and shared by all
//! instances of that template via a gather — mathematically identical to
//! per-sample encoding (the gather's backward accumulates), but orders of
//! magnitude cheaper on stage-augmented data where thousands of instances
//! reuse a few dozen templates.
//!
//! Inference goes further. The MLP's first layer is linear, so it splits
//! into a tabular half and an encoding half. A template's encoding depends
//! on the weights and the template, never on the configuration, so
//! [`Necs`] memoises its encoding half per weights ([`EncodingMemo`]). A
//! candidate's tabular half is normalised and multiplied once for all of
//! its template rows ([`TowerMlp::first_product`]); each row adds the two
//! halves and runs the rest of the MLP ([`TowerMlp::infer_from_first`]).
//! The tape path ([`Necs::forward_with_hidden`]) is the training path and
//! the reference the memoised one is tested against: splitting the sum
//! re-associates it, so predictions match to within rounding (1e-5
//! relative) and candidate rankings match exactly.

use crate::features::{
    FeatNorm, StageInstance, TemplateKey, TemplateRegistry, CONTEXT_WIDTH, TABULAR_WIDTH,
};
use lite_nn::init::rng;
use lite_nn::layers::{Conv1dBank, Dense, GcnLayer, TowerMlp};
use lite_nn::optim::{clip_grad_norm, Adam};
use lite_nn::tape::{ParamId, Params, Tape, Var};
use lite_nn::tensor::Tensor;
use lite_sparksim::conf::{ConfSpace, SparkConf};
use lite_workloads::data::DataSpec;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Memo entries kept before the memo starts over: templates interned for
/// cold apps would otherwise grow it for as long as the process runs.
const MEMO_CAP: usize = 4096;

/// What one template's memo entry was computed from, besides the weights:
/// the template's slot, its content fingerprint (a registry cloned from
/// the same parent reuses slots for other cold apps) and the oov switch.
type MemoKey = (TemplateKey, u64, bool);

/// One row of [`Necs::predict_stages`]: a template under a configuration,
/// a dataset and an environment.
type StageItem<'a> = (TemplateKey, &'a SparkConf, &'a DataSpec, &'a [f64; 6]);

/// Whether two consecutive items borrow the same `(conf, data, env)`: one
/// candidate's templates, as [`Necs::predict_app_batch`] lays them out,
/// are one run, whose tabular columns are normalised and multiplied once.
fn same_run(a: &StageItem<'_>, b: &StageItem<'_>) -> bool {
    std::ptr::eq(a.1, b.1) && std::ptr::eq(a.2, b.2) && std::ptr::eq(a.3, b.3)
}

/// Each template's `[H_t]` encoding multiplied through its band of the
/// first MLP layer's weights, `[H_t] · W1[TAB..]`, under the owning
/// model's *current* weights: filled lazily and shared by every thread
/// holding `&Necs`. Whatever can change the weights empties it, and a
/// clone starts empty: a clone exists to be retrained.
#[derive(Default)]
struct EncodingMemo(Mutex<HashMap<MemoKey, Arc<[f32]>>>);

impl Clone for EncodingMemo {
    fn clone(&self) -> EncodingMemo {
        EncodingMemo::default()
    }
}

impl EncodingMemo {
    /// Scoring runs under `catch_unwind` in the service, so a holder can
    /// die; every write is one `HashMap` call storing a complete value,
    /// so the map it leaves is valid and the lock is recovered.
    fn lock(&self) -> MutexGuard<'_, HashMap<MemoKey, Arc<[f32]>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn clear(&mut self) {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

/// Token embedding size `D`.
const EMBED_DIM: usize = 12;
/// CNN window widths.
const CONV_WIDTHS: [usize; 2] = [3, 5];
/// Kernels per window width: `I` in Eq. 1 is `CONV_WIDTHS.len()` × this.
const KERNELS_PER_WIDTH: usize = 16;
/// Width of `h_code` after the ReLU projection (Eq. 1).
const CODE_HIDDEN: usize = 24;
/// GCN layer width (`h_DAG` dimension, Eq. 2).
const GCN_HIDDEN: usize = 16;
/// Tower-MLP hidden depth `L` (Eq. 3).
const MLP_DEPTH: usize = 3;
/// Adam learning rate.
const LR: f32 = 2e-3;

/// NECS training knobs. The architecture is fixed by the constants above,
/// scaled for single-core training in seconds to minutes.
#[derive(Debug, Clone)]
pub struct NecsConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Init/shuffle seed.
    pub seed: u64,
    /// Whether unseen DAG operations use the oov one-hot (paper's default;
    /// `false` reproduces the Cold-UNK ablation of Table XI).
    pub use_oov_node: bool,
}

impl Default for NecsConfig {
    fn default() -> Self {
        NecsConfig { epochs: 30, batch_size: 512, seed: 42, use_oov_node: true }
    }
}

/// The NECS model.
#[derive(Clone)]
pub struct Necs {
    /// Hyper-parameters.
    pub config: NecsConfig,
    /// Normalization statistics fitted on the training set.
    pub norm: FeatNorm,
    space: ConfSpace,
    params: Params,
    token_table: ParamId,
    conv: Conv1dBank,
    code_proj: Dense,
    gcn1: GcnLayer,
    gcn2: GcnLayer,
    mlp: TowerMlp,
    memo: EncodingMemo,
    /// Training-loss trajectory (one entry per epoch) for diagnostics.
    pub loss_history: Vec<f32>,
}

impl Necs {
    /// Create an untrained model sized to a registry's vocabularies.
    pub fn new(
        registry: &TemplateRegistry,
        space: ConfSpace,
        norm: FeatNorm,
        config: NecsConfig,
    ) -> Necs {
        let mut r = rng(config.seed);
        let mut params = Params::new();
        let vocab_size = registry.vocab.len();
        let token_table =
            params.add("necs.embed", lite_nn::init::normal(vocab_size, EMBED_DIM, 0.1, &mut r));
        let conv = Conv1dBank::new(
            &mut params,
            "necs.conv",
            EMBED_DIM,
            &CONV_WIDTHS,
            KERNELS_PER_WIDTH,
            &mut r,
        );
        let code_proj =
            Dense::new(&mut params, "necs.codeproj", conv.output_width(), CODE_HIDDEN, &mut r);
        let onehot = registry.op_onehot_width();
        let gcn1 = GcnLayer::new(&mut params, "necs.gcn1", onehot, GCN_HIDDEN, &mut r);
        let gcn2 = GcnLayer::new(&mut params, "necs.gcn2", GCN_HIDDEN, GCN_HIDDEN, &mut r);
        let mlp_input = TABULAR_WIDTH + CODE_HIDDEN + GCN_HIDDEN;
        let mlp = TowerMlp::new(&mut params, "necs.mlp", mlp_input, MLP_DEPTH, 1, &mut r);
        Necs {
            config,
            norm,
            space,
            params,
            token_table,
            conv,
            code_proj,
            gcn1,
            gcn2,
            mlp,
            memo: EncodingMemo::default(),
            loss_history: Vec::new(),
        }
    }

    /// Convenience: fit normalization + train on a slice of instances.
    pub fn train(
        registry: &TemplateRegistry,
        space: &ConfSpace,
        instances: &[&StageInstance],
        config: NecsConfig,
    ) -> Necs {
        let norm = FeatNorm::fit(space, instances);
        let mut model = Necs::new(registry, space.clone(), norm, config);
        model.fit(registry, instances);
        model
    }

    /// Encode one template: `[1, CODE_HIDDEN + GCN_HIDDEN]` (Eq. 1 ‖ Eq. 2).
    fn encode_template(
        &self,
        tape: &mut Tape,
        registry: &TemplateRegistry,
        key: TemplateKey,
    ) -> Var {
        let entry = registry.get(key);
        // --- code branch (Eq. 1) ---
        let ids: &[usize] = if entry.token_ids.is_empty() { &[0] } else { &entry.token_ids };
        let emb = tape.embedding_gather(&self.params, self.token_table, ids); // [N, D]
        let q = self.conv.forward(tape, &self.params, emb); // [1, widths*K]
        let proj = self.code_proj.forward(tape, &self.params, q);
        let h_code = tape.relu(proj); // [1, CODE_HIDDEN]
                                      // --- scheduler branch (Eq. 2) ---
        let onehots = if self.config.use_oov_node {
            registry.node_onehots(key)
        } else {
            registry.node_onehots_no_oov(key)
        };
        let a = tape.leaf(entry.a_hat.clone());
        let h0 = tape.leaf(onehots);
        let h1 = self.gcn1.forward(tape, &self.params, a, h0);
        let h2 = self.gcn2.forward(tape, &self.params, a, h1);
        let h_dag = tape.col_max(h2); // [1, GCN_HIDDEN]
        tape.concat_cols(&[h_code, h_dag])
    }

    /// One template's term of the first MLP layer, `[H_t] · W1[TAB..]`,
    /// under the current weights, from the memo when it is there. The lock
    /// is not held while encoding: two threads may encode the same template
    /// at once, and both get the bits the first insert stored (the values
    /// are equal anyway).
    fn template_product(&self, registry: &TemplateRegistry, key: TemplateKey) -> Arc<[f32]> {
        let memo_key = (key, registry.get(key).fingerprint, self.config.use_oov_node);
        if let Some(hit) = self.memo.lock().get(&memo_key) {
            return hit.clone();
        }
        let mut tape = Tape::new();
        let encoded = self.encode_template(&mut tape, registry, key);
        let product = self.mlp.first_product(&self.params, tape.value(encoded), TABULAR_WIDTH);
        let fresh: Arc<[f32]> = product.data().into();
        let mut memo = self.memo.lock();
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.entry(memo_key).or_insert(fresh).clone()
    }

    /// Forward a batch of `(template, normalized tabular)` pairs; returns
    /// `(prediction [B,1], mlp hidden concat [B,H])`.
    fn forward_batch(
        &self,
        tape: &mut Tape,
        registry: &TemplateRegistry,
        templates: &[TemplateKey],
        tabular: &Tensor,
    ) -> (Var, Var) {
        debug_assert_eq!(templates.len(), tabular.rows());
        // Unique templates, encoded once.
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
        let table = tape.vstack(&encoded); // [T, H_t]
        let gathered = tape.gather_rows(table, &idx); // [B, H_t]
        let tab = tape.leaf(tabular.clone()); // [B, TAB]
        let x = tape.concat_cols(&[tab, gathered]);
        self.mlp.forward_with_hidden(tape, &self.params, x)
    }

    /// Train with Adam on MSE over normalized log targets (Eq. 4).
    pub fn fit(&mut self, registry: &TemplateRegistry, instances: &[&StageInstance]) {
        assert!(!instances.is_empty(), "cannot fit on an empty training set");
        self.memo.clear();
        let mut order: Vec<usize> = (0..instances.len()).collect();
        let mut shuffle_rng = rand::rngs::StdRng::seed_from_u64(self.config.seed ^ 0x5f);
        let mut opt = Adam::new(LR);
        for _ in 0..self.config.epochs {
            order.shuffle(&mut shuffle_rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0;
            for chunk in order.chunks(self.config.batch_size) {
                let batch: Vec<&StageInstance> = chunk.iter().map(|&i| instances[i]).collect();
                let templates: Vec<TemplateKey> = batch.iter().map(|i| i.template).collect();
                let tab = self.norm.tabular_matrix(&self.space, &batch);
                let mut target = Tensor::zeros(batch.len(), 1);
                for (r, inst) in batch.iter().enumerate() {
                    target.set(r, 0, self.norm.norm_y(inst.y) as f32);
                }
                let mut tape = Tape::new();
                let (pred, _) = self.forward_batch(&mut tape, registry, &templates, &tab);
                let loss = tape.mse_loss(pred, &target);
                epoch_loss += tape.value(loss).get(0, 0);
                batches += 1;
                tape.backward(loss, &mut self.params);
                // The tape shares the weights: dropped, Adam steps them in
                // place instead of copying them.
                drop(tape);
                clip_grad_norm(&mut self.params, 5.0);
                opt.step(&mut self.params);
            }
            let mean_loss = epoch_loss / batches.max(1) as f32;
            self.loss_history.push(mean_loss);
        }
    }

    /// Predict stage execution times (seconds) for a batch of
    /// `(template, conf, data, env)` tuples.
    pub fn predict_stages(
        &self,
        registry: &TemplateRegistry,
        items: &[(TemplateKey, &SparkConf, &DataSpec, &[f64; 6])],
    ) -> Vec<f64> {
        if items.is_empty() {
            return Vec::new();
        }
        let tab_terms = self.mlp.first_product(&self.params, &self.tabular_rows(items), 0);
        // Each row's first-layer product is its run's tabular term plus its
        // template's memoised term, written in place.
        let width = tab_terms.cols();
        let mut z = Tensor::zeros(items.len(), width);
        let mut rows = z.data_mut().chunks_exact_mut(width);
        // The terms of the templates this call uses, each fetched once. A
        // run's `j`-th template is mostly the last run's `j`-th (every
        // candidate of a `predict_app_batch` has the same templates, in
        // the same order), so that slot is looked at first.
        let mut products: Vec<(TemplateKey, Arc<[f32]>)> = Vec::new();
        let tab_rows = tab_terms.data().chunks_exact(width);
        for (tab_term, run_items) in tab_rows.zip(items.chunk_by(same_run)) {
            for (j, (&(template, ..), row)) in run_items.iter().zip(&mut rows).enumerate() {
                let at = match products.get(j) {
                    Some(&(key, _)) if key == template => j,
                    _ => match products.iter().position(|&(key, _)| key == template) {
                        Some(at) => at,
                        None => {
                            products.push((template, self.template_product(registry, template)));
                            products.len() - 1
                        }
                    },
                };
                for ((out, t), p) in row.iter_mut().zip(tab_term).zip(products[at].1.iter()) {
                    *out = t + p;
                }
            }
        }
        let pred = self.mlp.infer_from_first(&self.params, z);
        pred.data().iter().map(|&z| self.norm.denorm_y(z as f64).max(0.0)).collect()
    }

    /// One normalised tabular row per run of [`same_run`] items. Runs
    /// that borrow the same `(data, env)` — every candidate of one
    /// request — share their context columns: computed for the first,
    /// copied into the rest.
    fn tabular_rows(&self, items: &[StageItem<'_>]) -> Tensor {
        let mut tab = Tensor::zeros(items.chunk_by(same_run).count(), TABULAR_WIDTH);
        let mut context: Option<(&DataSpec, &[f64; 6], usize)> = None;
        for (run, run_items) in items.chunk_by(same_run).enumerate() {
            let (_, conf, data, env) = run_items[0];
            let start = run * TABULAR_WIDTH;
            match context {
                Some((d, e, from)) if std::ptr::eq(d, data) && std::ptr::eq(e, env) => {
                    let from = from * TABULAR_WIDTH;
                    tab.data_mut().copy_within(from..from + CONTEXT_WIDTH, start);
                }
                _ => {
                    self.norm.context_into(data, env, &mut tab.row_mut(run)[..CONTEXT_WIDTH]);
                    context = Some((data, env, run));
                }
            }
            self.norm.conf_into(&self.space, conf, &mut tab.row_mut(run)[CONTEXT_WIDTH..]);
        }
        tab
    }

    /// Predict the total execution time of an application instance under a
    /// configuration by summing per-stage predictions (paper Eq. 5's inner
    /// sum). Stage multiplicity (iterations) is respected by the context.
    pub fn predict_app(
        &self,
        registry: &TemplateRegistry,
        ctx: &crate::experiment::PredictionContext,
        conf: &SparkConf,
    ) -> f64 {
        self.predict_app_batch(registry, ctx, std::slice::from_ref(conf))[0]
    }

    /// Predict application execution times for *many* candidate
    /// configurations of one instance in a single batched forward pass —
    /// the serving-path variant of [`Necs::predict_app`]. All
    /// `(unique template × candidate)` rows go through one MLP pass; the
    /// template encodings (the expensive CNN/GCN branches) come from the
    /// per-weights memo, already multiplied through the first layer.
    ///
    /// Row-wise forward math is independent per row (a candidate's tabular
    /// term is the same product whichever batch it is in, and each row adds
    /// it to its template's term the same way) and the per-candidate
    /// summation order matches `predict_app` (templates sorted by key), so
    /// both paths agree bit for bit (guarded by a bit-equality test).
    pub fn predict_app_batch(
        &self,
        registry: &TemplateRegistry,
        ctx: &crate::experiment::PredictionContext,
        confs: &[SparkConf],
    ) -> Vec<f64> {
        self.predict_confs(registry, ctx, confs.iter())
    }

    /// [`Necs::predict_app_batch`] over borrowed candidates, so that a
    /// caller scoring some of its configurations need not copy them.
    pub(crate) fn predict_confs<'c>(
        &self,
        registry: &TemplateRegistry,
        ctx: &crate::experiment::PredictionContext,
        confs: impl Iterator<Item = &'c SparkConf>,
    ) -> Vec<f64> {
        // Unique templates with multiplicity, sorted by key (the
        // deterministic summation order): predict each once per
        // candidate, weight by its instance count.
        let mut sorted: Vec<TemplateKey> = ctx.stages.clone();
        sorted.sort_by_key(|t| t.0);
        // One run per unique template; its length is the multiplicity.
        let uniq = || sorted.chunk_by(|a, b| a == b);
        let stages = uniq().count();
        if stages == 0 {
            return vec![0.0; confs.count()];
        }
        let items: Vec<StageItem<'_>> = confs
            .flat_map(|conf| uniq().map(move |run| (run[0], conf, &ctx.data, &ctx.env)))
            .collect();
        let preds = self.predict_stages(registry, &items);
        preds
            .chunks(stages)
            .map(|per_stage| uniq().zip(per_stage).map(|(run, p)| p * run.len() as f64).sum())
            .collect()
    }

    /// Mutable access to the parameter store (used by Adaptive Model
    /// Update to extend the store with a discriminator and fine-tune).
    /// The caller may change any weight, so the encoding memo is emptied.
    pub fn params_mut(&mut self) -> &mut Params {
        self.memo.clear();
        &mut self.params
    }

    /// Shared access to the parameter store.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Forward a batch exposing the MLP hidden concatenation (the feature
    /// embedding `h_i` that Adaptive Model Update discriminates on).
    pub fn forward_with_hidden(
        &self,
        tape: &mut Tape,
        registry: &TemplateRegistry,
        instances: &[&StageInstance],
    ) -> (Var, Var) {
        let templates: Vec<TemplateKey> = instances.iter().map(|i| i.template).collect();
        let tab = self.norm.tabular_matrix(&self.space, instances);
        self.forward_batch(tape, registry, &templates, &tab)
    }

    /// Width of the MLP hidden concatenation.
    pub fn hidden_width(&self) -> usize {
        self.mlp.hidden_width()
    }

    /// Normalized target for an instance (AMU needs consistent targets).
    pub fn norm_target(&self, inst: &StageInstance) -> f32 {
        self.norm.norm_y(inst.y) as f32
    }

    /// The knob space this model normalizes against.
    pub fn space(&self) -> &ConfSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DatasetBuilder, PredictionContext};
    use lite_sparksim::cluster::ClusterSpec;
    use lite_workloads::apps::AppId;
    use lite_workloads::data::SizeTier;

    fn small_dataset() -> crate::experiment::Dataset {
        DatasetBuilder {
            apps: vec![AppId::Sort, AppId::PageRank, AppId::KMeans],
            clusters: vec![ClusterSpec::cluster_a()],
            tiers: SizeTier::train_tiers().to_vec(),
            confs_per_cell: 3,
            seed: 5,
        }
        .build()
    }

    fn quick_config() -> NecsConfig {
        NecsConfig { epochs: 30, batch_size: 128, ..Default::default() }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = small_dataset();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let model = Necs::train(&ds.registry, &ds.space, &refs, quick_config());
        let first = model.loss_history.first().copied().unwrap();
        let last = model.loss_history.last().copied().unwrap();
        assert!(last < 0.7 * first, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn predictions_are_positive_and_scale_with_data() {
        let ds = small_dataset();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let model = Necs::train(&ds.registry, &ds.space, &refs, quick_config());
        let cluster = &ds.clusters[0];
        let small = AppId::Sort.dataset(SizeTier::Train(0));
        // Test tier (400x) rather than Valid (24x): the scaling direction
        // must hold even for a lightly-trained test model, so use a
        // contrast far above its noise floor.
        let big = AppId::Sort.dataset(SizeTier::Test);
        let conf = ds.space.default_conf();
        let ctx_s = PredictionContext::warm(&ds.registry, AppId::Sort, &small, cluster).unwrap();
        let ctx_b = PredictionContext::warm(&ds.registry, AppId::Sort, &big, cluster).unwrap();
        let p_small = model.predict_app(&ds.registry, &ctx_s, &conf);
        let p_big = model.predict_app(&ds.registry, &ctx_b, &conf);
        assert!(p_small > 0.0);
        assert!(p_big > p_small, "no data scaling: {p_small} vs {p_big}");
    }

    #[test]
    fn fit_then_predict_correlates_with_truth_on_train() {
        let ds = small_dataset();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let model = Necs::train(&ds.registry, &ds.space, &refs, quick_config());
        let items: Vec<(TemplateKey, &SparkConf, &DataSpec, &[f64; 6])> =
            refs.iter().take(200).map(|i| (i.template, &i.conf, &i.data, &i.env)).collect();
        let preds = model.predict_stages(&ds.registry, &items);
        let truths: Vec<f64> = refs.iter().take(200).map(|i| i.y).collect();
        let rho = lite_metrics::ranking::spearman(&preds, &truths);
        assert!(rho > 0.7, "train-set rank correlation too low: {rho}");
    }

    #[test]
    fn predict_app_sums_stage_multiplicity() {
        let ds = small_dataset();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let model =
            Necs::train(&ds.registry, &ds.space, &refs, NecsConfig { epochs: 1, ..quick_config() });
        let cluster = &ds.clusters[0];
        let data = AppId::PageRank.dataset(SizeTier::Train(0));
        let ctx = PredictionContext::warm(&ds.registry, AppId::PageRank, &data, cluster).unwrap();
        let conf = ds.space.default_conf();
        let total = model.predict_app(&ds.registry, &ctx, &conf);
        // Manual re-aggregation.
        let items: Vec<(TemplateKey, &SparkConf, &DataSpec, &[f64; 6])> =
            ctx.stages.iter().map(|&t| (t, &conf, &ctx.data, &ctx.env)).collect();
        let manual: f64 = model.predict_stages(&ds.registry, &items).iter().sum();
        assert!((total - manual).abs() < 1e-6 * manual.max(1.0), "{total} vs {manual}");
    }

    #[test]
    fn predict_app_batch_matches_per_candidate_predictions() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ds = small_dataset();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let model =
            Necs::train(&ds.registry, &ds.space, &refs, NecsConfig { epochs: 2, ..quick_config() });
        let cluster = &ds.clusters[0];
        let data = AppId::PageRank.dataset(SizeTier::Valid);
        let ctx = PredictionContext::warm(&ds.registry, AppId::PageRank, &data, cluster).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let confs: Vec<SparkConf> = (0..30).map(|_| ds.space.sample(&mut rng)).collect();
        let batched = model.predict_app_batch(&ds.registry, &ctx, &confs);
        assert_eq!(batched.len(), confs.len());
        for (conf, b) in confs.iter().zip(batched.iter()) {
            let single = model.predict_app(&ds.registry, &ctx, conf);
            // The batched path must reproduce Eq. 5 scoring exactly; any
            // drift here means the server ranks differently than the paper.
            assert_eq!(b.to_bits(), single.to_bits(), "batched {b} != per-candidate {single}");
        }
        assert!(batched.iter().all(|p| p.is_finite() && *p >= 0.0));
        // Empty candidate list short-circuits.
        assert!(model.predict_app_batch(&ds.registry, &ctx, &[]).is_empty());
    }

    #[test]
    fn hoisted_context_columns_give_tabular_intos_bits() {
        let ds = small_dataset();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let norm = FeatNorm::fit(&ds.space, &refs);
        let model = Necs::new(&ds.registry, ds.space.clone(), norm, quick_config());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let confs: Vec<SparkConf> = (0..30).map(|_| ds.space.sample(&mut rng)).collect();
        // Two contexts, each with its run of candidates of two templates,
        // then the first context again: its columns are computed anew.
        let contexts = [
            (AppId::Sort.dataset(SizeTier::Valid), ClusterSpec::cluster_a().env_features()),
            (AppId::PageRank.dataset(SizeTier::Test), ClusterSpec::cluster_c().env_features()),
        ];
        let mut items: Vec<StageItem<'_>> = Vec::new();
        for (data, env) in contexts.iter().chain(&contexts[..1]) {
            for conf in &confs {
                items.extend([TemplateKey(0), TemplateKey(1)].map(|t| (t, conf, data, env)));
            }
        }
        let tab = model.tabular_rows(&items);
        assert_eq!(tab.rows(), 3 * confs.len());
        let mut want = [0.0f32; TABULAR_WIDTH];
        for (r, &(_, conf, data, env)) in items.iter().step_by(2).enumerate() {
            model.norm.tabular_into(&ds.space, conf, data, env, &mut want);
            assert_eq!(bits32_of(tab.row(r)), bits32_of(&want), "row {r}");
        }
    }

    fn bits32_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn deterministic_training() {
        let ds = small_dataset();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let cfg = NecsConfig { epochs: 2, ..quick_config() };
        let a = Necs::train(&ds.registry, &ds.space, &refs, cfg.clone());
        let b = Necs::train(&ds.registry, &ds.space, &refs, cfg);
        assert_eq!(a.loss_history, b.loss_history);
        // Not just the losses: every weight, and what the weights predict.
        assert_eq!(a.params().len(), b.params().len());
        for i in 0..a.params().len() {
            assert_eq!(bits32(a.params().value(ParamId(i))), bits32(b.params().value(ParamId(i))));
        }
        let apps = [AppId::PageRank];
        assert_eq!(app_scores(&a, &ds.registry, &apps), app_scores(&b, &ds.registry, &apps));
    }

    fn bits32(t: &Tensor) -> Vec<u32> {
        bits32_of(t.data())
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// 30 seeded candidates per app through `predict_app_batch`, as bits.
    fn app_scores(model: &Necs, registry: &TemplateRegistry, apps: &[AppId]) -> Vec<Vec<u64>> {
        use rand::rngs::StdRng;
        let cluster = ClusterSpec::cluster_a();
        let mut rng = StdRng::seed_from_u64(11);
        let confs: Vec<SparkConf> = (0..30).map(|_| model.space().sample(&mut rng)).collect();
        apps.iter()
            .map(|&app| {
                let data = app.dataset(SizeTier::Valid);
                let ctx = PredictionContext::warm(registry, app, &data, &cluster).unwrap();
                bits64(&model.predict_app_batch(registry, &ctx, &confs))
            })
            .collect()
    }

    fn one_epoch(ds: &crate::experiment::Dataset) -> Necs {
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        Necs::train(&ds.registry, &ds.space, &refs, NecsConfig { epochs: 1, ..quick_config() })
    }

    #[test]
    fn memoised_inference_matches_the_tape_within_rounding() {
        let ds = small_dataset();
        let model = one_epoch(&ds);
        let insts: Vec<&StageInstance> = ds.instances.iter().take(256).collect();
        assert!(insts.len() >= 200);
        let mut tape = Tape::new();
        let (pred, _) = model.forward_with_hidden(&mut tape, &ds.registry, &insts);
        let taped: Vec<f64> = (0..insts.len())
            .map(|r| model.norm.denorm_y(tape.value(pred).get(r, 0) as f64).max(0.0))
            .collect();
        let items: Vec<StageItem<'_>> =
            insts.iter().map(|i| (i.template, &i.conf, &i.data, &i.env)).collect();
        let cold = model.predict_stages(&ds.registry, &items);
        let warm = model.predict_stages(&ds.registry, &items);
        assert_eq!(bits64(&warm), bits64(&cold), "a warm memo must answer as a cold one does");
        // The split first layer re-associates each row's sum, nothing more.
        for (r, (got, want)) in cold.iter().zip(&taped).enumerate() {
            assert!((got - want).abs() <= 1e-5 * want.abs(), "row {r}: {got} vs the tape's {want}");
        }
    }

    #[test]
    fn candidate_rankings_match_the_tape() {
        use rand::rngs::StdRng;
        let ds = small_dataset();
        let model = one_epoch(&ds);
        let mut rng = StdRng::seed_from_u64(11);
        let confs: Vec<SparkConf> = (0..30).map(|_| ds.space.sample(&mut rng)).collect();
        let order = |scores: &[f64]| {
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
            order
        };
        for cluster in [ClusterSpec::cluster_a(), ClusterSpec::cluster_c()] {
            for app in [AppId::Sort, AppId::PageRank, AppId::KMeans] {
                let data = app.dataset(SizeTier::Valid);
                let ctx = PredictionContext::warm(&ds.registry, app, &data, &cluster).unwrap();
                let memoised = model.predict_app_batch(&ds.registry, &ctx, &confs);
                // The tape: one row per (candidate, unique template), each
                // denormalised and weighted by its multiplicity, summed in
                // key order.
                let mut stages = ctx.stages.clone();
                stages.sort_by_key(|t| t.0);
                let uniq: Vec<(TemplateKey, usize)> =
                    stages.chunk_by(|a, b| a == b).map(|run| (run[0], run.len())).collect();
                let templates: Vec<TemplateKey> =
                    confs.iter().flat_map(|_| uniq.iter().map(|&(t, _)| t)).collect();
                let mut tab = Tensor::zeros(templates.len(), TABULAR_WIDTH);
                let (space, norm) = (&model.space, &model.norm);
                let rows = confs.iter().flat_map(|c| uniq.iter().map(move |_| c));
                for (r, conf) in rows.enumerate() {
                    norm.tabular_into(space, conf, &ctx.data, &ctx.env, tab.row_mut(r));
                }
                let mut tape = Tape::new();
                let (pred, _) = model.forward_batch(&mut tape, &ds.registry, &templates, &tab);
                let taped: Vec<f64> = tape
                    .value(pred)
                    .data()
                    .chunks(uniq.len())
                    .map(|per_stage| {
                        let stage = |(&z, &(_, count)): (&f32, &(TemplateKey, usize))| {
                            model.norm.denorm_y(z as f64).max(0.0) * count as f64
                        };
                        per_stage.iter().zip(&uniq).map(stage).sum()
                    })
                    .collect();
                assert_eq!(order(&memoised), order(&taped), "{app:?} on {}", cluster.name);
            }
        }
    }

    #[test]
    fn whatever_changes_the_weights_empties_the_memo() {
        let ds = small_dataset();
        let apps = [AppId::Sort, AppId::PageRank, AppId::KMeans];
        type Mutation = fn(&mut Necs, &crate::experiment::Dataset);
        let mutations: [(&str, Mutation); 3] = [
            ("params_mut + one Adam step", |m, _| {
                let params = m.params_mut();
                for i in 0..params.len() {
                    params.grad_mut(ParamId(i)).data_mut().fill(1.0);
                }
                Adam::new(1e-2).step(params);
            }),
            ("fit", |m, ds| {
                let refs: Vec<&StageInstance> = ds.instances.iter().collect();
                m.fit(&ds.registry, &refs);
            }),
            ("one AMU epoch", |m, ds| {
                let refs: Vec<&StageInstance> = ds.instances.iter().collect();
                let amu = crate::amu::AmuConfig { epochs: 1, ..Default::default() };
                crate::amu::adaptive_model_update(m, &ds.registry, &refs, &refs[..40], &amu);
            }),
        ];
        let mut model = one_epoch(&ds);
        for (what, mutate) in mutations {
            let before = app_scores(&model, &ds.registry, &apps); // fills the memo
            assert_eq!(model.memo.lock().len(), ds.registry.len(), "{what}");
            mutate(&mut model, &ds);
            assert!(model.memo.lock().is_empty(), "{what} left encodings of the old weights");
            let after = app_scores(&model, &ds.registry, &apps);
            assert_eq!(after, app_scores(&model.clone(), &ds.registry, &apps), "{what}");
            assert_ne!(after, before, "{what} did not move the predictions");
        }
    }

    #[test]
    fn registries_sharing_a_template_key_do_not_share_an_encoding() {
        let ds = small_dataset();
        let model = one_epoch(&ds);
        let (mut reg_a, mut reg_b) = (ds.registry.clone(), ds.registry.clone());
        let cluster = ClusterSpec::cluster_a();
        let data = AppId::Terasort.dataset(SizeTier::Valid);
        let ctx_a = PredictionContext::cold(&mut reg_a, AppId::Terasort, &data, &cluster);
        let ctx_b = PredictionContext::cold(&mut reg_b, AppId::TriangleCount, &data, &cluster);
        // Different code in the same slot.
        let slot = TemplateKey(ds.registry.len());
        assert!(ctx_a.stages.contains(&slot) && ctx_b.stages.contains(&slot));
        assert_ne!(reg_a.get(slot).fingerprint, reg_b.get(slot).fingerprint);
        let conf = [ds.space.default_conf()];
        let fresh = model.clone();
        let want_a = bits64(&fresh.clone().predict_app_batch(&reg_a, &ctx_a, &conf));
        let want_b = bits64(&fresh.clone().predict_app_batch(&reg_b, &ctx_b, &conf));
        assert_ne!(want_a, want_b);
        for _ in 0..2 {
            assert_eq!(bits64(&model.predict_app_batch(&reg_a, &ctx_a, &conf)), want_a);
            assert_eq!(bits64(&model.predict_app_batch(&reg_b, &ctx_b, &conf)), want_b);
        }
    }

    #[test]
    fn threads_filling_one_memo_agree_with_a_single_thread() {
        let apps = AppId::all();
        let ds = DatasetBuilder {
            apps: apps.to_vec(),
            clusters: vec![ClusterSpec::cluster_a()],
            tiers: vec![SizeTier::Train(0)],
            confs_per_cell: 1,
            seed: 5,
        }
        .build();
        let model = one_epoch(&ds);
        let want = app_scores(&model.clone(), &ds.registry, &apps);
        // Released together onto an empty memo, each starting at another
        // app, so the same templates are looked up and filled at once.
        let barrier = std::sync::Barrier::new(4);
        let got: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let (model, ds, barrier) = (&model, &ds, &barrier);
                    s.spawn(move || {
                        let mut order = apps;
                        order.rotate_left(t * 4);
                        barrier.wait();
                        let mut scores = app_scores(model, &ds.registry, &order);
                        scores.rotate_right(t * 4);
                        scores
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for scores in got {
            assert_eq!(scores, want);
        }
    }

    #[test]
    fn memo_starts_over_at_its_cap_instead_of_growing() {
        let ds = small_dataset();
        let model = one_epoch(&ds);
        let stale: Arc<[f32]> = Arc::from(vec![0.0f32; 1]);
        for i in 0..MEMO_CAP {
            model.memo.lock().insert((TemplateKey(usize::MAX - i), 0, true), stale.clone());
        }
        let before = app_scores(&model.clone(), &ds.registry, &[AppId::Sort]);
        assert_eq!(app_scores(&model, &ds.registry, &[AppId::Sort]), before);
        assert!(model.memo.lock().len() < MEMO_CAP);
    }
}
