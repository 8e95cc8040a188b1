//! Adaptive Model Update (paper Section IV-B).
//!
//! Fine-tunes NECS on newly collected production feedback (`DT`, the
//! target domain) while keeping the small-data training set (`DS`, the
//! source domain). A discriminator tries to tell source from target given
//! the MLP's concatenated hidden states `h_i = f¹(x)‖…‖f^L`; a
//! gradient-reversal layer between `h_i` and the discriminator turns the
//! minimax of Eq. 8 into a single backward pass: the discriminator
//! *minimizes* its binary cross-entropy while the encoder receives the
//! *negated* gradient and learns domain-invariant representations. The
//! prediction (MSE) loss runs on both domains.

use crate::features::StageInstance;
use crate::features::TemplateRegistry;
use crate::necs::Necs;
use lite_nn::init::rng;
use lite_nn::layers::Dense;
use lite_nn::optim::{clip_grad_norm, Adam};
use lite_nn::tape::Tape;
use lite_nn::tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Adam learning rate for the fine-tune.
const LR: f32 = 5e-4;
/// Gradient-reversal strength λ of Eq. 8 (how hard the encoder fights the
/// discriminator).
const LAMBDA: f32 = 0.3;
/// Discriminator hidden width.
const DISC_HIDDEN: usize = 32;
/// Discriminator init and shuffle seed.
const SEED: u64 = 7;

/// AMU knobs.
#[derive(Debug, Clone)]
pub struct AmuConfig {
    /// Fine-tuning epochs over the mixed batches.
    pub epochs: usize,
    /// Instances drawn from each domain per batch.
    pub half_batch: usize,
}

impl Default for AmuConfig {
    fn default() -> Self {
        AmuConfig { epochs: 6, half_batch: 256 }
    }
}

/// Per-epoch diagnostics of one update.
#[derive(Debug, Clone, Copy)]
pub struct AmuEpoch {
    /// Mean prediction loss over the epoch's batches.
    pub prediction_loss: f32,
    /// Mean discriminator loss.
    pub discriminator_loss: f32,
}

/// Run Adaptive Model Update: fine-tune `model` in place on
/// `source ∪ target` with the adversarial domain objective.
pub fn adaptive_model_update(
    model: &mut Necs,
    registry: &TemplateRegistry,
    source: &[&StageInstance],
    target: &[&StageInstance],
    config: &AmuConfig,
) -> Vec<AmuEpoch> {
    assert!(!source.is_empty(), "AMU needs source instances");
    assert!(!target.is_empty(), "AMU needs target feedback");

    // Discriminator: h -> hidden -> 1 logit. Its parameters extend the
    // model's store so one optimizer steps everything; the GRL sign split
    // realizes the minimax. They are dropped again before returning: the
    // served model must not carry one dead discriminator per update.
    let mut r = rng(SEED);
    let hidden_w = model.hidden_width();
    let model_params = model.params().len();
    let (d1, d2) = {
        let params = model.params_mut();
        (
            Dense::new(params, "amu.disc1", hidden_w, DISC_HIDDEN, &mut r),
            Dense::new(params, "amu.disc2", DISC_HIDDEN, 1, &mut r),
        )
    };

    let mut opt = Adam::new(LR);
    let mut shuffle = rand::rngs::StdRng::seed_from_u64(SEED ^ 0xa3);
    let mut src_idx: Vec<usize> = (0..source.len()).collect();
    let mut tgt_idx: Vec<usize> = (0..target.len()).collect();
    let mut history = Vec::with_capacity(config.epochs);

    for _ in 0..config.epochs {
        src_idx.shuffle(&mut shuffle);
        tgt_idx.shuffle(&mut shuffle);
        let batches = (source.len().div_ceil(config.half_batch)).max(1);
        let mut lp_sum = 0.0f32;
        let mut ld_sum = 0.0f32;
        for b in 0..batches {
            // Equal halves: all of DT is small, so it resamples each batch.
            let src_half: Vec<&StageInstance> = src_idx
                .iter()
                .cycle()
                .skip(b * config.half_batch)
                .take(config.half_batch)
                .map(|&i| source[i])
                .collect();
            let tgt_half: Vec<&StageInstance> = tgt_idx
                .iter()
                .cycle()
                .skip((b * config.half_batch) % target.len())
                .take(config.half_batch.min(target.len()))
                .map(|&i| target[i])
                .collect();
            let mut batch: Vec<&StageInstance> = src_half;
            let n_src = batch.len();
            batch.extend(tgt_half);
            let n_all = batch.len();

            let mut targets = Tensor::zeros(n_all, 1);
            let mut labels = Tensor::zeros(n_all, 1);
            for (i, inst) in batch.iter().enumerate() {
                targets.set(i, 0, model.norm_target(inst));
                labels.set(i, 0, if i < n_src { 1.0 } else { 0.0 });
            }

            let mut tape = Tape::new();
            let (pred, hidden) = model.forward_with_hidden(&mut tape, registry, &batch);
            let lp = tape.mse_loss(pred, &targets);
            let rev = tape.grad_reverse(hidden, LAMBDA);
            let h1 = d1.forward(&mut tape, model.params(), rev);
            let h1 = tape.relu(h1);
            let logits = d2.forward(&mut tape, model.params(), h1);
            let ld = tape.bce_logits_loss(logits, &labels);
            let loss = tape.add(lp, ld);

            lp_sum += tape.value(lp).get(0, 0);
            ld_sum += tape.value(ld).get(0, 0);
            tape.backward(loss, model.params_mut());
            drop(tape); // it shares the weights Adam is about to step
            clip_grad_norm(model.params_mut(), 5.0);
            opt.step(model.params_mut());
        }
        history.push(AmuEpoch {
            prediction_loss: lp_sum / batches as f32,
            discriminator_loss: ld_sum / batches as f32,
        });
    }
    model.params_mut().truncate(model_params);
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{extract_stage_instances, DatasetBuilder};
    use crate::necs::NecsConfig;
    use lite_sparksim::cluster::ClusterSpec;
    use lite_sparksim::exec::simulate;
    use lite_workloads::apps::{build_job, AppId};
    use lite_workloads::data::SizeTier;

    #[test]
    fn amu_improves_target_domain_fit() {
        // Source: small Sort + PageRank runs on cluster A. Target: larger
        // validation-size runs on cluster C (different datasize AND
        // environment — the paper's domain gap).
        let ds = DatasetBuilder {
            apps: vec![AppId::Sort, AppId::PageRank],
            clusters: vec![ClusterSpec::cluster_a()],
            tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
            confs_per_cell: 4,
            seed: 11,
        }
        .build();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let mut model = Necs::train(
            &ds.registry,
            &ds.space,
            &refs,
            NecsConfig { epochs: 5, batch_size: 256, ..Default::default() },
        );

        // Build target feedback on cluster C with mid-size data.
        let cluster_c = ClusterSpec::cluster_c();
        let mut target = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for app in [AppId::Sort, AppId::PageRank] {
            let data = app.dataset(SizeTier::Valid);
            for k in 0..6 {
                let conf = ds.space.sample(&mut rng);
                let result = simulate(&cluster_c, &conf, &build_job(app, &data), 900 + k);
                extract_stage_instances(
                    &ds.registry,
                    app,
                    &conf,
                    &data,
                    &cluster_c,
                    &result,
                    usize::MAX - 1,
                    &mut target,
                );
            }
        }
        assert!(!target.is_empty());
        // Hold out some target instances for evaluation.
        let (fit_t, eval_t) = target.split_at(target.len() / 2);
        let fit_refs: Vec<&StageInstance> = fit_t.iter().collect();

        let mse_on = |m: &Necs, insts: &[StageInstance]| -> f64 {
            let items: Vec<_> =
                insts.iter().map(|i| (i.template, &i.conf, &i.data, &i.env)).collect();
            let preds = m.predict_stages(&ds.registry, &items);
            insts
                .iter()
                .zip(preds.iter())
                .map(|(i, p)| ((1.0 + i.y).ln() - (1.0 + p).ln()).powi(2))
                .sum::<f64>()
                / insts.len() as f64
        };
        let before = mse_on(&model, eval_t);
        let tensors = model.params().len();
        let hist = adaptive_model_update(
            &mut model,
            &ds.registry,
            &refs,
            &fit_refs,
            &AmuConfig { epochs: 4, ..Default::default() },
        );
        let after = mse_on(&model, eval_t);
        assert_eq!(hist.len(), 4);
        assert!(after < before * 1.05, "AMU degraded target fit: {before} -> {after}");
        assert_eq!(model.params().len(), tensors, "the discriminator must not outlive the update");
    }

    #[test]
    #[should_panic(expected = "target feedback")]
    fn amu_requires_target_instances() {
        let ds = DatasetBuilder {
            apps: vec![AppId::Sort],
            clusters: vec![ClusterSpec::cluster_a()],
            tiers: vec![SizeTier::Train(0)],
            confs_per_cell: 1,
            seed: 1,
        }
        .build();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let mut model = Necs::train(
            &ds.registry,
            &ds.space,
            &refs,
            NecsConfig { epochs: 1, batch_size: 64, ..Default::default() },
        );
        adaptive_model_update(&mut model, &ds.registry, &refs, &[], &AmuConfig::default());
    }
}
