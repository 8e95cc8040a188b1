//! Table XI: ranking accuracy under warm-start vs cold-start, NECS vs
//! SCG+LightGBM, plus the oov-token ablation (Cold-UNK).
//!
//! Paper shape: the feature baseline (SCG+LightGBM) degrades sharply on
//! cold-start applications; NECS stays close to its warm-start accuracy
//! thanks to the instrumented code/DAG encoders; removing the oov node
//! token hurts cold-start robustness.

use lite_bench::table::{note, Table};
use lite_bench::{f4, gold_set, EvalSetting, GOLD_CANDIDATES, NECS_EPOCHS, TRAIN_CONFS_PER_CELL};
use lite_core::baselines::{EstimatorKind, FeatureSet, TabularModel};
use lite_core::experiment::{Dataset, DatasetBuilder, PredictionContext};
use lite_core::features::{StageInstance, TemplateRegistry};
use lite_core::necs::{Necs, NecsConfig};
use lite_core::recommend::infeasible_score;
use lite_metrics::ranking::{hr_at_k, ndcg_at_k};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use std::time::Instant;

/// Score a NECS model on a setting whose templates may need cold interning.
fn necs_scores(
    model: &Necs,
    registry: &mut TemplateRegistry,
    setting: &EvalSetting,
    gold: &lite_bench::GoldSet,
) -> (f64, f64) {
    let ctx = PredictionContext::cold(registry, setting.app, &setting.data, &setting.cluster);
    let preds: Vec<f64> = gold
        .confs
        .iter()
        .map(|c| {
            infeasible_score(&setting.cluster, c, setting.data.bytes)
                .unwrap_or_else(|| model.predict_app(registry, &ctx, c))
        })
        .collect();
    (hr_at_k(&preds, &gold.times, 5), ndcg_at_k(&preds, &gold.times, 5))
}

fn main() {
    let t0 = Instant::now();
    let cluster = ClusterSpec::cluster_c();
    let apps = AppId::all();

    // ---- Warm-start reference: models trained on everything.
    let full: Dataset = DatasetBuilder::paper_training(TRAIN_CONFS_PER_CELL, 51).build();
    let full_refs: Vec<&StageInstance> = full.instances.iter().collect();
    let warm_necs = Necs::train(
        &full.registry,
        &full.space,
        &full_refs,
        NecsConfig { epochs: NECS_EPOCHS, ..Default::default() },
    );
    let warm_gbdt = TabularModel::fit(&full, EstimatorKind::Gbdt, FeatureSet::Scg, 51);
    eprintln!("[table11] warm models ready ({:.0}s)", t0.elapsed().as_secs_f64());

    let mut acc = [[0.0f64; 2]; 5]; // [model][hr,ndcg]
    let labels = ["NECS warm", "NECS cold", "NECS cold-UNK", "SCG+LGBM warm", "SCG+LGBM cold"];
    let mut counted = 0.0;

    for (ai, &app) in apps.iter().enumerate() {
        let setting = EvalSetting {
            group: "cold",
            app,
            cluster: cluster.clone(),
            data: app.dataset(SizeTier::Valid),
        };
        let gold = gold_set(&full.space, &setting, GOLD_CANDIDATES, 9400 + ai as u64);

        // Warm scores (both models trained once, before the loop).
        let warm_ctx = PredictionContext::warm(&full.registry, app, &setting.data, &cluster)
            .expect("all apps are warm in the full dataset");
        let warm_preds = |predict: &dyn Fn(&lite_sparksim::conf::SparkConf) -> f64| -> (f64, f64) {
            let preds: Vec<f64> = gold
                .confs
                .iter()
                .map(|c| {
                    infeasible_score(&cluster, c, setting.data.bytes).unwrap_or_else(|| predict(c))
                })
                .collect();
            (hr_at_k(&preds, &gold.times, 5), ndcg_at_k(&preds, &gold.times, 5))
        };
        let (h, n) = warm_preds(&|c| warm_necs.predict_app(&full.registry, &warm_ctx, c));
        acc[0][0] += h;
        acc[0][1] += n;
        let (h, n) = warm_preds(&|c| warm_gbdt.predict_app(&full.registry, &warm_ctx, c));
        acc[3][0] += h;
        acc[3][1] += n;

        // Cold models: trained without this app.
        let train_apps: Vec<AppId> = apps.iter().copied().filter(|a| *a != app).collect();
        let cold_ds = DatasetBuilder {
            apps: train_apps,
            clusters: ClusterSpec::all_evaluation_clusters(),
            tiers: SizeTier::train_tiers().to_vec(),
            confs_per_cell: TRAIN_CONFS_PER_CELL,
            seed: 53,
        }
        .build();
        let cold_refs: Vec<&StageInstance> = cold_ds.instances.iter().collect();
        let cold_necs = Necs::train(
            &cold_ds.registry,
            &cold_ds.space,
            &cold_refs,
            NecsConfig { epochs: NECS_EPOCHS, ..Default::default() },
        );
        let mut reg = cold_ds.registry.clone();
        let (h, n) = necs_scores(&cold_necs, &mut reg, &setting, &gold);
        acc[1][0] += h;
        acc[1][1] += n;

        // Cold-UNK ablation: same weights, oov node disabled.
        let mut no_oov = cold_necs.clone();
        no_oov.config.use_oov_node = false;
        let mut reg2 = cold_ds.registry.clone();
        let (h, n) = necs_scores(&no_oov, &mut reg2, &setting, &gold);
        acc[2][0] += h;
        acc[2][1] += n;

        // Cold SCG+LightGBM: intern templates, then predict.
        let cold_gbdt = TabularModel::fit(&cold_ds, EstimatorKind::Gbdt, FeatureSet::Scg, 53);
        let mut reg3 = cold_ds.registry.clone();
        let ctx = PredictionContext::cold(&mut reg3, app, &setting.data, &cluster);
        let preds: Vec<f64> = gold
            .confs
            .iter()
            .map(|c| {
                infeasible_score(&cluster, c, setting.data.bytes)
                    .unwrap_or_else(|| cold_gbdt.predict_app(&reg3, &ctx, c))
            })
            .collect();
        acc[4][0] += hr_at_k(&preds, &gold.times, 5);
        acc[4][1] += ndcg_at_k(&preds, &gold.times, 5);

        counted += 1.0;
        eprintln!("[table11] {} done ({:.0}s)", app.abbrev(), t0.elapsed().as_secs_f64());
    }

    let widths = [16usize, 9, 9];
    let table = Table::new(
        "Table XI: average ranking under warm vs cold start (cluster C validation)",
        &["model", "HR@5", "NDCG@5"],
        &widths,
    );
    for (i, label) in labels.iter().enumerate() {
        table.row(&[label.to_string(), f4(acc[i][0] / counted), f4(acc[i][1] / counted)]);
    }
    note(
        "\nPaper shape: SCG+LightGBM drops sharply warm->cold; NECS stays close to warm accuracy; \
         removing the oov token (Cold-UNK) degrades cold-start ranking.",
    );
    eprintln!("[table11] total {:.0}s", t0.elapsed().as_secs_f64());
}
