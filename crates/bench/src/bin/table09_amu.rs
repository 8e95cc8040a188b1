//! Table IX: ranking performance of NECS with vs without Adaptive Model
//! Update, per cluster, with a Wilcoxon signed-rank test on the increase.
//!
//! Protocol (paper Section V-F): train NECS per cluster on its training
//! instances; split the cluster's validation applications into two folds;
//! fine-tune on the feedback of one fold via AMU; evaluate ranking on the
//! other fold; four runs with different fold splits.

use lite_bench::table::{note, Table};
use lite_bench::{f4, gold_set, EvalSetting, GOLD_CANDIDATES, NECS_EPOCHS, TRAIN_CONFS_PER_CELL};
use lite_core::amu::{adaptive_model_update, AmuConfig};
use lite_core::experiment::{extract_stage_instances, Dataset, DatasetBuilder};
use lite_core::features::StageInstance;
use lite_core::necs::{Necs, NecsConfig};
use lite_core::recommend::infeasible_score;
use lite_metrics::stats::wilcoxon_signed_rank;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::exec::simulate;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::SizeTier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let clusters = ClusterSpec::all_evaluation_clusters();
    let widths = [10usize, 9, 9, 9, 9, 9, 9];
    let table = Table::new(
        "Table IX: HR@5 / NDCG@5 for NECS vs NECS_u (Adaptive Model Update)",
        &["cluster", "HR", "HR_u", "p(HR)", "NDCG", "NDCG_u", "p(NDCG)"],
        &widths,
    );

    for cluster in &clusters {
        // Per-cluster training set (all apps, small tiers, this cluster).
        let ds: Dataset = DatasetBuilder {
            apps: AppId::all().to_vec(),
            clusters: vec![cluster.clone()],
            tiers: SizeTier::train_tiers().to_vec(),
            confs_per_cell: TRAIN_CONFS_PER_CELL,
            seed: 21,
        }
        .build();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let base = Necs::train(
            &ds.registry,
            &ds.space,
            &refs,
            NecsConfig { epochs: NECS_EPOCHS, ..Default::default() },
        );
        eprintln!(
            "[table09] {} base NECS ready ({:.0}s)",
            cluster.name,
            t0.elapsed().as_secs_f64()
        );

        let mut hr_pairs: Vec<(f64, f64)> = Vec::new();
        let mut ndcg_pairs: Vec<(f64, f64)> = Vec::new();
        for run in 0..4 {
            // Split validation apps into two folds.
            let mut apps: Vec<AppId> = AppId::all().to_vec();
            let mut rng = StdRng::seed_from_u64(500 + run);
            apps.shuffle(&mut rng);
            let (feedback_apps, eval_apps) = apps.split_at(5);

            // Collect feedback: recommended-ish runs of the feedback fold
            // on validation data (the "newly collected feedback" DT).
            let mut target: Vec<StageInstance> = Vec::new();
            for (k, &app) in feedback_apps.iter().enumerate() {
                let data = app.dataset(SizeTier::Valid);
                for j in 0..4 {
                    let conf = ds.space.sample(&mut rng);
                    let result =
                        simulate(cluster, &conf, &build_job(app, &data), 910 + 17 * k as u64 + j);
                    extract_stage_instances(
                        &ds.registry,
                        app,
                        &conf,
                        &data,
                        cluster,
                        &result,
                        usize::MAX - (k * 8 + j as usize),
                        &mut target,
                    );
                }
            }
            let tgt_refs: Vec<&StageInstance> = target.iter().collect();

            // Fine-tune a copy via AMU.
            let mut updated = base.clone();
            adaptive_model_update(
                &mut updated,
                &ds.registry,
                &refs,
                &tgt_refs,
                &AmuConfig { epochs: 4, ..Default::default() },
            );

            // Evaluate both on the held-out fold's validation instances.
            for &app in eval_apps {
                let setting = EvalSetting {
                    group: "valid",
                    app,
                    cluster: cluster.clone(),
                    data: app.dataset(SizeTier::Valid),
                };
                let gold = gold_set(
                    &ds.space,
                    &setting,
                    GOLD_CANDIDATES,
                    600 + run * 37 + app.index() as u64,
                );
                let score = |m: &Necs| {
                    let model = AnyModelRef(m);
                    model.scores(&ds, &setting, &gold)
                };
                if let (Some((h0, n0)), Some((h1, n1))) = (score(&base), score(&updated)) {
                    hr_pairs.push((h0, h1));
                    ndcg_pairs.push((n0, n1));
                }
            }
            eprintln!(
                "[table09] {} run {} done ({:.0}s)",
                cluster.name,
                run,
                t0.elapsed().as_secs_f64()
            );
        }

        let mean = |v: &[(f64, f64)], i: usize| -> f64 {
            v.iter().map(|p| if i == 0 { p.0 } else { p.1 }).sum::<f64>() / v.len() as f64
        };
        let p_hr = wilcoxon_signed_rank(
            &hr_pairs.iter().map(|p| p.0).collect::<Vec<_>>(),
            &hr_pairs.iter().map(|p| p.1).collect::<Vec<_>>(),
        );
        let p_ndcg = wilcoxon_signed_rank(
            &ndcg_pairs.iter().map(|p| p.0).collect::<Vec<_>>(),
            &ndcg_pairs.iter().map(|p| p.1).collect::<Vec<_>>(),
        );
        table.row(&[
            cluster.name.clone(),
            f4(mean(&hr_pairs, 0)),
            f4(mean(&hr_pairs, 1)),
            format!("{:.4}", p_hr.p_value),
            f4(mean(&ndcg_pairs, 0)),
            f4(mean(&ndcg_pairs, 1)),
            format!("{:.4}", p_ndcg.p_value),
        ]);
    }
    note("\nPaper shape: NECS_u >= NECS on every cluster with p < 0.05.");
    eprintln!("[table09] total {:.0}s", t0.elapsed().as_secs_f64());
}

/// Minimal scoring shim over a borrowed NECS (avoids cloning into
/// `AnyModel`).
struct AnyModelRef<'a>(&'a Necs);

impl AnyModelRef<'_> {
    fn scores(
        &self,
        ds: &Dataset,
        setting: &EvalSetting,
        gold: &lite_bench::GoldSet,
    ) -> Option<(f64, f64)> {
        let ctx = lite_core::experiment::PredictionContext::warm(
            &ds.registry,
            setting.app,
            &setting.data,
            &setting.cluster,
        )?;
        let preds: Vec<f64> = gold
            .confs
            .iter()
            .map(|c| {
                infeasible_score(&setting.cluster, c, setting.data.bytes)
                    .unwrap_or_else(|| self.0.predict_app(&ds.registry, &ctx, c))
            })
            .collect();
        Some((
            lite_metrics::ranking::hr_at_k(&preds, &gold.times, 5),
            lite_metrics::ranking::ndcg_at_k(&preds, &gold.times, 5),
        ))
    }
}
