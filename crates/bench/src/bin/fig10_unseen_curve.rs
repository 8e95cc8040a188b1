//! Figure 10: ranking performance vs the fraction of never-seen
//! applications.
//!
//! For each `n`, NECS is trained on `15 − n` randomly chosen applications
//! and evaluated on the `n` held-out ones (cold-start contexts), averaged
//! over several runs. Paper shape: performance degrades smoothly, stays
//! above the best warm competitor up to x ≈ 0.4, and above the average
//! warm competitor up to x ≈ 0.7.

use lite_bench::table::{note, Table};
use lite_bench::{f4, gold_set, EvalSetting, GOLD_CANDIDATES, TRAIN_CONFS_PER_CELL};
use lite_core::experiment::{DatasetBuilder, PredictionContext};
use lite_core::features::StageInstance;
use lite_core::necs::{Necs, NecsConfig};
use lite_core::recommend::infeasible_score;
use lite_metrics::ranking::{hr_at_k, ndcg_at_k};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let cluster = ClusterSpec::cluster_c();
    let apps = AppId::all();
    let ns = [1usize, 3, 5, 7, 10, 14];
    let runs = 3;
    // Fewer epochs per model: this figure trains ns.len() x runs models.
    let epochs = 15;

    let widths = [8usize, 8, 9, 9];
    let table = Table::new(
        "Figure 10: ranking vs fraction of never-seen applications (cluster C validation)",
        &["x=n/15", "n", "HR@5", "NDCG@5"],
        &widths,
    );

    for &n in &ns {
        let mut hr_acc = 0.0;
        let mut ndcg_acc = 0.0;
        let mut counted = 0.0;
        for run in 0..runs {
            let mut pool: Vec<AppId> = apps.to_vec();
            let mut rng = StdRng::seed_from_u64(1300 + 31 * n as u64 + run);
            pool.shuffle(&mut rng);
            let (unseen, seen) = pool.split_at(n);

            let ds = DatasetBuilder {
                apps: seen.to_vec(),
                clusters: ClusterSpec::all_evaluation_clusters(),
                tiers: SizeTier::train_tiers().to_vec(),
                confs_per_cell: TRAIN_CONFS_PER_CELL,
                seed: 61 + run,
            }
            .build();
            let refs: Vec<&StageInstance> = ds.instances.iter().collect();
            let model = Necs::train(
                &ds.registry,
                &ds.space,
                &refs,
                NecsConfig { epochs, ..Default::default() },
            );

            for (ai, &app) in unseen.iter().enumerate() {
                let setting = EvalSetting {
                    group: "unseen",
                    app,
                    cluster: cluster.clone(),
                    data: app.dataset(SizeTier::Valid),
                };
                let gold =
                    gold_set(&ds.space, &setting, GOLD_CANDIDATES, 2200 + 101 * run + ai as u64);
                let mut reg = ds.registry.clone();
                let ctx = PredictionContext::cold(&mut reg, app, &setting.data, &cluster);
                let preds: Vec<f64> = gold
                    .confs
                    .iter()
                    .map(|c| {
                        infeasible_score(&cluster, c, setting.data.bytes)
                            .unwrap_or_else(|| model.predict_app(&reg, &ctx, c))
                    })
                    .collect();
                hr_acc += hr_at_k(&preds, &gold.times, 5);
                ndcg_acc += ndcg_at_k(&preds, &gold.times, 5);
                counted += 1.0;
            }
        }
        table.row(&[
            format!("{:.2}", n as f64 / 15.0),
            n.to_string(),
            f4(hr_acc / counted),
            f4(ndcg_acc / counted),
        ]);
        eprintln!("[fig10] n={n} done ({:.0}s)", t0.elapsed().as_secs_f64());
    }
    note(
        "\nReference lines from Table VII (cluster C): best warm competitor and average warm \
         competitor — compare the curve against those values.",
    );
    eprintln!("[fig10] total {:.0}s", t0.elapsed().as_secs_f64());
}
