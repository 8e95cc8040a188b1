//! Table XII: generalization across computing environments.
//!
//! NECS trained on different cluster subsets — A+B only, C only, or all
//! three — and evaluated on cluster C validation applications.
//! Paper shape: NECS_C beats NECS_AB (domain match matters), and training
//! on all clusters gives the best NDCG (environment variety transfers).

use lite_bench::table::{note, Table};
use lite_bench::{
    f4, gold_set, ranking_scores, EvalSetting, GOLD_CANDIDATES, NECS_EPOCHS, TRAIN_CONFS_PER_CELL,
};
use lite_core::baselines::AnyModel;
use lite_core::experiment::DatasetBuilder;
use lite_core::features::StageInstance;
use lite_core::necs::{Necs, NecsConfig};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let variants: [(&str, Vec<ClusterSpec>); 3] = [
        ("NECS_AB", vec![ClusterSpec::cluster_a(), ClusterSpec::cluster_b()]),
        ("NECS_C", vec![ClusterSpec::cluster_c()]),
        ("NECS_all", ClusterSpec::all_evaluation_clusters()),
    ];

    let widths = [10usize, 9, 9];
    let table = Table::new(
        "Table XII: NECS trained on different clusters, evaluated on cluster C validation",
        &["model", "HR@5", "NDCG@5"],
        &widths,
    );

    // Shared gold sets on cluster C validation.
    let eval_cluster = ClusterSpec::cluster_c();
    let settings: Vec<EvalSetting> = AppId::all()
        .into_iter()
        .map(|app| EvalSetting {
            group: "C-valid",
            app,
            cluster: eval_cluster.clone(),
            data: app.dataset(SizeTier::Valid),
        })
        .collect();

    for (name, clusters) in variants {
        let ds = DatasetBuilder {
            apps: AppId::all().to_vec(),
            clusters,
            tiers: SizeTier::train_tiers().to_vec(),
            confs_per_cell: TRAIN_CONFS_PER_CELL,
            seed: 71,
        }
        .build();
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let model = AnyModel::Necs(Necs::train(
            &ds.registry,
            &ds.space,
            &refs,
            NecsConfig { epochs: NECS_EPOCHS, ..Default::default() },
        ));
        let golds: Vec<_> = settings
            .iter()
            .enumerate()
            .map(|(i, s)| gold_set(&ds.space, s, GOLD_CANDIDATES, 3100 + i as u64))
            .collect();
        let mut hr = 0.0;
        let mut ndcg = 0.0;
        let mut counted = 0.0;
        for (setting, gold) in settings.iter().zip(golds.iter()) {
            if let Some((h, n)) = ranking_scores(&model, &ds, setting, gold) {
                hr += h;
                ndcg += n;
                counted += 1.0;
            }
        }
        table.row(&[name.to_string(), f4(hr / counted), f4(ndcg / counted)]);
        eprintln!("[table12] {name} done ({:.0}s)", t0.elapsed().as_secs_f64());
    }
    note(
        "\nPaper shape: NECS_C > NECS_AB (environment mismatch hurts); NECS_all achieves the best NDCG.",
    );
    eprintln!("[table12] total {:.0}s", t0.elapsed().as_secs_f64());
}
