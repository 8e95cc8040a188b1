//! Table X: cold-start tuning — ETR per never-seen application.
//!
//! Leave-one-app-out: for each application, LITE is trained without any of
//! its runs (and with vocabularies built from the other fourteen apps
//! only), then asked to tune it on large test data in cluster C. The
//! cold-start path instruments the app on its smallest dataset first.
//! Paper shape: ETR > 0.9 for most apps, average ≈ 0.95.

use lite_bench::table::{note, Table};
use lite_bench::tuning::execute;
use lite_bench::{NECS_EPOCHS, TRAIN_CONFS_PER_CELL};
use lite_core::experiment::DatasetBuilder;
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_metrics::ranking::etr;
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let cluster = ClusterSpec::cluster_c();
    let widths = [6usize, 12, 12, 8];
    let table = Table::new(
        "Table X: cold-start ETR per never-seen application (large data, cluster C)",
        &["app", "default t(s)", "LITE t(s)", "ETR"],
        &widths,
    );

    let apps = AppId::all();

    let mut etrs = Vec::new();
    for (ai, &held) in apps.iter().enumerate() {
        // Train on the other fourteen apps only — vocabulary, templates,
        // NECS and ACG all exclude the held-out app.
        let train_apps: Vec<AppId> = apps.iter().copied().filter(|a| *a != held).collect();
        let ds = DatasetBuilder {
            apps: train_apps,
            clusters: ClusterSpec::all_evaluation_clusters(),
            tiers: SizeTier::train_tiers().to_vec(),
            confs_per_cell: TRAIN_CONFS_PER_CELL,
            seed: 31,
        }
        .build();
        let mut lite = LiteTuner::from_dataset(
            &ds,
            NecsConfig { epochs: NECS_EPOCHS, ..Default::default() },
            31,
        );

        let data = held.dataset(SizeTier::Test);
        let seed = 7400 + ai as u64;
        let ranked = lite.recommend_cold(held, &data, &cluster, seed);
        let t_lite = execute(&cluster, held, &data, &ranked[0].conf, seed ^ 0x3);
        let t_default = execute(&cluster, held, &data, &ds.space.default_conf(), seed ^ 0x4);
        let e = etr(t_default, t_lite);
        etrs.push(e);
        table.row(&[
            held.abbrev().to_string(),
            format!("{t_default:.0}"),
            format!("{t_lite:.0}"),
            format!("{e:.2}"),
        ]);
        eprintln!("[table10] {} done ({:.0}s)", held.abbrev(), t0.elapsed().as_secs_f64());
    }
    let avg = etrs.iter().sum::<f64>() / etrs.len() as f64;
    let above = etrs.iter().filter(|&&e| e > 0.7).count();
    note(&format!(
        "\nAverage cold-start ETR = {avg:.2}; {above}/{} apps above 0.7 (paper: avg 0.95, 11/15 above 0.95 — \
         note their warm-start best competitor reached only 0.69).",
        etrs.len()
    ));
    eprintln!("[table10] total {:.0}s", t0.elapsed().as_secs_f64());
}
