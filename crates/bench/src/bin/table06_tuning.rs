//! Table VI + Figure 7: end-to-end tuning performance on large test data
//! (cluster C) for Default / Manual / MLP / BO(2h) / DDPG(2h) /
//! DDPG-C(2h) / LITE.
//!
//! Paper shape to reproduce: LITE attains the least (or near-least)
//! execution time on almost every application with a decision latency of
//! seconds, while the 2-hour trial-based tuners spend orders of magnitude
//! more tuning overhead and still lose on several applications.

use lite_bench::table::{note, Table};
use lite_bench::tuning::{
    app_code_features, tune_bo, tune_by_model_ranking, tune_ddpg, tune_fixed, tune_lite,
    TuneOutcome,
};
use lite_bench::{manual_conf, secs, training_dataset, GOLD_CANDIDATES, NECS_EPOCHS};
use lite_core::baselines::{EstimatorKind, FeatureSet, TabularModel};
use lite_core::experiment::PredictionContext;
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_metrics::ranking::etr;
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();

    let ds = training_dataset(1);
    eprintln!("[table06] dataset built ({:.0}s)", t0.elapsed().as_secs_f64());

    let lite =
        LiteTuner::from_dataset(&ds, NecsConfig { epochs: NECS_EPOCHS, ..Default::default() }, 1);
    eprintln!("[table06] LITE trained ({:.0}s)", t0.elapsed().as_secs_f64());
    let mlp_model = TabularModel::fit(&ds, EstimatorKind::Mlp, FeatureSet::S, 3);
    eprintln!("[table06] MLP baseline trained ({:.0}s)", t0.elapsed().as_secs_f64());

    let cluster = ClusterSpec::cluster_c();
    let methods = ["Default", "Manual", "MLP", "BO(2h)", "DDPG(2h)", "DDPG-C(2h)", "LITE"];
    let mut times: Vec<Vec<f64>> = Vec::new(); // [app][method]
    let mut lite_latency = Vec::new();

    let apps = AppId::all();
    for (ai, &app) in apps.iter().enumerate() {
        let data = app.dataset(SizeTier::Test);
        let seed = 1000 + ai as u64;
        let ctx = PredictionContext::warm(&ds.registry, app, &data, &cluster)
            .expect("all apps are warm in Table VI");

        let default = tune_fixed(&cluster, app, &data, &ds.space.default_conf(), seed);
        let manual = tune_fixed(&cluster, app, &data, &manual_conf(&ds.space, &cluster), seed);
        let mlp = tune_by_model_ranking(
            |c| mlp_model.predict_app(&ds.registry, &ctx, c),
            &ds.space,
            &cluster,
            app,
            &data,
            GOLD_CANDIDATES,
            seed,
        );
        let bo = tune_bo(&ds, &cluster, app, &data, seed);
        let ddpg = tune_ddpg(&ds.space, &cluster, app, &data, &[], seed);
        let code = app_code_features(&ds, app, &data);
        let ddpg_c = tune_ddpg(&ds.space, &cluster, app, &data, &code, seed);
        let lite_out: TuneOutcome = tune_lite(&lite, &cluster, app, &data, seed);
        lite_latency.push(lite_out.decide_wall_s);

        times.push(vec![
            default.time_s,
            manual.time_s,
            mlp.time_s,
            bo.time_s,
            ddpg.time_s,
            ddpg_c.time_s,
            lite_out.time_s,
        ]);
        eprintln!("[table06] {} done ({:.0}s elapsed)", app.abbrev(), t0.elapsed().as_secs_f64());
    }

    // ---- Table VI: execution times ----
    let widths = [6usize, 9, 9, 9, 9, 9, 11, 9];
    let mut header = vec!["app"];
    header.extend(methods);
    let t6 = Table::new(
        "Table VI: execution time t (s) of the tuned configuration, large jobs on cluster C",
        &header,
        &widths,
    );
    for (ai, app) in apps.iter().enumerate() {
        let mut row = vec![app.abbrev().to_string()];
        row.extend(times[ai].iter().map(|t| secs(*t)));
        t6.row(&row);
    }
    // Averages + ETR (Eq. 9 vs default).
    let mut avg_row = vec!["avg".to_string()];
    let mut etr_row = vec!["ETR".to_string()];
    for m in 0..methods.len() {
        let avg: f64 = times.iter().map(|r| r[m]).sum::<f64>() / apps.len() as f64;
        avg_row.push(secs(avg));
        let mean_etr: f64 = times.iter().map(|r| etr(r[0], r[m])).sum::<f64>() / apps.len() as f64;
        etr_row.push(format!("{mean_etr:.2}"));
    }
    t6.row(&avg_row);
    t6.row(&etr_row);

    // ---- Figure 7: per-app normalized ETR ----
    // Figure 7 normalizes so the per-app best method scores 1:
    // ETR' = (t_default - t) / (t_default - t_min).
    let widths7 = [6usize, 8, 8, 8, 8, 8, 10, 8];
    let t7 = Table::new(
        "Figure 7: per-application ETR (1.0 = least execution time among all methods)",
        &header,
        &widths7,
    );
    let mut lite_wins = 0;
    let mut lite_top2 = 0;
    for (ai, app) in apps.iter().enumerate() {
        let t_def = times[ai][0];
        let t_min = times[ai].iter().cloned().fold(f64::INFINITY, f64::min);
        let denom = (t_def - t_min).max(1e-9);
        let mut row = vec![app.abbrev().to_string()];
        for &t in &times[ai] {
            row.push(format!("{:.2}", ((t_def - t) / denom).max(-9.99)));
        }
        let lite_t = times[ai][6];
        if (lite_t - t_min).abs() < 1e-9 {
            lite_wins += 1;
            lite_top2 += 1;
        } else {
            let better = times[ai][..6].iter().filter(|&&t| t < lite_t).count();
            if better <= 1 {
                lite_top2 += 1;
            }
        }
        t7.row(&row);
    }
    lite_latency.sort_by(f64::total_cmp);
    let latency_us = |q: usize| lite_latency[q] * 1e6;
    let (p50_us, max_us) = (latency_us(lite_latency.len() / 2), latency_us(lite_latency.len() - 1));
    note(&format!(
        "\nLITE achieved the least execution time on {lite_wins}/15 applications and was in the top two on {lite_top2}/15 (paper: 13/15 and 15/15)."
    ));
    note(&format!(
        "LITE decision latency: p50 {p50_us:.0} us, max {max_us:.0} us over {} applications (paper: < 2 s); trial-based tuners consumed the full {}s budget.",
        lite_latency.len(),
        lite_bench::tuning::TUNING_BUDGET_S
    ));
    eprintln!("[table06] total {:.0}s", t0.elapsed().as_secs_f64());
}
