//! Table VIII: evaluating Adaptive Candidate Generation.
//!
//! (a) ACG vs the plain RFR point prediction: average execution time and
//!     ETR of the executed recommendation on large test jobs, cluster C
//!     (the regime where a single risky point hurts most).
//!     Paper shape: the σ-box + estimator ranking beats the RFR point.
//! (b) ACG vs random / Latin-hypercube / grid sampling of the same
//!     candidate count, ranked by the same NECS model: HR@5 / NDCG@5
//!     against the per-setting gold list. Paper shape: ACG's region makes
//!     good candidates likelier.

use lite_bench::table::{note, Table};
use lite_bench::tuning::execute;
use lite_bench::{f4, secs, training_dataset, GOLD_CANDIDATES, NECS_EPOCHS};
use lite_core::experiment::{gold_times, PredictionContext};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_metrics::ranking::{etr, hr_at_k, ndcg_at_k};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::SparkConf;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let ds = training_dataset(1);
    let lite =
        LiteTuner::from_dataset(&ds, NecsConfig { epochs: NECS_EPOCHS, ..Default::default() }, 1);
    eprintln!("[table08] LITE ready ({:.0}s)", t0.elapsed().as_secs_f64());
    let cluster = ClusterSpec::cluster_c();
    let env = cluster.env_features();

    // ---- (a) ACG vs plain RFR ----
    let widths = [6usize, 10, 10, 9, 9];
    let ta = Table::new(
        "Table VIII(a): RFR point prediction vs LITE (ACG + NECS), large test jobs on cluster C",
        &["app", "RFR t(s)", "LITE t(s)", "RFR ETR", "LITE ETR"],
        &widths,
    );
    let mut sums = [0.0f64; 4];
    for (ai, app) in AppId::all().into_iter().enumerate() {
        let data = app.dataset(SizeTier::Test);
        let seed = 4200 + ai as u64;
        let t_default = execute(&cluster, app, &data, &ds.space.default_conf(), seed);
        let rfr_conf = lite.acg.point_prediction(app, &data, &env);
        let t_rfr = execute(&cluster, app, &data, &rfr_conf, seed ^ 0x1);
        let rec = lite.recommend(app, &data, &cluster, seed).expect("warm")[0].conf.clone();
        let t_lite = execute(&cluster, app, &data, &rec, seed ^ 0x2);
        let (e_rfr, e_lite) = (etr(t_default, t_rfr), etr(t_default, t_lite));
        sums[0] += t_rfr;
        sums[1] += t_lite;
        sums[2] += e_rfr;
        sums[3] += e_lite;
        ta.row(&[
            app.abbrev().to_string(),
            secs(t_rfr),
            secs(t_lite),
            format!("{e_rfr:.2}"),
            format!("{e_lite:.2}"),
        ]);
    }
    let n = AppId::all().len() as f64;
    ta.row(&[
        "avg".to_string(),
        secs(sums[0] / n),
        secs(sums[1] / n),
        format!("{:.2}", sums[2] / n),
        format!("{:.2}", sums[3] / n),
    ]);

    // ---- (b) ACG vs other sampling strategies ----
    // For each validation app on cluster C: sample candidates four ways,
    // rank them with NECS, and score HR/NDCG against the simulated gold
    // list *of those candidates*.
    let widths_b = [10usize, 9, 9, 11];
    let tb = Table::new(
        "Table VIII(b): candidate-sampling strategies under the same NECS ranking (cluster C validation)",
        &["sampling", "HR@5", "NDCG@5", "top-1 t(s)"],
        &widths_b,
    );
    let strategies = ["random", "lhs", "grid", "ACG"];
    let mut results: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); strategies.len()];
    let mut counted = 0.0;
    for (ai, app) in AppId::all().into_iter().enumerate() {
        let data = app.dataset(SizeTier::Valid);
        let ctx = PredictionContext::warm(&lite.registry, app, &data, &cluster).expect("warm");
        for (si, strat) in strategies.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(6000 + 31 * ai as u64 + si as u64);
            let confs: Vec<SparkConf> = match *strat {
                "random" => (0..GOLD_CANDIDATES).map(|_| ds.space.sample(&mut rng)).collect(),
                "lhs" => ds.space.latin_hypercube(GOLD_CANDIDATES, &mut rng),
                "grid" => ds.space.grid_sample(4, GOLD_CANDIDATES, &mut rng),
                _ => lite.acg.candidates(app, &data, &env, GOLD_CANDIDATES, &mut rng),
            };
            let gold = gold_times(&cluster, app, &data, &confs, 7100 + ai as u64);
            let preds: Vec<f64> =
                confs.iter().map(|c| lite.model.predict_app(&lite.registry, &ctx, c)).collect();
            results[si].0 += hr_at_k(&preds, &gold, 5);
            results[si].1 += ndcg_at_k(&preds, &gold, 5);
            // Executed time of the strategy's NECS-chosen top candidate.
            let top = lite_metrics::ranking::rank_by(&preds)[0];
            results[si].2 += gold[top];
        }
        counted += 1.0;
    }
    let mut acg_time_quality = 0.0;
    for (si, strat) in strategies.iter().enumerate() {
        let hr = results[si].0 / counted;
        let ndcg = results[si].1 / counted;
        let top1 = results[si].2 / counted;
        if *strat == "ACG" {
            acg_time_quality = ndcg;
        }
        tb.row(&[strat.to_string(), f4(hr), f4(ndcg), secs(top1)]);
    }
    note(&format!(
        "\nNote: HR/NDCG here score ranking quality *within* each strategy's own candidate set; \
         panel (a) shows ACG's candidates are also absolutely better (lower executed time). ACG NDCG@5 = {}.",
        f4(acg_time_quality)
    ));
    eprintln!("[table08] total {:.0}s", t0.elapsed().as_secs_f64());
}
