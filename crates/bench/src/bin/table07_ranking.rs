//! Table VII: ranking performance (HR@5 / NDCG@5) of the full model grid
//! across clusters A/B/C (validation data) and Large (test data, cluster
//! C).
//!
//! Grid: {LightGBM, MLP} × {W, S, WC, SC, SCG} + LSTM+MLP +
//! Transformer+MLP + GCN+MLP + NECS. Paper shape to reproduce:
//! code features beat no-code features (WC > W, SC > S), stage-level
//! beats app-level (SC > WC), and NECS is best overall, including on
//! Large jobs.

use lite_bench::table::{note, Table};
use lite_bench::{
    eval_settings, f4, gold_set, ranking_scores, training_dataset, GOLD_CANDIDATES, NECS_EPOCHS,
};
use lite_core::baselines::{
    AnyModel, EncoderKind, EstimatorKind, FeatureSet, NeuralBaseline, TabularModel,
};
use lite_core::features::StageInstance;
use lite_core::necs::{Necs, NecsConfig};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let ds = training_dataset(1);
    eprintln!(
        "[table07] dataset: {} runs / {} instances ({:.0}s)",
        ds.runs.len(),
        ds.instances.len(),
        t0.elapsed().as_secs_f64()
    );
    let refs: Vec<&StageInstance> = ds.instances.iter().collect();

    // Gold sets, shared by every model: two independent candidate draws
    // per setting to cut ranking-metric variance.
    let settings: Vec<_> = eval_settings().into_iter().flat_map(|s| [s.clone(), s]).collect();
    let golds: Vec<_> = settings
        .iter()
        .enumerate()
        .map(|(i, s)| gold_set(&ds.space, s, GOLD_CANDIDATES, 7 + i as u64))
        .collect();

    let mut models: Vec<AnyModel> = Vec::new();
    for kind in [EstimatorKind::Gbdt, EstimatorKind::Mlp] {
        for fs in [FeatureSet::W, FeatureSet::S, FeatureSet::Wc, FeatureSet::Sc, FeatureSet::Scg] {
            let t = Instant::now();
            let m = TabularModel::fit(&ds, kind, fs, 11);
            eprintln!("[table07] trained {} in {:.0}s", m.label(), t.elapsed().as_secs_f64());
            models.push(AnyModel::Tabular(m));
        }
    }
    let seq_epochs = (NECS_EPOCHS / 3).max(4);
    for enc in [EncoderKind::Lstm, EncoderKind::Transformer, EncoderKind::Gcn] {
        let t = Instant::now();
        let m = NeuralBaseline::train(&ds, &refs, enc, seq_epochs, 13);
        eprintln!("[table07] trained {} in {:.0}s", enc.label(), t.elapsed().as_secs_f64());
        models.push(AnyModel::Neural(m));
    }
    {
        let t = Instant::now();
        let necs = Necs::train(
            &ds.registry,
            &ds.space,
            &refs,
            NecsConfig { epochs: NECS_EPOCHS, ..Default::default() },
        );
        eprintln!("[table07] trained NECS in {:.0}s", t.elapsed().as_secs_f64());
        models.push(AnyModel::Necs(necs));
    }

    // Evaluate: average per group.
    let groups = ["Cluster A", "Cluster B", "Cluster C", "Large"];
    let widths = [16usize, 17, 17, 17, 17];
    let mut header = vec!["model"];
    header.extend(groups);
    let table = Table::new(
        "Table VII: ranking performance (HR@5 | NDCG@5), averaged over 15 applications",
        &header,
        &widths,
    );
    let mut summary: HashMap<String, f64> = HashMap::new();
    for model in &models {
        let mut row = vec![model.label()];
        for group in groups {
            let mut hr = Vec::new();
            let mut ndcg = Vec::new();
            for (setting, gold) in settings.iter().zip(golds.iter()) {
                if setting.group != group {
                    continue;
                }
                if let Some((h, n)) = ranking_scores(model, &ds, setting, gold) {
                    hr.push(h);
                    ndcg.push(n);
                }
            }
            let mh = hr.iter().sum::<f64>() / hr.len().max(1) as f64;
            let mn = ndcg.iter().sum::<f64>() / ndcg.len().max(1) as f64;
            if group == "Large" {
                summary.insert(model.label(), mn);
            }
            row.push(format!("{} | {}", f4(mh), f4(mn)));
        }
        table.row(&row);
    }

    let necs_large = summary.get("NECS").copied().unwrap_or(0.0);
    let best_other = summary
        .iter()
        .filter(|(k, _)| k.as_str() != "NECS")
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    note(&format!(
        "\nLarge-jobs NDCG@5: NECS {} vs best competitor {} (paper: NECS ~10% ahead on large jobs).",
        f4(necs_large),
        f4(best_other)
    ));
    eprintln!("[table07] total {:.0}s", t0.elapsed().as_secs_f64());
}
