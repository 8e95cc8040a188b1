//! Figure 8: tuning-overhead case study on DecisionTree (DT) and
//! LinearRegression (LR).
//!
//! BO and DDPG iterate build-predict-probe epochs against the large job,
//! each epoch costing a full application execution; the plotted curves are
//! best-execution-time-so-far vs cumulative overhead. LITE's single point
//! is its sub-two-second recommendation. Paper shape: LITE sits at the far
//! left (minimal overhead) at a height close to the best the iterative
//! tuners ever reach.

use lite_bench::table::{note, Table};
use lite_bench::tuning::{tune_bo, tune_ddpg, tune_lite};
use lite_bench::{training_dataset, NECS_EPOCHS};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let ds = training_dataset(1);
    let lite =
        LiteTuner::from_dataset(&ds, NecsConfig { epochs: NECS_EPOCHS, ..Default::default() }, 1);
    eprintln!("[fig08] LITE ready ({:.0}s)", t0.elapsed().as_secs_f64());
    let cluster = ClusterSpec::cluster_c();

    for (app, seed) in [(AppId::DecisionTree, 8801u64), (AppId::LinearRegression, 8802)] {
        let data = app.dataset(SizeTier::Test);

        let bo = tune_bo(&ds, &cluster, app, &data, seed);
        let ddpg = tune_ddpg(&ds.space, &cluster, app, &data, &[], seed);
        let lite_out = tune_lite(&lite, &cluster, app, &data, seed);

        let widths = [10usize, 14, 14];
        let table = Table::new(
            &format!("Figure 8 — {} (large data, cluster C)", app.name()),
            &["overhead_s", "BO best_s", "DDPG best_s"],
            &widths,
        );
        // Merge the two traces onto a common overhead axis.
        let steps: Vec<f64> = {
            let mut s: Vec<f64> =
                bo.trace.iter().chain(ddpg.trace.iter()).map(|(o, _)| *o).collect();
            s.sort_by(f64::total_cmp);
            s.dedup_by(|a, b| (*a - *b).abs() < 1.0);
            s
        };
        let best_at = |trace: &[(f64, f64)], o: f64| -> Option<f64> {
            trace.iter().take_while(|(ov, _)| *ov <= o).map(|(_, b)| *b).last()
        };
        for o in &steps {
            table.row(&[
                format!("{o:.0}"),
                best_at(&bo.trace, *o).map_or("-".into(), |b| format!("{b:.0}")),
                best_at(&ddpg.trace, *o).map_or("-".into(), |b| format!("{b:.0}")),
            ]);
        }
        let bo_best = bo.time_s;
        let ddpg_best = ddpg.time_s;
        note(&format!(
            "\nLITE point: overhead {:.0} us (one decision, model inference only) -> execution time {:.0}s",
            lite_out.decide_wall_s * 1e6,
            lite_out.time_s
        ));
        note(&format!(
            "Final best after the full {:.0}s budget: BO {bo_best:.0}s, DDPG {ddpg_best:.0}s.",
            lite_bench::tuning::TUNING_BUDGET_S
        ));
        note(&format!(
            "LITE / best-iterative ratio: {:.2} (paper: LITE near-optimal at minimal overhead)",
            lite_out.time_s / bo_best.min(ddpg_best)
        ));
    }
    eprintln!("[fig08] total {:.0}s", t0.elapsed().as_secs_f64());
}
