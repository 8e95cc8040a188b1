//! Every workload, end to end and traced, for two rounds: the run must
//! come out correct — answers valid and repeatable, the wire equal to the
//! in-process answer, one swap per adapt block, a positive and repeating
//! `etr_mean` — and must report every metric the manifest lists. Timings
//! are meaningless here (debug build, parallel tests); the checks are not.

use lite_ledger::layers::per_layer;
use lite_ledger::run::{end_to_end, Outcome};
use lite_ledger::{MetricDecl, Workload, END_TO_END, PER_LAYER};

fn assert_healthy(workload: Workload, outcome: &Outcome, declared: &[MetricDecl]) {
    let name = workload.name();
    assert_eq!(outcome.tally.failed, 0, "{name}: {:?}", outcome.tally.reasons());
    assert!(outcome.tally.attempted > 0, "{name}: nothing was checked");
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = declared.iter().map(|d| d.0).collect();
    assert_eq!(reported, expected, "{name}: metric names and order");
    for (metric, _, value) in &outcome.metrics {
        assert!(value.is_finite(), "{name}: {metric} = {value}");
    }
}

#[test]
fn every_workload_runs_end_to_end() {
    for workload in Workload::ALL {
        let outcome = end_to_end(workload, 7, 2);
        assert_healthy(workload, &outcome, &END_TO_END);
        for (metric, _, value) in &outcome.metrics {
            assert!(*value > 0.0, "{}: {metric} = {value} must never be 0", workload.name());
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    for workload in Workload::ALL {
        let outcome = per_layer(workload, 7, 2, 1.0, None);
        assert_healthy(workload, &outcome, &PER_LAYER);
    }
}
