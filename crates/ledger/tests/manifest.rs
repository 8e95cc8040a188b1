//! `BENCHMARK.json` at the repository root and the binaries must name the
//! same workloads and metrics: the driver refuses a run whose result line
//! differs from the manifest, and a silently renamed metric would orphan
//! every baseline taken before it.

use lite_ledger::cli::RUN_SECONDS;
use lite_ledger::{MetricDecl, Workload, END_TO_END, PER_LAYER};
use lite_obs::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing in {doc:?}"))
}

fn assert_metrics(listed: &Json, declared: &[MetricDecl], bounded: bool) {
    let listed = listed.as_arr().expect("metric list");
    let names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
    let expected: Vec<&str> = declared.iter().map(|d| d.0).collect();
    assert_eq!(names, expected, "metric names and order");
    for (entry, &(name, unit, better)) in listed.iter().zip(declared) {
        assert_eq!(text(entry, "unit"), unit, "{name}: unit");
        assert_eq!(text(entry, "better"), better.name(), "{name}: direction");
        let bound = entry.get("bound").and_then(Json::as_f64);
        match bound {
            Some(b) if bounded => assert!(b > 0.0 && b <= 0.25, "{name}: bound {b}"),
            None if !bounded => {}
            other => panic!("{name}: unexpected bound {other:?}"),
        }
    }
}

#[test]
fn manifest_names_what_the_binaries_emit() {
    let doc = manifest();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    assert_metrics(doc.get("end_to_end").expect("end_to_end"), &END_TO_END, true);
    assert_metrics(doc.get("per_layer").expect("per_layer"), &PER_LAYER, false);
    assert_eq!(doc.get("run_seconds").and_then(Json::as_u64), Some(RUN_SECONDS));
}

#[test]
fn manifest_points_at_this_crate() {
    let doc = manifest();
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|v| v.as_str().expect("string").to_string())
            .collect()
    };
    assert_eq!(strings("paths"), ["crates/ledger"]);
    assert_eq!(strings("command"), ["bash", "crates/ledger/run.sh"]);
    // setup_s is the one metric the contract requires by name.
    assert_eq!(END_TO_END[0], ("setup_s", "s", lite_ledger::stats::Better::Lower));
}
