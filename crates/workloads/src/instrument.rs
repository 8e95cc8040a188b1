//! Instrumentation: recover stage-level codes and scheduler DAGs.
//!
//! Paper Section III-B, Step 1: a Java agent monitors which Spark-core
//! classes load during each stage and the application's event log is parsed
//! afterwards to extract stage-level codes and DAGs. Here the same contract
//! is realized against the simulator: [`instrument_app`] runs the
//! application **once on the smallest dataset** (exactly what LITE does for
//! cold-start applications), parses the emitted binary event log, and
//! expands each stage's operators into instrumented source.
//!
//! The output is a list of *stage templates*: deduplicated by template
//! name, each with its operator DAG and expanded source. Iterative stages
//! collapse onto one template, but the per-run instance multiplicity is
//! reported so Stage-based Code Organization can account for augmentation
//! (paper Figure 9).

use crate::apps::{build_job, AppId};
use crate::data::SizeTier;
use crate::srcgen::expand_stage_source;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::ConfSpace;
use lite_sparksim::eventlog::{decode, emit, encode, Event};
use lite_sparksim::exec::simulate;
use lite_sparksim::plan::OpDag;

/// One instrumented stage template.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCode {
    /// Stable template name (e.g. `"pr-contrib"`).
    pub template: String,
    /// The operator DAG recovered from the event log.
    pub dag: OpDag,
    /// Expanded stage-level source (operator implementations + closure).
    pub source: String,
    /// How many instances of this template one application run produces.
    pub instances_per_run: usize,
}

/// Instrument an application: run it once on the smallest dataset with the
/// default configuration, parse the event log, and return its stage
/// templates in first-appearance order.
///
/// This mirrors the paper's cold-start path: "we run the application on the
/// smallest dataset possible and perform instrumentation to quickly obtain
/// stage-level codes and DAG scheduler".
pub fn instrument_app(app: AppId) -> Vec<StageCode> {
    let data = app.dataset(SizeTier::Train(0));
    let plan = build_job(app, &data);
    let cluster = ClusterSpec::cluster_a();
    let conf = ConfSpace::table_iv().default_conf();
    let result = simulate(&cluster, &conf, &plan, 0x11f3);

    // Round-trip through the wire format: the extractor only sees log
    // contents, never in-memory plan structs.
    let log = decode(&encode(&emit(&plan, &result))).expect("own log decodes");

    let mut templates: Vec<StageCode> = Vec::new();
    for ev in &log {
        if let Event::StageSubmitted { name, dag, .. } = ev {
            if let Some(existing) = templates.iter_mut().find(|t| &t.template == name) {
                existing.instances_per_run += 1;
                continue;
            }
            let closure = app.stage_closure(name);
            templates.push(StageCode {
                template: name.clone(),
                dag: dag.clone(),
                source: expand_stage_source(dag, closure),
                instances_per_run: 1,
            });
        }
    }
    assert!(!templates.is_empty(), "{app}: instrumentation saw no stages");
    templates
}

/// Statically recover the same stage templates [`instrument_app`] gets
/// from an instrumented run — zero simulator runs.
///
/// The `lite-analyze` crate parses the application's main source, walks
/// RDD lineage, and expands recognized library calls through its stage
/// knowledge base. Only the iteration count (a property of the dataset
/// tier, not of the code) is passed in from the dynamic side. Equivalence
/// against [`instrument_app`] on all 15 workloads is asserted by the
/// `static_equivalence` integration test.
pub fn static_stage_codes(app: AppId) -> Vec<StageCode> {
    let data = app.dataset(SizeTier::Train(0));
    let opts = lite_analyze::ExtractOptions { iterations: data.iterations.max(1) };
    let extraction = lite_analyze::extract_stages(app.main_source(), opts)
        .unwrap_or_else(|e| panic!("{app}: static extraction failed: {e}"));
    extraction
        .stages
        .into_iter()
        .map(|s| {
            let dag = OpDag::chain(&s.ops);
            let closure = app.stage_closure(&s.template);
            StageCode {
                source: expand_stage_source(&dag, closure),
                template: s.template,
                dag,
                instances_per_run: s.instances_per_run,
            }
        })
        .collect()
}

/// Total stage instances per application run (the augmentation factor of
/// paper Figure 9: one application instance yields this many stage-level
/// training instances).
pub fn augmentation_factor(templates: &[StageCode]) -> usize {
    templates.iter().map(|t| t.instances_per_run).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    #[test]
    fn instrumentation_recovers_all_stage_templates() {
        let templates = instrument_app(AppId::PageRank);
        let names: Vec<&str> = templates.iter().map(|t| t.template.as_str()).collect();
        assert!(names.contains(&"load-edges"));
        assert!(names.contains(&"pr-contrib"));
        assert!(names.contains(&"pr-update"));
        // 10 iterations of the contrib template in one run.
        let contrib = templates.iter().find(|t| t.template == "pr-contrib").unwrap();
        assert_eq!(contrib.instances_per_run, 10);
    }

    #[test]
    fn augmentation_factors_match_figure_9_shape() {
        // Terasort: smallest augmentation (4 stages); SCC: by far the most.
        let ts = augmentation_factor(&instrument_app(AppId::Terasort));
        let scc = augmentation_factor(&instrument_app(AppId::StronglyConnectedComponent));
        assert_eq!(ts, 4);
        assert!(scc > 10 * ts, "scc={scc} ts={ts}");
    }

    #[test]
    fn stage_sources_are_denser_than_main_body() {
        for app in [AppId::Terasort, AppId::KMeans, AppId::TriangleCount] {
            let main_tokens = tokenize(app.main_source()).len();
            let templates = instrument_app(app);
            let avg_stage_tokens: usize =
                templates.iter().map(|t| tokenize(&t.source).len()).sum::<usize>()
                    / templates.len();
            assert!(
                avg_stage_tokens * 2 > main_tokens,
                "{app}: stage codes not denser ({avg_stage_tokens} vs {main_tokens})"
            );
        }
    }

    #[test]
    fn dags_come_from_the_event_log() {
        let templates = instrument_app(AppId::Sort);
        for t in &templates {
            t.dag.validate().unwrap();
            assert!(!t.dag.is_empty());
        }
    }

    #[test]
    fn instrumentation_is_deterministic() {
        let a = instrument_app(AppId::Svm);
        let b = instrument_app(AppId::Svm);
        assert_eq!(a, b);
    }
}
