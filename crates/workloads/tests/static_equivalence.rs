//! Static-vs-dynamic cold-start cross-validation.
//!
//! The tentpole guarantee of the static analysis plane: on every workload,
//! `static_stage_codes` (pure source analysis, zero simulator runs) must
//! produce exactly what `instrument_app` recovers from an instrumented run
//! — same templates in the same order, same operator DAGs, same expanded
//! sources (hence identical token streams after vocabulary mapping), same
//! per-run instance counts. `StageCode` derives `PartialEq`, so one
//! assert covers all four.

use lite_workloads::apps::AppId;
use lite_workloads::instrument::{instrument_app, static_stage_codes};
use lite_workloads::tokenize::tokenize;

#[test]
fn static_extraction_matches_instrumented_run_on_all_15_apps() {
    for app in AppId::all() {
        let dynamic = instrument_app(app);
        let statik = static_stage_codes(app);
        assert_eq!(
            statik.len(),
            dynamic.len(),
            "{app}: template count mismatch\n static: {:?}\ndynamic: {:?}",
            statik.iter().map(|s| &s.template).collect::<Vec<_>>(),
            dynamic.iter().map(|s| &s.template).collect::<Vec<_>>(),
        );
        for (s, d) in statik.iter().zip(&dynamic) {
            assert_eq!(s, d, "{app}: stage template `{}` differs", d.template);
        }
    }
}

#[test]
fn static_token_streams_match_dynamic_after_tokenization() {
    // Equality of sources implies equality of token streams, but this is
    // the property downstream feature builders actually consume — pin it
    // explicitly on a representative app per category.
    for app in [AppId::KMeans, AppId::PageRank, AppId::Terasort] {
        let dynamic = instrument_app(app);
        let statik = static_stage_codes(app);
        for (s, d) in statik.iter().zip(&dynamic) {
            assert_eq!(
                tokenize(&s.source),
                tokenize(&d.source),
                "{app}: token stream mismatch for `{}`",
                d.template
            );
        }
    }
}

#[test]
fn lints_stay_silent_on_the_clean_corpus() {
    for app in AppId::all() {
        let diags = lite_analyze::analyze_source(app.main_source()).diagnostics;
        assert!(
            diags.is_empty(),
            "{app}: lints fired on clean corpus: {:?}",
            diags.iter().map(|d| (d.rule, &d.message)).collect::<Vec<_>>()
        );
    }
}

#[test]
fn auto_fix_is_a_no_op_on_the_clean_corpus() {
    // Zero diagnostics must mean zero planned fixes and zero fix passes;
    // a fix engine that "improves" clean code would be rewriting
    // semantics, not resolving lints.
    for app in AppId::all() {
        let out = lite_analyze::apply_fixes(app.main_source())
            .unwrap_or_else(|e| panic!("{app}: fix run failed: {e}"));
        assert_eq!(out.passes, 0, "{app}: auto-fix touched a clean program");
        assert!(out.applied.is_empty());
        assert!(out.remaining.is_empty());
    }
}

#[test]
fn incremental_analysis_matches_from_scratch_on_the_corpus() {
    // Cold and warm DocAnalyzer updates must reproduce the from-scratch
    // parse exactly — spans included — on every real main source.
    for app in AppId::all() {
        let src = app.main_source();
        let full =
            lite_analyze::parse::parse(src).unwrap_or_else(|e| panic!("{app}: parse failed: {e}"));
        let mut doc = lite_analyze::DocAnalyzer::new();
        let cold = doc.update(src);
        assert_eq!(cold.program, full, "{app}: cold incremental parse diverged");
        let warm = doc.update(src);
        assert_eq!(warm.program, full, "{app}: warm incremental parse diverged");
        assert_eq!(warm.stats.reparsed, 0, "{app}: warm update reparsed a chunk");
    }
}

#[test]
fn corpus_sources_round_trip_through_the_parser() {
    // parse → pretty → reparse is the identity (up to spans) on every
    // main source — the printer/parser pair is exercised on real code,
    // not only on property-generated ASTs.
    for app in AppId::all() {
        let mut first = lite_analyze::parse::parse(app.main_source())
            .unwrap_or_else(|e| panic!("{app}: parse failed: {e}"));
        let pretty = first.pretty();
        let mut second = lite_analyze::parse::parse(&pretty)
            .unwrap_or_else(|e| panic!("{app}: reparse of pretty-print failed: {e}\n{pretty}"));
        first.zero_spans();
        second.zero_spans();
        assert_eq!(first, second, "{app}: pretty-print round trip changed the AST\n{pretty}");
    }
}
