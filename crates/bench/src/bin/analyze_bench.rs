//! Static vs dynamic cold-start: wall-time and equivalence — plus the
//! interactive-latency section behind `lite-lsp`.
//!
//! The paper's cold-start path runs every new application once on the
//! smallest dataset to instrument its stage codes. The static analysis
//! plane (`lite-analyze`) recovers the same stage templates from source
//! text alone. This bench times both providers over all 15 workloads,
//! asserts they produce identical `StageCode`s, and reports the speedup
//! of skipping the instrumentation run entirely.
//!
//! The `analyze_latency` section measures the editor loop: single-line
//! edits to every corpus main source pushed through the memoizing
//! [`DocAnalyzer`] (reparse + dataflow + lints), against a from-scratch
//! [`analyze_source`] baseline. The incremental p99 must stay under
//! 5 ms — asserted here, and run in quick mode by `scripts/verify.sh`.

use std::time::Instant;

use lite_analyze::{analyze_source, DocAnalyzer};
use lite_bench::{finish_report, quick_mode};
use lite_obs::Report;
use lite_workloads::apps::AppId;
use lite_workloads::instrument::{instrument_app, static_stage_codes};

/// `q`-th percentile of an unsorted sample, by nearest-rank on a copy.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Apply the `k`-th deterministic single-line edit: toggle a trailing
/// space on one line, so exactly one statement chunk changes content.
fn edit(text: &str, k: usize) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let i = (k * 7 + 3) % lines.len();
    if lines[i].ends_with(' ') {
        lines[i].pop();
    } else {
        lines[i].push(' ');
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn main() {
    let reps = if quick_mode() { 1 } else { 5 };
    let report = Report::new("analyze_bench");
    let widths = [6, 11, 12, 12, 9, 6];
    let mut table = report.table(
        "Static vs dynamic cold-start extraction",
        &["app", "#templates", "dynamic(us)", "static(us)", "speedup", "equal"],
        &widths,
    );

    let mut total_dynamic_us = 0.0;
    let mut total_static_us = 0.0;
    let mut all_equal = true;
    for app in AppId::all() {
        // Warm both paths once, then time the best of `reps` runs.
        let dynamic = instrument_app(app);
        let statik = static_stage_codes(app);
        let equal = dynamic == statik;
        all_equal &= equal;

        let mut dyn_us = f64::INFINITY;
        let mut sta_us = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(instrument_app(app));
            dyn_us = dyn_us.min(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            std::hint::black_box(static_stage_codes(app));
            sta_us = sta_us.min(t.elapsed().as_secs_f64() * 1e6);
        }
        total_dynamic_us += dyn_us;
        total_static_us += sta_us;
        table.row(&[
            app.abbrev().to_string(),
            dynamic.len().to_string(),
            format!("{dyn_us:.0}"),
            format!("{sta_us:.0}"),
            format!("{:.1}x", dyn_us / sta_us),
            if equal { "yes".to_string() } else { "NO".to_string() },
        ]);
    }

    report.field("apps", AppId::all().len() as u64);
    report.field("all_equal", u64::from(all_equal));
    report.field("total_dynamic_us", total_dynamic_us);
    report.field("total_static_us", total_static_us);
    report.field("speedup", total_dynamic_us / total_static_us);
    report.note(&format!(
        "\nCold-start extraction over all 15 apps: {:.1} ms instrumented vs {:.1} ms static ({:.1}x).",
        total_dynamic_us / 1e3,
        total_static_us / 1e3,
        total_dynamic_us / total_static_us
    ));
    report.note(if all_equal {
        "Static extraction is StageCode-identical to the instrumented run on every app."
    } else {
        "EQUIVALENCE FAILURE: static extraction diverged from instrumentation."
    });

    // ---- analyze_latency: the interactive editing loop ----------------
    let edits_per_app = if quick_mode() { 8 } else { 40 };
    let mut lat_table = report.table(
        "Incremental re-analysis latency (single-line edits)",
        &["app", "inc p50(us)", "inc p99(us)", "full p50(us)", "reuse"],
        &[6, 11, 11, 12, 7],
    );
    let mut inc_us_all = Vec::new();
    let mut full_us_all = Vec::new();
    for app in AppId::all() {
        let mut doc = DocAnalyzer::new();
        let mut text = app.main_source().to_string();
        let cold = doc.update(&text);
        let chunks = cold.stats.chunks.max(1);
        let mut inc_us = Vec::new();
        let mut full_us = Vec::new();
        let mut reused = 0usize;
        for k in 0..edits_per_app {
            text = edit(&text, k);
            let t = Instant::now();
            let analysis = doc.update(&text);
            inc_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(
                analysis.stats.reparsed <= 2,
                "{app}: a one-line edit reparsed {} chunks",
                analysis.stats.reparsed
            );
            reused += analysis.stats.reused;
            let t = Instant::now();
            std::hint::black_box(analyze_source(&text));
            full_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        lat_table.row(&[
            app.abbrev().to_string(),
            format!("{:.0}", percentile(&inc_us, 0.5)),
            format!("{:.0}", percentile(&inc_us, 0.99)),
            format!("{:.0}", percentile(&full_us, 0.5)),
            format!("{:.0}%", 100.0 * reused as f64 / (edits_per_app * chunks) as f64),
        ]);
        inc_us_all.extend(inc_us);
        full_us_all.extend(full_us);
    }
    let inc_p50_ms = percentile(&inc_us_all, 0.5) / 1e3;
    let inc_p99_ms = percentile(&inc_us_all, 0.99) / 1e3;
    let full_p50_ms = percentile(&full_us_all, 0.5) / 1e3;
    let full_p99_ms = percentile(&full_us_all, 0.99) / 1e3;
    report.field("edits", (edits_per_app * AppId::all().len()) as u64);
    report.field("incremental_p50_ms", inc_p50_ms);
    report.field("incremental_p99_ms", inc_p99_ms);
    report.field("full_p50_ms", full_p50_ms);
    report.field("full_p99_ms", full_p99_ms);
    report.note(&format!(
        "\nEditor loop over the 15-app corpus: incremental p50 {:.3} ms / p99 {:.3} ms \
         (from-scratch p50 {:.3} ms).",
        inc_p50_ms, inc_p99_ms, full_p50_ms
    ));

    finish_report(&report);
    assert!(all_equal, "static extraction diverged from instrumentation");
    assert!(
        inc_p99_ms < 5.0,
        "incremental re-analysis p99 {inc_p99_ms:.3} ms breaches the 5 ms editor budget"
    );
}
