//! Static vs dynamic cold-start: wall-time and equivalence.
//!
//! The paper's cold-start path runs every new application once on the
//! smallest dataset to instrument its stage codes. The static analysis
//! plane (`lite-analyze`) recovers the same stage templates from source
//! text alone. This bench times both providers over all 15 workloads,
//! asserts they produce identical `StageCode`s, and reports the speedup
//! of skipping the instrumentation run entirely.

use std::time::Instant;

use lite_bench::table::{note, Table};
use lite_workloads::apps::AppId;
use lite_workloads::instrument::{instrument_app, static_stage_codes};

/// Timed runs per app and path; a row shows the best.
const REPS: usize = 5;

fn main() {
    let widths = [6, 11, 12, 12, 9, 6];
    let table = Table::new(
        "Static vs dynamic cold-start extraction",
        &["app", "#templates", "dynamic(us)", "static(us)", "speedup", "equal"],
        &widths,
    );

    let mut total_dynamic_us = 0.0;
    let mut total_static_us = 0.0;
    let mut all_equal = true;
    for app in AppId::all() {
        // Warm both paths once, then time the best of `REPS` runs.
        let dynamic = instrument_app(app);
        let statik = static_stage_codes(app);
        let equal = dynamic == statik;
        all_equal &= equal;

        let mut dyn_us = f64::INFINITY;
        let mut sta_us = f64::INFINITY;
        for _ in 0..REPS {
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

    note(&format!(
        "\nCold-start extraction over all 15 apps: {:.1} ms instrumented vs {:.1} ms static ({:.1}x).",
        total_dynamic_us / 1e3,
        total_static_us / 1e3,
        total_dynamic_us / total_static_us
    ));
    note(if all_equal {
        "Static extraction is StageCode-identical to the instrumented run on every app."
    } else {
        "EQUIVALENCE FAILURE: static extraction diverged from instrumentation."
    });
    assert!(all_equal, "static extraction diverged from instrumentation");
}
