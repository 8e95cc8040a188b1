//! Figure 9: effect of Stage-based Code Organization on training-set size
//! and code density.
//!
//! For each application: the number of stage-level instances one
//! application run yields (the augmentation factor), and the token counts
//! of the main body vs the average stage-level code after instrumentation.
//! Paper shape: augmentation ranges from 4× (Terasort) to hundreds×
//! (SCC); stage-level token counts are a multiple of the main body's.

use lite_bench::table::{note, Table};
use lite_workloads::apps::AppId;
use lite_workloads::instrument::{augmentation_factor, instrument_app};
use lite_workloads::tokenize::tokenize;

fn main() {
    let widths = [6, 11, 11, 13, 13];
    let table = Table::new(
        "Figure 9: Stage-based Code Organization augmentation",
        &["app", "#templates", "#instances", "main tokens", "stage tokens"],
        &widths,
    );
    let mut min_aug = (AppId::Terasort, usize::MAX);
    let mut max_aug = (AppId::Terasort, 0usize);
    let mut token_ratios = Vec::new();
    for app in AppId::all() {
        let templates = instrument_app(app);
        let aug = augmentation_factor(&templates);
        let main_tokens = tokenize(app.main_source()).len();
        let stage_tokens: usize =
            templates.iter().map(|t| tokenize(&t.source).len()).sum::<usize>() / templates.len();
        token_ratios.push(stage_tokens as f64 / main_tokens as f64);
        if aug < min_aug.1 {
            min_aug = (app, aug);
        }
        if aug > max_aug.1 {
            max_aug = (app, aug);
        }
        table.row(&[
            app.abbrev().to_string(),
            templates.len().to_string(),
            aug.to_string(),
            main_tokens.to_string(),
            stage_tokens.to_string(),
        ]);
    }
    let avg_ratio = token_ratios.iter().sum::<f64>() / token_ratios.len() as f64;
    note(&format!(
        "\nAugmentation range: {}x ({}) to {}x ({}); paper reports 4x (TS) to 427x (SCC).",
        min_aug.1,
        min_aug.0.abbrev(),
        max_aug.1,
        max_aug.0.abbrev()
    ));
    note(&format!(
        "Average stage-code/main-code token ratio: {avg_ratio:.1}x (paper: length of codes per instance roughly tripled)."
    ));
}
