//! lite-analyze: static stage-code analysis for the Scala-like workload
//! subset — batch extraction, and the interactive layers built on it.
//!
//! LITE's cold-start step (paper §III-B, step 1) runs an application once
//! on the smallest dataset to harvest stage templates, operator DAGs and
//! stage source code from the event log. This crate recovers the same
//! artifacts **without any run**:
//!
//! * [`lex`] — the workspace's one lexer (also backing
//!   `lite-workloads::tokenize`), producing spanned tokens;
//! * [`ast`] + [`parse`] — a typed AST and recursive-descent parser with a
//!   canonical pretty-printer (`parse ∘ pretty = id` up to spans);
//! * [`dataflow`] — RDD-lineage recovery: nodes, caching, partitioners,
//!   library calls, actions, trigger-site accounting;
//! * [`model`] — the library knowledge base mapping recognized API calls
//!   to their internal stage pipelines;
//! * [`extract`] — [`extract_stages`]: source text → stage templates,
//!   cross-validated against the dynamic `instrument_app` path on all 15
//!   workloads;
//! * [`lint`] — five span-accurate semantic lints for tuning-relevant
//!   anti-patterns.
//!
//! On top of the batch pipeline sit the interactive layers that power the
//! `lite-lsp` editor server:
//!
//! * [`fix`] — machine-applicable [`Fix`]es for the fixable lints
//!   (insert `.cache()`, drop single-use caches, `map`→`mapValues`),
//!   applied as AST rewrites through the canonical printer and proven
//!   lineage-safe on the dataflow graph;
//! * [`incremental`] — [`DocAnalyzer`]: statement-level memoized
//!   re-analysis for editor-latency updates, surfacing parse failures as
//!   `syntax-error` diagnostics instead of hard errors
//!   ([`analyze_source`] is the one-shot form).

pub mod ast;
pub mod dataflow;
pub mod extract;
pub mod fix;
pub mod incremental;
pub mod lex;
pub mod lint;
pub mod model;
pub mod parse;

pub use extract::{extract_stages, AnalyzeError, ExtractOptions, Extraction, StageTemplate};
pub use fix::{apply_fixes, plan_fixes, Fix, FixKind, FixOutcome};
pub use incremental::{analyze_source, Analysis, DocAnalyzer};
pub use lint::{run_lints, Diagnostic};
