//! # lite-obs — observability for the LITE reproduction
//!
//! Three pieces, deliberately dependency-free so they cost nothing when
//! disabled:
//!
//! * [`span`] — a hierarchical span tracer. Thread-safe, monotonic-clock,
//!   nestable spans with key/value attributes. A disabled tracer's
//!   [`span::Tracer::span`] is a branch and nothing else, so call sites can
//!   stay unconditionally instrumented; an enabled one retains a bounded
//!   ring of the newest finished spans. Its one producer plane is
//!   `lite-serve` (`serve.request`, `serve.swap`, `lite.candidate`).
//! * [`metrics`] — a registry of named counters, gauges and histograms.
//!   Counters and histograms are sharded across cache-line-padded atomics so
//!   concurrent increments from worker threads do not contend.
//! * [`report`] — run manifests: phase wall-clock timings, free-form fields,
//!   tables (printed to stdout *and* captured, so the human table and the
//!   machine manifest cannot drift apart), notes and a metrics snapshot,
//!   serialized as one JSON object per line into `results/*.manifest.jsonl`.
//!
//! Two supporting modules: [`sketch`] holds the log-linear bucket layout
//! histograms use for few-percent-accurate quantiles, and [`export`]
//! renders snapshots as Prometheus text exposition and finished spans as
//! Chrome trace-event JSON (Perfetto-loadable).
//!
//! On top of those sits [`trace`] — request-scoped tail forensics: phase
//! spans keyed by a [`trace::TraceId`], recorded into lock-free per-thread
//! rings, attributed into per-phase histograms, and retained in full for
//! the slowest requests as [`trace::Exemplar`]s.
//!
//! The continuous-profiling and SLO plane completes the picture: [`prof`]
//! is a cooperative sampling profiler over seqlock-published per-thread
//! tag stacks (folded stacks plus allocation attribution via an opt-in
//! `GlobalAlloc` wrapper), and [`slo`] turns cumulative histograms into
//! windowed rollups (true `rate()`, windowed p50–p999) with a
//! multi-window burn-rate evaluator over an error budget.
//!
//! ```
//! use lite_obs::span::Tracer;
//! use lite_obs::metrics::Registry;
//!
//! let tracer = Tracer::new();
//! let reg = Registry::new();
//! let tasks = reg.counter("demo.tasks_launched");
//! {
//!     let mut run = tracer.span("run");
//!     run.attr_u64("seed", 42);
//!     {
//!         let mut stage = tracer.span("stage");
//!         stage.attr_str("name", "shuffle");
//!         tasks.add(128);
//!     }
//! }
//! let spans = tracer.finished();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(tasks.value(), 128);
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod report;
pub mod sketch;
pub mod slo;
pub mod span;
pub mod trace;

pub use export::{chrome_trace, prometheus_text, prometheus_text_with_exemplars, PromExemplar};
pub use json::{Json, JsonError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry};
pub use prof::{ProfReport, Profiler, TagAlloc, TagGuard, TagStat};
pub use report::Report;
pub use slo::{RollupRing, Slo, SloConfig, SloStatus, TimeBucket, WindowStats};
pub use span::{AttrValue, SpanGuard, SpanRecord, Tracer};
pub use trace::{Exemplar, Phase, PhaseHistograms, PhaseSpan, TraceId, TraceSink};
