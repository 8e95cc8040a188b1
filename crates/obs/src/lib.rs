//! # lite-obs — observability for the LITE reproduction
//!
//! Two pieces, deliberately dependency-free so they cost nothing when
//! disabled:
//!
//! * [`span`] — [`span::Tracer`], the one tracing switch: nestable spans
//!   with key/value attributes, stamped in nanoseconds on one monotonic
//!   epoch. A disabled tracer's [`span::Tracer::span`] is a branch and
//!   nothing else, so call sites stay unconditionally instrumented; an
//!   enabled one keeps a bounded ring of finished spans and records the
//!   request phases of [`trace`]. Its one producer plane is `lite-serve`.
//! * [`metrics`] — a registry of named counters, gauges and histograms.
//!   Counters and histograms are sharded across cache-line-padded atomics so
//!   concurrent increments from worker threads do not contend.
//!
//! Two supporting modules: [`sketch`] holds the log-linear bucket layout
//! histograms use for few-percent-accurate quantiles, and [`export`]
//! renders snapshots as Prometheus text exposition and finished spans as
//! Chrome trace-event JSON (Perfetto-loadable).
//!
//! [`trace`] is the tracer's fast tier — request-scoped tail forensics:
//! phase spans keyed by a [`trace::TraceId`], recorded into lock-free
//! per-thread rings, attributed into per-phase histograms, and retained in
//! full for the slowest requests as [`trace::Exemplar`]s.
//!
//! [`prof`] attributes allocations to what a thread is doing:
//! [`prof::tag`] names the calling thread's current scope, and the opt-in
//! [`prof::TagAlloc`] `GlobalAlloc` wrapper books each allocation's bytes
//! to it. The allocation-budget tests and the benchmark ledger count with
//! it; nothing in a library's request path enters a tag.
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
pub mod sketch;
pub mod span;
pub mod trace;

pub use export::{chrome_trace, prometheus_text, prometheus_text_with_exemplars, PromExemplar};
pub use json::{Json, JsonError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry};
pub use span::{AttrValue, SpanGuard, SpanRecord, Tracer};
pub use trace::{Exemplar, Phase, PhaseHistograms, PhaseSpan, TraceId};
