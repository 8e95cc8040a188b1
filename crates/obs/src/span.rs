//! Hierarchical span tracing.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s. Nesting is tracked per
//! thread: a span opened while another span of the *same tracer* is open on
//! the same thread becomes its child. Finished spans are collected into the
//! tracer and can be drained for reporting.
//!
//! Design constraints (the simulator calls `span()` in its hot loop):
//!
//! * a **disabled** tracer produces inert guards — one branch, no clock
//!   read, no allocation;
//! * an enabled tracer reads the monotonic clock twice per span and takes
//!   one short mutex hold when the span finishes (tracing is for runs and
//!   stages, not per-task events — those go through `metrics`);
//! * retrospective spans describing *simulated* time (e.g. one span per
//!   scheduling wave) are built as [`SynthSpan`]s and recorded through
//!   [`Tracer::record_batch`], which allocates ids and takes the finish
//!   lock once for the whole batch instead of once per span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The single monotonic epoch every span (and request-path phase span, see
/// [`crate::trace`]) is stamped against. Spans from different tracers and
/// different threads are directly comparable: a request accepted on the
/// listener thread and scored on a worker thread carry timestamps on one
/// axis. Fixed at first use, which is "process start" for any program that
/// creates a tracer early; the absolute origin is irrelevant, only that it
/// is shared.
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch. Shared timestamp source for
/// every tracer in the process.
pub fn epoch_us() -> u64 {
    process_epoch().elapsed().as_micros() as u64
}

/// Nanoseconds since the process trace epoch (the request-path phase
/// clock; phase spans need sub-microsecond resolution).
pub fn epoch_ns() -> u64 {
    process_epoch().elapsed().as_nanos() as u64
}

/// A span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

/// A finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Tracer-unique id (monotonically increasing in open order).
    pub id: u64,
    /// Parent span id, if this span was opened inside another.
    pub parent: Option<u64>,
    /// Static span name (dynamic context goes into `attrs`).
    pub name: &'static str,
    /// Microseconds since the process trace epoch when the span opened.
    pub start_us: u64,
    /// Microseconds since the process trace epoch when the span closed.
    pub end_us: u64,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_us.saturating_sub(self.start_us)) as f64 * 1e-6
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Process-unique tracer ids keep the per-thread nesting stacks of distinct
/// tracers from mis-parenting each other's spans.
static NEXT_TRACER_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Stack of (tracer id, span id) for spans currently open on this
    /// thread.
    static OPEN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

struct TracerInner {
    tracer_id: usize,
    fine: bool,
    next_span_id: AtomicU64,
    finished: Mutex<Vec<SpanRecord>>,
    /// Optional sampling-profiler hookup: every span enter/exit also
    /// pushes/pops a tag frame, so span-instrumented code profiles for
    /// free (set once via [`Tracer::attach_profiler`]).
    profiler: OnceLock<crate::prof::Profiler>,
}

/// A thread-safe span collector. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Tracer {
    /// `None` = disabled: `span()` returns an inert guard.
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// An enabled tracer recording at standard detail: call sites gate
    /// their highest-volume spans (e.g. the simulator's per-wave spans)
    /// behind [`Tracer::is_fine`], the span analogue of a DEBUG log level.
    /// Timestamps are relative to the shared process epoch (see
    /// [`epoch_us`]), so spans from distinct tracers and threads order
    /// against each other.
    pub fn new() -> Tracer {
        Tracer::with_detail(false)
    }

    /// An enabled tracer that also records fine-detail spans. Fine spans
    /// carry per-wave/per-item payloads whose volume is proportional to
    /// simulated work, so this level trades hot-loop overhead for depth —
    /// use it for deep dives, not steady-state runs.
    pub fn new_fine() -> Tracer {
        Tracer::with_detail(true)
    }

    fn with_detail(fine: bool) -> Tracer {
        // Pin the shared epoch no later than first tracer creation so
        // `start_us` stays small and `as u64` casts never saturate.
        let _ = process_epoch();
        Tracer {
            inner: Some(Arc::new(TracerInner {
                tracer_id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                fine,
                next_span_id: AtomicU64::new(1),
                finished: Mutex::new(Vec::new()),
                profiler: OnceLock::new(),
            })),
        }
    }

    /// Attach a sampling profiler: from now on every span enter/exit on
    /// this tracer also pushes/pops a [`crate::prof`] tag frame named after
    /// the span, so anything span-instrumented shows up in flamegraphs
    /// without separate tagging. First attachment wins; no-op on a
    /// disabled tracer or a disabled profiler.
    pub fn attach_profiler(&self, profiler: crate::prof::Profiler) {
        if let Some(inner) = &self.inner {
            if profiler.is_enabled() {
                let _ = inner.profiler.set(profiler);
            }
        }
    }

    /// A disabled tracer: spans are inert, nothing is recorded.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether fine-detail (per-wave / per-item) spans should be emitted.
    /// Always implies [`Tracer::is_enabled`].
    pub fn is_fine(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.fine)
    }

    /// Open a span. Drop the guard to close it. While the guard lives,
    /// further spans opened on the same thread become its children.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None, _tag: None };
        };
        let id = inner.next_span_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent =
                s.iter().rev().find(|(tid, _)| *tid == inner.tracer_id).map(|(_, sid)| *sid);
            s.push((inner.tracer_id, id));
            parent
        });
        SpanGuard {
            active: Some(ActiveSpan {
                tracer: Arc::clone(inner),
                record: SpanRecord {
                    id,
                    parent,
                    name,
                    start_us: epoch_us(),
                    end_us: 0,
                    attrs: Vec::new(),
                },
            }),
            _tag: inner.profiler.get().map(|p| p.enter(name)),
        }
    }

    /// Snapshot of all finished spans, in finish order.
    pub fn finished(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.finished.lock().expect("tracer lock").clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of at most the `max` most recently finished spans, plus
    /// the number of older spans left out. Clones only the tail — on a
    /// long-lived tracer with a large buffer this is the accessor exporters
    /// should use instead of [`Tracer::finished`].
    pub fn finished_tail(&self, max: usize) -> (Vec<SpanRecord>, usize) {
        match &self.inner {
            Some(inner) => {
                let buf = inner.finished.lock().expect("tracer lock");
                let skip = buf.len().saturating_sub(max);
                (buf[skip..].to_vec(), skip)
            }
            None => (Vec::new(), 0),
        }
    }

    /// Drain finished spans, leaving the tracer empty.
    pub fn take_finished(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.finished.lock().expect("tracer lock")),
            None => Vec::new(),
        }
    }

    /// Microseconds since the process trace epoch (0 when disabled). One
    /// clock read; lets hot paths stamp many [`SynthSpan`]s from one
    /// reading.
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(_) => epoch_us(),
            None => 0,
        }
    }

    /// Id of the innermost span of *this* tracer open on the current
    /// thread, for parenting [`SynthSpan`]s. `None` when disabled or no
    /// span is open.
    pub fn current_span_id(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        OPEN_STACK.with(|s| {
            s.borrow().iter().rev().find(|(tid, _)| *tid == inner.tracer_id).map(|(_, sid)| *sid)
        })
    }

    /// Record a batch of pre-built spans: ids are allocated contiguously
    /// and the finish lock is taken once. No-op when disabled or empty.
    pub fn record_batch(&self, spans: Vec<SynthSpan>) {
        let Some(inner) = &self.inner else { return };
        if spans.is_empty() {
            return;
        }
        let first = inner.next_span_id.fetch_add(spans.len() as u64, Ordering::Relaxed);
        let mut finished = inner.finished.lock().expect("tracer lock");
        finished.reserve(spans.len());
        for (i, s) in spans.into_iter().enumerate() {
            finished.push(SpanRecord {
                id: first + i as u64,
                parent: s.parent,
                name: s.name,
                start_us: s.start_us,
                end_us: s.end_us,
                attrs: s.attrs,
            });
        }
    }
}

/// A pre-built span for [`Tracer::record_batch`]: everything in a
/// [`SpanRecord`] except the id, which the tracer assigns at record time.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpan {
    /// Parent span id (usually [`Tracer::current_span_id`]).
    pub parent: Option<u64>,
    /// Static span name.
    pub name: &'static str,
    /// Microseconds since the process trace epoch at open
    /// ([`Tracer::now_us`]).
    pub start_us: u64,
    /// Microseconds since the process trace epoch at close.
    pub end_us: u64,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

struct ActiveSpan {
    tracer: Arc<TracerInner>,
    record: SpanRecord,
}

/// RAII guard for an open span. Closing (dropping) records the end time and
/// moves the record into the tracer.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    /// Piggybacked profiler tag frame (inert unless a profiler is
    /// attached); pops when the span closes.
    _tag: Option<crate::prof::TagGuard>,
}

impl SpanGuard {
    /// Attach an attribute (no-op on a disabled tracer's guard).
    pub fn attr(&mut self, key: &'static str, value: AttrValue) {
        if let Some(a) = &mut self.active {
            if a.record.attrs.is_empty() {
                // Spans carry a handful of attrs; one allocation, no regrowth.
                a.record.attrs.reserve(8);
            }
            a.record.attrs.push((key, value));
        }
    }

    /// Attach a `u64` attribute.
    pub fn attr_u64(&mut self, key: &'static str, v: u64) {
        self.attr(key, AttrValue::U64(v));
    }

    /// Attach an `f64` attribute.
    pub fn attr_f64(&mut self, key: &'static str, v: f64) {
        self.attr(key, AttrValue::F64(v));
    }

    /// Attach a boolean attribute.
    pub fn attr_bool(&mut self, key: &'static str, v: bool) {
        self.attr(key, AttrValue::Bool(v));
    }

    /// Attach a string attribute.
    pub fn attr_str(&mut self, key: &'static str, v: &str) {
        self.attr(key, AttrValue::Str(v.to_string()));
    }

    /// Whether this guard records anything (false for disabled tracers).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut active) = self.active.take() else { return };
        active.record.end_us = epoch_us();
        OPEN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards normally drop in LIFO order; be robust if not.
            if let Some(pos) = s
                .iter()
                .rposition(|&(tid, sid)| tid == active.tracer.tracer_id && sid == active.record.id)
            {
                s.remove(pos);
            }
        });
        active.tracer.finished.lock().expect("tracer lock").push(active.record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_attrs() {
        let t = Tracer::new();
        {
            let mut outer = t.span("outer");
            outer.attr_u64("n", 3);
            {
                let mut inner = t.span("inner");
                inner.attr_f64("x", 0.5);
                inner.attr_str("label", "hi");
            }
        }
        let spans = t.finished();
        assert_eq!(spans.len(), 2);
        // Inner finishes first.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.attr("n"), Some(&AttrValue::U64(3)));
        assert_eq!(inner.attr("x"), Some(&AttrValue::F64(0.5)));
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.end_us <= outer.end_us);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut g = t.span("x");
            g.attr_u64("k", 1);
            assert!(!g.is_recording());
        }
        assert!(t.finished().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let t = Tracer::new();
        {
            let _run = t.span("run");
            for _ in 0..3 {
                let _stage = t.span("stage");
            }
        }
        let spans = t.finished();
        let run_id = spans.iter().find(|s| s.name == "run").unwrap().id;
        let stages: Vec<_> = spans.iter().filter(|s| s.name == "stage").collect();
        assert_eq!(stages.len(), 3);
        assert!(stages.iter().all(|s| s.parent == Some(run_id)));
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_cross_parent() {
        let a = Tracer::new();
        let b = Tracer::new();
        {
            let _ga = a.span("a-root");
            let _gb = b.span("b-root");
            let _ga2 = a.span("a-child");
        }
        let a_spans = a.finished();
        let b_spans = b.finished();
        let a_root = a_spans.iter().find(|s| s.name == "a-root").unwrap();
        let a_child = a_spans.iter().find(|s| s.name == "a-child").unwrap();
        // a-child's parent is a-root, not b's span.
        assert_eq!(a_child.parent, Some(a_root.id));
        assert_eq!(b_spans.len(), 1);
        assert_eq!(b_spans[0].parent, None);
    }

    #[test]
    fn tracer_is_thread_safe() {
        let t = Tracer::new();
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..50u64 {
                    let mut g = t.span("work");
                    g.attr_u64("thread", i);
                    g.attr_u64("j", j);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let spans = t.finished();
        assert_eq!(spans.len(), 200);
        // Ids are unique.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
        // Spans opened at thread top level have no parent.
        assert!(spans.iter().all(|s| s.parent.is_none()));
    }

    #[test]
    fn drain_empties_the_tracer() {
        let t = Tracer::new();
        drop(t.span("x"));
        assert_eq!(t.take_finished().len(), 1);
        assert!(t.finished().is_empty());
    }

    #[test]
    fn batch_recorded_spans_get_unique_ids_and_keep_parents() {
        let t = Tracer::new();
        {
            let _run = t.span("run");
            let parent = t.current_span_id();
            assert!(parent.is_some());
            let now = t.now_us();
            t.record_batch(
                (0..3)
                    .map(|w| SynthSpan {
                        parent,
                        name: "wave",
                        start_us: now,
                        end_us: now,
                        attrs: vec![("wave", AttrValue::U64(w))],
                    })
                    .collect(),
            );
        }
        let spans = t.finished();
        let run_id = spans.iter().find(|s| s.name == "run").unwrap().id;
        let waves: Vec<_> = spans.iter().filter(|s| s.name == "wave").collect();
        assert_eq!(waves.len(), 3);
        assert!(waves.iter().all(|s| s.parent == Some(run_id)));
        // Batch ids never collide with guard ids.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len());
        // Disabled tracers ignore batches; empty batches are fine.
        Tracer::disabled().record_batch(vec![]);
        assert_eq!(Tracer::disabled().current_span_id(), None);
        assert_eq!(Tracer::disabled().now_us(), 0);
        t.record_batch(vec![]);
    }

    #[test]
    fn timestamps_order_across_tracers_and_threads() {
        // A tracer created *later* must not reset the clock: spans recorded
        // after another tracer's spans carry larger timestamps even though
        // the second tracer is younger, and the same holds when the later
        // span runs on a different thread.
        let early = Tracer::new();
        drop(early.span("first"));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let late = Tracer::new();
        let first = &early.finished()[0];
        let second = std::thread::spawn(move || {
            drop(late.span("second"));
            late.finished()[0].clone()
        })
        .join()
        .unwrap();
        assert!(
            second.start_us >= first.end_us,
            "younger tracer's span ({} us) predates older tracer's finished span ({} us)",
            second.start_us,
            first.end_us,
        );
        // The nanosecond phase clock shares the same epoch.
        let us = epoch_us();
        let ns = epoch_ns();
        assert!(ns / 1000 >= us && ns / 1000 - us < 100_000, "epoch_ns and epoch_us diverge");
    }

    #[test]
    fn durations_are_monotone() {
        let t = Tracer::new();
        {
            let _g = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = &t.finished()[0];
        assert!(s.end_us >= s.start_us);
        assert!(s.duration_s() >= 0.001);
    }
}
