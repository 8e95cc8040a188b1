//! Hierarchical span tracing.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s. Nesting is tracked per
//! thread: a span opened while another span of the *same tracer* is open on
//! the same thread becomes its child. Finished spans are collected into the
//! tracer and can be drained for reporting.
//!
//! Design constraints (the serve workers call `span()` per request and per
//! scored candidate):
//!
//! * a **disabled** tracer produces inert guards — one branch, no clock
//!   read, no allocation;
//! * an enabled tracer reads the monotonic clock twice per span and takes
//!   one short mutex hold when the span finishes;
//! * a tracer holds the newest [`FINISHED_CAP`] finished spans: a service
//!   traced for weeks keeps a bounded tail and counts what fell off.

use std::cell::RefCell;
use std::collections::VecDeque;
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

/// Finished spans a tracer retains; a span finishing beyond it evicts the
/// oldest. Four times what one `trace` admin frame can carry.
pub const FINISHED_CAP: usize = 16_384;

/// The newest finished spans, oldest first, and how many were evicted.
#[derive(Default)]
struct Finished {
    ring: VecDeque<SpanRecord>,
    evicted: usize,
}

struct TracerInner {
    tracer_id: usize,
    next_span_id: AtomicU64,
    finished: Mutex<Finished>,
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
    /// An enabled tracer. Timestamps are relative to the shared process
    /// epoch (see [`epoch_us`]), so spans from distinct tracers and threads
    /// order against each other.
    pub fn new() -> Tracer {
        // Pin the shared epoch no later than first tracer creation so
        // `start_us` stays small and `as u64` casts never saturate.
        let _ = process_epoch();
        Tracer {
            inner: Some(Arc::new(TracerInner {
                tracer_id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                next_span_id: AtomicU64::new(1),
                finished: Mutex::new(Finished::default()),
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

    /// Snapshot of the retained finished spans, in finish order.
    pub fn finished(&self) -> Vec<SpanRecord> {
        self.finished_tail(FINISHED_CAP).0
    }

    /// Snapshot of at most the `max` most recently finished spans, plus
    /// the number of older spans left out — those still retained and those
    /// the ring already evicted. Clones only the tail.
    pub fn finished_tail(&self, max: usize) -> (Vec<SpanRecord>, usize) {
        match &self.inner {
            Some(inner) => {
                let buf = inner.finished.lock().expect("tracer lock");
                let skip = buf.ring.len().saturating_sub(max);
                (buf.ring.range(skip..).cloned().collect(), buf.evicted + skip)
            }
            None => (Vec::new(), 0),
        }
    }

    /// Drain the retained finished spans, leaving the tracer empty.
    pub fn take_finished(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => {
                std::mem::take(&mut inner.finished.lock().expect("tracer lock").ring).into()
            }
            None => Vec::new(),
        }
    }
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
        // The evicted record is freed after the lock is released.
        let _evicted = {
            let mut finished = active.tracer.finished.lock().expect("tracer lock");
            let evicted = if finished.ring.len() == FINISHED_CAP {
                finished.evicted += 1;
                finished.ring.pop_front()
            } else {
                None
            };
            finished.ring.push_back(active.record);
            evicted
        };
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
    fn a_full_ring_evicts_the_oldest_and_counts_it() {
        let t = Tracer::new();
        for i in 0..FINISHED_CAP as u64 + 10 {
            t.span("x").attr_u64("i", i);
        }
        let (tail, left_out) = t.finished_tail(4);
        assert_eq!(left_out, FINISHED_CAP + 10 - 4);
        let newest: Vec<_> = tail.iter().map(|s| s.attr("i").cloned()).collect();
        let expect = |i: usize| Some(AttrValue::U64((FINISHED_CAP + i) as u64));
        assert_eq!(newest, vec![expect(6), expect(7), expect(8), expect(9)]);
        let all = t.finished();
        assert_eq!(all.len(), FINISHED_CAP);
        assert_eq!(all[0].attr("i"), Some(&AttrValue::U64(10)));
        assert_eq!(t.take_finished().len(), FINISHED_CAP);
        assert!(t.finished().is_empty());
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
