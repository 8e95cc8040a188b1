//! Request-scoped tracing: phase spans, per-thread rings, tail exemplars.
//!
//! The serve plane's endpoint histograms say *that* p99 is slow; this
//! module exists to say *where*. Every hop of a request — accept, frame
//! read, parse, enqueue, queue wait, dequeue, snapshot load, cache lookup,
//! scoring, reply handoff, serialization, socket write — records a
//! [`PhaseSpan`] carrying
//! the request's [`TraceId`] and nanosecond timestamps on the shared
//! process epoch ([`crate::span::epoch_ns`]), so spans from the listener
//! thread and a worker thread lie on one time axis.
//!
//! Three consumers, three cost tiers:
//!
//! 1. **Rings** — each recording thread owns a fixed [`RING_CAPACITY`]-slot
//!    ring of seqlock slots. A record is a handful of relaxed stores plus
//!    one release store; no lock, no allocation after the ring exists.
//! 2. **Histograms** — [`PhaseHistograms`] maps each phase to a quantile
//!    sketch histogram named by [`Phase::metric_name`], giving `stats` the
//!    per-phase p50/p99 attribution directly.
//! 3. **Exemplars** — when a request *completes*, [`TraceSink::complete`]
//!    checks its end-to-end latency against a threshold and a top-K
//!    reservoir. Only then does it scan the rings for that trace's spans
//!    and take the reservoir lock: the slow path pays for forensics, the
//!    fast path pays two atomic loads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub use crate::span::epoch_ns;

/// Slots per per-thread ring. At ~12 phases per request a ring remembers
/// the last ~90 requests a thread touched — far beyond one request's
/// lifetime, so a slow request's spans are still resident when its
/// completion triggers exemplar capture. 5 words × 1024 = 40 KiB/thread.
pub const RING_CAPACITY: usize = 1024;

/// Declare [`Phase`] from one `Variant = index, "name"` table: the enum,
/// `COUNT`, `ALL`, `name()` and `metric_name()` all expand from the same
/// rows, so a phase cannot exist without its histogram (or the reverse).
macro_rules! phases {
    ($($(#[$doc:meta])* $variant:ident = $index:literal, $name:literal;)+) => {
        /// One hop of the request path. `ALL` is ordered by position in
        /// the path.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum Phase {
            $($(#[$doc])* $variant = $index,)+
        }

        impl Phase {
            /// Every phase, in request-path order.
            pub const ALL: [Phase; Phase::COUNT] = [$(Phase::$variant),+];

            /// Number of phases.
            pub const COUNT: usize = [$($index),+].len();

            /// Short snake_case phase name (exemplar JSON, report tables).
            pub fn name(self) -> &'static str {
                match self {
                    $(Phase::$variant => $name,)+
                }
            }

            /// The histogram this phase's durations are recorded into.
            pub fn metric_name(self) -> &'static str {
                match self {
                    $(Phase::$variant => concat!("serve.phase.", $name, "_ns"),)+
                }
            }
        }
    };
}

phases! {
    /// Connection accepted / request picked up by the connection thread.
    Accept = 0, "accept";
    /// Blocking read of the length-prefixed frame from the socket.
    FrameRead = 1, "frame_read";
    /// UTF-8 validation + JSON parse of the payload.
    Parse = 2, "parse";
    /// Admission into the bounded request queue.
    Enqueue = 3, "enqueue";
    /// Shard routing: picking the worker shard a request hashes to and
    /// handing the job to its queue (the sharded-dispatch hop).
    Dispatch = 4, "dispatch";
    /// Time spent queued before a worker picked the job up.
    QueueWait = 5, "queue_wait";
    /// Worker-side dequeue + deadline check.
    Dequeue = 6, "dequeue";
    /// Loading the current model snapshot (arc-swap read + clone).
    SnapshotLoad = 7, "snapshot_load";
    /// Recommendation cache probe.
    CacheLookup = 8, "cache_lookup";
    /// NECS candidate scoring (the model inference).
    Score = 9, "score";
    /// Reply handoff: from the worker sending the finished response to
    /// the submitting thread picking it up (thread wakeup latency — a
    /// dominant tail term on oversubscribed machines).
    Respond = 10, "respond";
    /// Rendering the response document to JSON text.
    Serialize = 11, "serialize";
    /// Writing the response frame to the socket.
    Write = 12, "write";
}

impl Phase {
    /// Decode a phase index (the ring's packed representation).
    pub fn from_index(i: u8) -> Option<Phase> {
        Phase::ALL.get(i as usize).copied()
    }
}

/// A request trace identifier. Nonzero: zero is the ring's "empty slot"
/// sentinel and the wire's "no trace" default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// A fresh process-unique id (server-side generation at accept).
    /// Sequential under a large odd multiplier: unique like a counter,
    /// but ids from concurrent sources do not collide on small integers.
    pub fn generate() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TraceId(n.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Adopt a client-supplied id from the wire; zero means "none".
    pub fn from_wire(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }

    /// The raw id for the wire / logs / metrics annotations.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One completed phase of one request. Fixed-size and `Copy`: the ring
/// stores it as five words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The request's trace id.
    pub trace_id: u64,
    /// Which hop this is.
    pub phase: Phase,
    /// Nanoseconds since the process trace epoch at phase start.
    pub start_ns: u64,
    /// Nanoseconds since the process trace epoch at phase end.
    pub end_ns: u64,
    /// Request-queue depth observed when this span was recorded (0 when
    /// not applicable; meaningful on `Enqueue`).
    pub queue_depth: u32,
    /// Whether a model-snapshot swap was in progress during this phase —
    /// makes swap convoys visible in exemplars.
    pub swap_in_progress: bool,
}

impl PhaseSpan {
    /// Phase duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn pack_meta(&self) -> u64 {
        (self.phase as u64)
            | ((self.swap_in_progress as u64) << 8)
            | ((self.queue_depth as u64) << 32)
    }

    fn unpack(trace_id: u64, start_ns: u64, end_ns: u64, meta: u64) -> Option<PhaseSpan> {
        Some(PhaseSpan {
            trace_id,
            phase: Phase::from_index((meta & 0xFF) as u8)?,
            start_ns,
            end_ns,
            queue_depth: (meta >> 32) as u32,
            swap_in_progress: (meta >> 8) & 1 == 1,
        })
    }
}

/// A seqlock slot: `seq` odd while a write is in flight, even when the
/// four payload words are consistent. The ring owner is the only writer,
/// so writers never contend; readers retry on a torn read.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

struct Ring {
    slots: Box<[Slot]>,
    /// Total spans ever written (write cursor). Only the owning thread
    /// stores; readers load to find the live window.
    cursor: AtomicU64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            cursor: AtomicU64::new(0),
        }
    }

    fn push(&self, span: &PhaseSpan) {
        let cursor = self.cursor.load(Ordering::Relaxed);
        let slot = &self.slots[(cursor % RING_CAPACITY as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Release); // odd: write in flight
        slot.words[0].store(span.trace_id, Ordering::Relaxed);
        slot.words[1].store(span.start_ns, Ordering::Relaxed);
        slot.words[2].store(span.end_ns, Ordering::Relaxed);
        slot.words[3].store(span.pack_meta(), Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(2), Ordering::Release); // even: consistent
        self.cursor.store(cursor + 1, Ordering::Release);
    }

    /// Collect every consistent span matching `pred`. Readers never block
    /// the writer; a slot being rewritten mid-read is skipped.
    fn collect_if(&self, pred: &dyn Fn(u64) -> bool, out: &mut Vec<PhaseSpan>) {
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue; // never written, or write in flight
            }
            let trace_id = slot.words[0].load(Ordering::Relaxed);
            let start_ns = slot.words[1].load(Ordering::Relaxed);
            let end_ns = slot.words[2].load(Ordering::Relaxed);
            let meta = slot.words[3].load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // torn: overwritten while reading
            }
            if trace_id != 0 && pred(trace_id) {
                if let Some(span) = PhaseSpan::unpack(trace_id, start_ns, end_ns, meta) {
                    out.push(span);
                }
            }
        }
    }
}

/// A slow request retained in full: its phase spans, gathered from every
/// thread's ring at completion time.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The request's trace id.
    pub trace_id: u64,
    /// End-to-end latency in nanoseconds (as reported by the completer).
    pub total_ns: u64,
    /// Phase spans sorted by start time. May miss phases if the rings
    /// wrapped between recording and capture (unlikely: rings remember
    /// ~90 requests).
    pub spans: Vec<PhaseSpan>,
}

/// Reservoir + ring registry. Cloning shares the sink.
///
/// Capture policy: a completed request is captured when its end-to-end
/// latency is at least `threshold_ns` AND it either fits in the reservoir
/// (fewer than `top_k` exemplars) or beats the current slowest-K floor.
/// `threshold_ns = 0` gives pure top-K; a high threshold with a large K
/// gives pure thresholding.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

struct SinkInner {
    id: usize,
    threshold_ns: u64,
    top_k: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    exemplars: Mutex<Vec<Exemplar>>,
    /// Latency of the K-th slowest captured exemplar once the reservoir is
    /// full (else 0): the lock-free fast-path floor for `complete`.
    floor_ns: AtomicU64,
    captured: AtomicU64,
    completed: AtomicU64,
}

thread_local! {
    /// This thread's rings, one per sink it has recorded into. Requests
    /// touch 2 threads (connection + worker); a handful of sinks exist per
    /// process, so a linear scan beats a map.
    static THREAD_RINGS: std::cell::RefCell<Vec<(usize, Arc<Ring>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

static NEXT_SINK_ID: AtomicUsize = AtomicUsize::new(1);

impl TraceSink {
    /// A sink capturing up to `top_k` exemplars among completions at or
    /// above `threshold_ns` end-to-end.
    pub fn new(threshold_ns: u64, top_k: usize) -> TraceSink {
        TraceSink {
            inner: Arc::new(SinkInner {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                threshold_ns,
                top_k: top_k.max(1),
                rings: Mutex::new(Vec::new()),
                exemplars: Mutex::new(Vec::new()),
                floor_ns: AtomicU64::new(0),
                captured: AtomicU64::new(0),
                completed: AtomicU64::new(0),
            }),
        }
    }

    /// Record one phase span into the calling thread's ring. Lock-free and
    /// allocation-free after the thread's first record.
    pub fn record(&self, span: PhaseSpan) {
        debug_assert!(span.trace_id != 0, "phase span without a trace id");
        THREAD_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            if let Some((_, ring)) = rings.iter().find(|(id, _)| *id == self.inner.id) {
                ring.push(&span);
                return;
            }
            let ring = Arc::new(Ring::new());
            ring.push(&span);
            self.inner.rings.lock().expect("trace sink rings lock").push(Arc::clone(&ring));
            rings.push((self.inner.id, ring));
        });
    }

    /// Declare a request finished with the given end-to-end latency, and
    /// capture it as an exemplar if it clears the threshold and the top-K
    /// floor. Returns whether it was captured.
    ///
    /// Fast path (the overwhelming majority of requests): two relaxed
    /// atomic ops and a compare — no lock, no ring scan.
    pub fn complete(&self, trace_id: TraceId, total_ns: u64) -> bool {
        self.inner.completed.fetch_add(1, Ordering::Relaxed);
        if total_ns < self.inner.threshold_ns {
            return false;
        }
        let floor = self.inner.floor_ns.load(Ordering::Relaxed);
        if floor > 0 && total_ns <= floor {
            return false;
        }
        self.capture(trace_id, total_ns)
    }

    /// Slow path: gather the trace's spans from every ring and insert into
    /// the reservoir, evicting the fastest exemplar when full.
    fn capture(&self, trace_id: TraceId, total_ns: u64) -> bool {
        let mut spans = Vec::new();
        {
            let rings = self.inner.rings.lock().expect("trace sink rings lock");
            let want = trace_id.raw();
            for ring in rings.iter() {
                ring.collect_if(&|id| id == want, &mut spans);
            }
        }
        spans.sort_by_key(|s| (s.start_ns, s.phase as u8));
        spans.dedup();
        let mut pool = self.inner.exemplars.lock().expect("trace sink exemplar lock");
        // Re-check the floor under the lock (a racing capture may have
        // raised it past us).
        if pool.len() >= self.inner.top_k {
            let min = pool.last().map(|e| e.total_ns).unwrap_or(0);
            if total_ns <= min {
                return false;
            }
            pool.pop();
        }
        let at = pool.partition_point(|e| e.total_ns > total_ns);
        pool.insert(at, Exemplar { trace_id: trace_id.raw(), total_ns, spans });
        if pool.len() >= self.inner.top_k {
            self.inner
                .floor_ns
                .store(pool.last().map(|e| e.total_ns).unwrap_or(0), Ordering::Relaxed);
        }
        self.inner.captured.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Captured exemplars, slowest first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        self.inner.exemplars.lock().expect("trace sink exemplar lock").clone()
    }

    /// `(completed requests, captured exemplars)` since creation.
    pub fn totals(&self) -> (u64, u64) {
        (self.inner.completed.load(Ordering::Relaxed), self.inner.captured.load(Ordering::Relaxed))
    }

    /// The configured capture threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.inner.threshold_ns
    }

    /// The configured reservoir capacity.
    pub fn top_k(&self) -> usize {
        self.inner.top_k
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (completed, captured) = self.totals();
        f.debug_struct("TraceSink")
            .field("threshold_ns", &self.inner.threshold_ns)
            .field("top_k", &self.inner.top_k)
            .field("completed", &completed)
            .field("captured", &captured)
            .finish()
    }
}

/// The per-phase latency histograms, preregistered so the request path
/// indexes an array instead of hashing metric names.
#[derive(Clone)]
pub struct PhaseHistograms {
    hists: [crate::metrics::Histogram; Phase::COUNT],
}

impl PhaseHistograms {
    /// Register (or look up) every phase histogram in `registry`.
    pub fn register(registry: &crate::metrics::Registry) -> PhaseHistograms {
        PhaseHistograms { hists: Phase::ALL.map(|p| registry.histogram(p.metric_name())) }
    }

    /// Record a phase span's duration into its phase's histogram.
    pub fn record(&self, span: &PhaseSpan) {
        self.hists[span.phase as usize].record(span.duration_ns());
    }

    /// Per-phase aggregate summaries in phase order — what the `stats`
    /// admin op serves so operators get the attribution without a
    /// Prometheus scrape.
    pub fn summaries(&self) -> Vec<(Phase, crate::metrics::HistogramSummary)> {
        Phase::ALL.iter().map(|&p| (p, self.hists[p as usize].summary())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, phase: Phase, start: u64, end: u64) -> PhaseSpan {
        PhaseSpan {
            trace_id: trace,
            phase,
            start_ns: start,
            end_ns: end,
            queue_depth: 0,
            swap_in_progress: false,
        }
    }

    #[test]
    fn phase_names_and_metrics_pair_up() {
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL must be in discriminant order");
            assert_eq!(Phase::from_index(i as u8), Some(*p));
            let expect = format!("serve.phase.{}_ns", p.name());
            assert_eq!(p.metric_name(), expect, "metric name out of step with phase name");
        }
        assert_eq!(Phase::from_index(Phase::COUNT as u8), None);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let ids: std::collections::BTreeSet<u64> =
            (0..10_000).map(|_| TraceId::generate().raw()).collect();
        assert_eq!(ids.len(), 10_000);
        assert!(!ids.contains(&0));
        assert_eq!(TraceId::from_wire(0), None);
        assert_eq!(TraceId::from_wire(42).map(TraceId::raw), Some(42));
    }

    #[test]
    fn spans_pack_and_unpack_losslessly() {
        let s = PhaseSpan {
            trace_id: 0xDEAD_BEEF,
            phase: Phase::Score,
            start_ns: 123,
            end_ns: 456,
            queue_depth: 7,
            swap_in_progress: true,
        };
        let back = PhaseSpan::unpack(s.trace_id, s.start_ns, s.end_ns, s.pack_meta()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.duration_ns(), 333);
    }

    #[test]
    fn recorded_spans_are_collectable_by_trace_id() {
        let sink = TraceSink::new(0, 4);
        for p in Phase::ALL {
            sink.record(span(11, p, 10, 20));
        }
        sink.record(span(22, Phase::Score, 30, 40));
        assert!(sink.complete(TraceId::from_wire(11).unwrap(), 1000));
        let ex = sink.exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].trace_id, 11);
        assert_eq!(ex[0].spans.len(), Phase::COUNT, "all phases of trace 11, none of 22");
    }

    #[test]
    fn reservoir_keeps_the_top_k_slowest() {
        let sink = TraceSink::new(0, 3);
        // Shuffled insertion order; only the 3 slowest must survive.
        for (trace, total) in [(1u64, 50u64), (2, 900), (3, 10), (4, 700), (5, 800), (6, 40)] {
            sink.record(span(trace, Phase::Score, 0, total));
            sink.complete(TraceId::from_wire(trace).unwrap(), total);
        }
        let totals: Vec<u64> = sink.exemplars().iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, vec![900, 800, 700]);
    }

    #[test]
    fn threshold_filters_fast_requests() {
        let sink = TraceSink::new(500, 8);
        sink.record(span(1, Phase::Score, 0, 100));
        assert!(!sink.complete(TraceId::from_wire(1).unwrap(), 100));
        sink.record(span(2, Phase::Score, 0, 600));
        assert!(sink.complete(TraceId::from_wire(2).unwrap(), 600));
        assert_eq!(sink.exemplars().len(), 1);
        assert_eq!(sink.totals(), (2, 1));
    }

    #[test]
    fn ring_wraps_without_corruption() {
        let sink = TraceSink::new(0, 2);
        for i in 0..(RING_CAPACITY as u64 * 2 + 17) {
            sink.record(span(i + 1, Phase::Parse, i, i + 1));
        }
        // The last write is intact and collectable.
        let last = RING_CAPACITY as u64 * 2 + 17;
        assert!(sink.complete(TraceId::from_wire(last).unwrap(), 999));
        let ex = sink.exemplars();
        assert_eq!(ex[0].spans.len(), 1);
        assert_eq!(ex[0].spans[0].start_ns, last - 1);
        // A wrapped-away trace yields an exemplar with no spans, not junk.
        assert!(sink.complete(TraceId::from_wire(1).unwrap(), 1000));
        assert!(sink.exemplars().iter().any(|e| e.trace_id == 1 && e.spans.is_empty()));
    }

    #[test]
    fn cross_thread_spans_join_one_exemplar() {
        let sink = TraceSink::new(0, 2);
        sink.record(span(77, Phase::Accept, 0, 5));
        let s2 = sink.clone();
        std::thread::spawn(move || {
            s2.record(span(77, Phase::Score, 10, 30));
        })
        .join()
        .unwrap();
        assert!(sink.complete(TraceId::from_wire(77).unwrap(), 35));
        let ex = sink.exemplars();
        assert_eq!(ex[0].spans.len(), 2);
        assert_eq!(ex[0].spans[0].phase, Phase::Accept, "sorted by start time");
        assert_eq!(ex[0].spans[1].phase, Phase::Score);
    }

    #[test]
    fn phase_histograms_attribute_durations() {
        let reg = crate::metrics::Registry::new();
        let hists = PhaseHistograms::register(&reg);
        hists.record(&span(1, Phase::Score, 1000, 3000));
        hists.record(&span(1, Phase::Write, 0, 100));
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("serve.phase.score_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("serve.phase.score_ns").unwrap().sum, 2000);
        assert_eq!(snap.histogram("serve.phase.write_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("serve.phase.enqueue_ns").unwrap().count, 0);
    }

    #[test]
    fn concurrent_recording_and_capture_is_safe() {
        let sink = TraceSink::new(0, 8);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sink = sink.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let id = t * 1000 + i + 1;
                    sink.record(span(id, Phase::Score, i, i + 10));
                    sink.complete(TraceId::from_wire(id).unwrap(), i + 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ex = sink.exemplars();
        assert_eq!(ex.len(), 8);
        // Slowest-first ordering is maintained under concurrency.
        for w in ex.windows(2) {
            assert!(w[0].total_ns >= w[1].total_ns);
        }
        assert_eq!(sink.totals().0, 2000);
    }
}
