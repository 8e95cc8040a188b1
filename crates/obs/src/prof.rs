//! Cooperative sampling profiler over per-thread **tag stacks**.
//!
//! The serve plane's phase histograms (PR 6) say *which phase* of a request
//! was slow; this module says *where CPU time and allocations go inside a
//! phase*. The design mirrors the trace rings in [`crate::trace`]:
//!
//! - Each profiled thread owns a [`TagSlot`]: a fixed array of label frames
//!   published through a **seqlock** (odd sequence = mid-write). Entering a
//!   tag ([`Profiler::enter`]) is a handful of relaxed/release stores on the
//!   owning thread — no locks, no allocation after the first tag per thread.
//! - A background **sampler thread** periodically snapshots every thread's
//!   stack through the seqlock (retrying torn reads) and accumulates folded
//!   stack counts, from which it renders collapsed-stack (flamegraph
//!   "folded") output and top-K self/total tables.
//! - An opt-in [`TagAlloc`] `GlobalAlloc` wrapper attributes allocation
//!   bytes/counts to the calling thread's current tag through a fixed table
//!   of atomics — it takes no locks and never allocates, so it cannot
//!   deadlock even when the sampler itself allocates, and a thread-local
//!   reentrancy guard makes nested bookkeeping a counted no-op.
//!
//! Tags are interned process-wide (content-keyed, pointer-cached per
//! thread), so ids are stable across profilers and the allocator table.
//! Guards must nest LIFO — the natural shape of RAII scopes.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::metrics::{Counter, Gauge, Registry};

/// Maximum published stack depth; deeper frames are counted as truncated
/// and attributed to their deepest published ancestor.
pub const MAX_DEPTH: usize = 16;

/// Tag ids at or above this are folded into the "untagged" allocator row
/// (the sampler still sees them; only the fixed alloc table is bounded).
pub const MAX_ALLOC_TAGS: usize = 256;

// ---------------------------------------------------------------------------
// Process-wide tag interning

/// Content-keyed intern table; index 0 is reserved for "untagged".
static TAG_TABLE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-thread pointer-keyed cache of interned ids (tags are `'static`
    /// literals, so the pointer is a stable fast key; content collisions
    /// across crates still unify because the slow path compares content).
    static TAG_CACHE: RefCell<Vec<(usize, u16)>> = const { RefCell::new(Vec::new()) };
    /// Innermost tag id on this thread (0 = untagged); what [`TagAlloc`]
    /// attributes allocations to.
    static CURRENT_TAG: Cell<u16> = const { Cell::new(0) };
    /// Reentrancy guard for allocator bookkeeping.
    static IN_ALLOC_HOOK: Cell<bool> = const { Cell::new(false) };
}

/// Intern a tag, returning its process-wide id.
fn intern(tag: &'static str) -> u16 {
    let key = tag.as_ptr() as usize;
    let cached = TAG_CACHE.with(|c| c.borrow().iter().find(|(p, _)| *p == key).map(|&(_, id)| id));
    if let Some(id) = cached {
        return id;
    }
    let mut table = TAG_TABLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if table.is_empty() {
        table.push("untagged");
    }
    let id = match table.iter().position(|t| *t == tag) {
        Some(i) => i as u16,
        None => {
            assert!(table.len() < u16::MAX as usize, "tag intern table overflow");
            table.push(tag);
            (table.len() - 1) as u16
        }
    };
    drop(table);
    TAG_CACHE.with(|c| c.borrow_mut().push((key, id)));
    id
}

/// Snapshot of the intern table (index = tag id). Index 0 is "untagged"
/// once any tag has been interned.
pub fn tag_names() -> Vec<&'static str> {
    TAG_TABLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

fn tag_name(names: &[&'static str], id: u16) -> &'static str {
    names.get(id as usize).copied().unwrap_or("?")
}

// ---------------------------------------------------------------------------
// Per-thread tag slots (seqlock-published, same idiom as trace::Ring)

/// One thread's published tag stack. The owning thread is the only writer;
/// the sampler reads through the seqlock and discards torn snapshots.
struct TagSlot {
    /// Seqlock: odd while the owner is mid-update.
    seq: AtomicU64,
    /// Published depth (≤ [`MAX_DEPTH`]).
    depth: AtomicU64,
    /// Logical depth including truncated frames (owner-written, relaxed).
    logical: AtomicU64,
    /// Published frames, innermost last; each word is a tag id.
    frames: [AtomicU64; MAX_DEPTH],
}

impl TagSlot {
    fn new() -> TagSlot {
        TagSlot {
            seq: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            logical: AtomicU64::new(0),
            frames: [const { AtomicU64::new(0) }; MAX_DEPTH],
        }
    }

    /// Owner-side push. Seqlock write protocol (see `trace::Ring::push`):
    /// odd seq → payload → even seq, Release on both seq stores so a reader
    /// that observes the even value observes the payload.
    fn push(&self, id: u16) {
        let logical = self.logical.load(Ordering::Relaxed);
        if (logical as usize) < MAX_DEPTH {
            let s = self.seq.load(Ordering::Relaxed);
            self.seq.store(s.wrapping_add(1), Ordering::Release);
            self.frames[logical as usize].store(u64::from(id), Ordering::Relaxed);
            self.depth.store(logical + 1, Ordering::Relaxed);
            self.seq.store(s.wrapping_add(2), Ordering::Release);
        } else {
            TRUNCATED_FRAMES.fetch_add(1, Ordering::Relaxed);
        }
        self.logical.store(logical + 1, Ordering::Relaxed);
    }

    /// Owner-side pop. Returns true if the popped frame had been published
    /// (false = it was a truncated overflow frame).
    fn pop(&self) -> bool {
        let logical = self.logical.load(Ordering::Relaxed);
        debug_assert!(logical > 0, "tag stack underflow");
        let published = logical as usize <= MAX_DEPTH;
        if published {
            let s = self.seq.load(Ordering::Relaxed);
            self.seq.store(s.wrapping_add(1), Ordering::Release);
            self.depth.store(logical - 1, Ordering::Relaxed);
            self.seq.store(s.wrapping_add(2), Ordering::Release);
        }
        self.logical.store(logical.saturating_sub(1), Ordering::Relaxed);
        published
    }

    /// Sampler-side snapshot into `out`. `Ok(())` on a consistent read
    /// (possibly empty), `Err(())` after exhausting retries on torn reads.
    fn read_into(&self, out: &mut Vec<u16>) -> Result<(), ()> {
        for _ in 0..4 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
            out.clear();
            for frame in &self.frames[..depth] {
                out.push(frame.load(Ordering::Relaxed) as u16);
            }
            if self.seq.load(Ordering::Acquire) == s1 {
                return Ok(());
            }
        }
        Err(())
    }
}

thread_local! {
    /// (profiler id, this thread's slot) pairs, mirroring `THREAD_RINGS`
    /// in `trace.rs`: the slot is created lazily on first `enter` and
    /// registered with the profiler's slot list.
    static THREAD_SLOTS: RefCell<Vec<(usize, Arc<TagSlot>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_PROFILER_ID: AtomicU64 = AtomicU64::new(1);

// ---------------------------------------------------------------------------
// Profiler

struct ProfMetrics {
    samples: Counter,
    torn: Counter,
    truncated: Gauge,
    threads: Gauge,
    stacks: Gauge,
    alloc_bytes: Gauge,
    allocs: Gauge,
}

struct ProfInner {
    id: usize,
    interval: Duration,
    slots: Mutex<Vec<Arc<TagSlot>>>,
    /// Folded stack → sample count, accumulated by the sampler.
    stacks: Mutex<BTreeMap<Vec<u16>, u64>>,
    samples: AtomicU64,
    sweeps: AtomicU64,
    torn: AtomicU64,
    stop: AtomicBool,
    sampler: Mutex<Option<std::thread::JoinHandle<()>>>,
    metrics: OnceLock<ProfMetrics>,
}

/// Handle to a sampling profiler. Cheap to clone; a disabled profiler's
/// guards are inert (one branch on the enter path).
#[derive(Clone)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Profiler")
                .field("id", &inner.id)
                .field("interval", &inner.interval)
                .finish_non_exhaustive(),
            None => f.write_str("Profiler(disabled)"),
        }
    }
}

/// RAII frame on the calling thread's tag stack; pops on drop. Guards must
/// be dropped in LIFO order (the natural shape of nested scopes).
pub struct TagGuard {
    slot: Option<Arc<TagSlot>>,
    prev_tag: u16,
}

impl Drop for TagGuard {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            slot.pop();
            CURRENT_TAG.with(|c| c.set(self.prev_tag));
        }
    }
}

/// One tag's aggregate standing in the sampled profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagStat {
    pub tag: String,
    /// Samples where this tag was the innermost frame.
    pub self_samples: u64,
    /// Samples where this tag appeared anywhere on the stack.
    pub total_samples: u64,
}

/// Profile summary for reports and the `profile` admin op.
#[derive(Clone, Debug)]
pub struct ProfReport {
    /// Non-empty stack snapshots accumulated.
    pub samples: u64,
    /// Sampler passes over all registered threads.
    pub sweeps: u64,
    /// Snapshots abandoned after repeated torn seqlock reads.
    pub torn: u64,
    /// Frames pushed beyond [`MAX_DEPTH`] (attributed to their ancestor).
    pub truncated: u64,
    /// Threads that have registered a tag slot.
    pub threads: usize,
    /// Distinct folded stacks observed.
    pub distinct_stacks: usize,
    /// Per-tag self/total table, descending by self then total samples.
    pub top: Vec<TagStat>,
}

impl Profiler {
    /// An enabled profiler sampling every `interval` once started.
    pub fn new(interval: Duration) -> Profiler {
        Profiler {
            inner: Some(Arc::new(ProfInner {
                id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed) as usize,
                interval,
                slots: Mutex::new(Vec::new()),
                stacks: Mutex::new(BTreeMap::new()),
                samples: AtomicU64::new(0),
                sweeps: AtomicU64::new(0),
                torn: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                sampler: Mutex::new(None),
                metrics: OnceLock::new(),
            })),
        }
    }

    /// A disabled profiler: `enter` returns inert guards, sampling is a
    /// no-op. This is the zero-overhead default for production paths.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// Whether tag frames are being published.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register `obs.prof.*` metrics in `registry`; the sampler refreshes
    /// them once per sweep. Idempotent (first registry wins).
    pub fn attach_metrics(&self, registry: &Registry) {
        if let Some(inner) = &self.inner {
            let _ = inner.metrics.set(ProfMetrics {
                samples: registry.counter("obs.prof.samples"),
                torn: registry.counter("obs.prof.torn"),
                truncated: registry.gauge("obs.prof.truncated"),
                threads: registry.gauge("obs.prof.threads"),
                stacks: registry.gauge("obs.prof.stacks"),
                alloc_bytes: registry.gauge("obs.prof.alloc_bytes"),
                allocs: registry.gauge("obs.prof.allocs"),
            });
        }
    }

    /// Push a label frame on the calling thread's tag stack.
    #[inline]
    pub fn enter(&self, tag: &'static str) -> TagGuard {
        let Some(inner) = &self.inner else {
            return TagGuard { slot: None, prev_tag: 0 };
        };
        let id = intern(tag);
        let slot = self.thread_slot(inner);
        slot.push(id);
        let prev_tag = CURRENT_TAG.with(|c| {
            let prev = c.get();
            c.set(id);
            prev
        });
        TagGuard { slot: Some(slot), prev_tag }
    }

    /// This thread's slot for this profiler, created and registered on
    /// first use (one lock acquisition per thread lifetime).
    fn thread_slot(&self, inner: &Arc<ProfInner>) -> Arc<TagSlot> {
        THREAD_SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            if let Some((_, slot)) = slots.iter().find(|(id, _)| *id == inner.id) {
                return Arc::clone(slot);
            }
            let slot = Arc::new(TagSlot::new());
            inner
                .slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Arc::clone(&slot));
            slots.push((inner.id, Arc::clone(&slot)));
            slot
        })
    }

    /// One sampling sweep over every registered thread. The sampler thread
    /// calls this on its cadence; tests can drive it manually.
    pub fn sample_once(&self) {
        let Some(inner) = &self.inner else { return };
        let slots: Vec<Arc<TagSlot>> =
            inner.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        let mut stack = Vec::with_capacity(MAX_DEPTH);
        let mut sampled = 0u64;
        let mut torn = 0u64;
        {
            let mut stacks = inner.stacks.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for slot in &slots {
                match slot.read_into(&mut stack) {
                    Ok(()) if stack.is_empty() => {}
                    Ok(()) => {
                        *stacks.entry(stack.clone()).or_insert(0) += 1;
                        sampled += 1;
                    }
                    Err(()) => torn += 1,
                }
            }
        }
        inner.samples.fetch_add(sampled, Ordering::Relaxed);
        inner.sweeps.fetch_add(1, Ordering::Relaxed);
        inner.torn.fetch_add(torn, Ordering::Relaxed);
        if let Some(m) = inner.metrics.get() {
            m.samples.add(sampled);
            m.torn.add(torn);
            m.truncated.set(truncated_frames() as f64);
            m.threads.set(slots.len() as f64);
            m.stacks
                .set(inner.stacks.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
                    as f64);
            let (bytes, count) = alloc_totals();
            m.alloc_bytes.set(bytes as f64);
            m.allocs.set(count as f64);
        }
    }

    /// Spawn the sampler thread. Idempotent; no-op when disabled.
    pub fn start(&self) {
        let Some(inner) = &self.inner else { return };
        let mut sampler = inner.sampler.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if sampler.is_some() {
            return;
        }
        inner.stop.store(false, Ordering::Release);
        let prof = self.clone();
        let interval = inner.interval;
        let stop = Arc::clone(inner);
        *sampler = Some(
            std::thread::Builder::new()
                .name("obs-prof".into())
                .spawn(move || {
                    while !stop.stop.load(Ordering::Acquire) {
                        prof.sample_once();
                        std::thread::park_timeout(interval);
                    }
                })
                // gate: allow(expect) — thread spawn failing at startup is fatal
                .expect("spawn obs-prof sampler"),
        );
    }

    /// Stop and join the sampler thread. Idempotent.
    pub fn stop(&self) {
        let Some(inner) = &self.inner else { return };
        let handle = {
            let mut sampler =
                inner.sampler.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            inner.stop.store(true, Ordering::Release);
            sampler.take()
        };
        if let Some(handle) = handle {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }

    /// Profile summary with the `k` hottest tags by self samples.
    pub fn report(&self, k: usize) -> ProfReport {
        let Some(inner) = &self.inner else {
            return ProfReport {
                samples: 0,
                sweeps: 0,
                torn: 0,
                truncated: 0,
                threads: 0,
                distinct_stacks: 0,
                top: Vec::new(),
            };
        };
        let stacks = inner.stacks.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let names = tag_names();
        let mut per_tag: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
        for (stack, &count) in stacks.iter() {
            if let Some(&leaf) = stack.last() {
                per_tag.entry(leaf).or_insert((0, 0)).0 += count;
            }
            let mut seen = [false; MAX_DEPTH];
            for (i, &id) in stack.iter().enumerate() {
                if stack[..i].contains(&id) {
                    seen[i] = true; // duplicate of an outer frame: count once
                }
            }
            for (i, &id) in stack.iter().enumerate() {
                if !seen[i] {
                    per_tag.entry(id).or_insert((0, 0)).1 += count;
                }
            }
        }
        let mut top: Vec<TagStat> = per_tag
            .into_iter()
            .map(|(id, (self_samples, total_samples))| TagStat {
                tag: tag_name(&names, id).to_string(),
                self_samples,
                total_samples,
            })
            .collect();
        top.sort_by(|a, b| {
            (b.self_samples, b.total_samples, &a.tag).cmp(&(
                a.self_samples,
                a.total_samples,
                &b.tag,
            ))
        });
        top.truncate(k);
        ProfReport {
            samples: inner.samples.load(Ordering::Relaxed),
            sweeps: inner.sweeps.load(Ordering::Relaxed),
            torn: inner.torn.load(Ordering::Relaxed),
            truncated: truncated_frames(),
            threads: inner.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len(),
            distinct_stacks: stacks.len(),
            top,
        }
    }

    /// Collapsed-stack ("folded") output: one `tag;tag;tag count` line per
    /// distinct stack — the input format flamegraph tooling consumes.
    pub fn folded(&self) -> String {
        let Some(inner) = &self.inner else { return String::new() };
        let stacks = inner.stacks.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let names = tag_names();
        let mut out = String::new();
        for (stack, count) in stacks.iter() {
            for (i, &id) in stack.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                out.push_str(tag_name(&names, id));
            }
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Allocation attribution (opt-in GlobalAlloc wrapper)

/// Fixed per-tag allocation counters: no locks, no allocation, safe to hit
/// from inside the global allocator.
struct AllocTable {
    bytes: [AtomicU64; MAX_ALLOC_TAGS],
    counts: [AtomicU64; MAX_ALLOC_TAGS],
    reentrant: AtomicU64,
}

static ALLOC_TABLE: AllocTable = AllocTable {
    bytes: [const { AtomicU64::new(0) }; MAX_ALLOC_TAGS],
    counts: [const { AtomicU64::new(0) }; MAX_ALLOC_TAGS],
    reentrant: AtomicU64::new(0),
};

static TRUNCATED_FRAMES: AtomicU64 = AtomicU64::new(0);

/// Frames pushed beyond [`MAX_DEPTH`] process-wide.
pub fn truncated_frames() -> u64 {
    TRUNCATED_FRAMES.load(Ordering::Relaxed)
}

/// Attribute one allocation of `bytes` to the calling thread's current
/// tag. Returns `false` when skipped by the reentrancy guard (the skip is
/// counted, never double-booked). Lock-free and allocation-free.
#[inline]
pub fn note_alloc(bytes: usize) -> bool {
    IN_ALLOC_HOOK.with(|flag| {
        if flag.get() {
            ALLOC_TABLE.reentrant.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        flag.set(true);
        let tag = CURRENT_TAG.with(Cell::get) as usize;
        let row = if tag < MAX_ALLOC_TAGS { tag } else { 0 };
        ALLOC_TABLE.bytes[row].fetch_add(bytes as u64, Ordering::Relaxed);
        ALLOC_TABLE.counts[row].fetch_add(1, Ordering::Relaxed);
        flag.set(false);
        true
    })
}

/// Simulate an allocation arriving while the hook is already on the
/// stack — the reentrancy case the guard must turn into a counted no-op.
/// Test-support; returns what [`note_alloc`] returned.
#[doc(hidden)]
pub fn note_alloc_reentrant(bytes: usize) -> bool {
    IN_ALLOC_HOOK.with(|flag| {
        flag.set(true);
        let attributed = note_alloc(bytes);
        flag.set(false);
        attributed
    })
}

/// Allocations skipped by the reentrancy guard.
pub fn reentrant_allocs() -> u64 {
    ALLOC_TABLE.reentrant.load(Ordering::Relaxed)
}

/// `(bytes, count)` attributed to one tag id so far.
pub fn alloc_stats(tag_id: u16) -> (u64, u64) {
    let row = (tag_id as usize).min(MAX_ALLOC_TAGS - 1);
    (
        ALLOC_TABLE.bytes[row].load(Ordering::Relaxed),
        ALLOC_TABLE.counts[row].load(Ordering::Relaxed),
    )
}

/// `(bytes, count)` attributed to a tag by name (0 if never interned).
pub fn alloc_stats_named(tag: &str) -> (u64, u64) {
    let names = tag_names();
    match names.iter().position(|t| *t == tag) {
        Some(id) => alloc_stats(id as u16),
        None => (0, 0),
    }
}

/// Process-wide `(bytes, count)` totals across all tags.
pub fn alloc_totals() -> (u64, u64) {
    let mut bytes = 0u64;
    let mut count = 0u64;
    for i in 0..MAX_ALLOC_TAGS {
        bytes += ALLOC_TABLE.bytes[i].load(Ordering::Relaxed);
        count += ALLOC_TABLE.counts[i].load(Ordering::Relaxed);
    }
    (bytes, count)
}

/// Per-tag allocation table: `(tag, bytes, count)` for every non-zero row,
/// descending by bytes.
pub fn alloc_table() -> Vec<(String, u64, u64)> {
    let names = tag_names();
    let mut rows = Vec::new();
    for i in 0..MAX_ALLOC_TAGS {
        let bytes = ALLOC_TABLE.bytes[i].load(Ordering::Relaxed);
        let count = ALLOC_TABLE.counts[i].load(Ordering::Relaxed);
        if bytes > 0 || count > 0 {
            rows.push((tag_name(&names, i as u16).to_string(), bytes, count));
        }
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// Opt-in `GlobalAlloc` wrapper attributing allocations to the calling
/// thread's current tag. Install per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: lite_obs::prof::TagAlloc<std::alloc::System> =
///     lite_obs::prof::TagAlloc::new(std::alloc::System);
/// ```
pub struct TagAlloc<A> {
    inner: A,
}

impl<A> TagAlloc<A> {
    pub const fn new(inner: A) -> TagAlloc<A> {
        TagAlloc { inner }
    }
}

// SAFETY: delegates every allocation verbatim to the wrapped allocator;
// the bookkeeping side channel is lock-free, allocation-free, and guarded
// against reentrancy, so it upholds GlobalAlloc's reentrancy contract.
unsafe impl<A: GlobalAlloc> GlobalAlloc for TagAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.inner.realloc(ptr, layout, new_size);
        if !p.is_null() && new_size > layout.size() {
            note_alloc(new_size - layout.size());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_content_keyed_and_stable() {
        let a = intern("prof.test.alpha");
        let b = intern("prof.test.beta");
        assert_ne!(a, b);
        assert_eq!(intern("prof.test.alpha"), a);
        let names = tag_names();
        assert_eq!(tag_name(&names, a), "prof.test.alpha");
        assert_eq!(names[0], "untagged");
    }

    #[test]
    fn enter_publishes_and_pop_restores() {
        let prof = Profiler::new(Duration::from_millis(1));
        {
            let _a = prof.enter("prof.test.outer");
            {
                let _b = prof.enter("prof.test.inner");
                prof.sample_once();
            }
            prof.sample_once();
        }
        prof.sample_once(); // empty stack: not sampled
        let report = prof.report(10);
        assert_eq!(report.samples, 2);
        assert_eq!(report.sweeps, 3);
        assert_eq!(report.distinct_stacks, 2);
        let folded = prof.folded();
        assert!(folded.contains("prof.test.outer;prof.test.inner 1"), "{folded}");
        assert!(folded.contains("prof.test.outer 1"), "{folded}");
        let inner =
            report.top.iter().find(|t| t.tag == "prof.test.inner").expect("inner tag present");
        assert_eq!((inner.self_samples, inner.total_samples), (1, 1));
        let outer =
            report.top.iter().find(|t| t.tag == "prof.test.outer").expect("outer tag present");
        assert_eq!((outer.self_samples, outer.total_samples), (1, 2));
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let prof = Profiler::disabled();
        let _g = prof.enter("prof.test.disabled");
        prof.sample_once();
        assert_eq!(prof.report(4).samples, 0);
        assert!(prof.folded().is_empty());
        assert!(!prof.is_enabled());
    }

    #[test]
    fn depth_overflow_truncates_without_corruption() {
        let prof = Profiler::new(Duration::from_millis(1));
        let before = truncated_frames();
        let mut guards = Vec::new();
        for _ in 0..MAX_DEPTH + 3 {
            guards.push(prof.enter("prof.test.deep"));
        }
        prof.sample_once();
        assert!(truncated_frames() >= before + 3, "3 frames pushed past MAX_DEPTH");
        drop(guards);
        {
            let _g = prof.enter("prof.test.after_overflow");
            prof.sample_once();
        }
        let folded = prof.folded();
        assert!(folded.contains("prof.test.after_overflow 1"), "{folded}");
    }

    #[test]
    fn sampler_thread_sees_concurrent_stacks() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let prof = Profiler::new(Duration::from_micros(200));
        prof.start();
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let p = prof.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let _outer = p.enter("prof.test.thread");
                while !done.load(Ordering::Relaxed) {
                    let _inner = p.enter("prof.test.spin");
                    std::hint::black_box(0u64);
                }
            }));
        }
        // Workers spin until the sampler has provably seen all three of
        // them — a fixed spin window flakes when the host is loaded and
        // the sampler thread is starved past it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let observed = loop {
            let report = prof.report(8);
            if report.samples > 0
                && report.threads >= 3
                && report.top.iter().any(|t| t.tag == "prof.test.spin")
            {
                break report;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sampler never saw all 3 spinning threads: {report:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        done.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("worker join");
        }
        prof.stop();
        prof.stop(); // idempotent
        let report = prof.report(8);
        assert!(report.samples >= observed.samples);
        assert!(report.threads >= 3);
        assert!(report.top.iter().any(|t| t.tag == "prof.test.spin"), "{report:?}");
    }

    #[test]
    fn alloc_attribution_tracks_current_tag() {
        let prof = Profiler::new(Duration::from_millis(1));
        let (b0, c0) = alloc_stats_named("prof.test.allocsite");
        {
            let _g = prof.enter("prof.test.allocsite");
            assert!(note_alloc(1000));
            assert!(note_alloc(24));
        }
        assert!(note_alloc(7)); // untagged now
        let (b1, c1) = alloc_stats_named("prof.test.allocsite");
        assert_eq!(b1 - b0, 1024);
        assert_eq!(c1 - c0, 2);
        let table = alloc_table();
        assert!(table.iter().any(|(t, b, _)| t == "prof.test.allocsite" && *b >= 1024));
    }

    #[test]
    fn reentrant_allocs_are_skipped_not_double_counted() {
        let prof = Profiler::new(Duration::from_millis(1));
        let _g = prof.enter("prof.test.reentrant");
        let skips0 = reentrant_allocs();
        let (b0, c0) = alloc_stats_named("prof.test.reentrant");
        assert!(!note_alloc_reentrant(512));
        assert_eq!(reentrant_allocs(), skips0 + 1);
        let (b1, c1) = alloc_stats_named("prof.test.reentrant");
        assert_eq!((b1, c1), (b0, c0));
    }
}
