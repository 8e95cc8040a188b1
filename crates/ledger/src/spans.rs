//! Benchmark-side spans: name, start, end, parent, request id.
//!
//! Spans are recorded around the calls *into* each layer from the client
//! thread only (spans inside the program are a later change), kept in
//! memory for the whole run and written out at exit. Timestamps are the
//! ones the latency measurement already took, so recording costs one
//! `Vec::push`.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = u32;

/// "No parent" / "no request".
pub const NONE: u32 = u32::MAX;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Static span name (`layer.operation`).
    pub name: &'static str,
    /// Nanoseconds since the log's epoch when the span opened.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch when the span closed.
    pub end_ns: u64,
    /// The span that caused this one ([`NONE`] for roots).
    pub parent: SpanId,
    /// Request identifier shared by every span of one request.
    pub request: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only, single-threaded span store.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `t` (an instant taken by the caller's
    /// own latency measurement).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](SpanLog::close).
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u32) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    /// Close an open span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Record a span whose timestamps were already taken.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: u32,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        (self.spans.len() - 1) as SpanId
    }

    /// Every span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover (overlapping children are
    /// merged first; a child is clipped to its parent's interval).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                let p = &self.spans[s.parent as usize];
                let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if lo < hi {
                    children[s.parent as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Write the log as JSON lines (`name`, `start_ns`, `end_ns`,
    /// `self_ns`, `parent`, `request`; `-1` for none).
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let signed = |v: u32| if v == NONE { -1 } else { i64::from(v) };
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                signed(s.parent),
                signed(s.request)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_only_once() {
        let mut log = SpanLog::new();
        let root = log.record("request", 0, 100, NONE, 7);
        let a = log.record("a", 10, 40, root, 7);
        log.record("a.inner", 15, 25, a, 7); // grandchild: not root's business
        log.record("b", 50, 70, root, 7);
        let own = log.self_times_ns();
        assert_eq!(own[root as usize], 100 - 30 - 20);
        assert_eq!(own[a as usize], 30 - 10);
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let mut log = SpanLog::new();
        let root = log.record("request", 100, 200, NONE, 1);
        log.record("x", 110, 150, root, 1);
        log.record("y", 140, 170, root, 1); // overlaps x by 10
        log.record("z", 190, 260, root, 1); // overhangs the parent by 60
        log.record("w", 20, 90, root, 1); // entirely outside: covers nothing
        log.record("dup", 120, 130, root, 1); // inside x: adds nothing
        let own = log.self_times_ns();
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(own[root as usize], 100 - 60 - 10);
    }

    #[test]
    fn open_close_orders_timestamps() {
        let mut log = SpanLog::new();
        let id = log.open("probe", NONE, NONE);
        log.close(id);
        let s = &log.spans()[id as usize];
        assert!(s.end_ns >= s.start_ns);
        assert_eq!(s.parent, NONE);
    }
}
