//! Exporters: Prometheus text exposition and Chrome trace-event JSON.
//!
//! Both renderers are pure functions over already-captured data
//! ([`MetricsSnapshot`], `&[SpanRecord]`) so they can run anywhere — an
//! admin op handler, a bench binary writing artifacts, a test — without
//! touching the live registries.
//!
//! The Prometheus renderer emits text exposition format version 0.0.4:
//! one `# TYPE` line per metric, histograms as cumulative
//! `_bucket{le="..."}` series plus `_sum`/`_count`. Metric names are
//! sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*` (the registry's dotted names
//! become underscored) and label values are escaped per the spec.
//!
//! The Chrome renderer produces the trace-event JSON object format
//! (`{"traceEvents": [...]}`) loadable in Perfetto / `chrome://tracing`:
//! every span becomes a `B`/`E` duration pair, nested via the span's
//! parent chain, with attributes as `args`.
//!
//! The tail-forensics companion [`prometheus_text_with_exemplars`]
//! annotates histogram series with `# trace_id` comment lines linking a
//! latency bucket back to the slow request that fed it.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::span::{AttrValue, SpanRecord};
use std::fmt::Write as _;

/// Sanitize a registry metric name into a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other invalid characters become
/// underscores, and a leading digit gets an underscore prefix. Empty input
/// becomes `"_"`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if ok {
            out.push(ch);
        } else if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Render a float the way the exposition format expects (`+Inf`, `-Inf`,
/// `NaN` spellings for the non-finite values).
fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render a [`MetricsSnapshot`] as Prometheus text exposition (format
/// 0.0.4). Counters and gauges become single samples; histograms become
/// cumulative `_bucket{le="..."}` series (one per non-empty sketch bucket,
/// plus `+Inf`) with `_sum` and `_count`. The `+Inf` bucket and `_count`
/// both report the bucket total so the series is internally consistent
/// even when racing writers make the shard count differ transiently.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    prometheus_text_with_exemplars(snapshot, &[])
}

/// A tail-forensics exemplar annotation for one metric: `(metric name,
/// trace id, observed value)`. The metric name is sanitized the same way
/// as registry names before matching.
pub type PromExemplar = (String, u64, u64);

/// [`prometheus_text`] plus `# trace_id <metric> <id> <value>` annotation
/// comment lines after the histogram series each exemplar belongs to —
/// exemplar-style links from a latency histogram back to the slow request
/// that fed it. They are plain comments, so any 0.0.4 scraper ignores
/// them; exemplars naming a metric absent from the snapshot are appended
/// at the end rather than silently dropped.
pub fn prometheus_text_with_exemplars(
    snapshot: &MetricsSnapshot,
    exemplars: &[PromExemplar],
) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", render_value(*value));
    }
    let mut matched = vec![false; exemplars.len()];
    for (name, h) in &snapshot.histograms {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for &(upper, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(out, "{n}_bucket{{le=\"{upper}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {cumulative}");
        for (i, (metric, trace_id, value)) in exemplars.iter().enumerate() {
            if !matched[i] && sanitize_metric_name(metric) == n {
                matched[i] = true;
                let _ = writeln!(out, "# trace_id {n} {trace_id} {value}");
            }
        }
    }
    for (i, (metric, trace_id, value)) in exemplars.iter().enumerate() {
        if !matched[i] {
            let _ = writeln!(out, "# trace_id {} {trace_id} {value}", sanitize_metric_name(metric));
        }
    }
    out
}

/// Unsigned value in the parser's preferred representation (`Int` while it
/// fits, `UInt` above `i64::MAX`), so a rendered trace round-trips through
/// `Json::parse` to a structurally equal document.
fn uint_json(v: u64) -> Json {
    i64::try_from(v).map_or(Json::UInt(v), Json::Int)
}

fn attr_json(v: &AttrValue) -> Json {
    match v {
        AttrValue::I64(x) => Json::Int(*x),
        AttrValue::U64(x) => uint_json(*x),
        AttrValue::F64(x) => Json::Num(*x),
        AttrValue::Bool(x) => Json::Bool(*x),
        AttrValue::Str(x) => Json::Str(x.clone()),
    }
}

fn trace_event(ph: &str, span: &SpanRecord, ts: u64, tid: u64) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(span.name.to_string())),
        ("ph", Json::Str(ph.to_string())),
        ("ts", uint_json(ts)),
        ("pid", Json::Int(1)),
        ("tid", uint_json(tid)),
    ];
    if ph == "B" {
        let mut args = vec![("span_id".to_string(), uint_json(span.id))];
        if let Some(p) = span.parent {
            args.push(("parent_id".to_string(), uint_json(p)));
        }
        for (k, v) in &span.attrs {
            args.push((k.to_string(), attr_json(v)));
        }
        pairs.push(("args", Json::Obj(args)));
    }
    Json::obj(pairs)
}

/// Render finished spans as a Chrome trace-event JSON object
/// (`{"traceEvents": [...]}`, loadable in Perfetto).
///
/// Each span becomes a `B`/`E` pair. Events are emitted by depth-first
/// walk of the parent/child forest, so within a track the begin/end pairs
/// are strictly stack-nested even when microsecond timestamps tie. Every
/// root span (no parent, or parent not present in the slice) gets its own
/// `tid` — its descendants share it, so one logical call tree renders as
/// one track. Span attributes appear as `args` on the `B` event along
/// with `span_id`/`parent_id`.
pub fn chrome_trace(spans: &[SpanRecord]) -> Json {
    use std::collections::{BTreeMap, BTreeSet};
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    // Children grouped by parent; roots are spans whose parent is absent.
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        match s.parent {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(s),
            _ => roots.push(s),
        }
    }
    let by_start =
        |a: &&SpanRecord, b: &&SpanRecord| a.start_us.cmp(&b.start_us).then(a.id.cmp(&b.id));
    roots.sort_by(by_start);
    for v in children.values_mut() {
        v.sort_by(by_start);
    }
    let mut events: Vec<Json> = Vec::with_capacity(spans.len() * 2);
    // Iterative DFS. Each stack entry carries the span's *effective*
    // interval — its timestamps clamped inside the parent's effective
    // interval — so emitted B/E pairs nest strictly even if clock reads
    // raced at span edges.
    struct Frame<'a> {
        span: &'a SpanRecord,
        next_child: usize,
        begin: u64,
        end: u64,
    }
    for root in roots {
        let tid = root.id;
        let begin = root.start_us;
        let end = root.end_us.max(begin);
        events.push(trace_event("B", root, begin, tid));
        let mut stack: Vec<Frame<'_>> = vec![Frame { span: root, next_child: 0, begin, end }];
        while let Some(top) = stack.last_mut() {
            let kids = children.get(&top.span.id).map(|v| v.as_slice()).unwrap_or(&[]);
            if top.next_child < kids.len() {
                let child = kids[top.next_child];
                top.next_child += 1;
                let begin = child.start_us.clamp(top.begin, top.end);
                let end = child.end_us.clamp(begin, top.end);
                events.push(trace_event("B", child, begin, tid));
                stack.push(Frame { span: child, next_child: 0, begin, end });
            } else {
                let frame = stack.pop().expect("stack non-empty");
                events.push(trace_event("E", frame.span, frame.end, tid));
            }
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::Tracer;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_metric_name("serve.latency_ns"), "serve_latency_ns");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("ok_name:x1"), "ok_name:x1");
    }

    #[test]
    fn exposition_renders_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("req.total").add(3);
        reg.gauge("cache.hit_rate").set(0.5);
        reg.gauge("weird.gauge").set(f64::INFINITY);
        let h = reg.histogram("lat.ns");
        h.record(10);
        h.record(10);
        h.record(1000);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE req_total counter\nreq_total 3\n"), "{text}");
        assert!(text.contains("# TYPE cache_hit_rate gauge\ncache_hit_rate 0.5\n"), "{text}");
        assert!(text.contains("weird_gauge +Inf\n"), "{text}");
        assert!(text.contains("# TYPE lat_ns histogram\n"), "{text}");
        // Cumulative buckets: the value-10 bucket holds 2, then 3 total.
        assert!(text.contains("lat_ns_bucket{le=\"10\"} 2\n"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_ns_sum 1020\n"), "{text}");
        assert!(text.contains("lat_ns_count 3\n"), "{text}");
        // Bucket uppers increase along the series.
        let uppers: Vec<u64> = text
            .lines()
            .filter_map(|l| l.strip_prefix("lat_ns_bucket{le=\""))
            .filter_map(|l| l.split('"').next())
            .filter_map(|s| s.parse().ok())
            .collect();
        assert!(uppers.windows(2).all(|w| w[0] < w[1]), "{uppers:?}");
    }

    #[test]
    fn chrome_trace_nests_children_under_roots() {
        let tracer = Tracer::new();
        {
            let _run = tracer.span("run");
            let _stage = tracer.span("stage");
        }
        let spans = tracer.finished();
        assert_eq!(spans.len(), 2);
        let trace = chrome_trace(&spans);
        let events = trace.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // DFS order: B(run) B(stage) E(stage) E(run).
        let phases: Vec<&str> =
            events.iter().map(|e| e.get("ph").and_then(|p| p.as_str()).unwrap()).collect();
        assert_eq!(phases, ["B", "B", "E", "E"]);
        let names: Vec<&str> =
            events.iter().map(|e| e.get("name").and_then(|p| p.as_str()).unwrap()).collect();
        assert_eq!(names, ["run", "stage", "stage", "run"]);
        // All four events share the root's tid.
        let tids: Vec<u64> =
            events.iter().map(|e| e.get("tid").and_then(|t| t.as_u64()).unwrap()).collect();
        assert!(tids.iter().all(|&t| t == tids[0]), "{tids:?}");
        // The child's B carries parent_id.
        assert!(events[1].get("args").and_then(|a| a.get("parent_id")).is_some());
        // The rendered document parses back.
        assert_eq!(Json::parse(&trace.render()).unwrap(), trace);
    }

    #[test]
    fn orphan_spans_become_roots() {
        let spans = vec![
            SpanRecord {
                id: 7,
                parent: Some(99), // parent never finished / not in slice
                name: "orphan",
                start_us: 5,
                end_us: 9,
                attrs: Vec::new(),
            },
            SpanRecord { id: 3, parent: None, name: "root", start_us: 0, end_us: 4, attrs: vec![] },
        ];
        let trace = chrome_trace(&spans);
        let events = trace.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 4);
        // Sorted by start: root first, then the orphan on its own track.
        let tids: Vec<u64> =
            events.iter().map(|e| e.get("tid").and_then(|t| t.as_u64()).unwrap()).collect();
        assert_eq!(tids, [3, 3, 7, 7]);
    }

    #[test]
    fn exemplar_comments_follow_their_histogram() {
        let reg = Registry::new();
        let h = reg.histogram("serve.phase.score_ns");
        h.record(1_000);
        let text = prometheus_text_with_exemplars(
            &reg.snapshot(),
            &[
                ("serve.phase.score_ns".to_string(), 0xABCD, 1_000),
                ("serve.phase.write_ns".to_string(), 7, 9), // no such histogram
            ],
        );
        // The matching exemplar sits inside the exposition, after its block.
        let lines: Vec<&str> = text.lines().collect();
        let hist = lines.iter().position(|l| l.starts_with("# TYPE serve_phase_score_ns"));
        let ex = lines.iter().position(|l| *l == "# trace_id serve_phase_score_ns 43981 1000");
        assert!(hist.unwrap() < ex.unwrap(), "{text}");
        // The unmatched one still surfaces, at the end.
        assert_eq!(*lines.last().unwrap(), "# trace_id serve_phase_write_ns 7 9");
        // Annotations never perturb the plain exposition.
        let plain = prometheus_text(&reg.snapshot());
        let stripped: String = text.lines().filter(|l| !l.starts_with("# trace_id")).fold(
            String::new(),
            |mut s, l| {
                s.push_str(l);
                s.push('\n');
                s
            },
        );
        assert_eq!(stripped, plain);
    }

    #[test]
    fn empty_inputs_render_cleanly() {
        assert_eq!(prometheus_text(&MetricsSnapshot::default()), "");
        let trace = chrome_trace(&[]);
        assert_eq!(trace.get("traceEvents"), Some(&Json::Arr(Vec::new())));
    }
}
