//! The success documents of the admin ops, rendered for the frame handler
//! in [`crate::net`] (which builds the three smallest — `metrics`, `trace`,
//! `health` — itself). Each is the `Response::Admin` payload: stamped
//! `"v":2` in JSON, carried verbatim as the body of a v3 frame.
//!
//! * `stats` → `{"ok":true,"uptime_s":u,"version":v,"swaps":n,
//!   "queue_depth":d,"queue_capacity":c,"workers":w,"feedback":f,
//!   "update_batch":b,"requests":r,
//!   "cache":{"hit_rate":h,"hits":x,"misses":y},
//!   "drift":{"samples":s,"mape":m,"mean_error_s":e,"inversion_rate":i,
//!   "drifted":false}}` — a point-in-time operational summary. With
//!   tracing enabled it additionally carries
//!   `"phases":[{"phase":"queue_wait","count":...,"p50_ns":...,...},...]`
//!   (the `serve.phase.*` breakdown), and with an SLO configured a
//!   `"slo":{"alert":...,"burn_fast":...,"window":{...}}` summary — both
//!   strictly additive keys.
//! * `metrics` → `{"ok":true,"content_type":"text/plain; version=0.0.4",
//!   "body":"# TYPE serve_requests counter\nserve_requests 17\n..."}` —
//!   the service registry as Prometheus text exposition (histograms as
//!   cumulative `_bucket`/`_sum`/`_count`).
//! * `trace` → `{"ok":true,"trace":{"traceEvents":[...]},
//!   "dropped_spans":0}` — finished spans as Chrome trace-event JSON; save
//!   the `trace` value to a file and load it in Perfetto. Empty when
//!   tracing is disabled. When the document would overflow the response
//!   frame the oldest spans are shed and counted in `dropped_spans`, with
//!   those the tracer's bounded ring already evicted.
//! * `health` → `{"ok":true,"status":"ok","version":v,"uptime_s":u}` —
//!   liveness for probes.
//! * `tailtrace` → `{"ok":true,"completed":n,"captured":m,
//!   "exemplars":[{"trace_id":id,"total_ns":t,
//!   "spans":[{"phase":"queue_wait","start_ns":a,"end_ns":b,
//!   "queue_depth":d,"swap":false},...]},...]}` — the slowest captured
//!   requests in full, phase by phase, slowest first. Empty when tail
//!   forensics is disabled. When the document would overflow the response
//!   frame the fastest exemplars are shed first.
//! * `analyze` → `{"ok":true,"app_name":...,
//!   "stages":[{"template":...,"ops":["textFile",...],
//!   "instances_per_run":n},...],"diagnostics":[{"rule":...,
//!   "message":...,"line":l,"col":c},...]}` — the `lite-analyze` static
//!   extractor over the wire: stage templates and lint findings without
//!   running the application (cold-start onboarding).
//! * `profile` → `{"ok":true,"samples":n,"sweeps":s,
//!   "torn":0,"truncated":0,"threads":t,"distinct_stacks":d,
//!   "top":[{"tag":"serve.recommend","self":a,"total":b},...],
//!   "alloc":[{"tag":...,"bytes":...,"allocs":...},...],
//!   "folded":"serve.recommend;serve.score 42\n..."}` — the
//!   sampling-profiler report: the top-`k` tags by self samples,
//!   allocation attribution from the opt-in allocator wrapper, and the
//!   collapsed-stack text a flamegraph renders from. `bad_request` from
//!   servers running no profiler.
//! * `slo` → `{"ok":true,"objective_ns":o,"target":0.999,
//!   "bucket_s":1,"burn_fast":b,"burn_slow":c,"good_fraction":g,
//!   "alert":false,"alert_ticks":0,"fast":{"count":...,"rate":...,
//!   "p50_ns":...,"p99_ns":...,"p999_ns":...,"span_s":...},"slow":{...}}`
//!   — burn-rate SLO status over windowed rollups of `serve.latency_ns`.
//!   `bad_request` from servers with no SLO configured.

use lite_obs::trace::Exemplar;
use lite_obs::Json;

use crate::monitor::DriftSummary;
use crate::proto::Response;
use crate::service::{ServiceHandle, ServiceStats};

/// Encode the tail-forensics reservoir, shedding the fastest exemplars
/// until the document fits `max_bytes`.
pub(crate) fn tailtrace_to_json(
    mut exemplars: Vec<Exemplar>,
    completed: u64,
    captured: u64,
    max_bytes: usize,
) -> Json {
    loop {
        let doc = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("completed", Json::from(completed)),
            ("captured", Json::from(captured)),
            ("exemplars", Json::Arr(exemplars.iter().map(exemplar_to_json).collect())),
        ]);
        if doc.render().len() <= max_bytes || exemplars.is_empty() {
            return doc;
        }
        exemplars.pop();
    }
}

/// Encode one captured exemplar for the wire.
fn exemplar_to_json(e: &Exemplar) -> Json {
    Json::obj(vec![
        ("trace_id", Json::from(e.trace_id)),
        ("total_ns", Json::from(e.total_ns)),
        (
            "spans",
            Json::Arr(
                e.spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("phase", Json::from(s.phase.name())),
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                            ("queue_depth", Json::from(u64::from(s.queue_depth))),
                            ("swap", Json::Bool(s.swap_in_progress)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn extraction_to_json(ex: &lite_analyze::Extraction) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("app_name", ex.app_name.as_deref().map_or(Json::Null, Json::from)),
        (
            "stages",
            Json::Arr(
                ex.stages
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("template", Json::from(s.template.as_str())),
                            (
                                "ops",
                                Json::Arr(s.ops.iter().map(|o| Json::from(o.label())).collect()),
                            ),
                            ("instances_per_run", Json::from(s.instances_per_run)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "diagnostics",
            Json::Arr(
                ex.diagnostics
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("rule", Json::from(d.rule)),
                            ("message", Json::from(d.message.as_str())),
                            ("line", Json::from(u64::from(d.span.line))),
                            ("col", Json::from(u64::from(d.span.col))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn profile(handle: &ServiceHandle, k: usize) -> Response {
    let Some(report) = handle.profile_report(k) else {
        return Response::bad_request("profiling not enabled on this server");
    };
    let folded = handle.profile_folded().unwrap_or_default();
    Response::Admin(Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("samples", Json::from(report.samples)),
        ("sweeps", Json::from(report.sweeps)),
        ("torn", Json::from(report.torn)),
        ("truncated", Json::from(report.truncated)),
        ("threads", Json::from(report.threads)),
        ("distinct_stacks", Json::from(report.distinct_stacks)),
        (
            "top",
            Json::Arr(
                report
                    .top
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("tag", Json::from(t.tag.as_str())),
                            ("self", Json::from(t.self_samples)),
                            ("total", Json::from(t.total_samples)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "alloc",
            Json::Arr(
                lite_obs::prof::alloc_table()
                    .iter()
                    .map(|(tag, bytes, allocs)| {
                        Json::obj(vec![
                            ("tag", Json::from(tag.as_str())),
                            ("bytes", Json::from(*bytes)),
                            ("allocs", Json::from(*allocs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("folded", Json::from(folded.as_str())),
    ]))
}

/// Encode one [`lite_obs::WindowStats`] for the wire.
fn window_to_json(w: &lite_obs::WindowStats) -> Json {
    Json::obj(vec![
        ("count", Json::from(w.count)),
        ("rate", Json::Num(w.rate)),
        ("mean_ns", Json::Num(w.mean)),
        ("min_ns", Json::from(w.min)),
        ("max_ns", Json::from(w.max)),
        ("p50_ns", Json::from(w.p50)),
        ("p90_ns", Json::from(w.p90)),
        ("p99_ns", Json::from(w.p99)),
        ("p999_ns", Json::from(w.p999)),
        ("span_s", Json::Num(w.span_s)),
    ])
}

pub(crate) fn slo(handle: &ServiceHandle) -> Response {
    let (Some(config), Some(status)) = (handle.slo_config(), handle.slo_status()) else {
        return Response::bad_request("slo not configured on this server");
    };
    Response::Admin(Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("objective_ns", Json::from(config.objective_ns)),
        ("target", Json::Num(config.target)),
        ("bucket_s", Json::Num(config.bucket.as_secs_f64())),
        ("burn_fast", Json::Num(status.burn_fast)),
        ("burn_slow", Json::Num(status.burn_slow)),
        ("good_fraction", Json::Num(status.good_fraction)),
        ("alert", Json::Bool(status.alert)),
        ("alert_ticks", Json::from(status.alert_ticks)),
        ("fast", window_to_json(&status.fast)),
        ("slow", window_to_json(&status.slow)),
    ]))
}

/// The `stats` response: the point-in-time summary plus, additively, the
/// per-phase latency breakdown (tracing enabled) and the windowed SLO
/// view (SLO configured) — so operators get both without a Prometheus
/// scrape. Servers without those planes answer exactly as before.
pub(crate) fn stats_with_planes(handle: &ServiceHandle) -> Json {
    let mut doc = stats_to_json(&handle.stats());
    let Json::Obj(pairs) = &mut doc else { return doc };
    let phases = handle.phase_summaries();
    if !phases.is_empty() {
        let arr = phases
            .iter()
            .map(|(name, s)| {
                Json::obj(vec![
                    ("phase", Json::from(*name)),
                    ("count", Json::from(s.count)),
                    ("mean_ns", Json::Num(s.mean)),
                    ("p50_ns", Json::from(s.p50)),
                    ("p90_ns", Json::from(s.p90)),
                    ("p99_ns", Json::from(s.p99)),
                    ("p999_ns", Json::from(s.p999)),
                    ("max_ns", Json::from(s.max)),
                ])
            })
            .collect();
        pairs.push(("phases".to_string(), Json::Arr(arr)));
    }
    if let Some(status) = handle.slo_status() {
        pairs.push((
            "slo".to_string(),
            Json::obj(vec![
                ("alert", Json::Bool(status.alert)),
                ("burn_fast", Json::Num(status.burn_fast)),
                ("burn_slow", Json::Num(status.burn_slow)),
                ("good_fraction", Json::Num(status.good_fraction)),
                ("window", window_to_json(&status.fast)),
            ]),
        ));
    }
    doc
}

fn drift_to_json(d: &DriftSummary) -> Json {
    Json::obj(vec![
        ("samples", Json::from(d.samples)),
        ("mape", Json::Num(d.mape)),
        ("mean_error_s", Json::Num(d.mean_error_s)),
        ("inversion_rate", Json::Num(d.inversion_rate)),
        ("drifted", Json::Bool(d.drifted)),
    ])
}

fn stats_to_json(s: &ServiceStats) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("uptime_s", Json::Num(s.uptime_s)),
        ("version", Json::from(s.version)),
        ("swaps", Json::from(s.swap_count)),
        ("queue_depth", Json::from(s.queue_depth)),
        ("queue_capacity", Json::from(s.queue_capacity)),
        ("workers", Json::from(s.workers)),
        ("feedback", Json::from(s.feedback_len)),
        ("update_batch", Json::from(s.update_batch)),
        ("requests", Json::from(s.requests)),
        (
            "cache",
            Json::obj(vec![
                ("hit_rate", Json::Num(s.cache_hit_rate)),
                ("hits", Json::from(s.cache_hits)),
                ("misses", Json::from(s.cache_misses)),
            ]),
        ),
        ("drift", drift_to_json(&s.drift)),
        ("degraded", Json::Bool(s.degraded)),
        ("backend", Json::from("snapshot")),
        ("updater_failures", Json::from(s.updater_failures)),
        ("fallbacks", Json::from(s.fallbacks)),
    ])
}
