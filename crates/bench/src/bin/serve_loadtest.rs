//! Load test for lite-serve: N client threads (in-process and TCP) hammer
//! a running tuning service while observed feedback forces at least one
//! background model hot-swap mid-run, then dedicated hot-path phases
//! measure the protocol-v3 serving ceiling.
//!
//! Reported into `results/serve_loadtest.manifest.jsonl`:
//! * throughput and precise p50/p95/p99 request latencies (computed from
//!   the raw sorted samples, not histogram buckets),
//! * steady-state (post-warmup) window percentiles from the SLO rollup
//!   ring — the last few seconds of the run, after caches and the
//!   allocator have settled — alongside the whole-run aggregates,
//! * `inproc_hit_rps` — repeat recommends answered by the inline
//!   whole-response fast path, no queue hop,
//! * `tcp_v3_rps` — the same mix over loopback TCP as pipelined v3
//!   binary frames, plus a v2 JSON serial-client sanity check,
//! * cache hit rate and shed/error counts,
//! * the number of hot-swaps and distinct model versions clients saw,
//! * batched vs per-candidate NECS scoring time on a 30-candidate request.
//!
//! The run is continuously profiled (tag-stack sampling profiler); the
//! flamegraph lands in `results/serve_loadtest.flame.svg` with the
//! collapsed stacks next to it as `results/serve_loadtest.folded`.
//!
//! `LITE_BENCH_QUICK=1` shrinks the run for smoke testing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_bench::finish_report;
use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder, PredictionContext};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Profiler, Registry, Report, SloConfig, Tracer};
use lite_serve::{
    ClientBuilder, ClusterRef, ModelSnapshot, ProtocolConfig, Request, Response, ServeConfig,
    ServeError, Service, ServiceHandle,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::exec::simulate;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::SizeTier;

const SERVED_APPS: [AppId; 3] = [AppId::Sort, AppId::KMeans, AppId::PageRank];

struct ClientStats {
    latencies_s: Vec<f64>,
    versions: Vec<u64>,
    shed: usize,
    errors: usize,
}

fn main() {
    let t0 = Instant::now();
    let quick = lite_bench::quick_mode();
    let report = Report::new("serve_loadtest");
    report.field("quick_mode", quick);

    let threads: usize = if quick { 4 } else { 6 };
    let tcp_threads: usize = 2.min(threads);
    let min_reqs_per_thread: usize = if quick { 30 } else { 120 };
    report.field("client_threads", threads);
    report.field("tcp_client_threads", tcp_threads);

    // ---- offline phase: dataset + model ---------------------------------
    let ds = report.phase("dataset", || {
        Arc::new(
            DatasetBuilder {
                apps: SERVED_APPS.to_vec(),
                clusters: vec![ClusterSpec::cluster_a(), ClusterSpec::cluster_c()],
                tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
                confs_per_cell: if quick { 2 } else { 3 },
                seed: 4242,
            }
            .build(),
        )
    });
    let tuner = report.phase("train", || {
        LiteTuner::from_dataset(
            &ds,
            NecsConfig { epochs: if quick { 2 } else { 6 }, ..Default::default() },
            4242,
        )
    });
    eprintln!("[loadtest] model ready ({:.0}s)", t0.elapsed().as_secs_f64());

    // ---- batched vs per-candidate scoring on one 30-candidate request ---
    batch_comparison(&report, &ds, &tuner);

    // ---- serving phase --------------------------------------------------
    let registry = Registry::new();
    // Continuous profiling (1 ms sampling) and a burn-rate SLO with 1 s
    // rollup buckets run for the whole serving phase; the SLO ring is
    // also where the steady-state window percentiles come from.
    let profiler = Profiler::new(Duration::from_millis(1));
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 64,
        update_batch: if quick { 16 } else { 24 },
        amu: AmuConfig { epochs: 1, half_batch: 64, ..Default::default() },
        // 25 ms objective: generous against the ~5 ms p99 this load
        // profile produces, so `slo_alert` in the manifest means a real
        // regression and not a default objective tuned for other loads.
        slo: Some(SloConfig { objective_ns: 25_000_000, ..SloConfig::default() }),
        profiler: Some(profiler.clone()),
        // Protocol v3 serving shape: two shards, deep pipelining, and the
        // inline whole-response cache that backs the hot-path phases.
        protocol: ProtocolConfig {
            shards: 2,
            max_pipeline: 128,
            response_cache: 4096,
            ..Default::default()
        },
        ..Default::default()
    };
    let snapshot = ModelSnapshot::from_tuner(&tuner);
    let service = Service::start(snapshot, ds.clone(), config, &registry, Tracer::disabled());
    let handle = service.handle();
    let server =
        lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind TCP front-end");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let serve_t0 = Instant::now();
    let clients: Vec<_> = (0..threads)
        .map(|t| {
            let handle = handle.clone();
            let stop = stop.clone();
            let use_tcp = t < tcp_threads;
            std::thread::spawn(move || {
                if use_tcp {
                    tcp_client(addr, t, min_reqs_per_thread, &stop)
                } else {
                    inproc_client(&handle, t, min_reqs_per_thread, &stop)
                }
            })
        })
        .collect();

    // Feedback driver: observe executed recommendations until the updater
    // hot-swaps at least once, so every load test demonstrates a swap
    // under concurrent read traffic.
    let cluster = ds.clusters[0].clone();
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let plan = build_job(AppId::KMeans, &data);
    let mut feedback_runs = 0u64;
    let feedback_deadline = Instant::now() + Duration::from_secs(600);
    while handle.swap_count() == 0 {
        if Instant::now() > feedback_deadline {
            eprintln!("[loadtest] WARNING: no hot-swap within 600 s");
            break;
        }
        match handle.recommend(AppId::KMeans, &data, &cluster, 1, 9000 + feedback_runs) {
            Ok(rec) => {
                let result = simulate(&cluster, &rec.ranked[0].conf, &plan, 9000 + feedback_runs);
                let _ =
                    handle.observe(AppId::KMeans, &data, &cluster, &rec.ranked[0].conf, &result);
                feedback_runs += 1;
            }
            Err(ServeError::Overloaded) => std::thread::yield_now(),
            Err(e) => panic!("feedback driver failed: {e}"),
        }
    }
    let swaps = handle.swap_count();
    eprintln!(
        "[loadtest] {swaps} hot-swap(s) after {feedback_runs} observed runs ({:.0}s)",
        t0.elapsed().as_secs_f64()
    );
    stop.store(true, Ordering::Release);

    let stats: Vec<ClientStats> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread panicked (deadlock-free requirement)"))
        .collect();
    let serve_wall_s = serve_t0.elapsed().as_secs_f64();
    report.phase_s("serve", serve_wall_s);
    let hit_rate = handle.cache_hit_rate();
    let (cache_hits, cache_misses) = handle.cache_counts();

    // Steady-state view: close the final (partial) rollup bucket and read
    // the fast window — the last few seconds of the run, after warmup.
    let slo_status = handle.slo_tick().expect("SLO configured for the loadtest");
    let steady = slo_status.fast;
    report.field("steady_span_s", steady.span_s);
    report.field("steady_throughput_rps", steady.rate);
    report.field("steady_p50_ms", steady.p50 as f64 / 1e6);
    report.field("steady_p99_ms", steady.p99 as f64 / 1e6);
    report.field("slo_burn_fast", slo_status.burn_fast);
    report.field("slo_alert", slo_status.alert);

    // ---- hot-path phases: inline fast path + pipelined v3 wire ----------
    let (inproc_rps, inproc_ok) = report.phase("inproc_hit", || inproc_hit_phase(&handle, quick));
    report.field("inproc_hit_rps", inproc_rps);
    report.field("inproc_hit_ok", inproc_ok);
    eprintln!("[loadtest] in-process hit path: {inproc_rps:.0} rps ({inproc_ok} requests)");

    let (tcp_v3_rps, tcp_v3_ok, pipeline_depth) =
        report.phase("tcp_v3", || tcp_v3_phase(addr, quick));
    report.field("tcp_v3_rps", tcp_v3_rps);
    report.field("tcp_v3_ok", tcp_v3_ok);
    report.field("tcp_v3_pipeline_depth", pipeline_depth);
    eprintln!(
        "[loadtest] pipelined v3 loopback: {tcp_v3_rps:.0} rps \
         ({tcp_v3_ok} requests, depth {pipeline_depth})"
    );

    let v2_ok = legacy_sanity(addr);
    report.field("legacy_v2_ok", v2_ok);
    assert!(v2_ok, "JSON (v2) clients must keep working beside the binary burst");
    server.shutdown();

    // Profile artifacts: flamegraph + collapsed stacks for the whole run.
    let prof_report = profiler.report(10);
    report.field("prof_samples", prof_report.samples);
    report.field("prof_distinct_stacks", prof_report.distinct_stacks);
    report.field("prof_threads", prof_report.threads);
    let dir = lite_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    for (name, content) in [
        ("serve_loadtest.flame.svg", profiler.flame_svg("serve_loadtest — tag-stack CPU profile")),
        ("serve_loadtest.folded", profiler.folded()),
    ] {
        let path = dir.join(name);
        match std::fs::write(&path, content) {
            Ok(()) => eprintln!("[loadtest] profile artifact written to {}", path.display()),
            Err(e) => eprintln!("[loadtest] could not write {}: {e}", path.display()),
        }
    }

    service.shutdown();

    // ---- aggregate ------------------------------------------------------
    let mut latencies: Vec<f64> =
        stats.iter().flat_map(|s| s.latencies_s.iter().copied()).collect();
    latencies.sort_by(f64::total_cmp);
    let total_ok = latencies.len();
    let shed: usize = stats.iter().map(|s| s.shed).sum();
    let errors: usize = stats.iter().map(|s| s.errors).sum();
    let versions: std::collections::BTreeSet<u64> =
        stats.iter().flat_map(|s| s.versions.iter().copied()).collect();
    let pct = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
    let throughput = total_ok as f64 / serve_wall_s.max(1e-9);

    report.field("requests_ok", total_ok);
    report.field("requests_shed", shed);
    report.field("requests_error", errors);
    report.field("feedback_runs", feedback_runs);
    report.field("hot_swaps", swaps);
    report.field("versions_seen", versions.len());
    report.field("throughput_rps", throughput);
    report.field("p50_ms", p50 * 1e3);
    report.field("p95_ms", p95 * 1e3);
    report.field("p99_ms", p99 * 1e3);
    report.field("cache_hit_rate", hit_rate);
    report.field("cache_hits", cache_hits);
    report.field("cache_misses", cache_misses);
    report.metrics(&registry);

    let widths = [16usize, 12];
    let mut table =
        report.table("serve loadtest — latency and throughput", &["metric", "value"], &widths);
    table.row(&["throughput_rps".into(), format!("{throughput:.1}")]);
    table.row(&["p50_ms".into(), format!("{:.2}", p50 * 1e3)]);
    table.row(&["p95_ms".into(), format!("{:.2}", p95 * 1e3)]);
    table.row(&["p99_ms".into(), format!("{:.2}", p99 * 1e3)]);
    table.row(&["steady_p50_ms".into(), format!("{:.2}", steady.p50 as f64 / 1e6)]);
    table.row(&["steady_p99_ms".into(), format!("{:.2}", steady.p99 as f64 / 1e6)]);
    table.row(&["inproc_hit_rps".into(), format!("{inproc_rps:.0}")]);
    table.row(&["tcp_v3_rps".into(), format!("{tcp_v3_rps:.0}")]);
    table.row(&["cache_hit_rate".into(), format!("{hit_rate:.3}")]);
    table.row(&["hot_swaps".into(), format!("{swaps}")]);
    drop(table);

    report.note(&format!(
        "{threads} client threads ({tcp_threads} over TCP) sustained for {serve_wall_s:.1}s; \
         {total_ok} requests served, {shed} shed, {errors} other errors; \
         {swaps} background hot-swap(s), clients saw {} model version(s).",
        versions.len()
    ));
    if swaps == 0 {
        report.note("WARNING: no hot-swap observed — acceptance criterion not met this run.");
    }
    report.note(&format!(
        "hot paths: inline in-process {inproc_rps:.0} rps, pipelined v3 loopback \
         {tcp_v3_rps:.0} rps (depth {pipeline_depth}); v2 JSON clients still served."
    ));
    report.note(&format!(
        "steady-state window ({:.1}s): {:.1} rps, p50 {:.2} ms, p99 {:.2} ms; \
         profiler captured {} samples over {} distinct stacks \
         (flamegraph: results/serve_loadtest.flame.svg).",
        steady.span_s,
        steady.rate,
        steady.p50 as f64 / 1e6,
        steady.p99 as f64 / 1e6,
        prof_report.samples,
        prof_report.distinct_stacks
    ));
    finish_report(&report);
    eprintln!("[loadtest] total {:.0}s", t0.elapsed().as_secs_f64());
}

/// In-process client: cycles served apps and a small seed range (so the
/// prediction cache sees repeats), recording latency per successful call.
fn inproc_client(
    handle: &ServiceHandle,
    thread_id: usize,
    min_reqs: usize,
    stop: &AtomicBool,
) -> ClientStats {
    let cluster = ClusterSpec::cluster_a();
    let mut stats =
        ClientStats { latencies_s: Vec::new(), versions: Vec::new(), shed: 0, errors: 0 };
    let mut i = 0usize;
    while i < min_reqs || !stop.load(Ordering::Acquire) {
        let app = SERVED_APPS[(thread_id + i) % SERVED_APPS.len()];
        let data = app.dataset(SizeTier::Valid);
        let seed = (i % 8) as u64;
        let t = Instant::now();
        match handle.recommend(app, &data, &cluster, 5, seed) {
            Ok(resp) => {
                stats.latencies_s.push(t.elapsed().as_secs_f64());
                stats.versions.push(resp.version);
            }
            Err(ServeError::Overloaded) => stats.shed += 1,
            Err(_) => stats.errors += 1,
        }
        i += 1;
    }
    stats
}

/// TCP client: same request mix through the typed v3 binary front-end,
/// one request per round trip.
fn tcp_client(
    addr: std::net::SocketAddr,
    thread_id: usize,
    min_reqs: usize,
    stop: &AtomicBool,
) -> ClientStats {
    let mut client = ClientBuilder::new().connect(addr).expect("tcp connect");
    assert_eq!(client.protocol_version(), 3, "server must speak v3");
    let mut stats =
        ClientStats { latencies_s: Vec::new(), versions: Vec::new(), shed: 0, errors: 0 };
    let mut i = 0usize;
    while i < min_reqs || !stop.load(Ordering::Acquire) {
        let app = SERVED_APPS[(thread_id + i) % SERVED_APPS.len()];
        let data = app.dataset(SizeTier::Valid);
        let seed = (i % 8) as u64;
        let request = Request::Recommend {
            app,
            data,
            cluster: ClusterRef::Preset("cluster-a".to_string()),
            k: 5,
            seed,
            trace: None,
        };
        let t = Instant::now();
        match client.call(&request) {
            Ok(Response::Recommend { version, .. }) => {
                stats.latencies_s.push(t.elapsed().as_secs_f64());
                stats.versions.push(version);
            }
            Ok(Response::Error { code, .. }) => {
                if code == lite_serve::ErrorCode::Overloaded {
                    stats.shed += 1;
                } else {
                    stats.errors += 1;
                }
            }
            Ok(_) | Err(_) => stats.errors += 1,
        }
        i += 1;
    }
    stats
}

/// Hot-path phase 1: repeat recommends against the in-process handle. The
/// seed range keeps every request inside the warmed whole-response cache,
/// so this measures the inline fast path (one atomic stamp load + cache
/// clone), not the queue.
fn inproc_hit_phase(handle: &ServiceHandle, quick: bool) -> (f64, usize) {
    let cluster = ClusterSpec::cluster_a();
    let total: usize = if quick { 20_000 } else { 400_000 };
    // Warm every key once (and once more after any in-flight swap).
    for i in 0..(2 * SERVED_APPS.len() * 8) {
        let app = SERVED_APPS[i % SERVED_APPS.len()];
        let data = app.dataset(SizeTier::Valid);
        let _ = handle.recommend(app, &data, &cluster, 5, (i % 8) as u64);
    }
    let datas: Vec<_> = SERVED_APPS.iter().map(|a| a.dataset(SizeTier::Valid)).collect();
    let t = Instant::now();
    let mut ok = 0usize;
    for i in 0..total {
        let which = i % SERVED_APPS.len();
        let seed = (i % 8) as u64;
        if handle.recommend(SERVED_APPS[which], &datas[which], &cluster, 5, seed).is_ok() {
            ok += 1;
        }
    }
    let rps = ok as f64 / t.elapsed().as_secs_f64().max(1e-9);
    (rps, ok)
}

/// Hot-path phase 2: the same repeat mix over loopback TCP as pipelined
/// v3 binary frames. The reactor answers straight from the inline
/// response cache, so one connection saturates the wire path.
fn tcp_v3_phase(addr: std::net::SocketAddr, quick: bool) -> (f64, usize, usize) {
    let depth = 128usize;
    let mut client = ClientBuilder::new().pipeline_depth(depth).connect(addr).expect("v3 connect");
    assert_eq!(client.protocol_version(), 3, "server must speak v3");
    let batch: Vec<Request> = (0..512)
        .map(|i| {
            let which = i % SERVED_APPS.len();
            Request::Recommend {
                app: SERVED_APPS[which],
                data: SERVED_APPS[which].dataset(SizeTier::Valid),
                cluster: ClusterRef::Preset("cluster-a".to_string()),
                k: 5,
                seed: (i % 8) as u64,
                trace: None,
            }
        })
        .collect();
    // Warm the wire path and the response cache.
    let _ = client.pipeline(&batch).expect("warmup batch");
    let total: usize = if quick { 10_000 } else { 200_000 };
    let rounds = total.div_ceil(batch.len());
    let t = Instant::now();
    let mut ok = 0usize;
    for _ in 0..rounds {
        let responses = client.pipeline(&batch).expect("pipelined batch");
        ok += responses.iter().filter(|r| r.is_ok()).count();
    }
    let rps = ok as f64 / t.elapsed().as_secs_f64().max(1e-9);
    (rps, ok, depth)
}

/// Legacy-client sanity: a v2 JSON serial client still gets answers from
/// the same server, negotiation included.
fn legacy_sanity(addr: std::net::SocketAddr) -> bool {
    let request = Request::Recommend {
        app: AppId::Sort,
        data: AppId::Sort.dataset(SizeTier::Valid),
        cluster: ClusterRef::Preset("cluster-a".to_string()),
        k: 3,
        seed: 1,
        trace: None,
    };
    let Ok(mut client) = ClientBuilder::new().protocol(2).connect(addr) else {
        return false;
    };
    client.protocol_version() == 2
        && matches!(client.call(&request), Ok(Response::Recommend { .. }))
        && matches!(client.call(&Request::Ping), Ok(Response::Pong { .. }))
}

/// Time one 30-candidate request scored per-candidate (30 single-row NECS
/// passes) vs batched (one 30×stages pass) and record the speedup.
fn batch_comparison(report: &Report, ds: &Dataset, tuner: &LiteTuner) {
    let cluster = ClusterSpec::cluster_a();
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let ctx = PredictionContext::warm(&ds.registry, AppId::KMeans, &data, &cluster)
        .expect("KMeans is warm");
    let confs = tuner.acg.candidates_seeded(AppId::KMeans, &data, &ctx.env, 30, 17);
    let reps = if lite_bench::quick_mode() { 3 } else { 10 };

    // Warm up once so allocator effects do not bias either side.
    let batch_ref = tuner.model.predict_app_batch(&tuner.registry, &ctx, &confs);

    let t = Instant::now();
    let mut per: Vec<f64> = Vec::new();
    for _ in 0..reps {
        per = confs.iter().map(|c| tuner.model.predict_app(&tuner.registry, &ctx, c)).collect();
    }
    let percand_s = t.elapsed().as_secs_f64() / reps as f64;

    let t = Instant::now();
    let mut batch: Vec<f64> = Vec::new();
    for _ in 0..reps {
        batch = tuner.model.predict_app_batch(&tuner.registry, &ctx, &confs);
    }
    let batch_s = t.elapsed().as_secs_f64() / reps as f64;

    assert_eq!(batch, batch_ref, "batched scoring must be deterministic");
    let max_rel = per
        .iter()
        .zip(batch.iter())
        .map(|(a, b)| (a - b).abs() / a.abs().max(1.0))
        .fold(0.0f64, f64::max);
    assert!(max_rel <= 1e-9, "batched and per-candidate predictions diverged: {max_rel}");

    let speedup = percand_s / batch_s.max(1e-12);
    report.field("batch30_percand_s", percand_s);
    report.field("batch30_batched_s", batch_s);
    report.field("batch30_speedup", speedup);
    report.note(&format!(
        "30-candidate scoring: per-candidate {:.1} ms vs batched {:.1} ms ({speedup:.1}x).",
        percand_s * 1e3,
        batch_s * 1e3
    ));
    eprintln!(
        "[loadtest] batch comparison: {:.1} ms -> {:.1} ms ({speedup:.1}x)",
        percand_s * 1e3,
        batch_s * 1e3
    );
}
