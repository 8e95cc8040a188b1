//! Chaos load test: the tuning service under an armed fault injector.
//!
//! Four phases, reported into `results/chaos_loadtest.manifest.jsonl`:
//!
//! 1. **baseline** — fault-free service; resilient TCP clients record the
//!    reference p99 latency.
//! 2. **chaos** — the same mix with torn frames, injected request latency,
//!    scoring failures, updater panics and failed swaps, plus simulator
//!    wounds (executor loss, stragglers, forced OOM/spill) on every
//!    feedback run. Proves: no request is lost forever, no `Internal`
//!    errors surface, the degraded service keeps answering, and p99 stays
//!    within 5x of baseline.
//! 3. **breaker drill** — a 100% torn-frame storm trips the client-side
//!    circuit breaker; disarming the injector lets it walk
//!    Open -> HalfOpen -> Closed.
//! 4. **backends** — LITE, BO, and DDPG behind the unified `Tuner` trait,
//!    each serving propose/observe rounds through `Service::start_tuner`.
//!
//! `--smoke` (or `LITE_BENCH_QUICK=1`) shrinks every phase for CI. Exit
//! status is non-zero when a request is permanently lost or an `Internal`
//! error reaches a client.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_bench::finish_report;
use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_core::tuner::Tuner;
use lite_obs::{Registry, Report, Tracer};
use lite_serve::net::serve_tcp;
use lite_serve::{
    BreakerConfig, BreakerState, ClusterRef, ErrorCode, ModelSnapshot, Request, ResilientClient,
    RetryPolicy, ServeConfig, Service, ServiceHandle,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::ConfSpace;
use lite_sparksim::exec::{simulate_faulted, SimObs};
use lite_sparksim::fault::{FaultInjector, FaultKind};
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::SizeTier;

const SERVED_APPS: [AppId; 2] = [AppId::Sort, AppId::KMeans];

struct PhaseStats {
    latencies_s: Vec<f64>,
    lost: u64,
    internal: u64,
}

fn p99(latencies: &mut [f64]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(f64::total_cmp);
    latencies[(latencies.len() - 1) * 99 / 100]
}

fn main() {
    let quick =
        lite_bench::quick_mode() || std::env::args().any(|a| a == "--smoke" || a == "--quick");
    // The chaos phase panics the updater thread on purpose; keep the
    // default hook for everything else so real failures still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected updater panic"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected updater panic"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let t0 = Instant::now();
    let report = Report::new("chaos_loadtest");
    report.field("quick_mode", quick);
    let threads: usize = if quick { 2 } else { 4 };
    let reqs_per_thread: usize = if quick { 25 } else { 120 };
    report.field("client_threads", threads);
    report.field("requests_per_thread", reqs_per_thread);

    let ds = report.phase("dataset", || {
        Arc::new(
            DatasetBuilder {
                apps: SERVED_APPS.to_vec(),
                clusters: vec![ClusterSpec::cluster_a()],
                tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
                confs_per_cell: if quick { 2 } else { 3 },
                seed: 777,
            }
            .build(),
        )
    });
    let tuner = report.phase("train", || {
        LiteTuner::from_dataset(
            &ds,
            NecsConfig { epochs: if quick { 2 } else { 4 }, ..Default::default() },
            777,
        )
    });
    eprintln!("[chaos] model ready ({:.0}s)", t0.elapsed().as_secs_f64());

    // ---- phase 1: fault-free baseline -----------------------------------
    let baseline = run_phase(&report, "baseline", &ds, &tuner, None, threads, reqs_per_thread);
    let mut base_lat = baseline.latencies_s.clone();
    let base_p99 = p99(&mut base_lat);
    report.field("baseline_p99_ms", base_p99 * 1e3);

    // ---- phase 2: chaos --------------------------------------------------
    let faults = Arc::new(
        FaultInjector::new(0xC4A0)
            .with(FaultKind::TornFrame, 0.25)
            .with_delay(FaultKind::RequestDelay, 0.10, Duration::from_millis(2))
            .with(FaultKind::ScoreFail, 0.05)
            .with(FaultKind::UpdaterPanic, 0.60)
            .with_delay(FaultKind::SwapDelay, 0.30, Duration::from_millis(5))
            .with(FaultKind::SwapFail, 0.25),
    );
    let chaos =
        run_phase(&report, "chaos", &ds, &tuner, Some(faults.clone()), threads, reqs_per_thread);
    let mut chaos_lat = chaos.latencies_s.clone();
    let chaos_p99 = p99(&mut chaos_lat);
    report.field("chaos_p99_ms", chaos_p99 * 1e3);
    let p99_ratio = if base_p99 > 0.0 { chaos_p99 / base_p99 } else { 0.0 };
    report.field("p99_ratio", p99_ratio);
    for (label, count) in faults.summary() {
        report.field(&format!("fired_{label}"), count);
    }

    // ---- phase 3: breaker drill -----------------------------------------
    let breaker_ok = report.phase("breaker_drill", || breaker_drill(&report, &ds, &tuner));

    // ---- phase 4: unified backends --------------------------------------
    report.phase("backends", || backend_sweep(&report, &ds, quick));

    // ---- verdict ---------------------------------------------------------
    let lost = baseline.lost + chaos.lost;
    let internal = baseline.internal + chaos.internal;
    report.field("requests_lost", lost);
    report.field("internal_errors", internal);
    let p99_bounded = base_p99 <= 0.0 || chaos_p99 <= 5.0 * base_p99;
    report.field("p99_bounded_5x", p99_bounded);
    report.field("breaker_cycle_complete", breaker_ok);

    let widths = [22usize, 12];
    let mut table = report.table("chaos verdict", &["check", "value"], &widths);
    table.row(&["baseline_p99_ms".into(), format!("{:.2}", base_p99 * 1e3)]);
    table.row(&["chaos_p99_ms".into(), format!("{:.2}", chaos_p99 * 1e3)]);
    table.row(&["p99_ratio".into(), format!("{p99_ratio:.2}")]);
    table.row(&["requests_lost".into(), format!("{lost}")]);
    table.row(&["internal_errors".into(), format!("{internal}")]);
    table.row(&["breaker_cycle".into(), format!("{breaker_ok}")]);
    drop(table);

    if !p99_bounded {
        report.note(&format!(
            "WARNING: chaos p99 {:.2}ms exceeded 5x the baseline p99 {:.2}ms",
            chaos_p99 * 1e3,
            base_p99 * 1e3
        ));
    }
    if !breaker_ok {
        report.note("WARNING: breaker never completed Open -> HalfOpen -> Closed");
    }
    report.note(&format!(
        "chaos held: {} requests served across both phases, {lost} lost, {internal} internal.",
        baseline.latencies_s.len() + chaos.latencies_s.len()
    ));
    finish_report(&report);
    eprintln!("[chaos] total {:.0}s", t0.elapsed().as_secs_f64());

    let strict_fail = !quick && (!p99_bounded || !breaker_ok);
    if lost > 0 || internal > 0 || strict_fail {
        eprintln!(
            "[chaos] FAIL: lost={lost} internal={internal} p99_bounded={p99_bounded} \
             breaker={breaker_ok}"
        );
        std::process::exit(1);
    }
}

/// One serving phase: start a (possibly wounded) service + TCP front-end,
/// hammer it with resilient clients, and drive sim-wounded feedback until
/// the updater has both failed (when chaos is armed) and recovered.
fn run_phase(
    report: &Report,
    name: &str,
    ds: &Arc<Dataset>,
    tuner: &LiteTuner,
    faults: Option<Arc<FaultInjector>>,
    threads: usize,
    reqs_per_thread: usize,
) -> PhaseStats {
    let wall = Instant::now();
    let registry = Registry::new();
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 64,
        update_batch: 8,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        faults: faults.clone(),
        ..Default::default()
    };
    let snapshot = ModelSnapshot::from_tuner(tuner);
    let service = Service::start(snapshot, ds.clone(), config, &registry, Tracer::disabled());
    let handle = service.handle();
    let server = serve_tcp(service.handle(), "127.0.0.1:0").expect("bind TCP front-end");
    let addr = server.local_addr();

    let lost = Arc::new(AtomicU64::new(0));
    let internal = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..threads)
        .map(|t| {
            let lost = lost.clone();
            let internal = internal.clone();
            std::thread::spawn(move || {
                let mut client = ResilientClient::single(
                    addr,
                    RetryPolicy {
                        max_attempts: 10,
                        base: Duration::from_millis(1),
                        cap: Duration::from_millis(15),
                        seed: 0xC11E_0000 + t as u64,
                    },
                    BreakerConfig {
                        failure_threshold: 0.9,
                        cooldown: Duration::from_millis(20),
                        ..Default::default()
                    },
                );
                let mut latencies = Vec::with_capacity(reqs_per_thread);
                for i in 0..reqs_per_thread {
                    let app = SERVED_APPS[(t + i) % SERVED_APPS.len()];
                    let data = app.dataset(SizeTier::Valid);
                    let started = Instant::now();
                    // "No request dropped forever": a fresh retry budget
                    // per round; only full exhaustion of every round
                    // counts as lost.
                    let mut served = false;
                    let request = Request::Recommend {
                        app,
                        data,
                        cluster: ClusterRef::Preset("cluster-a".to_string()),
                        k: 3,
                        seed: (i % 8) as u64,
                        trace: None,
                    };
                    for _round in 0..5 {
                        match client.call(&request) {
                            Ok(_) => {
                                latencies.push(started.elapsed().as_secs_f64());
                                served = true;
                                break;
                            }
                            Err(lite_serve::ClientError::Exhausted { last, .. }) => {
                                if last == Some(ErrorCode::Internal) {
                                    internal.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(lite_serve::ClientError::Rejected(code)) => {
                                if code == ErrorCode::Internal {
                                    internal.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                        }
                    }
                    if !served {
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
                latencies
            })
        })
        .collect();

    // Feedback driver: executed recommendations flow back as observations;
    // with chaos armed, each execution runs through the wounded simulator
    // and the updater eats panics/failed swaps until we disarm it.
    let sim_faults = faults.as_ref().map(|_| {
        FaultInjector::new(0x51A0)
            .with(FaultKind::ExecutorLoss, 0.15)
            .with(FaultKind::Straggler, 0.30)
            .with(FaultKind::ForcedOom, 0.05)
            .with(FaultKind::ForcedSpill, 0.20)
    });
    let cluster = ds.clusters[0].clone();
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let plan = build_job(AppId::KMeans, &data);
    let obs = SimObs::disabled();
    let mut updater_failed_at: Option<u64> = None;
    let mut feedback_runs = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    // Until a swap lands: under chaos, first wait for an updater failure,
    // then disarm and require the pinned service to recover.
    while handle.swap_count() == 0 && Instant::now() < deadline {
        if let Some(f) = &faults {
            if updater_failed_at.is_none() && handle.stats().updater_failures > 0 {
                updater_failed_at = Some(feedback_runs);
                assert!(handle.degraded(), "updater failure must degrade the service");
                f.disarm();
            }
        }
        match handle.recommend(AppId::KMeans, &data, &cluster, 1, 7000 + feedback_runs) {
            Ok(rec) => {
                let result = simulate_faulted(
                    &cluster,
                    &rec.ranked[0].conf,
                    &plan,
                    7000 + feedback_runs,
                    &obs,
                    sim_faults.as_ref(),
                );
                let _ =
                    handle.observe(AppId::KMeans, &data, &cluster, &rec.ranked[0].conf, &result);
                feedback_runs += 1;
            }
            Err(_) => std::thread::yield_now(),
        }
    }

    let latencies_s: Vec<f64> =
        clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect();
    let stats = handle.stats();
    report.field(&format!("{name}_requests_ok"), latencies_s.len());
    report.field(&format!("{name}_feedback_runs"), feedback_runs);
    report.field(&format!("{name}_hot_swaps"), stats.swap_count);
    report.field(&format!("{name}_updater_failures"), stats.updater_failures);
    report.field(&format!("{name}_fallbacks"), stats.fallbacks);
    report.field(&format!("{name}_degraded_at_end"), stats.degraded);
    if let Some(sf) = &sim_faults {
        for (label, count) in sf.summary() {
            report.field(&format!("{name}_sim_{label}"), count);
        }
    }
    report.phase_s(name, wall.elapsed().as_secs_f64());
    server.shutdown();
    service.shutdown();
    eprintln!(
        "[chaos] {name}: {} ok, {} lost, {} internal, {} swaps, {} updater failures",
        latencies_s.len(),
        lost.load(Ordering::Relaxed),
        internal.load(Ordering::Relaxed),
        stats.swap_count,
        stats.updater_failures,
    );
    PhaseStats {
        latencies_s,
        lost: lost.load(Ordering::Relaxed),
        internal: internal.load(Ordering::Relaxed),
    }
}

/// A 100% torn-frame storm followed by recovery: returns true when the
/// client breaker demonstrably walked Open -> HalfOpen -> Closed.
fn breaker_drill(report: &Report, ds: &Arc<Dataset>, tuner: &LiteTuner) -> bool {
    let faults = Arc::new(FaultInjector::new(0xB4EA).with(FaultKind::TornFrame, 1.0));
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        faults: Some(faults.clone()),
        ..Default::default()
    };
    let registry = Registry::new();
    let snapshot = ModelSnapshot::from_tuner(tuner);
    let service = Service::start(snapshot, ds.clone(), config, &registry, Tracer::disabled());
    let server = serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");

    let mut client = ResilientClient::single(
        server.local_addr(),
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            seed: 77,
        },
        BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown: Duration::from_millis(25),
            probe_quota: 1,
        },
    );

    // Storm: every response torn, the breaker must trip.
    let _ = client.call(&Request::Ping);
    let opened = client.breaker_transitions().opened;
    // Recovery: faults off, cooldown passes, probe succeeds, breaker
    // closes.
    faults.disarm();
    std::thread::sleep(Duration::from_millis(30));
    let recovered = client.call(&Request::Ping).is_ok();
    let tr = client.breaker_transitions();
    let closed_state = client.breaker_states()[0].1 == BreakerState::Closed;
    report.field("breaker_opened", tr.opened);
    report.field("breaker_half_opened", tr.half_opened);
    report.field("breaker_closed", tr.closed);
    server.shutdown();
    service.shutdown();
    eprintln!(
        "[chaos] breaker drill: opened={} half_opened={} closed={} recovered={recovered}",
        tr.opened, tr.half_opened, tr.closed
    );
    opened >= 1 && tr.half_opened >= 1 && tr.closed >= 1 && recovered && closed_state
}

/// LITE, BO, and DDPG each serve propose/observe rounds behind the unified
/// trait — both through `Service::start_tuner` and the bench-side
/// `tune_unified` dispatcher.
fn backend_sweep(report: &Report, ds: &Arc<Dataset>, quick: bool) {
    let space = ConfSpace::table_iv();
    let lite = LiteTuner::from_dataset(
        ds,
        NecsConfig { epochs: 1, batch_size: 256, ..Default::default() },
        778,
    );
    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(lite),
        Box::new(lite_bayesopt::BoServeTuner::new(space.clone(), 17)),
        Box::new(lite_ddpg::DdpgServeTuner::new(space.clone(), 17)),
    ];
    let cluster = ds.clusters[0].clone();
    let data = AppId::Sort.dataset(SizeTier::Valid);
    let rounds = if quick { 3 } else { 8 };
    let mut served = Vec::new();
    for tuner in tuners {
        let name = tuner.name();
        let registry = Registry::new();
        let config = ServeConfig { workers: 1, queue_capacity: 8, ..Default::default() };
        let service = Service::start_tuner(tuner, config, &registry, Tracer::disabled());
        let handle = service.handle();
        let ok = serve_rounds(&handle, &cluster, rounds);
        report.field(&format!("backend_{name}_rounds"), ok);
        served.push((name, ok));
        service.shutdown();
    }
    // The same three backends through the bench dispatcher (no service).
    let mut bo: Box<dyn Tuner> = Box::new(lite_bayesopt::BoServeTuner::new(space, 18));
    let outcome =
        lite_bench::tuning::tune_unified(bo.as_mut(), &cluster, AppId::Sort, &data, rounds, 91);
    report.field("tune_unified_bo_best_s", outcome.time_s);
    let line = served.iter().map(|(n, ok)| format!("{n}:{ok}")).collect::<Vec<_>>().join(" ");
    report.note(&format!("unified backends served rounds — {line}"));
    eprintln!("[chaos] backends: {line}");
    for (name, ok) in &served {
        assert_eq!(*ok, rounds, "{name} backend failed to serve every round");
    }
}

fn serve_rounds(handle: &ServiceHandle, cluster: &ClusterSpec, rounds: usize) -> usize {
    let data = AppId::Sort.dataset(SizeTier::Valid);
    let plan = build_job(AppId::Sort, &data);
    let mut ok = 0;
    for seed in 0..rounds as u64 {
        let Ok(rec) = handle.recommend(AppId::Sort, &data, cluster, 1, seed) else { continue };
        let result = lite_sparksim::exec::simulate(cluster, &rec.ranked[0].conf, &plan, 50 + seed);
        if handle.observe(AppId::Sort, &data, cluster, &rec.ranked[0].conf, &result).is_ok() {
            ok += 1;
        }
    }
    ok
}
