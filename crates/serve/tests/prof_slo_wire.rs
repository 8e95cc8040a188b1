//! Wire and behavior tests for the profiling/SLO plane (opcodes 11–12):
//! servers without the plane refuse the ops cleanly and answer every
//! other op byte-identically, the happy paths serve a real profile and
//! SLO status, `stats` gains its phase/SLO keys additively,
//! and the burn-rate alert provably fires under injected latency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Profiler, Registry, SloConfig, Tracer};
use lite_serve::{
    Client, ClientBuilder, ClusterRef, ConfigError, ErrorCode, ModelSnapshot, Request, ServeConfig,
    Service, TcpServer, TraceConfig,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::fault::{FaultInjector, FaultKind};
use lite_workloads::apps::AppId;
use lite_workloads::data::DataSpec;
use lite_workloads::data::SizeTier;

/// Raw v2 `recommend` request: these tests pin wire documents, so they
/// go through the raw-JSON escape hatch rather than the typed responses.
fn recommend_doc(
    client: &mut Client,
    app: AppId,
    data: &DataSpec,
    cluster: &str,
    k: usize,
    seed: u64,
) -> Json {
    let cluster = ClusterRef::Preset(cluster.to_string());
    let request = Request::Recommend { app, data: *data, cluster, k, seed, trace: None };
    client.request(&request.to_json(2)).expect("recommend")
}

fn v2_client(server: &TcpServer) -> Client {
    ClientBuilder::new().protocol(2).connect(server.local_addr()).expect("connect")
}

fn trained() -> (Arc<Dataset>, LiteTuner) {
    let ds = DatasetBuilder {
        apps: vec![AppId::Sort, AppId::KMeans],
        clusters: vec![ClusterSpec::cluster_a()],
        tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
        confs_per_cell: 3,
        seed: 47,
    }
    .build();
    let tuner = LiteTuner::from_dataset(
        &ds,
        NecsConfig { epochs: 2, batch_size: 256, ..Default::default() },
        47,
    );
    (Arc::new(ds), tuner)
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        update_batch: 1_000_000,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        ..Default::default()
    }
}

/// An SLO with an hour-wide bucket: the evaluator thread sleeps first, so
/// tests own every tick through [`lite_serve::ServiceHandle::slo_tick`].
fn test_slo(objective_ns: u64) -> SloConfig {
    SloConfig {
        objective_ns,
        target: 0.999,
        bucket: Duration::from_secs(3600),
        fast_buckets: 1,
        slow_buckets: 2,
        ..Default::default()
    }
}

fn start(config: ServeConfig, registry: &Registry, tracer: Tracer) -> (Service, TcpServer) {
    let (ds, tuner) = trained();
    let service = Service::start(ModelSnapshot::from_tuner(&tuner), ds, config, registry, tracer);
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    (service, server)
}

#[test]
fn profile_and_slo_need_their_plane_and_leave_other_ops_byte_identical() {
    let registry_plain = Registry::new();
    let registry_full = Registry::new();
    let (svc_plain, srv_plain) = start(quick_config(), &registry_plain, Tracer::disabled());
    let full_config = ServeConfig {
        slo: Some(test_slo(1_000_000)),
        profiler: Some(Profiler::new(Duration::from_micros(200))),
        ..quick_config()
    };
    let (svc_full, srv_full) = start(full_config, &registry_full, Tracer::disabled());
    let cluster_name = ClusterSpec::cluster_a().name;
    let data = AppId::KMeans.dataset(SizeTier::Valid);

    // Pre-existing ops stay byte-identical: wiring in the plane must not
    // perturb ops 0–10.
    let mut v2_plain = v2_client(&srv_plain);
    let mut v2 = v2_client(&srv_full);
    let rec_a = recommend_doc(&mut v2_plain, AppId::KMeans, &data, &cluster_name, 2, 7);
    let rec_b = recommend_doc(&mut v2, AppId::KMeans, &data, &cluster_name, 2, 7);
    assert_eq!(rec_a.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(rec_a.render(), rec_b.render(), "recommend must be unchanged");
    let ping_a = v2_plain.request(&Request::Ping.to_json(2)).expect("ping");
    let ping_b = v2.request(&Request::Ping.to_json(2)).expect("ping");
    assert_eq!(ping_a.render(), ping_b.render(), "ping must be unchanged");

    // A server without the plane refuses both ops with bad_request.
    let profile_doc = Request::Profile { k: 10 }.to_json(2);
    let slo_doc = Request::Slo.to_json(2);
    for doc in [&profile_doc, &slo_doc] {
        let resp = v2_plain.request(doc).expect("refusal");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(ErrorCode::from_response(&resp), Some(ErrorCode::BadRequest));
    }

    // The profile happy path: drive load until the sampler has caught
    // worker tag frames, then check the report shape end to end. Fresh
    // seeds every round: a repeat would be answered from the response
    // cache on the reactor thread and give the workers nothing to do.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seeds = 0..;
    let profile = loop {
        for seed in seeds.by_ref().take(16) {
            recommend_doc(&mut v2, AppId::KMeans, &data, &cluster_name, 30, seed);
        }
        let resp = v2.request(&profile_doc).expect("profile");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp:?}");
        if resp.get("samples").and_then(Json::as_u64).unwrap_or(0) > 0 {
            break resp;
        }
        assert!(Instant::now() < deadline, "sampler caught no worker frames in 60 s");
    };
    assert!(profile.get("sweeps").and_then(Json::as_u64).unwrap_or(0) > 0);
    let top = profile.get("top").and_then(Json::as_arr).expect("top table");
    assert!(!top.is_empty());
    let tags: Vec<&str> = top.iter().filter_map(|t| t.get("tag").and_then(Json::as_str)).collect();
    assert!(
        tags.iter().any(|t| t.starts_with("serve.")),
        "expected a serve.* worker tag in {tags:?}"
    );
    let folded = profile.get("folded").and_then(Json::as_str).expect("folded stacks");
    assert!(folded.lines().any(|l| l.contains("serve.")), "folded output: {folded:?}");

    // The slo happy path echoes the configured objective and both
    // windows; before any tick the status is the identity evaluation.
    let slo = v2.request(&slo_doc).expect("slo");
    assert_eq!(slo.get("ok").and_then(Json::as_bool), Some(true), "{slo:?}");
    assert_eq!(slo.get("objective_ns").and_then(Json::as_u64), Some(1_000_000));
    assert_eq!(slo.get("alert").and_then(Json::as_bool), Some(false));
    assert!(slo.get("fast").is_some() && slo.get("slow").is_some());

    // obs.prof.* metrics flow through the shared registry.
    let snap = registry_full.snapshot();
    assert!(snap.counter("obs.prof.samples").unwrap_or(0) > 0);
    assert!(snap.gauge("obs.prof.threads").unwrap_or(0.0) > 0.0);

    drop((v2_plain, v2));
    srv_plain.shutdown();
    srv_full.shutdown();
    svc_plain.shutdown();
    svc_full.shutdown();
}

#[test]
fn stats_gains_phase_and_slo_planes_additively() {
    let registry_plain = Registry::new();
    let registry_full = Registry::new();
    let (svc_plain, srv_plain) = start(quick_config(), &registry_plain, Tracer::disabled());
    let full_config = ServeConfig {
        trace: Some(TraceConfig::default()),
        slo: Some(test_slo(1_000_000)),
        ..quick_config()
    };
    let (svc_full, srv_full) = start(full_config, &registry_full, Tracer::new());

    let mut plain = v2_client(&srv_plain);
    let stats = plain.request(&Request::Stats.to_json(2)).expect("stats");
    assert!(stats.get("phases").is_none(), "plain stats must not grow keys");
    assert!(stats.get("slo").is_none(), "plain stats must not grow keys");

    let cluster_name = ClusterSpec::cluster_a().name;
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let mut full = v2_client(&srv_full);
    for seed in 0..4 {
        recommend_doc(&mut full, AppId::KMeans, &data, &cluster_name, 5, seed);
    }
    let stats = full.request(&Request::Stats.to_json(2)).expect("stats");
    let phases = stats.get("phases").and_then(Json::as_arr).expect("phases plane");
    assert!(!phases.is_empty());
    for p in phases {
        assert!(p.get("phase").and_then(Json::as_str).is_some());
        assert!(p.get("p99_ns").and_then(Json::as_u64).is_some());
    }
    // Traced v2 recommends must have recorded scoring work somewhere.
    assert!(
        phases.iter().any(|p| p.get("count").and_then(Json::as_u64).unwrap_or(0) > 0),
        "{phases:?}"
    );
    let slo = stats.get("slo").expect("slo plane");
    assert_eq!(slo.get("alert").and_then(Json::as_bool), Some(false));
    assert!(slo.get("window").is_some());

    drop((plain, full));
    srv_plain.shutdown();
    srv_full.shutdown();
    svc_plain.shutdown();
    svc_full.shutdown();
}

/// The acceptance check for the SLO plane: inject per-request latency far
/// above the objective, close a bucket, and the multi-window burn-rate
/// alert must fire — visible in the status, the wire op, and the
/// `serve.slo.alert` gauge.
#[test]
fn burn_rate_alert_fires_under_injected_latency() {
    let registry = Registry::new();
    let faults = Arc::new(FaultInjector::new(7).with_delay(
        FaultKind::RequestDelay,
        1.0,
        Duration::from_millis(3),
    ));
    // Objective 1 ms, every request delayed 3 ms: 100% bad requests, so
    // burn = 1 / (1 - 0.999) = 1000 >> both default thresholds.
    let config =
        ServeConfig { faults: Some(faults), slo: Some(test_slo(1_000_000)), ..quick_config() };
    let (svc, srv) = start(config, &registry, Tracer::disabled());
    let handle = svc.handle();
    let cluster = ClusterSpec::cluster_a();
    let data = AppId::KMeans.dataset(SizeTier::Valid);

    for seed in 0..8 {
        handle.recommend(AppId::KMeans, &data, &cluster, 2, seed).expect("recommend");
    }
    // One manual tick closes a bucket holding only bad traffic, so the
    // fast (1-bucket) and slow (2-bucket) windows both see 100% misses.
    let status = handle.slo_tick().expect("slo configured");
    assert!(status.alert, "alert must fire: {status:?}");
    assert!(status.burn_fast > 100.0, "{status:?}");
    assert!(status.burn_slow > 100.0, "{status:?}");
    assert!(status.good_fraction < 0.5, "{status:?}");
    assert!(status.alert_ticks >= 1);
    assert!(status.fast.p50 >= 1_000_000, "windowed p50 must reflect the delay: {status:?}");

    let snap = registry.snapshot();
    assert_eq!(snap.gauge("serve.slo.alert"), Some(1.0));
    assert!(snap.gauge("serve.slo.burn_fast").unwrap_or(0.0) > 100.0);
    assert!(snap.counter("serve.slo.ticks").unwrap_or(0) >= 1);
    assert!(snap.gauge("serve.slo.window_p50_ns").unwrap_or(0.0) >= 1_000_000.0);

    // The wire op reports the same alert.
    let mut client = v2_client(&srv);
    let resp = client.request(&Request::Slo.to_json(2)).expect("slo");
    assert_eq!(resp.get("alert").and_then(Json::as_bool), Some(true), "{resp:?}");

    // Recovery: the next bucket closes with no traffic, the fast window
    // burn collapses to zero, and the alert clears.
    let cleared = handle.slo_tick().expect("slo configured");
    assert!(!cleared.alert, "a clean bucket must clear the alert: {cleared:?}");
    assert_eq!(cleared.alert_ticks, 0);
    assert_eq!(registry.snapshot().gauge("serve.slo.alert"), Some(0.0));

    drop(client);
    srv.shutdown();
    svc.shutdown();
}

#[test]
fn invalid_slo_config_is_rejected_at_validation() {
    let bad = ServeConfig {
        slo: Some(SloConfig { target: 1.5, ..Default::default() }),
        ..quick_config()
    };
    assert_eq!(bad.validate(), Err(ConfigError::InvalidSlo));
    let good = ServeConfig { slo: Some(test_slo(1_000_000)), ..quick_config() };
    assert_eq!(good.validate(), Ok(()));
}
