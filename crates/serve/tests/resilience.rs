//! Resilience-plane tests: circuit-breaker and backoff properties,
//! graceful degradation under injected faults, protocol-v2 round-trips,
//! and torn-frame recovery through the resilient client.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Registry, Tracer};
use lite_serve::{
    BreakerConfig, BreakerState, CircuitBreaker, ClientBuilder, ClusterRef, ErrorCode,
    ModelSnapshot, OpCode, Request, ResilientClient, Response, RetryPolicy, ServeConfig, Service,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::exec::simulate;
use lite_sparksim::fault::{FaultInjector, FaultKind};
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::SizeTier;
use proptest::prelude::*;

fn trained() -> (Arc<Dataset>, ModelSnapshot) {
    let ds = DatasetBuilder {
        apps: vec![AppId::Sort, AppId::KMeans],
        clusters: vec![ClusterSpec::cluster_a()],
        tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
        confs_per_cell: 3,
        seed: 41,
    }
    .build();
    let tuner = LiteTuner::from_dataset(
        &ds,
        NecsConfig { epochs: 2, batch_size: 256, ..Default::default() },
        41,
    );
    let snapshot = ModelSnapshot::from_tuner(&tuner);
    (Arc::new(ds), snapshot)
}

// ---------------------------------------------------------------------------
// Property tests: breaker state machine and backoff bounds (S4)

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // An Open breaker admits nothing until its cooldown has fully
    // elapsed, no matter what sequence of events preceded it.
    #[test]
    fn open_breaker_never_admits_inside_cooldown(seed in 0u64..10_000) {
        use lite_sparksim::fault::mix64;
        let cooldown = Duration::from_millis(50);
        let mut b = CircuitBreaker::new(BreakerConfig {
            window: 6,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown,
            probe_quota: 2,
        });
        let base = Instant::now();
        let mut offset = Duration::ZERO;
        // Shadow model: when did the breaker last trip?
        let mut opened_at: Option<Duration> = None;
        let mut h = seed;
        for _ in 0..300 {
            h = mix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15));
            let now = base + offset;
            match h % 4 {
                0 => offset += Duration::from_millis((h >> 8) % 30),
                1 => {
                    let before = b.state();
                    let admitted = b.allow(now);
                    if before == BreakerState::Open {
                        let at = opened_at.expect("shadow model missed a trip");
                        if offset < at + cooldown {
                            prop_assert!(
                                !admitted,
                                "admitted {:?} into an Open breaker {:?} before cooldown",
                                offset, at
                            );
                            prop_assert_eq!(b.state(), BreakerState::Open);
                        }
                    }
                }
                2 => b.on_success(now),
                _ => {
                    let before = b.state();
                    b.on_failure(now);
                    if before != BreakerState::Open && b.state() == BreakerState::Open {
                        opened_at = Some(offset);
                    }
                }
            }
        }
    }

    // Once the cooldown expires, HalfOpen admits exactly `probe_quota`
    // requests and not one more until probe outcomes arrive.
    #[test]
    fn halfopen_admits_exactly_the_probe_quota(quota in 1usize..6, extra in 1usize..8) {
        let cooldown = Duration::from_millis(20);
        let mut b = CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown,
            probe_quota: quota,
        });
        let t0 = Instant::now();
        b.on_failure(t0);
        b.on_failure(t0);
        prop_assert_eq!(b.state(), BreakerState::Open);
        let t1 = t0 + cooldown + Duration::from_millis(1);
        let mut admitted = 0;
        for _ in 0..quota + extra {
            if b.allow(t1) {
                admitted += 1;
            }
        }
        prop_assert_eq!(admitted, quota, "HalfOpen must admit exactly the probe quota");
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        // Resolving every probe successfully closes the breaker and
        // restores admission.
        for _ in 0..quota {
            b.on_success(t1);
        }
        prop_assert_eq!(b.state(), BreakerState::Closed);
        prop_assert!(b.allow(t1));
    }

    // Decorrelated jitter never leaves `[base, cap]`, for any attempt
    // index and any previous sleep.
    #[test]
    fn backoff_jitter_stays_within_base_and_cap(
        attempt in 0usize..32,
        prev_ms in 0u64..10_000,
        seed in 0u64..10_000,
    ) {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            seed,
        };
        let d = p.backoff(attempt, Duration::from_millis(prev_ms));
        prop_assert!(d >= p.base, "backoff {d:?} fell below base {:?}", p.base);
        prop_assert!(d <= p.cap, "backoff {d:?} exceeded cap {:?}", p.cap);
    }
}

// ---------------------------------------------------------------------------
// Config validation (S3)

#[test]
fn validate_rejects_invalid_configs_and_accepts_valid_ones() {
    use lite_serve::ConfigError;

    let secs = Duration::from_secs;
    let cases = [
        (ServeConfig { queue_capacity: 0, ..Default::default() }, ConfigError::ZeroQueueCapacity),
        (ServeConfig { update_batch: 0, ..Default::default() }, ConfigError::ZeroUpdateBatch),
        (
            ServeConfig { default_deadline: secs(10), max_deadline: secs(1), ..Default::default() },
            ConfigError::InvertedDeadlines,
        ),
        (
            ServeConfig {
                drift: lite_serve::DriftConfig { mape_threshold: 0.0, ..Default::default() },
                ..Default::default()
            },
            ConfigError::NonPositiveDriftThreshold,
        ),
    ];
    for (config, refusal) in cases {
        assert_eq!(config.validate(), Err(refusal));
    }
    let valid = ServeConfig {
        workers: 3,
        default_deadline: Duration::from_millis(250),
        max_deadline: secs(2),
        update_batch: 16,
        ..Default::default()
    };
    assert_eq!(valid.validate(), Ok(()));
}

// ---------------------------------------------------------------------------
// Graceful degradation (tentpole)

#[test]
fn updater_panic_pins_last_good_snapshot_and_recovers_after_disarm() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let faults = Arc::new(FaultInjector::new(97).with(FaultKind::UpdaterPanic, 1.0));
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        update_batch: 4,
        amu: AmuConfig { epochs: 1, half_batch: 16, ..Default::default() },
        faults: Some(faults.clone()),
        ..Default::default()
    };
    let registry = Registry::new();
    let service = Service::start(snapshot, ds.clone(), config, &registry, Tracer::disabled());
    let handle = service.handle();

    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let plan = build_job(AppId::KMeans, &data);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut seed = 500u64;
    while handle.stats().updater_failures == 0 {
        assert!(Instant::now() < deadline, "updater never attempted an update");
        let rec = handle.recommend(AppId::KMeans, &data, &cluster, 1, seed).expect("recommend");
        let result = simulate(&cluster, &rec.ranked[0].conf, &plan, seed);
        handle
            .observe(AppId::KMeans, &data, &cluster, &rec.ranked[0].conf, &result)
            .expect("observe");
        seed += 1;
    }

    // The injected panic must not take the service down: the last good
    // snapshot stays pinned and the degradation signals are raised.
    assert!(handle.degraded(), "updater failure must raise degraded");
    assert_eq!(handle.version(), 0, "failed update must pin the last-good version");
    assert_eq!(handle.swap_count(), 0);
    assert_eq!(registry.gauge("serve.degraded").value(), 1.0);
    let rec = handle.recommend(AppId::KMeans, &data, &cluster, 3, 1).expect("degraded serves");
    assert!(!rec.ranked.is_empty());

    // Chaos over: the next successful update clears degradation.
    faults.disarm();
    let deadline = Instant::now() + Duration::from_secs(120);
    while handle.swap_count() == 0 {
        assert!(Instant::now() < deadline, "no recovery swap after disarm");
        let rec = handle.recommend(AppId::KMeans, &data, &cluster, 1, seed).expect("recommend");
        let result = simulate(&cluster, &rec.ranked[0].conf, &plan, seed);
        handle
            .observe(AppId::KMeans, &data, &cluster, &rec.ranked[0].conf, &result)
            .expect("observe");
        seed += 1;
    }
    assert!(!handle.degraded(), "successful swap must clear degraded");
    assert!(handle.version() >= 1);
    assert_eq!(registry.gauge("serve.degraded").value(), 0.0);
    assert!(handle.stats().updater_failures >= 1);
    service.shutdown();
}

#[test]
fn score_failure_falls_back_to_the_default_configuration() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let faults = Arc::new(FaultInjector::new(11).with(FaultKind::ScoreFail, 1.0));
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        faults: Some(faults.clone()),
        ..Default::default()
    };
    let registry = Registry::new();
    let service = Service::start(snapshot, ds.clone(), config, &registry, Tracer::disabled());
    let handle = service.handle();

    let data = AppId::Sort.dataset(SizeTier::Valid);
    let resp = handle.recommend(AppId::Sort, &data, &cluster, 5, 3).expect("fallback answers");
    assert!(resp.degraded, "fallback responses must self-identify");
    assert_eq!(resp.ranked.len(), 1, "fallback serves the single default conf");
    let default_conf = handle.snapshot().expect("snapshot backend").acg.space().default_conf();
    assert_eq!(resp.ranked[0].conf, default_conf);
    assert_eq!(resp.ranked[0].predicted_s, 0.0, "no model prediction behind the fallback");
    assert!(handle.stats().fallbacks >= 1);
    assert!(faults.fired(FaultKind::ScoreFail) >= 1);

    // Disarmed, the same request scores normally again.
    faults.disarm();
    let resp = handle.recommend(AppId::Sort, &data, &cluster, 5, 3).expect("normal path");
    assert!(!resp.degraded);
    assert_eq!(resp.ranked.len(), 5);
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Protocol v2 (S2)

#[test]
fn v2_codes_round_trip_and_cover_every_variant() {
    for op in OpCode::ALL {
        assert_eq!(OpCode::from_code(u64::from(op.code())), Some(op));
    }
    for code in ErrorCode::ALL {
        assert_eq!(ErrorCode::from_code(u64::from(code.code())), Some(code));
        // The error envelope the server renders decodes back to the code.
        let rendered = Response::Error { code, message: "detail".to_string() }.to_json();
        assert_eq!(rendered.get("code").and_then(Json::as_str), Some(code.name()));
        assert_eq!(ErrorCode::from_response(&rendered), Some(code));
    }
    assert_eq!(OpCode::from_code(250), None);
    assert_eq!(ErrorCode::from_code(250), None);
}

#[test]
fn tcp_serves_v2_envelopes_with_structured_errors() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let config = ServeConfig { workers: 2, queue_capacity: 16, ..Default::default() };
    let registry = Registry::new();
    let service = Service::start(snapshot, ds, config, &registry, Tracer::disabled());
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");

    // Negotiated client: numeric ops, stamped responses, numeric codes.
    let mut v2 = ClientBuilder::new().protocol(2).connect(server.local_addr()).expect("connect");
    assert_eq!(v2.protocol_version(), 2);
    let resp = v2.request(&Request::Ping.to_json(2)).expect("v2 ping");
    assert_eq!(resp.get("v").and_then(Json::as_u64), Some(2));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    let resp = v2.request(&Request::Stats.to_json(2)).expect("v2 stats");
    assert_eq!(resp.get("backend").and_then(Json::as_str), Some("snapshot"));

    // v2 structured errors: cold app carries its numeric code.
    let cold = Request::Recommend {
        app: AppId::Terasort,
        data: AppId::Terasort.dataset(SizeTier::Valid),
        cluster: ClusterRef::Preset(cluster.name.clone()),
        k: 3,
        seed: 1,
        trace: None,
    };
    let resp = v2.request(&cold.to_json(2)).expect("wire ok");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(ErrorCode::from_response(&resp), Some(ErrorCode::ColdApp));
    assert_eq!(resp.get("v").and_then(Json::as_u64), Some(2));

    // Unknown numeric op is a BadRequest, not a dropped connection.
    let resp = v2
        .request(&Json::obj(vec![("v", Json::from(2u64)), ("o", Json::from(99u64))]))
        .expect("bad op answered");
    assert_eq!(ErrorCode::from_response(&resp), Some(ErrorCode::BadRequest));

    // Asking for a future version clamps to what the JSON codec speaks.
    let resp = v2.request(&Request::Hello { max: 9 }.to_json(2)).expect("hello");
    assert_eq!(resp.get("v").and_then(Json::as_u64), Some(lite_serve::PROTOCOL_VERSION));

    server.shutdown();
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Torn frames + resilient client (tentpole)

#[test]
fn resilient_client_loses_nothing_to_torn_frames() {
    use FaultKind::*;
    let ms = Duration::from_millis;
    loses_nothing_under(FaultInjector::new(23).with(TornFrame, 0.3), &[TornFrame]);
    // The full chaos mix: every wire and model fault a request can meet,
    // beside an updater that panics, fails and delays its swaps.
    let mix = FaultInjector::new(0xC4A0)
        .with(TornFrame, 0.25)
        .with_delay(RequestDelay, 0.1, ms(2))
        .with(ScoreFail, 0.2)
        .with(UpdaterPanic, 0.6)
        .with_delay(SwapDelay, 0.3, ms(5))
        .with(SwapFail, 0.25);
    loses_nothing_under(mix, &[TornFrame, RequestDelay, ScoreFail]);
}

/// Recommend → execute → observe rounds through the resilient client while
/// `faults` is armed: every call is answered, each of `must_fire` fired.
fn loses_nothing_under(faults: FaultInjector, must_fire: &[FaultKind]) {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let faults = Arc::new(faults);
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        update_batch: 4,
        amu: AmuConfig { epochs: 1, half_batch: 16, ..Default::default() },
        faults: Some(faults.clone()),
        ..Default::default()
    };
    let registry = Registry::new();
    let service = Service::start(snapshot, ds, config, &registry, Tracer::disabled());
    let handle = service.handle();
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");

    let mut client = ResilientClient::single(
        server.local_addr(),
        RetryPolicy {
            max_attempts: 24,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: 5,
        },
        // This test is about retries, not breaking: an unreachable sample
        // floor keeps the breaker Closed through every torn frame.
        BreakerConfig { min_samples: usize::MAX, ..Default::default() },
    );

    let data = AppId::Sort.dataset(SizeTier::Valid);
    let plan = build_job(AppId::Sort, &data);
    for seed in 0..30u64 {
        let resp = client
            .call(&Request::Recommend {
                app: AppId::Sort,
                data,
                cluster: ClusterRef::Preset(cluster.name.clone()),
                k: 1,
                seed,
                trace: None,
            })
            .expect("no request may be lost forever");
        let Response::Recommend { ranked, .. } = resp else { panic!("{resp:?}") };
        let conf = ranked[0].conf.clone();
        let result = Box::new(simulate(&cluster, &conf, &plan, seed));
        let cluster = ClusterRef::Preset(cluster.name.clone());
        let resp = client
            .call(&Request::Observe { app: AppId::Sort, data, cluster, conf, result })
            .expect("no feedback may be lost forever");
        assert!(resp.is_ok(), "{resp:?}");
    }
    for kind in must_fire {
        assert!(faults.fired(*kind) >= 1, "{kind:?} never fired: chaos was not exercised");
    }
    // Retries would mask a scoring failure answered `Internal`: every firing
    // must have been served as a fallback instead.
    assert!(handle.stats().fallbacks >= faults.fired(FaultKind::ScoreFail));
    // The armed updater met that feedback while the service kept answering.
    let deadline = Instant::now() + Duration::from_secs(120);
    while handle.stats().updater_failures == 0 && handle.swap_count() == 0 {
        assert!(Instant::now() < deadline, "updater never attempted an update");
        std::thread::sleep(Duration::from_millis(10));
    }

    server.shutdown();
    service.shutdown();
}

#[test]
fn breaker_opens_under_storm_and_closes_after_recovery() {
    let (ds, snapshot) = trained();
    let faults = Arc::new(FaultInjector::new(29).with(FaultKind::TornFrame, 1.0));
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        faults: Some(faults.clone()),
        ..Default::default()
    };
    let registry = Registry::new();
    let service = Service::start(snapshot, ds, config, &registry, Tracer::disabled());
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");

    let mut client = ResilientClient::single(
        server.local_addr(),
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
            seed: 9,
        },
        BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown: Duration::from_millis(30),
            probe_quota: 1,
        },
    );

    // Every response is torn: the attempt budget drains and the breaker
    // trips along the way.
    let err = client.call(&Request::Ping).expect_err("storm must exhaust");
    assert!(matches!(err, lite_serve::ClientError::Exhausted { .. }), "got {err}");
    assert!(client.breaker_transitions().opened >= 1, "breaker never opened under storm");

    // Storm ends; after the cooldown the half-open probe succeeds and the
    // breaker closes again.
    faults.disarm();
    std::thread::sleep(Duration::from_millis(35));
    let resp = client.call(&Request::Ping).expect("recovery ping");
    assert!(matches!(resp, Response::Pong { .. }), "{resp:?}");
    let tr = client.breaker_transitions();
    assert!(tr.half_opened >= 1, "breaker never probed");
    assert!(tr.closed >= 1, "breaker never closed after recovery");
    assert_eq!(client.breaker_states()[0].1, BreakerState::Closed);

    server.shutdown();
    service.shutdown();
}
