//! End-to-end tests of the tuning service: concurrent readers during
//! hot-swaps, load-shedding, deadlines, cache behavior, and the TCP wire.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Registry, Tracer};
use lite_serve::{
    ClientBuilder, ClusterRef, ErrorCode, ModelSnapshot, Request, Response, ServeConfig,
    ServeError, Service,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::exec::simulate;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::SizeTier;

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

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        update_batch: 12,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        ..Default::default()
    }
}

/// Feed the updater exactly one feedback batch — the same runs whatever the
/// timing, because feeding stops at the observe that fills the batch — and
/// wait until it publishes the new model version.
fn drive_one_swap(handle: &lite_serve::ServiceHandle, cluster: &ClusterSpec) {
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let plan = build_job(AppId::KMeans, &data);
    let update_batch = handle.stats().update_batch;
    let swaps_before = handle.swap_count();
    let mut seed = 900u64;
    let mut fed = 0;
    while fed < update_batch {
        let rec = handle
            .recommend(AppId::KMeans, &data, cluster, 1, seed)
            .expect("recommend during feedback loop");
        let result = simulate(cluster, &rec.ranked[0].conf, &plan, seed);
        fed = handle
            .observe(AppId::KMeans, &data, cluster, &rec.ranked[0].conf, &result)
            .expect("observe");
        seed += 1;
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while handle.swap_count() == swaps_before {
        assert!(Instant::now() < deadline, "no hot-swap within 120 s");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The whole pipeline is a function of its seeds: two independently built
/// datasets and tuners, served by 1 worker (1 shard) and by 4, answer alike
/// to the bit, before and after a hot swap driven by the same feedback.
#[test]
fn same_seeds_serve_bit_identical_top_k_whatever_the_worker_count() {
    let served = |workers: usize| {
        let (ds, snapshot) = trained();
        let cluster = ds.clusters[0].clone();
        let config = ServeConfig { workers, ..quick_config() };
        let service = Service::start(snapshot, ds, config, &Registry::new(), Tracer::disabled());
        let handle = service.handle();
        let top_k = || -> Vec<u64> {
            let mut bits = Vec::new();
            for (app, seed) in [(AppId::Sort, 7), (AppId::KMeans, 7), (AppId::KMeans, 8)] {
                let data = app.dataset(SizeTier::Valid);
                let resp = handle.recommend(app, &data, &cluster, 5, seed).expect("recommend");
                for r in &resp.ranked {
                    bits.extend(r.conf.values().iter().map(|v| v.to_bits()));
                    bits.push(r.predicted_s.to_bits());
                }
            }
            bits
        };
        let before = top_k();
        drive_one_swap(&handle, &cluster);
        (before, top_k())
    };
    let (one, four) = (served(1), served(4));
    assert_ne!(one.0, one.1, "the swap must have changed the model");
    assert_eq!(one.0, four.0, "pre-swap top-k differs between builds / worker counts");
    assert_eq!(one.1, four.1, "post-swap top-k differs between builds / worker counts");
}

#[test]
fn concurrent_readers_stay_deterministic_across_hot_swaps() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let registry = Registry::new();
    let service =
        Service::start(snapshot, ds.clone(), quick_config(), &registry, Tracer::disabled());
    let handle = service.handle();

    // Readers hammer one fixed request and record (version, scores) pairs
    // until they have witnessed a post-swap version.
    let data = AppId::Sort.dataset(SizeTier::Valid);
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let handle = handle.clone();
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                let mut seen: Vec<(u64, Vec<f64>)> = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(120);
                loop {
                    let resp = handle
                        .recommend(AppId::Sort, &data, &cluster, 30, 7)
                        .expect("reader recommend");
                    let scores: Vec<f64> = resp.ranked.iter().map(|r| r.predicted_s).collect();
                    assert_eq!(resp.cached + resp.scored, 30);
                    seen.push((resp.version, scores));
                    if resp.version >= 1 || Instant::now() > deadline {
                        return seen;
                    }
                }
            })
        })
        .collect();

    drive_one_swap(&handle, &cluster);

    let mut by_version: std::collections::HashMap<u64, Vec<f64>> = Default::default();
    let mut versions_seen = std::collections::BTreeSet::new();
    for reader in readers {
        for (version, scores) in reader.join().expect("reader panicked") {
            versions_seen.insert(version);
            // Identical request + identical model version => bit-identical
            // scores, regardless of worker, cache state, or batching.
            let canonical = by_version.entry(version).or_insert_with(|| scores.clone());
            assert_eq!(&scores, canonical, "nondeterministic scores at version {version}");
        }
    }
    assert!(
        versions_seen.len() >= 2,
        "readers never observed a hot-swap: versions {versions_seen:?}"
    );
    service.shutdown();
}

#[test]
fn full_queue_sheds_instead_of_blocking() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let config = ServeConfig { workers: 0, queue_capacity: 2, ..quick_config() };
    let registry = Registry::new();
    let service = Service::start(snapshot, ds, config, &registry, Tracer::disabled());
    let handle = service.handle();

    // No workers consume, so a stall and a recommend fill the queue
    // deterministically.
    let data = AppId::Sort.dataset(SizeTier::Valid);
    let pending: Vec<_> = (0..2)
        .map(|i| {
            let (handle, cluster) = (handle.clone(), cluster.clone());
            std::thread::spawn(move || match i {
                0 => handle.stall(Duration::ZERO),
                _ => handle.recommend(AppId::Sort, &data, &cluster, 1, 1).map(|_| ()),
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.queue_len() < 2 {
        assert!(Instant::now() < deadline, "stalls never enqueued");
        std::thread::yield_now();
    }

    // The third request is shed immediately, not queued or blocked.
    let started = Instant::now();
    let shed = handle.recommend(AppId::Sort, &data, &cluster, 1, 0);
    assert_eq!(shed.unwrap_err(), ServeError::Overloaded);
    assert!(started.elapsed() < Duration::from_secs(1), "shedding blocked");
    assert_eq!(registry.snapshot().counter("serve.shed"), Some(1));

    // Shutdown answers what is still queued instead of leaking it: no
    // blocked caller hangs on a reply nobody will send.
    service.shutdown();
    for p in pending {
        assert_eq!(p.join().expect("queued caller"), Err(ServeError::ShuttingDown));
    }
    assert_eq!(
        handle.recommend(AppId::Sort, &data, &cluster, 1, 0).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
#[should_panic(expected = "ZeroQueueCapacity")]
fn start_refuses_a_config_that_would_shed_everything() {
    let (ds, snapshot) = trained();
    let config = ServeConfig { queue_capacity: 0, ..quick_config() };
    Service::start(snapshot, ds, config, &Registry::new(), Tracer::disabled());
}

#[test]
fn queue_depth_gauge_is_the_total_over_all_shards() {
    let (ds, snapshot) = trained();
    let registry = Registry::new();
    // Two workers, so two shards; stalls round-robin over them.
    let service = Service::start(snapshot, ds, quick_config(), &registry, Tracer::disabled());
    let handle = service.handle();
    let gauge = || registry.snapshot().gauge("serve.queue_depth");
    // One stall holds each shard's worker, one more queues behind each;
    // each is admitted before the next is sent, so the round-robin holds.
    let mut stalls = Vec::new();
    for (n, ms) in [(1, 600), (2, 150), (3, 0), (4, 0)] {
        let handle = handle.clone();
        stalls.push(std::thread::spawn(move || handle.stall(Duration::from_millis(ms))));
        while registry.snapshot().counter("serve.shard.requests") != Some(n) {
            std::thread::yield_now();
        }
    }
    // Shard 1 drains first, while shard 0 still queues one: the gauge is
    // the service's total, not the last-popped shard's depth.
    assert_eq!(stalls.pop().expect("fourth stall").join().expect("stall thread"), Ok(()));
    assert_eq!(gauge(), Some(handle.queue_len() as f64));
    for t in stalls {
        assert_eq!(t.join().expect("stall thread"), Ok(()));
    }
    assert_eq!((gauge(), handle.queue_len()), (Some(0.0), 0));
    service.shutdown();
}

#[test]
fn queued_past_deadline_is_answered_deadline_exceeded() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let config = ServeConfig { workers: 1, ..quick_config() };
    let registry = Registry::new();
    let service = Service::start(snapshot, ds, config, &registry, Tracer::disabled());
    let handle = service.handle();

    // Two stalls against one worker: whichever is popped first sleeps for
    // 300 ms, so the other stays visibly queued. Waiting until we SEE a
    // queued stall guarantees at least 300 ms of stall time sits ahead of
    // the request submitted next — without it, the worker could drain a
    // lone stall before this thread ever observes it.
    let stalls: Vec<_> = (0..2)
        .map(|_| {
            let handle = handle.clone();
            std::thread::spawn(move || handle.stall(Duration::from_millis(300)))
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.queue_len() == 0 {
        assert!(Instant::now() < deadline, "stalls never enqueued");
        std::thread::yield_now();
    }

    // This request's 1 ms deadline expires while the worker stalls.
    let data = AppId::Sort.dataset(SizeTier::Valid);
    let expired =
        handle.recommend_deadline(AppId::Sort, &data, &cluster, 1, 0, Duration::from_millis(1));
    assert_eq!(expired.unwrap_err(), ServeError::DeadlineExceeded);
    assert_eq!(registry.snapshot().counter("serve.expired"), Some(1));
    for stall in stalls {
        assert_eq!(stall.join().expect("stall thread"), Ok(()));
    }
    service.shutdown();
}

#[test]
fn cache_serves_repeats_and_invalidates_on_swap() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let registry = Registry::new();
    let service =
        Service::start(snapshot, ds.clone(), quick_config(), &registry, Tracer::disabled());
    let handle = service.handle();
    let data = AppId::Sort.dataset(SizeTier::Valid);

    let first = handle.recommend(AppId::Sort, &data, &cluster, 30, 7).expect("first");
    assert_eq!((first.cached, first.scored), (0, 30));
    let second = handle.recommend(AppId::Sort, &data, &cluster, 30, 7).expect("second");
    assert_eq!((second.cached, second.scored), (30, 0));
    let firsts: Vec<f64> = first.ranked.iter().map(|r| r.predicted_s).collect();
    let seconds: Vec<f64> = second.ranked.iter().map(|r| r.predicted_s).collect();
    assert_eq!(firsts, seconds, "cache hits must be bit-identical to fresh scores");
    assert!(handle.cache_hit_rate() > 0.0);

    // A hot-swap invalidates every cached prediction.
    drive_one_swap(&handle, &cluster);
    let post = handle.recommend(AppId::Sort, &data, &cluster, 30, 7).expect("post-swap");
    assert!(post.version >= 1);
    assert_eq!(post.cached, 0, "stale-version entries must not serve");
    assert_eq!(post.scored, 30);
    service.shutdown();
}

/// Each update trains a fresh discriminator inside the model's parameter
/// store; none may still be there in the model it publishes, or version N
/// clones, clips and steps 4N dead tensors on every later swap.
#[test]
fn swaps_leave_the_served_model_with_v0s_tensors() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let v0_tensors = snapshot.model.params().len();
    let service =
        Service::start(snapshot, ds.clone(), quick_config(), &Registry::new(), Tracer::disabled());
    let handle = service.handle();
    drive_one_swap(&handle, &cluster);
    drive_one_swap(&handle, &cluster);
    let served = handle.snapshot().expect("a snapshot is always served");
    assert_eq!(served.version, 2);
    assert_eq!(served.model.params().len(), v0_tensors);
    service.shutdown();
}

#[test]
fn cold_apps_are_rejected_not_served() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let registry = Registry::new();
    let service = Service::start(snapshot, ds, quick_config(), &registry, Tracer::disabled());
    let handle = service.handle();
    // Terasort was not in the training apps, so its templates are unknown.
    let data = AppId::Terasort.dataset(SizeTier::Valid);
    let err = handle.recommend(AppId::Terasort, &data, &cluster, 1, 0).unwrap_err();
    assert_eq!(err, ServeError::ColdApp(AppId::Terasort));
    service.shutdown();
}

#[test]
fn tcp_front_end_round_trips_requests() {
    let (ds, snapshot) = trained();
    let cluster_name = ds.clusters[0].name.clone();
    let registry = Registry::new();
    let service =
        Service::start(snapshot, ds.clone(), quick_config(), &registry, Tracer::disabled());
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = ClientBuilder::new().connect(server.local_addr()).expect("connect");

    let pong = client.call(&Request::Ping).expect("ping");
    assert!(matches!(pong, Response::Pong { version: 0, .. }), "{pong:?}");

    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let resp = client
        .call(&Request::Recommend {
            app: AppId::KMeans,
            data,
            cluster: ClusterRef::Preset(cluster_name.clone()),
            k: 3,
            seed: 5,
            trace: None,
        })
        .expect("recommend");
    let Response::Recommend { ranked, .. } = resp else { panic!("not a recommend: {resp:?}") };
    assert_eq!(ranked.len(), 3);
    assert_eq!(ranked[0].conf.values().len(), 16);

    // Observe a simulated outcome of the recommended configuration.
    let rec = service
        .handle()
        .recommend(AppId::KMeans, &data, &ds.clusters[0], 1, 5)
        .expect("in-process recommend");
    let result =
        simulate(&ds.clusters[0], &rec.ranked[0].conf, &build_job(AppId::KMeans, &data), 1);
    let obs = client
        .call(&Request::Observe {
            app: AppId::KMeans,
            data,
            cluster: ClusterRef::Preset(cluster_name.clone()),
            conf: rec.ranked[0].conf.clone(),
            result: Box::new(result),
        })
        .expect("observe");
    let Response::Observe { feedback } = obs else { panic!("not an observe: {obs:?}") };
    assert!(feedback > 0);

    // Protocol v1 is gone: its `"op"`-keyed frame gets a v2-shaped
    // bad_request, and the connection survives to serve the next call.
    let bad = client.request(&Json::obj(vec![("op", Json::from("ping"))])).expect("v1 frame");
    let bad = bad.render();
    assert!(bad.starts_with(r#"{"v":2,"ok":false,"c":7,"code":"bad_request","error":"#), "{bad}");
    let cold_data = AppId::Terasort.dataset(SizeTier::Valid);
    let cold = client
        .call(&Request::Recommend {
            app: AppId::Terasort,
            data: cold_data,
            cluster: ClusterRef::Preset(cluster_name.clone()),
            k: 1,
            seed: 0,
            trace: None,
        })
        .expect("cold recommend");
    assert!(
        matches!(cold, Response::Error { code: ErrorCode::ColdApp, .. }),
        "cold app must be a typed error: {cold:?}"
    );

    drop(client);
    server.shutdown();
    service.shutdown();
}
