//! Admin-plane tests: the `stats`/`metrics`/`trace`/`health` TCP ops
//! against a live server, and the drift monitor triggering a model swap
//! before the fixed feedback batch would have.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Registry, Tracer};
use lite_serve::{
    AnalyzeTarget, ClientBuilder, ClusterRef, DriftConfig, ErrorCode, ModelSnapshot, Request,
    Response, ServeConfig, Service,
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

#[test]
fn admin_ops_answer_over_tcp() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let registry = Registry::new();
    // Enabled tracer so `trace` has spans to export.
    let service = Service::start(snapshot, ds.clone(), quick_config(), &registry, Tracer::new());
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = ClientBuilder::new().connect(server.local_addr()).expect("connect");

    // health: liveness plus the serving version.
    let health = client.call(&Request::Health).expect("health").into_admin().expect("health doc");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("version").and_then(Json::as_u64), Some(0));

    // Generate some traffic so stats/metrics/trace have content.
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let rec = client
        .call(&Request::Recommend {
            app: AppId::KMeans,
            data,
            cluster: ClusterRef::Preset(cluster.name.clone()),
            k: 2,
            seed: 3,
            trace: None,
        })
        .expect("recommend");
    assert!(matches!(rec, Response::Recommend { .. }), "{rec:?}");

    // stats: the operational summary with every advertised field.
    let stats = client.call(&Request::Stats).expect("stats").into_admin().expect("stats doc");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stats.get("version").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("swaps").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("workers").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("queue_capacity").and_then(Json::as_u64), Some(32));
    assert_eq!(stats.get("update_batch").and_then(Json::as_u64), Some(12));
    assert_eq!(stats.get("backend").and_then(Json::as_str), Some("snapshot"));
    assert!(stats.get("uptime_s").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
    assert!(stats.get("requests").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let cache = stats.get("cache").expect("cache object");
    assert!(cache.get("hit_rate").and_then(Json::as_f64).is_some());
    let drift = stats.get("drift").expect("drift object");
    assert_eq!(drift.get("drifted").and_then(Json::as_bool), Some(false));
    assert!(drift.get("mape").and_then(Json::as_f64).is_some());
    assert!(drift.get("inversion_rate").and_then(Json::as_f64).is_some());

    // metrics: Prometheus text exposition of the service registry.
    let metrics =
        client.call(&Request::Metrics).expect("metrics").into_admin().expect("metrics doc");
    let text = metrics.get("body").and_then(Json::as_str).expect("metrics body");
    assert!(text.contains("# TYPE serve_requests counter"), "{text}");
    assert!(text.contains("# TYPE serve_latency_ns histogram"), "{text}");
    assert!(text.contains("serve_latency_ns_bucket{le=\"+Inf\"}"), "{text}");
    assert!(text.contains("serve_latency_ns_count"), "{text}");
    assert!(text.contains("# TYPE serve_drift_alerts counter"), "{text}");

    // trace: Chrome trace events from the enabled tracer, B/E balanced.
    let trace = client.call(&Request::Trace).expect("trace").into_admin().expect("trace doc");
    let events = trace
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert!(!events.is_empty(), "recommend should have produced spans");
    assert_eq!(events.len() % 2, 0, "every B has an E");
    assert!(events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("serve.request")));

    drop(client);
    server.shutdown();
    service.shutdown();
}

#[test]
fn a_traced_service_keeps_a_bounded_span_tail_and_counts_the_rest_dropped() {
    use lite_obs::span::FINISHED_CAP;
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let candidates = snapshot.num_candidates;
    let tracer = Tracer::new();
    let service =
        Service::start(snapshot, ds.clone(), quick_config(), &Registry::new(), tracer.clone());
    let handle = service.handle();

    // A never-repeated seed is a miss: one `serve.request` span over one
    // `lite.candidate` span per scored candidate.
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    for seed in 0..(FINISHED_CAP / (1 + candidates) + 1_000) as u64 {
        handle.recommend(AppId::KMeans, &data, &cluster, 1, seed).expect("recommend");
    }
    let spans = tracer.finished();
    assert!(spans.len() <= FINISHED_CAP, "{} spans retained", spans.len());
    // The newest request is whole: children finish before their parent.
    let (request, earlier) = spans.split_last().expect("spans");
    assert_eq!(request.name, "serve.request");
    let children = &earlier[earlier.len() - candidates..];
    assert!(
        children.iter().all(|c| c.name == "lite.candidate" && c.parent == Some(request.id)),
        "{children:?}"
    );
    // What fell off the ring is counted, not forgotten: ids are handed out
    // in open order from 1, so the largest is how many spans ever opened,
    // and each is either in the `trace` document or reported dropped.
    let opened = spans.iter().map(|s| s.id).max().expect("spans") as usize;
    assert!(opened > FINISHED_CAP, "{opened} spans never filled the ring");
    let (doc, dropped) = handle.trace_json_capped(lite_serve::MAX_FRAME as usize / 2);
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert_eq!(events.len() / 2 + dropped, opened);
    service.shutdown();
}

#[test]
fn analyze_op_extracts_stages_and_lints_over_tcp() {
    let (ds, snapshot) = trained();
    let registry = Registry::new();
    let service = Service::start(snapshot, ds, quick_config(), &registry, Tracer::disabled());
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = ClientBuilder::new().connect(server.local_addr()).expect("connect");

    // Named workload: static extraction matches the instrumented run's
    // template set without the server executing anything.
    let resp = client
        .call(&Request::Analyze { target: AnalyzeTarget::App(AppId::KMeans) })
        .expect("analyze")
        .into_admin()
        .expect("analyze doc");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let stages = resp.get("stages").and_then(Json::as_arr).expect("stages");
    let templates: Vec<&str> =
        stages.iter().filter_map(|s| s.get("template").and_then(Json::as_str)).collect();
    assert_eq!(templates, ["parse-cache", "km-assign", "compute-cost"]);
    let assign = &stages[1];
    assert_eq!(assign.get("instances_per_run").and_then(Json::as_u64), Some(8));
    let ops = assign.get("ops").and_then(Json::as_arr).expect("ops");
    assert!(ops.iter().any(|o| o.as_str() == Some("treeAggregate")), "{ops:?}");
    let diags = resp.get("diagnostics").and_then(Json::as_arr).expect("diagnostics");
    assert!(diags.is_empty(), "clean corpus source must lint clean: {diags:?}");

    // Submitted source with a seeded defect: the lint travels the wire
    // with its span.
    let defective = r#"
        val conf = new SparkConf().setAppName("WordCount")
        val sc = new SparkContext(conf)
        val lines = sc.textFile("in.txt")
        val pairs = lines.map(l => (l, 1))
        val a = pairs.reduceByKey(_ + _).count()
        val b = pairs.reduceByKey(_ + _).count()
    "#;
    let resp = client
        .call(&Request::Analyze {
            target: AnalyzeTarget::Source { source: defective.to_string(), iterations: 1 },
        })
        .expect("analyze_source")
        .into_admin()
        .expect("analyze doc");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let diags = resp.get("diagnostics").and_then(Json::as_arr).expect("diagnostics");
    assert!(
        diags.iter().any(|d| d.get("rule").and_then(Json::as_str) == Some("uncached-reuse")),
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.get("line").and_then(Json::as_u64).unwrap_or(0) >= 1));

    // Unparseable source is a bad request, not a hang or a panic.
    let resp = client
        .call(&Request::Analyze {
            target: AnalyzeTarget::Source { source: "val = = =".to_string(), iterations: 1 },
        })
        .expect("request survives");
    assert!(
        matches!(resp, Response::Error { code: ErrorCode::BadRequest, .. }),
        "unparseable source must be a bad request: {resp:?}"
    );

    drop(client);
    server.shutdown();
    service.shutdown();
}

#[test]
fn induced_drift_triggers_swap_before_batch_count() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].clone();
    let registry = Registry::new();
    // The batch trigger is set far out of reach, so only the drift path
    // can cause a swap. The MAPE threshold sits between the two regimes fed
    // below: a top-1 prediction is the model's most optimistic, so honest
    // feedback reads ~0.7, and a 10x faster cluster reads 1.8 or more. A
    // uniform speed-up keeps ranking, so the inversion gate is off.
    let config = ServeConfig {
        update_batch: 100_000,
        drift: DriftConfig {
            window: 64,
            min_samples: 8,
            mape_threshold: 1.2,
            inversion_threshold: 2.0,
        },
        ..quick_config()
    };
    let service = Service::start(snapshot, ds.clone(), config, &registry, Tracer::disabled());
    let handle = service.handle();

    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let plan = build_job(AppId::KMeans, &data);
    let mut seed = 4100u64;
    let mut feed = |skew: f64| {
        let rec = handle.recommend(AppId::KMeans, &data, &cluster, 1, seed).expect("recommend");
        let mut result = simulate(&cluster, &rec.ranked[0].conf, &plan, seed);
        result.total_time_s *= skew;
        for stage in &mut result.stages {
            stage.duration_s *= skew;
        }
        handle
            .observe(AppId::KMeans, &data, &cluster, &rec.ranked[0].conf, &result)
            .expect("observe");
        seed += 1;
    };

    // An honest window first: on the response surface it was trained on the
    // monitor stays quiet through several updater polls, and nothing swaps.
    for _ in 0..16 {
        feed(1.0);
    }
    std::thread::sleep(Duration::from_millis(250));
    let honest = handle.drift();
    assert!(honest.samples == 16 && !honest.drifted, "honest feedback read as drift: {honest:?}");
    assert_eq!(handle.swap_count(), 0, "no swap may happen while feedback is honest");

    // Then skew the response surface: the "cluster" now runs 10x faster than
    // anything the model was trained on, so MAPE blows past the threshold.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut observes = 16u64;
    while handle.swap_count() == 0 {
        assert!(Instant::now() < deadline, "drift never triggered a swap");
        feed(0.1);
        observes += 1;
    }

    assert!((handle.feedback_len() as u64) < 100_000, "drift must fire before the batch count");
    assert!(observes < 1_000, "drift should trigger within a few windows, took {observes}");
    assert!(handle.version() >= 1, "swap publishes a new version");
    let snap = registry.snapshot();
    assert!(
        snap.counter("serve.drift.alerts").unwrap_or(0) >= 1,
        "drift alert counter must fire: {:?}",
        snap.counters
    );
    // Post-swap the monitor starts a fresh window for the new model.
    assert!(handle.drift().samples < 64, "monitor reset after swap");
    service.shutdown();
}
