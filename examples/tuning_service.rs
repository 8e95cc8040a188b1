//! The LITE tuner running as a concurrent service (lite-serve).
//!
//! Trains a small model offline, starts the service with a worker pool and
//! a TCP front-end, serves recommendations from several client threads
//! while observed feedback triggers a background Adaptive Model Update,
//! and shows the resulting hot-swap: same request, new model version,
//! cache transparently invalidated.

// Examples narrate to stdout by design.
#![allow(clippy::print_stdout)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_repro::lite::amu::AmuConfig;
use lite_repro::lite::experiment::DatasetBuilder;
use lite_repro::lite::necs::NecsConfig;
use lite_repro::lite::recommend::LiteTuner;
use lite_repro::obs::{Registry, Tracer};
use lite_repro::serve::{ModelSnapshot, ServeConfig, Service};
use lite_repro::sparksim::cluster::ClusterSpec;
use lite_repro::sparksim::exec::simulate;
use lite_repro::workloads::apps::{build_job, AppId};
use lite_repro::workloads::data::SizeTier;

fn main() {
    println!("training a small model offline...");
    let ds = Arc::new(
        DatasetBuilder {
            apps: vec![AppId::Sort, AppId::KMeans, AppId::PageRank],
            clusters: vec![ClusterSpec::cluster_a(), ClusterSpec::cluster_c()],
            tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
            confs_per_cell: 3,
            seed: 7,
        }
        .build(),
    );
    let tuner = LiteTuner::from_dataset(&ds, NecsConfig { epochs: 4, ..Default::default() }, 7);

    let registry = Registry::new();
    // `Service::start` refuses an impossible config (zero queue, inverted
    // deadlines, non-positive drift thresholds) instead of misbehaving at
    // runtime.
    let config = ServeConfig {
        workers: 4,
        update_batch: 16,
        amu: AmuConfig { epochs: 1, half_batch: 64, ..Default::default() },
        ..Default::default()
    };
    let service = Service::start(
        ModelSnapshot::from_tuner(&tuner),
        ds.clone(),
        config,
        &registry,
        Tracer::disabled(),
    );
    let handle = service.handle();
    let server = lite_repro::serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    println!("service up: 4 workers, TCP front-end on {}\n", server.local_addr());

    // Concurrent clients: three in-process threads plus one TCP client.
    let clients: Vec<_> = (0..3)
        .map(|t| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let cluster = ClusterSpec::cluster_a();
                let data = AppId::Sort.dataset(SizeTier::Valid);
                let mut served = 0usize;
                for i in 0..40u64 {
                    if handle.recommend(AppId::Sort, &data, &cluster, 3, i % 4).is_ok() {
                        served += 1;
                    }
                }
                (t, served)
            })
        })
        .collect();
    let mut tcp =
        lite_repro::serve::ClientBuilder::new().connect(server.local_addr()).expect("connect");
    let lite_repro::serve::Response::Pong { version: pinged, .. } =
        tcp.call(&lite_repro::serve::Request::Ping).expect("ping")
    else {
        panic!("ping must answer pong")
    };
    println!("TCP ping: serving model version {pinged}");

    // Feedback loop: execute recommendations and report them back until
    // the background updater publishes a new version.
    let cluster = ClusterSpec::cluster_a();
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let plan = build_job(AppId::KMeans, &data);
    let before =
        handle.recommend(AppId::KMeans, &data, &cluster, 1, 5).expect("recommend before swap");
    println!(
        "v{}: best KMeans candidate predicted {:.1}s",
        before.version, before.ranked[0].predicted_s
    );

    let t0 = Instant::now();
    let mut round = 0u64;
    while handle.swap_count() == 0 && t0.elapsed() < Duration::from_secs(300) {
        let rec = handle.recommend(AppId::KMeans, &data, &cluster, 1, round).expect("recommend");
        let result = simulate(&cluster, &rec.ranked[0].conf, &plan, 100 + round);
        let fb = handle
            .observe(AppId::KMeans, &data, &cluster, &rec.ranked[0].conf, &result)
            .expect("observe");
        println!(
            "  round {round}: observed {:>6.1}s ({fb} feedback instances)",
            result.total_time_s
        );
        round += 1;
    }
    // Give readers a beat so the swap is visible before we query.
    while handle.version() == before.version && t0.elapsed() < Duration::from_secs(300) {
        std::thread::sleep(Duration::from_millis(10));
    }

    let after =
        handle.recommend(AppId::KMeans, &data, &cluster, 1, 5).expect("recommend after swap");
    println!(
        "\nhot-swap complete: v{} -> v{} (cache invalidated: {} candidates re-scored)",
        before.version, after.version, after.scored
    );
    println!(
        "same request, updated model: predicted {:.1}s -> {:.1}s",
        before.ranked[0].predicted_s, after.ranked[0].predicted_s
    );

    for c in clients {
        let (t, served) = c.join().expect("client thread");
        println!("client {t}: {served}/40 requests served");
    }
    println!("cache hit rate: {:.1}%", handle.cache_hit_rate() * 100.0);

    drop(tcp);
    server.shutdown();
    service.shutdown();
    println!("service drained and stopped.");
}
