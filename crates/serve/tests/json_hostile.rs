//! `Json::parse` is an input boundary: the reactor parses every v2 frame a
//! client sends, and the client parses every admin document a server
//! sends back. Seeded hostile rewrites (bit flips, truncations, clobbered
//! four-byte fields, splices into another document, appended garbage; one
//! to three rewrites stacked, read back as lossy UTF-8) of rendered
//! `stats`, `health` and `metrics` documents and of v2 request envelopes
//! must each come back as `Ok` or `Err`, never as a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lite_core::experiment::DatasetBuilder;
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Registry, Tracer};
use lite_serve::{
    AnalyzeTarget, ClientBuilder, ClusterRef, ModelSnapshot, Request, RetrieveTarget, ServeConfig,
    Service,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::exec::simulate;
use lite_sparksim::fault::mutate_bytes;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::SizeTier;

/// Rewrites per seed document.
const PER_DOC: u64 = 300;

/// The documents the rewrites start from: three admin answers of a live
/// server that has served one `recommend`, and five v2 request envelopes.
fn seed_documents() -> Vec<String> {
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
    let cluster = ds.clusters[0].clone();
    let space = ds.space.clone();
    let service = Service::start(
        ModelSnapshot::from_tuner(&tuner),
        Arc::new(ds),
        ServeConfig { workers: 1, ..Default::default() },
        &Registry::new(),
        Tracer::new(),
    );
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = ClientBuilder::new().connect(server.local_addr()).expect("connect");

    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let preset = ClusterRef::Preset(cluster.name.clone());
    let recommend = Request::Recommend {
        app: AppId::KMeans,
        data,
        cluster: preset.clone(),
        k: 2,
        seed: 3,
        trace: Some(9),
    };
    client.call(&recommend).expect("recommend");
    let mut docs: Vec<String> = [Request::Stats, Request::Health, Request::Metrics]
        .iter()
        .map(|op| client.call(op).expect("admin op").into_admin().expect("admin doc").render())
        .collect();
    drop(client);
    server.shutdown();
    service.shutdown();

    let conf = space.default_conf();
    let result = simulate(&cluster, &conf, &build_job(AppId::Sort, &data), 5);
    let requests = [
        recommend,
        Request::Observe {
            app: AppId::Sort,
            data,
            cluster: preset.clone(),
            conf,
            result: Box::new(result),
        },
        Request::Retrieve {
            target: RetrieveTarget::App(AppId::KMeans),
            data,
            cluster: preset,
            k: 2,
            trace: None,
        },
        Request::Analyze {
            target: AnalyzeTarget::Source {
                source: "val xs = sc.textFile(\"in\").map(l => (l, 1))".to_string(),
                iterations: 2,
            },
        },
        Request::Hello { max: 3 },
    ];
    docs.extend(requests.iter().map(|r| r.to_json(2).render()));
    docs
}

#[test]
fn mutated_documents_parse_or_fail_cleanly() {
    let docs = seed_documents();
    let total = PER_DOC * docs.len() as u64;
    let (mut ok, mut err, mut panicked) = (0, 0, Vec::new());
    for seed in 0..total {
        let base = &docs[seed as usize % docs.len()];
        let other = docs[(seed as usize * 7 + 3) % docs.len()].as_bytes();
        let mut bytes = base.as_bytes().to_vec();
        for round in 0..1 + seed % 3 {
            bytes = mutate_bytes(seed.wrapping_mul(31).wrapping_add(round), &bytes, other);
        }
        let text = String::from_utf8_lossy(&bytes);
        match catch_unwind(AssertUnwindSafe(|| Json::parse(&text))) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panicked.push(seed),
        }
    }
    // The admin documents carry live figures (uptime, latencies), so the
    // split moves a little from run to run; nothing below depends on it.
    eprintln!("json_hostile: {ok} Ok, {err} Err of {total}");
    assert!(panicked.is_empty(), "Json::parse panicked on seeds {panicked:?}");
    assert!(total >= 2_400);
    // Both outcomes are exercised: some rewrites still parse, some do not.
    assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
}
