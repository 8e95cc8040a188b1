//! Wire-compatibility tests for the `retrieve` op (opcode 10): the opcode
//! table is append-only, servers without a retrieval store refuse the op
//! with `bad_request`, and a retrieval-enabled server answers the
//! pre-existing ops byte-identically to a plain one.

use std::sync::Arc;

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Registry, Tracer};
use lite_rag::{RagConfig, RagTuner};
use lite_serve::{
    AnalyzeTarget, Client, ClientBuilder, ClusterRef, ErrorCode, ModelSnapshot, OpCode, Request,
    RetrieveTarget, ServeConfig, Service, TcpServer,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::NUM_KNOBS;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;

// ---------------------------------------------------------------------------
// Opcode-table pinning

/// The opcode table is append-only: adding an op must not renumber any
/// existing one. These constants are the wire contract.
#[test]
fn opcode_table_is_append_only() {
    let expected: [(u8, OpCode); 13] = [
        (0, OpCode::Ping),
        (1, OpCode::Recommend),
        (2, OpCode::Observe),
        (3, OpCode::Stats),
        (4, OpCode::Metrics),
        (5, OpCode::Trace),
        (6, OpCode::Health),
        (7, OpCode::Hello),
        (8, OpCode::Analyze),
        (9, OpCode::Tailtrace),
        (10, OpCode::Retrieve),
        (11, OpCode::Profile),
        (12, OpCode::Slo),
    ];
    assert_eq!(OpCode::ALL.len(), expected.len());
    for (code, op) in expected {
        assert_eq!(OpCode::from_code(u64::from(code)), Some(op), "opcode {code}");
        assert_eq!(op.code(), code);
    }
}

// ---------------------------------------------------------------------------
// Live-server compatibility

fn trained() -> (Arc<Dataset>, LiteTuner) {
    let ds = DatasetBuilder {
        apps: vec![AppId::Sort, AppId::KMeans],
        clusters: vec![ClusterSpec::cluster_a()],
        tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
        confs_per_cell: 3,
        seed: 43,
    }
    .build();
    let tuner = LiteTuner::from_dataset(
        &ds,
        NecsConfig { epochs: 2, batch_size: 256, ..Default::default() },
        43,
    );
    (Arc::new(ds), tuner)
}

fn quick_config(retrieval: Option<Arc<RagTuner>>) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        update_batch: 1_000_000,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        retrieval,
        ..Default::default()
    }
}

fn start(
    ds: &Arc<Dataset>,
    tuner: &LiteTuner,
    retrieval: Option<Arc<RagTuner>>,
) -> (Service, TcpServer) {
    let registry = Registry::new();
    let service = Service::start(
        ModelSnapshot::from_tuner(tuner),
        ds.clone(),
        quick_config(retrieval),
        &registry,
        Tracer::disabled(),
    );
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    (service, server)
}

fn v2_client(server: &TcpServer) -> Client {
    ClientBuilder::new().protocol(2).connect(server.local_addr()).expect("connect")
}

#[test]
fn retrieve_needs_a_store_and_leaves_other_ops_byte_identical() {
    let (ds, tuner) = trained();
    let cluster = ClusterRef::Preset(ds.clusters[0].name.clone());
    let rag = Arc::new(RagTuner::from_dataset(&ds, RagConfig::default()));
    assert!(!rag.is_empty(), "training dataset must seed the run store");

    let (svc_plain, srv_plain) = start(&ds, &tuner, None);
    let (svc_rag, srv_rag) = start(&ds, &tuner, Some(rag));
    let mut v2_plain = v2_client(&srv_plain);
    let mut v2 = v2_client(&srv_rag);

    let data = AppId::KMeans.dataset(SizeTier::Valid);

    // Pre-existing ops are served byte-identically by both servers:
    // wiring in retrieval must not perturb ops 1–9.
    let unperturbed = [
        Request::Recommend {
            app: AppId::KMeans,
            data,
            cluster: cluster.clone(),
            k: 2,
            seed: 7,
            trace: None,
        },
        Request::Ping,
        Request::Analyze { target: AnalyzeTarget::App(AppId::Sort) },
    ];
    for request in &unperturbed {
        let from_plain = v2_plain.request(&request.to_json(2)).expect("plain server");
        let from_rag = v2.request(&request.to_json(2)).expect("retrieval server");
        assert_eq!(from_plain.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(from_plain.render(), from_rag.render(), "{request:?} must be unchanged");
    }

    // A server without a retrieval store refuses with bad_request — not
    // internal, not a crash.
    let retrieve = |target: RetrieveTarget, k: usize| {
        Request::Retrieve { target, data, cluster: cluster.clone(), k, trace: None }.to_json(2)
    };
    let by_app = retrieve(RetrieveTarget::App(AppId::KMeans), 3);
    let refused = v2_plain.request(&by_app).expect("retrieve");
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(ErrorCode::from_response(&refused), Some(ErrorCode::BadRequest));

    // The happy path: neighbors with full adapted confs, a non-empty
    // ranked list, and the index size echoed.
    let resp = v2.request(&by_app).expect("retrieve");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp:?}");
    assert!(resp.get("index").and_then(Json::as_u64).unwrap_or(0) > 0);
    let neighbors = resp.get("neighbors").and_then(Json::as_arr).expect("neighbors");
    assert!(!neighbors.is_empty() && neighbors.len() <= 3);
    for n in neighbors {
        let conf = n.get("conf").and_then(Json::as_arr).expect("conf");
        assert_eq!(conf.len(), NUM_KNOBS);
        assert!(n.get("distance").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
        assert!(n.get("estimate_s").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
    }
    let ranked = resp.get("ranked").and_then(Json::as_arr).expect("ranked");
    assert!(!ranked.is_empty());

    // Source-text retrieval: the zero-execution path — no AppId anywhere
    // in the request, the server embeds the submitted code statically.
    let by_source = v2
        .request(&retrieve(RetrieveTarget::Source(AppId::Sort.main_source().to_string()), 2))
        .expect("retrieve_source");
    assert_eq!(by_source.get("ok").and_then(Json::as_bool), Some(true), "{by_source:?}");
    assert!(!by_source.get("neighbors").and_then(Json::as_arr).expect("neighbors").is_empty());

    drop((v2_plain, v2));
    srv_plain.shutdown();
    srv_rag.shutdown();
    svc_plain.shutdown();
    svc_rag.shutdown();
}
