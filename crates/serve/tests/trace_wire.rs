//! Wire-compatibility tests for the optional trace header: a v2
//! `recommend` frame round-trips byte-compatibly with and without the
//! `"t"` field, a tracing-disabled server answers traced and untraced
//! requests identically, and a traced v2 peer gets its id echoed and can
//! pull the captured exemplars back over the `tailtrace` op.

use std::sync::Arc;
use std::time::Duration;

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Registry, Tracer};
use lite_serve::net::{read_frame, write_frame};
use lite_serve::{
    Client, ClientBuilder, ClusterRef, ModelSnapshot, OpCode, Request, ServeConfig, Service,
    TraceConfig,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::{DataSpec, SizeTier};

/// Raw v2 `recommend` wire document, optionally trace-tagged: these tests
/// pin exact response bytes, so they bypass the typed response decoding.
fn recommend_doc(
    client: &mut Client,
    app: AppId,
    data: &DataSpec,
    cluster: &str,
    k: usize,
    seed: u64,
    trace: Option<u64>,
) -> Json {
    let cluster = ClusterRef::Preset(cluster.to_string());
    let request = Request::Recommend { app, data: *data, cluster, k, seed, trace };
    client.request(&request.to_json(2)).expect("recommend")
}
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Frame-level byte compatibility

/// A v2 `recommend` request document exactly as [`lite_serve::Client`]
/// encodes it, with the trace header optionally present.
fn v2_recommend_doc(trace: Option<u64>, k: u64, seed: u64) -> Json {
    let mut pairs =
        vec![("v", Json::from(2u64)), ("o", Json::from(u64::from(OpCode::Recommend.code())))];
    if let Some(t) = trace {
        pairs.push(("t", Json::from(t)));
    }
    pairs.push(("app", Json::from("kmeans")));
    pairs.push(("k", Json::from(k)));
    pairs.push(("seed", Json::from(seed)));
    Json::obj(pairs)
}

proptest! {
    #[test]
    fn v2_frames_roundtrip_byte_compatibly_with_and_without_trace_header(
        trace in prop::option::of(any::<u64>()),
        k in 1u64..8,
        seed in any::<u64>(),
    ) {
        let doc = v2_recommend_doc(trace, k, seed);
        let bytes = doc.render().into_bytes();
        // Length-prefixed framing is transparent.
        let mut wire = Vec::new();
        write_frame(&mut wire, &bytes).expect("write");
        let back = read_frame(&mut wire.as_slice()).expect("read").expect("frame");
        prop_assert_eq!(&back, &bytes);
        // Parse → render is the identity on the wire bytes, so the header
        // survives any reframing hop unchanged.
        let parsed = Json::parse(std::str::from_utf8(&back).unwrap()).expect("parse");
        prop_assert_eq!(parsed.render().into_bytes(), bytes);
        // The header is purely additive: stripping `"t"` yields exactly
        // the untraced encoding.
        let stripped = match &parsed {
            Json::Obj(pairs) => {
                Json::Obj(pairs.iter().filter(|(key, _)| key != "t").cloned().collect())
            }
            other => other.clone(),
        };
        prop_assert_eq!(stripped.render(), v2_recommend_doc(None, k, seed).render());
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
        seed: 41,
    }
    .build();
    let tuner = LiteTuner::from_dataset(
        &ds,
        NecsConfig { epochs: 2, batch_size: 256, ..Default::default() },
        41,
    );
    (Arc::new(ds), tuner)
}

fn quick_config(trace: Option<TraceConfig>) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        update_batch: 1_000_000,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        trace,
        ..Default::default()
    }
}

#[test]
fn trace_header_is_inert_untraced_and_echoed_traced() {
    let (ds, tuner) = trained();
    let cluster_name = ds.clusters[0].name.clone();
    let start = |trace: Option<TraceConfig>| {
        let registry = Registry::new();
        let service = Service::start(
            ModelSnapshot::from_tuner(&tuner),
            ds.clone(),
            quick_config(trace),
            &registry,
            Tracer::disabled(),
        );
        let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
        (service, server)
    };
    let (svc_plain_a, srv_plain_a) = start(None);
    let (svc_plain_b, srv_plain_b) = start(None);
    let traced_cfg = TraceConfig { capture_threshold: Duration::ZERO, exemplar_top_k: 8 };
    let (svc_traced, srv_traced) = start(Some(traced_cfg));

    let data = AppId::KMeans.dataset(SizeTier::Valid);

    // A tracing-disabled server answers a traced and an untraced v2
    // request byte-identically: the header changes nothing.
    let v2_client =
        |srv: &lite_serve::TcpServer| ClientBuilder::new().protocol(2).connect(srv.local_addr());
    let mut a = v2_client(&srv_plain_a).expect("connect");
    let mut b = v2_client(&srv_plain_b).expect("connect");
    let plain = recommend_doc(&mut a, AppId::KMeans, &data, &cluster_name, 2, 7, None);
    let traced =
        recommend_doc(&mut b, AppId::KMeans, &data, &cluster_name, 2, 7, Some(0xDEAD_BEEF));
    assert_eq!(plain.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(plain.render(), traced.render(), "trace header must be inert when tracing is off");
    assert!(traced.get("t").is_none(), "disabled server must not echo a trace id");

    // A traced v2 peer gets its id echoed and its request captured.
    let mut v2 = v2_client(&srv_traced).expect("connect");
    let resp = recommend_doc(&mut v2, AppId::KMeans, &data, &cluster_name, 2, 11, Some(42));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("t").and_then(Json::as_u64), Some(42));
    let tail = v2.request(&Request::Tailtrace.to_json(2)).expect("tailtrace");
    assert_eq!(tail.get("ok").and_then(Json::as_bool), Some(true));
    assert!(tail.get("completed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let exemplars = tail.get("exemplars").and_then(Json::as_arr).expect("exemplars");
    assert!(
        exemplars.iter().any(|e| e.get("trace_id").and_then(Json::as_u64) == Some(42)),
        "the traced request must be retrievable by its id: {tail:?}"
    );

    drop((a, b, v2));
    srv_plain_a.shutdown();
    srv_plain_b.shutdown();
    srv_traced.shutdown();
    svc_plain_a.shutdown();
    svc_plain_b.shutdown();
    svc_traced.shutdown();
}
