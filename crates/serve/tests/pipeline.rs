//! What a pipelined burst may not lose now that it leaves in one `write`
//! per direction (PR 23): the reactor corks a connection's replies for the
//! length of a pass and `Client::pipeline` sends its window whole, topped
//! up by half-windows — so order, correlation, JSON's serial contract and
//! a traced reply's `Write` phase are pinned here, at the window's edges
//! and with inline and worker replies in one pass.

use std::collections::HashSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Phase, Registry, Tracer};
use lite_serve::net::{read_frame, serve_tcp, write_frame};
use lite_serve::proto::{decode_response, encode_request};
use lite_serve::{
    ClientBuilder, ClusterRef, ModelSnapshot, Request, Response, ServeConfig, Service, TcpServer,
    TraceConfig,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::ConfSpace;
use lite_workloads::apps::AppId;
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
        NecsConfig { epochs: 1, batch_size: 256, ..Default::default() },
        41,
    );
    let snapshot = ModelSnapshot::from_tuner(&tuner);
    (Arc::new(ds), snapshot)
}

/// A live service, tail forensics on, and its loopback front-end.
fn start() -> (Service, TcpServer, String) {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].name.clone();
    let config = ServeConfig {
        workers: 2,
        update_batch: 1_000_000,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        trace: Some(TraceConfig::default()),
        ..Default::default()
    };
    let service = Service::start(snapshot, ds, config, &Registry::new(), Tracer::disabled());
    let server = serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    (service, server, cluster)
}

/// A `recommend` the service has not scored yet when `seed` is fresh; its
/// answer holds `k` candidates.
fn recommend(cluster: &str, k: usize, seed: u64, trace: Option<u64>) -> Request {
    Request::Recommend {
        app: AppId::Sort,
        data: AppId::Sort.dataset(SizeTier::Valid),
        cluster: ClusterRef::Preset(cluster.to_string()),
        k,
        seed,
        trace,
    }
}

/// A raw connection (no client, no negotiation) that gives up on a reply
/// after ten seconds instead of hanging the suite.
fn raw(server: &TcpServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream
}

#[test]
fn a_pipeline_answers_in_request_order_at_every_window_edge() {
    let (service, server, cluster) = start();
    let handle = service.handle();
    let spec = ClusterSpec::cluster_a();
    for depth in [1usize, 2, 32] {
        let mut client =
            ClientBuilder::new().pipeline_depth(depth).connect(server.local_addr()).expect("v3");
        for n in [1, depth - 1, depth, depth + 1, 10 * depth + 3] {
            // Identities told apart by seed and by how many candidates
            // they ask for; what the service answers each in process is
            // what the wire must have returned, in request order.
            let identity = |i: usize| (1 + i % 5, (i % 64) as u64);
            let batch: Vec<Request> =
                (0..n).map(|i| recommend(&cluster, identity(i).0, identity(i).1, None)).collect();
            let responses = client.pipeline(&batch).expect("pipeline");
            assert_eq!(responses.len(), n, "depth {depth}, n {n}");
            for (i, response) in responses.iter().enumerate() {
                let (k, seed) = identity(i);
                let data = AppId::Sort.dataset(SizeTier::Valid);
                let local = handle.recommend(AppId::Sort, &data, &spec, k, seed).expect("local");
                let Response::Recommend { version, ranked, .. } = response else {
                    panic!("depth {depth}, n {n}, answer {i}: {response:?}")
                };
                assert_eq!(*version, local.version);
                assert_eq!(ranked, &local.ranked, "depth {depth}, n {n}: answer {i} out of order");
            }
        }
    }
    server.shutdown();
    service.shutdown();
}

#[test]
fn inline_and_worker_replies_of_one_pass_answer_each_id_once() {
    let (service, server, cluster) = start();
    let space = ConfSpace::table_iv();
    let mut warm = ClientBuilder::new().connect(server.local_addr()).expect("v3");
    let cached: Vec<Request> = (0..16).map(|seed| recommend(&cluster, 2, seed, None)).collect();
    assert!(warm.pipeline(&cached).expect("warm").iter().all(Response::is_ok));

    // One segment, one pass: cached identities (answered inline, into the
    // corked buffer), never-seen ones (answered by a worker, during the
    // pass or after it) and pings, interleaved.
    let mut stream = raw(&server);
    let mut image = Vec::new();
    for id in 1..=32u32 {
        let request = match id % 4 {
            0 => Request::Ping,
            1 | 2 => recommend(&cluster, 2, u64::from(id) % 16, None),
            _ => recommend(&cluster, 2, 1_000 + u64::from(id), None),
        };
        write_frame(&mut image, &encode_request(&request, id)).expect("frame");
    }
    stream.write_all(&image).expect("burst");
    let mut ids = HashSet::new();
    let (mut inline, mut scored) = (0, 0);
    for _ in 0..32 {
        let payload = read_frame(&mut stream).expect("a reply").expect("not a hang-up");
        let (id, response) = decode_response(&payload, &space).expect("decode");
        assert!(ids.insert(id), "request {id} answered twice");
        match response {
            Response::Pong { .. } => assert_eq!(id % 4, 0),
            Response::Recommend { cached, scored: by_worker, ranked, .. } => {
                assert_eq!(ranked.len(), 2);
                inline += usize::from(cached > 0);
                scored += usize::from(by_worker > 0);
            }
            other => panic!("request {id}: {other:?}"),
        }
    }
    assert_eq!(ids, (1..=32).collect::<HashSet<u32>>());
    assert_eq!((inline, scored), (16, 8), "both kinds of reply were in the burst");
    // Nothing follows the 32nd reply.
    stream.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
    assert!(read_frame(&mut stream).is_err(), "a 33rd reply");
    drop((stream, warm));
    server.shutdown();
    service.shutdown();
}

#[test]
fn json_frames_of_one_segment_are_answered_strictly_in_order() {
    let (service, server, cluster) = start();
    let space = ConfSpace::table_iv();
    // JSON answers carry no correlation tag, so order is all a peer has:
    // never-seen recommends (a worker's reply, slow) before pings (inline,
    // fast), each recommend asking for a different number of candidates.
    let requests: Vec<Request> = (0..12)
        .map(|i| {
            if i % 3 == 2 {
                Request::Ping
            } else {
                recommend(&cluster, 1 + i % 5, 500 + i as u64, None)
            }
        })
        .collect();
    let mut stream = raw(&server);
    let mut image = Vec::new();
    for request in &requests {
        write_frame(&mut image, request.to_json(2).render().as_bytes()).expect("frame");
    }
    stream.write_all(&image).expect("burst");
    for (i, request) in requests.iter().enumerate() {
        let payload = read_frame(&mut stream).expect("a reply").expect("not a hang-up");
        let doc = Json::parse(std::str::from_utf8(&payload).expect("utf-8")).expect("json");
        match (request, Response::from_json(request.op(), &doc, &space)) {
            (Request::Ping, Response::Pong { .. }) => {}
            (Request::Recommend { k, .. }, Response::Recommend { ranked, .. }) => {
                assert_eq!(ranked.len(), *k, "reply {i} is another request's");
            }
            (_, other) => panic!("reply {i} to {:?}: {other:?}", request.op()),
        }
    }
    drop(stream);
    server.shutdown();
    service.shutdown();
}

#[test]
fn a_traced_reply_inside_a_burst_is_written_before_its_trace_completes() {
    let (service, server, cluster) = start();
    let handle = service.handle();
    let mut client = ClientBuilder::new().connect(server.local_addr()).expect("v3");
    let hot: Vec<Request> = (0..32).map(|seed| recommend(&cluster, 2, seed, None)).collect();
    assert!(client.pipeline(&hot).expect("warm").iter().all(Response::is_ok));

    // The same 32 hits, the 20th traced: 19 replies sit in the corked
    // buffer when it is answered.
    const TRACE: u64 = 0x7EA5_E11E;
    let mut burst = hot.clone();
    burst[19] = recommend(&cluster, 2, 19, Some(TRACE));
    let responses = client.pipeline(&burst).expect("burst");
    for (i, response) in responses.iter().enumerate() {
        let Response::Recommend { trace, scored: 0, .. } = response else {
            panic!("answer {i} is not an inline hit: {response:?}")
        };
        assert_eq!(*trace, (i == 19).then_some(TRACE), "answer {i}");
    }
    // The reactor completes the trace right after the reply is out.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.tail_totals().0 == 0 {
        assert!(Instant::now() < deadline, "the traced request never completed");
        std::thread::yield_now();
    }
    let exemplars = handle.tail_exemplars();
    let exemplar = exemplars.iter().find(|e| e.trace_id == TRACE).expect("captured");
    let write = exemplar.spans.iter().find(|s| s.phase == Phase::Write).expect("a Write span");
    // A reply that was only appended to the buffer shows tens of
    // nanoseconds here; handing 20 replies to a TCP socket takes a `write`.
    assert!(write.duration_ns() >= 1_000, "Write took {} ns: {exemplar:?}", write.duration_ns());
    // …and `tailtrace` serves it over the wire.
    let Response::Admin(tail) = client.call(&Request::Tailtrace).expect("tailtrace") else {
        panic!("tailtrace answers with a document")
    };
    let listed = tail.get("exemplars").and_then(Json::as_arr).expect("exemplars");
    assert!(
        listed.iter().any(|e| e.get("trace_id").and_then(Json::as_u64) == Some(TRACE)),
        "{tail:?}"
    );
    drop(client);
    server.shutdown();
    service.shutdown();
}
