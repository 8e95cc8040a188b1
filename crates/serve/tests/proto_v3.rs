//! Protocol v3 wire contract (PR 9 tentpole):
//!
//! - property tests that the zero-copy binary codec round-trips every op
//!   bit-identically (encode → decode → re-encode is the same byte string),
//! - truncated / oversized / torn frames surface as clean `bad_request`
//!   errors (in-process and over live TCP, with the connection surviving),
//! - wire pins: the typed [`Request::to_json`] rendering for protocol v2
//!   is frozen as a string literal for every op, and decodes back to the
//!   same typed request,
//! - one server concurrently speaking v2 and pipelined v3, answering every
//!   op identically through both codecs,
//! - a soak of 2,000 seeded hostile rewrites of both codecs' frames against
//!   the live reactor: no panic, no hang, no leaked descriptor.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Json, Registry, SloConfig, Tracer};
use lite_rag::{RagConfig, RagTuner};
use lite_serve::proto::{
    decode_request, decode_response, encode_request, parse_header, AnalyzeTarget, ClusterRef,
    Request, Response, RetrieveTarget, FLAG_TRACED, PROTOCOL_V3, V3_MAGIC,
};
use lite_serve::{
    ClientBuilder, ErrorCode, ModelSnapshot, OpCode, ProtocolConfig, ServeConfig, Service,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, SparkConf, NUM_KNOBS};
use lite_sparksim::fault::{mix64, mutate_bytes};
use lite_sparksim::result::{FailureReason, RunResult, StageStats};
use lite_workloads::apps::AppId;
use lite_workloads::data::{DataSpec, SizeTier};

use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Deterministic request generator: one arbitrary-but-valid request per
// (seed, op) pair, derived from a mix64 stream so proptest shrinking works
// on plain integers.

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = mix64(self.0.wrapping_add(0x9E37_79B9_7F4A_7C15));
        self.0
    }

    fn f64(&mut self, scale: f64) -> f64 {
        (self.next() % 10_000) as f64 / 100.0 * scale
    }

    fn app(&mut self) -> AppId {
        let all = AppId::all();
        all[(self.next() as usize) % all.len()]
    }

    fn data(&mut self) -> DataSpec {
        DataSpec {
            rows: self.next() % 1_000_000,
            cols: (self.next() % 512) as u32,
            iterations: (self.next() % 64) as u32,
            partitions: (self.next() % 4096) as u32,
            bytes: self.next() % (1 << 40),
        }
    }

    fn cluster(&mut self) -> ClusterRef {
        if self.next().is_multiple_of(2) {
            let name = if self.next().is_multiple_of(2) { "cluster-a" } else { "cluster-c" };
            ClusterRef::Preset(name.to_string())
        } else {
            ClusterRef::Spec(ClusterSpec {
                name: format!("custom-{}", self.next() % 100),
                nodes: 1 + (self.next() % 64) as u32,
                cores_per_node: 1 + (self.next() % 128) as u32,
                cpu_ghz: self.f64(0.05),
                mem_gb_per_node: self.f64(10.0),
                mem_mts: self.f64(100.0),
                net_gbps: self.f64(1.0),
            })
        }
    }

    fn conf(&mut self, space: &ConfSpace) -> SparkConf {
        // Clamp through the space once: the codec ships raw f64 bits, and
        // `from_values` is idempotent, so the snapped conf round-trips
        // bit-identically.
        let mut values = [0.0f64; NUM_KNOBS];
        for v in values.iter_mut() {
            *v = self.f64(20.0);
        }
        SparkConf::from_values(space, values)
    }

    fn result(&mut self) -> RunResult {
        let stages = (self.next() % 5) as usize;
        RunResult {
            total_time_s: self.f64(10.0),
            stages: (0..stages)
                .map(|i| StageStats {
                    stage_id: i,
                    name: format!("stage-{}", self.next() % 1000),
                    duration_s: self.f64(5.0),
                    num_tasks: (self.next() % 2048) as u32,
                    input_bytes: self.next() % (1 << 36),
                    shuffle_read_bytes: self.next() % (1 << 34),
                    shuffle_write_bytes: self.next() % (1 << 34),
                    spill_bytes: self.next() % (1 << 30),
                    gc_time_s: self.f64(0.5),
                    peak_task_memory: self.next() % (1 << 32),
                    cached_fraction: (self.next() % 101) as f64 / 100.0,
                })
                .collect(),
            // The wire carries a single failed flag that decodes to
            // ExecutorOom, so only these two values round-trip.
            failure: (self.next().is_multiple_of(2)).then_some(FailureReason::ExecutorOom),
            executors: (self.next() % 256) as u32,
            slots: (self.next() % 4096) as u32,
        }
    }

    fn trace(&mut self) -> Option<u64> {
        (self.next().is_multiple_of(2)).then(|| 1 + self.next() % u64::MAX)
    }
}

fn arb_request(seed: u64, op: OpCode, space: &ConfSpace) -> Request {
    let mut g = Gen(seed);
    match op {
        OpCode::Ping => Request::Ping,
        OpCode::Stats => Request::Stats,
        OpCode::Metrics => Request::Metrics,
        OpCode::Trace => Request::Trace,
        OpCode::Health => Request::Health,
        OpCode::Tailtrace => Request::Tailtrace,
        OpCode::Slo => Request::Slo,
        OpCode::Hello => Request::Hello { max: g.next() },
        OpCode::Recommend => Request::Recommend {
            app: g.app(),
            data: g.data(),
            cluster: g.cluster(),
            k: (g.next() % 64) as usize,
            seed: g.next(),
            trace: g.trace(),
        },
        OpCode::Observe => Request::Observe {
            app: g.app(),
            data: g.data(),
            cluster: g.cluster(),
            conf: g.conf(space),
            result: Box::new(g.result()),
        },
        OpCode::Retrieve => Request::Retrieve {
            target: if g.next().is_multiple_of(2) {
                RetrieveTarget::App(g.app())
            } else {
                RetrieveTarget::Source(format!("val n = {}", g.next() % 1000))
            },
            data: g.data(),
            cluster: g.cluster(),
            k: (g.next() % 32) as usize,
            trace: g.trace(),
        },
        OpCode::Analyze => Request::Analyze {
            target: if g.next().is_multiple_of(2) {
                AnalyzeTarget::App(g.app())
            } else {
                AnalyzeTarget::Source {
                    source: format!("val n = {}", g.next() % 1000),
                    iterations: 1 + (g.next() % 8) as u32,
                }
            },
        },
        OpCode::Profile => Request::Profile { k: (g.next() % 64) as usize },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Encode → decode → re-encode is bit-identical for every op, and the
    // header carries the op, req_id, and trace flags faithfully.
    #[test]
    fn v3_roundtrip_bit_identical_every_op(seed in 0u64..1_000_000, which in 0usize..13) {
        let space = ConfSpace::table_iv();
        let op = OpCode::ALL[which];
        let req = arb_request(seed, op, &space);
        let req_id = (seed as u32).wrapping_mul(0x9E37);
        let frame = encode_request(&req, req_id);

        let header = parse_header(&frame).expect("header");
        prop_assert_eq!(header.op, op);
        prop_assert_eq!(header.req_id, req_id);
        prop_assert_eq!(header.flags & FLAG_TRACED != 0, req.trace_id().is_some());
        prop_assert_eq!(header.trace_id, req.trace_id().unwrap_or(0));

        let (_, decoded) = decode_request(&frame, &space).expect("decode");
        prop_assert_eq!(&decoded, &req, "decoded request differs");
        prop_assert_eq!(encode_request(&decoded, req_id), frame, "re-encode not bit-identical");
    }

    // Every truncation of every op's frame is a clean decode error — no
    // panic, no partial value — and trailing garbage is refused.
    #[test]
    fn v3_truncation_fails_cleanly_every_op(seed in 0u64..1_000_000, which in 0usize..13) {
        let space = ConfSpace::table_iv();
        let op = OpCode::ALL[which];
        let req = arb_request(seed, op, &space);
        let frame = encode_request(&req, 1);
        for cut in 0..frame.len() {
            prop_assert!(
                decode_request(&frame[..cut], &space).is_err(),
                "cut at {} of {} must fail", cut, frame.len()
            );
        }
        let mut padded = frame;
        padded.push((seed % 256) as u8);
        prop_assert!(decode_request(&padded, &space).is_err(), "trailing byte must be refused");
    }

    // Corrupting any single header byte never panics, and corrupting the
    // envelope bytes (magic / version / op) is always rejected.
    #[test]
    fn v3_header_corruption_never_panics(seed in 0u64..1_000_000, byte in 0usize..16, flip in 1u8..=255) {
        let space = ConfSpace::table_iv();
        let req = arb_request(seed, OpCode::Recommend, &space);
        let mut frame = encode_request(&req, 7);
        frame[byte] ^= flip;
        let result = decode_request(&frame, &space);
        match byte {
            0 => prop_assert_eq!(result.unwrap_err(), "bad v3 magic"),
            1 => prop_assert_eq!(result.unwrap_err(), "unsupported binary protocol version"),
            2 => prop_assert!(
                result.is_err(),
                "a flipped op byte decodes a different body layout; it must be rejected"
            ),
            _ => { let _ = result; } // req_id/flags/trace bytes: any outcome but a panic.
        }
    }
}

// ---------------------------------------------------------------------------
// Wire pins: the v2 JSON document for every op, frozen as a literal.

/// One canonical request per op with fixed field values, so the rendered
/// JSON is stable enough to pin.
fn pinned_requests(space: &ConfSpace) -> Vec<(OpCode, Request)> {
    let data = DataSpec { rows: 1000, cols: 8, iterations: 2, partitions: 4, bytes: 72000 };
    let cluster = ClusterRef::Preset("cluster-a".to_string());
    let result = RunResult {
        total_time_s: 12.5,
        stages: vec![StageStats {
            stage_id: 0,
            name: "map".to_string(),
            duration_s: 4.25,
            num_tasks: 8,
            input_bytes: 1024,
            shuffle_read_bytes: 0,
            shuffle_write_bytes: 512,
            spill_bytes: 0,
            gc_time_s: 0.5,
            peak_task_memory: 4096,
            cached_fraction: 1.0,
        }],
        failure: None,
        executors: 2,
        slots: 8,
    };
    vec![
        (OpCode::Ping, Request::Ping),
        (
            OpCode::Recommend,
            Request::Recommend {
                app: AppId::Sort,
                data,
                cluster: cluster.clone(),
                k: 3,
                seed: 7,
                trace: Some(42),
            },
        ),
        (
            OpCode::Observe,
            Request::Observe {
                app: AppId::Sort,
                data,
                cluster: cluster.clone(),
                conf: space.default_conf(),
                result: Box::new(result),
            },
        ),
        (OpCode::Stats, Request::Stats),
        (OpCode::Metrics, Request::Metrics),
        (OpCode::Trace, Request::Trace),
        (OpCode::Health, Request::Health),
        (OpCode::Hello, Request::Hello { max: 3 }),
        (
            OpCode::Analyze,
            Request::Analyze {
                target: AnalyzeTarget::Source { source: "val x = 1".to_string(), iterations: 2 },
            },
        ),
        (OpCode::Tailtrace, Request::Tailtrace),
        (
            OpCode::Retrieve,
            Request::Retrieve {
                target: RetrieveTarget::App(AppId::KMeans),
                data,
                cluster,
                k: 2,
                trace: None,
            },
        ),
        (OpCode::Profile, Request::Profile { k: 5 }),
        (OpCode::Slo, Request::Slo),
    ]
}

/// The frozen v2 documents, one `(op, v2)` pair per op. These literals ARE
/// the compatibility contract: if this test fails, the change broke
/// deployed JSON clients — fix the code, not the pin.
const WIRE_PINS: [(u8, &str); 13] = [
    (0, r#"{"v":2,"o":0}"#),
    (
        1,
        r#"{"v":2,"o":1,"t":42,"app":"Sort","data":{"rows":1000,"cols":8,"iterations":2,"partitions":4,"bytes":72000},"cluster":"cluster-a","k":3,"seed":7}"#,
    ),
    (
        2,
        r#"{"v":2,"o":2,"app":"Sort","data":{"rows":1000,"cols":8,"iterations":2,"partitions":4,"bytes":72000},"cluster":"cluster-a","conf":[64,1,1024,1,512,4,2,512,2,128,0.6,0.5,48,1,32,1],"result":{"total_time_s":12.5,"failed":false,"executors":2,"slots":8,"stages":[{"stage_id":0,"name":"map","duration_s":4.25,"num_tasks":8,"input_bytes":1024,"shuffle_read_bytes":0,"shuffle_write_bytes":512,"spill_bytes":0,"gc_time_s":0.5,"peak_task_memory":4096,"cached_fraction":1}]}}"#,
    ),
    (3, r#"{"v":2,"o":3}"#),
    (4, r#"{"v":2,"o":4}"#),
    (5, r#"{"v":2,"o":5}"#),
    (6, r#"{"v":2,"o":6}"#),
    (7, r#"{"v":2,"o":7,"max":3}"#),
    (8, r#"{"v":2,"o":8,"source":"val x = 1","iterations":2}"#),
    (9, r#"{"v":2,"o":9}"#),
    (
        10,
        r#"{"v":2,"o":10,"app":"KMeans","data":{"rows":1000,"cols":8,"iterations":2,"partitions":4,"bytes":72000},"cluster":"cluster-a","k":2}"#,
    ),
    (11, r#"{"v":2,"o":11,"k":5}"#),
    (12, r#"{"v":2,"o":12}"#),
];

#[test]
fn wire_pins_v2_unchanged_for_every_op() {
    let space = ConfSpace::table_iv();
    let requests = pinned_requests(&space);
    assert_eq!(requests.len(), OpCode::ALL.len(), "every op needs a pinned request");
    for (op, req) in requests {
        let (code, v2) = WIRE_PINS[op.code() as usize];
        assert_eq!(code, op.code(), "pin table out of order at {op:?}");
        assert_eq!(req.to_json(2).render(), v2, "v2 wire document changed for {op:?}");
        let doc = Json::parse(v2).expect("pin parses");
        assert_eq!(Request::from_json(&doc, &space), Ok(req), "v2 pin decodes to its request");
    }
}

// ---------------------------------------------------------------------------
// Live TCP: malformed binary frames, and both codecs on one server.

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
        update_batch: 1_000_000,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        ..Default::default()
    }
}

/// Read one raw frame and decode it as a v3 response.
fn read_response(stream: &mut TcpStream, space: &ConfSpace) -> (u32, Response) {
    let payload = lite_serve::net::read_frame(stream).expect("read").expect("not EOF");
    decode_response(&payload, space).expect("decode response")
}

#[test]
fn malformed_binary_frames_get_clean_errors_and_the_connection_survives() {
    let (ds, snapshot) = trained();
    let registry = Registry::new();
    let config = ServeConfig {
        // A deliberately tiny binary-frame cap so an ordinary analyze
        // request is "oversized" without shipping megabytes.
        protocol: ProtocolConfig { max_frame: 256, ..Default::default() },
        ..quick_config()
    };
    let service = Service::start(snapshot, ds, config, &registry, Tracer::disabled());
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    let space = ConfSpace::table_iv();

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // 1. A truncated v3 header (magic present, body missing) is a clean
    //    bad_request error frame, not a dropped connection.
    let torn = [V3_MAGIC, PROTOCOL_V3 as u8, 0, 0, 9, 0, 0];
    lite_serve::net::write_frame(&mut stream, &torn).expect("write torn header");
    let (_, resp) = read_response(&mut stream, &space);
    assert!(
        matches!(&resp, Response::Error { code: ErrorCode::BadRequest, message }
            if message.contains("truncated")),
        "torn header must be a bad_request: {resp:?}"
    );

    // 2. A structurally valid frame with trailing garbage is refused.
    let mut padded = encode_request(&Request::Ping, 5);
    padded.extend_from_slice(&[0xAA, 0xBB]);
    lite_serve::net::write_frame(&mut stream, &padded).expect("write padded");
    let (req_id, resp) = read_response(&mut stream, &space);
    assert_eq!(req_id, 5, "error frame must echo the request id");
    assert!(
        matches!(&resp, Response::Error { code: ErrorCode::BadRequest, message }
            if message.contains("trailing")),
        "trailing bytes must be refused: {resp:?}"
    );

    // 3. A frame over `protocol.max_frame` is rejected by the cap, with
    //    the op and req_id still echoed from the header.
    let big = Request::Analyze {
        target: AnalyzeTarget::Source { source: "x".repeat(4096), iterations: 1 },
    };
    lite_serve::net::write_frame(&mut stream, &encode_request(&big, 77)).expect("write oversized");
    let (req_id, resp) = read_response(&mut stream, &space);
    assert_eq!(req_id, 77);
    assert!(
        matches!(&resp, Response::Error { code: ErrorCode::BadRequest, message }
            if message.contains("max_frame")),
        "oversized frame must name the cap: {resp:?}"
    );

    // 4. After all three malformed frames, the same connection still
    //    serves a well-formed request.
    lite_serve::net::write_frame(&mut stream, &encode_request(&Request::Ping, 99)).expect("ping");
    let (req_id, resp) = read_response(&mut stream, &space);
    assert_eq!(req_id, 99);
    assert!(matches!(resp, Response::Pong { .. }), "connection must survive: {resp:?}");

    // 5. A torn LENGTH-PREFIXED frame (prefix promises more bytes than
    //    ever arrive) ends that connection quietly — and the server keeps
    //    accepting new ones.
    let mut torn_conn = TcpStream::connect(server.local_addr()).expect("connect");
    torn_conn.write_all(&100u32.to_be_bytes()).expect("prefix");
    torn_conn.write_all(&[V3_MAGIC; 10]).expect("partial body");
    drop(torn_conn);
    let mut fresh = TcpStream::connect(server.local_addr()).expect("reconnect");
    lite_serve::net::write_frame(&mut fresh, &encode_request(&Request::Ping, 1)).expect("ping");
    let (_, resp) = read_response(&mut fresh, &space);
    assert!(matches!(resp, Response::Pong { .. }), "server must survive a torn frame");

    drop(stream);
    drop(fresh);
    server.shutdown();
    service.shutdown();
}

/// Zero the fields two answers to the same request legitimately differ
/// in (clocks, counters that the first answer itself advanced), so the
/// rest can be compared exactly.
fn stable(resp: Response) -> Response {
    const VOLATILE: [&str; 4] = ["uptime_s", "body", "requests", "cache"];
    match resp {
        Response::Observe { .. } => Response::Observe { feedback: 0 },
        Response::Retrieve { index, neighbors, ranked, trace, .. } => {
            Response::Retrieve { index, search_ns: 0, neighbors, ranked, trace }
        }
        Response::Admin(Json::Obj(pairs)) => Response::Admin(Json::Obj(
            pairs.into_iter().filter(|(key, _)| !VOLATILE.contains(&key.as_str())).collect(),
        )),
        other => other,
    }
}

#[test]
fn one_server_speaks_v2_and_pipelined_v3_concurrently() {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].name.clone();
    let registry = Registry::new();
    let config = ServeConfig {
        protocol: ProtocolConfig { max_pipeline: 64, ..Default::default() },
        retrieval: Some(Arc::new(RagTuner::from_dataset(&ds, RagConfig::default()))),
        slo: Some(SloConfig { bucket: Duration::from_secs(3600), ..Default::default() }),
        ..quick_config()
    };
    let service = Service::start(snapshot, ds, config, &registry, Tracer::disabled());
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let space = ConfSpace::table_iv();

    // Two clients, one per codec, both live at once.
    let mut v2 = ClientBuilder::new().protocol(2).connect(addr).expect("v2 connect");
    let mut v3 = ClientBuilder::new().pipeline_depth(16).connect(addr).expect("v3 connect");
    assert_eq!(v2.protocol_version(), 2);
    assert_eq!(v3.protocol_version(), PROTOCOL_V3);

    // A JSON negotiation is answered with exactly one "v": the envelope's
    // version IS the negotiated one.
    let hello = v2.request(&Request::Hello { max: 2 }.to_json(2)).expect("hello").render();
    assert_eq!(hello, r#"{"v":2,"ok":true}"#);
    assert_eq!(hello.matches("\"v\":").count(), 1);

    let data = AppId::Sort.dataset(SizeTier::Valid);
    let recommend = |seed: u64| Request::Recommend {
        app: AppId::Sort,
        data,
        cluster: ClusterRef::Preset(cluster.clone()),
        k: 2,
        seed,
        trace: None,
    };

    // Interleave: the typed API serves identical answers on both planes.
    for round in 0..4u64 {
        for client in [&mut v2, &mut v3] {
            let resp = client.call(&recommend(round)).expect("recommend");
            let Response::Recommend { ranked, .. } = resp else {
                panic!("wrong variant: {resp:?}")
            };
            assert_eq!(ranked.len(), 2);
        }
    }

    // Codec parity: every request variant, sent as v2 JSON and as a v3
    // frame to this one server, decodes to the same typed response. The
    // pinned recommend's identity was warmed above, so both answers come
    // from the response cache; `profile` is refused alike (no profiler).
    let mut refused = 0;
    let mut table: Vec<Request> = pinned_requests(&space).into_iter().map(|(_, r)| r).collect();
    table.push(recommend(0));
    table.push(Request::Hello { max: 2 });
    table.push(Request::Retrieve {
        target: RetrieveTarget::Source(AppId::Sort.main_source().to_string()),
        data,
        cluster: ClusterRef::Spec(ClusterSpec::cluster_a()),
        k: 2,
        trace: None,
    });
    table.push(Request::Analyze { target: AnalyzeTarget::App(AppId::KMeans) });
    let _ = v3.call(&table[1]).expect("warm the pinned recommend");
    for req in &table {
        if matches!(req, Request::Hello { max: 3 }) {
            continue; // each codec negotiates its own ceiling: 2 vs 3
        }
        let json = stable(v2.call(req).expect("v2 call"));
        let binary = stable(v3.call(req).expect("v3 call"));
        assert_eq!(json, binary, "codecs disagree on {req:?}");
        refused += usize::from(!json.is_ok());
    }
    assert_eq!(refused, 2, "only `profile` and the stage-less pinned `analyze` are errors");

    // Pipelining: a batch with distinct seeds comes back in request order
    // (responses are re-matched to requests by req_id under the hood).
    let batch: Vec<Request> = (0..32u64).map(recommend).collect();
    let responses = v3.pipeline(&batch).expect("pipeline");
    assert_eq!(responses.len(), batch.len());
    for (i, resp) in responses.iter().enumerate() {
        assert!(
            matches!(resp, Response::Recommend { ranked, .. } if ranked.len() == 2),
            "pipelined response {i} wrong: {resp:?}"
        );
    }

    // The JSON plane still answers after the binary burst.
    assert!(v2.call(&Request::Stats).expect("v2 stats").is_ok());

    drop((v2, v3));
    server.shutdown();
    service.shutdown();
}

#[test]
fn hostile_frames_at_length_leave_the_live_server_serving() {
    let (ds, snapshot) = trained();
    let cluster = ClusterRef::Preset(ds.clusters[0].name.clone());
    let service =
        Service::start(snapshot, ds, quick_config(), &Registry::new(), Tracer::disabled());
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    let space = ConfSpace::table_iv();
    let open_fds = || std::fs::read_dir("/proc/self/fd").expect("procfs").count();
    // Prefix + payload, as the bytes cross the socket.
    let wire = |payload: &[u8]| {
        let mut image = Vec::new();
        lite_serve::net::write_frame(&mut image, payload).expect("frame");
        image
    };

    // One hostile image per connection; whatever comes back is whole,
    // well-formed frames, then the connection ends (a reset is the server
    // refusing unread bytes). Returns the JSON answers among them.
    let exchange = |label: &str, hostile: &[u8]| {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // A server that neither answers nor closes fails here, not forever.
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
        stream.write_all(hostile).expect("write");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut json_answers = Vec::new();
        loop {
            match lite_serve::net::read_frame(&mut stream) {
                Ok(Some(payload)) if payload.first() == Some(&V3_MAGIC) => {
                    let whole = decode_response(&payload, &space).is_ok();
                    assert!(whole, "{label}: malformed answer {payload:?}");
                }
                Ok(Some(payload)) => {
                    let doc = std::str::from_utf8(&payload).ok().and_then(|t| Json::parse(t).ok());
                    json_answers.push(doc.unwrap_or_else(|| panic!("{label}: {payload:?}")));
                }
                Ok(None) => break,
                Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
                Err(e) => panic!("{label}: connection neither answered nor closed: {e}"),
            }
        }
        json_answers
    };

    let before = open_fds();
    for seed in 0..2_000u64 {
        let req = arb_request(seed, OpCode::ALL[seed as usize % OpCode::ALL.len()], &space);
        let mut images =
            [wire(&encode_request(&req, seed as u32)), wire(req.to_json(2).render().as_bytes())];
        images.rotate_left((seed / 13 % 2) as usize);
        exchange(&format!("seed {seed}"), &mutate_bytes(seed, &images[0], &images[1]));
    }
    // The mutator never nests: a frame-sized run of `[` is parsed on the
    // reactor thread, whose stack a recursive descent that deep overflows.
    let answers = exchange("deep nesting", &wire(&vec![b'['; lite_serve::MAX_FRAME as usize]));
    let codes: Vec<_> = answers.iter().map(|a| a.get("code").and_then(Json::as_str)).collect();
    assert_eq!(codes, [Some("bad_request")], "{answers:?}");

    // The server is unharmed: a fresh client is served, every descriptor the
    // soak opened is closed again, and no serve thread died (the shutdowns
    // below join them and panic if one did).
    let mut fresh = ClientBuilder::new().connect(server.local_addr()).expect("connect");
    let data = AppId::Sort.dataset(SizeTier::Valid);
    let rec = Request::Recommend { app: AppId::Sort, data, cluster, k: 2, seed: 1, trace: None };
    let resp = fresh.call(&rec).expect("recommend after the soak");
    assert!(matches!(&resp, Response::Recommend { ranked, .. } if ranked.len() == 2), "{resp:?}");
    drop(fresh);
    let deadline = Instant::now() + Duration::from_secs(30);
    while open_fds() > before {
        assert!(Instant::now() < deadline, "{} descriptors leaked", open_fds() - before);
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
    service.shutdown();
}
