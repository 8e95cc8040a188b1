//! What the reactor's idle `sleep` used to hide (PR 19). `net.rs` blocks in
//! one `poll(2)` now, and a blocked thread only moves when something wakes
//! it — so each way of waking it, and each way of not, is pinned here:
//!
//! - (a) an idle reactor does not run, its hot window over,
//! - (b) a peer that never reads its replies stalls nobody, and is dropped
//!   after the out-buffer deadline,
//! - (c) no reply wake-up is lost when the reactor parks on every reply,
//!   and a half-closed connection still gets its in-flight replies,
//! - (d) `TcpServer::shutdown` wakes a blocked reactor,
//! - (e) a pipelined burst of cached answers crosses loopback in one
//!   segment a side (PR 23: replies corked per pass, the window sent whole),
//! - (f) and a corked pass strands no reply in the out-buffer.
//!
//! The tests count threads and descriptors of the whole process and time
//! single round trips, so they take turns ([`serial`]).

use std::collections::HashSet;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use lite_core::amu::AmuConfig;
use lite_core::experiment::{Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Registry, Tracer};
use lite_serve::net::{read_frame, serve_tcp, write_frame};
use lite_serve::proto::{decode_response, encode_request, ClusterRef, Request, Response};
use lite_serve::{
    Client, ClientBuilder, ModelSnapshot, ProtocolConfig, ServeConfig, Service, TcpServer,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::ConfSpace;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

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

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        update_batch: 1_000_000,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        ..Default::default()
    }
}

/// A live service (its tracer on, so `trace` documents grow with the
/// requests served) and its loopback front-end.
fn start(config: ServeConfig) -> (Service, TcpServer, String) {
    let (ds, snapshot) = trained();
    let cluster = ds.clusters[0].name.clone();
    let service = Service::start(snapshot, ds, config, &Registry::new(), Tracer::new());
    let server = serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    (service, server, cluster)
}

/// A `recommend` the service has not scored yet when `seed` is fresh.
fn recommend(cluster: &str, seed: u64) -> Request {
    Request::Recommend {
        app: AppId::Sort,
        data: AppId::Sort.dataset(SizeTier::Valid),
        cluster: ClusterRef::Preset(cluster.to_string()),
        k: 2,
        seed,
        trace: None,
    }
}

/// `n` negotiated connections that then say nothing.
fn idle_clients(server: &TcpServer, n: usize) -> Vec<Client> {
    (0..n).map(|_| ClientBuilder::new().connect(server.local_addr()).expect("connect")).collect()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// Wait (bounded) until the process holds `want` descriptors again.
fn await_fds(want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while open_fds() != want {
        assert!(Instant::now() < deadline, "{what}: {} descriptors, want {want}", open_fds());
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `voluntary_ctxt_switches` and CPU time (clock ticks, user + system) of
/// the one thread named `serve-reactor`.
fn reactor_ran() -> (u64, u64) {
    let mut found = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim() == "serve-reactor" {
            let status = std::fs::read_to_string(task.path().join("status")).expect("status");
            let line = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
            let switches = line.expect("counter").trim().parse::<u64>().expect("number");
            // `pid (comm) state …`: utime and stime are the 12th and 13th
            // fields after the name.
            let stat = std::fs::read_to_string(task.path().join("stat")).expect("stat");
            let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..].split(' ').collect();
            let ticks = |i: usize| fields[i].parse::<u64>().expect("ticks");
            found.push((switches, ticks(12) + ticks(13)));
        }
    }
    assert_eq!(found.len(), 1, "exactly one reactor runs while a test holds its turn");
    found[0]
}

#[test]
fn an_idle_reactor_does_not_run() {
    let _turn = serial();
    let (service, server, _) = start(quick_config());
    // Each negotiation was answered by the reactor: it runs, has its name,
    // and has nothing left to do. The v3 pings heat it (`HOT_WINDOW`): it
    // polls without blocking for half a millisecond after the last one.
    let mut clients = idle_clients(&server, 8);
    for client in &mut clients {
        assert!(matches!(client.call(&Request::Ping), Ok(Response::Pong { .. })));
    }
    let (switches, ticks) = reactor_ran();
    std::thread::sleep(Duration::from_millis(300));
    let after = reactor_ran();
    let (moved, ran) = (after.0 - switches, after.1 - ticks);
    // One switch is the reactor blocking after the last ping; a reactor
    // that sleeps between polling passes makes thousands a second, and one
    // that never leaves its hot window runs all 30 ticks of the 300 ms.
    assert!(moved <= 3, "idle reactor left the CPU {moved} times in 300 ms");
    assert!(ran <= 2, "idle reactor ran {ran} clock ticks in 300 ms");
    drop(clients);
    server.shutdown();
    service.shutdown();
}

#[test]
fn a_peer_that_never_reads_stalls_nobody() {
    let _turn = serial();
    let (service, server, cluster) = start(quick_config());
    let mut b = ClientBuilder::new().connect(server.local_addr()).expect("connect b");
    // Spans of 150 scored requests make `trace` a document of hundreds of
    // KB, so a few dozen small requests owe tens of MB.
    for seed in 0..150 {
        assert!(b.call(&recommend(&cluster, seed)).expect("recommend").is_ok());
    }
    let Response::Admin(doc) = b.call(&Request::Trace).expect("trace") else {
        panic!("trace answers with a document")
    };
    let asked = (32 << 20) / doc.render().len() + 1;

    // A asks for 32 MB of replies and reads none: the socket buffers
    // between the two hold the first few MB, the rest is the server's
    // to keep.
    let baseline = open_fds();
    let mut a = TcpStream::connect(server.local_addr()).expect("connect a");
    let frame = encode_request(&Request::Trace, 1);
    let mut image = Vec::new();
    for _ in 0..asked {
        write_frame(&mut image, &frame).expect("frame");
    }
    a.write_all(&image).expect("requests");
    // A's first reply is out, so the reactor is busy filling A's socket:
    // a ping sent now is answered when it is done with that — not when A
    // takes the replies, which is never.
    a.peek(&mut [0]).expect("a's first reply");
    let ping = |b: &mut Client| {
        let t0 = Instant::now();
        assert!(matches!(b.call(&Request::Ping).expect("ping"), Response::Pong { .. }));
        t0.elapsed()
    };
    // (A writer that waits on A's peer gives up after 2 s at the earliest.)
    let behind_burst = ping(&mut b);
    assert!(
        behind_burst < Duration::from_millis(1500),
        "a ping waited {behind_burst:?} on a's peer"
    );

    // From here A's out-buffer stands, and B is served as if A were not
    // there — until, at, and after the deadline that drops A.
    let started = Instant::now();
    let slowest = (0..200)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(12));
            ping(&mut b)
        })
        .max()
        .expect("200 pings");
    assert!(slowest < Duration::from_millis(100), "a ping waited {slowest:?} beside a's backlog");
    assert!(started.elapsed() > Duration::from_secs(2), "the pings outlast the deadline");
    // A's end is all that is left of the connection…
    await_fds(baseline + 1, "poisoning a");
    // …most of what it asked for was never sent, and B is still answered.
    a.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut delivered = 0;
    while let Ok(Some(_)) = read_frame(&mut a) {
        delivered += 1;
    }
    assert!(delivered > 0 && delivered < asked, "{delivered} of {asked} replies delivered");
    ping(&mut b);
    drop((a, b));
    server.shutdown();
    service.shutdown();
}

#[test]
fn no_reply_wake_up_is_lost() {
    let _turn = serial();
    // Two slots per connection, so a client 64 deep keeps a complete frame
    // held back at all times and the reactor parks on every reply.
    let protocol = ProtocolConfig { max_pipeline: 2, ..Default::default() };
    let (service, server, cluster) = start(ServeConfig { protocol, ..quick_config() });
    let addr = server.local_addr();
    let fresh = move |seed: u64| recommend(&cluster, seed);
    let answered =
        |resp: &Response| matches!(resp, Response::Recommend { ranked, .. } if ranked.len() == 2);
    let baseline = open_fds();

    // A lost wake-up is a reactor blocked for good: the drivers report
    // over a channel so the test can give up on them.
    let (done, finished) = mpsc::channel();
    let (piped_done, piped) = (done.clone(), fresh.clone());
    std::thread::spawn(move || {
        let mut v3 = ClientBuilder::new().pipeline_depth(64).connect(addr).expect("v3 connect");
        let batch: Vec<Request> = (0..2_000).map(|i| piped(1_000 + i)).collect();
        let responses = v3.pipeline(&batch).expect("pipeline");
        let _ = piped_done.send(responses.iter().filter(|r| answered(r)).count());
    });
    let one_by_one = fresh.clone();
    std::thread::spawn(move || {
        let mut v2 = ClientBuilder::new().protocol(2).connect(addr).expect("v2 connect");
        let ok = (0..200).filter(|i| answered(&v2.call(&one_by_one(10_000 + i)).expect("v2 call")));
        let _ = done.send(ok.count());
    });
    let mut counts: Vec<usize> = (0..2)
        .map(|_| finished.recv_timeout(Duration::from_secs(60)).expect("a reply wake-up was lost"))
        .collect();
    counts.sort_unstable();
    assert_eq!(counts, [200, 2_000], "every request answered");
    // Each was one request to the service, so none was served twice.
    assert_eq!(service.handle().stats().requests, 2_200);

    // Half-close with replies in flight: eight requests, two admitted, six
    // held back; the connection drains parked, with no descriptor polled.
    let space = ConfSpace::table_iv();
    let mut half = TcpStream::connect(addr).expect("connect");
    half.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let mut image = Vec::new();
    for id in 1..=8u32 {
        let frame = encode_request(&fresh(20_000 + u64::from(id)), id);
        write_frame(&mut image, &frame).expect("frame");
    }
    half.write_all(&image).expect("write");
    half.shutdown(Shutdown::Write).expect("half-close");
    let mut ids = HashSet::new();
    while let Some(payload) = read_frame(&mut half).expect("replies, then a clean end") {
        let (id, resp) = decode_response(&payload, &space).expect("decode");
        assert!(answered(&resp), "{resp:?}");
        assert!(ids.insert(id), "request {id} answered twice");
    }
    assert_eq!(ids, (1..=8).collect::<HashSet<u32>>());
    // The drivers' clients are gone and this one is drained: all reaped.
    drop(half);
    await_fds(baseline, "reaping");
    server.shutdown();
    service.shutdown();
}

#[test]
fn shutdown_wakes_a_blocked_reactor() {
    let _turn = serial();
    let (service, server, _) = start(quick_config());
    let clients = idle_clients(&server, 8);
    // Let the reactor finish the last negotiation and block.
    std::thread::sleep(Duration::from_millis(50));
    // A reactor nobody wakes is joined for ever: give up on it instead.
    let (done, finished) = mpsc::channel();
    let t0 = Instant::now();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    finished.recv_timeout(Duration::from_secs(10)).expect("shutdown never woke the reactor");
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    drop(clients);
    service.shutdown();
}

/// TCP segments this network namespace has sent so far (`OutSegs` of
/// `/proc/net/snmp`; on loopback, every one a `send` or the ACK of one).
fn segments_sent() -> u64 {
    let snmp = std::fs::read_to_string("/proc/net/snmp").expect("procfs");
    let mut tcp = snmp.lines().filter_map(|l| l.strip_prefix("Tcp: "));
    let (names, values) = (tcp.next().expect("names"), tcp.next().expect("values"));
    let at = names.split(' ').position(|n| n == "OutSegs").expect("OutSegs");
    values.split(' ').nth(at).expect("value").parse().expect("number")
}

#[test]
fn a_burst_of_cached_answers_costs_one_write_a_side() {
    let _turn = serial();
    let (service, server, cluster) = start(quick_config());
    let mut client = ClientBuilder::new().connect(server.local_addr()).expect("connect");
    let hot: Vec<Request> = (0..32).map(|seed| recommend(&cluster, seed)).collect();
    let hits = |responses: &[Response]| {
        responses.iter().filter(|r| matches!(r, Response::Recommend { scored: 0, .. })).count()
    };
    assert_eq!(hits(&client.pipeline(&hot).expect("warm")), 0, "the first pass is scored");
    assert_eq!(hits(&client.pipeline(&hot).expect("hot")), 32, "the second is cached");

    let before = segments_sent();
    let responses = client.pipeline(&hot).expect("burst");
    let sent = segments_sent() - before;
    assert_eq!(hits(&responses), 32);
    // Two when the window and its answers each cross loopback in one piece
    // (the ACKs ride on them); the slack is for a window the kernel hands
    // the reactor in two reads, and for an ACK of its own. A `write` per
    // frame is 32 segments each way.
    assert!(sent <= 6, "a burst of 32 cached answers took {sent} TCP segments");
    drop(client);
    server.shutdown();
    service.shutdown();
}

#[test]
fn a_corked_pass_strands_no_reply() {
    let _turn = serial();
    let (service, server, _) = start(quick_config());
    // The only connection sends one segment of pings and then nothing, so
    // after the pass that serves them nothing makes the reactor look at it
    // again: what that pass left in the out-buffer would stay there.
    let mut peer = TcpStream::connect(server.local_addr()).expect("connect");
    peer.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut image = Vec::new();
    for id in 1..=32u32 {
        write_frame(&mut image, &encode_request(&Request::Ping, id)).expect("frame");
    }
    peer.write_all(&image).expect("burst");
    let space = ConfSpace::table_iv();
    for id in 1..=32u32 {
        let payload = read_frame(&mut peer).expect("a reply was stranded").expect("no hang-up");
        let (answered, resp) = decode_response(&payload, &space).expect("decode");
        assert!(matches!(resp, Response::Pong { .. }) && answered == id, "{answered}: {resp:?}");
    }
    drop(peer);
    server.shutdown();
    service.shutdown();
}
