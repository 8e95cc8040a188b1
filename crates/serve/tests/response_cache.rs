//! The path the benchmark's `wire_hit` measures, pinned over the wire: the
//! response cache is the service's one cache, every `recommend` probes it
//! on the reactor thread, and a repeat — v3 or v2 JSON, traced or not — is
//! answered there with the first answer's ranking bit for bit. What must
//! never come out of it: a degradation fallback, or anything at all when
//! `protocol.response_cache` is 0. (A hot-swap invalidating it is
//! `service.rs::cache_serves_repeats_and_invalidates_on_swap`.)

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lite_core::amu::AmuConfig;
use lite_core::experiment::DatasetBuilder;
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Phase, Registry, Tracer};
use lite_serve::{
    Client, ClientBuilder, ClusterRef, ModelSnapshot, ProtocolConfig, Request, Response,
    ServeConfig, Service, ServiceHandle, TcpServer, TraceConfig,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::fault::{FaultInjector, FaultKind};
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        update_batch: 1_000_000,
        amu: AmuConfig { epochs: 1, half_batch: 32, ..Default::default() },
        ..Default::default()
    }
}

/// A live service over `config`, its registry, and its loopback front-end.
fn start(config: ServeConfig) -> (Service, TcpServer, Registry) {
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
    let registry = Registry::new();
    let service = Service::start(
        ModelSnapshot::from_tuner(&tuner),
        Arc::new(ds),
        config,
        &registry,
        Tracer::disabled(),
    );
    let server = lite_serve::net::serve_tcp(service.handle(), "127.0.0.1:0").expect("bind");
    (service, server, registry)
}

fn connect(server: &TcpServer, protocol: u64) -> Client {
    ClientBuilder::new().protocol(protocol).connect(server.local_addr()).expect("connect")
}

/// What one `recommend` answered: `(cached, scored)`, whether it was the
/// fallback, the echoed trace id, and version + ranking as bit patterns.
struct Answer {
    counts: (usize, usize),
    degraded: bool,
    trace: Option<u64>,
    bits: Vec<u64>,
}

fn ask(client: &mut Client, seed: u64, trace: Option<u64>) -> Answer {
    let request = Request::Recommend {
        app: AppId::KMeans,
        data: AppId::KMeans.dataset(SizeTier::Valid),
        cluster: ClusterRef::Preset(ClusterSpec::cluster_a().name),
        k: 30,
        seed,
        trace,
    };
    let resp = client.call(&request).expect("recommend");
    let Response::Recommend { version, cached, scored, degraded, ranked, trace } = resp else {
        panic!("not a recommend: {resp:?}")
    };
    let mut bits = vec![version];
    for r in &ranked {
        bits.extend(r.conf.values().iter().map(|v| v.to_bits()));
        bits.push(r.predicted_s.to_bits());
    }
    Answer { counts: (cached, scored), degraded, trace, bits }
}

/// `(serve.shard.inline, serve.shard.resp_hits, serve.shard.resp_misses)`.
fn counters(registry: &Registry) -> (u64, u64, u64) {
    let snap = registry.snapshot();
    let read = |name| snap.counter(name).unwrap_or(0);
    (read("serve.shard.inline"), read("serve.shard.resp_hits"), read("serve.shard.resp_misses"))
}

#[test]
fn a_repeat_is_answered_inline_bit_for_bit_in_both_codecs() {
    // `Default` is what production runs: nothing here sets the cache size.
    let (service, server, registry) = start(quick_config());
    for (n, protocol) in [(1, 3), (2, 2)] {
        let mut client = connect(&server, protocol);
        let first = ask(&mut client, 100 + protocol, None);
        assert_eq!(first.counts, (0, 30), "v{protocol}: a first request is scored by a worker");
        assert_eq!(counters(&registry), (n - 1, n - 1, n));
        let second = ask(&mut client, 100 + protocol, None);
        assert_eq!(second.counts, (30, 0), "v{protocol}: a repeat is answered from the cache");
        assert_eq!(second.bits, first.bits, "v{protocol}: version and ranking, bit for bit");
        assert_eq!(counters(&registry), (n, n, n), "v{protocol}: the repeat never reached a queue");
    }
    // Both repeats and both misses are requests served; only the misses
    // were dispatched to a shard.
    assert_eq!(service.handle().stats().requests, 4);
    assert_eq!(registry.snapshot().counter("serve.shard.requests"), Some(2));
    assert_eq!(service.handle().cache_counts(), (2, 2));
    server.shutdown();
    service.shutdown();
}

/// The phases of the captured exemplar of `trace`, once it has completed
/// (the thread that wrote the response completes the trace just after).
fn phases_of(handle: &ServiceHandle, trace: u64) -> BTreeSet<Phase> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(ex) = handle.tail_exemplars().iter().find(|e| e.trace_id == trace) {
            return ex.spans.iter().map(|s| s.phase).collect();
        }
        assert!(Instant::now() < deadline, "trace {trace} was never captured");
        std::thread::yield_now();
    }
}

#[test]
fn a_traced_repeat_echoes_its_id_and_crosses_the_probe_but_no_worker() {
    let trace = TraceConfig { capture_threshold: Duration::ZERO, exemplar_top_k: 16 };
    let (service, server, registry) = start(ServeConfig { trace: Some(trace), ..quick_config() });
    let handle = service.handle();
    for (n, protocol) in [(1, 3), (2, 2)] {
        let mut client = connect(&server, protocol);
        let (miss_id, hit_id) = (10 * protocol + 1, 10 * protocol + 2);
        let first = ask(&mut client, 200 + protocol, Some(miss_id));
        assert_eq!((first.counts, first.trace), ((0, 30), Some(miss_id)));
        let second = ask(&mut client, 200 + protocol, Some(hit_id));
        assert_eq!((second.counts, second.trace), ((30, 0), Some(hit_id)), "v{protocol}");
        assert_eq!(second.bits, first.bits);
        assert_eq!(counters(&registry), (n, n, n), "tracing must not turn a hit into a miss");

        // A traced miss probes, then crosses the queue and the model.
        let miss = phases_of(&handle, miss_id);
        for phase in [Phase::CacheLookup, Phase::QueueWait, Phase::Score, Phase::Write] {
            assert!(miss.contains(&phase), "v{protocol} miss lacks {phase:?}: {miss:?}");
        }
        // A traced hit holds the phases it crossed, and only those.
        let hit = phases_of(&handle, hit_id);
        let crossed = [
            Phase::Accept,
            Phase::FrameRead,
            Phase::Parse,
            Phase::CacheLookup,
            Phase::Serialize,
            Phase::Write,
        ];
        assert_eq!(hit, BTreeSet::from(crossed), "v{protocol} hit");
    }
    server.shutdown();
    service.shutdown();
}

#[test]
fn a_degraded_fallback_is_never_served_from_the_cache() {
    let faults = Arc::new(FaultInjector::new(11).with(FaultKind::ScoreFail, 1.0));
    let (service, server, registry) =
        start(ServeConfig { faults: Some(faults.clone()), ..quick_config() });
    let mut client = connect(&server, 3);

    // Armed for exactly one request: it is answered by the fallback.
    let fallback = ask(&mut client, 300, None);
    assert!(fallback.degraded && fallback.counts == (0, 0));
    assert_eq!(faults.fired(FaultKind::ScoreFail), 1);
    faults.disarm();

    // The repeat must be retried against the model, not replayed.
    let retried = ask(&mut client, 300, None);
    assert!(!retried.degraded, "the fallback was served from the cache");
    assert_eq!(retried.counts, (0, 30));
    assert_eq!(counters(&registry), (0, 0, 2));
    // And the clean answer is what the cache holds from then on.
    let repeat = ask(&mut client, 300, None);
    assert!(!repeat.degraded);
    assert_eq!((repeat.counts, repeat.bits), ((30, 0), retried.bits));
    assert_eq!(counters(&registry), (1, 1, 2));
    server.shutdown();
    service.shutdown();
}

#[test]
fn a_response_cache_of_zero_entries_caches_nothing() {
    let protocol = ProtocolConfig { response_cache: 0, ..Default::default() };
    let (service, server, registry) = start(ServeConfig { protocol, ..quick_config() });
    let mut client = connect(&server, 3);
    let first = ask(&mut client, 400, None);
    let second = ask(&mut client, 400, None);
    assert_eq!((first.counts, second.counts), ((0, 30), (0, 30)), "both reach a worker");
    assert_eq!(second.bits, first.bits, "and score alike");
    assert_eq!(counters(&registry), (0, 0, 2));
    assert_eq!(service.handle().cache_hit_rate(), 0.0);
    server.shutdown();
    service.shutdown();
}
