//! The rounds: request block, adapt block, build block — fixed work each,
//! once per round, so every metric is sampled across the whole run.
//!
//! Closed loop, one client, depth 1 unless a block says otherwise: callers
//! of a tuning service are job submitters that wait for their conf.

use std::time::{Duration, Instant};

use lite_core::experiment::splitmix;
use lite_core::recommend::RankedCandidate;
use lite_metrics::ranking::{etr, EXECUTION_CAP_S};
use lite_obs::prof::alloc_totals;
use lite_serve::{RecommendResponse, Request, Response};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::SparkConf;
use lite_sparksim::exec::simulate;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::SizeTier;

use crate::check::{same_ranking, validate_ranked, Tally};
use crate::gen::{Identity, RequestGen, Seeds};
use crate::setup::{
    build_servable, place_servers, request_apps, System, PIPELINE_DEPTH, RESPONSE_CACHE,
    UPDATE_BATCH,
};
use crate::spans::{SpanId, SpanLog, NONE};
use crate::stats::{percentile_sorted, quietest, Better};
use crate::Workload;

/// `warm_miss`: requests per block (≥ 22 samples beyond the p95).
const WARM_MISS_REQUESTS: usize = 450;
/// `wire_hit`: hot identities, depth-1 calls, and the pipelined part.
const HOT_IDENTITIES: usize = 64;
const WIRE_CALLS: usize = 600;
/// `wire_hit`: the client thinks (spins) a uniformly random time below
/// this before each depth-1 call and each burst. The reactor sleeps
/// 200 µs whenever a poll pass found nothing; back-to-back calls
/// phase-lock to that sleep and a whole block reads either ~0.04 ms or
/// ~0.28 ms by luck. A caller
/// that does not know the reactor's clock finds the poll cycle at a
/// uniformly random phase, and a think time spread over a little more
/// than one cycle (sleep + timer slack + wake-up ≈ 0.3 ms) gives the
/// closed loop that phase. The back-to-back figure is the traced run's
/// `serve.net.hit_depth1_us`.
const WIRE_THINK_NS: u64 = 300_000;
/// `wire_hit`: pipelined bursts per block, each one full window of
/// [`PIPELINE_DEPTH`] requests after a think time. A pipeline that
/// *streams* thousands of requests through that window has two stable
/// rates on this reactor — ≈ 70 k/s when it runs dry and sleeps every ~50
/// requests, ≈ 100 k/s when the client keeps it fed for ~200 — holds one
/// for tenths of a second and flips by chance: per block the streamed rate
/// read anywhere from 60 to 105 k/s, and its best block of a run, the
/// reported figure, spread by 15–25 % between runs of the same code. A
/// burst ends before that chase can settle either way, so every block
/// averages 256 independent bursts at random phases of the poll cycle. The
/// streamed figure is the traced run's `serve.net.hit_pipe32_ns`.
const WIRE_BURSTS: usize = 256;
/// `cold_source`: requests per block and neighbors per request.
const COLD_REQUESTS: usize = 6000;
const COLD_K: usize = 8;
/// `tuning_loop`: recommends on the new version after each swap (with the
/// ones beside the observes, ≥ 22 latency samples beyond the p95).
const POST_SWAP_REQUESTS: usize = 420;
/// Candidates asked for by every `recommend`.
pub const RECOMMEND_K: usize = 5;
/// Identities re-sent after a block to check answers repeat.
const REPLAYED: usize = 8;
/// A swap that takes longer than this (normally ~0.3 s) is a failed adapt
/// block; short enough that a run whose updater died still ends in time.
const SWAP_TIMEOUT: Duration = Duration::from_secs(5);

/// Where a block records its spans: the log and the block's own span.
pub type Rec<'a> = Option<(&'a mut SpanLog, SpanId)>;

/// One request block's figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestSample {
    /// Median request→answer latency over the block, timed at the caller.
    pub p50_ns: u64,
    /// 95th-percentile latency over the block.
    pub p95_ns: u64,
    /// Requests per second over the block (see each block for its wall).
    pub rps: f64,
    /// Requests in the counted part of the block.
    pub requests: u64,
    /// Candidates that went through a NECS pass.
    pub scored: u64,
    /// Allocations (`TagAlloc` only; 0 under the system allocator).
    pub allocs: u64,
    /// Allocated bytes (`TagAlloc` only).
    pub alloc_bytes: u64,
    /// Prediction-cache (hits, misses) during the block.
    pub cache: (u64, u64),
    /// Response-cache (hits, misses) during the block.
    pub response_cache: (u64, u64),
}

/// Process-wide counters read before and after a block's counted part.
struct Counters {
    allocs: (u64, u64),
    cache: (u64, u64),
    response: (u64, u64),
}

impl Counters {
    fn read(sys: &System) -> Counters {
        let snap = sys.registry.snapshot();
        Counters {
            allocs: alloc_totals(),
            cache: sys.handle.cache_counts(),
            response: (
                snap.counter("serve.shard.resp_hits").unwrap_or(0),
                snap.counter("serve.shard.resp_misses").unwrap_or(0),
            ),
        }
    }

    fn delta_into(&self, after: &Counters, s: &mut RequestSample) {
        s.alloc_bytes = after.allocs.0 - self.allocs.0;
        s.allocs = after.allocs.1 - self.allocs.1;
        s.cache = (after.cache.0 - self.cache.0, after.cache.1 - self.cache.1);
        s.response_cache = (after.response.0 - self.response.0, after.response.1 - self.response.1);
    }
}

/// Percentiles over every latency sample of the block — a cost that only
/// some requests of a block pay still reaches the p95 once a twentieth of
/// them pay it — and the rate over the block's wall time.
fn summarize(lat: &mut [u64], requests: usize, wall: Duration) -> RequestSample {
    lat.sort_unstable();
    RequestSample {
        p50_ns: percentile_sorted(lat, 0.50),
        p95_ns: percentile_sorted(lat, 0.95),
        rps: requests as f64 / wall.as_secs_f64(),
        requests: requests as u64,
        ..Default::default()
    }
}

/// The per-run state the blocks share.
pub struct Rounds {
    /// The system under test.
    pub sys: System,
    /// The request stream.
    pub gen: RequestGen,
    /// Checked operations.
    pub tally: Tally,
    hot: Vec<Identity>,
    hot_requests: Vec<Request>,
    sources: Vec<&'static str>,
    lat: Vec<u64>,
    next_request: u32,
    think: u64,
}

impl Rounds {
    /// Wrap a freshly set-up system.
    pub fn new(sys: System, seeds: &Seeds) -> Rounds {
        let gen = RequestGen::new(&request_apps(sys.workload), RECOMMEND_K, seeds);
        let hot = gen.hot(HOT_IDENTITIES);
        let hot_requests: Vec<Request> = hot.iter().map(|id| id.to_request(&sys.cluster)).collect();
        let sources = gen.apps().iter().map(|a| a.main_source()).collect();
        Rounds {
            sys,
            gen,
            tally: Tally::default(),
            hot,
            hot_requests,
            sources,
            lat: Vec::new(),
            next_request: 0,
            think: seeds.think,
        }
    }

    /// The hot identities (`wire_hit`'s traffic; the probes' hit path).
    pub fn hot(&self) -> &[Identity] {
        &self.hot
    }

    fn request_id(&mut self) -> u32 {
        self.next_request += 1;
        self.next_request
    }

    /// One timed in-process `recommend`; the answer is validated and its
    /// latency pushed onto the block's sample.
    fn timed_recommend(&mut self, id: &Identity, rec: &mut Rec) -> Option<RecommendResponse> {
        let rid = self.request_id();
        let t0 = Instant::now();
        let out = self.sys.handle.recommend(id.app, &id.data, &self.sys.cluster, id.k, id.seed);
        let t1 = Instant::now();
        self.lat.push((t1 - t0).as_nanos() as u64);
        if let Some((log, parent)) = rec {
            let (start, end) = (log.at(t0), log.at(t1));
            log.record("serve.service.recommend", start, end, *parent, rid);
        }
        match out {
            Ok(resp) => {
                self.tally.count(validate_ranked(&self.sys.space, &resp.ranked, id.k));
                Some(resp)
            }
            Err(e) => {
                self.tally.count(Err(format!("recommend {}: {e}", id.app)));
                None
            }
        }
    }

    /// Re-send identities outside the timed part: within one model version
    /// a repeated identity must return its first answer.
    fn replay(&mut self, first: &[(Identity, RecommendResponse)]) {
        for (id, answer) in first {
            let again =
                self.sys.handle.recommend(id.app, &id.data, &self.sys.cluster, id.k, id.seed);
            let same = again
                .map(|r| r.version == answer.version && same_ranking(&r.ranked, &answer.ranked))
                .unwrap_or(false);
            self.tally.expect(same, || format!("repeat of {} seed {} differs", id.app, id.seed));
        }
    }

    /// Bring the caches to their steady state before anything is measured:
    /// the response cache holds 4096 entries and evicts by scanning them,
    /// so requests get dearer once it is full — a run that measured its
    /// first half against a filling cache would report a p50 the service
    /// never sustains. Only the workloads that miss fill it.
    pub fn fill_caches(&mut self) {
        if matches!(self.sys.workload, Workload::WarmMiss | Workload::TuningLoop) {
            for _ in 0..RESPONSE_CACHE {
                let id = self.gen.fresh();
                self.timed_recommend(&id, &mut None);
            }
        }
    }

    /// Put the server-side threads where they belong before a block; a
    /// refusal fails the run, so placed and unplaced figures never mix.
    fn place(&mut self) {
        self.tally.count(place_servers());
    }

    /// The workload's request block.
    pub fn request_block(&mut self, mut rec: Rec) -> RequestSample {
        self.place();
        match self.sys.workload {
            Workload::WarmMiss => self.warm_miss_block(&mut rec),
            Workload::WireHit => self.wire_hit_block(&mut rec),
            Workload::ColdSource => self.cold_source_block(&mut rec),
            Workload::TuningLoop => unreachable!("tuning_loop has one merged block per round"),
        }
    }

    /// `warm_miss`: every request misses both caches and runs the model.
    /// `rps` is requests over the block's wall time.
    fn warm_miss_block(&mut self, rec: &mut Rec) -> RequestSample {
        self.lat.clear();
        let mut first = Vec::with_capacity(REPLAYED);
        let mut scored = 0u64;
        let before = Counters::read(&self.sys);
        let t_block = Instant::now();
        for _ in 0..WARM_MISS_REQUESTS {
            let id = self.gen.fresh();
            if let Some(resp) = self.timed_recommend(&id, rec) {
                scored += resp.scored as u64;
                if first.len() < REPLAYED {
                    first.push((id, resp));
                }
            }
        }
        let wall = t_block.elapsed();
        let after = Counters::read(&self.sys);
        self.replay(&first);
        let mut sample = summarize(&mut self.lat, WARM_MISS_REQUESTS, wall);
        before.delta_into(&after, &mut sample);
        sample.scored = scored;
        sample
    }

    /// `cold_source`: raw source text of held-out apps → retrieved confs.
    /// `rps` is requests over the block's wall time.
    fn cold_source_block(&mut self, rec: &mut Rec) -> RequestSample {
        self.lat.clear();
        let datas: Vec<_> = self.gen.apps().iter().map(|a| a.dataset(SizeTier::Test)).collect();
        let mut first: Vec<Option<Vec<RankedCandidate>>> = vec![None; self.sources.len()];
        let before = Counters::read(&self.sys);
        let t_block = Instant::now();
        for i in 0..COLD_REQUESTS {
            let which = i % self.sources.len();
            let rid = self.request_id();
            let t0 = Instant::now();
            let out = self.sys.handle.retrieve_source(
                self.sources[which],
                &datas[which],
                &self.sys.cluster,
                COLD_K,
                None,
            );
            let t1 = Instant::now();
            self.lat.push((t1 - t0).as_nanos() as u64);
            if let Some((log, parent)) = rec {
                let (start, end) = (log.at(t0), log.at(t1));
                log.record("serve.service.retrieve_source", start, end, *parent, rid);
            }
            let verdict = match out {
                Err(e) => Err(format!("retrieve_source: {e}")),
                Ok(resp) if resp.neighbors.is_empty() => Err("no neighbors".into()),
                Ok(resp) => validate_ranked(&self.sys.space, &resp.ranked, COLD_K).and_then(|()| {
                    // The index does not change inside a block, so every
                    // repeat of a source must rank identically.
                    match &first[which] {
                        Some(f) if !same_ranking(f, &resp.ranked) => {
                            Err("repeat of a source ranks differently".into())
                        }
                        Some(_) => Ok(()),
                        None => {
                            first[which] = Some(resp.ranked);
                            Ok(())
                        }
                    }
                }),
            };
            self.tally.count(verdict);
        }
        let wall = t_block.elapsed();
        let after = Counters::read(&self.sys);
        let mut sample = summarize(&mut self.lat, COLD_REQUESTS, wall);
        before.delta_into(&after, &mut sample);
        sample
    }

    /// `wire_hit`: latency from depth-1 calls, `rps` from pipelined bursts
    /// of one window each, all answered inline from the response cache.
    fn wire_hit_block(&mut self, rec: &mut Rec) -> RequestSample {
        self.lat.clear();
        // Untimed: a swap invalidated the response cache, so warm the hot
        // identities once, and hold the wire to the in-process answer.
        let warm = self.wire_pipeline(0, HOT_IDENTITIES);
        for (i, wire) in warm.iter().enumerate() {
            let id = self.hot[i].clone();
            let local =
                self.sys.handle.recommend(id.app, &id.data, &self.sys.cluster, id.k, id.seed);
            let same = match (wire, local) {
                (Response::Recommend { version, ranked, .. }, Ok(l)) => {
                    *version == l.version && same_ranking(ranked, &l.ranked)
                }
                _ => false,
            };
            self.tally.expect(same, || format!("wire answer for hot identity {i} differs"));
        }

        let before = Counters::read(&self.sys);
        let mut scored = 0u64;
        for i in 0..WIRE_CALLS {
            let rid = self.request_id();
            self.think();
            let request = &self.hot_requests[i % HOT_IDENTITIES];
            let client = self.sys.client.as_mut().expect("wire_hit has a client");
            let t0 = Instant::now();
            let out = client.call(request);
            let t1 = Instant::now();
            self.lat.push((t1 - t0).as_nanos() as u64);
            if let Some((log, parent)) = rec {
                let (start, end) = (log.at(t0), log.at(t1));
                log.record("serve.net.call", start, end, *parent, rid);
            }
            scored += self.check_wire(out.map_err(|e| e.to_string()));
        }
        let mut piped = Duration::ZERO;
        for burst in 0..WIRE_BURSTS {
            self.think();
            // Walk the hot identities one whole window at a time.
            let from = burst % (HOT_IDENTITIES / PIPELINE_DEPTH) * PIPELINE_DEPTH;
            let t0 = Instant::now();
            let responses = self.wire_pipeline(from, PIPELINE_DEPTH);
            piped += t0.elapsed();
            for r in responses {
                scored += self.check_wire(Ok(r));
            }
        }
        let after = Counters::read(&self.sys);
        let mut sample = summarize(&mut self.lat, WIRE_BURSTS * PIPELINE_DEPTH, piped);
        before.delta_into(&after, &mut sample);
        sample.requests = (WIRE_CALLS + WIRE_BURSTS * PIPELINE_DEPTH) as u64;
        sample.scored = scored;
        sample
    }

    /// Spin for the next think time of the wire client's seeded stream.
    pub fn think(&mut self) {
        self.think = splitmix(self.think);
        let think = Duration::from_nanos(self.think % WIRE_THINK_NS);
        let t0 = Instant::now();
        while t0.elapsed() < think {
            std::hint::spin_loop();
        }
    }

    /// Pipeline `n` hot requests starting at identity `from`.
    fn wire_pipeline(&mut self, from: usize, n: usize) -> Vec<Response> {
        let client = self.sys.client.as_mut().expect("wire_hit has a client");
        match client.pipeline(&self.hot_requests[from..from + n]) {
            Ok(responses) => responses,
            Err(e) => {
                self.tally.count(Err(format!("pipeline of {n}: {e}")));
                Vec::new()
            }
        }
    }

    /// Validate one wire answer; returns how many candidates it scored.
    fn check_wire(&mut self, out: Result<Response, String>) -> u64 {
        match out {
            Ok(Response::Recommend { ranked, scored, .. }) => {
                self.tally.count(validate_ranked(&self.sys.space, &ranked, RECOMMEND_K));
                scored as u64
            }
            Ok(other) => {
                self.tally.count(Err(format!("unexpected wire answer {other:?}")));
                0
            }
            Err(e) => {
                self.tally.count(Err(e));
                0
            }
        }
    }

    /// Feed pool run `i` (wrapping) to `observe`. Returns `true` when the
    /// caller must stop observing: the batch is full — stopping the moment
    /// it is, so every run trains on the identical batch — or the call
    /// failed.
    fn observe_one(&mut self, i: usize, rec: &mut Rec) -> bool {
        let sys = &self.sys;
        let run = &sys.pool[i % sys.pool.len()];
        let t0 = Instant::now();
        let out = sys.handle.observe(run.app, &run.data, &sys.cluster, &run.conf, &run.result);
        if let Some((log, parent)) = rec {
            let (start, end) = (log.at(t0), log.now_ns());
            log.record("serve.service.observe", start, end, *parent, NONE);
        }
        let full = !matches!(out, Ok(n) if n < UPDATE_BATCH);
        self.tally.count(out.map(|_| ()).map_err(|e| format!("observe: {e}")));
        full
    }

    /// After the batch filled: the version must advance by exactly one.
    fn check_swap(&mut self, before: u64) {
        let now = self.sys.handle.version();
        self.tally.expect(now == before + 1, || format!("version {before} -> {now}, expected +1"));
    }

    /// The adapt block of the quiescent workloads: first `observe` of a
    /// feedback batch → the served version advances (observe path, AMU on
    /// the updater, hot-swap). The client only polls while the updater
    /// trains.
    pub fn adapt_block(&mut self, mut rec: Rec) -> f64 {
        self.place();
        let before = self.sys.handle.version();
        let started = Instant::now();
        let mut i = 0;
        while !self.observe_one(i, &mut rec) {
            i += 1;
        }
        let wait = Instant::now();
        while self.sys.handle.version() == before && wait.elapsed() < SWAP_TIMEOUT {
            std::thread::sleep(Duration::from_micros(500));
        }
        let adapt_s = started.elapsed().as_secs_f64();
        if let Some((log, parent)) = &mut rec {
            let (start, end) = (log.at(wait), log.now_ns());
            log.record("serve.updater.await_swap", start, end, *parent, NONE);
        }
        self.check_swap(before);
        adapt_s
    }

    /// `tuning_loop`'s round: recommend-then-observe until the batch
    /// fills, keep recommending while the updater trains, then recommend
    /// on the new version (caches invalidated). `adapt_s` is measured under
    /// that read load, and `rps` is every recommend of the round over the
    /// round's wall time, observes included — reads beside writes is the
    /// workload. Latency and the counts (`requests`, `scored`, allocations,
    /// caches) come from the recommends the client issued while no update
    /// was training — beside the observes and after the swap: a latency
    /// sample taken while the updater runs depends on how the host
    /// schedules the second vCPU (measured that way, p50 moved by ±13 %
    /// between runs of the same code); what that phase costs still shows
    /// in `rps` and `adapt_s`.
    pub fn tuning_round(&mut self, mut rec: Rec) -> (RequestSample, f64) {
        self.place();
        self.lat.clear();
        let before = self.sys.handle.version();
        let t_block = Instant::now();
        let mut started = None;
        for i in 0.. {
            let id = self.gen.fresh();
            self.timed_recommend(&id, &mut rec);
            started.get_or_insert_with(Instant::now);
            if self.observe_one(i, &mut rec) {
                break;
            }
        }
        let started = started.expect("the loop observes at least once");
        let mut quiet = std::mem::take(&mut self.lat);
        while self.sys.handle.version() == before && started.elapsed() < SWAP_TIMEOUT {
            let id = self.gen.fresh();
            self.timed_recommend(&id, &mut rec);
        }
        let adapt_s = started.elapsed().as_secs_f64();
        self.check_swap(before);
        let under_update = std::mem::take(&mut self.lat).len();

        let mut first = Vec::with_capacity(REPLAYED);
        let mut scored = 0u64;
        let counters = Counters::read(&self.sys);
        for _ in 0..POST_SWAP_REQUESTS {
            let id = self.gen.fresh();
            if let Some(resp) = self.timed_recommend(&id, &mut rec) {
                scored += resp.scored as u64;
                if first.len() < REPLAYED {
                    first.push((id, resp));
                }
            }
        }
        let after = Counters::read(&self.sys);
        let wall = t_block.elapsed();
        self.replay(&first);
        quiet.append(&mut self.lat);
        let recommends = quiet.len() + under_update;
        let mut sample = summarize(&mut quiet, recommends, wall);
        self.lat = quiet;
        counters.delta_into(&after, &mut sample);
        sample.requests = POST_SWAP_REQUESTS as u64;
        sample.scored = scored;
        (sample, adapt_s)
    }

    /// The build block: wall time of nothing → servable state.
    pub fn build_block(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(build_servable(self.sys.workload));
        t0.elapsed().as_secs_f64()
    }

    /// The set-up block: wall time of nothing → serving, on a second
    /// system that is stopped again outside the timed part.
    pub fn setup_block(&self) -> f64 {
        let t0 = Instant::now();
        let system = System::build(self.sys.workload);
        let setup_s = t0.elapsed().as_secs_f64();
        drop(system);
        setup_s
    }

    /// Top-1 for `(app, cluster)` through the workload's own request path.
    fn top1(&mut self, app: AppId, cluster: &ClusterSpec) -> Result<SparkConf, String> {
        // A fixed request seed: the answer depends on the model, not on
        // where in the request stream the evaluation happens.
        let id =
            Identity { app, data: app.dataset(SizeTier::Test), k: RECOMMEND_K, seed: 0x657472 };
        let ranked = match self.sys.workload {
            Workload::WarmMiss | Workload::TuningLoop => self
                .sys
                .handle
                .recommend(app, &id.data, cluster, id.k, id.seed)
                .map(|r| r.ranked)
                .map_err(|e| e.to_string())?,
            Workload::ColdSource => self
                .sys
                .handle
                .retrieve_source(app.main_source(), &id.data, cluster, COLD_K, None)
                .map(|r| r.ranked)
                .map_err(|e| e.to_string())?,
            Workload::WireHit => {
                let client = self.sys.client.as_mut().expect("wire_hit has a client");
                match client.call(&id.to_request(cluster)).map_err(|e| e.to_string())? {
                    Response::Recommend { ranked, .. } => ranked,
                    other => return Err(format!("unexpected wire answer {other:?}")),
                }
            }
        };
        ranked.into_iter().next().map(|r| r.conf).ok_or_else(|| "empty ranking".to_string())
    }

    /// Mean execution-time reduction of the served top-1 over the default
    /// configuration, across the workload's apps × clusters A/B/C at the
    /// Test tier, simulated with fixed seeds.
    pub fn etr_mean(&mut self) -> f64 {
        let default = self.sys.space.default_conf();
        let apps = request_apps(self.sys.workload);
        let mut sum = 0.0;
        let mut cells = 0usize;
        for (ci, cluster) in ClusterSpec::all_evaluation_clusters().iter().enumerate() {
            for &app in &apps {
                let plan = build_job(app, &app.dataset(SizeTier::Test));
                let sim_seed = splitmix(0x6c6564676572 ^ ((app.index() as u64) << 8) ^ ci as u64);
                let time = |conf: &SparkConf| {
                    simulate(cluster, conf, &plan, sim_seed).capped_time(EXECUTION_CAP_S)
                };
                match self.top1(app, cluster) {
                    Ok(conf) => {
                        self.tally.count(Ok(()));
                        sum += etr(time(&default), time(&conf));
                        cells += 1;
                    }
                    Err(e) => self.tally.count(Err(format!("etr top-1 for {app}: {e}"))),
                }
            }
        }
        sum / cells.max(1) as f64
    }
}

/// What one run reports.
pub struct Outcome {
    /// `(name, unit, value)` in declaration order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Checked operations.
    pub tally: Tally,
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run (`--trace 0`): every [`crate::END_TO_END`] metric.
pub fn end_to_end(workload: Workload, seed: u64, rounds: usize) -> Outcome {
    let t0 = Instant::now();
    let sys = System::build(workload);
    let mut setup = vec![t0.elapsed().as_secs_f64()];
    let mut r = Rounds::new(sys, &Seeds::derive(seed));
    r.fill_caches();
    let (mut p50, mut p95, mut rps, mut adapt, mut build) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Round 0 warms caches, the allocator and the branch predictors; it is
    // run in full and discarded.
    for round in 0..=rounds {
        let (sample, adapt_s) = if workload == Workload::TuningLoop {
            r.tuning_round(None)
        } else {
            (r.request_block(None), r.adapt_block(None))
        };
        // The offline block alternates: build in odd rounds, set-up in even
        // ones. The set-up at process start is a single shot — the noisiest
        // figure of a run — so it is sampled again across the whole run
        // like everything else.
        let sets_up = round > 0 && round % 2 == 0;
        let offline_s = if sets_up { r.setup_block() } else { r.build_block() };
        if round > 0 {
            p50.push(sample.p50_ns as f64 / 1e6);
            p95.push(sample.p95_ns as f64 / 1e6);
            rps.push(sample.rps);
            adapt.push(adapt_s);
            if sets_up { &mut setup } else { &mut build }.push(offline_s);
        }
    }
    eprintln!(
        "[ledger] per round: setup_s={setup:.3?} recommend_p50_ms={p50:.4?} \
         recommend_p95_ms={p95:.4?} recommend_rps={rps:.0?} adapt_s={adapt:.4?} build_s={build:.4?}"
    );
    let final_version = r.sys.handle.version();
    r.tally.expect(final_version == rounds as u64 + 1, || {
        format!("final version {final_version}, expected {}", rounds + 1)
    });
    let etr_mean = r.etr_mean();
    let again = r.etr_mean();
    r.tally.expect(etr_mean > 0.0 && etr_mean.to_bits() == again.to_bits(), || {
        format!("etr_mean {etr_mean} (second evaluation {again}) must be positive and repeat")
    });
    let values = [
        quietest(&setup, Better::Lower),
        quietest(&p50, Better::Lower),
        quietest(&p95, Better::Lower),
        quietest(&rps, Better::Higher),
        quietest(&adapt, Better::Lower),
        quietest(&build, Better::Lower),
        etr_mean,
        peak_rss_mb(),
    ];
    let metrics =
        crate::END_TO_END.iter().zip(values).map(|(&(name, unit, _), v)| (name, unit, v)).collect();
    Outcome { metrics, tally: r.tally }
}

/// The overhead probe (`--requests-only`): one set-up, a warm-up block
/// and `rounds` request blocks under the system allocator with no spans;
/// the quietest block's p50 in ms is what `ledger_trace` divides by.
pub fn untraced_p50_ms(workload: Workload, seed: u64, rounds: usize) -> f64 {
    let mut r = Rounds::new(System::build(workload), &Seeds::derive(seed));
    r.fill_caches();
    let mut p50 = Vec::new();
    for round in 0..=rounds {
        let sample = if workload == Workload::TuningLoop {
            r.tuning_round(None).0
        } else {
            r.request_block(None)
        };
        if round > 0 {
            p50.push(sample.p50_ns as f64 / 1e6);
        }
    }
    quietest(&p50, Better::Lower)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_cover_the_whole_block() {
        // A twentieth of the block pays ten times the usual latency: the
        // median does not move, the p95 sits at the edge of the dear part.
        let mut lat: Vec<u64> =
            (0..380).map(|i| 1000 + i).chain((0..20).map(|i| 10_000 + i)).collect();
        lat.reverse();
        let s = summarize(&mut lat, 400, Duration::from_secs(2));
        assert_eq!(s.p50_ns, 1000 + 200);
        assert_eq!(s.p95_ns, 1000 + 379);
        let mut lat: Vec<u64> =
            (0..370).map(|i| 1000 + i).chain((0..30).map(|i| 10_000 + i)).collect();
        assert_eq!(summarize(&mut lat, 400, Duration::from_secs(2)).p95_ns, 10_009);
        assert_eq!((s.requests, s.rps), (400, 200.0));
    }
}
