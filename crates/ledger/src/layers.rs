//! The per-layer ledger (`--trace 1`).
//!
//! The traced run keeps the end-to-end rounds — request block and adapt
//! block, now wrapped in spans — and replaces the build block with its
//! decomposition: a *probe block* that times every layer from outside,
//! around public calls, on fixed inputs, once per round. A per-workload
//! *decomposition block* replays the request path layer by layer through
//! public functions, so the layers can be held against the real request
//! span (`closure.ratio`).
//!
//! Layer = crate.module. Times are reduced to the quietest round like
//! every other figure; counts and ratios to the median round.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lite_analyze::{extract_stages, ExtractOptions};
use lite_core::acg::AdaptiveCandidateGenerator;
use lite_core::amu::{adaptive_model_update, AmuConfig};
use lite_core::experiment::{extract_stage_instances, DatasetBuilder, PredictionContext};
use lite_core::features::{StageInstance, TemplateRegistry};
use lite_core::necs::Necs;
use lite_core::recommend::{score_candidates, LiteTuner};
use lite_nn::init::{normal, rng};
use lite_nn::layers::{Conv1dBank, Dense, GcnLayer, TowerMlp};
use lite_nn::optim::Adam;
use lite_nn::{Params, Tape, Tensor, Var};
use lite_obs::{Counter, Histogram, Json, Registry, Tracer};
use lite_rag::embed::CodeEmbedder;
use lite_rag::hnsw::{Hnsw, HnswConfig};
use lite_rag::tuner::{adapt_conf, scale_runtime, RagConfig, RagTuner, Retrieved};
use lite_serve::cache::{CacheKey, ResponseCache, ResponseKey};
use lite_serve::proto::{
    decode_request, decode_response, encode_recommend_response, encode_request,
};
use lite_serve::{
    ClientBuilder, ModelSnapshot, OpCode, PredictionCache, RecommendResponse, Request, Response,
    Service, ServiceHandle, VersionedSlot,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::SparkConf;
use lite_sparksim::exec::{preflight, simulate};
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::{DataSpec, SizeTier};
use lite_workloads::instrument::instrument_app;

use crate::gen::{Identity, Seeds, CORPUS_SEED};
use crate::run::{peak_rss_mb, Outcome, RequestSample, Rounds, RECOMMEND_K};
use crate::setup::{connect, corpus_apps, necs_config, serve_config, System, HELD_OUT};
use crate::spans::{SpanId, SpanLog, NONE};
use crate::stats::{median, quietest};
use crate::Workload;

/// The app every fixed-input probe is about (in every workload's corpus).
const PROBE_APP: AppId = AppId::KMeans;
/// Requests replayed layer by layer in each decomposition block.
const DECOMPOSED: usize = 24;
/// Entries of the stand-alone prediction cache (the service's own shape:
/// 8 shards × 512), kept full so lookups hit and inserts evict.
const CACHE_ENTRIES: usize = 8 * 512;

/// Per-metric samples, one per round.
#[derive(Default)]
struct Sink {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Sink {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// Time `iters` calls of `f` and record the per-call time in the unit
    /// whose size in nanoseconds is `unit_ns`.
    fn time(&mut self, name: &'static str, iters: usize, unit_ns: f64, mut f: impl FnMut()) {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        self.put(name, t0.elapsed().as_nanos() as f64 / iters as f64 / unit_ns);
    }

    /// Reduce every declared metric; a metric without samples is a bug in
    /// this file, reported as a failed check rather than a panic.
    fn reduce(&self, tally: &mut crate::check::Tally) -> Vec<(&'static str, &'static str, f64)> {
        crate::PER_LAYER
            .iter()
            .map(|&(name, unit, better)| {
                let value = match self.values.get(name) {
                    Some(v) if matches!(unit, "count" | "bytes" | "ratio") => median(v),
                    Some(v) => quietest(v, better),
                    None => {
                        tally.count(Err(format!("per-layer metric {name} has no samples")));
                        0.0
                    }
                };
                (name, unit, value)
            })
            .collect()
    }
}

/// Unit sizes in nanoseconds, for [`Sink::time`].
const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;
const S: f64 = 1e9;

/// NECS-sized inputs for the `nn` layer probes: 30 candidates × 8 stage
/// templates = 240 rows into the tower MLP, one 256-token stage source
/// into the CNN, one 8-node stage DAG into the GCN.
struct NnFixture {
    params: Params,
    dense: Dense,
    conv: Conv1dBank,
    gcn: GcnLayer,
    mlp: TowerMlp,
    rows: Tensor,
    tokens: Tensor,
    a_hat: Tensor,
    nodes: Tensor,
}

impl NnFixture {
    fn new() -> NnFixture {
        let mut r = rng(11);
        let mut params = Params::new();
        let width = lite_core::features::TABULAR_WIDTH + 24 + 16;
        NnFixture {
            dense: Dense::new(&mut params, "probe.dense", width, width / 2, &mut r),
            conv: Conv1dBank::new(&mut params, "probe.conv", 12, &[3, 5], 16, &mut r),
            gcn: GcnLayer::new(&mut params, "probe.gcn", 24, 16, &mut r),
            mlp: TowerMlp::new(&mut params, "probe.mlp", width, 3, 1, &mut r),
            rows: normal(240, width, 1.0, &mut r),
            tokens: normal(256, 12, 0.1, &mut r),
            a_hat: lite_nn::layers::normalized_adjacency(
                8,
                &(1..8).map(|i| (i - 1, i)).collect::<Vec<_>>(),
            ),
            nodes: normal(8, 24, 1.0, &mut r),
            params,
        }
    }

    /// Time one forward and one backward pass of a layer, in µs.
    fn pass(params: &mut Params, forward: impl FnOnce(&mut Tape, &Params) -> Var) -> (f64, f64) {
        let mut tape = Tape::new();
        let t0 = Instant::now();
        let out = forward(&mut tape, params);
        let fwd = t0.elapsed();
        let loss = tape.mean(out);
        let t1 = Instant::now();
        tape.backward(loss, params);
        let bwd = t1.elapsed();
        params.zero_grads();
        (fwd.as_nanos() as f64 / 1e3, bwd.as_nanos() as f64 / 1e3)
    }

    fn run(&mut self, sink: &mut Sink) {
        let NnFixture { params, dense, conv, gcn, mlp, rows, tokens, a_hat, nodes } = self;
        let (f, b) = Self::pass(params, |t, p| {
            let x = t.leaf(rows.clone());
            dense.forward(t, p, x)
        });
        sink.put("nn.dense_fwd_us", f);
        sink.put("nn.dense_bwd_us", b);
        let (f, b) = Self::pass(params, |t, p| {
            let x = t.leaf(tokens.clone());
            conv.forward(t, p, x)
        });
        sink.put("nn.conv_fwd_us", f);
        sink.put("nn.conv_bwd_us", b);
        let (f, b) = Self::pass(params, |t, p| {
            let a = t.leaf(a_hat.clone());
            let h = t.leaf(nodes.clone());
            gcn.forward(t, p, a, h)
        });
        sink.put("nn.gcn_fwd_us", f);
        sink.put("nn.gcn_bwd_us", b);
        let (f, b) = Self::pass(params, |t, p| {
            let x = t.leaf(rows.clone());
            mlp.forward(t, p, x)
        });
        sink.put("nn.mlp_fwd_us", f);
        sink.put("nn.mlp_bwd_us", b);
    }
}

/// Fixed inputs and side systems of the probe block.
struct Probes {
    corpus: DatasetBuilder,
    data: DataSpec,
    cluster: ClusterSpec,
    confs30: Vec<SparkConf>,
    confs240: Vec<SparkConf>,
    ctx: PredictionContext,
    /// A 1-epoch tuner that has never seen `cold_app`.
    cold_tuner: LiteTuner,
    cold_app: AppId,
    nn: NnFixture,
    adam: Adam,
    adam_model: Necs,
    amu_source: Vec<StageInstance>,
    amu_target: Vec<StageInstance>,
    slot: VersionedSlot<ModelSnapshot>,
    snapshots: [Arc<ModelSnapshot>; 2],
    /// Same snapshot, response cache off, never updated: the miss path
    /// with and without the NECS pass.
    probe_handle: ServiceHandle,
    _probe_service: Service,
    cache: PredictionCache,
    cache_keys: Vec<CacheKey>,
    response_cache: ResponseCache<RecommendResponse>,
    response_key: ResponseKey,
    hot: Identity,
    request: Request,
    request_frame: Vec<u8>,
    response: RecommendResponse,
    response_frame: Vec<u8>,
    json_response: String,
    source: &'static str,
    embedder: CodeEmbedder,
    query: Vec<f32>,
    retrieved: Vec<Retrieved>,
    tracer_on: Tracer,
    counter: Counter,
    histogram: Histogram,
    fresh_seed: u64,
}

impl Probes {
    fn new(sys: &System, seeds: &Seeds) -> Probes {
        let apps = corpus_apps(sys.workload);
        let (cluster, tuner) = (sys.cluster.clone(), &sys.tuner);
        let data = PROBE_APP.dataset(SizeTier::Test);
        let ctx = PredictionContext::warm(&tuner.registry, PROBE_APP, &data, &cluster)
            .expect("probe app is in every corpus");
        let candidates = |n| tuner.acg.candidates_seeded(PROBE_APP, &data, &ctx.env, n, 17);
        // One cluster, one tier, two sampled confs per cell: the build
        // chain at a size that fits a probe block.
        let corpus = DatasetBuilder {
            apps: apps.clone(),
            clusters: vec![cluster.clone()],
            tiers: vec![SizeTier::Train(0)],
            confs_per_cell: 2,
            seed: CORPUS_SEED,
        };
        let (cold_app, warm_apps) = apps.split_last().expect("corpus has apps");
        let cold_ds =
            DatasetBuilder { apps: warm_apps.to_vec(), confs_per_cell: 1, ..corpus.clone() }
                .build();
        let cold_tuner = LiteTuner::from_dataset(&cold_ds, necs_config(1), CORPUS_SEED);

        let mut amu_target = Vec::new();
        for (i, run) in sys.pool.iter().enumerate() {
            extract_stage_instances(
                &tuner.registry,
                run.app,
                &run.conf,
                &run.data,
                &cluster,
                &run.result,
                usize::MAX - i,
                &mut amu_target,
            );
        }
        amu_target.truncate(100);

        let snapshot = ModelSnapshot::from_tuner(tuner);
        let registry = Registry::new();
        let probe_service = Service::start(
            snapshot.clone(),
            sys.ds.clone(),
            serve_config(0, usize::MAX, None),
            &registry,
            Tracer::disabled(),
        );
        let cache = PredictionCache::new(
            8,
            512,
            registry.counter("ledger.probe_cache_hits"),
            registry.counter("ledger.probe_cache_misses"),
        );
        let cache_keys: Vec<CacheKey> = tuner
            .acg
            .candidates_seeded(PROBE_APP, &data, &ctx.env, CACHE_ENTRIES + 512, 23)
            .iter()
            .map(|c| CacheKey::new(PROBE_APP, &data, &cluster, c))
            .collect();
        for key in &cache_keys[..CACHE_ENTRIES] {
            cache.insert(*key, 0, 1.0);
        }

        // A hot identity on the probe app: servable in every workload
        // (`cold_source`'s own request apps are not in its snapshot).
        let hot =
            Identity { app: PROBE_APP, data, k: RECOMMEND_K, seed: seeds.requests ^ 0x686f74 };
        let request = hot.to_request(&cluster);
        let response = sys
            .handle
            .recommend(hot.app, &hot.data, &cluster, hot.k, hot.seed)
            .expect("hot identity is servable");
        let response_cache = ResponseCache::new(
            1,
            4096,
            registry.counter("ledger.probe_resp_hits"),
            registry.counter("ledger.probe_resp_misses"),
        );
        let response_key = ResponseKey::new(hot.app, &hot.data, &cluster, hot.k, hot.seed);
        response_cache.insert(response_key, 0, response.clone());
        let json_response = {
            let (server, _v3) = connect(&sys.handle);
            let mut v2 = ClientBuilder::new()
                .protocol(2)
                .connect(server.local_addr())
                .expect("connect JSON client");
            v2.request(&request.to_json(2)).expect("JSON recommend").render()
        };

        let source = HELD_OUT[0].main_source();
        let embedder = CodeEmbedder::new();
        let query = embedder.embed_source(source, &data, &cluster).expect("probe source extracts");
        let retrieved = sys
            .rag
            .retrieve_source(source, &data, &cluster, 8)
            .expect("index answers the probe source");
        let mut adam_model = tuner.model.clone();
        let mut adam = Adam::new(2e-3);
        adam.step(adam_model.params_mut()); // allocate the moment buffers

        Probes {
            corpus,
            confs30: candidates(30),
            confs240: candidates(240),
            data,
            ctx,
            cold_tuner,
            cold_app: *cold_app,
            nn: NnFixture::new(),
            adam,
            adam_model,
            amu_source: sys.ds.instances.iter().take(600).cloned().collect(),
            amu_target,
            slot: VersionedSlot::new(Arc::new(snapshot.clone())),
            snapshots: [Arc::new(snapshot.clone()), Arc::new(snapshot)],
            probe_handle: probe_service.handle(),
            _probe_service: probe_service,
            cache,
            cache_keys,
            response_cache,
            response_key,
            request_frame: encode_request(&request, 1),
            response_frame: encode_recommend_response(1, None, &response),
            hot,
            request,
            response,
            json_response,
            source,
            embedder,
            query,
            retrieved,
            tracer_on: Tracer::new(),
            counter: registry.counter("ledger.probe_counter"),
            histogram: registry.histogram("ledger.probe_histogram"),
            fresh_seed: seeds.requests ^ 0x70726f6265,
            cluster,
        }
    }

    /// Reserve `n` request seeds no other probe has used; returns the one
    /// before the first (`base + 1 ..= base + n` are the caller's).
    fn take_seeds(&mut self, n: u64) -> u64 {
        let base = self.fresh_seed;
        self.fresh_seed += n;
        base
    }

    /// Run every probe once. Each group is one span under `parent`.
    fn run(&mut self, sys: &System, sink: &mut Sink, log: &mut SpanLog, parent: SpanId) {
        type Group = fn(&mut Probes, &System, &mut Sink);
        let groups: [(&'static str, Group); 8] = [
            ("probe.build_side", Probes::build_side),
            ("probe.request_side", Probes::request_side),
            ("probe.nn", Probes::nn_layers),
            ("probe.adapt_side", Probes::adapt_side),
            ("probe.cold_path", Probes::cold_path),
            ("probe.serve_miss", Probes::serve_miss),
            ("probe.serve_hit_and_wire", Probes::serve_hit_and_wire),
            ("probe.obs", Probes::obs),
        ];
        for (name, group) in groups {
            let span = log.open(name, parent, NONE);
            group(self, sys, sink);
            log.close(span);
        }
    }

    /// → `build_s` everywhere (dominant on `cold_source`), `setup_s`.
    fn build_side(&mut self, _sys: &System, sink: &mut Sink) {
        let plan = build_job(PROBE_APP, &self.data);
        let mut i = 0;
        sink.time("sparksim.simulate_us", self.confs30.len(), US, || {
            black_box(simulate(&self.cluster, &self.confs30[i], &plan, i as u64));
            i += 1;
        });
        sink.time("workloads.build_job_us", 50, US, || {
            black_box(build_job(PROBE_APP, &self.data));
        });
        let t0 = Instant::now();
        let ds = self.corpus.build();
        let dataset_s = t0.elapsed().as_secs_f64();
        sink.put("lite.experiment.dataset_s", dataset_s);
        sink.put("lite.experiment.runs_per_s", ds.runs.len() as f64 / dataset_s);
        sink.time("lite.features.registry_build_ms", 1, MS, || {
            black_box(TemplateRegistry::build(&self.corpus.apps));
        });
        sink.time("workloads.instrument_app_us", 3, US, || {
            black_box(instrument_app(PROBE_APP));
        });
        // The training half of the build chain, on the corpus just built.
        let refs: Vec<&StageInstance> = ds.instances.iter().collect();
        let config = necs_config(1);
        sink.time("lite.necs.epoch_s", 1, S, || {
            black_box(Necs::train(&ds.registry, &ds.space, &refs, config.clone()));
        });
        sink.time("lite.acg.fit_s", 1, S, || {
            black_box(AdaptiveCandidateGenerator::fit(&ds, CORPUS_SEED));
        });
        sink.time("rag.index_build_s", 1, S, || {
            black_box(RagTuner::from_dataset(&ds, RagConfig::default()));
        });
        let embeddings: Vec<Vec<f32>> = ds
            .runs
            .iter()
            .map(|run| self.embedder.embed(run.app, &run.data, &self.cluster))
            .collect();
        let mut index = Hnsw::new(lite_rag::embed::EMBED_DIM, HnswConfig::default());
        let mut i = 0;
        sink.time("rag.hnsw_insert_us", embeddings.len(), US, || {
            index.insert(&embeddings[i]);
            i += 1;
        });
    }

    /// → `recommend_p50_ms` / `recommend_rps` on `warm_miss`, `tuning_loop`.
    fn request_side(&mut self, sys: &System, sink: &mut Sink) {
        let tuner = &sys.tuner;
        let (data, cluster, ctx) = (&self.data, &self.cluster, &self.ctx);
        let mut i = 0;
        sink.time("sparksim.preflight_ns", 300, NS, || {
            black_box(preflight(cluster, &self.confs30[i % 30], data.bytes).is_ok());
            i += 1;
        });
        sink.time("lite.experiment.warm_context_us", 50, US, || {
            black_box(PredictionContext::warm(&tuner.registry, PROBE_APP, data, cluster));
        });
        let mut seed = 0;
        sink.time("lite.acg.candidates30_us", 10, US, || {
            seed += 1;
            black_box(tuner.acg.candidates_seeded(PROBE_APP, data, &ctx.env, 30, seed));
        });
        let off = Tracer::disabled();
        sink.time("lite.necs.score30_us", 5, US, || {
            black_box(score_candidates(
                &tuner.model,
                &tuner.registry,
                ctx,
                cluster,
                &self.confs30,
                &off,
            ));
        });
        sink.time("lite.necs.score_ns_per_candidate", 5, 30.0 * NS, || {
            black_box(tuner.model.predict_app_batch(&tuner.registry, ctx, &self.confs30));
        });
        sink.time("lite.necs.score_ns_per_candidate_b240", 1, 240.0 * NS, || {
            black_box(tuner.model.predict_app_batch(&tuner.registry, ctx, &self.confs240));
        });
        sink.time("lite.recommend.direct_us", 5, US, || {
            seed += 1;
            black_box(tuner.recommend(PROBE_APP, data, cluster, seed));
        });
        // The paper's cold path — instrument, then score — reported
        // against its 2 s; not servable from an immutable snapshot.
        let cold_data = self.cold_app.dataset(SizeTier::Test);
        sink.time("lite.recommend.cold_us", 1, US, || {
            black_box(self.cold_tuner.recommend_cold(self.cold_app, &cold_data, cluster, seed));
        });
    }

    /// Forward → `recommend_p50_ms` on `warm_miss`; backward and the
    /// optimizer → `build_s`, `setup_s`, `adapt_s`.
    fn nn_layers(&mut self, _sys: &System, sink: &mut Sink) {
        self.nn.run(sink);
        sink.time("nn.adam_step_us", 3, US, || self.adam.step(self.adam_model.params_mut()));
    }

    /// → `adapt_s` everywhere; post-swap `recommend_p95_ms` on `tuning_loop`.
    fn adapt_side(&mut self, sys: &System, sink: &mut Sink) {
        let tuner = &sys.tuner;
        let source: Vec<&StageInstance> = self.amu_source.iter().collect();
        let target: Vec<&StageInstance> = self.amu_target.iter().collect();
        let mut model = tuner.model.clone();
        let amu = AmuConfig { epochs: 1, ..Default::default() };
        sink.time("lite.amu.update_s", 1, S, || {
            black_box(adaptive_model_update(&mut model, &tuner.registry, &source, &target, &amu));
        });
        sink.time("lite.necs.clone_us", 5, US, || {
            black_box(tuner.model.clone());
        });
        let runs = &sys.pool[..10];
        let mut out = Vec::new();
        let mut i = 0;
        sink.time("lite.experiment.extract_instances_us", runs.len(), US, || {
            let run = &runs[i];
            extract_stage_instances(
                &tuner.registry,
                run.app,
                &run.conf,
                &run.data,
                &self.cluster,
                &run.result,
                i,
                &mut out,
            );
            i += 1;
        });
        black_box(out.len());
        let mut i = 0;
        sink.time("serve.service.observe_us", runs.len(), US, || {
            let run = &runs[i];
            black_box(
                self.probe_handle
                    .observe(run.app, &run.data, &self.cluster, &run.conf, &run.result)
                    .is_ok(),
            );
            i += 1;
        });
        let mut i = 0;
        sink.time("serve.slot.swap_us", 100, US, || {
            self.slot.swap(self.snapshots[i % 2].clone());
            i += 1;
        });
        sink.time("serve.snapshot.from_tuner_us", 3, US, || {
            black_box(ModelSnapshot::from_tuner(tuner));
        });
    }

    /// → `recommend_*` on `cold_source`.
    fn cold_path(&mut self, sys: &System, sink: &mut Sink) {
        let (source, data, cluster) = (self.source, &self.data, &self.cluster);
        let opts = ExtractOptions { iterations: data.iterations.max(1) };
        sink.time("analyze.extract_stages_us", 20, US, || {
            black_box(extract_stages(source, opts).is_ok());
        });
        sink.time("rag.embed_source_us", 20, US, || {
            black_box(self.embedder.embed_source(source, data, cluster).is_ok());
        });
        sink.time("rag.embed_app_us", 100, US, || {
            black_box(self.embedder.embed(PROBE_APP, data, cluster));
        });
        let index = sys.rag.store().index();
        sink.time("rag.hnsw_search_us", 50, US, || {
            black_box(index.search(&self.query, 8));
        });
        sink.time("rag.rank_us", 50, US, || {
            black_box(sys.rag.rank(None, data, cluster, &self.retrieved, 8));
        });
        sink.time("serve.service.retrieve_source_us", 20, US, || {
            black_box(sys.handle.retrieve_source(source, data, cluster, 8, None).is_ok());
        });
    }

    /// → `recommend_p50_ms` on `warm_miss`, `tuning_loop`.
    fn serve_miss(&mut self, _sys: &System, sink: &mut Sink) {
        let base = self.take_seeds(10);
        let ask = |seed: u64| {
            black_box(
                self.probe_handle
                    .recommend(PROBE_APP, &self.data, &self.cluster, RECOMMEND_K, seed)
                    .is_ok(),
            );
        };
        let mut i = 0;
        sink.time("serve.service.miss_us", 10, US, || {
            i += 1;
            ask(base + i);
        });
        // Response cache off and all 30 candidates already predicted: the
        // queue hand-off, context, sampling and lookups — no NECS pass.
        sink.time("serve.service.queue_roundtrip_us", 20, US, || ask(base + 1));
        let mut i = 0;
        sink.time("serve.cache.get_ns", 1000, NS, || {
            black_box(self.cache.get(&self.cache_keys[i % CACHE_ENTRIES], 0));
            i += 1;
        });
        // The steady state of `warm_miss`: every insert evicts.
        let mut i = 0;
        sink.time("serve.cache.insert_ns", 512, NS, || {
            self.cache.insert(self.cache_keys[CACHE_ENTRIES + i], 0, 1.0);
            i += 1;
        });
        for key in &self.cache_keys[..CACHE_ENTRIES] {
            self.cache.insert(*key, 0, 1.0);
        }
        let mut reader = self.slot.reader();
        sink.time("serve.slot.load_ns", 1000, NS, || {
            black_box(self.slot.load_with(&mut reader).version);
        });
    }

    /// → `recommend_p50_ms` / `recommend_rps` on `wire_hit`; the JSON
    /// figures price the path ROADMAP item 2 wants to delete.
    fn serve_hit_and_wire(&mut self, sys: &System, sink: &mut Sink) {
        let base = self.take_seeds(5);
        let (hot, space) = (&self.hot, &sys.space);
        let inline = || sys.handle.recommend(hot.app, &hot.data, &self.cluster, hot.k, hot.seed);
        black_box(inline().is_ok()); // a swap may have invalidated the entry
        sink.time("serve.service.inline_hit_ns", 200, NS, || {
            black_box(inline().is_ok());
        });
        sink.time("serve.cache.response_get_ns", 1000, NS, || {
            black_box(self.response_cache.get(&self.response_key, 0));
        });
        sink.time("serve.proto.encode_request_ns", 500, NS, || {
            black_box(encode_request(&self.request, 1));
        });
        sink.time("serve.proto.decode_request_ns", 500, NS, || {
            black_box(decode_request(&self.request_frame, space).is_ok());
        });
        sink.time("serve.proto.encode_response_ns", 500, NS, || {
            black_box(encode_recommend_response(1, None, &self.response));
        });
        sink.time("serve.proto.decode_response_ns", 500, NS, || {
            black_box(decode_response(&self.response_frame, space).is_ok());
        });
        sink.time("serve.proto.json_request_ns", 200, NS, || {
            black_box(Json::parse(&self.request.to_json(2).render()).is_ok());
        });
        sink.time("serve.proto.json_response_ns", 200, NS, || {
            let doc = Json::parse(&self.json_response).unwrap_or(Json::Null);
            black_box(Response::from_json(OpCode::Recommend, &doc, space));
        });

        // An ephemeral front-end per probe block: between blocks no
        // reactor thread exists to wake beside the workload's own threads.
        let (server, mut v3) = connect(&sys.handle);
        let mut v2 = ClientBuilder::new()
            .protocol(2)
            .connect(server.local_addr())
            .expect("connect JSON client");
        sink.time("serve.net.ping_rtt_us", 20, US, || {
            black_box(v3.call(&Request::Ping).is_ok());
        });
        sink.time("serve.net.hit_depth1_us", 20, US, || {
            black_box(v3.call(&self.request).is_ok());
        });
        let batch = vec![self.request.clone(); 1024];
        sink.time("serve.net.hit_pipe32_ns", 1, batch.len() as f64 * NS, || {
            black_box(v3.pipeline(&batch).is_ok());
        });
        sink.time("serve.net.json_v2_hit_us", 20, US, || {
            black_box(v2.call(&self.request).is_ok());
        });
        let mut i = 0;
        sink.time("serve.net.miss_depth1_us", 5, US, || {
            i += 1;
            let fresh = Identity { seed: base + i, ..hot.clone() }.to_request(&self.cluster);
            black_box(v3.call(&fresh).is_ok());
        });
    }

    /// → `recommend_p50_ms` on `wire_hit` first (smallest per-request
    /// budget).
    fn obs(&mut self, _sys: &System, sink: &mut Sink) {
        let off = Tracer::disabled();
        sink.time("obs.span_disabled_ns", 10_000, NS, || {
            black_box(off.span("ledger.probe").is_recording());
        });
        sink.time("obs.span_enabled_ns", 1000, NS, || {
            black_box(self.tracer_on.span("ledger.probe").is_recording());
        });
        black_box(self.tracer_on.take_finished().len());
        sink.time("obs.counter_inc_ns", 10_000, NS, || self.counter.inc());
        let mut v = 0u64;
        sink.time("obs.histogram_record_ns", 10_000, NS, || {
            v += 997;
            self.histogram.record(v);
        });
    }

    /// Replay `DECOMPOSED` requests of the workload layer by layer on the
    /// client thread — the same identities the request block draws from —
    /// each as a `request.decomposed` span whose children are the layers.
    /// Returns the median sum of child self times, in ns.
    fn decompose(&mut self, r: &mut Rounds, log: &mut SpanLog, parent: SpanId) -> f64 {
        let first = log.spans().len();
        for i in 0..DECOMPOSED {
            let root = log.open("request.decomposed", parent, i as u32);
            let child = |log: &mut SpanLog, name: &'static str, f: &mut dyn FnMut()| {
                let span = log.open(name, root, i as u32);
                f();
                log.close(span);
            };
            match r.sys.workload {
                Workload::WarmMiss | Workload::TuningLoop => self.decompose_miss(r, log, &child),
                Workload::ColdSource => self.decompose_cold(r, i, log, &child),
                Workload::WireHit => self.decompose_wire(r, log, &child),
            }
            log.close(root);
        }
        median_child_sum(log, first)
    }

    /// A miss is the queue hand-off with context, sampling and lookups
    /// (one call from outside: the cache-off service asked twice, timed
    /// the second time), the NECS pass, and 30 evicting cache inserts.
    fn decompose_miss(&mut self, r: &mut Rounds, log: &mut SpanLog, child: &Child) {
        let id = r.gen.fresh();
        let cluster = &self.cluster;
        let ask = || {
            black_box(
                self.probe_handle.recommend(id.app, &id.data, cluster, id.k, id.seed).is_ok(),
            );
        };
        ask();
        child(log, "serve.service.queue_roundtrip", &mut || ask());
        let live = r.sys.handle.snapshot().expect("snapshot backend");
        let ctx = live.warm_context(id.app, &id.data, cluster).expect("request apps are warm");
        let confs = live.acg.candidates_seeded(id.app, &id.data, &ctx.env, 30, id.seed);
        let off = Tracer::disabled();
        child(log, "lite.necs.score30", &mut || {
            black_box(score_candidates(&live.model, &live.registry, &ctx, cluster, &confs, &off));
        });
        let keys: Vec<CacheKey> =
            confs.iter().map(|c| CacheKey::new(id.app, &id.data, cluster, c)).collect();
        child(log, "serve.cache.insert30", &mut || {
            for key in &keys {
                self.cache.insert(*key, 0, 1.0);
            }
        });
    }

    /// A cold request is static extraction + embedding, the ANN search
    /// with conf adaptation, and ranking.
    fn decompose_cold(&mut self, r: &mut Rounds, i: usize, log: &mut SpanLog, child: &Child) {
        let app = r.gen.apps()[i % r.gen.apps().len()];
        let (source, data, cluster) =
            (app.main_source(), app.dataset(SizeTier::Test), &self.cluster);
        let rag = &r.sys.rag;
        let mut q = Vec::new();
        child(log, "rag.embed_source", &mut || {
            q = self.embedder.embed_source(source, &data, cluster).unwrap_or_default();
        });
        let mut retrieved = Vec::new();
        child(log, "rag.hnsw_search", &mut || {
            retrieved = rag
                .store()
                .search(&q, 8)
                .into_iter()
                .map(|h| Retrieved {
                    app: h.record.app,
                    distance: h.distance,
                    runtime_s: h.record.runtime_s,
                    conf: adapt_conf(&r.sys.space, h.record, &data, cluster),
                    estimate_s: scale_runtime(h.record, &data, cluster),
                })
                .collect();
        });
        child(log, "rag.rank", &mut || {
            black_box(rag.rank(None, &data, cluster, &retrieved, 8));
        });
    }

    /// A wire hit is the transport floor (`ping` on the workload's own
    /// connection, after the same think time as a real call), the four
    /// codec halves, and the inline cache hit.
    fn decompose_wire(&mut self, r: &mut Rounds, log: &mut SpanLog, child: &Child) {
        let hot = r.hot()[0].clone();
        let request = hot.to_request(&self.cluster);
        r.think();
        let sys = &mut r.sys;
        let client = sys.client.as_mut().expect("wire_hit has a client");
        child(log, "serve.net.ping_rtt", &mut || {
            black_box(client.call(&Request::Ping).is_ok());
        });
        let answer = sys.handle.recommend(hot.app, &hot.data, &self.cluster, hot.k, hot.seed);
        let Ok(answer) = answer else { return };
        child(log, "serve.proto.codec", &mut || {
            let frame = encode_request(&request, 1);
            black_box(decode_request(&frame, &sys.space).is_ok());
            let frame = encode_recommend_response(1, None, &answer);
            black_box(decode_response(&frame, &sys.space).is_ok());
        });
        child(log, "serve.service.inline_hit", &mut || {
            black_box(
                sys.handle.recommend(hot.app, &hot.data, &self.cluster, hot.k, hot.seed).is_ok(),
            );
        });
    }
}

/// Records one child span of a decomposed request around `f`.
type Child<'a> = dyn Fn(&mut SpanLog, &'static str, &mut dyn FnMut()) + 'a;

/// Median over the `request.decomposed` spans recorded since `first` of
/// the summed self times of their children.
fn median_child_sum(log: &SpanLog, first: usize) -> f64 {
    let own = log.self_times_ns();
    let mut sums: BTreeMap<SpanId, f64> = BTreeMap::new();
    for (i, span) in log.spans().iter().enumerate().skip(first) {
        if span.parent != NONE && log.spans()[span.parent as usize].name == "request.decomposed" {
            *sums.entry(span.parent).or_default() += own[i] as f64;
        }
    }
    median(&sums.into_values().collect::<Vec<_>>())
}

/// Median duration of the request spans recorded since `first`.
fn median_request_ns(log: &SpanLog, first: usize) -> f64 {
    let durations: Vec<f64> = log.spans()[first..]
        .iter()
        .filter(|s| s.request != NONE && s.name.starts_with("serve."))
        .map(|s| s.duration_ns() as f64)
        .collect();
    median(&durations)
}

fn put_counts(sink: &mut Sink, s: &RequestSample) {
    let ratio = |(hits, misses): (u64, u64)| hits as f64 / ((hits + misses) as f64).max(1.0);
    let per_op = |v: u64| v as f64 / s.requests.max(1) as f64;
    sink.put("alloc.count_per_op", per_op(s.allocs));
    sink.put("alloc.bytes_per_op", per_op(s.alloc_bytes));
    sink.put("lite.necs.scored_per_request", per_op(s.scored));
    sink.put("serve.cache.hit_ratio", ratio(s.cache));
    sink.put("serve.cache.response_hit_ratio", ratio(s.response_cache));
}

/// The per-layer run (`--trace 1`): every [`crate::PER_LAYER`] metric.
/// `untraced_p50_ms` is the overhead probe's figure for the same workload
/// and seed under the untraced binary.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    rounds: usize,
    untraced_p50_ms: f64,
    trace_out: Option<&str>,
) -> Outcome {
    let seeds = Seeds::derive(seed);
    let mut r = Rounds::new(System::build(workload), &seeds);
    r.fill_caches();
    let mut probes = Probes::new(&r.sys, &seeds);
    let mut log = SpanLog::new();
    let mut sink = Sink::default();
    let mut p50 = Vec::new();
    for round in 0..=rounds {
        let mut scratch = Sink::default();
        let sink = if round == 0 { &mut scratch } else { &mut sink };
        let root = log.open("round", NONE, NONE);

        let block = log.open("block.request", root, NONE);
        let first = log.spans().len();
        let sample = if workload == Workload::TuningLoop {
            r.tuning_round(Some((&mut log, block))).0
        } else {
            r.request_block(Some((&mut log, block)))
        };
        log.close(block);
        let request_ns = median_request_ns(&log, first);
        p50.push(sample.p50_ns as f64 / 1e6);
        put_counts(sink, &sample);

        let block = log.open("block.decompose", root, NONE);
        let layers_ns = probes.decompose(&mut r, &mut log, block);
        log.close(block);
        sink.put("closure.ratio", layers_ns / request_ns);

        if workload != Workload::TuningLoop {
            let block = log.open("block.adapt", root, NONE);
            r.adapt_block(Some((&mut log, block)));
            log.close(block);
        }

        let block = log.open("block.probe", root, NONE);
        probes.run(&r.sys, sink, &mut log, block);
        log.close(block);
        log.close(root);
    }
    let traced_p50_ms = quietest(&p50[1..], crate::stats::Better::Lower);
    sink.put("trace.overhead_ratio", traced_p50_ms / untraced_p50_ms);

    let final_version = r.sys.handle.version();
    r.tally.expect(final_version == rounds as u64 + 1, || {
        format!("final version {final_version}, expected {}", rounds + 1)
    });
    let etr_mean = r.etr_mean();
    r.tally.expect(etr_mean > 0.0, || format!("etr_mean {etr_mean} must be positive"));
    if let Some(path) = trace_out {
        if let Err(e) = log.write_jsonl(path) {
            r.tally.count(Err(format!("writing {path}: {e}")));
        }
    }
    eprintln!(
        "[ledger] spans={} traced_p50_ms={traced_p50_ms} untraced_p50_ms={untraced_p50_ms} \
         etr_mean={etr_mean} peak_rss_mb={}",
        log.spans().len(),
        peak_rss_mb()
    );
    let metrics = sink.reduce(&mut r.tally);
    Outcome { metrics, tally: r.tally }
}
