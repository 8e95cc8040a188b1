//! # lite-ledger — the repo's benchmark
//!
//! Four workloads, end-to-end metrics a user of the tuning service would
//! see, and a per-layer ledger underneath them. Everything is driven
//! through public functions of `sparksim`, `workloads`, `analyze`, `nn`,
//! `lite`, `rag`, `serve` and `obs`; see `README.md` next to this crate for
//! the method and for what each number is.
//!
//! Two binaries share this library: `ledger` (end to end, untraced, system
//! allocator) and `ledger_trace` (the same rounds wrapped in
//! benchmark-side spans plus the per-layer probes, with
//! [`lite_obs::prof::TagAlloc`] counting allocations).
//!
//! One run is one process and one workload: set-up, one discarded warm-up
//! round, then `rounds` measured rounds. Every round runs fixed-work
//! blocks in order — request block, adapt block, then an offline block
//! that is the build block in odd rounds and a set-up block in even ones —
//! so each metric is sampled across the whole run and reported as its
//! quietest round ([`stats`]).

pub mod check;
pub mod cli;
pub mod gen;
pub mod layers;
pub mod run;
pub mod setup;
pub mod spans;
pub mod stats;

use stats::Better;

/// The traffic mixes. Names are fixed: `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `recommend`, a never-repeated seed per request: every
    /// request pays ACG sampling, preflight and one batched NECS pass.
    WarmMiss,
    /// Loopback TCP, protocol v3, 64 hot identities: every answer comes
    /// inline from the response cache on the reactor thread.
    WireHit,
    /// In-process `retrieve_source` with raw source text of held-out apps:
    /// static extraction, embedding, ANN search, ranking — no NECS.
    ColdSource,
    /// The paper's Step 1–4 loop on three hot apps: recommends beside
    /// observes, AMU and hot-swap under read load.
    TuningLoop,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::WarmMiss, Workload::WireHit, Workload::ColdSource, Workload::TuningLoop];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMiss => "warm_miss",
            Workload::WireHit => "wire_hit",
            Workload::ColdSource => "cold_source",
            Workload::TuningLoop => "tuning_loop",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A metric's declaration: name, unit, good direction.
pub type MetricDecl = (&'static str, &'static str, Better);

/// End-to-end metrics, printed with `--trace 0`. `fail_ratio` is not in
/// this list: the contract carries failures in `attempted`/`failed`, and a
/// metric that is 0 on every healthy run has no relative bound.
pub const END_TO_END: [MetricDecl; 8] = [
    ("setup_s", "s", Better::Lower),
    ("recommend_p50_ms", "ms", Better::Lower),
    ("recommend_p95_ms", "ms", Better::Lower),
    ("recommend_rps", "1/s", Better::Higher),
    ("adapt_s", "s", Better::Lower),
    ("build_s", "s", Better::Lower),
    ("etr_mean", "ratio", Better::Higher),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// Per-layer metrics, printed with `--trace 1` (layer = crate.module).
pub const PER_LAYER: [MetricDecl; 68] = [
    // build side -> build_s, setup_s
    ("sparksim.simulate_us", "us", Better::Lower),
    ("workloads.build_job_us", "us", Better::Lower),
    ("lite.experiment.dataset_s", "s", Better::Lower),
    ("lite.experiment.runs_per_s", "1/s", Better::Higher),
    ("lite.features.registry_build_ms", "ms", Better::Lower),
    ("workloads.instrument_app_us", "us", Better::Lower),
    // request side -> recommend_* @ warm_miss, tuning_loop
    ("sparksim.preflight_ns", "ns", Better::Lower),
    ("lite.experiment.warm_context_us", "us", Better::Lower),
    ("lite.acg.candidates30_us", "us", Better::Lower),
    ("lite.necs.score30_us", "us", Better::Lower),
    ("lite.necs.score_ns_per_candidate", "ns", Better::Lower),
    ("lite.necs.score_ns_per_candidate_b240", "ns", Better::Lower),
    ("lite.recommend.direct_us", "us", Better::Lower),
    ("lite.recommend.cold_us", "us", Better::Lower),
    // nn forward -> recommend_p50_ms @ warm_miss; backward -> build_s
    ("nn.dense_fwd_us", "us", Better::Lower),
    ("nn.conv_fwd_us", "us", Better::Lower),
    ("nn.gcn_fwd_us", "us", Better::Lower),
    ("nn.mlp_fwd_us", "us", Better::Lower),
    ("nn.dense_bwd_us", "us", Better::Lower),
    ("nn.conv_bwd_us", "us", Better::Lower),
    ("nn.gcn_bwd_us", "us", Better::Lower),
    ("nn.mlp_bwd_us", "us", Better::Lower),
    ("nn.adam_step_us", "us", Better::Lower),
    ("lite.necs.epoch_s", "s", Better::Lower),
    ("lite.acg.fit_s", "s", Better::Lower),
    // adapt side -> adapt_s
    ("lite.amu.update_s", "s", Better::Lower),
    ("lite.necs.clone_us", "us", Better::Lower),
    ("lite.experiment.extract_instances_us", "us", Better::Lower),
    ("serve.service.observe_us", "us", Better::Lower),
    ("serve.slot.swap_us", "us", Better::Lower),
    ("serve.snapshot.from_tuner_us", "us", Better::Lower),
    // cold path -> recommend_* and build_s @ cold_source
    ("analyze.extract_stages_us", "us", Better::Lower),
    ("rag.embed_source_us", "us", Better::Lower),
    ("rag.embed_app_us", "us", Better::Lower),
    ("rag.hnsw_search_us", "us", Better::Lower),
    ("rag.rank_us", "us", Better::Lower),
    ("serve.service.retrieve_source_us", "us", Better::Lower),
    ("rag.hnsw_insert_us", "us", Better::Lower),
    ("rag.index_build_s", "s", Better::Lower),
    // serve miss path -> recommend_p50_ms @ warm_miss, tuning_loop
    ("serve.service.miss_us", "us", Better::Lower),
    ("serve.service.queue_roundtrip_us", "us", Better::Lower),
    ("serve.cache.get_ns", "ns", Better::Lower),
    ("serve.cache.insert_ns", "ns", Better::Lower),
    ("serve.slot.load_ns", "ns", Better::Lower),
    // serve hit path and wire -> recommend_* @ wire_hit
    ("serve.service.inline_hit_ns", "ns", Better::Lower),
    ("serve.cache.response_get_ns", "ns", Better::Lower),
    ("serve.proto.encode_request_ns", "ns", Better::Lower),
    ("serve.proto.decode_request_ns", "ns", Better::Lower),
    ("serve.proto.encode_response_ns", "ns", Better::Lower),
    ("serve.proto.decode_response_ns", "ns", Better::Lower),
    ("serve.net.ping_rtt_us", "us", Better::Lower),
    ("serve.net.hit_depth1_us", "us", Better::Lower),
    ("serve.net.hit_pipe32_ns", "ns", Better::Lower),
    ("serve.proto.json_request_ns", "ns", Better::Lower),
    ("serve.proto.json_response_ns", "ns", Better::Lower),
    ("serve.net.json_v2_hit_us", "us", Better::Lower),
    ("serve.net.miss_depth1_us", "us", Better::Lower),
    // obs primitives -> recommend_p50_ms @ wire_hit first
    ("obs.span_disabled_ns", "ns", Better::Lower),
    ("obs.span_enabled_ns", "ns", Better::Lower),
    ("obs.counter_inc_ns", "ns", Better::Lower),
    ("obs.histogram_record_ns", "ns", Better::Lower),
    // exact counts of the workload's own request block
    ("alloc.count_per_op", "count", Better::Lower),
    ("alloc.bytes_per_op", "bytes", Better::Lower),
    ("lite.necs.scored_per_request", "count", Better::Lower),
    ("serve.cache.hit_ratio", "ratio", Better::Higher),
    ("serve.cache.response_hit_ratio", "ratio", Better::Higher),
    // closure and cost of tracing
    ("closure.ratio", "ratio", Better::Higher),
    ("trace.overhead_ratio", "ratio", Better::Lower),
];
