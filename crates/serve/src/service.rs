//! The tuning service: a worker pool over a bounded queue, plus the
//! background updater that hot-swaps model versions.
//!
//! Admission control is explicit. The queue has a fixed capacity; a full
//! queue rejects new requests with [`ServeError::Overloaded`] at enqueue
//! time (load-shedding) instead of letting latency grow without bound.
//! Every request carries a deadline; a request whose deadline passed while
//! it sat in the queue is answered [`ServeError::DeadlineExceeded`] without
//! being scored. Workers never block on the updater: they read the model
//! through a [`SlotReader`](crate::slot::SlotReader), so a swap costs a
//! request one mutex acquisition at most, once.
//!
//! The service serves NECS model snapshots with drift monitoring and
//! background Adaptive Model Update swaps ([`Service::start`]). It has one
//! cache, of whole responses: every `recommend` probes it on the submitting
//! thread, a repeat is answered there, and a worker fills it with each
//! clean answer it computes.
//!
//! Resilience: every fault hook branches on `config.faults` being `None`
//! (zero cost when disabled). When the background update fails — an
//! injected panic, a real panic in AMU, or a failed swap — the service
//! *degrades* instead of dying: the last-good snapshot stays pinned, the
//! `serve.degraded` gauge rises, and the batch is dropped. When NECS
//! scoring itself fails, recommendations fall back to the template
//! registry's default configuration, flagged `degraded` in the response.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lite_core::amu::{adaptive_model_update, AmuConfig};
use lite_core::experiment::{extract_stage_instances, Dataset};
use lite_core::features::StageInstance;
use lite_core::recommend::{score_candidates, RankedCandidate};
use lite_obs::span::epoch_ns;
use lite_obs::trace::{Exemplar, Phase, PhaseHistograms, PhaseSpan, TraceId, TraceSink};
use lite_obs::{
    Counter, Gauge, Histogram, HistogramSummary, ProfReport, Profiler, Registry, Slo, SloConfig,
    SloStatus, Tracer,
};
use lite_rag::{RagTuner, RetrieveError, Retrieved};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::SparkConf;
use lite_sparksim::fault::{FaultInjector, FaultKind};
use lite_sparksim::result::RunResult;
use lite_workloads::apps::AppId;
use lite_workloads::data::DataSpec;

use crate::cache::{ResponseCache, ResponseKey};
use crate::monitor::{DriftConfig, DriftMonitor, DriftSummary};
use crate::slot::VersionedSlot;
use crate::snapshot::ModelSnapshot;

// ---------------------------------------------------------------------------
// Errors and results

/// Why a request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue was full; the request was shed at admission.
    Overloaded,
    /// The deadline passed before a worker picked the request up.
    DeadlineExceeded,
    /// The app's templates are not in the serving snapshot; cold-start
    /// instrumentation mutates the registry and is an offline operation.
    ColdApp(AppId),
    /// The service is shutting down.
    ShuttingDown,
    /// A worker disappeared without answering (a bug, surfaced not hung).
    Internal(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request queue full (load shed)"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded in queue"),
            ServeError::ColdApp(app) => write!(f, "app {app} not in serving snapshot (cold start)"),
            ServeError::ShuttingDown => write!(f, "service shutting down"),
            ServeError::Internal(msg) => write!(f, "internal serve error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served recommendation.
#[derive(Debug, Clone)]
pub struct RecommendResponse {
    /// Model version that produced every score in `ranked`.
    pub version: u64,
    /// Top-k candidates, best first.
    pub ranked: Vec<RankedCandidate>,
    /// Candidates answered from the response cache: all of them when the
    /// request was a repeat answered inline, none when a worker scored it.
    pub cached: usize,
    /// Candidates scored through the batched NECS pass for this answer.
    pub scored: usize,
    /// `true` when scoring failed and the response is the degradation
    /// fallback (the template registry's default configuration, unscored).
    pub degraded: bool,
}

/// A served retrieval: the zero-execution cold-start answer.
#[derive(Debug, Clone)]
pub struct RetrieveResponse {
    /// Raw retrieval hits, nearest first, confs already adapted to the
    /// target data/cluster scale.
    pub neighbors: Vec<Retrieved>,
    /// Adapted candidates ranked best-first by scaled neighbor runtime.
    pub ranked: Vec<RankedCandidate>,
    /// Historical runs in the index at answer time.
    pub index_len: usize,
    /// Index search time (the `index_search` cost, folded under the
    /// `score` phase in trace taxonomy terms).
    pub search_ns: u64,
}

// ---------------------------------------------------------------------------
// Configuration

/// Service tuning knobs. Write it as a struct literal over
/// `..Default::default()`; [`Service::start`] refuses a configuration that
/// fails [`ServeConfig::validate`]. `Default` is always valid.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering requests. `0` spawns no workers (useful
    /// for queue tests: requests enqueue but nothing consumes them).
    pub workers: usize,
    /// Bounded queue capacity; a full queue sheds with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied by [`ServiceHandle::recommend`] and friends when
    /// the caller does not pass one explicitly.
    pub default_deadline: Duration,
    /// Hard ceiling on any request deadline; explicit deadlines are
    /// clamped to it at submission so one caller cannot park a request in
    /// the queue forever.
    pub max_deadline: Duration,
    /// Observed feedback instances that trigger a background model update.
    pub update_batch: usize,
    /// Adaptive Model Update hyper-parameters for background swaps.
    pub amu: AmuConfig,
    /// Prediction-drift thresholds. When the rolling error over observed
    /// feedback exceeds them, the updater retrains on whatever feedback
    /// has accumulated instead of waiting for a full `update_batch`.
    pub drift: DriftConfig,
    /// Fault-injection hooks for chaos testing. `None` disables every
    /// hook; each disabled hook costs one branch on this option.
    pub faults: Option<Arc<FaultInjector>>,
    /// Tail-forensics tracing. `None` disables it entirely: no rings, no
    /// phase histograms, and every request-path hook is one branch on this
    /// option (the same zero-cost-when-off discipline as `faults`).
    pub trace: Option<TraceConfig>,
    /// Retrieval plane serving the `retrieve` op: a shared [`RagTuner`]
    /// over historical runs. `None` (the default) rejects retrieval
    /// requests; everything else is untouched.
    pub retrieval: Option<Arc<RagTuner>>,
    /// Windowed burn-rate SLO over request latency (`serve.latency_ns`).
    /// `Some` starts the evaluator thread, publishes `serve.slo.*` gauges,
    /// and serves the `slo` admin op; `None` (the default) disables all
    /// three.
    pub slo: Option<SloConfig>,
    /// Sampling profiler for tag-stack CPU attribution. An enabled
    /// profiler is started with the service (sampler thread, `obs.prof.*`
    /// metrics, worker tag frames) and stopped at shutdown; `None` or a
    /// [`Profiler::disabled`] handle costs one branch per request.
    pub profiler: Option<Profiler>,
    /// Wire-protocol and sharded-dispatch knobs (pipelining depth, worker
    /// shard count, binary-frame cap, response-cache size).
    pub protocol: ProtocolConfig,
}

/// Wire-protocol and sharded-dispatch knobs: what the v3 binary front-end
/// and the per-shard worker queues run under. Validated with the rest of
/// [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Maximum in-flight pipelined frames per v3 connection. The reactor
    /// stops draining a connection's socket once this many requests are in
    /// flight (backpressure), so one pipelining client cannot monopolize
    /// the shard queues. Must be > 0; JSON frames are always served one at
    /// a time regardless.
    pub max_pipeline: usize,
    /// Worker shards, each with its own bounded queue of the configured
    /// `queue_capacity`. `0` (the default) means one shard per worker;
    /// other values are clamped to the worker count at start (a shard
    /// without a worker would never drain). Recommendations route by
    /// request-identity hash (shard affinity keeps per-shard caches warm);
    /// everything else round-robins.
    pub shards: usize,
    /// Largest accepted v3 binary frame payload, bytes. Oversized binary
    /// frames are refused with a clean `bad_request` error frame (the
    /// connection survives). Must be in `1..=` the transport's own cap
    /// ([`crate::net::MAX_FRAME`]), which still bounds every frame.
    pub max_frame: u32,
    /// Whole-response cache entries per worker shard: a repeat `recommend`
    /// is answered on the submitting/reactor thread straight from the
    /// cache, never crossing into a worker. `0` means the cache holds
    /// nothing (every request reaches a worker).
    pub response_cache: usize,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            max_pipeline: 32,
            shards: 0,
            max_frame: crate::net::MAX_FRAME,
            response_cache: 4096,
        }
    }
}

/// Tail-forensics knobs: when tracing is on, every request records phase
/// spans and per-phase histograms; requests slower than the threshold
/// compete for the exemplar reservoir.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Minimum end-to-end latency before a request is considered for
    /// exemplar capture. `ZERO` means pure top-K (every request competes).
    pub capture_threshold: Duration,
    /// How many of the slowest requests to retain in full.
    pub exemplar_top_k: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capture_threshold: Duration::ZERO, exemplar_top_k: 16 }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(60),
            update_batch: 50,
            amu: AmuConfig::default(),
            drift: DriftConfig::default(),
            faults: None,
            trace: None,
            retrieval: None,
            slo: None,
            profiler: None,
            protocol: ProtocolConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Check the cross-field invariants; a service only starts on `Ok`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.update_batch == 0 {
            return Err(ConfigError::ZeroUpdateBatch);
        }
        if self.max_deadline.is_zero() || self.default_deadline > self.max_deadline {
            return Err(ConfigError::InvertedDeadlines);
        }
        if self.drift.mape_threshold <= 0.0 || self.drift.inversion_threshold <= 0.0 {
            return Err(ConfigError::NonPositiveDriftThreshold);
        }
        if self.slo.as_ref().is_some_and(|s| s.validate().is_err()) {
            return Err(ConfigError::InvalidSlo);
        }
        if self.protocol.max_pipeline == 0 {
            return Err(ConfigError::ZeroPipelineDepth);
        }
        if self.protocol.max_frame == 0 || self.protocol.max_frame > crate::net::MAX_FRAME {
            return Err(ConfigError::BadFrameCap);
        }
        Ok(())
    }
}

/// Why [`ServeConfig::validate`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `queue_capacity == 0`: every request would shed at admission.
    ZeroQueueCapacity,
    /// `update_batch == 0`: the updater would spin retraining on nothing.
    ZeroUpdateBatch,
    /// `default_deadline > max_deadline` (or a zero ceiling): the default
    /// would be clamped below itself on every request.
    InvertedDeadlines,
    /// A drift threshold `<= 0` declares permanent drift and retrains on
    /// every feedback instance.
    NonPositiveDriftThreshold,
    /// The SLO config fails [`SloConfig::validate`] (zero objective,
    /// target outside `(0,1)`, inverted windows, or non-positive burns).
    InvalidSlo,
    /// `protocol.max_pipeline == 0`: a v3 connection could never have a
    /// request in flight.
    ZeroPipelineDepth,
    /// `protocol.max_frame` is zero or exceeds the transport frame cap.
    BadFrameCap,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroQueueCapacity => write!(f, "queue_capacity must be > 0"),
            ConfigError::ZeroUpdateBatch => write!(f, "update_batch must be > 0"),
            ConfigError::InvertedDeadlines => {
                write!(f, "default_deadline must be <= max_deadline (and max_deadline > 0)")
            }
            ConfigError::NonPositiveDriftThreshold => {
                write!(f, "drift thresholds must be > 0")
            }
            ConfigError::InvalidSlo => {
                write!(f, "slo config invalid (objective, target, windows, or burn thresholds)")
            }
            ConfigError::ZeroPipelineDepth => {
                write!(f, "protocol.max_pipeline must be > 0")
            }
            ConfigError::BadFrameCap => {
                write!(f, "protocol.max_frame must be in 1..=transport frame cap")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

// ---------------------------------------------------------------------------
// Bounded queue

enum PushError {
    Full,
    Closed,
}

/// Jobs queued across every shard of a service, and the
/// `serve.queue_depth` gauge publishing that number. Each shard queue
/// updates it under its own lock, so a job's push is always counted (and
/// published) before its pop.
struct QueueDepth {
    jobs: AtomicUsize,
    gauge: Gauge,
}

impl QueueDepth {
    fn pushed(&self) {
        self.gauge.set((self.jobs.fetch_add(1, Ordering::Relaxed) + 1) as f64);
    }

    fn popped(&self, n: usize) {
        self.gauge.set((self.jobs.fetch_sub(n, Ordering::Relaxed) - n) as f64);
    }
}

struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
    capacity: usize,
    queued: Arc<QueueDepth>,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize, queued: Arc<QueueDepth>) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(QueueInner { items: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
            capacity,
            queued,
        }
    }

    /// Non-blocking push: admission control happens here, not by blocking
    /// the producer. A refused item rides back in the error so the caller
    /// can still answer its reply (which would otherwise vanish with the
    /// drop).
    fn try_push(&self, item: T) -> Result<usize, (PushError, T)> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Err((PushError::Closed, item));
        }
        if inner.items.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        inner.items.push_back(item);
        self.queued.pushed();
        let depth = inner.items.len();
        drop(inner);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Blocking pop; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<(T, usize)> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.queued.popped(1);
                let depth = inner.items.len();
                return Some((item, depth));
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue, wake all waiters, and return whatever was still
    /// queued so the caller can answer it.
    fn close(&self) -> Vec<T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        let drained: Vec<T> = inner.items.drain(..).collect();
        self.queued.popped(drained.len());
        drop(inner);
        self.cv.notify_all();
        drained
    }
}

// ---------------------------------------------------------------------------
// Requests

/// Trace context riding with a request through the queue: the id plus the
/// epoch timestamp the submitter stamped at admission, which becomes the
/// start of the worker's `QueueWait` span.
#[derive(Clone, Copy)]
pub(crate) struct TraceMeta {
    id: TraceId,
    enqueued_ns: u64,
}

/// How an outcome travels back to its submitter: a boxed closure the
/// worker (or a refusing admission path) invokes exactly once, on its own
/// thread. The reactor's closure serializes and writes the socket right
/// there; the blocking in-process callers' closure fills a one-slot
/// channel (see [`blocking_reply`]).
///
/// It carries `(outcome, sent_ns, shard)`: the epoch-ns instant the worker
/// sent the reply (0 when untraced) so the receiver can close a `Respond`
/// span, and the worker shard that served it so `respond` attribution
/// stays per-shard under sharded dispatch.
pub(crate) type Reply<T> = Box<dyn FnOnce(Result<T, ServeError>, u64, u32) + Send>;

/// A [`Reply`] for a caller that blocks on the outcome, and the wait for
/// it. A reply dropped un-called surfaces as an error, never a hang.
fn blocking_reply<T: Send + 'static>() -> (Reply<T>, impl FnOnce() -> Result<T, ServeError>) {
    let (tx, rx) = sync_channel(1);
    let reply: Reply<T> = Box::new(move |outcome, _, _| {
        let _ = tx.send(outcome);
    });
    (reply, move || rx.recv().unwrap_or(Err(ServeError::Internal("worker dropped reply"))))
}

pub(crate) enum Request {
    Recommend {
        app: AppId,
        data: DataSpec,
        cluster: ClusterSpec,
        k: usize,
        seed: u64,
        /// The request's identity as the submitter packed it: what it
        /// probed the response cache with and what the worker fills it at.
        key: ResponseKey,
        trace: Option<TraceMeta>,
        reply: Reply<RecommendResponse>,
    },
    Observe {
        app: AppId,
        data: DataSpec,
        cluster: ClusterSpec,
        conf: SparkConf,
        result: Box<RunResult>,
        reply: Reply<usize>,
    },
    /// Test support: occupy a worker for `dur`. Lets tests fill the queue
    /// deterministically without racing real work.
    Stall { dur: Duration, reply: Reply<()> },
}

impl Request {
    /// Answer a request that will never reach a worker.
    fn reject(self, err: ServeError) {
        match self {
            Request::Recommend { reply, .. } => reply(Err(err), 0, 0),
            Request::Observe { reply, .. } => reply(Err(err), 0, 0),
            Request::Stall { reply, .. } => reply(Err(err), 0, 0),
        }
    }
}

struct Job {
    request: Request,
    enqueued: Instant,
    deadline: Instant,
}

// ---------------------------------------------------------------------------
// Shared state and metrics

struct ServeMetrics {
    shed: Counter,
    expired: Counter,
    requests: Counter,
    swaps: Counter,
    latency: Histogram,
    /// The response cache's lifetime hit rate, published when `stats` or
    /// `prometheus` is read (never on the request path).
    cache_hit_rate: Gauge,
    drift_mape: Gauge,
    drift_mean_error: Gauge,
    drift_inversion: Gauge,
    drift_samples: Gauge,
    drift_alerts: Counter,
    /// 1 while the service is pinned on a stale snapshot after an updater
    /// failure, 0 otherwise.
    degraded: Gauge,
    /// Background updates that failed (panic or failed swap).
    updater_failures: Counter,
    /// Recommendations answered by the default-configuration fallback.
    fallbacks: Counter,
    /// Retrieval requests served (the `retrieve` op).
    retrieve_requests: Counter,
    /// Retrieval requests that failed (empty store, unparsable source).
    retrieve_errors: Counter,
    /// End-to-end retrieval latency (search + adaptation + ranking).
    retrieve_latency: Histogram,
    /// Neighbors returned per retrieval.
    retrieve_neighbors: Histogram,
    /// Worker shards serving this instance (scripts/lint.sh rule 4 pins
    /// the `serve.shard.*` namespace).
    shard_count: Gauge,
    /// Requests dispatched into a shard queue.
    shard_requests: Counter,
    /// Recommendations answered on the submitting thread from the
    /// response cache (never reached a shard queue).
    shard_inline: Counter,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            shed: registry.counter("serve.shed"),
            expired: registry.counter("serve.expired"),
            requests: registry.counter("serve.requests"),
            swaps: registry.counter("serve.swaps"),
            latency: registry.histogram("serve.latency_ns"),
            cache_hit_rate: registry.gauge("serve.cache_hit_rate"),
            drift_mape: registry.gauge("serve.drift.mape"),
            drift_mean_error: registry.gauge("serve.drift.mean_error_s"),
            drift_inversion: registry.gauge("serve.drift.inversion_rate"),
            drift_samples: registry.gauge("serve.drift.samples"),
            drift_alerts: registry.counter("serve.drift.alerts"),
            degraded: registry.gauge("serve.degraded"),
            updater_failures: registry.counter("serve.updater_failures"),
            fallbacks: registry.counter("serve.fallbacks"),
            retrieve_requests: registry.counter("serve.retrieve.requests"),
            retrieve_errors: registry.counter("serve.retrieve.errors"),
            retrieve_latency: registry.histogram("serve.retrieve.latency_ns"),
            retrieve_neighbors: registry.histogram("serve.retrieve.neighbors"),
            shard_count: registry.gauge("serve.shard.count"),
            shard_requests: registry.counter("serve.shard.requests"),
            shard_inline: registry.counter("serve.shard.inline"),
        }
    }
}

/// The live tracing plane: the exemplar sink plus the per-phase latency
/// histograms, built once at service start when tracing is configured.
struct TraceState {
    sink: TraceSink,
    hists: PhaseHistograms,
}

/// The `serve.slo.*` gauge family: the closed namespace the burn-rate
/// evaluator publishes after every tick (scripts/lint.sh rule 4 pins it).
struct SloMetrics {
    ticks: Counter,
    burn_fast: Gauge,
    burn_slow: Gauge,
    good_fraction: Gauge,
    alert: Gauge,
    alert_ticks: Gauge,
    window_rate: Gauge,
    window_p50: Gauge,
    window_p99: Gauge,
    window_p999: Gauge,
}

impl SloMetrics {
    fn new(registry: &Registry) -> SloMetrics {
        SloMetrics {
            ticks: registry.counter("serve.slo.ticks"),
            burn_fast: registry.gauge("serve.slo.burn_fast"),
            burn_slow: registry.gauge("serve.slo.burn_slow"),
            good_fraction: registry.gauge("serve.slo.good_fraction"),
            alert: registry.gauge("serve.slo.alert"),
            alert_ticks: registry.gauge("serve.slo.alert_ticks"),
            window_rate: registry.gauge("serve.slo.window_rate"),
            window_p50: registry.gauge("serve.slo.window_p50_ns"),
            window_p99: registry.gauge("serve.slo.window_p99_ns"),
            window_p999: registry.gauge("serve.slo.window_p999_ns"),
        }
    }
}

/// The live SLO plane: the evaluator over `serve.latency_ns` plus its
/// gauge family and the condvar that wakes the tick thread at shutdown.
struct SloState {
    slo: Mutex<Slo>,
    metrics: SloMetrics,
    /// Wakes the evaluator thread out of its bucket-width sleep early
    /// (shutdown would otherwise block on the sleep).
    wake: Condvar,
    gate: Mutex<()>,
}

struct Shared {
    /// The versioned model slot, and the feedback/update/drift machinery
    /// around it.
    slot: VersionedSlot<ModelSnapshot>,
    feedback: Mutex<Vec<StageInstance>>,
    feedback_cv: Condvar,
    feedback_runs: AtomicUsize,
    source: Arc<Dataset>,
    monitor: DriftMonitor,
    /// One bounded queue per worker shard, each of the full configured
    /// `queue_capacity`. Worker `i` drains shard `i % shards.len()`;
    /// recommendations route by request-identity hash (shard affinity),
    /// everything else round-robins through `rr`.
    shards: Vec<BoundedQueue<Job>>,
    /// Jobs queued across `shards` (what `serve.queue_depth` publishes).
    queued: Arc<QueueDepth>,
    rr: AtomicUsize,
    /// The service's one cache: whole responses, one LRU shard per worker
    /// shard, each entry as a repeat is answered (`cached` = its
    /// candidates, `scored` = 0).
    response_cache: ResponseCache<RecommendResponse>,
    config: ServeConfig,
    shutdown: AtomicBool,
    tracer: Tracer,
    metrics: ServeMetrics,
    /// The registry the service's metrics live in (for admin exposition).
    registry: Registry,
    started: Instant,
    /// Swaps that finished (the slot stamp, mirrored for cheap reads).
    swap_count: AtomicU64,
    /// Set while serving from a pinned stale snapshot after an updater
    /// failure; cleared by the next successful swap.
    degraded: AtomicBool,
    /// Tail-forensics plane; `None` when tracing is disabled.
    trace: Option<TraceState>,
    /// Burn-rate SLO plane; `None` when no SLO is configured.
    slo: Option<SloState>,
    /// Sampling profiler; `None` when disabled (requests pay one branch).
    profiler: Option<Profiler>,
    /// True while the updater is inside its clone-update-swap section.
    /// Phase spans snapshot it so exemplars show whether a slow request
    /// overlapped a model swap.
    swap_active: AtomicBool,
}

impl Shared {
    /// Shard a recommend routes to: request-identity hash modulo shard
    /// count, so repeats of the same request land on the same worker.
    fn route_recommend(&self, key: &ResponseKey) -> usize {
        (key.route_hash() % self.shards.len() as u64) as usize
    }

    /// Shard an observe routes to: same identity hash minus the k/seed
    /// words, so feedback for a context lands where its recommends ran.
    fn route_observe(&self, app: AppId, data: &DataSpec, cluster: &ClusterSpec) -> usize {
        let key = ResponseKey::new(app, data, cluster, 0, 0);
        (key.route_hash() % self.shards.len() as u64) as usize
    }

    /// Round-robin shard for requests with no affinity (stalls).
    fn rr_shard(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// The one admission funnel: clamp `deadline` to the configured
    /// ceiling, queue the request on `shard`, and return the shard depth
    /// it was admitted at. A refusal — queue full (counted as shed) or
    /// closed — is answered through the request's own reply, so every
    /// kind of caller sees the same admission errors.
    fn enqueue(&self, shard: usize, request: Request, deadline: Duration) -> Option<usize> {
        let now = Instant::now();
        let deadline = now + deadline.min(self.config.max_deadline);
        match self.shards[shard].try_push(Job { request, enqueued: now, deadline }) {
            Ok(depth) => {
                self.metrics.shard_requests.inc();
                Some(depth)
            }
            Err((refusal, job)) => {
                let err = match refusal {
                    PushError::Full => {
                        self.metrics.shed.inc();
                        ServeError::Overloaded
                    }
                    PushError::Closed => ServeError::ShuttingDown,
                };
                job.request.reject(err);
                None
            }
        }
    }

    /// Record one phase span (ring + histogram), stamping the live
    /// swap-in-progress flag. A no-op branch when tracing is off.
    fn trace_phase(&self, id: TraceId, phase: Phase, start_ns: u64, end_ns: u64, queue_depth: u32) {
        if let Some(tr) = &self.trace {
            let span = PhaseSpan {
                trace_id: id.raw(),
                phase,
                start_ns,
                end_ns,
                queue_depth,
                swap_in_progress: self.swap_active.load(Ordering::Relaxed),
            };
            tr.sink.record(span);
            tr.hists.record(&span);
        }
    }

    /// `Some(now)` only when this request is traced — the request-path
    /// pattern for taking a timestamp without paying for it untraced.
    fn trace_now(&self, trace: Option<TraceMeta>) -> Option<(TraceId, u64)> {
        match (trace, &self.trace) {
            (Some(meta), Some(_)) => Some((meta.id, epoch_ns())),
            _ => None,
        }
    }

    /// Push a profiler tag frame for the current scope; inert (`None`)
    /// when no profiler is configured.
    fn prof_enter(&self, tag: &'static str) -> Option<lite_obs::TagGuard> {
        self.profiler.as_ref().map(|p| p.enter(tag))
    }

    /// Close one SLO rollup bucket from the live latency histogram,
    /// re-evaluate the burn-rate windows, and publish the `serve.slo.*`
    /// gauges. Called by the evaluator thread once per bucket width;
    /// tests drive it manually through [`ServiceHandle::slo_tick`].
    fn slo_tick(&self) -> Option<SloStatus> {
        let state = self.slo.as_ref()?;
        let status = {
            let mut slo = state.slo.lock().unwrap_or_else(PoisonError::into_inner);
            slo.tick(&self.metrics.latency).clone()
        };
        let m = &state.metrics;
        m.ticks.inc();
        m.burn_fast.set(status.burn_fast);
        m.burn_slow.set(status.burn_slow);
        m.good_fraction.set(status.good_fraction);
        m.alert.set(if status.alert { 1.0 } else { 0.0 });
        m.alert_ticks.set(status.alert_ticks as f64);
        // Window stats come from the fast window: the freshest view an
        // operator dashboard wants next to the cumulative histogram.
        m.window_rate.set(status.fast.rate);
        m.window_p50.set(status.fast.p50 as f64);
        m.window_p99.set(status.fast.p99 as f64);
        m.window_p999.set(status.fast.p999 as f64);
        Some(status)
    }
}

/// The SLO evaluator thread: one [`Shared::slo_tick`] per bucket width.
/// The sleep comes *first* so services configured with wide buckets (tests
/// that drive ticks manually) never race an automatic tick at startup.
fn slo_loop(shared: Arc<Shared>) {
    let Some(state) = &shared.slo else { return };
    let bucket = {
        let slo = state.slo.lock().unwrap_or_else(PoisonError::into_inner);
        slo.config().bucket
    };
    loop {
        let gate = state.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let _unused = state.wake.wait_timeout(gate, bucket).unwrap_or_else(PoisonError::into_inner);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        shared.slo_tick();
    }
}

// ---------------------------------------------------------------------------
// Worker

fn worker_loop(shared: Arc<Shared>, shard: usize) {
    let mut reader = shared.slot.reader();
    while let Some((job, depth)) = shared.shards[shard].pop() {
        let picked_ns = if shared.trace.is_some() { epoch_ns() } else { 0 };
        let now = Instant::now();
        if now > job.deadline {
            shared.metrics.expired.inc();
            job.request.reject(ServeError::DeadlineExceeded);
            continue;
        }
        // Injected handling latency: stalls this worker the way a slow
        // downstream dependency would, building real queue pressure.
        if let Some(f) = shared.config.faults.as_deref() {
            if let Some(d) = f.fire_delay(FaultKind::RequestDelay, f.next_key()) {
                std::thread::sleep(d);
            }
        }
        match job.request {
            Request::Recommend { app, data, cluster, k, seed, key, trace, reply } => {
                let _tag = shared.prof_enter("serve.recommend");
                if let Some((id, t)) = shared.trace_now(trace) {
                    // QueueWait runs from the submitter's admission stamp to
                    // pickup; Dequeue covers the deadline check and any
                    // injected handling delay that already ran above.
                    if let Some(meta) = trace {
                        shared.trace_phase(
                            id,
                            Phase::QueueWait,
                            meta.enqueued_ns,
                            picked_ns,
                            depth as u32,
                        );
                    }
                    shared.trace_phase(id, Phase::Dequeue, picked_ns, t, 0);
                }
                let mut span = shared.tracer.span("serve.request");
                let load_t = shared.trace_now(trace);
                let snapshot = shared.slot.load_with(&mut reader).clone();
                if let Some((id, t0)) = load_t {
                    shared.trace_phase(id, Phase::SnapshotLoad, t0, epoch_ns(), 0);
                }
                let outcome = serve_recommend(
                    &shared,
                    &snapshot,
                    app,
                    &data,
                    &cluster,
                    k,
                    seed,
                    trace.map(|m| m.id),
                );
                if span.is_recording() {
                    span.attr_u64("version", snapshot.version);
                    span.attr_str("app", &app.to_string());
                    span.attr_f64("queue_wait_s", (now - job.enqueued).as_secs_f64());
                    match &outcome {
                        Ok(resp) => {
                            span.attr_u64("cached", resp.cached as u64);
                            span.attr_u64("scored", resp.scored as u64);
                            if resp.degraded {
                                span.attr_str("outcome", "degraded_fallback");
                            }
                        }
                        Err(err) => span.attr_str("error", &err.to_string()),
                    }
                }
                drop(span);
                // Fill the response cache with clean answers only: the
                // degradation fallback should be retried, not repeated.
                // The entry is stored as a repeat reports it.
                if let Some(resp) = outcome.as_ref().ok().filter(|r| !r.degraded) {
                    let hit = RecommendResponse { cached: resp.scored, scored: 0, ..resp.clone() };
                    shared.response_cache.insert(key, resp.version, hit);
                }
                shared.metrics.requests.inc();
                shared.metrics.latency.record_secs(job.enqueued.elapsed().as_secs_f64());
                let sent_ns =
                    if trace.is_some() && shared.trace.is_some() { epoch_ns() } else { 0 };
                reply(outcome, sent_ns, shard as u32);
            }
            Request::Observe { app, data, cluster, conf, result, reply } => {
                let _tag = shared.prof_enter("serve.observe");
                let snapshot = shared.slot.load_with(&mut reader).clone();
                // Feed the drift monitor: what did *this* model version
                // predict for the configuration that just ran? Failed runs
                // carry no meaningful runtime and are skipped.
                if result.failure.is_none() {
                    if let Some(pred) =
                        predict_one(shared.as_ref(), &snapshot, app, &data, &cluster, &conf)
                    {
                        shared.monitor.record(pred, result.total_time_s);
                    }
                }
                let run_id = usize::MAX - shared.feedback_runs.fetch_add(1, Ordering::Relaxed);
                let mut extracted = Vec::new();
                extract_stage_instances(
                    &snapshot.registry,
                    app,
                    &conf,
                    &data,
                    &cluster,
                    &result,
                    run_id,
                    &mut extracted,
                );
                let total = {
                    let mut feedback =
                        shared.feedback.lock().unwrap_or_else(PoisonError::into_inner);
                    feedback.extend(extracted);
                    feedback.len()
                };
                if total >= shared.config.update_batch {
                    shared.feedback_cv.notify_one();
                }
                shared.metrics.requests.inc();
                shared.metrics.latency.record_secs(job.enqueued.elapsed().as_secs_f64());
                reply(Ok(total), 0, shard as u32);
            }
            Request::Stall { dur, reply } => {
                std::thread::sleep(dur);
                reply(Ok(()), 0, shard as u32);
            }
        }
    }
}

/// Predict the runtime of one configuration under `snapshot`. `None` when
/// the app is cold in the snapshot.
fn predict_one(
    shared: &Shared,
    snapshot: &ModelSnapshot,
    app: AppId,
    data: &DataSpec,
    cluster: &ClusterSpec,
    conf: &SparkConf,
) -> Option<f64> {
    let ctx = snapshot.warm_context(app, data, cluster)?;
    score_candidates(
        &snapshot.model,
        &snapshot.registry,
        &ctx,
        cluster,
        std::slice::from_ref(conf),
        &shared.tracer,
    )
    .first()
    .copied()
}

#[allow(clippy::too_many_arguments)]
fn serve_recommend(
    shared: &Shared,
    snapshot: &ModelSnapshot,
    app: AppId,
    data: &DataSpec,
    cluster: &ClusterSpec,
    k: usize,
    seed: u64,
    trace: Option<TraceId>,
) -> Result<RecommendResponse, ServeError> {
    let Some(ctx) = snapshot.warm_context(app, data, cluster) else {
        return Err(ServeError::ColdApp(app));
    };
    let score_broken = shared
        .config
        .faults
        .as_deref()
        .is_some_and(|f| f.fires(FaultKind::ScoreFail, f.next_key()));
    let outcome = if score_broken {
        None
    } else {
        // Scoring is the only part of the request that runs model code;
        // a panic or a non-finite score degrades to the fallback below
        // instead of killing the worker.
        catch_unwind(AssertUnwindSafe(|| {
            score_ranked(shared, snapshot, &ctx, app, data, cluster, seed, trace)
        }))
        .ok()
        .filter(|ranked| ranked.iter().all(|r| r.predicted_s.is_finite()))
    };
    match outcome {
        Some(mut ranked) => {
            let scored = ranked.len();
            ranked.sort_by(|a, b| a.predicted_s.total_cmp(&b.predicted_s));
            ranked.truncate(k.max(1));
            Ok(RecommendResponse {
                version: snapshot.version,
                ranked,
                cached: 0,
                scored,
                degraded: false,
            })
        }
        None => {
            // Degradation ladder, bottom rung: NECS scoring is broken but
            // the template registry still knows a safe configuration.
            // Answer the space default, unscored and flagged, rather than
            // failing the request.
            shared.metrics.fallbacks.inc();
            let conf = snapshot.acg.space().default_conf();
            Ok(RecommendResponse {
                version: snapshot.version,
                ranked: vec![RankedCandidate { conf, predicted_s: 0.0 }],
                cached: 0,
                scored: 0,
                degraded: true,
            })
        }
    }
}

/// Every candidate for the request, scored in one batched NECS pass and
/// unsorted.
#[allow(clippy::too_many_arguments)]
fn score_ranked(
    shared: &Shared,
    snapshot: &ModelSnapshot,
    ctx: &lite_core::experiment::PredictionContext,
    app: AppId,
    data: &DataSpec,
    cluster: &ClusterSpec,
    seed: u64,
    trace: Option<TraceId>,
) -> Vec<RankedCandidate> {
    let confs = snapshot.acg.candidates_seeded(app, data, &ctx.env, snapshot.num_candidates, seed);
    let _tag = shared.prof_enter("serve.score");
    let score_t0 = trace.map(|id| (id, epoch_ns()));
    let scores =
        score_candidates(&snapshot.model, &snapshot.registry, ctx, cluster, &confs, &shared.tracer);
    if let Some((id, t0)) = score_t0 {
        shared.trace_phase(id, Phase::Score, t0, epoch_ns(), 0);
    }
    confs
        .into_iter()
        .zip(scores)
        .map(|(conf, predicted_s)| RankedCandidate { conf, predicted_s })
        .collect()
}

// ---------------------------------------------------------------------------
// Updater

fn updater_loop(shared: Arc<Shared>) {
    // Alerts are edge-triggered: one count per transition into drift, not
    // one per 100 ms poll while the condition persists.
    let mut was_drifted = false;
    loop {
        // Wait until retraining is warranted — a full feedback batch OR
        // detected prediction drift with any feedback at all — or shutdown.
        let mut trigger = "batch";
        let batch: Vec<StageInstance> = loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            // The drift scan is O(window²) and reads only the monitor's
            // own lock-free ring: it runs before the feedback lock is
            // taken, so an `observe` never queues behind it.
            let drift = shared.monitor.summary();
            shared.metrics.drift_mape.set(drift.mape);
            shared.metrics.drift_mean_error.set(drift.mean_error_s);
            shared.metrics.drift_inversion.set(drift.inversion_rate);
            shared.metrics.drift_samples.set(drift.samples as f64);
            if drift.drifted && !was_drifted {
                shared.metrics.drift_alerts.inc();
            }
            was_drifted = drift.drifted;
            let mut feedback = shared.feedback.lock().unwrap_or_else(PoisonError::into_inner);
            if feedback.len() >= shared.config.update_batch {
                break std::mem::take(&mut *feedback);
            }
            if drift.drifted && !feedback.is_empty() {
                trigger = "drift";
                break std::mem::take(&mut *feedback);
            }
            // The check above and this wait share one hold of the lock, so
            // the `observe` that fills the batch cannot notify in between.
            drop(
                shared
                    .feedback_cv
                    .wait_timeout(feedback, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner),
            );
        };
        if batch.is_empty() {
            continue;
        }

        // Clone-update-swap: readers keep serving the old version while the
        // fine-tune runs; the swap is the only synchronized step. Phase
        // spans recorded while the flag is up are stamped
        // `swap_in_progress`, so exemplars show swap-convoy tails.
        shared.swap_active.store(true, Ordering::Relaxed);
        let _tag = shared.prof_enter("serve.swap");
        let started = Instant::now();
        let old = shared.slot.load();
        let next_version = old.version + 1;
        let faults = shared.config.faults.as_deref();
        // Injected swap latency: the whole pipeline stalls, but readers
        // keep answering from the pinned version — that is the point.
        if let Some(d) = faults.and_then(|f| f.fire_delay(FaultKind::SwapDelay, next_version)) {
            std::thread::sleep(d);
        }
        let mut span = shared.tracer.span("serve.swap");
        let src: Vec<&StageInstance> = shared.source.instances.iter().collect();
        let tgt: Vec<&StageInstance> = batch.iter().collect();
        let updated = catch_unwind(AssertUnwindSafe(|| {
            if faults.is_some_and(|f| f.fires(FaultKind::UpdaterPanic, next_version)) {
                panic!("injected updater panic (chaos)");
            }
            let mut model = old.model.clone();
            adaptive_model_update(&mut model, &old.registry, &src, &tgt, &shared.config.amu);
            model
        }));
        let swap_failed = faults.is_some_and(|f| f.fires(FaultKind::SwapFail, next_version));
        let model = match updated {
            Ok(model) if !swap_failed => model,
            _ => {
                // Graceful degradation: the last-good snapshot stays
                // pinned, the batch is dropped (future feedback re-derives
                // its signal), and the gauge tells operators that
                // recommendations are served by a stale model.
                shared.degraded.store(true, Ordering::Release);
                shared.metrics.degraded.set(1.0);
                shared.metrics.updater_failures.inc();
                if span.is_recording() {
                    span.attr_u64("version", next_version);
                    span.attr_str("outcome", "degraded");
                }
                drop(span);
                shared.swap_active.store(false, Ordering::Relaxed);
                continue;
            }
        };
        let next = ModelSnapshot {
            version: next_version,
            model,
            acg: old.acg.clone(),
            registry: old.registry.clone(),
            num_candidates: old.num_candidates,
        };
        if span.is_recording() {
            span.attr_u64("version", next.version);
            span.attr_u64("feedback_instances", tgt.len() as u64);
            span.attr_f64("update_s", started.elapsed().as_secs_f64());
            span.attr_str("trigger", trigger);
            span.attr_str("outcome", "swapped");
        }
        drop(span);
        shared.slot.swap(Arc::new(next));
        shared.swap_active.store(false, Ordering::Relaxed);
        shared.swap_count.fetch_add(1, Ordering::Release);
        shared.metrics.swaps.inc();
        // A successful swap ends any degradation: the serving model is
        // fresh again.
        shared.degraded.store(false, Ordering::Release);
        shared.metrics.degraded.set(0.0);
        // The new version deserves a fresh verdict: clear the drift window
        // so stale errors from the replaced model cannot re-trigger.
        shared.monitor.reset();
        was_drifted = false;
    }
}

// ---------------------------------------------------------------------------
// Service + handle

/// The running service: owns the worker and updater threads.
pub struct Service {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// A cheap, cloneable client handle. Safe to share across threads; every
/// call enqueues a request and blocks on its reply.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl Service {
    /// Start the service over an initial model snapshot. `source` is the
    /// offline training dataset the Adaptive Model Update mixes with
    /// observed feedback.
    pub fn start(
        snapshot: ModelSnapshot,
        source: Arc<Dataset>,
        config: ServeConfig,
        registry: &Registry,
        tracer: Tracer,
    ) -> Service {
        config.validate().expect("invalid ServeConfig"); // gate: allow(expect)
        let metrics = ServeMetrics::new(registry);
        let trace = config.trace.as_ref().map(|t| TraceState {
            sink: TraceSink::new(t.capture_threshold.as_nanos() as u64, t.exemplar_top_k),
            hists: PhaseHistograms::register(registry),
        });
        let slo = config.slo.clone().map(|c| SloState {
            slo: Mutex::new(Slo::new(c)),
            metrics: SloMetrics::new(registry),
            wake: Condvar::new(),
            gate: Mutex::new(()),
        });
        // An enabled profiler runs for the service's lifetime: sampler
        // thread, obs.prof.* metrics, span-piggybacked tag frames, and the
        // explicit worker tags below (which keep flamegraphs meaningful
        // even when the service runs with a disabled tracer).
        let profiler = config.profiler.clone().filter(Profiler::is_enabled);
        if let Some(p) = &profiler {
            p.attach_metrics(registry);
            tracer.attach_profiler(p.clone());
            p.start();
        }
        // Shard plan: one queue per worker by default; an explicit shard
        // count is clamped to the worker count (a shard no worker drains
        // would swallow requests). Zero workers — queue tests — get one
        // shard so requests still enqueue. Each shard keeps the full
        // configured capacity, preserving single-shard admission-control
        // semantics exactly.
        let nshards = if config.workers == 0 {
            1
        } else if config.protocol.shards == 0 {
            config.workers
        } else {
            config.protocol.shards.min(config.workers)
        };
        metrics.shard_count.set(nshards as f64);
        let queued = Arc::new(QueueDepth {
            jobs: AtomicUsize::new(0),
            gauge: registry.gauge("serve.queue_depth"),
        });
        let shards = (0..nshards)
            .map(|_| BoundedQueue::new(config.queue_capacity, queued.clone()))
            .collect();
        let response_cache = ResponseCache::new(
            nshards,
            config.protocol.response_cache,
            registry.counter("serve.shard.resp_hits"),
            registry.counter("serve.shard.resp_misses"),
        );
        let shared = Arc::new(Shared {
            slot: VersionedSlot::new(Arc::new(snapshot)),
            feedback: Mutex::new(Vec::new()),
            feedback_cv: Condvar::new(),
            feedback_runs: AtomicUsize::new(0),
            source,
            monitor: DriftMonitor::new(config.drift.clone()),
            shards,
            queued,
            rr: AtomicUsize::new(0),
            response_cache,
            config,
            shutdown: AtomicBool::new(false),
            tracer,
            metrics,
            registry: registry.clone(),
            started: Instant::now(),
            swap_count: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            trace,
            slo,
            profiler,
            swap_active: AtomicBool::new(false),
        });
        let mut threads = Vec::new();
        for i in 0..shared.config.workers {
            let shared = shared.clone();
            let shard = i % nshards;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(shared, shard))
                    .expect("spawn worker"), // gate: allow(expect)
            );
        }
        let updater = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("serve-updater".into())
                .spawn(move || updater_loop(updater))
                .expect("spawn updater"), // gate: allow(expect)
        );
        if shared.slo.is_some() {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("serve-slo".into())
                    .spawn(move || slo_loop(shared))
                    .expect("spawn slo evaluator"), // gate: allow(expect)
            );
        }
        Service { shared, threads }
    }

    /// A client handle.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle { shared: self.shared.clone() }
    }

    /// Stop accepting requests, answer everything still queued with
    /// [`ServeError::ShuttingDown`], and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for shard in &self.shared.shards {
            for job in shard.close() {
                job.request.reject(ServeError::ShuttingDown);
            }
        }
        self.shared.feedback_cv.notify_all();
        if let Some(state) = &self.shared.slo {
            state.wake.notify_all();
        }
        for t in self.threads.drain(..) {
            t.join().expect("serve thread panicked"); // gate: allow(expect)
        }
        if let Some(p) = &self.shared.profiler {
            p.stop();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl ServiceHandle {
    /// The wire-protocol knobs this service runs under (the TCP front-end
    /// reads pipelining depth and the binary-frame cap from here).
    pub(crate) fn protocol(&self) -> &ProtocolConfig {
        &self.shared.config.protocol
    }

    /// The path every `recommend` takes: probe the response cache and
    /// answer a repeat right here, on the calling thread; else route to
    /// the affine shard and enqueue. The outcome — including admission
    /// rejections — always arrives through `reply`. A traced request
    /// records the probe as its `CacheLookup` phase, so a traced hit
    /// carries exactly the phases it crossed (no queue, no score).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit_recommend(
        &self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
        seed: u64,
        deadline: Duration,
        trace: Option<TraceId>,
        reply: Reply<RecommendResponse>,
    ) {
        let shared = &*self.shared;
        let probe = trace.filter(|_| shared.trace.is_some()).map(|id| (id, epoch_ns()));
        let key = ResponseKey::new(app, data, cluster, k, seed);
        let hit = self.cached_response(&key);
        // The probe's end is the admission stamp: one clock read serves
        // both, and no time between them goes unattributed.
        let meta = probe.map(|(id, probe_ns)| {
            let enqueued_ns = epoch_ns();
            shared.trace_phase(id, Phase::CacheLookup, probe_ns, enqueued_ns, 0);
            TraceMeta { id, enqueued_ns }
        });
        if let Some(resp) = hit {
            reply(Ok(resp), 0, 0);
            return;
        }
        let shard = shared.route_recommend(&key);
        let route_ns = meta.map(|_| epoch_ns());
        let request = Request::Recommend {
            app,
            data: *data,
            cluster: cluster.clone(),
            k,
            seed,
            key,
            trace: meta,
            reply,
        };
        let admitted = shared.enqueue(shard, request, deadline);
        if let (Some(depth), Some(meta)) = (admitted, meta) {
            // Enqueue covers admission bookkeeping up to routing; Dispatch
            // covers the route + shard-queue handoff and carries the chosen
            // shard in the depth slot.
            let routed = route_ns.unwrap_or(meta.enqueued_ns);
            shared.trace_phase(meta.id, Phase::Enqueue, meta.enqueued_ns, routed, depth as u32);
            shared.trace_phase(meta.id, Phase::Dispatch, routed, epoch_ns(), shard as u32);
        }
    }

    /// Answer a repeat `recommend` from the response cache on the calling
    /// thread, never touching a shard queue. `None` (a miss, or shutdown)
    /// means the caller proceeds to enqueue as usual. Rankings and version
    /// are what the worker computed, bit for bit; the entry was stored
    /// reporting all its candidates as `cached`.
    fn cached_response(&self, key: &ResponseKey) -> Option<RecommendResponse> {
        let shared = &*self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let t0 = Instant::now();
        // The slot stamp doubles as the served version (see
        // `VersionedSlot::stamp`), so validity costs one atomic load.
        let resp = shared.response_cache.get(key, shared.slot.stamp())?;
        let _tag = shared.prof_enter("serve.recommend");
        if let Some(f) = shared.config.faults.as_deref() {
            if let Some(d) = f.fire_delay(FaultKind::RequestDelay, f.next_key()) {
                std::thread::sleep(d);
            }
        }
        shared.metrics.shard_inline.inc();
        shared.metrics.requests.inc();
        shared.metrics.latency.record_secs(t0.elapsed().as_secs_f64());
        Some(resp)
    }

    /// Recommend top-`k` configurations with the default deadline.
    pub fn recommend(
        &self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
        seed: u64,
    ) -> Result<RecommendResponse, ServeError> {
        self.recommend_deadline(app, data, cluster, k, seed, self.shared.config.default_deadline)
    }

    /// Recommend with an explicit deadline (measured from enqueue, clamped
    /// to [`ServeConfig::max_deadline`]).
    pub fn recommend_deadline(
        &self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
        seed: u64,
        deadline: Duration,
    ) -> Result<RecommendResponse, ServeError> {
        let (reply, outcome) = blocking_reply();
        self.submit_recommend(app, data, cluster, k, seed, deadline, None, reply);
        outcome()
    }

    /// The configured default per-request deadline.
    pub fn default_deadline(&self) -> Duration {
        self.shared.config.default_deadline
    }

    /// Whether tail-forensics tracing is enabled on this service.
    pub fn trace_enabled(&self) -> bool {
        self.shared.trace.is_some()
    }

    /// Record a request-path phase span against `trace` from the calling
    /// thread (the TCP front-end records its socket-side phases — accept,
    /// frame read, parse, serialize, write — through this). A no-op when
    /// tracing is disabled.
    pub fn trace_phase(&self, trace: TraceId, phase: Phase, start_ns: u64, end_ns: u64) {
        self.shared.trace_phase(trace, phase, start_ns, end_ns, 0);
    }

    /// Record the `Respond` reply-channel hop with the serving shard in
    /// the span's depth slot, so sharded dispatch stays attributable (the
    /// callback reply path records this from the worker's own thread).
    pub(crate) fn trace_respond(&self, trace: TraceId, start_ns: u64, end_ns: u64, shard: u32) {
        self.shared.trace_phase(trace, Phase::Respond, start_ns, end_ns, shard);
    }

    /// Declare a traced request finished with the given end-to-end latency;
    /// it is captured as a tail exemplar when it clears the configured
    /// threshold and the top-K floor. Returns whether it was captured
    /// (always `false` with tracing disabled).
    pub fn trace_complete(&self, trace: TraceId, total_ns: u64) -> bool {
        self.shared.trace.as_ref().is_some_and(|t| t.sink.complete(trace, total_ns))
    }

    /// Captured slow-request exemplars, slowest first (what the
    /// `tailtrace` admin op serves). Empty when tracing is disabled.
    pub fn tail_exemplars(&self) -> Vec<Exemplar> {
        self.shared.trace.as_ref().map(|t| t.sink.exemplars()).unwrap_or_default()
    }

    /// Lifetime `(completed, captured)` traced-request counts.
    pub fn tail_totals(&self) -> (u64, u64) {
        self.shared.trace.as_ref().map(|t| t.sink.totals()).unwrap_or((0, 0))
    }

    /// Per-phase latency summaries (`serve.phase.*`), in phase order.
    /// Empty when tracing is disabled.
    pub fn phase_summaries(&self) -> Vec<(&'static str, HistogramSummary)> {
        self.shared
            .trace
            .as_ref()
            .map(|t| t.hists.summaries().into_iter().map(|(p, s)| (p.name(), s)).collect())
            .unwrap_or_default()
    }

    /// The configured SLO, if any.
    pub fn slo_config(&self) -> Option<SloConfig> {
        self.shared
            .slo
            .as_ref()
            .map(|s| s.slo.lock().unwrap_or_else(PoisonError::into_inner).config().clone())
    }

    /// The latest SLO evaluation (identity values before the first tick);
    /// `None` when no SLO is configured.
    pub fn slo_status(&self) -> Option<SloStatus> {
        self.shared
            .slo
            .as_ref()
            .map(|s| s.slo.lock().unwrap_or_else(PoisonError::into_inner).status().clone())
    }

    /// Close one SLO rollup bucket now and re-evaluate (what the
    /// evaluator thread does once per bucket width — tests configure a
    /// wide bucket and drive ticks through this instead of sleeping).
    pub fn slo_tick(&self) -> Option<SloStatus> {
        self.shared.slo_tick()
    }

    /// Profile summary with the `k` hottest tags; `None` when no profiler
    /// is configured.
    pub fn profile_report(&self, k: usize) -> Option<ProfReport> {
        self.shared.profiler.as_ref().map(|p| p.report(k))
    }

    /// Collapsed-stack ("folded") profile output; `None` when no profiler
    /// is configured.
    pub fn profile_folded(&self) -> Option<String> {
        self.shared.profiler.as_ref().map(|p| p.folded())
    }

    /// Whether a retrieval plane is configured (the `retrieve` op).
    pub fn retrieval_enabled(&self) -> bool {
        self.shared.config.retrieval.is_some()
    }

    /// Retrieve the top-`k` most similar historical runs for `app` and
    /// rank their scale-adapted configurations — the zero-execution
    /// cold-start path. Runs inline on the calling thread (an index
    /// search, not a scoring job; it never competes for the worker queue).
    /// Under a trace id the index search and candidate ranking are
    /// recorded as one `score` phase span (the `index_search` cost folds
    /// under `score` in the taxonomy).
    pub fn retrieve(
        &self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
        trace: Option<TraceId>,
    ) -> Result<RetrieveResponse, ServeError> {
        self.retrieve_inner(Some(app), None, data, cluster, k, trace)
    }

    /// Retrieve for raw application source the server has never seen
    /// (embedded through static analysis; ranked by scaled neighbor
    /// runtime since NECS has no templates for an anonymous app).
    pub fn retrieve_source(
        &self,
        source: &str,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
        trace: Option<TraceId>,
    ) -> Result<RetrieveResponse, ServeError> {
        self.retrieve_inner(None, Some(source), data, cluster, k, trace)
    }

    fn retrieve_inner(
        &self,
        app: Option<AppId>,
        source: Option<&str>,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
        trace: Option<TraceId>,
    ) -> Result<RetrieveResponse, ServeError> {
        let Some(rag) = &self.shared.config.retrieval else {
            return Err(ServeError::Internal("retrieval not enabled on this server"));
        };
        let metrics = &self.shared.metrics;
        metrics.retrieve_requests.inc();
        let t0 = Instant::now();
        let span_start = trace.and(self.shared.trace.as_ref()).map(|_| epoch_ns());
        let outcome = match (app, source) {
            (Some(app), _) => rag.retrieve(app, data, cluster, k),
            (None, Some(src)) => rag.retrieve_source(src, data, cluster, k),
            (None, None) => Err(RetrieveError("retrieve needs an app or source")),
        };
        let search_ns = t0.elapsed().as_nanos() as u64;
        let response = outcome.map(|neighbors| {
            let ranked = rag.rank(app, data, cluster, &neighbors, k.max(1));
            RetrieveResponse { ranked, index_len: rag.len(), search_ns, neighbors }
        });
        if let (Some(id), Some(start)) = (trace, span_start) {
            self.shared.trace_phase(id, Phase::Score, start, epoch_ns(), 0);
        }
        metrics.retrieve_latency.record(t0.elapsed().as_nanos() as u64);
        match response {
            Ok(resp) => {
                metrics.retrieve_neighbors.record(resp.neighbors.len() as u64);
                Ok(resp)
            }
            Err(RetrieveError(why)) => {
                metrics.retrieve_errors.inc();
                Err(ServeError::Internal(why))
            }
        }
    }

    /// Report an executed configuration's outcome (paper Step 4a). Returns
    /// the feedback-buffer size after extraction; reaching the configured
    /// batch wakes the background updater.
    pub fn observe(
        &self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        conf: &SparkConf,
        result: &RunResult,
    ) -> Result<usize, ServeError> {
        let (reply, outcome) = blocking_reply();
        self.observe_with(app, data, cluster, conf, Box::new(result.clone()), reply);
        outcome()
    }

    /// [`observe`](ServiceHandle::observe) with the outcome — admission
    /// rejections included — delivered through `reply` (the TCP
    /// front-end's shard-local path).
    pub(crate) fn observe_with(
        &self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        conf: &SparkConf,
        result: Box<RunResult>,
        reply: Reply<usize>,
    ) {
        let shard = self.shared.route_observe(app, data, cluster);
        let request = Request::Observe {
            app,
            data: *data,
            cluster: cluster.clone(),
            conf: conf.clone(),
            result,
            reply,
        };
        self.shared.enqueue(shard, request, self.shared.config.default_deadline);
    }

    /// Test support: occupy one worker for `dur`.
    pub fn stall(&self, dur: Duration) -> Result<(), ServeError> {
        let (reply, outcome) = blocking_reply();
        // Stalls get a generous deadline: they exist to hold workers busy.
        let deadline = dur + Duration::from_secs(60);
        self.shared.enqueue(self.shared.rr_shard(), Request::Stall { dur, reply }, deadline);
        outcome()
    }

    /// Current model version.
    pub fn version(&self) -> u64 {
        self.shared.slot.load().version
    }

    /// Current model snapshot. Always `Some`: the `Option` is what the
    /// benchmark's call site unwraps.
    pub fn snapshot(&self) -> Option<Arc<ModelSnapshot>> {
        Some(self.shared.slot.load())
    }

    /// The armed fault injector, if chaos hooks are enabled (the TCP
    /// front-end shares it for wire-level faults).
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.shared.config.faults.clone()
    }

    /// Whether the service is currently degraded (serving a pinned stale
    /// snapshot after an updater failure).
    pub fn degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Acquire)
    }

    /// Completed background hot-swaps.
    pub fn swap_count(&self) -> u64 {
        self.shared.swap_count.load(Ordering::Acquire)
    }

    /// Feedback instances waiting for the next update.
    pub fn feedback_len(&self) -> usize {
        self.shared.feedback.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Requests currently queued (summed across worker shards).
    pub fn queue_len(&self) -> usize {
        self.shared.queued.jobs.load(Ordering::Relaxed)
    }

    /// Lifetime response-cache hit rate in `[0, 1]`: the share of
    /// `recommend`s answered as repeats.
    pub fn cache_hit_rate(&self) -> f64 {
        self.shared.response_cache.hit_rate()
    }

    /// Lifetime response-cache (hits, misses) — the `serve.shard.resp_*`
    /// counters.
    pub fn cache_counts(&self) -> (u64, u64) {
        (self.shared.response_cache.hits(), self.shared.response_cache.misses())
    }

    /// Rolling prediction-drift statistics over recent observed feedback.
    pub fn drift(&self) -> DriftSummary {
        self.shared.monitor.summary()
    }

    /// A point-in-time operational summary (what the `stats` admin op
    /// serves).
    pub fn stats(&self) -> ServiceStats {
        let (cache_hits, cache_misses) = self.cache_counts();
        let cache_hit_rate = self.cache_hit_rate();
        self.shared.metrics.cache_hit_rate.set(cache_hit_rate);
        ServiceStats {
            uptime_s: self.shared.started.elapsed().as_secs_f64(),
            version: self.version(),
            swap_count: self.swap_count(),
            queue_depth: self.queue_len(),
            queue_capacity: self.shared.config.queue_capacity,
            workers: self.shared.config.workers,
            feedback_len: self.feedback_len(),
            update_batch: self.shared.config.update_batch,
            requests: self.shared.metrics.requests.value(),
            cache_hit_rate,
            cache_hits,
            cache_misses,
            drift: self.drift(),
            degraded: self.degraded(),
            updater_failures: self.shared.metrics.updater_failures.value(),
            fallbacks: self.shared.metrics.fallbacks.value(),
        }
    }

    /// Prometheus text exposition of the service's metrics registry (what
    /// the `metrics` admin op serves). Includes every metric registered in
    /// the registry the service was started with. With tracing enabled,
    /// each `serve.phase.*_ns` histogram is annotated with a `# trace_id`
    /// comment naming the captured exemplar whose span in that phase was
    /// slowest — the scrape-side link from a latency bucket back to a full
    /// slow-request trace.
    pub fn prometheus(&self) -> String {
        self.shared.metrics.cache_hit_rate.set(self.cache_hit_rate());
        let snapshot = self.shared.registry.snapshot();
        let Some(tr) = &self.shared.trace else {
            return lite_obs::prometheus_text(&snapshot);
        };
        // Slowest captured span per phase, as (metric, trace id, ns).
        let mut worst: [Option<(u64, u64)>; Phase::COUNT] = [None; Phase::COUNT];
        for ex in tr.sink.exemplars() {
            for span in &ex.spans {
                let slot = &mut worst[span.phase as usize];
                let d = span.duration_ns();
                if slot.is_none_or(|(_, best)| d > best) {
                    *slot = Some((span.trace_id, d));
                }
            }
        }
        let exemplars: Vec<lite_obs::PromExemplar> = Phase::ALL
            .iter()
            .filter_map(|p| worst[*p as usize].map(|(id, d)| (p.metric_name().to_string(), id, d)))
            .collect();
        lite_obs::prometheus_text_with_exemplars(&snapshot, &exemplars)
    }

    /// Finished spans rendered as Chrome trace-event JSON (what the
    /// `trace` admin op serves), bounded: when the rendered document would
    /// exceed `max_bytes`, the oldest spans are dropped until it fits (a
    /// long-lived service accumulates more spans than a single admin
    /// response frame can carry). Non-destructive: spans stay buffered in
    /// the tracer; empty when the service runs with a disabled tracer.
    /// Returns the trace and the number of spans dropped — shed here or
    /// already evicted from the tracer's ring. Children of a dropped
    /// parent are promoted to roots of their own track.
    pub fn trace_json_capped(&self, max_bytes: usize) -> (lite_obs::Json, usize) {
        // Clone only a bounded tail out of the tracer: a span's B/E event
        // pair never serializes under ~128 bytes, so anything past
        // `max_bytes / 128` spans cannot fit and copying it would only
        // burn time on records about to be thrown away.
        let max_spans = (max_bytes / 128).max(16);
        let (mut spans, mut dropped) = self.shared.tracer.finished_tail(max_spans);
        loop {
            let trace = lite_obs::chrome_trace(&spans);
            let rendered = trace.render().len();
            if rendered <= max_bytes || spans.is_empty() {
                return (trace, dropped);
            }
            // Keep the newest spans, scaled to the byte budget with 10%
            // slack; always drop at least one so the loop terminates.
            let keep = (spans.len() * max_bytes / rendered).saturating_sub(spans.len() / 10);
            let keep = keep.min(spans.len() - 1);
            dropped += spans.len() - keep;
            spans.drain(..spans.len() - keep);
        }
    }
}

/// Point-in-time operational summary of a running service.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Seconds since [`Service::start`].
    pub uptime_s: f64,
    /// Currently served model version.
    pub version: u64,
    /// Completed background hot-swaps.
    pub swap_count: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Bounded-queue capacity.
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Feedback instances waiting for the next update.
    pub feedback_len: usize,
    /// Feedback instances that trigger a batch-full update.
    pub update_batch: usize,
    /// Requests answered so far, by workers or from the response cache.
    pub requests: u64,
    /// Lifetime response-cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// `recommend`s answered as repeats from the response cache.
    pub cache_hits: u64,
    /// `recommend`s that missed it (stale-version entries included).
    pub cache_misses: u64,
    /// Rolling prediction-drift statistics.
    pub drift: DriftSummary,
    /// Whether the service is serving a pinned stale snapshot after an
    /// updater failure.
    pub degraded: bool,
    /// Background updates that failed (panic or failed swap).
    pub updater_failures: u64,
    /// Recommendations answered by the default-configuration fallback.
    pub fallbacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_dropped_uncalled_is_an_error_not_a_hang() {
        let (reply, outcome) = blocking_reply::<()>();
        drop(reply);
        assert_eq!(outcome(), Err(ServeError::Internal("worker dropped reply")));
    }
}
