//! # lite-serve — the LITE tuner as a concurrent recommendation service
//!
//! The paper's Step 1–4 loop (Section IV) lifted from a one-shot script
//! into a server: recommendations are answered by a pool of worker threads
//! in milliseconds while feedback-driven model updates happen continuously
//! in the background. Four pieces:
//!
//! * [`slot`] — a versioned model registry: an immutable
//!   [`Arc<ModelSnapshot>`](snapshot::ModelSnapshot) behind
//!   [`slot::VersionedSlot`], whose steady-state read is one atomic load;
//!   a background updater thread drains observed feedback, runs the
//!   paper's Adaptive Model Update on a clone, and hot-swaps a new
//!   version without stalling readers.
//! * [`service`] — a worker pool over a bounded request queue with
//!   per-request deadlines and explicit load-shedding: a full queue
//!   rejects with [`service::ServeError::Overloaded`] instead of queuing
//!   unboundedly.
//! * [`cache`] — a sharded LRU of whole `recommend` responses keyed by
//!   `(app, data, cluster, k, seed)`, probed by every `recommend` on the
//!   submitting thread; entries carry the model version that produced
//!   them, so every hot-swap invalidates the cache for free.
//! * batched NECS scoring — requests score all their candidates through
//!   [`lite_core::necs::Necs::predict_app_batch`], one tape per request
//!   instead of one per candidate.
//! * [`monitor`] — prediction-drift monitoring: a lock-free ring of
//!   `(predicted, observed)` runtime pairs fed by `observe` feedback,
//!   summarized into rolling MAPE / signed error / rank-inversion rate.
//!   The updater retrains on *drift or batch-full*, whichever comes
//!   first, so a model that stops ranking well is replaced before the
//!   blind feedback count would have noticed.
//!
//! Requests arrive over an in-process [`service::ServiceHandle`] or the
//! length-prefixed TCP front-end in [`net`]: one reactor and one frame
//! handler over the typed [`proto::Request`]/[`proto::Response`] pair,
//! whose two codecs — the v2 JSON envelope (on [`lite_obs::Json`]) and
//! the v3 binary frames — live in [`proto`]. The handler also answers the
//! admin ops (`stats`, `metrics` as Prometheus text, `trace` as Chrome
//! trace JSON, `health`, `tailtrace` for slow-request exemplars), whose
//! documents [`admin`] renders; [`client`] is the matching blocking
//! client. Everything is `std`-only on top of the workspace crates (the
//! reactor's `poll(2)` is one `extern "C"` declaration).
//!
//! With [`service::TraceConfig`] enabled, every v2 `recommend` (and every
//! v3 one that sets `FLAG_TRACED`) is traced end to end: each hop it
//! crosses — frame read, parse, cache lookup, then for a miss enqueue,
//! queue wait, dequeue, snapshot load and scoring, then serialization and
//! socket write —
//! records a [`lite_obs::PhaseSpan`] into lock-free per-thread rings and a
//! per-phase latency histogram, and the slowest requests are retained in
//! full as [`lite_obs::Exemplar`]s served by the `tailtrace` admin op.

pub mod admin;
pub mod cache;
pub mod client;
pub mod monitor;
pub mod net;
pub mod proto;
pub mod resilience;
pub mod service;
pub mod slot;
pub mod snapshot;

pub use cache::PredictionCache;
pub use client::{Client, ClientBuilder};
pub use monitor::{DriftConfig, DriftMonitor, DriftSummary};
pub use net::{TcpServer, MAX_FRAME};
pub use proto::{
    AnalyzeTarget, ClusterRef, ErrorCode, Neighbor, OpCode, Request, Response, RetrieveTarget,
    PROTOCOL_V3, PROTOCOL_VERSION,
};
pub use resilience::{
    BreakerConfig, BreakerState, BreakerTransitions, CircuitBreaker, ClientError, ResilientClient,
    RetryPolicy,
};
pub use service::{
    ConfigError, ProtocolConfig, RecommendResponse, RetrieveResponse, ServeConfig, ServeError,
    Service, ServiceHandle, ServiceStats, TraceConfig,
};
pub use slot::{SlotReader, VersionedSlot};
pub use snapshot::ModelSnapshot;

/// Compile-time `Send + Sync` assertions: every type that crosses the
/// worker/updater/front-end thread boundaries must be safe to share. A
/// non-`Sync` field sneaking into the model stack fails the build here,
/// not in production.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<snapshot::ModelSnapshot>();
    assert_send_sync::<slot::VersionedSlot<snapshot::ModelSnapshot>>();
    assert_send_sync::<service::Service>();
    assert_send_sync::<service::ServiceHandle>();
    assert_send_sync::<cache::ResponseCache<service::RecommendResponse>>();
    assert_send_sync::<service::ServeError>();
    assert_send_sync::<monitor::DriftMonitor>();
    assert_send_sync::<monitor::DriftSummary>();
    assert_send_sync::<resilience::CircuitBreaker>();
    assert_send_sync::<resilience::ResilientClient>();
    assert_send_sync::<lite_sparksim::fault::FaultInjector>();
};
