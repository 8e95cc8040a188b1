//! # lite-sparksim — a discrete-event Spark execution simulator
//!
//! This crate is the execution substrate for the LITE reproduction. The
//! original paper runs spark-bench applications on three real clusters; this
//! crate replaces those clusters with a deterministic, seedable simulator
//! that preserves the properties LITE's learning problem depends on:
//!
//! * **Knob sensitivity** — the sixteen configuration knobs of Table IV all
//!   influence simulated execution time through a physically motivated cost
//!   model (task waves, shuffle transfers, unified-memory spills, GC
//!   pressure, driver bottlenecks, OOM failures).
//! * **Code dependence** — the *operator mix* of each stage determines which
//!   knobs matter (shuffle-heavy stages respond to `reducer.maxSizeInFlight`
//!   and compression, cache-heavy iterative stages to
//!   `memory.storageFraction`, CPU-heavy ML stages to `executor.cores`),
//!   reproducing challenge C1 of the paper.
//! * **Data scaling** — costs scale with input volume, so models trained on
//!   small inputs face the same extrapolation problem as the paper's
//!   small-to-large migration.
//!
//! The entry point is [`exec::simulate`], which takes a [`cluster::ClusterSpec`],
//! a [`conf::SparkConf`] and a [`plan::JobPlan`] and returns a
//! [`result::RunResult`] with per-stage timings and Spark-monitor-style
//! statistics.
//!
//! ```
//! use lite_sparksim::cluster::ClusterSpec;
//! use lite_sparksim::conf::ConfSpace;
//! use lite_sparksim::plan::JobPlan;
//! use lite_sparksim::exec::simulate;
//!
//! let cluster = ClusterSpec::cluster_a();
//! let conf = ConfSpace::table_iv().default_conf();
//! let plan = JobPlan::example_shuffle_job(64 << 20);
//! let result = simulate(&cluster, &conf, &plan, 42);
//! assert!(result.total_time_s > 0.0);
//! ```

pub mod cluster;
pub mod conf;
pub mod eventlog;
pub mod exec;
pub mod fault;
pub mod plan;
pub mod result;

pub use cluster::ClusterSpec;
pub use conf::{ConfSpace, Knob, KnobDomain, SparkConf};
pub use exec::simulate;
pub use fault::{FaultInjector, FaultKind};
pub use plan::{JobPlan, OpDag, OpKind, StagePlan};
pub use result::{FailureReason, RunResult, StageStats};
