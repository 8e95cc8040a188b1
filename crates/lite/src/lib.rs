//! # lite-core — LITE: a lightweight knob recommender for Spark
//!
//! The paper's contribution, reproduced end to end:
//!
//! * [`features`] — Stage-based Code Organization: stage-level training
//!   instances `⟨o, C, G, d, e, y⟩` with token-encoded codes (N = 1000 cap,
//!   `<oov>`/`<pad>`) and one-hot DAG nodes with an oov operation
//!   (Section III-B/C).
//! * [`necs`] — the NECS estimator: CNN code encoder (Eq. 1), GCN scheduler
//!   encoder (Eq. 2), tower-MLP predictor (Eq. 3), MSE training (Eq. 4).
//! * [`baselines`] — the Table VII model grid: {LightGBM-style GBDT, MLP} ×
//!   {W, S, WC, SC, SCG} features plus LSTM+MLP, Transformer+MLP and
//!   GCN+MLP neural ablations.
//! * [`acg`] — Adaptive Candidate Generation: per-knob random-forest mean
//!   value models and σ-span search boxes (Eq. 6–7).
//! * [`amu`] — Adaptive Model Update: adversarial fine-tuning with a domain
//!   discriminator on the MLP's concatenated hidden states (Eq. 8).
//! * [`recommend`] — the online loop (Steps 1–4 of Section IV): feature
//!   collection (warm and cold start), candidate generation, per-stage
//!   aggregation and argmin ranking (Eq. 5), feedback collection.
//! * [`experiment`] — dataset builders on the simulator (Table V ladders),
//!   gold-ranking oracles, and the shared harness used by every bench
//!   binary.

pub mod acg;
pub mod amu;
pub mod baselines;
pub mod experiment;
pub mod features;
pub mod necs;
pub mod recommend;

pub use acg::AdaptiveCandidateGenerator;
pub use experiment::{Dataset, DatasetBuilder};
pub use features::{StageInstance, TemplateKey, TemplateRegistry};
pub use necs::{Necs, NecsConfig};
pub use recommend::LiteTuner;
