//! # lite-ddpg — reinforcement-learning tuning baselines
//!
//! The paper's `DDPG(2h)` competitor follows CDBTune: Deep Deterministic
//! Policy Gradient where the action space is the (normalized)
//! configuration vector and the state is the engine's inner status
//! summary. `DDPG-C(2h)` follows QTune and additionally feeds code
//! features into the networks.
//!
//! Both tuners charge each trial's simulated execution time against their
//! tuning budget, reproducing how Table VI and Figure 8 account overhead.

pub mod agent;
pub mod tuner;

pub use agent::{DdpgAgent, DdpgConfig};
pub use tuner::{DdpgTuner, TuneTrace};
