//! # lite-bayesopt — Gaussian-process Bayesian optimization baseline
//!
//! The paper's `BO(2h)` competitor: Gaussian-process regression with a
//! squared-exponential ARD kernel as surrogate, Expected Improvement as
//! acquisition, and (following OtterTune) a warm start from the most
//! similar training instances. The tuner charges each evaluation's
//! *simulated* execution time to its budget, so the 2-hour tuning budgets
//! of Table VI and the overhead curves of Figure 8 are reproducible.

pub mod gp;
pub mod tuner;

pub use gp::{GaussianProcess, GpConfig};
pub use tuner::{BoObservation, BoTuner, TuneTrace};
