//! Budgeted DDPG tuning loop (the paper's DDPG(2h) / DDPG-C(2h)).

use crate::agent::{DdpgAgent, DdpgConfig};

/// One step of a tuning trajectory (same shape as the BO trace so Figure 8
/// can overlay them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneTrace {
    /// Cumulative tuning overhead in executed-application seconds.
    pub overhead_s: f64,
    /// Execution time of the trial configuration.
    pub time_s: f64,
    /// Best execution time so far.
    pub best_s: f64,
}

/// A budgeted DDPG tuner.
///
/// The environment contract mirrors CDBTune: each trial executes the
/// application under the proposed configuration, observes the engine's
/// inner status as the next state, and receives a reward that increases as
/// execution time drops below the first (default-configuration) trial.
/// DDPG-C is obtained by appending code features to every state vector
/// (QTune's workload-aware state) — the tuner itself is agnostic.
pub struct DdpgTuner {
    agent: DdpgAgent,
    /// Gradient updates per environment step.
    pub updates_per_step: usize,
}

impl DdpgTuner {
    /// New tuner; `state_dim` must match what the environment emits,
    /// `action_dim` is the knob count.
    pub fn new(state_dim: usize, action_dim: usize, seed: u64) -> DdpgTuner {
        DdpgTuner {
            agent: DdpgAgent::new(DdpgConfig::new(state_dim, action_dim), seed),
            updates_per_step: 4,
        }
    }

    /// Run tuning until `budget_s` seconds of executed application time
    /// are spent.
    ///
    /// `step` maps a normalized action to `(execution time, next state)`;
    /// `initial_state` is the state observed under the default
    /// configuration (whose execution time `t_default` anchors rewards).
    pub fn run(
        &mut self,
        initial_state: Vec<f32>,
        t_default: f64,
        mut step: impl FnMut(&[f32]) -> (f64, Vec<f32>),
        budget_s: f64,
    ) -> (Vec<TuneTrace>, Vec<f32>) {
        let mut state = initial_state;
        let mut overhead = 0.0;
        let mut best = f64::INFINITY;
        let mut best_action = vec![0.5; self.agent.config.action_dim];
        let mut trace = Vec::new();
        loop {
            let action = self.agent.act_noisy(&state);
            let (t, next_state) = step(&action);
            overhead += t;
            if t < best {
                best = t;
                best_action = action.clone();
            }
            // CDBTune-style reward: relative improvement over default,
            // clipped so failure caps don't explode the critic.
            let reward = (((t_default - t) / t_default).clamp(-2.0, 1.0)) as f32;
            self.agent.remember(&state, &action, reward, &next_state, false);
            for _ in 0..self.updates_per_step {
                self.agent.train_step();
            }
            state = next_state;
            trace.push(TuneTrace { overhead_s: overhead, time_s: t, best_s: best });
            if overhead >= budget_s {
                break;
            }
        }
        (trace, best_action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy environment: time = 20 + 300*dist(action, optimum); state echoes
    /// the last action.
    fn env(action: &[f32]) -> (f64, Vec<f32>) {
        let opt = [0.8f32, 0.2];
        let d: f32 = action.iter().zip(opt.iter()).map(|(a, o)| (a - o) * (a - o)).sum();
        (20.0 + 300.0 * d as f64, action.to_vec())
    }

    #[test]
    fn tuner_explores_within_budget() {
        let mut tuner = DdpgTuner::new(2, 2, 11);
        let (trace, best) = tuner.run(vec![0.5, 0.5], 100.0, env, 3000.0);
        assert!(!trace.is_empty());
        assert!(trace.last().unwrap().overhead_s >= 3000.0);
        assert_eq!(best.len(), 2);
        for w in trace.windows(2) {
            assert!(w[1].best_s <= w[0].best_s);
        }
    }

    #[test]
    fn tuner_improves_over_first_trial() {
        let mut tuner = DdpgTuner::new(2, 2, 13);
        let (trace, _) = tuner.run(vec![0.5, 0.5], 100.0, env, 8000.0);
        let first = trace.first().unwrap().time_s;
        let best = trace.last().unwrap().best_s;
        assert!(best <= first, "no improvement: first {first}, best {best}");
    }
}
