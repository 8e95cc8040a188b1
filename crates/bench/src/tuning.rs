//! Shared tuner runners for Table VI and Figure 8.
//!
//! Each competitor tunes one application instance on the production
//! cluster. Methods that execute trial configurations (BO, DDPG, DDPG-C)
//! charge each trial's *simulated* execution time against their budget,
//! exactly how the paper accounts tuning overhead; LITE recommends from
//! the model in milliseconds.

use lite_bayesopt::{BoObservation, BoTuner};
use lite_core::experiment::Dataset;
use lite_core::recommend::LiteTuner;
use lite_ddpg::DdpgTuner;
use lite_metrics::ranking::EXECUTION_CAP_S;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, SparkConf, NUM_KNOBS};
use lite_sparksim::exec::simulate;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::DataSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The tuning budget for the trial-based competitors (the paper's "2h").
pub const TUNING_BUDGET_S: f64 = 7200.0;

/// Outcome of tuning one application with one method.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Best configuration's execution time (capped).
    pub time_s: f64,
    /// (overhead seconds, best-so-far) trajectory for trial-based methods;
    /// a single point for one-shot methods.
    pub trace: Vec<(f64, f64)>,
    /// Wall-clock seconds this tuner spent *deciding* (model inference;
    /// excludes simulated application time).
    pub decide_wall_s: f64,
}

/// Execute a configuration on the target workload (capped).
pub fn execute(
    cluster: &ClusterSpec,
    app: AppId,
    data: &DataSpec,
    conf: &SparkConf,
    seed: u64,
) -> f64 {
    simulate(cluster, conf, &build_job(app, data), seed).capped_time(EXECUTION_CAP_S)
}

/// One-shot method: evaluate a fixed configuration.
pub fn tune_fixed(
    cluster: &ClusterSpec,
    app: AppId,
    data: &DataSpec,
    conf: &SparkConf,
    seed: u64,
) -> TuneOutcome {
    let t = execute(cluster, app, data, conf, seed);
    TuneOutcome { time_s: t, trace: vec![(t, t)], decide_wall_s: 0.0 }
}

/// Rank `n` random configurations with a predictive model and execute the
/// argmin (the paper's "MLP" competitor protocol, also reused for any
/// `predict_app`-style model without ACG).
pub fn tune_by_model_ranking(
    predict: impl Fn(&SparkConf) -> f64,
    space: &ConfSpace,
    cluster: &ClusterSpec,
    app: AppId,
    data: &DataSpec,
    n: usize,
    seed: u64,
) -> TuneOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let wall = Instant::now();
    let confs: Vec<SparkConf> = (0..n).map(|_| space.sample(&mut rng)).collect();
    let score = |c: &SparkConf| -> f64 {
        if lite_sparksim::exec::preflight(cluster, c, data.bytes).is_err() {
            EXECUTION_CAP_S * 10.0
        } else {
            predict(c)
        }
    };
    let best = confs
        .iter()
        .min_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("non-empty candidates")
        .clone();
    let decide_wall_s = wall.elapsed().as_secs_f64();
    let t = execute(cluster, app, data, &best, seed ^ 0xeec);
    TuneOutcome { time_s: t, trace: vec![(t, t)], decide_wall_s }
}

/// LITE: ACG + NECS ranking, execute the top recommendation.
pub fn tune_lite(
    tuner: &LiteTuner,
    cluster: &ClusterSpec,
    app: AppId,
    data: &DataSpec,
    seed: u64,
) -> TuneOutcome {
    let wall = Instant::now();
    let ranked = tuner
        .recommend(app, data, cluster, seed)
        .expect("app in training set (use recommend_cold otherwise)");
    let decide_wall_s = wall.elapsed().as_secs_f64();
    let t = execute(cluster, app, data, &ranked[0].conf, seed ^ 0x117e);
    TuneOutcome { time_s: t, trace: vec![(t, t)], decide_wall_s }
}

/// BO(2h): GP + EI over the normalized cube, warm-started OtterTune-style
/// from the app's best training runs (their small-data times scaled by the
/// data-volume ratio serve as prior observations).
pub fn tune_bo(
    ds: &Dataset,
    cluster: &ClusterSpec,
    app: AppId,
    data: &DataSpec,
    seed: u64,
) -> TuneOutcome {
    // Five most similar training instances: same app, largest inputs,
    // fastest runs first.
    let mut candidates: Vec<&lite_core::experiment::AppRun> =
        ds.runs.iter().filter(|r| r.app == app).collect();
    candidates.sort_by(|a, b| {
        b.data.bytes.cmp(&a.data.bytes).then(ds.run_time(a).total_cmp(&ds.run_time(b)))
    });
    let warm: Vec<BoObservation> = candidates
        .iter()
        .take(5)
        .map(|r| {
            let scale = data.bytes as f64 / r.data.bytes.max(1) as f64;
            BoObservation {
                point: r.conf.normalized(&ds.space).to_vec(),
                time_s: (ds.run_time(r) * scale).min(EXECUTION_CAP_S),
            }
        })
        .collect();

    let wall = Instant::now();
    let tuner = BoTuner::new(NUM_KNOBS, seed);
    let space = ds.space.clone();
    let mut eval = 0u64;
    let (trace, _) = tuner.run(
        &warm,
        |p| {
            let mut u = [0.0; NUM_KNOBS];
            u.copy_from_slice(p);
            let conf = space.decode(&u);
            eval += 1;
            execute(cluster, app, data, &conf, seed ^ (eval << 20))
        },
        TUNING_BUDGET_S,
    );
    let decide_wall_s = wall.elapsed().as_secs_f64();
    let best = trace.last().map(|t| t.best_s).unwrap_or(EXECUTION_CAP_S);
    TuneOutcome {
        time_s: best,
        trace: trace.iter().map(|t| (t.overhead_s, t.best_s)).collect(),
        decide_wall_s,
    }
}

/// DDPG(2h) / DDPG-C(2h). `code_features` empty = plain DDPG (CDBTune
/// state: inner status); non-empty = DDPG-C (QTune: + code features).
pub fn tune_ddpg(
    space: &ConfSpace,
    cluster: &ClusterSpec,
    app: AppId,
    data: &DataSpec,
    code_features: &[f32],
    seed: u64,
) -> TuneOutcome {
    let plan = build_job(app, data);
    let make_state = |result: &lite_sparksim::result::RunResult| -> Vec<f32> {
        let mut s: Vec<f32> = result.inner_status().iter().map(|v| *v as f32).collect();
        s.extend_from_slice(code_features);
        s
    };
    let wall = Instant::now();
    // First trial: default configuration anchors the reward.
    let first = simulate(cluster, &space.default_conf(), &plan, seed ^ 0xd0);
    let t_default = first.capped_time(EXECUTION_CAP_S);
    let initial_state = make_state(&first);

    let mut tuner = DdpgTuner::new(initial_state.len(), NUM_KNOBS, seed);
    let mut eval = 0u64;
    let space2 = space.clone();
    let (trace, _) = tuner.run(
        initial_state,
        t_default,
        |action| {
            let mut u = [0.0; NUM_KNOBS];
            for (o, a) in u.iter_mut().zip(action.iter()) {
                *o = *a as f64;
            }
            let conf = space2.decode(&u);
            eval += 1;
            let result = simulate(cluster, &conf, &plan, seed ^ (eval << 18));
            (result.capped_time(EXECUTION_CAP_S), make_state(&result))
        },
        TUNING_BUDGET_S - t_default,
    );
    let decide_wall_s = wall.elapsed().as_secs_f64();
    let best = trace.last().map(|t| t.best_s.min(t_default)).unwrap_or(t_default);
    let mut full_trace = vec![(t_default, t_default)];
    full_trace.extend(trace.iter().map(|t| (t_default + t.overhead_s, t.best_s.min(t_default))));
    TuneOutcome { time_s: best, trace: full_trace, decide_wall_s }
}

/// App-level code features for DDPG-C: the operation histogram of the
/// application's plan, L1-normalized.
pub fn app_code_features(ds: &Dataset, app: AppId, data: &DataSpec) -> Vec<f32> {
    let w = ds.registry.op_onehot_width();
    let mut hist = vec![0.0f32; w];
    let plan = build_job(app, data);
    for stage in &plan.stages {
        if let Some(key) = ds.registry.key_of(app, &stage.name) {
            for &op in &ds.registry.get(key).dag_ops {
                hist[op] += 1.0;
            }
        }
    }
    let total: f32 = hist.iter().sum();
    if total > 0.0 {
        for h in &mut hist {
            *h /= total;
        }
    }
    hist
}
