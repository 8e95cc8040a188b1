//! Adaptive Candidate Generation (paper Section IV-A).
//!
//! For each knob `d`, a Random Forest Regression model maps the application
//! and input datasize (plus the environment, so one model serves all
//! clusters) to a promising "mean value" (Eq. 6). The search region is the
//! box `[RFR^d − σ^d, RFR^d + σ^d]` (Eq. 7), where `σ^d` is the standard
//! deviation of knob `d` over the top-40 % best-performing training
//! instances. Candidates are sampled uniformly inside the box.

use crate::experiment::Dataset;
use lite_forest::rf::{ForestConfig, RandomForestRegressor};
use lite_sparksim::conf::{ConfSpace, SparkConf, ALL_KNOBS, NUM_KNOBS};
use lite_workloads::apps::AppId;
use lite_workloads::data::{DataSpec, SizeTier};
use rand::Rng;

/// Fraction of best training runs used for the mean-value targets and σ.
const TOP_FRACTION: f64 = 0.4;

/// Fitted candidate generator. `Clone` so a serving snapshot can own an
/// immutable copy alongside the NECS model.
#[derive(Clone)]
pub struct AdaptiveCandidateGenerator {
    space: ConfSpace,
    /// One RFR per knob, over `[app one-hot | ln(bytes) | env (6)]`.
    models: Vec<RandomForestRegressor>,
    /// Per-knob span σ^d.
    sigmas: [f64; NUM_KNOBS],
}

fn rfr_features(app: AppId, data: &DataSpec, env: &[f64; 6]) -> Vec<f64> {
    let mut f = vec![0.0; AppId::all().len()];
    f[app.index()] = 1.0;
    f.push((1.0 + data.bytes as f64).ln());
    f.extend_from_slice(env);
    f
}

impl AdaptiveCandidateGenerator {
    /// The configuration space candidates are drawn from (the degradation
    /// path needs its template default when scoring is unavailable).
    pub fn space(&self) -> &ConfSpace {
        &self.space
    }

    /// Fit from a training dataset: within each (app, cluster, tier) cell,
    /// the `TOP_FRACTION` fastest runs supply (features → knob value)
    /// training pairs; σ^d is the global std of knob `d` over those top
    /// runs.
    pub fn fit(ds: &Dataset, seed: u64) -> AdaptiveCandidateGenerator {
        // Group runs by cell.
        use std::collections::HashMap;
        let mut cells: HashMap<(usize, usize, SizeTier), Vec<usize>> = HashMap::new();
        for (i, run) in ds.runs.iter().enumerate() {
            cells.entry((run.app.index(), run.cluster, run.tier)).or_default().push(i);
        }
        let mut top_runs: Vec<usize> = Vec::new();
        for (_, mut idx) in cells {
            idx.sort_by(|&a, &b| ds.run_time(&ds.runs[a]).total_cmp(&ds.run_time(&ds.runs[b])));
            let keep = ((idx.len() as f64 * TOP_FRACTION).ceil() as usize).max(1);
            top_runs.extend(idx.into_iter().take(keep));
        }
        top_runs.sort_unstable(); // deterministic order

        let x: Vec<Vec<f64>> = top_runs
            .iter()
            .map(|&i| {
                let run = &ds.runs[i];
                rfr_features(run.app, &run.data, &ds.clusters[run.cluster].env_features())
            })
            .collect();

        let mut models = Vec::with_capacity(NUM_KNOBS);
        let mut sigmas = [0.0f64; NUM_KNOBS];
        for (d, knob) in ALL_KNOBS.iter().enumerate() {
            let y: Vec<f64> = top_runs.iter().map(|&i| ds.runs[i].conf.get(*knob)).collect();
            let mean = y.iter().sum::<f64>() / y.len() as f64;
            sigmas[d] =
                (y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / y.len() as f64).sqrt();
            let cfg = ForestConfig { num_trees: 32, ..Default::default() };
            models.push(RandomForestRegressor::fit(&x, &y, &cfg, seed ^ (d as u64) << 8));
        }
        AdaptiveCandidateGenerator { space: ds.space.clone(), models, sigmas }
    }

    /// The plain-RFR point prediction (the Table VIIIa baseline): one knob
    /// vector straight from the per-knob forests, snapped into domains.
    pub fn point_prediction(&self, app: AppId, data: &DataSpec, env: &[f64; 6]) -> SparkConf {
        let f = rfr_features(app, data, env);
        let mut values = [0.0f64; NUM_KNOBS];
        for (d, m) in self.models.iter().enumerate() {
            values[d] = m.predict(&f);
        }
        SparkConf::from_values(&self.space, values)
    }

    /// The search region `S_w`: per-knob `[center − σ, center + σ]` in raw
    /// knob units (clamping happens at sampling time).
    pub fn region(
        &self,
        app: AppId,
        data: &DataSpec,
        env: &[f64; 6],
    ) -> ([f64; NUM_KNOBS], [f64; NUM_KNOBS]) {
        let f = rfr_features(app, data, env);
        let mut lo = [0.0f64; NUM_KNOBS];
        let mut hi = [0.0f64; NUM_KNOBS];
        for (d, m) in self.models.iter().enumerate() {
            let center = m.predict(&f);
            lo[d] = center - self.sigmas[d];
            hi[d] = center + self.sigmas[d];
        }
        (lo, hi)
    }

    /// Sample `n` candidate configurations inside the region (paper Step 2).
    pub fn candidates<R: Rng + ?Sized>(
        &self,
        app: AppId,
        data: &DataSpec,
        env: &[f64; 6],
        n: usize,
        rng: &mut R,
    ) -> Vec<SparkConf> {
        let (lo, hi) = self.region(app, data, env);
        (0..n).map(|_| self.space.sample_in_box(&lo, &hi, rng)).collect()
    }

    /// [`candidates`](Self::candidates) with a fresh seed-derived RNG, so
    /// a candidate set is a pure function of `(request, seed)` — callers
    /// that must replay a request deterministically (the serving path, the
    /// tuner) share this one construction.
    pub fn candidates_seeded(
        &self,
        app: AppId,
        data: &DataSpec,
        env: &[f64; 6],
        n: usize,
        seed: u64,
    ) -> Vec<SparkConf> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.candidates(app, data, env, n, &mut rng)
    }

    /// Per-knob spans (diagnostics / Table VIIIb).
    pub fn sigmas(&self) -> &[f64; NUM_KNOBS] {
        &self.sigmas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DatasetBuilder;
    use lite_sparksim::cluster::ClusterSpec;
    use lite_sparksim::conf::Knob;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        DatasetBuilder {
            apps: vec![AppId::Sort, AppId::KMeans],
            clusters: vec![ClusterSpec::cluster_a(), ClusterSpec::cluster_c()],
            tiers: vec![SizeTier::Train(0), SizeTier::Train(3)],
            confs_per_cell: 8,
            seed: 3,
        }
        .build()
    }

    #[test]
    fn candidates_are_valid_and_inside_region() {
        let ds = dataset();
        let acg = AdaptiveCandidateGenerator::fit(&ds, 7);
        let env = ClusterSpec::cluster_c().env_features();
        let data = AppId::KMeans.dataset(SizeTier::Test);
        let (lo, hi) = acg.region(AppId::KMeans, &data, &env);
        let mut rng = StdRng::seed_from_u64(1);
        for c in acg.candidates(AppId::KMeans, &data, &env, 50, &mut rng) {
            assert!(ds.space.is_valid(&c));
            for (d, knob) in ALL_KNOBS.iter().enumerate() {
                let v = c.get(*knob);
                let dom = ds.space.domain(*knob);
                // Within the (domain-clamped) box.
                let lo_c = dom.clamp(lo[d].min(hi[d]));
                let hi_c = dom.clamp(hi[d].max(lo[d]));
                assert!(
                    v >= lo_c - 1e-9 && v <= hi_c + 1e-9,
                    "{knob}: {v} outside [{lo_c},{hi_c}]"
                );
            }
        }
    }

    #[test]
    fn region_shrinks_the_search_space() {
        let ds = dataset();
        let acg = AdaptiveCandidateGenerator::fit(&ds, 7);
        let env = ClusterSpec::cluster_c().env_features();
        let data = AppId::Sort.dataset(SizeTier::Test);
        let (lo, hi) = acg.region(AppId::Sort, &data, &env);
        // The parallelism knob's domain spans 8..512; the ACG box must be
        // strictly narrower than the full domain.
        let d = Knob::DefaultParallelism.index();
        assert!(hi[d] - lo[d] < (512.0 - 8.0) * 0.9, "span {} too wide", hi[d] - lo[d]);
    }

    #[test]
    fn point_prediction_is_a_valid_conf() {
        let ds = dataset();
        let acg = AdaptiveCandidateGenerator::fit(&ds, 7);
        let env = ClusterSpec::cluster_a().env_features();
        let data = AppId::Sort.dataset(SizeTier::Valid);
        let conf = acg.point_prediction(AppId::Sort, &data, &env);
        assert!(ds.space.is_valid(&conf));
    }

    #[test]
    fn fit_is_deterministic() {
        let ds = dataset();
        let a = AdaptiveCandidateGenerator::fit(&ds, 9);
        let b = AdaptiveCandidateGenerator::fit(&ds, 9);
        let env = ClusterSpec::cluster_a().env_features();
        let data = AppId::KMeans.dataset(SizeTier::Valid);
        assert_eq!(
            a.point_prediction(AppId::KMeans, &data, &env),
            b.point_prediction(AppId::KMeans, &data, &env)
        );
        assert_eq!(a.sigmas(), b.sigmas());
    }
}
