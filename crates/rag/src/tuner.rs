//! [`RagTuner`]: retrieval-augmented configuration tuning.
//!
//! The zero-execution cold-start path: embed the target application
//! *statically* (no simulator run, no instrumentation run), retrieve the
//! top-k most similar historical runs from the [`RunStore`], **adapt**
//! each neighbor's configuration to the target data/cluster scale, and
//! rank the adapted candidates by scaled neighbor runtime.
//!
//! The adaptation rule is deliberately first-order (ratios, then clamped
//! into the knob domains by [`SparkConf::from_values`]):
//!
//! * `spark.default.parallelism` scales with the core ratio times the
//!   square root of the data ratio (more data wants more, but sublinearly
//!   more, partitions per core);
//! * `executor.instances` scales with the node ratio,
//!   `executor.cores` with the cores-per-node ratio,
//! * executor/driver memory with the per-node memory ratio;
//! * every remaining knob (compression flags, fractions, buffers) carries
//!   over unchanged — these encode workload shape, not scale.

use crate::embed::CodeEmbedder;
use crate::hnsw::HnswConfig;
use crate::store::{RunRecord, RunStore};
use lite_core::experiment::Dataset;
use lite_core::recommend::RankedCandidate;
use lite_metrics::ranking::EXECUTION_CAP_S;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, Knob, SparkConf};
use lite_workloads::{AppId, DataSpec};

/// Retrieval parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RagConfig {
    /// Index build/search parameters.
    pub hnsw: HnswConfig,
}

/// Why a retrieval could not answer; the reason is the message the wire
/// error carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrieveError(pub &'static str);

/// One retrieval hit after adaptation to the target scale.
#[derive(Debug, Clone)]
pub struct Retrieved {
    /// Application of the historical run.
    pub app: AppId,
    /// Embedding distance (squared L2) to the target.
    pub distance: f32,
    /// Historical failure-capped runtime in seconds.
    pub runtime_s: f64,
    /// The neighbor's conf adapted to the target data/cluster scale.
    pub conf: SparkConf,
    /// First-order runtime estimate of the adapted conf on the target.
    pub estimate_s: f64,
}

/// Retrieval-augmented tuner over a [`RunStore`].
pub struct RagTuner {
    store: RunStore,
    embedder: CodeEmbedder,
    space: ConfSpace,
}

impl std::fmt::Debug for RagTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RagTuner").field("records", &self.store.len()).finish()
    }
}

impl RagTuner {
    /// Pure-retrieval tuner over an existing store.
    pub fn new(store: RunStore, space: ConfSpace) -> RagTuner {
        RagTuner { store, embedder: CodeEmbedder::new(), space }
    }

    /// Build the store from a training dataset's run history.
    pub fn from_dataset(ds: &Dataset, cfg: RagConfig) -> RagTuner {
        let embedder = CodeEmbedder::new();
        let store = RunStore::from_dataset(ds, &embedder, cfg.hnsw);
        RagTuner { store, embedder, space: ds.space.clone() }
    }

    /// Borrow the run store.
    pub fn store(&self) -> &RunStore {
        &self.store
    }

    /// Number of indexed historical runs.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    fn retrieve_embedded(
        &self,
        q: &[f32],
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
    ) -> Result<Vec<Retrieved>, RetrieveError> {
        if self.store.is_empty() {
            return Err(RetrieveError("retrieval store is empty"));
        }
        let hits = self.store.search(q, k.max(1));
        if hits.is_empty() {
            return Err(RetrieveError("retrieval returned no neighbors"));
        }
        Ok(hits
            .into_iter()
            .map(|h| {
                let conf = adapt_conf(&self.space, h.record, data, cluster);
                Retrieved {
                    app: h.record.app,
                    distance: h.distance,
                    runtime_s: h.record.runtime_s,
                    estimate_s: scale_runtime(h.record, data, cluster),
                    conf,
                }
            })
            .collect())
    }

    /// Retrieve the top-k most similar historical runs for a known app,
    /// adapted to the target scale. Nearest first.
    pub fn retrieve(
        &self,
        app: AppId,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
    ) -> Result<Vec<Retrieved>, RetrieveError> {
        let q = self.embedder.embed(app, data, cluster);
        self.retrieve_embedded(&q, data, cluster, k)
    }

    /// Retrieve for raw application source the server has never seen.
    pub fn retrieve_source(
        &self,
        source: &str,
        data: &DataSpec,
        cluster: &ClusterSpec,
        k: usize,
    ) -> Result<Vec<Retrieved>, RetrieveError> {
        let q = self
            .embedder
            .embed_source(source, data, cluster)
            .map_err(|_| RetrieveError("source analysis failed"))?;
        self.retrieve_embedded(&q, data, cluster, k)
    }

    /// Rank retrieved candidates: dedup adapted confs (keeping the first,
    /// i.e. nearest, hit per distinct conf), then order by the first-order
    /// runtime estimate. The request identity is not consulted.
    pub fn rank(
        &self,
        _app: Option<AppId>,
        _data: &DataSpec,
        _cluster: &ClusterSpec,
        retrieved: &[Retrieved],
        k: usize,
    ) -> Vec<RankedCandidate> {
        let mut seen: Vec<[u64; lite_sparksim::conf::NUM_KNOBS]> = Vec::new();
        let mut ranked: Vec<RankedCandidate> = Vec::new();
        for r in retrieved {
            let bits = r.conf.values().map(f64::to_bits);
            if !seen.contains(&bits) {
                seen.push(bits);
                ranked.push(RankedCandidate { conf: r.conf.clone(), predicted_s: r.estimate_s });
            }
        }
        ranked.sort_by(|a, b| a.predicted_s.total_cmp(&b.predicted_s));
        ranked.truncate(k.max(1));
        ranked
    }
}

/// Adapt a neighbor's conf to the target data/cluster scale (see the
/// module docs for the rule). Out-of-domain results clamp via
/// [`SparkConf::from_values`].
pub fn adapt_conf(
    space: &ConfSpace,
    rec: &RunRecord,
    data: &DataSpec,
    cluster: &ClusterSpec,
) -> SparkConf {
    let mut v = *rec.conf.values();
    let core_ratio = cluster.total_cores() as f64 / rec.cluster.total_cores().max(1) as f64;
    let node_ratio = cluster.nodes as f64 / rec.cluster.nodes.max(1) as f64;
    let cores_ratio = cluster.cores_per_node as f64 / rec.cluster.cores_per_node.max(1) as f64;
    let mem_ratio = cluster.mem_gb_per_node / rec.cluster.mem_gb_per_node.max(1e-6);
    let data_ratio = data.bytes.max(1) as f64 / rec.data.bytes.max(1) as f64;

    let scale = |v: &mut f64, r: f64| *v *= r;
    scale(&mut v[Knob::DefaultParallelism.index()], core_ratio * data_ratio.sqrt());
    scale(&mut v[Knob::ExecutorInstances.index()], node_ratio);
    scale(&mut v[Knob::ExecutorCores.index()], cores_ratio);
    scale(&mut v[Knob::ExecutorMemoryGb.index()], mem_ratio);
    scale(&mut v[Knob::DriverMemoryGb.index()], mem_ratio);
    SparkConf::from_values(space, v)
}

/// First-order runtime estimate of a neighbor's conf on the target:
/// neighbor runtime scaled by data volume and iteration count, inversely
/// by total cores. Capped at [`EXECUTION_CAP_S`].
pub fn scale_runtime(rec: &RunRecord, data: &DataSpec, cluster: &ClusterSpec) -> f64 {
    let data_ratio = data.bytes.max(1) as f64 / rec.data.bytes.max(1) as f64;
    let iter_ratio = data.iterations.max(1) as f64 / rec.data.iterations.max(1) as f64;
    let core_ratio = cluster.total_cores().max(1) as f64 / rec.cluster.total_cores().max(1) as f64;
    (rec.runtime_s * data_ratio * iter_ratio / core_ratio).min(EXECUTION_CAP_S)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lite_workloads::SizeTier;

    fn record(app: AppId, tier: SizeTier, cluster: ClusterSpec, runtime_s: f64) -> RunRecord {
        let space = ConfSpace::table_iv();
        RunRecord { app, data: app.dataset(tier), cluster, conf: space.default_conf(), runtime_s }
    }

    fn small_tuner() -> RagTuner {
        let space = ConfSpace::table_iv();
        let embedder = CodeEmbedder::new();
        let mut store = RunStore::new(crate::embed::EMBED_DIM, HnswConfig::default());
        for app in [AppId::Sort, AppId::Terasort, AppId::KMeans, AppId::Svm, AppId::PageRank] {
            for tier in [SizeTier::Train(0), SizeTier::Train(2)] {
                let rec = record(app, tier, ClusterSpec::cluster_a(), 20.0);
                let v = embedder.embed(rec.app, &rec.data, &rec.cluster);
                store.push(&v, rec);
            }
        }
        RagTuner::new(store, space)
    }

    #[test]
    fn adaptation_scales_parallelism_with_cores_and_data() {
        let space = ConfSpace::table_iv();
        let rec = record(AppId::Sort, SizeTier::Train(0), ClusterSpec::cluster_a(), 10.0);
        let big = AppId::Sort.dataset(SizeTier::Test);
        let adapted = adapt_conf(&space, &rec, &big, &ClusterSpec::cluster_c());
        assert!(
            adapted.get(Knob::DefaultParallelism) > rec.conf.get(Knob::DefaultParallelism),
            "8x cores and 400x data must raise parallelism"
        );
        assert_eq!(
            adapted.get(Knob::ShuffleCompress),
            rec.conf.get(Knob::ShuffleCompress),
            "shape knobs carry over"
        );
    }

    #[test]
    fn retrieval_prefers_same_app_neighbors_and_ranks_distinct_confs() {
        let tuner = small_tuner();
        let data = AppId::KMeans.dataset(SizeTier::Valid);
        let cluster = ClusterSpec::cluster_a();
        let retrieved =
            tuner.retrieve(AppId::KMeans, &data, &cluster, 4).expect("non-empty store answers");
        assert_eq!(retrieved[0].app, AppId::KMeans, "nearest neighbor shares stage code");
        let ranked = tuner.rank(Some(AppId::KMeans), &data, &cluster, &retrieved, 3);
        assert!(!ranked.is_empty() && ranked.len() <= 3);
        assert!(ranked.windows(2).all(|w| w[0].predicted_s <= w[1].predicted_s));
        for (i, a) in ranked.iter().enumerate() {
            for b in &ranked[i + 1..] {
                assert_ne!(a.conf.values(), b.conf.values(), "ranked confs are distinct");
            }
        }
    }

    #[test]
    fn empty_store_is_unavailable() {
        let store = RunStore::new(crate::embed::EMBED_DIM, HnswConfig::default());
        let tuner = RagTuner::new(store, ConfSpace::table_iv());
        let data = AppId::Sort.dataset(SizeTier::Valid);
        assert_eq!(
            tuner.retrieve(AppId::Sort, &data, &ClusterSpec::cluster_a(), 1).unwrap_err(),
            RetrieveError("retrieval store is empty")
        );
    }
}
