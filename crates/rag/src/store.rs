//! Historical run storage: the HNSW index plus the per-point payload.
//!
//! A [`RunStore`] pairs each indexed embedding with the
//! (app, data, cluster, conf, runtime) record it came from. Records ingest
//! from a trained [`Dataset`](lite_core::experiment::Dataset) (the same
//! history the NECS model trains on) or from JSON-lines manifests — one
//! object per line, the SLOG/report idiom — so a serving process can
//! rebuild its retrieval plane from committed artifacts.

use crate::embed::CodeEmbedder;
use crate::hnsw::{Hnsw, HnswConfig};
use crate::vecs::Neighbor as IndexNeighbor;
use lite_core::experiment::Dataset;
use lite_obs::Json;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, SparkConf, NUM_KNOBS};
use lite_workloads::{AppId, DataSpec};

/// One historical run: the payload behind one indexed embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Application that ran.
    pub app: AppId,
    /// Input data it ran on.
    pub data: DataSpec,
    /// Cluster it ran on.
    pub cluster: ClusterSpec,
    /// Configuration it ran under.
    pub conf: SparkConf,
    /// Failure-capped wall-clock seconds.
    pub runtime_s: f64,
}

/// One retrieval hit: index distance plus the stored record.
#[derive(Debug, Clone, Copy)]
pub struct Hit<'a> {
    /// Point id in the index.
    pub id: u32,
    /// Squared L2 distance from the query embedding.
    pub distance: f32,
    /// The historical run.
    pub record: &'a RunRecord,
}

/// HNSW index + aligned record payloads.
#[derive(Clone)]
pub struct RunStore {
    index: Hnsw,
    records: Vec<RunRecord>,
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("records", &self.records.len())
            .field("dim", &self.index.dim())
            .finish()
    }
}

impl RunStore {
    /// Empty store over `dim`-dimensional embeddings.
    pub fn new(dim: usize, cfg: HnswConfig) -> RunStore {
        RunStore { index: Hnsw::new(dim, cfg), records: Vec::new() }
    }

    /// Ingest every run of a training dataset, embedding with `embedder`.
    pub fn from_dataset(ds: &Dataset, embedder: &CodeEmbedder, cfg: HnswConfig) -> RunStore {
        let mut store = RunStore::new(crate::embed::EMBED_DIM, cfg);
        for run in &ds.runs {
            let cluster = &ds.clusters[run.cluster];
            let embedding = embedder.embed(run.app, &run.data, cluster);
            store.push(
                &embedding,
                RunRecord {
                    app: run.app,
                    data: run.data,
                    cluster: cluster.clone(),
                    conf: run.conf.clone(),
                    runtime_s: ds.run_time(run),
                },
            );
        }
        store
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no runs.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Borrow the underlying index (serialization, diagnostics).
    pub fn index(&self) -> &Hnsw {
        &self.index
    }

    /// Borrow the stored records.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Insert one embedded run.
    pub fn push(&mut self, embedding: &[f32], record: RunRecord) -> u32 {
        let id = self.index.insert(embedding);
        self.records.push(record);
        id
    }

    /// Top-k retrieval, nearest first.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit<'_>> {
        self.index.search(query, k).into_iter().map(|n| self.hit(n)).collect()
    }

    fn hit(&self, n: IndexNeighbor) -> Hit<'_> {
        Hit { id: n.id, distance: n.dist, record: &self.records[n.id as usize] }
    }

    /// Serialize all records as JSON lines (one object per line).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(&record_to_json(rec).render());
            out.push('\n');
        }
        out
    }

    /// Ingest a JSON-lines manifest, embedding each parsed record. Blank
    /// and unparsable lines are skipped; returns how many records landed.
    pub fn ingest_jsonl(
        &mut self,
        space: &ConfSpace,
        embedder: &CodeEmbedder,
        text: &str,
    ) -> usize {
        let mut ingested = 0;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(doc) = Json::parse(line) else { continue };
            let Some(rec) = record_from_json(space, &doc) else { continue };
            let embedding = embedder.embed(rec.app, &rec.data, &rec.cluster);
            self.push(&embedding, rec);
            ingested += 1;
        }
        ingested
    }
}

/// Encode one record as a JSON object (inverse of [`record_from_json`]).
pub fn record_to_json(rec: &RunRecord) -> Json {
    Json::obj(vec![
        ("app", Json::Str(rec.app.name().to_string())),
        (
            "data",
            Json::obj(vec![
                ("rows", Json::UInt(rec.data.rows)),
                ("cols", Json::UInt(rec.data.cols as u64)),
                ("iterations", Json::UInt(rec.data.iterations as u64)),
                ("partitions", Json::UInt(rec.data.partitions as u64)),
                ("bytes", Json::UInt(rec.data.bytes)),
            ]),
        ),
        (
            "cluster",
            Json::obj(vec![
                ("name", Json::Str(rec.cluster.name.clone())),
                ("nodes", Json::UInt(rec.cluster.nodes as u64)),
                ("cores_per_node", Json::UInt(rec.cluster.cores_per_node as u64)),
                ("cpu_ghz", Json::Num(rec.cluster.cpu_ghz)),
                ("mem_gb_per_node", Json::Num(rec.cluster.mem_gb_per_node)),
                ("mem_mts", Json::Num(rec.cluster.mem_mts)),
                ("net_gbps", Json::Num(rec.cluster.net_gbps)),
            ]),
        ),
        ("conf", Json::Arr(rec.conf.values().iter().map(|&v| Json::Num(v)).collect())),
        ("runtime_s", Json::Num(rec.runtime_s)),
    ])
}

/// Decode one record; `None` on any missing or malformed field.
pub fn record_from_json(space: &ConfSpace, doc: &Json) -> Option<RunRecord> {
    let app_name = doc.get("app")?.as_str()?;
    let app = AppId::all().iter().copied().find(|a| a.name().eq_ignore_ascii_case(app_name))?;
    let d = doc.get("data")?;
    let data = DataSpec {
        rows: d.get("rows")?.as_u64()?,
        cols: d.get("cols")?.as_u64()? as u32,
        iterations: d.get("iterations")?.as_u64()? as u32,
        partitions: d.get("partitions")?.as_u64()? as u32,
        bytes: d.get("bytes")?.as_u64()?,
    };
    let c = doc.get("cluster")?;
    let cluster = ClusterSpec {
        name: c.get("name")?.as_str()?.to_string(),
        nodes: c.get("nodes")?.as_u64()? as u32,
        cores_per_node: c.get("cores_per_node")?.as_u64()? as u32,
        cpu_ghz: c.get("cpu_ghz")?.as_f64()?,
        mem_gb_per_node: c.get("mem_gb_per_node")?.as_f64()?,
        mem_mts: c.get("mem_mts")?.as_f64()?,
        net_gbps: c.get("net_gbps")?.as_f64()?,
    };
    let conf_arr = doc.get("conf")?.as_arr()?;
    if conf_arr.len() != NUM_KNOBS {
        return None;
    }
    let mut values = [0.0f64; NUM_KNOBS];
    for (i, v) in conf_arr.iter().enumerate() {
        values[i] = v.as_f64()?;
    }
    Some(RunRecord {
        app,
        data,
        cluster,
        conf: SparkConf::from_values(space, values),
        runtime_s: doc.get("runtime_s")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lite_workloads::SizeTier;

    fn sample_record(app: AppId, tier: SizeTier, runtime_s: f64) -> RunRecord {
        let space = ConfSpace::table_iv();
        RunRecord {
            app,
            data: app.dataset(tier),
            cluster: ClusterSpec::cluster_b(),
            conf: space.default_conf(),
            runtime_s,
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let embedder = CodeEmbedder::new();
        let space = ConfSpace::table_iv();
        let mut store = RunStore::new(crate::embed::EMBED_DIM, HnswConfig::default());
        for (i, app) in [AppId::Sort, AppId::KMeans, AppId::PageRank].into_iter().enumerate() {
            let rec = sample_record(app, SizeTier::Train(0), 10.0 + i as f64);
            let v = embedder.embed(rec.app, &rec.data, &rec.cluster);
            store.push(&v, rec);
        }
        let text = store.export_jsonl();
        let mut back = RunStore::new(crate::embed::EMBED_DIM, HnswConfig::default());
        let n = back.ingest_jsonl(&space, &embedder, &text);
        assert_eq!(n, 3);
        assert_eq!(back.records(), store.records());
        // Same ingestion order + same build seed -> identical index bytes.
        assert_eq!(back.index().to_bytes(), store.index().to_bytes());
    }

    #[test]
    fn ingest_skips_garbage_lines() {
        let embedder = CodeEmbedder::new();
        let space = ConfSpace::table_iv();
        let mut store = RunStore::new(crate::embed::EMBED_DIM, HnswConfig::default());
        let good = record_to_json(&sample_record(AppId::Sort, SizeTier::Valid, 4.0)).render();
        let text = format!("not json\n{{\"app\":\"nope\"}}\n\n{good}\n");
        assert_eq!(store.ingest_jsonl(&space, &embedder, &text), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn search_returns_nearest_record() {
        let embedder = CodeEmbedder::new();
        let mut store = RunStore::new(crate::embed::EMBED_DIM, HnswConfig::default());
        for app in [AppId::Sort, AppId::Terasort, AppId::KMeans, AppId::Svm] {
            let rec = sample_record(app, SizeTier::Train(1), 5.0);
            let v = embedder.embed(rec.app, &rec.data, &rec.cluster);
            store.push(&v, rec);
        }
        let target = sample_record(AppId::KMeans, SizeTier::Train(1), 0.0);
        let q = embedder.embed(target.app, &target.data, &target.cluster);
        let hits = store.search(&q, 2);
        assert_eq!(hits[0].record.app, AppId::KMeans);
        assert!(hits[0].distance <= hits[1].distance);
    }
}
