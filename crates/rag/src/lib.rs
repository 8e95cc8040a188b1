//! LITE-RAG: retrieval-augmented configuration tuning.
//!
//! The serving plane's cold-start answer without executing anything: a
//! zero-dependency HNSW index ([`hnsw`]) over static stage-code embeddings
//! ([`embed`]), a [`store::RunStore`] pairing each indexed point with its
//! historical (app, data, cluster, conf, runtime) record, and a
//! [`tuner::RagTuner`] that retrieves the top-k most similar runs, adapts
//! their configurations to the target scale and ranks them by scaled
//! neighbor runtime. [`vecs`] holds the flat vector storage and the
//! brute-force oracle the recall gates compare against.
//!
//! Everything ranks through `total_cmp`: NaN or infinite embedding
//! components degrade ordering quality, never determinism, and never
//! panic.

pub mod embed;
pub mod hnsw;
pub mod store;
pub mod tuner;
pub mod vecs;

pub use embed::{CodeEmbedder, EMBED_DIM};
pub use hnsw::{DecodeError, Hnsw, HnswConfig};
pub use store::{record_from_json, record_to_json, Hit, RunRecord, RunStore};
pub use tuner::{adapt_conf, scale_runtime, RagConfig, RagTuner, RetrieveError, Retrieved};
pub use vecs::{exact_knn, l2_sq, Neighbor, VecSet};
