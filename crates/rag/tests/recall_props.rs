//! Property tests: HNSW recall against the brute-force oracle, and
//! bit-identical serialize → deserialize → search behavior. Then a soak of
//! seeded hostile rewrites of an `LRAG` index file and a `RunStore` JSONL
//! manifest: each decodes or is refused, without a panic and without
//! reserving more than a small multiple of the bytes it was given.
//!
//! Corpora are generated from a single `u64` seed through splitmix64 (the
//! offline proptest stub has no float-vector strategies, and a seed keeps
//! failure reproduction a one-number affair anyway).

use lite_obs::prof::{alloc_stats_named, TagAlloc};
use lite_obs::Profiler;
use lite_rag::{exact_knn, CodeEmbedder, Hnsw, HnswConfig, RunRecord, RunStore, EMBED_DIM};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::ConfSpace;
use lite_sparksim::fault::mutate_bytes;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;
use proptest::prelude::*;

/// Attributes every allocation to the allocating thread's current tag, so
/// the soak below can price one decode on its own thread.
#[global_allocator]
static ALLOC: TagAlloc<std::alloc::System> = TagAlloc::new(std::alloc::System);

fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in [-1, 1).
fn unit(state: &mut u64) -> f32 {
    ((splitmix64(state) >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
}

fn random_vec(state: &mut u64, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| unit(state)).collect()
}

/// Mildly clustered corpus: half the points huddle around a handful of
/// centers (the regime heuristic pruning exists for), half are uniform.
fn corpus(seed: u64, n: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut state = seed;
    let centers: Vec<Vec<f32>> = (0..4).map(|_| random_vec(&mut state, dim)).collect();
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                random_vec(&mut state, dim)
            } else {
                let c = &centers[(splitmix64(&mut state) % 4) as usize];
                c.iter().map(|&x| x + 0.1 * unit(&mut state)).collect()
            }
        })
        .collect()
}

fn build(points: &[Vec<f32>], dim: usize, seed: u64) -> Hnsw {
    let cfg = HnswConfig { seed, ..HnswConfig::default() };
    let mut h = Hnsw::new(dim, cfg);
    for p in points {
        h.insert(p);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Average recall@k over random queries meets the bench gate (0.95)
    /// even on these adversarially small, clustered corpora.
    #[test]
    fn recall_at_k_meets_gate(seed in any::<u64>(), n in 150usize..500, dim in 6usize..14, k in 1usize..10) {
        let points = corpus(seed, n, dim);
        let h = build(&points, dim, seed ^ 0xabcd);
        let mut state = seed ^ 0x5151;
        let queries = 16;
        let mut hit = 0usize;
        for _ in 0..queries {
            let q = random_vec(&mut state, dim);
            let approx = h.search(&q, k);
            let exact = exact_knn(h.vectors(), &q, k);
            let exact_ids: Vec<u32> = exact.iter().map(|e| e.id).collect();
            hit += approx.iter().filter(|a| exact_ids.contains(&a.id)).count();
        }
        let recall = hit as f64 / (queries * k) as f64;
        prop_assert!(recall >= 0.95, "recall@{k} = {recall:.3} on n={n} dim={dim}");
    }

    /// serialize → deserialize → search is bit-identical, and
    /// re-serialization reproduces the exact byte stream.
    #[test]
    fn roundtrip_search_is_bit_identical(seed in any::<u64>(), n in 50usize..300, dim in 4usize..12) {
        let points = corpus(seed, n, dim);
        let h = build(&points, dim, seed);
        let bytes = h.to_bytes();
        let back = Hnsw::from_bytes(&bytes).expect("own bytes decode");
        prop_assert_eq!(bytes, back.to_bytes());
        let mut state = seed ^ 0x77;
        for k in [1usize, 5, 17] {
            let q = random_vec(&mut state, dim);
            prop_assert_eq!(h.search(&q, k), back.search(&q, k));
        }
    }

    /// Incremental inserts after a roundtrip continue deterministically:
    /// the level-sampling stream state survives serialization.
    #[test]
    fn rng_state_survives_roundtrip(seed in any::<u64>(), n in 20usize..120) {
        let dim = 8;
        let points = corpus(seed, n, dim);
        let mut a = build(&points, dim, seed);
        let mut b = Hnsw::from_bytes(&a.to_bytes()).expect("own bytes decode");
        let mut state = seed ^ 0x99;
        for _ in 0..10 {
            let p = random_vec(&mut state, dim);
            a.insert(&p);
            b.insert(&p);
        }
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
    }
}

#[test]
fn hostile_index_files_and_manifests_are_refused_within_their_size() {
    let prof = Profiler::new(std::time::Duration::from_secs(3600));
    // Bytes this thread allocates inside `f`, which must stay within a small
    // multiple of the `len` input bytes `f` was handed.
    let bounded = |len: usize, seed: u64, f: &mut dyn FnMut()| {
        let _tag = prof.enter("soak.decode");
        let before = alloc_stats_named("soak.decode").0;
        f();
        let spent = alloc_stats_named("soak.decode").0 - before;
        assert!(spent <= 64 * len as u64 + (64 << 10), "seed {seed}: {spent} bytes for {len}");
    };

    // A flat graph, then a tall one: m = 2 puts half the points on upper
    // layers, so the rewrites reach the layered links too. Each found a
    // defect `from_bytes` now refuses: seed 692 reserved 2 MB for a count
    // the 20 KB input could not back, 812 decoded an entry point below the
    // top layer, 1832 a link to a point below the link's layer.
    let flat = build(&corpus(11, 120, 8), 8, 11).to_bytes();
    let mut tall = Hnsw::new(8, HnswConfig { m: 2, m0: 4, seed: 11, ..HnswConfig::default() });
    for p in corpus(11, 120, 8) {
        tall.insert(&p);
    }
    let bases = [flat, tall.to_bytes()];
    let query = [0.25f32; 8];
    for seed in 0..2_000u64 {
        let tall_half = (seed / 1_000) as usize;
        let hostile = mutate_bytes(seed, &bases[tall_half], &bases[1 - tall_half]);
        bounded(hostile.len(), seed, &mut || {
            // An index that decodes must also be safe to walk.
            if let Ok(h) = Hnsw::from_bytes(&hostile) {
                h.search(&query[..h.dim().min(8)], 5);
            }
        });
    }

    let space = ConfSpace::table_iv();
    let embedder = CodeEmbedder::new();
    let mut store = RunStore::new(EMBED_DIM, HnswConfig::default());
    for app in AppId::all() {
        let (data, cluster) = (app.dataset(SizeTier::Valid), ClusterSpec::cluster_a());
        let record = RunRecord { app, data, cluster, conf: space.default_conf(), runtime_s: 10.0 };
        store.push(&embedder.embed(app, &record.data, &record.cluster), record);
    }
    let manifest = store.export_jsonl().into_bytes();
    for seed in 0..300u64 {
        let hostile = mutate_bytes(seed, &manifest, &bases[0]);
        let text = String::from_utf8_lossy(&hostile);
        bounded(hostile.len(), seed, &mut || {
            let mut back = RunStore::new(EMBED_DIM, HnswConfig::default());
            assert!(back.ingest_jsonl(&space, &embedder, &text) <= store.len());
        });
    }
    // The mutator never nests: a line of 100,000 `[` is skipped like any
    // other unparsable line, and the records after it still land.
    let deep = format!("{}\n{}", "[".repeat(100_000), String::from_utf8_lossy(&manifest));
    bounded(deep.len(), 0, &mut || {
        let mut back = RunStore::new(EMBED_DIM, HnswConfig::default());
        assert_eq!(back.ingest_jsonl(&space, &embedder, &deep), store.len());
    });
}
