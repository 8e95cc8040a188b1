//! LITE-RAG benchmark: ANN index quality/latency gates at scale, plus the
//! cold-start head-to-head that motivates the subsystem.
//!
//! Part 1 — synthetic index at scale (120k points, 32-dim, clustered):
//! * recall@10 against the brute-force oracle, gated at >= 0.95,
//! * single-query latency distribution, p99 gated under 1 ms,
//! * serialize → deserialize → search byte-identity on the large index.
//!
//! Part 2 — leave-one-app-out cold start on the simulator:
//! * zero-execution arm: the RAG tuner retrieves similar historical runs
//!   by static code embedding and adapts their confs to the target
//!   data/cluster scale — no simulated execution of the target app at
//!   all. Gated: beats the default configuration on average ETR.
//! * budget-cut arm: the NECS scoring budget cut to a third — a strict
//!   prefix of the full arm's ACG pool topped up with RAG's
//!   estimate-ranked warm-start seeds, the union scored by NECS. Gated:
//!   matches full-budget ACG cold start within 5 points of ETR.
//!
//! `LITE_BENCH_QUICK=1` shrinks the index to 20k points and the
//! head-to-head to two held-out apps for smoke testing; the models are the
//! same, so every gate is asserted either way.

use std::time::Instant;

use lite_bench::table::{note, Table};
use lite_bench::tuning::execute;
use lite_bench::{NECS_EPOCHS, TRAIN_CONFS_PER_CELL};
use lite_core::experiment::{DatasetBuilder, PredictionContext};
use lite_core::necs::NecsConfig;
use lite_core::recommend::{score_candidates, LiteTuner, NUM_CANDIDATES};
use lite_metrics::ranking::etr;
use lite_obs::Tracer;
use lite_rag::{exact_knn, Hnsw, HnswConfig, RagConfig, RagTuner};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;

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

/// Clustered corpus shaped like real embedding sets: points huddle around
/// centers with a uniform background, the regime HNSW's heuristic
/// neighbor selection exists for.
fn corpus(seed: u64, n: usize, dim: usize, centers: usize) -> Vec<Vec<f32>> {
    let mut state = seed;
    let hubs: Vec<Vec<f32>> = (0..centers).map(|_| random_vec(&mut state, dim)).collect();
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                random_vec(&mut state, dim)
            } else {
                let c = &hubs[(splitmix64(&mut state) as usize) % hubs.len()];
                c.iter().map(|&x| x + 0.15 * unit(&mut state)).collect()
            }
        })
        .collect()
}

fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let t0 = Instant::now();
    let quick = std::env::var("LITE_BENCH_QUICK").is_ok_and(|v| v == "1");

    // ---- Part 1: synthetic ANN index at scale ---------------------------
    let n: usize = if quick { 20_000 } else { 120_000 };
    let dim: usize = 32;
    let k: usize = 10;

    let points = corpus(0x11f3_5eed, n, dim, 64);
    // Wider beams than the serving default: at 32 dims and 10^5 points the
    // recall gate needs ef ~2 orders below n, and the latency budget has
    // room for it (p99 stays far under the 1 ms gate).
    let cfg = HnswConfig { ef_construction: 200, ef_search: 160, ..HnswConfig::default() };
    let mut index = Hnsw::new(dim, cfg);
    for p in &points {
        index.insert(p);
    }
    let build_s = t0.elapsed().as_secs_f64();

    // recall@10 against the brute-force oracle.
    let recall_queries = if quick { 40 } else { 200 };
    let mut state = 0xbeef_u64;
    let mut hit = 0usize;
    for _ in 0..recall_queries {
        let q = random_vec(&mut state, dim);
        let approx = index.search(&q, k);
        let exact = exact_knn(index.vectors(), &q, k);
        hit += approx.iter().filter(|a| exact.iter().any(|e| e.id == a.id)).count();
    }
    let recall = hit as f64 / (recall_queries * k) as f64;

    // Single-query latency, one query at a time on one thread.
    let lat_queries = if quick { 500 } else { 2_000 };
    let mut state = 0xface_u64;
    let mut lat_us: Vec<f64> = (0..lat_queries)
        .map(|_| {
            let q = random_vec(&mut state, dim);
            let t = Instant::now();
            std::hint::black_box(index.search(&q, k));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat_us.sort_by(f64::total_cmp);
    let (p50_us, p99_us) = (pct(&lat_us, 0.50), pct(&lat_us, 0.99));

    // Serde roundtrip on the large index: byte-identical re-encode and
    // identical search results.
    let bytes = index.to_bytes();
    let back = Hnsw::from_bytes(&bytes).expect("own bytes decode");
    assert_eq!(bytes, back.to_bytes(), "re-encode must reproduce the byte stream");
    let mut state = 0x5e5e_u64;
    for _ in 0..16 {
        let q = random_vec(&mut state, dim);
        assert_eq!(index.search(&q, k), back.search(&q, k), "roundtrip must not move results");
    }

    note(&format!(
        "ANN index: {n} points, {dim} dims, {} bytes; serde round trip byte-identical",
        bytes.len()
    ));
    note(&format!("recall@{k} = {recall:.4} over {recall_queries} queries (gate >= 0.95)"));
    note(&format!(
        "build {build_s:.1} s; single-query p50 {p50_us:.0} us, p99 {p99_us:.0} us (gate p99 < 1 ms)"
    ));

    assert!(recall >= 0.95, "recall@{k} = {recall:.3} misses the 0.95 gate (n={n}, dim={dim})");
    assert!(p99_us < 1_000.0, "single-query p99 = {p99_us:.0}us breaches the 1ms gate");

    // ---- Part 2: leave-one-app-out cold start ---------------------------
    // Full mode holds out six apps spanning all three workload categories;
    // the other nine are skipped to bound runtime (logged, not silent).
    let held_out: Vec<AppId> = if quick {
        vec![AppId::Terasort, AppId::KMeans]
    } else {
        vec![
            AppId::KMeans,
            AppId::Svm,
            AppId::PageRank,
            AppId::ShortestPaths,
            AppId::Terasort,
            AppId::Sort,
        ]
    };
    eprintln!(
        "[rag] cold-start head-to-head over {}/{} apps (subset bounds runtime)",
        held_out.len(),
        AppId::all().len()
    );

    let cluster = ClusterSpec::cluster_c();
    let widths = [6usize, 11, 11, 11, 8, 8, 8];
    let table = Table::new(
        "cold start on never-seen apps (large data, cluster C; RAG executes the target zero times)",
        &["app", "default t(s)", "rag t(s)", "seeded t(s)", "rag ETR", "full ETR", "seed ETR"],
        &widths,
    );

    let mut rag_etrs = Vec::new();
    let mut full_etrs = Vec::new();
    let mut seeded_etrs = Vec::new();
    let mut rag_wins = 0usize;
    let mut full_budget_total = 0usize;
    let mut seeded_budget_total = 0usize;
    for (ai, &held) in held_out.iter().enumerate() {
        let train_apps: Vec<AppId> = AppId::all().iter().copied().filter(|a| *a != held).collect();
        let ds = DatasetBuilder {
            apps: train_apps,
            clusters: ClusterSpec::all_evaluation_clusters(),
            tiers: SizeTier::train_tiers().to_vec(),
            confs_per_cell: TRAIN_CONFS_PER_CELL,
            seed: 47,
        }
        .build();
        let rag = RagTuner::from_dataset(&ds, RagConfig::default());
        let data = held.dataset(SizeTier::Test);
        let seed = 9300 + ai as u64;

        // Zero-execution arm: retrieve + scale-adapt + estimate-rank. The
        // held-out app is never simulated before the final comparison run.
        let retrieved = rag.retrieve(held, &data, &cluster, 8).expect("non-empty store");
        let ranked = rag.rank(None, &data, &cluster, &retrieved, 3);
        let t_rag = execute(&cluster, held, &data, &ranked[0].conf, seed ^ 0x3);
        let t_default = execute(&cluster, held, &data, &ds.space.default_conf(), seed ^ 0x4);

        // Full-budget ACG cold start (the incumbent: 30 scored candidates).
        let mut lite = LiteTuner::from_dataset(
            &ds,
            NecsConfig { epochs: NECS_EPOCHS, ..Default::default() },
            47,
        );
        let full_budget = NUM_CANDIDATES;
        let ranked_full = lite.recommend_cold(held, &data, &cluster, seed);
        let t_full = execute(&cluster, held, &data, &ranked_full[0].conf, seed ^ 0x3);

        // Budget-cut arm: the NECS scoring budget cut to a third. The
        // reduced ACG pool is sampled with the SAME seed as the full arm
        // (so it is a strict prefix — the comparison isolates what the
        // seeds buy, not sampling luck), topped up with RAG's
        // estimate-ranked warm-start seeds, and the whole union is scored
        // by NECS alone: one estimator, no cross-estimator optimism bias.
        let reduced = (full_budget / 3).max(2);
        let mut confs = {
            let ctx = PredictionContext::cold(&mut lite.registry, held, &data, &cluster);
            lite.acg.candidates_seeded(held, &data, &ctx.env, reduced, seed)
        };
        confs.extend(ranked.iter().map(|r| r.conf.clone()));
        let seeded_budget = confs.len();
        let ctx = PredictionContext::cold(&mut lite.registry, held, &data, &cluster);
        let scores = score_candidates(
            &lite.model,
            &lite.registry,
            &ctx,
            &cluster,
            &confs,
            &Tracer::disabled(),
        );
        let best =
            scores.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i);
        let t_seeded = execute(&cluster, held, &data, &confs[best], seed ^ 0x3);

        let (e_rag, e_full, e_seeded) =
            (etr(t_default, t_rag), etr(t_default, t_full), etr(t_default, t_seeded));
        rag_etrs.push(e_rag);
        full_etrs.push(e_full);
        seeded_etrs.push(e_seeded);
        rag_wins += usize::from(t_rag < t_default);
        full_budget_total += full_budget;
        seeded_budget_total += seeded_budget;
        table.row(&[
            held.abbrev().to_string(),
            format!("{t_default:.0}"),
            format!("{t_rag:.0}"),
            format!("{t_seeded:.0}"),
            format!("{e_rag:.2}"),
            format!("{e_full:.2}"),
            format!("{e_seeded:.2}"),
        ]);
        eprintln!("[rag] {} done ({:.0}s)", held.abbrev(), t0.elapsed().as_secs_f64());
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (avg_rag, avg_full, avg_seeded) = (avg(&rag_etrs), avg(&full_etrs), avg(&seeded_etrs));
    note(&format!(
        "\nzero-execution RAG: avg ETR {avg_rag:.2} vs default ({rag_wins}/{} apps faster); \
         RAG-seeded cold start reaches avg ETR {avg_seeded:.2} on {seeded_budget_total} scored \
         candidates vs {avg_full:.2} on {full_budget_total} for full-budget ACG.",
        rag_etrs.len()
    ));

    assert!(
        avg_rag > 0.0,
        "zero-execution retrieval must beat the default conf on average ETR, got {avg_rag:.3}"
    );
    assert!(
        rag_wins * 2 >= rag_etrs.len(),
        "retrieval must beat the default conf on at least half the held-out apps, \
         got {rag_wins}/{}",
        rag_etrs.len()
    );
    assert!(
        avg_seeded + 0.05 >= avg_full,
        "RAG-seeded cold start ({avg_seeded:.3}) must match full-budget ACG ({avg_full:.3}) \
         within 5 ETR points on {seeded_budget_total} vs {full_budget_total} candidates"
    );

    eprintln!("[rag] total {:.0}s", t0.elapsed().as_secs_f64());
}
