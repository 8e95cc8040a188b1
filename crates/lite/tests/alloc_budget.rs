//! The serving path's allocation budget, where CI can see it: with
//! [`lite_obs::prof::TagAlloc`] as this binary's global allocator, every
//! allocation made while scoring is counted against the tag it ran under.
//! (`alloc.count_per_op` in the ledger says the same, but only in a
//! hand-run `--trace 1`.)

use std::hint::black_box;
use std::time::Duration;

use lite_core::experiment::{DatasetBuilder, PredictionContext};
use lite_core::necs::NecsConfig;
use lite_core::recommend::{score_candidates, LiteTuner};
use lite_obs::prof::{alloc_stats_named, TagAlloc};
use lite_obs::{Profiler, Tracer};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;

#[global_allocator]
static ALLOC: TagAlloc<std::alloc::System> = TagAlloc::new(std::alloc::System);

#[test]
fn scoring_30_candidates_on_a_warm_memo_allocates_a_fixed_handful() {
    let cluster = ClusterSpec::cluster_a();
    let ds = DatasetBuilder {
        apps: vec![AppId::Sort, AppId::PageRank, AppId::KMeans],
        clusters: vec![cluster.clone()],
        tiers: vec![SizeTier::Train(0)],
        confs_per_cell: 1,
        seed: 5,
    }
    .build();
    let tuner = LiteTuner::from_dataset(&ds, NecsConfig { epochs: 1, ..Default::default() }, 5);
    let data = AppId::PageRank.dataset(SizeTier::Valid);
    let ctx = PredictionContext::warm(&tuner.registry, AppId::PageRank, &data, &cluster).unwrap();
    let confs = tuner.acg.candidates_seeded(AppId::PageRank, &data, &ctx.env, 30, 17);
    let off = Tracer::disabled();
    let score = || {
        black_box(score_candidates(&tuner.model, &tuner.registry, &ctx, &cluster, &confs, &off));
    };
    score(); // encodes PageRank's templates into the memo

    let prof = Profiler::new(Duration::from_millis(1));
    let allocations_of = |tag: &'static str| {
        // The first entry interns the tag and registers this thread: those
        // one-time allocations must not land inside the measured scope.
        drop(prof.enter(tag));
        let before = alloc_stats_named(tag).1;
        let guard = prof.enter(tag);
        score();
        drop(guard);
        alloc_stats_named(tag).1 - before
    };
    let first = allocations_of("allocbudget.first");
    let second = allocations_of("allocbudget.second");
    // At most 5 per candidate. Measured: 23 in all, where recording a
    // tape and normalising one `Vec` per row made 1,408.
    assert!((1..=150).contains(&first), "{first} allocations for 30 candidates");
    assert_eq!(second, first, "a repeat call must not allocate more (nothing may grow)");
}
