//! The serving and training paths' allocation budgets, where CI can see
//! them: with [`lite_obs::prof::TagAlloc`] as this binary's global
//! allocator, every allocation made while scoring or training is counted
//! against the tag it ran under. (`alloc.count_per_op` in the ledger says
//! the same, but only in a hand-run `--trace 1`.)

use std::hint::black_box;
use std::time::Duration;

use lite_core::amu::{adaptive_model_update, AmuConfig};
use lite_core::experiment::{Dataset, DatasetBuilder, PredictionContext};
use lite_core::features::StageInstance;
use lite_core::necs::{Necs, NecsConfig};
use lite_core::recommend::{score_candidates, LiteTuner};
use lite_obs::prof::{alloc_stats_named, TagAlloc};
use lite_obs::{Profiler, Tracer};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;

#[global_allocator]
static ALLOC: TagAlloc<std::alloc::System> = TagAlloc::new(std::alloc::System);

fn three_apps(cluster: &ClusterSpec) -> Dataset {
    DatasetBuilder {
        apps: vec![AppId::Sort, AppId::PageRank, AppId::KMeans],
        clusters: vec![cluster.clone()],
        tiers: vec![SizeTier::Train(0)],
        confs_per_cell: 1,
        seed: 5,
    }
    .build()
}

/// `(allocations, bytes)` made by `work` on this thread.
fn allocations_of(prof: &Profiler, tag: &'static str, work: impl FnOnce()) -> (u64, u64) {
    // The first entry interns the tag and registers this thread: those
    // one-time allocations must not land inside the measured scope.
    drop(prof.enter(tag));
    let (bytes, count) = alloc_stats_named(tag);
    let guard = prof.enter(tag);
    work();
    drop(guard);
    let after = alloc_stats_named(tag);
    (after.1 - count, after.0 - bytes)
}

#[test]
fn scoring_30_candidates_on_a_warm_memo_allocates_a_fixed_handful() {
    let cluster = ClusterSpec::cluster_a();
    let ds = three_apps(&cluster);
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
    let first = allocations_of(&prof, "allocbudget.first", score).0;
    let second = allocations_of(&prof, "allocbudget.second", score).0;
    // At most 5 per candidate. Measured: 23 in all, where recording a
    // tape and normalising one `Vec` per row made 1,408.
    assert!((1..=150).contains(&first), "{first} allocations for 30 candidates");
    assert_eq!(second, first, "a repeat call must not allocate more (nothing may grow)");
}

#[test]
fn a_training_epoch_allocates_within_its_budget_and_no_more_the_second_time() {
    let ds = three_apps(&ClusterSpec::cluster_a());
    let refs: Vec<&StageInstance> = ds.instances.iter().collect();
    let config = NecsConfig { epochs: 1, ..Default::default() };
    let mut model = Necs::train(&ds.registry, &ds.space, &refs, config);
    let amu = AmuConfig { epochs: 1, ..Default::default() };
    let target = &refs[..refs.len() / 4];
    let prof = Profiler::new(Duration::from_millis(1));

    let fit = |model: &mut Necs, tag| allocations_of(&prof, tag, || model.fit(&ds.registry, &refs));
    let update = |model: &mut Necs, tag| {
        allocations_of(&prof, tag, || {
            black_box(adaptive_model_update(model, &ds.registry, &refs, target, &amu));
        })
    };
    let fits = [fit(&mut model, "allocbudget.fit1"), fit(&mut model, "allocbudget.fit2")];
    let updates = [update(&mut model, "allocbudget.amu1"), update(&mut model, "allocbudget.amu2")];
    // One batch of every instance over the three apps' templates, ceilings
    // 5 % above the measured figures: a fit epoch makes 954 allocations /
    // 1.04 MB and an AMU epoch 1,013 / 2.13 MB, where the unfolded windows,
    // feature maps, masks and one-hot transposes of the unfused
    // convolution made 2,416 / 4.30 MB and 2,679 / 5.43 MB.
    for (what, [first, second], ceiling) in
        [("fit", fits, (1_000u64, 1_090_000u64)), ("AMU", updates, (1_060, 2_240_000))]
    {
        assert!(first.0 <= ceiling.0 && first.1 <= ceiling.1, "{what} epoch: {first:?}");
        assert!(second.0 <= first.0 && second.1 <= first.1, "{what}: {first:?} then {second:?}");
    }
}
