//! One served miss's allocation budget, where CI can see it: with
//! [`lite_obs::prof::TagAlloc`] as this binary's global allocator, every
//! allocation in the process is counted, on the caller's thread and the
//! worker's alike. (`alloc.count_per_op` on `warm_miss` in the ledger says
//! the same, but only in a hand-run `--trace 1`.) The count is
//! process-wide, so this binary holds this one test.

use std::sync::Arc;

use lite_core::experiment::DatasetBuilder;
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::prof::{alloc_totals, TagAlloc};
use lite_obs::{Registry, Tracer};
use lite_serve::{ModelSnapshot, ProtocolConfig, ServeConfig, Service};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::SizeTier;

#[global_allocator]
static ALLOC: TagAlloc<std::alloc::System> = TagAlloc::new(std::alloc::System);

#[test]
fn a_served_miss_allocates_within_its_budget() {
    const CACHE: usize = 64;
    const MEASURED: u64 = 256;
    let cluster = ClusterSpec::cluster_a();
    let ds = DatasetBuilder {
        apps: vec![AppId::Sort, AppId::KMeans],
        clusters: vec![cluster.clone()],
        tiers: vec![SizeTier::Train(0)],
        confs_per_cell: 2,
        seed: 5,
    }
    .build();
    let tuner = LiteTuner::from_dataset(&ds, NecsConfig { epochs: 1, ..Default::default() }, 5);
    // One worker and one small cache shard: after `CACHE` misses every
    // insert evicts in place, the steady state of a never-repeated stream.
    let config = ServeConfig {
        workers: 1,
        protocol: ProtocolConfig { response_cache: CACHE, ..Default::default() },
        ..Default::default()
    };
    let service = Service::start(
        ModelSnapshot::from_tuner(&tuner),
        Arc::new(ds),
        config,
        &Registry::new(),
        Tracer::disabled(),
    );
    let handle = service.handle();
    let data = AppId::KMeans.dataset(SizeTier::Valid);
    let mut seed = 0u64;
    let mut miss = || {
        let resp = handle.recommend(AppId::KMeans, &data, &cluster, 5, seed).expect("recommend");
        assert_eq!((resp.cached, resp.scored), (0, 30));
        seed += 1;
    };
    for _ in 0..2 * CACHE {
        miss(); // fills the template memo and the cache, grows every buffer
    }
    let before = alloc_totals().1;
    for _ in 0..MEASURED {
        miss();
    }
    let per_miss = (alloc_totals().1 - before) as f64 / MEASURED as f64;
    // Measured: 80 a miss, every miss — candidate sampling, one NECS pass,
    // the reply hand-off and the cached copy of the top 5; the ceiling is
    // 5 % above. With a prediction cache beside the response cache it was
    // 89: a key vector, an `Option<f64>` score vector, and a miss list and
    // a ranking each collected through a filter, so grown by doubling.
    assert!(per_miss <= 84.0, "{per_miss} allocations per served miss");
    service.shutdown();
}
