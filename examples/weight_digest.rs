//! One FNV-1a digest over every NECS weight after one `Necs::fit` epoch and
//! one Adaptive Model Update epoch on the benchmark's corpus.
//!
//! A change to `lite-nn` or to training that claims to keep every float
//! sum in its order prints the same digest before and after; anything that
//! re-associates a sum moves it. (The value depends on the `rand` stream:
//! compare two checkouts built the same way, never against a constant.)

// Examples narrate to stdout by design.
#![allow(clippy::print_stdout)]

use std::time::Instant;

use lite_repro::lite::amu::{adaptive_model_update, AmuConfig};
use lite_repro::lite::experiment::DatasetBuilder;
use lite_repro::lite::features::{StageInstance, TemplateKey};
use lite_repro::lite::necs::{Necs, NecsConfig};
use lite_repro::nn::tape::ParamId;
use lite_repro::sparksim::cluster::ClusterSpec;
use lite_repro::workloads::apps::AppId;
use lite_repro::workloads::data::SizeTier;

fn main() {
    // `crates/ledger/src/setup.rs::corpus`, and feedback shaped like its
    // pool: Test-tier runs on the serving cluster.
    let corpus = DatasetBuilder {
        apps: AppId::all().to_vec(),
        clusters: ClusterSpec::all_evaluation_clusters(),
        tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
        confs_per_cell: 2,
        seed: 20221,
    };
    let feedback = DatasetBuilder {
        clusters: vec![ClusterSpec::cluster_c()],
        tiers: vec![SizeTier::Test],
        confs_per_cell: 1,
        seed: 20222,
        ..corpus.clone()
    }
    .build();
    let ds = corpus.build();
    assert_eq!(ds.registry.len(), feedback.registry.len(), "same apps, same template keys");
    let tokens: usize =
        (0..ds.registry.len()).map(|t| ds.registry.get(TemplateKey(t)).token_ids.len()).sum();
    println!("{} instances, {} templates, {tokens} tokens", ds.instances.len(), ds.registry.len());

    let source: Vec<&StageInstance> = ds.instances.iter().collect();
    let target: Vec<&StageInstance> = feedback.instances.iter().take(400).collect();
    let t0 = Instant::now();
    let config = NecsConfig { epochs: 1, seed: 20221, ..Default::default() };
    let mut model = Necs::train(&ds.registry, &ds.space, &source, config);
    let fit = t0.elapsed();
    let amu = AmuConfig { epochs: 1, ..Default::default() };
    adaptive_model_update(&mut model, &ds.registry, &source, &target, &amu);
    let both = t0.elapsed();

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let params = model.params();
    for i in 0..params.len() {
        for byte in params.value(ParamId(i)).data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("fit epoch {:.1} ms, AMU epoch {:.1} ms", ms(fit), ms(both - fit));
    println!("weight digest {digest:016x}");
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
