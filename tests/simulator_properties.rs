//! Property-based invariants of the execution simulator, spanning
//! `lite-sparksim` and `lite-workloads`.

use lite_repro::sparksim::cluster::ClusterSpec;
use lite_repro::sparksim::conf::{ConfSpace, Knob, SparkConf, NUM_KNOBS};
use lite_repro::sparksim::exec::{allocate, preflight, simulate};
use lite_repro::sparksim::plan::{InputSource, StagePlan};
use lite_repro::workloads::apps::{build_job, AppId};
use lite_repro::workloads::data::SizeTier;
use proptest::prelude::*;

fn arb_conf() -> impl Strategy<Value = SparkConf> {
    proptest::collection::vec(0.0f64..1.0, NUM_KNOBS).prop_map(|u| {
        let mut arr = [0.0; NUM_KNOBS];
        arr.copy_from_slice(&u);
        ConfSpace::table_iv().decode(&arr)
    })
}

fn arb_cluster() -> impl Strategy<Value = ClusterSpec> {
    prop_oneof![
        Just(ClusterSpec::cluster_a()),
        Just(ClusterSpec::cluster_b()),
        Just(ClusterSpec::cluster_c()),
    ]
}

fn arb_app() -> impl Strategy<Value = AppId> {
    (0usize..15).prop_map(|i| AppId::all()[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulation_is_deterministic(conf in arb_conf(), cluster in arb_cluster(), app in arb_app(), seed in 0u64..1000) {
        let plan = build_job(app, &app.dataset(SizeTier::Train(1)));
        let a = simulate(&cluster, &conf, &plan, seed);
        let b = simulate(&cluster, &conf, &plan, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn times_are_finite_and_nonnegative(conf in arb_conf(), cluster in arb_cluster(), app in arb_app()) {
        let plan = build_job(app, &app.dataset(SizeTier::Train(2)));
        let r = simulate(&cluster, &conf, &plan, 7);
        prop_assert!(r.total_time_s.is_finite());
        prop_assert!(r.total_time_s >= 0.0);
        for st in &r.stages {
            prop_assert!(st.duration_s.is_finite() && st.duration_s >= 0.0);
            prop_assert!(st.cached_fraction >= 0.0 && st.cached_fraction <= 1.0);
        }
        prop_assert!(r.capped_time(7200.0) <= 7200.0);
        // Inner status must always be a sane model input.
        prop_assert!(r.inner_status().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn more_data_is_never_faster_when_successful(conf in arb_conf(), cluster in arb_cluster(), app in arb_app()) {
        let small = simulate(&cluster, &conf, &build_job(app, &app.dataset(SizeTier::Train(0))), 3);
        let big = simulate(&cluster, &conf, &build_job(app, &app.dataset(SizeTier::Valid)), 3);
        if small.ok() && big.ok() {
            // Generous tolerance: noise is multiplicative and independent.
            prop_assert!(big.total_time_s > 0.5 * small.total_time_s,
                "24x data ran >2x faster: {} vs {}", big.total_time_s, small.total_time_s);
        }
    }

    #[test]
    fn infeasible_allocation_implies_failed_run(conf in arb_conf(), cluster in arb_cluster(), app in arb_app()) {
        let plan = build_job(app, &app.dataset(SizeTier::Train(0)));
        let r = simulate(&cluster, &conf, &plan, 11);
        if allocate(&cluster, &conf).is_none() {
            prop_assert!(!r.ok());
        } else {
            prop_assert!(r.executors >= 1);
            prop_assert_eq!(r.slots, r.executors * conf.executor_cores());
        }
    }

    #[test]
    fn preflight_ok_implies_allocation_and_small_inputs_run(conf in arb_conf(), cluster in arb_cluster(), app in arb_app()) {
        let data = app.dataset(SizeTier::Train(0));
        if preflight(&cluster, &conf, data.bytes).is_ok() {
            prop_assert!(allocate(&cluster, &conf).is_some());
            let r = simulate(&cluster, &conf, &build_job(app, &data), 13);
            // On the smallest inputs a preflight-clean configuration must
            // execute (driver-side failures aside, which need big results).
            prop_assert!(r.failure != Some(lite_repro::sparksim::result::FailureReason::InfeasibleAllocation));
        }
    }

    #[test]
    fn event_log_roundtrips_for_any_run(conf in arb_conf(), cluster in arb_cluster(), app in arb_app()) {
        use lite_repro::sparksim::eventlog::{decode, emit, encode};
        let plan = build_job(app, &app.dataset(SizeTier::Train(1)));
        let r = simulate(&cluster, &conf, &plan, 17);
        let events = emit(&plan, &r);
        prop_assert_eq!(decode(&encode(&events)).unwrap(), events);
    }

    #[test]
    fn normalized_roundtrip_for_any_conf(conf in arb_conf()) {
        let space = ConfSpace::table_iv();
        let u = conf.normalized(&space);
        let back = space.decode(&u);
        for (a, b) in conf.values().iter().zip(back.values().iter()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
        prop_assert!(space.is_valid(&conf));
    }
}

/// Whether a stage reads a shuffle or writes one.
fn shuffles(stage: &StagePlan) -> bool {
    stage.input == InputSource::Shuffle || stage.shuffle_write_bytes > 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The shuffle knobs act only through a shuffle (the sensitivity split
    /// of "Spark Parameter Tuning via Trial-and-Error"): any setting of
    /// them leaves every stage that neither reads nor writes one as it was.
    #[test]
    fn shuffle_knobs_leave_non_shuffle_stages_alone(conf in arb_conf(), other in arb_conf(), cluster in arb_cluster(), app in arb_app(), tier in 0u8..4) {
        let space = ConfSpace::table_iv();
        let mut moved = conf.clone();
        for knob in [Knob::ShuffleCompress, Knob::ShuffleFileBufferKb, Knob::ReducerMaxSizeInFlightMb] {
            moved.set(&space, knob, other.get(knob));
        }
        let plan = build_job(app, &app.dataset(SizeTier::Train(tier)));
        let a = simulate(&cluster, &conf, &plan, 19);
        let b = simulate(&cluster, &moved, &plan, 19);
        // A shuffle stage may fail under one setting and end the run early,
        // so only the stages both runs started are compared.
        for ((stage, x), y) in plan.stages.iter().zip(&a.stages).zip(&b.stages) {
            if !shuffles(stage) {
                prop_assert_eq!(x, y);
            }
        }
    }
}

/// The property above is not vacuous: the workloads hold stages that
/// neither read nor write a shuffle.
#[test]
fn some_stages_neither_read_nor_write_a_shuffle() {
    let plans: Vec<_> = AppId::all()
        .into_iter()
        .map(|app| build_job(app, &app.dataset(SizeTier::Train(1))))
        .collect();
    let quiet = plans.iter().flat_map(|p| &p.stages).filter(|s| !shuffles(s)).count();
    let all: usize = plans.iter().map(|p| p.stages.len()).sum();
    assert_eq!((quiet, all), (17, 208));
}

#[test]
fn more_executors_do_not_hurt_throughput_on_wide_jobs() {
    // Deterministic directional check kept out of proptest: fixing all but
    // one knob isolates the mechanism.
    let space = ConfSpace::table_iv();
    let cluster = ClusterSpec::cluster_c();
    let plan = build_job(AppId::Sort, &AppId::Sort.dataset(SizeTier::Test));
    let mut one = space.default_conf();
    one.set(&space, Knob::ExecutorInstances, 1.0);
    let mut many = one.clone();
    many.set(&space, Knob::ExecutorInstances, 24.0);
    let t1 = simulate(&cluster, &one, &plan, 5).capped_time(7200.0);
    let t24 = simulate(&cluster, &many, &plan, 5).capped_time(7200.0);
    assert!(t24 < t1, "24 executors {t24} not faster than 1 executor {t1}");
}

/// The simulator's numbers are the paper substitution: every committed
/// figure (`etr_mean`, the tables) only samples them. One digest over a
/// fixed grid pins them bit for bit across refactors of the engine.
#[test]
fn simulated_times_and_spills_hold_their_golden_digest() {
    use lite_repro::lite::experiment::splitmix;
    let space = ConfSpace::table_iv();
    let mut confs = vec![space.default_conf()];
    for c in 1..=2u64 {
        let mut u = [0.0; NUM_KNOBS];
        for (k, v) in u.iter_mut().enumerate() {
            *v = (splitmix(c << 8 | k as u64) >> 11) as f64 / (1u64 << 53) as f64;
        }
        confs.push(space.decode(&u));
    }
    let mut digest = 0u64;
    let mut failed = 0;
    for cluster in [ClusterSpec::cluster_a(), ClusterSpec::cluster_c()] {
        for app in [AppId::KMeans, AppId::PageRank, AppId::Sort] {
            let plan = build_job(app, &app.dataset(SizeTier::Train(2)));
            for conf in &confs {
                for seed in [7, 1009] {
                    let r = simulate(&cluster, conf, &plan, seed);
                    failed += usize::from(!r.ok());
                    digest = digest.rotate_left(1) ^ r.total_time_s.to_bits();
                    for st in &r.stages {
                        digest = digest.rotate_left(1) ^ st.duration_s.to_bits() ^ st.spill_bytes;
                    }
                }
            }
        }
    }
    // The grid must exercise both outcomes, or the digest pins too little.
    assert!((1..36).contains(&failed), "{failed} of 36 runs failed");
    assert_eq!(digest, 0x1d1b_46bb_68bd_cf4b, "simulator output moved");
}
