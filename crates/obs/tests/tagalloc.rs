//! Integration test with [`lite_obs::TagAlloc`] installed as the real
//! global allocator: every allocation in this binary flows through the
//! attribution hook, so this proves the hook attributes bytes to the
//! current tag, the reentrancy guard turns nested hook entries into
//! counted no-ops (never double-books), and a live sampler thread — which
//! itself allocates while recording stacks — cannot deadlock against it.

use std::time::Duration;

use lite_obs::prof::{alloc_stats_named, note_alloc_reentrant, reentrant_allocs, TagAlloc};
use lite_obs::Profiler;

#[global_allocator]
static ALLOC: TagAlloc<std::alloc::System> = TagAlloc::new(std::alloc::System);

#[test]
fn allocations_attribute_to_the_current_tag() {
    let prof = Profiler::new(Duration::from_millis(1));
    let _tag = prof.enter("alloctest.scope");
    let block: Vec<u8> = Vec::with_capacity(4096);
    let (bytes, count) = alloc_stats_named("alloctest.scope");
    assert!(bytes >= 4096, "expected >= 4096 attributed bytes, got {bytes}");
    assert!(count >= 1);
    drop(block);

    // Deallocation is not an attribution event: freeing the block must
    // not change the tag's byte total.
    let (after_free, _) = alloc_stats_named("alloctest.scope");
    assert!(after_free >= bytes);
}

#[test]
fn reentrancy_guard_skips_and_counts_instead_of_double_booking() {
    let prof = Profiler::new(Duration::from_millis(1));
    // First entry interns the tag and registers this thread's slot; those
    // one-time allocations land on the *enclosing* tag, not this one.
    drop(prof.enter("alloctest.reentrant"));
    // Snapshot while untagged: `alloc_stats_named` itself allocates, and
    // those reads must not perturb the row under test.
    let before = alloc_stats_named("alloctest.reentrant");
    let skipped_before = reentrant_allocs();

    {
        // An allocation arriving while the hook is already on the stack
        // must be skipped (false) and counted, and not touch any tag row.
        let _tag = prof.enter("alloctest.reentrant");
        assert!(!note_alloc_reentrant(512));
    }
    assert!(reentrant_allocs() > skipped_before);
    assert_eq!(alloc_stats_named("alloctest.reentrant"), before, "skip must not attribute");
}

/// The deadlock case the guard exists for: the sampler thread allocates
/// (stack snapshots, report maps) while worker threads allocate inside tag
/// frames. With `TagAlloc` installed globally, every one of those passes
/// through the hook; the test passing at all is the proof of no deadlock.
#[test]
fn sampler_allocating_under_tagalloc_does_not_deadlock() {
    let prof = Profiler::new(Duration::from_micros(200));
    prof.start();
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let prof = prof.clone();
            std::thread::spawn(move || {
                let mut kept = Vec::new();
                for i in 0..200 {
                    let _outer = prof.enter("alloctest.churn");
                    let _inner = prof.enter("alloctest.churn.inner");
                    kept.push(vec![w as u8; 64 + i]);
                    if kept.len() > 8 {
                        kept.clear();
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker finished");
    }
    prof.stop();
    let report = prof.report(8);
    assert!(report.sweeps > 0, "sampler never ran: {report:?}");
    // Allocations land on the innermost tag. The outer row only sees the
    // intern table growing, which depends on which sibling test ran first.
    let (inner_bytes, inner_count) = alloc_stats_named("alloctest.churn.inner");
    let churned: u64 = 3 * (0..200u64).map(|i| 64 + i).sum::<u64>();
    assert!(
        inner_bytes >= churned && inner_count >= 600,
        "worker churn must be attributed: {inner_bytes} bytes in {inner_count} allocations"
    );
}
