//! A mergeable log-linear quantile sketch (HDR-histogram style).
//!
//! Values are bucketed by their log₂ *octave* and then linearly within it:
//! each octave `[2^m, 2^(m+1))` is split into [`SUB_BUCKETS`] equal-width
//! sub-buckets, so a bucket's width is `2^m / SUB_BUCKETS` and its relative
//! width is at most `1 / SUB_BUCKETS` (~3.1% with 32 sub-buckets). Values
//! below `2 * SUB_BUCKETS` are recorded exactly. Quantiles read the upper
//! bound of the matched bucket, so they are conservative (never below the
//! true quantile) and within `1 / SUB_BUCKETS` relative error above it —
//! compared to the up-to-2× error of a plain log₂ histogram.
//!
//! The bucket *layout* lives here as plain functions so the atomic
//! [`crate::metrics::Histogram`] and the windowed rollups of [`crate::slo`]
//! index the same array shape, and any two count arrays merge by
//! element-wise addition (the sketch is mergeable by construction: bucket
//! boundaries are value-independent).

/// log₂ of the linear sub-buckets per octave.
pub const SUB_BITS: u32 = 5;

/// Linear sub-buckets per octave. The worst-case relative error of a
/// quantile estimate is `1 / SUB_BUCKETS` (~3.1%).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Total buckets: one exact group for values `0..SUB_BUCKETS`, then one
/// group of [`SUB_BUCKETS`] for every octave `2^m..2^(m+1)` with
/// `m in SUB_BITS..=63`.
pub const SKETCH_BUCKETS: usize = ((64 - SUB_BITS + 1) * SUB_BUCKETS as u32) as usize;

/// Bucket index for a value. Total order: `v <= w` implies
/// `bucket_index(v) <= bucket_index(w)`.
#[inline(always)]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    // Octave (position of the leading bit), at least SUB_BITS here.
    let m = 63 - v.leading_zeros();
    let group = (m - SUB_BITS + 1) as usize;
    // The SUB_BITS bits directly below the leading bit select the linear
    // sub-bucket within the octave.
    let sub = ((v >> (m - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
    group * SUB_BUCKETS as usize + sub
}

/// Inclusive `(lower, upper)` value bounds of a bucket.
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < SKETCH_BUCKETS);
    let sub = i as u64 & (SUB_BUCKETS - 1);
    let group = (i as u64) >> SUB_BITS;
    if group == 0 {
        return (sub, sub);
    }
    let shift = (group - 1) as u32;
    let lo = (SUB_BUCKETS + sub) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

/// Inclusive upper bound of a bucket (what quantile reads report).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    bucket_bounds(i).1
}

/// Quantile estimate over a bucket-count array of [`SKETCH_BUCKETS`]
/// entries: the upper bound of the bucket holding the `ceil(q * count)`-th
/// smallest observation. Returns 0 on an empty sketch. `q` is clamped to
/// `[0, 1]`.
pub fn quantile_from_counts(counts: &[u64], count: u64, q: f64) -> u64 {
    debug_assert_eq!(counts.len(), SKETCH_BUCKETS);
    if count == 0 {
        return 0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            return bucket_upper(i);
        }
    }
    bucket_upper(SKETCH_BUCKETS - 1)
}

/// Non-empty buckets of a count array as `(inclusive upper bound,
/// observations)` pairs, in increasing value order — the compact form
/// snapshots and Prometheus exposition consume.
pub fn nonempty_buckets(counts: &[u64]) -> Vec<(u64, u64)> {
    debug_assert_eq!(counts.len(), SKETCH_BUCKETS);
    counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (bucket_upper(i), c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic SplitMix64 for test sampling.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn buckets_partition_the_u64_line() {
        // Exhaustive at the small end, boundary-sampled elsewhere.
        for v in 0u64..4096 {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
        }
        for m in SUB_BITS..64 {
            for v in [1u64 << m, (1u64 << m) + 1, (1u64 << m) - 1, u64::MAX >> (63 - m)] {
                let i = bucket_index(v);
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), SKETCH_BUCKETS - 1);
        assert_eq!(bucket_upper(SKETCH_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_contiguous() {
        let mut prev_hi: Option<u64> = None;
        for i in 0..SKETCH_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap/overlap before bucket {i}");
            }
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..(2 * SUB_BUCKETS) {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert_eq!((lo, hi), (v, v), "value {v} not exact");
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in 0..SKETCH_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            if lo == 0 {
                continue;
            }
            let width = (hi - lo) as f64;
            assert!(
                width / lo as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "bucket {i}: width {width} lo {lo}"
            );
        }
    }

    /// The acceptance pin: sketch p50/p99 within 5% relative error of the
    /// exact sorted quantiles on the same sample, across three shapes of
    /// distribution (log-uniform, heavy-tailed, constant-ish).
    #[test]
    fn quantiles_track_exact_sorted_quantiles_within_5_percent() {
        fn log_uniform(s: &mut u64) -> u64 {
            1u64 << (splitmix(s) % 40)
        }
        fn heavy_tail(s: &mut u64) -> u64 {
            100 + (splitmix(s) % 1_000) * (splitmix(s) % 97 + 1)
        }
        fn narrow(s: &mut u64) -> u64 {
            1_000_000 + splitmix(s) % 5_000
        }
        type Shape = fn(&mut u64) -> u64;
        let shapes: [(&str, Shape); 3] =
            [("log-uniform", log_uniform), ("heavy-tail", heavy_tail), ("narrow", narrow)];
        for (name, gen) in shapes {
            let mut state = 0xfeed_0000u64;
            let mut counts = vec![0u64; SKETCH_BUCKETS];
            let mut exact: Vec<u64> = Vec::new();
            for _ in 0..10_000 {
                let v = gen(&mut state);
                counts[bucket_index(v)] += 1;
                exact.push(v);
            }
            exact.sort_unstable();
            for q in [0.50, 0.90, 0.99, 0.999] {
                let est = quantile_from_counts(&counts, exact.len() as u64, q);
                let idx =
                    ((q * exact.len() as f64).ceil().max(1.0) as usize - 1).min(exact.len() - 1);
                let truth = exact[idx];
                assert!(est >= truth, "{name} q={q}: est {est} below exact {truth}");
                let rel = (est - truth) as f64 / truth.max(1) as f64;
                assert!(rel <= 0.05, "{name} q={q}: est {est} vs exact {truth} ({rel:.4} rel)");
            }
        }
    }

    #[test]
    fn merging_count_arrays_equals_recording_into_one() {
        let mut a = vec![0u64; SKETCH_BUCKETS];
        let mut b = vec![0u64; SKETCH_BUCKETS];
        let mut whole = vec![0u64; SKETCH_BUCKETS];
        let mut state = 7u64;
        for i in 0..2_000 {
            let v = splitmix(&mut state) % 1_000_000;
            whole[bucket_index(v)] += 1;
            if i % 2 == 0 {
                a[bucket_index(v)] += 1;
            } else {
                b[bucket_index(v)] += 1;
            }
        }
        let merged: Vec<u64> = a.iter().zip(b.iter()).map(|(x, y)| x + y).collect();
        assert_eq!(merged, whole);
        for q in [0.5, 0.99] {
            assert_eq!(
                quantile_from_counts(&merged, 2_000, q),
                quantile_from_counts(&whole, 2_000, q)
            );
        }
    }

    #[test]
    fn empty_and_degenerate_quantiles() {
        let counts = vec![0u64; SKETCH_BUCKETS];
        assert_eq!(quantile_from_counts(&counts, 0, 0.5), 0);
        let mut one = vec![0u64; SKETCH_BUCKETS];
        one[bucket_index(42)] = 1;
        for q in [0.0, 0.5, 1.0, 2.0, -1.0] {
            assert_eq!(quantile_from_counts(&one, 1, q), 42);
        }
        assert_eq!(nonempty_buckets(&one), vec![(42, 1)]);
    }
}
