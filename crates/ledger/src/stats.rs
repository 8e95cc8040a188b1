//! The estimators every reported number goes through.
//!
//! A run samples each metric across its rounds; what is reported is the
//! *quietest round*: the minimum for times, the maximum for rates. Noise on
//! a shared VM is additive and bursty, and on the box this was built on the
//! bursts cover anything from none to all of a run's rounds — so between
//! runs the quartile on the quiet side spreads about twice as wide as the
//! floor (`README.md` has the measurements). The floor ignores bursts of
//! any duty cycle below 100 % and still cannot hide a cost that every
//! round pays.

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, sizes: smaller is better.
    Lower,
    /// Rates, quality: larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The median (mean of the two middle samples for an even count). Panics
/// on an empty sample: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The quietest round's sample: the smallest of a lower-is-better
/// metric, the largest of a higher-is-better one. Panics on an empty
/// sample.
pub fn quietest(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => values.iter().copied().min_by(f64::total_cmp),
        Better::Higher => values.iter().copied().max_by(f64::total_cmp),
    };
    pick.expect("quietest of an empty sample")
}

/// Nearest-rank percentile of an ascending latency sample, in the
/// sample's own unit.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0, 5.0]), 3.0);
        assert_eq!(median(&[10.0, 40.0, 20.0, 30.0]), 25.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quietest_ignores_bursts_of_any_duty_cycle() {
        // 16 rounds, 14 of them inside a burst: the floor does not move
        // (the lower quartile would read 2.0 here).
        let mut times = vec![2.0, 3.0, 5.0, 9.0, 2.5, 4.0, 2.0, 6.0, 3.5, 2.0, 7.0, 2.2, 3.1, 2.9];
        times.extend([1.0, 1.0]);
        assert_eq!(quietest(&times, Better::Lower), 1.0);
        // Rates: bursts pull samples *down*; the ceiling holds.
        let rates: Vec<f64> = times.iter().map(|t| 100.0 / t).collect();
        assert_eq!(quietest(&rates, Better::Higher), 100.0);
        // A cost every round pays is not hidden.
        let shifted: Vec<f64> = times.iter().map(|t| t + 0.5).collect();
        assert_eq!(quietest(&shifted, Better::Lower), 1.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 51);
        assert_eq!(percentile_sorted(&s, 0.95), 95);
        assert_eq!(percentile_sorted(&s, 1.0), 100);
        assert_eq!(percentile_sorted(&[42], 0.95), 42);
    }
}
