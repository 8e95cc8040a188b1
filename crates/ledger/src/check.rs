//! Correctness checks: every operation the benchmark issues is counted,
//! and a failed or wrong one counts against `failed` (and the exit code).

use lite_core::recommend::RankedCandidate;
use lite_sparksim::conf::ConfSpace;

/// Operations attempted and failed, with the first few reasons kept for
/// the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; `verdict` is `Err(why)` when it failed.
    pub fn count(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// Count one boolean check.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.count(if ok { Ok(()) } else { Err(why()) });
    }

    /// The first few failure reasons.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// A ranked answer must be non-empty, at most `k` long, sorted by
/// `predicted_s` under `total_cmp`, and hold only valid configurations.
pub fn validate_ranked(
    space: &ConfSpace,
    ranked: &[RankedCandidate],
    k: usize,
) -> Result<(), String> {
    if ranked.is_empty() {
        return Err("empty ranking".into());
    }
    if ranked.len() > k {
        return Err(format!("{} candidates for k = {k}", ranked.len()));
    }
    if ranked.windows(2).any(|w| w[0].predicted_s.total_cmp(&w[1].predicted_s).is_gt()) {
        return Err("ranking not sorted by predicted_s".into());
    }
    if ranked.iter().any(|r| !space.is_valid(&r.conf)) {
        return Err("configuration outside the knob space".into());
    }
    Ok(())
}

/// Bit-for-bit equality of two rankings (configuration values and
/// predictions compared as bit patterns, so `-0.0`/NaN cannot hide).
pub fn same_ranking(a: &[RankedCandidate], b: &[RankedCandidate]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.predicted_s.to_bits() == y.predicted_s.to_bits()
                && x.conf.values().map(f64::to_bits) == y.conf.values().map(f64::to_bits)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(space: &ConfSpace, predicted_s: f64) -> RankedCandidate {
        RankedCandidate { conf: space.default_conf(), predicted_s }
    }

    #[test]
    fn validation_catches_each_defect() {
        let space = ConfSpace::table_iv();
        let good = vec![cand(&space, 1.0), cand(&space, 2.0)];
        assert!(validate_ranked(&space, &good, 5).is_ok());
        assert!(validate_ranked(&space, &[], 5).is_err());
        assert!(validate_ranked(&space, &good, 1).is_err());
        let unsorted = vec![cand(&space, 2.0), cand(&space, 1.0)];
        assert!(validate_ranked(&space, &unsorted, 5).is_err());
    }

    #[test]
    fn same_ranking_is_bitwise() {
        let space = ConfSpace::table_iv();
        let a = vec![cand(&space, 0.0)];
        assert!(same_ranking(&a, &a.clone()));
        assert!(!same_ranking(&a, &[cand(&space, -0.0)]));
        assert!(!same_ranking(&a, &[]));
    }

    #[test]
    fn tally_counts_and_keeps_reasons() {
        let mut t = Tally::default();
        t.count(Ok(()));
        t.expect(false, || "boom".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.reasons(), ["boom".to_string()]);
    }
}
