//! Data specifications and the Table V size ladders.
//!
//! Every application instance runs on a concrete dataset described by a
//! [`DataSpec`]. Its four observable entries — rows, columns, iterations,
//! partitions — are exactly the paper's Table I data features (`d_i ∈ R^4`,
//! with zeros for entries an application does not define).

/// Which rung of the paper's data ladder an instance uses.
///
/// * `Train(k)`, `k = 0..4` — four small sizes per application per cluster,
///   chosen so one run takes on the order of a minute (Table V "training
///   data of small sizes").
/// * `Valid` — mid-scale validation data, noticeably larger than any
///   training size.
/// * `Test` — large test data used on cluster C to emulate production jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeTier {
    /// k-th training size, `k < 4`.
    Train(u8),
    /// Mid-scale validation size.
    Valid,
    /// Large-scale test size.
    Test,
}

impl SizeTier {
    /// All tiers in ladder order.
    pub fn all() -> [SizeTier; 6] {
        [
            SizeTier::Train(0),
            SizeTier::Train(1),
            SizeTier::Train(2),
            SizeTier::Train(3),
            SizeTier::Valid,
            SizeTier::Test,
        ]
    }

    /// The four training tiers.
    pub fn train_tiers() -> [SizeTier; 4] {
        [SizeTier::Train(0), SizeTier::Train(1), SizeTier::Train(2), SizeTier::Train(3)]
    }

    /// Scale factor relative to the smallest training size. The ladder
    /// spans ~3 orders of magnitude from `Train(0)` to `Test`, mirroring the
    /// paper's 40 MB-ish training inputs vs tens-of-GB test inputs.
    pub fn scale(self) -> f64 {
        match self {
            SizeTier::Train(k) => 1.0 + k.min(3) as f64, // 1x, 2x, 3x, 4x
            SizeTier::Valid => 24.0,
            SizeTier::Test => 400.0,
        }
    }
}

/// A concrete dataset for one application instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataSpec {
    /// Number of rows (records, ratings, edges, …).
    pub rows: u64,
    /// Number of columns/features (0 when not meaningful, e.g. sort keys).
    pub cols: u32,
    /// Number of iterations declared at data-generation time (0 when the
    /// application has no iteration parameter).
    pub iterations: u32,
    /// Number of partitions declared at data-generation time (0 when the
    /// generator leaves partitioning to Spark).
    pub partitions: u32,
    /// Bytes of the serialized input.
    pub bytes: u64,
}

impl DataSpec {
    /// Tabular data: `rows × cols` of 8-byte values plus a label.
    pub fn tabular(rows: u64, cols: u32, iterations: u32) -> Self {
        DataSpec { rows, cols, iterations, partitions: 0, bytes: rows * (cols as u64 + 1) * 8 }
    }

    /// Graph data: `edges` edges at ~16 bytes each; `rows` records the edge
    /// count (the paper records node counts for graph apps; either is a
    /// size surrogate).
    pub fn graph(edges: u64, iterations: u32) -> Self {
        DataSpec { rows: edges, cols: 2, iterations, partitions: 0, bytes: edges * 16 }
    }

    /// Key-value records of fixed width (Terasort-style 100-byte records).
    pub fn records(rows: u64, record_bytes: u32, partitions: u32) -> Self {
        DataSpec { rows, cols: 0, iterations: 0, partitions, bytes: rows * record_bytes as u64 }
    }

    /// The paper's four-dimensional data-feature vector
    /// `[#rows, #columns, #iterations, #partitions]` (Table I).
    pub fn features(&self) -> [f64; 4] {
        [self.rows as f64, self.cols as f64, self.iterations as f64, self.partitions as f64]
    }

    /// Log-scaled feature vector used by learned models (raw row counts
    /// span six orders of magnitude).
    pub fn log_features(&self) -> [f64; 4] {
        [
            (1.0 + self.rows as f64).ln(),
            self.cols as f64,
            self.iterations as f64,
            (1.0 + self.partitions as f64).ln(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone() {
        let scales: Vec<f64> = SizeTier::all().iter().map(|t| t.scale()).collect();
        for w in scales.windows(2) {
            assert!(w[1] > w[0], "ladder not increasing: {scales:?}");
        }
        // Test data is much larger than any training size.
        assert!(SizeTier::Test.scale() / SizeTier::Train(3).scale() > 50.0);
    }

    #[test]
    fn tabular_bytes_account_for_label() {
        let d = DataSpec::tabular(1000, 10, 5);
        assert_eq!(d.bytes, 1000 * 11 * 8);
        assert_eq!(d.features(), [1000.0, 10.0, 5.0, 0.0]);
    }

    #[test]
    fn graph_and_records_fill_optional_entries_with_zero() {
        let g = DataSpec::graph(500, 8);
        assert_eq!(g.features()[2], 8.0);
        assert_eq!(g.features()[3], 0.0);
        let r = DataSpec::records(100, 100, 16);
        assert_eq!(r.features()[1], 0.0);
        assert_eq!(r.features()[3], 16.0);
    }

    #[test]
    fn log_features_are_finite_for_zero_entries() {
        let d = DataSpec::records(0, 100, 0);
        assert!(d.log_features().iter().all(|v| v.is_finite()));
    }
}
