//! Configuration knobs (paper Table IV) and the configuration search space.
//!
//! LITE tunes sixteen performance-critical Spark knobs. Each knob has a
//! typed domain; [`ConfSpace`] owns the knob definitions and provides
//! sampling, validation and the normalized `R^16` encoding every learning
//! component (NECS, GP, DDPG, random forest) consumes.

use rand::Rng;
use std::fmt;

/// Identifier of a tunable knob. The discriminant order is the canonical
/// feature order of the configuration vector `o_i` throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Knob {
    DefaultParallelism,
    DriverCores,
    DriverMaxResultSizeMb,
    DriverMemoryGb,
    DriverMemoryOverheadMb,
    ExecutorCores,
    ExecutorMemoryGb,
    ExecutorMemoryOverheadMb,
    ExecutorInstances,
    FilesMaxPartitionMb,
    MemoryFraction,
    MemoryStorageFraction,
    ReducerMaxSizeInFlightMb,
    ShuffleCompress,
    ShuffleFileBufferKb,
    ShuffleSpillCompress,
}

/// Number of knobs tuned by LITE (paper Table IV).
pub const NUM_KNOBS: usize = 16;

/// All knobs in canonical feature order.
pub const ALL_KNOBS: [Knob; NUM_KNOBS] = [
    Knob::DefaultParallelism,
    Knob::DriverCores,
    Knob::DriverMaxResultSizeMb,
    Knob::DriverMemoryGb,
    Knob::DriverMemoryOverheadMb,
    Knob::ExecutorCores,
    Knob::ExecutorMemoryGb,
    Knob::ExecutorMemoryOverheadMb,
    Knob::ExecutorInstances,
    Knob::FilesMaxPartitionMb,
    Knob::MemoryFraction,
    Knob::MemoryStorageFraction,
    Knob::ReducerMaxSizeInFlightMb,
    Knob::ShuffleCompress,
    Knob::ShuffleFileBufferKb,
    Knob::ShuffleSpillCompress,
];

impl Knob {
    /// The Spark property name, e.g. `spark.executor.cores`.
    pub fn spark_name(self) -> &'static str {
        match self {
            Knob::DefaultParallelism => "spark.default.parallelism",
            Knob::DriverCores => "spark.driver.cores",
            Knob::DriverMaxResultSizeMb => "spark.driver.maxResultSize",
            Knob::DriverMemoryGb => "spark.driver.memory",
            Knob::DriverMemoryOverheadMb => "spark.driver.memoryOverhead",
            Knob::ExecutorCores => "spark.executor.cores",
            Knob::ExecutorMemoryGb => "spark.executor.memory",
            Knob::ExecutorMemoryOverheadMb => "spark.executor.memoryOverhead",
            Knob::ExecutorInstances => "spark.executor.instances",
            Knob::FilesMaxPartitionMb => "spark.files.maxPartitionBytes",
            Knob::MemoryFraction => "spark.memory.fraction",
            Knob::MemoryStorageFraction => "spark.memory.storageFraction",
            Knob::ReducerMaxSizeInFlightMb => "spark.reducer.maxSizeInFlight",
            Knob::ShuffleCompress => "spark.shuffle.compress",
            Knob::ShuffleFileBufferKb => "spark.shuffle.file.buffer",
            Knob::ShuffleSpillCompress => "spark.shuffle.spill.compress",
        }
    }

    /// Index of this knob in the canonical feature order. `ALL_KNOBS`
    /// mirrors the declaration order, so the discriminant is the index
    /// (checked by a unit test).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Knob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spark_name())
    }
}

/// Value domain of a knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnobDomain {
    /// Integer range `[min, max]` with a step (inclusive of both ends).
    Int { min: i64, max: i64, step: i64 },
    /// Continuous range `[min, max]`, discretized to `steps` grid points
    /// when enumerated.
    Frac { min: f64, max: f64 },
    /// Boolean flag (encoded as 0.0 / 1.0).
    Bool,
}

impl KnobDomain {
    /// Clamp and snap an arbitrary raw value into this domain.
    pub fn clamp(&self, v: f64) -> f64 {
        match *self {
            KnobDomain::Int { min, max, step } => {
                let v = v.clamp(min as f64, max as f64);
                let snapped = min + (((v - min as f64) / step as f64).round() as i64) * step;
                snapped.clamp(min, max) as f64
            }
            KnobDomain::Frac { min, max } => v.clamp(min, max),
            KnobDomain::Bool => {
                if v >= 0.5 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Map a domain value to `[0, 1]`.
    pub fn normalize(&self, v: f64) -> f64 {
        match *self {
            KnobDomain::Int { min, max, .. } => {
                if max == min {
                    0.0
                } else {
                    (v - min as f64) / (max - min) as f64
                }
            }
            KnobDomain::Frac { min, max } => (v - min) / (max - min),
            KnobDomain::Bool => v,
        }
    }

    /// Inverse of [`KnobDomain::normalize`]; snaps into the domain.
    pub fn denormalize(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match *self {
            KnobDomain::Int { min, max, .. } => self.clamp(min as f64 + u * (max - min) as f64),
            KnobDomain::Frac { min, max } => min + u * (max - min),
            KnobDomain::Bool => self.clamp(u),
        }
    }

    /// Uniformly sample a valid value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            KnobDomain::Int { min, max, step } => {
                let n = (max - min) / step;
                let k = rng.gen_range(0..=n);
                (min + k * step) as f64
            }
            KnobDomain::Frac { min, max } => rng.gen_range(min..=max),
            KnobDomain::Bool => {
                if rng.gen_bool(0.5) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Whether `v` is a valid member of the domain.
    pub fn contains(&self, v: f64) -> bool {
        match *self {
            KnobDomain::Int { min, max, step } => {
                let iv = v.round() as i64;
                (v - iv as f64).abs() < 1e-9 && iv >= min && iv <= max && (iv - min) % step == 0
            }
            KnobDomain::Frac { min, max } => v >= min - 1e-12 && v <= max + 1e-12,
            KnobDomain::Bool => v == 0.0 || v == 1.0,
        }
    }
}

/// A concrete assignment of all sixteen knobs, in canonical order.
///
/// Values are stored as `f64` (integers and booleans are exact in `f64`
/// over these ranges), which keeps the type directly usable as the
/// configuration feature vector `o_i` of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct SparkConf {
    values: [f64; NUM_KNOBS],
}

impl SparkConf {
    /// Build from a raw value array in canonical knob order. Values are
    /// clamped into their domains by `space`.
    pub fn from_values(space: &ConfSpace, values: [f64; NUM_KNOBS]) -> Self {
        let mut out = values;
        for (i, k) in ALL_KNOBS.iter().enumerate() {
            out[i] = space.domain(*k).clamp(values[i]);
        }
        SparkConf { values: out }
    }

    /// Value of a knob.
    pub fn get(&self, k: Knob) -> f64 {
        self.values[k.index()]
    }

    /// Set a knob value (clamped into its domain).
    pub fn set(&mut self, space: &ConfSpace, k: Knob, v: f64) {
        self.values[k.index()] = space.domain(k).clamp(v);
    }

    /// The raw value vector in canonical order.
    pub fn values(&self) -> &[f64; NUM_KNOBS] {
        &self.values
    }

    /// Normalized `[0,1]^16` encoding used as model input.
    pub fn normalized(&self, space: &ConfSpace) -> [f64; NUM_KNOBS] {
        let mut out = [0.0; NUM_KNOBS];
        for (i, k) in ALL_KNOBS.iter().enumerate() {
            out[i] = space.domain(*k).normalize(self.values[i]);
        }
        out
    }

    /// Convenience accessors used pervasively by the executor.
    pub fn executor_cores(&self) -> u32 {
        self.get(Knob::ExecutorCores) as u32
    }
    /// Executor heap size in bytes.
    pub fn executor_memory_bytes(&self) -> u64 {
        (self.get(Knob::ExecutorMemoryGb) * crate::cluster::GB) as u64
    }
    /// Executor off-heap overhead in bytes.
    pub fn executor_overhead_bytes(&self) -> u64 {
        (self.get(Knob::ExecutorMemoryOverheadMb) * crate::cluster::MB) as u64
    }
    /// Requested executor count.
    pub fn executor_instances(&self) -> u32 {
        self.get(Knob::ExecutorInstances) as u32
    }
    /// Default parallelism (shuffle partition count).
    pub fn default_parallelism(&self) -> u32 {
        self.get(Knob::DefaultParallelism) as u32
    }
    /// Whether shuffle outputs are compressed.
    pub fn shuffle_compress(&self) -> bool {
        self.get(Knob::ShuffleCompress) >= 0.5
    }
    /// Whether spilled data is compressed.
    pub fn shuffle_spill_compress(&self) -> bool {
        self.get(Knob::ShuffleSpillCompress) >= 0.5
    }
}

impl fmt::Display for SparkConf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, k) in ALL_KNOBS.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}={}", k.spark_name(), self.values[i])?;
        }
        Ok(())
    }
}

/// The configuration search space: domains plus defaults for all knobs.
#[derive(Debug, Clone)]
pub struct ConfSpace {
    domains: [KnobDomain; NUM_KNOBS],
    defaults: [f64; NUM_KNOBS],
}

impl ConfSpace {
    /// The sixteen-knob space of paper Table IV with Spark-documentation
    /// defaults. Ranges follow common tuning-guide bounds for mid-size
    /// clusters.
    pub fn table_iv() -> Self {
        use Knob::*;
        use KnobDomain::*;
        let mut domains = [Bool; NUM_KNOBS];
        let mut defaults = [0.0; NUM_KNOBS];
        let mut def = |k: Knob, d: KnobDomain, v: f64| {
            domains[k.index()] = d;
            defaults[k.index()] = v;
        };
        def(DefaultParallelism, Int { min: 8, max: 512, step: 8 }, 64.0);
        def(DriverCores, Int { min: 1, max: 8, step: 1 }, 1.0);
        def(DriverMaxResultSizeMb, Int { min: 256, max: 4096, step: 256 }, 1024.0);
        def(DriverMemoryGb, Int { min: 1, max: 16, step: 1 }, 1.0);
        def(DriverMemoryOverheadMb, Int { min: 256, max: 4096, step: 256 }, 512.0);
        def(ExecutorCores, Int { min: 1, max: 16, step: 1 }, 4.0);
        def(ExecutorMemoryGb, Int { min: 1, max: 32, step: 1 }, 2.0);
        def(ExecutorMemoryOverheadMb, Int { min: 256, max: 4096, step: 256 }, 512.0);
        def(ExecutorInstances, Int { min: 1, max: 48, step: 1 }, 2.0);
        def(FilesMaxPartitionMb, Int { min: 16, max: 512, step: 16 }, 128.0);
        def(MemoryFraction, Frac { min: 0.3, max: 0.9 }, 0.6);
        def(MemoryStorageFraction, Frac { min: 0.1, max: 0.9 }, 0.5);
        def(ReducerMaxSizeInFlightMb, Int { min: 8, max: 128, step: 8 }, 48.0);
        def(ShuffleCompress, Bool, 1.0);
        def(ShuffleFileBufferKb, Int { min: 16, max: 256, step: 16 }, 32.0);
        def(ShuffleSpillCompress, Bool, 1.0);
        ConfSpace { domains, defaults }
    }

    /// Domain of a knob.
    pub fn domain(&self, k: Knob) -> &KnobDomain {
        &self.domains[k.index()]
    }

    /// The Spark default configuration.
    pub fn default_conf(&self) -> SparkConf {
        SparkConf { values: self.defaults }
    }

    /// Sample a uniformly random valid configuration.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SparkConf {
        let mut values = [0.0; NUM_KNOBS];
        for (i, d) in self.domains.iter().enumerate() {
            values[i] = d.sample(rng);
        }
        SparkConf { values }
    }

    /// Decode a normalized `[0,1]^16` point into a valid configuration.
    pub fn decode(&self, u: &[f64; NUM_KNOBS]) -> SparkConf {
        let mut values = [0.0; NUM_KNOBS];
        for (i, d) in self.domains.iter().enumerate() {
            values[i] = d.denormalize(u[i]);
        }
        SparkConf { values }
    }

    /// Whether every knob value of `conf` is a member of its domain.
    pub fn is_valid(&self, conf: &SparkConf) -> bool {
        self.domains.iter().zip(conf.values.iter()).all(|(d, v)| d.contains(*v))
    }

    /// Sample a configuration inside a per-knob box `[lo_i, hi_i]` given in
    /// *raw* knob units; used by Adaptive Candidate Generation. Boxes are
    /// intersected with the knob domains.
    pub fn sample_in_box<R: Rng + ?Sized>(
        &self,
        lo: &[f64; NUM_KNOBS],
        hi: &[f64; NUM_KNOBS],
        rng: &mut R,
    ) -> SparkConf {
        let mut values = [0.0; NUM_KNOBS];
        for (i, d) in self.domains.iter().enumerate() {
            let (l, h) = (lo[i].min(hi[i]), lo[i].max(hi[i]));
            let v = if h > l { rng.gen_range(l..=h) } else { l };
            values[i] = d.clamp(v);
        }
        SparkConf { values }
    }

    /// A Latin-hypercube sample of `n` configurations (used by the
    /// experimental-search baselines).
    pub fn latin_hypercube<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<SparkConf> {
        let mut strata: Vec<Vec<usize>> = (0..NUM_KNOBS)
            .map(|_| {
                let mut idx: Vec<usize> = (0..n).collect();
                // Fisher–Yates shuffle of stratum assignment per dimension.
                for i in (1..n).rev() {
                    let j = rng.gen_range(0..=i);
                    idx.swap(i, j);
                }
                idx
            })
            .collect();
        (0..n)
            .map(|s| {
                let mut u = [0.0; NUM_KNOBS];
                for (dim, item) in u.iter_mut().enumerate() {
                    let stratum = strata[dim].pop().unwrap_or(s);
                    *item = (stratum as f64 + rng.gen_range(0.0..1.0)) / n as f64;
                }
                self.decode(&u)
            })
            .collect()
    }

    /// An axis-aligned grid sample: `per_knob` evenly spaced values per
    /// knob, crossed at random (full cross product is `~10^16`).
    pub fn grid_sample<R: Rng + ?Sized>(
        &self,
        per_knob: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<SparkConf> {
        (0..n)
            .map(|_| {
                let mut u = [0.0; NUM_KNOBS];
                for item in u.iter_mut() {
                    let g = rng.gen_range(0..per_knob);
                    *item = if per_knob == 1 { 0.5 } else { g as f64 / (per_knob - 1) as f64 };
                }
                self.decode(&u)
            })
            .collect()
    }
}

impl Default for ConfSpace {
    fn default() -> Self {
        Self::table_iv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn space_has_sixteen_knobs_in_table_iv() {
        assert_eq!(ALL_KNOBS.len(), 16);
        let names: Vec<&str> = ALL_KNOBS.iter().map(|k| k.spark_name()).collect();
        assert!(names.contains(&"spark.default.parallelism"));
        assert!(names.contains(&"spark.shuffle.compress"));
        // Canonical order is stable: index roundtrips.
        for (i, k) in ALL_KNOBS.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn default_conf_is_valid() {
        let s = ConfSpace::table_iv();
        assert!(s.is_valid(&s.default_conf()));
        assert_eq!(s.default_conf().executor_cores(), 4);
        assert!(s.default_conf().shuffle_compress());
    }

    #[test]
    fn sampling_yields_valid_confs() {
        let s = ConfSpace::table_iv();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let c = s.sample(&mut rng);
            assert!(s.is_valid(&c), "invalid sample: {c}");
        }
    }

    #[test]
    fn normalize_denormalize_roundtrip_on_grid_values() {
        let s = ConfSpace::table_iv();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let c = s.sample(&mut rng);
            let u = c.normalized(&s);
            let back = s.decode(&u);
            for (a, b) in c.values().iter().zip(back.values().iter()) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn clamp_snaps_to_step() {
        let d = KnobDomain::Int { min: 8, max: 512, step: 8 };
        assert_eq!(d.clamp(13.0), 16.0);
        assert_eq!(d.clamp(-5.0), 8.0);
        assert_eq!(d.clamp(9999.0), 512.0);
        assert!(d.contains(64.0));
        assert!(!d.contains(63.0));
    }

    #[test]
    fn bool_domain_encodes_zero_one() {
        let d = KnobDomain::Bool;
        assert_eq!(d.clamp(0.7), 1.0);
        assert_eq!(d.clamp(0.2), 0.0);
    }

    #[test]
    fn latin_hypercube_covers_strata() {
        let s = ConfSpace::table_iv();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 16;
        let sample = s.latin_hypercube(n, &mut rng);
        assert_eq!(sample.len(), n);
        // For the continuous fraction knob, all strata are hit exactly once.
        let mut strata = vec![0usize; n];
        for c in &sample {
            let u = s.domain(Knob::MemoryFraction).normalize(c.get(Knob::MemoryFraction));
            let b = ((u * n as f64).floor() as usize).min(n - 1);
            strata[b] += 1;
        }
        assert!(strata.iter().all(|&c| c == 1), "strata counts {strata:?}");
    }

    #[test]
    fn sample_in_box_respects_bounds_and_domain() {
        let s = ConfSpace::table_iv();
        let mut rng = StdRng::seed_from_u64(5);
        let mut lo = *s.default_conf().values();
        let mut hi = lo;
        lo[Knob::ExecutorCores.index()] = 2.0;
        hi[Knob::ExecutorCores.index()] = 6.0;
        for _ in 0..100 {
            let c = s.sample_in_box(&lo, &hi, &mut rng);
            assert!(s.is_valid(&c));
            let v = c.get(Knob::ExecutorCores);
            assert!((2.0..=6.0).contains(&v));
        }
    }

    #[test]
    fn set_clamps_into_domain() {
        let s = ConfSpace::table_iv();
        let mut c = s.default_conf();
        c.set(&s, Knob::ExecutorMemoryGb, 500.0);
        assert_eq!(c.get(Knob::ExecutorMemoryGb), 32.0);
    }
}
