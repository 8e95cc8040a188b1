//! Simulation outcomes: per-stage statistics and job-level results.

/// Why a simulated run failed. Failed runs are charged the 7200 s cap in
/// the paper's ETR metric (Eq. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// No executor fits the requested cores/memory on any node.
    InfeasibleAllocation,
    /// A task's working set exceeded the executor heap beyond the spill
    /// safety margin and retries were exhausted.
    ExecutorOom,
    /// Collected results exceeded `spark.driver.maxResultSize`.
    ResultTooLarge,
    /// Collected results overwhelmed the driver heap.
    DriverOom,
}

impl FailureReason {
    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FailureReason::InfeasibleAllocation => "infeasible-allocation",
            FailureReason::ExecutorOom => "executor-oom",
            FailureReason::ResultTooLarge => "result-too-large",
            FailureReason::DriverOom => "driver-oom",
        }
    }
}

/// Spark-monitor-UI-style statistics for one executed stage.
///
/// These are the "stage-level data statistics" the paper's `S`-feature
/// baselines consume; NECS itself deliberately does *not* use them (they
/// are only observable after running on the real input).
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage index within the job.
    pub stage_id: usize,
    /// Stage name from the plan.
    pub name: String,
    /// Wall-clock duration of the stage in seconds.
    pub duration_s: f64,
    /// Number of tasks launched.
    pub num_tasks: u32,
    /// Bytes read by the stage.
    pub input_bytes: u64,
    /// Bytes fetched over the network from the previous shuffle.
    pub shuffle_read_bytes: u64,
    /// Bytes written to shuffle files (post-compression).
    pub shuffle_write_bytes: u64,
    /// Bytes spilled to disk by sort/aggregate buffers.
    pub spill_bytes: u64,
    /// Estimated time lost to garbage collection, in seconds.
    pub gc_time_s: f64,
    /// Peak per-task execution-memory demand in bytes.
    pub peak_task_memory: u64,
    /// Fraction of the stage's cached output that actually fit in the
    /// storage pool (1.0 when not caching or fully cached).
    pub cached_fraction: f64,
}

/// Result of simulating one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Total simulated wall-clock time in seconds (including scheduler and
    /// driver time). For failed runs this is the time until failure.
    pub total_time_s: f64,
    /// Per-stage statistics in execution order (stages actually started).
    pub stages: Vec<StageStats>,
    /// Failure, if any.
    pub failure: Option<FailureReason>,
    /// Number of executors the allocator granted.
    pub executors: u32,
    /// Task slots (`executors * executor.cores`).
    pub slots: u32,
}

impl RunResult {
    /// Whether the run completed successfully.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// Execution time with the paper's failure/time cap applied:
    /// failed or over-cap runs count as `cap_s` (7200 s in the paper).
    pub fn capped_time(&self, cap_s: f64) -> f64 {
        if self.failure.is_some() {
            cap_s
        } else {
            self.total_time_s.min(cap_s)
        }
    }

    /// The "inner status summary" vector used as DDPG state (mirrors the
    /// runtime metrics CDBTune-style tuners read from the engine):
    /// `[log-time, waves, spill-ratio, shuffle-ratio, gc-ratio, cache-hit,
    ///   slot-utilization, failure-flag]`.
    pub fn inner_status(&self) -> [f64; 8] {
        let total_input: u64 = self.stages.iter().map(|s| s.input_bytes).sum();
        let spill: u64 = self.stages.iter().map(|s| s.spill_bytes).sum();
        let shuffle: u64 = self.stages.iter().map(|s| s.shuffle_read_bytes).sum();
        let gc: f64 = self.stages.iter().map(|s| s.gc_time_s).sum();
        let dur: f64 = self.stages.iter().map(|s| s.duration_s).sum::<f64>().max(1e-9);
        let tasks: u32 = self.stages.iter().map(|s| s.num_tasks).sum();
        let waves = if self.slots > 0 { tasks as f64 / self.slots as f64 } else { 0.0 };
        let cache = if self.stages.is_empty() {
            1.0
        } else {
            self.stages.iter().map(|s| s.cached_fraction).sum::<f64>() / self.stages.len() as f64
        };
        [
            (1.0 + self.total_time_s).ln(),
            waves,
            spill as f64 / (total_input.max(1)) as f64,
            shuffle as f64 / (total_input.max(1)) as f64,
            gc / dur,
            cache,
            (tasks as f64 / (self.slots.max(1) as f64 * self.stages.len().max(1) as f64)).min(4.0),
            if self.failure.is_some() { 1.0 } else { 0.0 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(duration_s: f64) -> StageStats {
        StageStats {
            stage_id: 0,
            name: "s".into(),
            duration_s,
            num_tasks: 8,
            input_bytes: 100,
            shuffle_read_bytes: 10,
            shuffle_write_bytes: 10,
            spill_bytes: 0,
            gc_time_s: 0.0,
            peak_task_memory: 1,
            cached_fraction: 1.0,
        }
    }

    #[test]
    fn capped_time_applies_cap_on_failure() {
        let ok = RunResult {
            total_time_s: 100.0,
            stages: vec![stage(100.0)],
            failure: None,
            executors: 2,
            slots: 8,
        };
        assert_eq!(ok.capped_time(7200.0), 100.0);

        let failed = RunResult { failure: Some(FailureReason::ExecutorOom), ..ok.clone() };
        assert_eq!(failed.capped_time(7200.0), 7200.0);

        let slow = RunResult { total_time_s: 9000.0, ..ok };
        assert_eq!(slow.capped_time(7200.0), 7200.0);
    }

    #[test]
    fn inner_status_is_finite_and_flags_failure() {
        let r = RunResult {
            total_time_s: 42.0,
            stages: vec![stage(21.0), stage(21.0)],
            failure: Some(FailureReason::DriverOom),
            executors: 2,
            slots: 8,
        };
        let s = r.inner_status();
        assert!(s.iter().all(|v| v.is_finite()));
        assert_eq!(s[7], 1.0);
    }

    #[test]
    fn inner_status_handles_empty_run() {
        let r = RunResult {
            total_time_s: 0.0,
            stages: vec![],
            failure: Some(FailureReason::InfeasibleAllocation),
            executors: 0,
            slots: 0,
        };
        let s = r.inner_status();
        assert!(s.iter().all(|v| v.is_finite()));
    }
}
