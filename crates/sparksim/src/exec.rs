//! The discrete-event execution engine.
//!
//! [`simulate`] executes a [`JobPlan`] on a [`ClusterSpec`] under a
//! [`SparkConf`], stage by stage. Within a stage, tasks are placed on
//! executor slots by an event-driven earliest-available-slot scheduler, so
//! task-time skew produces realistic straggler and wave effects. The cost
//! model ties every Table IV knob to a physical mechanism:
//!
//! | knob | mechanism |
//! |---|---|
//! | `default.parallelism`, `files.maxPartitionBytes` | task count → wave count, per-task partition size → spill/OOM |
//! | `executor.cores` | slots per executor vs memory-bandwidth contention and GC pressure |
//! | `executor.memory`/`memoryOverhead`/`instances` | executor packing feasibility, heap per task |
//! | `memory.fraction`, `memory.storageFraction` | unified-memory split → spills vs cache hit rate |
//! | `reducer.maxSizeInFlight` | fetch round-trips vs fetch-buffer memory |
//! | `shuffle.compress`, `shuffle.spill.compress` | wire/disk bytes vs codec CPU |
//! | `shuffle.file.buffer` | flush count on shuffle writes |
//! | `driver.*` | scheduling throughput, collect bottleneck, result-size failures |
//!
//! All randomness (task skew, stragglers, run noise) derives from the
//! caller's seed via per-task hash mixing, so results are deterministic and
//! independent of scheduling order.

use crate::cluster::{ClusterSpec, GB, MB};
use crate::conf::{Knob, SparkConf};
use crate::fault::{mix64, unit64};
use crate::plan::{InputSource, JobPlan, StagePlan};
use crate::result::{FailureReason, RunResult, StageStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reserved JVM memory before the unified pool, as in Spark (300 MB).
const RESERVED_HEAP_BYTES: f64 = 300.0 * MB;
/// Deserialization expansion factor from on-disk to in-heap records.
const DESER_FACTOR: f64 = 1.15;
/// Compression ratio achieved by the shuffle codec (lz4-like).
const COMPRESS_RATIO: f64 = 0.35;
/// CPU cycles per byte to compress.
const COMPRESS_CYCLES: f64 = 1.6;
/// CPU cycles per byte to decompress.
const DECOMPRESS_CYCLES: f64 = 0.6;
/// Fixed per-task launch overhead in seconds (deserialize closure, JIT).
const TASK_LAUNCH_S: f64 = 0.015;
/// Latency of one shuffle fetch round in seconds.
const FETCH_ROUND_S: f64 = 0.04;
/// A task OOMs when its heap demand exceeds this multiple of its share.
const OOM_HEADROOM: f64 = 3.0;

/// Executor allocation derived from knobs and cluster capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// Executors granted (≤ requested instances).
    pub executors: u32,
    /// Total task slots (`executors * executor.cores`).
    pub slots: u32,
    /// Average executors per node (density; drives shared-resource
    /// contention).
    pub execs_per_node: f64,
}

/// Compute the executor allocation for a configuration on a cluster.
///
/// The driver is co-located on node 0 and its heap+overhead is subtracted
/// there; each executor needs `executor.memory + memoryOverhead` bytes and
/// `executor.cores` cores on one node. Returns `None` when not a single
/// executor fits.
pub fn allocate(cluster: &ClusterSpec, conf: &SparkConf) -> Option<Allocation> {
    let exec_cores = conf.executor_cores().max(1);
    let footprint = (conf.executor_memory_bytes() + conf.executor_overhead_bytes()) as f64;
    let driver_footprint =
        conf.get(Knob::DriverMemoryGb) * GB + conf.get(Knob::DriverMemoryOverheadMb) * MB;
    let node_mem = cluster.mem_bytes_per_node() as f64 * 0.95;
    let mut total_cap: u64 = 0;
    for node in 0..cluster.nodes {
        let avail_mem = if node == 0 { (node_mem - driver_footprint).max(0.0) } else { node_mem };
        let by_mem = (avail_mem / footprint).floor() as u64;
        let by_cores = (cluster.cores_per_node / exec_cores) as u64;
        total_cap += by_mem.min(by_cores);
    }
    let executors = (conf.executor_instances() as u64).min(total_cap) as u32;
    if executors == 0 {
        return None;
    }
    Some(Allocation {
        executors,
        slots: executors * exec_cores,
        execs_per_node: executors as f64 / cluster.nodes as f64,
    })
}

/// Pre-flight sanity check on a configuration, mirroring the static
/// validation a Spark operator (or admission controller) performs before
/// submitting a job: the allocation must be satisfiable, and the largest
/// plausible partition (scan partitions are bounded by
/// `files.maxPartitionBytes`, shuffle partitions by
/// `input / default.parallelism`) must fit comfortably in one task's heap
/// share. Uses only statically available quantities — input size,
/// configuration, cluster — never execution feedback.
pub fn preflight(
    cluster: &ClusterSpec,
    conf: &SparkConf,
    input_bytes: u64,
) -> Result<(), FailureReason> {
    if allocate(cluster, conf).is_none() {
        return Err(FailureReason::InfeasibleAllocation);
    }
    let scan_part = (input_bytes as f64).min(conf.get(Knob::FilesMaxPartitionMb) * MB);
    let shuffle_part = input_bytes as f64 / conf.default_parallelism().max(1) as f64;
    let est = scan_part.max(shuffle_part) * DESER_FACTOR;
    let heap_per_task =
        conf.executor_memory_bytes() as f64 * 0.9 / conf.executor_cores().max(1) as f64;
    if est > 2.0 * heap_per_task {
        return Err(FailureReason::ExecutorOom);
    }
    Ok(())
}

/// Standard normal via Box–Muller on two hash draws.
fn std_normal(h: u64) -> f64 {
    let u1 = unit64(mix64(h));
    let u2 = unit64(mix64(h ^ 0xdeadbeef));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// State threaded across stages of one job.
struct JobState {
    /// Bytes of storage-pool memory currently holding cached RDDs, per
    /// executor.
    storage_used_per_exec: f64,
    /// Fraction of the most recently cached dataset that fit in storage.
    last_cached_fraction: f64,
}

/// Per-stage outcome inside the engine.
struct StageOutcome {
    stats: StageStats,
    failure: Option<FailureReason>,
    end_time: f64,
}

/// Simulate a job and return its result. `seed` controls task skew,
/// stragglers and run noise; the same inputs always give the same output.
pub fn simulate(cluster: &ClusterSpec, conf: &SparkConf, plan: &JobPlan, seed: u64) -> RunResult {
    debug_assert!(plan.validate().is_ok(), "invalid plan: {:?}", plan.validate());
    let Some(alloc) = allocate(cluster, conf) else {
        return RunResult {
            total_time_s: 0.0,
            stages: Vec::new(),
            failure: Some(FailureReason::InfeasibleAllocation),
            executors: 0,
            slots: 0,
        };
    };

    let mut state = JobState { storage_used_per_exec: 0.0, last_cached_fraction: 1.0 };
    let mut stages = Vec::with_capacity(plan.stages.len());
    let mut clock = 0.0;
    let mut failure = None;

    for (stage_id, stage) in plan.stages.iter().enumerate() {
        let out = run_stage(cluster, conf, &alloc, stage, stage_id, &mut state, seed);
        clock += out.end_time;
        stages.push(out.stats);
        if let Some(f) = out.failure {
            failure = Some(f);
            break;
        }
    }

    // Job-level multiplicative noise (environment jitter).
    let noise = (0.04 * std_normal(mix64(seed ^ 0x5eed))).exp();
    let total_time_s = clock * noise;
    RunResult { total_time_s, stages, failure, executors: alloc.executors, slots: alloc.slots }
}

/// Number of tasks a stage launches under a configuration.
pub fn stage_task_count(conf: &SparkConf, stage: &StagePlan) -> u32 {
    if let Some(n) = stage.num_tasks_hint {
        return n.max(1);
    }
    match stage.input {
        InputSource::Hdfs => {
            let part = conf.get(Knob::FilesMaxPartitionMb) * MB;
            ((stage.input_bytes as f64 / part).ceil() as u32).max(1)
        }
        InputSource::Shuffle | InputSource::Cache => conf.default_parallelism().max(1),
    }
}

#[allow(clippy::too_many_lines)]
fn run_stage(
    cluster: &ClusterSpec,
    conf: &SparkConf,
    alloc: &Allocation,
    stage: &StagePlan,
    stage_id: usize,
    state: &mut JobState,
    seed: u64,
) -> StageOutcome {
    let exec_cores = conf.executor_cores().max(1) as f64;
    let heap = conf.executor_memory_bytes() as f64;
    let usable = (heap - RESERVED_HEAP_BYTES).max(64.0 * MB) * conf.get(Knob::MemoryFraction);
    let storage_reserved = usable * conf.get(Knob::MemoryStorageFraction);
    // Execution may evict cached blocks down to the protected storage
    // fraction: available execution memory per executor.
    let protected_storage = state.storage_used_per_exec.min(storage_reserved);
    let exec_pool = (usable - protected_storage).max(16.0 * MB);
    let exec_mem_per_task = exec_pool / exec_cores;
    let heap_per_task = heap * 0.9 / exec_cores;

    let tasks = stage_task_count(conf, stage);
    let bytes_task = stage.input_bytes as f64 / tasks as f64;
    let out_bytes_task = stage.shuffle_write_bytes as f64 / tasks as f64;

    let ghz = cluster.cpu_ghz * 1e9;
    let slots_per_node = alloc.execs_per_node * exec_cores;
    let active_per_node = slots_per_node.min(tasks as f64 / cluster.nodes as f64).max(1.0);
    let disk_rate_task = cluster.disk_bytes_per_sec() / active_per_node;
    let net_rate_task = cluster.net_bytes_per_sec() / active_per_node;

    let inflight = conf.get(Knob::ReducerMaxSizeInFlightMb) * MB;
    let compress = conf.shuffle_compress();

    // ------------------------------------------------------------------ read
    let mut cpu_cycles = bytes_task * stage.cycles_per_byte;
    let mut io_time = 0.0;
    let mut fetch_mem = 0.0;
    let mut cache_hit = 1.0;
    match stage.input {
        InputSource::Hdfs => {
            io_time += bytes_task / disk_rate_task;
        }
        InputSource::Shuffle => {
            let wire = bytes_task * if compress { COMPRESS_RATIO } else { 1.0 };
            let rounds = (wire / inflight).ceil().max(1.0);
            io_time += wire / net_rate_task + rounds * FETCH_ROUND_S;
            if compress {
                cpu_cycles += bytes_task * DECOMPRESS_CYCLES;
            }
            fetch_mem = inflight.min(wire);
        }
        InputSource::Cache => {
            cache_hit = state.last_cached_fraction;
            let mem_rate = cluster.mem_bandwidth_bytes_per_sec() / active_per_node.max(1.0);
            io_time += cache_hit * bytes_task / mem_rate;
            // Misses are recomputed from lineage: disk scan + 40 % extra CPU.
            let miss = (1.0 - cache_hit) * bytes_task;
            io_time += miss / disk_rate_task;
            cpu_cycles += miss * stage.cycles_per_byte * 0.4;
        }
    }

    // --------------------------------------------------------------- memory
    let working_set = bytes_task * DESER_FACTOR * stage.working_set_factor + fetch_mem;
    let partition_heap = bytes_task * DESER_FACTOR;
    if partition_heap + working_set.min(exec_mem_per_task) > heap_per_task * OOM_HEADROOM {
        // Unsplittable partition blows the heap: retries won't help.
        let stats = StageStats {
            stage_id,
            name: stage.name.clone(),
            duration_s: 0.0,
            num_tasks: tasks,
            input_bytes: stage.input_bytes,
            shuffle_read_bytes: if stage.input == InputSource::Shuffle {
                stage.input_bytes
            } else {
                0
            },
            shuffle_write_bytes: 0,
            spill_bytes: 0,
            gc_time_s: 0.0,
            peak_task_memory: (partition_heap + working_set) as u64,
            cached_fraction: cache_hit,
        };
        // Time burned before the 4th retry kills the job: a few waves.
        let end_time = 45.0 + 4.0 * bytes_task / disk_rate_task;
        return StageOutcome { stats, failure: Some(FailureReason::ExecutorOom), end_time };
    }

    let spill_per_task = (working_set - exec_mem_per_task).max(0.0);
    if spill_per_task > 0.0 {
        let disk_spill =
            spill_per_task * if conf.shuffle_spill_compress() { COMPRESS_RATIO } else { 1.0 };
        // Spilled bytes are written once and re-read once in the merge pass.
        io_time += 2.0 * disk_spill / disk_rate_task;
        if conf.shuffle_spill_compress() {
            cpu_cycles += spill_per_task * (COMPRESS_CYCLES + DECOMPRESS_CYCLES);
        }
    }

    // -------------------------------------------------------------- shuffle write
    if out_bytes_task > 0.0 {
        let disk_out = out_bytes_task * if compress { COMPRESS_RATIO } else { 1.0 };
        if compress {
            cpu_cycles += out_bytes_task * COMPRESS_CYCLES;
        }
        let buffer = conf.get(Knob::ShuffleFileBufferKb) * 1024.0;
        let flushes = (disk_out / buffer).ceil().max(1.0);
        io_time += disk_out / disk_rate_task + flushes * 2.0e-4;
    }

    // -------------------------------------------------------------- compute
    // Memory-bound fraction contends for node memory bandwidth.
    let per_core_demand = stage.mem_intensity * 4.0e9;
    let node_demand = per_core_demand * slots_per_node;
    let contention = (node_demand / cluster.mem_bandwidth_bytes_per_sec()).max(1.0);
    let cpu_time =
        cpu_cycles / ghz * ((1.0 - stage.mem_intensity) + stage.mem_intensity * contention);

    // GC pressure: heap demand per task near the per-task heap slice slows
    // the JVM; many cores sharing one heap raise pressure further.
    let heap_demand = partition_heap + working_set.min(exec_mem_per_task) + fetch_mem;
    let pressure = heap_demand / heap_per_task;
    let gc_factor = 1.0 + 0.8 * (pressure - 0.5).max(0.0).powf(1.5);
    let base_task_s = (cpu_time * gc_factor + io_time).max(1e-4) + TASK_LAUNCH_S;
    let gc_time_task = cpu_time * (gc_factor - 1.0);

    // ------------------------------------------------------- slot scheduling
    // Driver dispatches tasks at a rate bounded by its cores.
    let driver_cores = conf.get(Knob::DriverCores).max(1.0);
    let sched_delay = tasks as f64 / (driver_cores * 220.0);

    let mut slot_heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    for s in 0..alloc.slots {
        slot_heap.push(Reverse((0, s)));
    }
    let mut stage_end = 0.0f64;
    for t in 0..tasks {
        let h = mix64(seed ^ mix64((stage_id as u64) << 32 | t as u64));
        let sigma = stage.skew_sigma;
        let mut dur = base_task_s * (sigma * std_normal(h) - 0.5 * sigma * sigma).exp();
        // Occasional straggler (slow disk, bad JIT, skewy key).
        if unit64(mix64(h ^ 0x57a6)) < 1.2 / (tasks as f64 + 8.0) {
            dur *= 2.5;
        }
        let Reverse((free_ns, slot)) = slot_heap.pop().expect("slots non-empty");
        let start = free_ns as f64 * 1e-9;
        let end = start + dur;
        stage_end = stage_end.max(end);
        slot_heap.push(Reverse(((end * 1e9) as u64, slot)));
    }
    let duration = sched_delay + stage_end;

    // -------------------------------------------------------------- caching
    let mut cached_fraction = cache_hit;
    if stage.cache_output {
        let want_per_exec = stage.input_bytes as f64 * DESER_FACTOR / alloc.executors as f64;
        let room = (storage_reserved - state.storage_used_per_exec).max(0.0);
        let fit = (room / want_per_exec).min(1.0);
        state.storage_used_per_exec += want_per_exec.min(room);
        state.last_cached_fraction = fit;
        cached_fraction = fit;
    }

    // --------------------------------------------------------------- driver
    let mut failure = None;
    let mut driver_time = 0.0;
    if stage.result_bytes > 0 {
        let result = stage.result_bytes as f64;
        if result > conf.get(Knob::DriverMaxResultSizeMb) * MB {
            failure = Some(FailureReason::ResultTooLarge);
        } else if result * 2.5 > conf.get(Knob::DriverMemoryGb) * GB {
            failure = Some(FailureReason::DriverOom);
        } else {
            driver_time =
                result / cluster.net_bytes_per_sec() + result * 12.0 / (ghz * driver_cores.sqrt());
        }
    }

    let stats = StageStats {
        stage_id,
        name: stage.name.clone(),
        duration_s: duration + driver_time,
        num_tasks: tasks,
        input_bytes: stage.input_bytes,
        shuffle_read_bytes: if stage.input == InputSource::Shuffle { stage.input_bytes } else { 0 },
        shuffle_write_bytes: (stage.shuffle_write_bytes as f64
            * if compress { COMPRESS_RATIO } else { 1.0 }) as u64,
        spill_bytes: (spill_per_task * tasks as f64) as u64,
        gc_time_s: gc_time_task * tasks as f64,
        peak_task_memory: heap_demand as u64,
        cached_fraction,
    };
    StageOutcome { stats, failure, end_time: duration + driver_time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conf::ConfSpace;
    use crate::plan::{OpDag, OpKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn space() -> ConfSpace {
        ConfSpace::table_iv()
    }

    #[test]
    fn simulate_is_deterministic() {
        let cluster = ClusterSpec::cluster_b();
        let conf = space().default_conf();
        let plan = JobPlan::example_shuffle_job(256 << 20);
        let a = simulate(&cluster, &conf, &plan, 99);
        let b = simulate(&cluster, &conf, &plan, 99);
        assert_eq!(a, b);
        let c = simulate(&cluster, &conf, &plan, 100);
        assert_ne!(a.total_time_s, c.total_time_s);
    }

    #[test]
    fn more_data_takes_longer() {
        let cluster = ClusterSpec::cluster_b();
        let conf = space().default_conf();
        let small = simulate(&cluster, &conf, &JobPlan::example_shuffle_job(64 << 20), 1);
        let big = simulate(&cluster, &conf, &JobPlan::example_shuffle_job(2 << 30), 1);
        assert!(big.total_time_s > small.total_time_s);
    }

    #[test]
    fn allocation_respects_memory_and_cores() {
        let cluster = ClusterSpec::cluster_c(); // 16 GB nodes
        let s = space();
        let mut conf = s.default_conf();
        conf.set(&s, Knob::ExecutorMemoryGb, 32.0);
        conf.set(&s, Knob::ExecutorInstances, 8.0);
        // 32 GB executors never fit on 16 GB nodes.
        assert!(allocate(&cluster, &conf).is_none());

        conf.set(&s, Knob::ExecutorMemoryGb, 4.0);
        conf.set(&s, Knob::ExecutorCores, 8.0);
        let a = allocate(&cluster, &conf).unwrap();
        // Cores cap: 16/8 = 2 per node; 8 requested across 8 nodes is fine.
        assert_eq!(a.executors, 8);
        assert_eq!(a.slots, 64);
    }

    #[test]
    fn infeasible_allocation_fails_the_run() {
        let cluster = ClusterSpec::cluster_c();
        let s = space();
        let mut conf = s.default_conf();
        conf.set(&s, Knob::ExecutorMemoryGb, 32.0);
        let r = simulate(&cluster, &conf, &JobPlan::example_shuffle_job(1 << 20), 0);
        assert_eq!(r.failure, Some(FailureReason::InfeasibleAllocation));
        assert_eq!(r.capped_time(7200.0), 7200.0);
    }

    #[test]
    fn low_parallelism_on_big_data_causes_oom() {
        let cluster = ClusterSpec::cluster_c();
        let s = space();
        let mut conf = s.default_conf();
        conf.set(&s, Knob::DefaultParallelism, 8.0);
        conf.set(&s, Knob::ExecutorMemoryGb, 1.0);
        // 64 GB shuffled into 8 partitions -> 8 GB deserialized per task.
        let r = simulate(&cluster, &conf, &JobPlan::example_shuffle_job(64 << 30), 3);
        assert_eq!(r.failure, Some(FailureReason::ExecutorOom));
    }

    #[test]
    fn raising_parallelism_fixes_the_oom() {
        let cluster = ClusterSpec::cluster_c();
        let s = space();
        let mut conf = s.default_conf();
        conf.set(&s, Knob::DefaultParallelism, 8.0);
        conf.set(&s, Knob::ExecutorMemoryGb, 1.0);
        let plan = JobPlan::example_shuffle_job(64 << 30);
        assert!(!simulate(&cluster, &conf, &plan, 3).ok());
        conf.set(&s, Knob::DefaultParallelism, 512.0);
        conf.set(&s, Knob::ExecutorMemoryGb, 4.0);
        assert!(simulate(&cluster, &conf, &plan, 3).ok());
    }

    #[test]
    fn oversized_result_fails_driver() {
        let cluster = ClusterSpec::cluster_a();
        let s = space();
        let mut conf = s.default_conf();
        conf.set(&s, Knob::DriverMaxResultSizeMb, 256.0);
        let mut plan = JobPlan::example_shuffle_job(1 << 30);
        plan.stages[1].result_bytes = 2 << 30;
        let r = simulate(&cluster, &conf, &plan, 5);
        assert_eq!(r.failure, Some(FailureReason::ResultTooLarge));
        // Raising the limit (and driver memory) clears it.
        conf.set(&s, Knob::DriverMaxResultSizeMb, 4096.0);
        conf.set(&s, Knob::DriverMemoryGb, 16.0);
        let r2 = simulate(&cluster, &conf, &plan, 5);
        assert!(r2.ok(), "{:?}", r2.failure);
    }

    #[test]
    fn more_executors_speed_up_wide_jobs() {
        let cluster = ClusterSpec::cluster_c();
        let s = space();
        let plan = JobPlan::example_shuffle_job(8 << 30);
        let mut lo = s.default_conf();
        lo.set(&s, Knob::ExecutorInstances, 1.0);
        let mut hi = lo.clone();
        hi.set(&s, Knob::ExecutorInstances, 16.0);
        let t_lo = simulate(&cluster, &lo, &plan, 7).total_time_s;
        let t_hi = simulate(&cluster, &hi, &plan, 7).total_time_s;
        assert!(t_hi < t_lo, "16 exec {t_hi} !< 1 exec {t_lo}");
    }

    #[test]
    fn executor_cores_have_an_interior_optimum_on_membound_stages() {
        // A memory-bound stage should not scale linearly to 16 cores: GC and
        // bandwidth contention make some middle value best.
        let cluster = ClusterSpec::cluster_a();
        let s = space();
        let mut plan = JobPlan::example_shuffle_job(4 << 30);
        plan.stages[0].mem_intensity = 0.9;
        plan.stages[0].working_set_factor = 1.6;
        let mut times = Vec::new();
        for cores in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let mut c = s.default_conf();
            c.set(&s, Knob::ExecutorCores, cores);
            c.set(&s, Knob::ExecutorInstances, 1.0);
            times.push(simulate(&cluster, &c, &plan, 11).total_time_s);
        }
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(best < times[0], "multi-core should beat 1 core: {times:?}");
        assert!(
            best < *times.last().unwrap() * 1.001,
            "16 cores should not be strictly optimal: {times:?}"
        );
    }

    #[test]
    fn compression_helps_on_slow_networks() {
        let cluster = ClusterSpec::cluster_c(); // 1 Gbps
        let s = space();
        let mut plan = JobPlan::example_shuffle_job(8 << 30);
        plan.stages[1].working_set_factor = 0.2;
        let mut on = s.default_conf();
        on.set(&s, Knob::ShuffleCompress, 1.0);
        let mut off = on.clone();
        off.set(&s, Knob::ShuffleCompress, 0.0);
        let t_on = simulate(&cluster, &on, &plan, 13).total_time_s;
        let t_off = simulate(&cluster, &off, &plan, 13).total_time_s;
        assert!(t_on < t_off, "compressed {t_on} !< raw {t_off}");
    }

    #[test]
    fn tiny_inflight_slows_shuffle_reads() {
        let cluster = ClusterSpec::cluster_c();
        let s = space();
        let plan = JobPlan::example_shuffle_job(16 << 30);
        let mut small = s.default_conf();
        small.set(&s, Knob::ReducerMaxSizeInFlightMb, 8.0);
        small.set(&s, Knob::DefaultParallelism, 64.0);
        // Generous memory isolates the fetch-round effect from spills.
        small.set(&s, Knob::ExecutorMemoryGb, 8.0);
        let mut big = small.clone();
        big.set(&s, Knob::ReducerMaxSizeInFlightMb, 128.0);
        let t_small = simulate(&cluster, &small, &plan, 17).total_time_s;
        let t_big = simulate(&cluster, &big, &plan, 17).total_time_s;
        assert!(t_big < t_small, "128MB inflight {t_big} !< 8MB {t_small}");
    }

    #[test]
    fn spills_appear_when_memory_fraction_is_small() {
        let cluster = ClusterSpec::cluster_a();
        let s = space();
        let mut plan = JobPlan::example_shuffle_job(4 << 30);
        plan.stages[1].working_set_factor = 2.0;
        let mut lo = s.default_conf();
        lo.set(&s, Knob::MemoryFraction, 0.3);
        lo.set(&s, Knob::ExecutorMemoryGb, 2.0);
        let mut hi = lo.clone();
        hi.set(&s, Knob::MemoryFraction, 0.9);
        hi.set(&s, Knob::ExecutorMemoryGb, 16.0);
        let r_lo = simulate(&cluster, &lo, &plan, 19);
        let r_hi = simulate(&cluster, &hi, &plan, 19);
        assert!(r_lo.stages[1].spill_bytes > 0);
        assert!(r_hi.stages[1].spill_bytes < r_lo.stages[1].spill_bytes);
    }

    #[test]
    fn caching_is_partial_when_storage_pool_is_small() {
        let cluster = ClusterSpec::cluster_a();
        let s = space();
        let mut conf = s.default_conf();
        conf.set(&s, Knob::ExecutorMemoryGb, 1.0);
        conf.set(&s, Knob::MemoryStorageFraction, 0.1);
        let mut plan = JobPlan::example_shuffle_job(8 << 30);
        plan.stages[0].cache_output = true;
        let mut cached_reader =
            StagePlan::new("iter", OpDag::chain(&[OpKind::Cache, OpKind::MapPartitions]), 8 << 30);
        cached_reader.input = InputSource::Cache;
        plan.stages.push(cached_reader);
        let r = simulate(&cluster, &conf, &plan, 23);
        assert!(r.ok(), "{:?}", r.failure);
        assert!(r.stages[0].cached_fraction < 0.5, "{}", r.stages[0].cached_fraction);
        assert_eq!(r.stages[2].cached_fraction, r.stages[0].cached_fraction);
    }

    #[test]
    fn random_confs_produce_finite_nonnegative_times() {
        let cluster = ClusterSpec::cluster_b();
        let s = space();
        let mut rng = StdRng::seed_from_u64(31);
        for i in 0..100 {
            let conf = s.sample(&mut rng);
            let bytes = rng.gen_range(1u64 << 20..8u64 << 30);
            let r = simulate(&cluster, &conf, &JobPlan::example_shuffle_job(bytes), i);
            assert!(r.total_time_s.is_finite());
            assert!(r.total_time_s >= 0.0);
            for st in &r.stages {
                assert!(st.duration_s.is_finite() && st.duration_s >= 0.0);
            }
        }
    }

    #[test]
    fn stage_task_count_follows_sources() {
        let s = space();
        let mut conf = s.default_conf();
        conf.set(&s, Knob::FilesMaxPartitionMb, 64.0);
        conf.set(&s, Knob::DefaultParallelism, 40.0);
        let hdfs = StagePlan::new("scan", OpDag::chain(&[OpKind::TextFile]), 640 << 20);
        assert_eq!(stage_task_count(&conf, &hdfs), 10);
        let mut shuffle = hdfs.clone();
        shuffle.input = InputSource::Shuffle;
        assert_eq!(stage_task_count(&conf, &shuffle), 40);
        let mut hinted = hdfs;
        hinted.num_tasks_hint = Some(7);
        assert_eq!(stage_task_count(&conf, &hinted), 7);
    }
}
