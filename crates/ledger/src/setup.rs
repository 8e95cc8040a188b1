//! Set-up: corpus simulation, offline training, retrieval index, service
//! start and the pre-simulated feedback pool — "nothing → serving".
//!
//! Every workload runs the same service shape (one worker, one shard,
//! response cache on, batch-triggered updates only), so at most two
//! threads are runnable at any time: client + worker, client + reactor, or
//! — during an adapt block — the updater beside one of those.
//!
//! Threads are placed ([`place_client`], [`place_servers`]): the client
//! and the worker — a closed loop at depth 1, so never runnable together —
//! share the first CPU, the updater and the reactor take the second. A
//! hand-off between
//! two CPUs of a VM wakes a halted vCPU through the host; on the box this
//! was built on that cost moved `warm_miss` p50 between 0.60 and 0.90 ms
//! for whole half hours while single-threaded work (`build_s`) stood
//! still. On one CPU the hand-off is a context switch, and what remains
//! is the code's own cost.

use std::sync::{Arc, OnceLock};

use lite_core::amu::AmuConfig;
use lite_core::experiment::{splitmix, Dataset, DatasetBuilder};
use lite_core::necs::NecsConfig;
use lite_core::recommend::LiteTuner;
use lite_obs::{Registry, Tracer};
use lite_rag::tuner::{RagConfig, RagTuner};
use lite_serve::net::serve_tcp;
use lite_serve::{
    Client, ClientBuilder, DriftConfig, ModelSnapshot, ProtocolConfig, ServeConfig, Service,
    ServiceHandle, TcpServer,
};
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, SparkConf};
use lite_sparksim::exec::simulate;
use lite_sparksim::result::RunResult;
use lite_workloads::apps::{build_job, AppId};
use lite_workloads::data::{DataSpec, SizeTier};

use crate::gen::{CORPUS_SEED, POOL_SEED};
use crate::Workload;

/// Whole-response cache entries (one shard).
pub const RESPONSE_CACHE: usize = 4096;
/// Feedback instances that trigger one background update.
pub const UPDATE_BATCH: usize = 400;
/// Threads that can be runnable at once (see the module docs).
pub const RUNNABLE_THREADS: usize = 2;
/// Epochs of the offline model the service starts from.
pub const OFFLINE_EPOCHS: usize = 4;
/// Pipelining depth of the wire client (the server's default window).
pub const PIPELINE_DEPTH: usize = 32;
/// Pre-simulated runs in the feedback pool; one adapt block consumes a
/// prefix of it (wrapping if a seed's runs are unusually short).
const POOL_RUNS: usize = 96;

/// The three apps `tuning_loop` keeps hot.
pub const HOT_APPS: [AppId; 3] = [AppId::Sort, AppId::KMeans, AppId::PageRank];
/// The apps `cold_source` holds out of corpus and index: one per
/// category, each with a sibling left in the corpus.
pub const HELD_OUT: [AppId; 3] = [AppId::LogisticRegression, AppId::ShortestPaths, AppId::Sort];

extern "C" {
    /// glibc: `int sched_setaffinity(pid_t, size_t, const cpu_set_t *)`.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `errno` of a thread id that names no thread (any more).
const ESRCH: i32 = 3;

/// Pin thread `tid` (0 = the caller) to `cpu`; the kernel's error when it
/// refused.
fn pin(tid: i32, cpu: usize) -> std::io::Result<()> {
    // A full glibc `cpu_set_t` (1024 bits): shorter masks are rejected on
    // hosts with many possible CPUs.
    let mut mask = [0u64; 16];
    let word = mask.get_mut(cpu / 64).ok_or(std::io::ErrorKind::InvalidInput)?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned buffer of exactly the size passed,
    // and the call only reads it; on failure it changes nothing.
    match unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// The first two CPUs this process may run on (`Cpus_allowed_list`,
/// e.g. `0-1` or `2,5-7`).
fn allowed_cpus() -> Option<(usize, usize)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?);
    }
    Some((*cpus.first()?, *cpus.get(1)?))
}

/// The two CPUs threads are placed on, once [`place_client`] succeeded.
/// Unset in the crate's tests, which check answers and not timings.
static CPUS: OnceLock<(usize, usize)> = OnceLock::new();

/// Pin the calling client thread to the first allowed CPU; threads spawned
/// from it — the worker above all — inherit that CPU. Call once, before
/// set-up. A refusal is an error the binaries exit on: placed and unplaced
/// figures differ by up to half (module docs) and must never be compared.
pub fn place_client() -> Result<(), String> {
    let pair = allowed_cpus().ok_or("fewer than two CPUs in Cpus_allowed_list")?;
    pin(0, pair.0).map_err(|e| format!("CPU {} refused for the client: {e}", pair.0))?;
    CPUS.get_or_init(|| pair);
    Ok(())
}

/// Move every `serve-updater` and `serve-reactor` thread to the second
/// CPU; `Ok` without doing anything unless [`place_client`] ran. A thread
/// names itself only once it runs, so a scan right after a start can miss
/// it: the rounds call this again before every block (it costs a
/// directory listing).
pub fn place_servers() -> Result<(), String> {
    let Some(&(_, second)) = CPUS.get() else { return Ok(()) };
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks.flatten() {
        let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if name.starts_with("serve-updater") || name.starts_with("serve-reactor") {
            let tid = task.file_name().to_string_lossy().parse::<i32>().unwrap_or(-1);
            match pin(tid, second) {
                Ok(()) => {}
                // Listed a moment ago, gone now: a thread of a system
                // that was just stopped has finished exiting.
                Err(e) if e.raw_os_error() == Some(ESRCH) => {}
                Err(e) => return Err(format!("CPU {second} refused for {}: {e}", name.trim())),
            }
        }
    }
    Ok(())
}

/// One pre-simulated executed run, ready to be fed to `observe`.
#[derive(Debug, Clone)]
pub struct FeedbackRun {
    /// Application that ran.
    pub app: AppId,
    /// Data it ran on.
    pub data: DataSpec,
    /// Configuration it ran under.
    pub conf: SparkConf,
    /// Simulated outcome.
    pub result: RunResult,
}

/// Apps in the workload's corpus (trained, indexed).
pub fn corpus_apps(workload: Workload) -> Vec<AppId> {
    match workload {
        Workload::ColdSource => {
            AppId::all().into_iter().filter(|a| !HELD_OUT.contains(a)).collect()
        }
        _ => AppId::all().to_vec(),
    }
}

/// Apps the workload's requests (and its ETR evaluation) are about.
pub fn request_apps(workload: Workload) -> Vec<AppId> {
    match workload {
        Workload::ColdSource => HELD_OUT.to_vec(),
        Workload::TuningLoop => HOT_APPS.to_vec(),
        _ => AppId::all().to_vec(),
    }
}

/// The corpus every block of a run builds: clusters A/B/C, two small
/// training tiers, two sampled configurations plus the default per cell.
pub fn corpus(workload: Workload) -> DatasetBuilder {
    DatasetBuilder {
        apps: corpus_apps(workload),
        clusters: ClusterSpec::all_evaluation_clusters(),
        tiers: vec![SizeTier::Train(0), SizeTier::Train(2)],
        confs_per_cell: 2,
        seed: CORPUS_SEED,
    }
}

/// Offline model hyper-parameters at `epochs`.
pub fn necs_config(epochs: usize) -> NecsConfig {
    NecsConfig { epochs, seed: CORPUS_SEED, ..Default::default() }
}

/// The service shape shared by every workload; `response_cache` and
/// `update_batch` are the two knobs the probes vary.
pub fn serve_config(
    response_cache: usize,
    update_batch: usize,
    retrieval: Option<Arc<RagTuner>>,
) -> ServeConfig {
    ServeConfig {
        workers: 1,
        update_batch,
        amu: AmuConfig { epochs: 1, ..Default::default() },
        // Batch trigger only: drift never fires, so a run's swaps are
        // exactly its adapt blocks.
        drift: DriftConfig {
            mape_threshold: 1e18,
            inversion_threshold: 1e18,
            ..Default::default()
        },
        retrieval,
        protocol: ProtocolConfig {
            shards: 1,
            response_cache,
            max_pipeline: PIPELINE_DEPTH,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The build block: nothing → servable state on the workload's corpus
/// with a 1-epoch model. `cold_source` serves from the index alone, so its
/// build is simulator + index insert, not training. Returns a size the
/// caller can sink so the work cannot be optimized away.
pub fn build_servable(workload: Workload) -> usize {
    let ds = corpus(workload).build();
    let rag = RagTuner::from_dataset(&ds, RagConfig::default());
    if workload == Workload::ColdSource {
        return rag.len();
    }
    let tuner = LiteTuner::from_dataset(&ds, necs_config(1), CORPUS_SEED);
    let snapshot = ModelSnapshot::from_tuner(&tuner);
    rag.len() + snapshot.registry.len()
}

/// A running system under test and everything the rounds need beside it.
pub struct System {
    /// The workload this system serves.
    pub workload: Workload,
    /// The knob space.
    pub space: ConfSpace,
    /// The serving cluster (cluster C).
    pub cluster: ClusterSpec,
    /// The offline corpus (also the AMU source domain).
    pub ds: Arc<Dataset>,
    /// The offline-trained tuner the service was started from.
    pub tuner: LiteTuner,
    /// The retrieval plane (pure retrieval: no NECS reranker).
    pub rag: Arc<RagTuner>,
    /// The service's metrics registry.
    pub registry: Registry,
    /// In-process handle.
    pub handle: ServiceHandle,
    /// The v3 wire client (`wire_hit` only).
    pub client: Option<Client>,
    /// Pre-simulated executed runs for `observe`.
    pub pool: Vec<FeedbackRun>,
    // Dropping a system stops it, and field order is the stop order: the
    // client above closes its socket first, then the reactor joins, then
    // the worker and the updater.
    _server: Option<TcpServer>,
    _service: Service,
}

impl System {
    /// Set up `workload` from scratch.
    pub fn build(workload: Workload) -> System {
        let cluster = ClusterSpec::cluster_c();
        let ds = Arc::new(corpus(workload).build());
        let tuner = LiteTuner::from_dataset(&ds, necs_config(OFFLINE_EPOCHS), CORPUS_SEED);
        let rag = Arc::new(RagTuner::from_dataset(&ds, RagConfig::default()));
        let registry = Registry::new();
        let service = Service::start(
            ModelSnapshot::from_tuner(&tuner),
            ds.clone(),
            serve_config(RESPONSE_CACHE, UPDATE_BATCH, Some(rag.clone())),
            &registry,
            Tracer::disabled(),
        );
        let handle = service.handle();
        let (server, client) = if workload == Workload::WireHit {
            let (server, client) = connect(&handle);
            (Some(server), Some(client))
        } else {
            (None, None)
        };
        let pool = feedback_pool(workload, &tuner, &cluster);
        System {
            workload,
            space: ds.space.clone(),
            cluster,
            ds,
            tuner,
            rag,
            registry,
            handle,
            client,
            pool,
            _server: server,
            _service: service,
        }
    }
}

/// Start a loopback front-end on `handle` and connect a v3 client to it.
pub fn connect(handle: &ServiceHandle) -> (TcpServer, Client) {
    let server = serve_tcp(handle.clone(), "127.0.0.1:0").expect("bind loopback front-end");
    let client = ClientBuilder::new()
        .pipeline_depth(PIPELINE_DEPTH)
        .connect(server.local_addr())
        .expect("connect to loopback front-end");
    assert_eq!(client.protocol_version(), 3, "front-end must negotiate protocol v3");
    // The negotiation was answered by the reactor, so it runs and has its
    // name: move it off the client's CPU before the first call is timed.
    place_servers().expect("the front-end's reactor must be placeable");
    (server, client)
}

/// Executed runs for the adapt blocks, simulated now so that simulator
/// time sits in `setup_s`, not in request or adapt latency. Each run is
/// the offline model's own top-1 for a pool seed, executed at the Test
/// tier on the serving cluster — what a user of the loop would report.
fn feedback_pool(workload: Workload, tuner: &LiteTuner, cluster: &ClusterSpec) -> Vec<FeedbackRun> {
    let apps = match workload {
        Workload::TuningLoop => HOT_APPS.to_vec(),
        _ => corpus_apps(workload),
    };
    (0..POOL_RUNS)
        .map(|i| {
            let app = apps[i % apps.len()];
            let data = app.dataset(SizeTier::Test);
            let seed = POOL_SEED.wrapping_add(i as u64);
            let conf = tuner
                .recommend(app, &data, cluster, seed)
                .expect("pool apps are in the corpus")
                .swap_remove(0)
                .conf;
            let result = simulate(cluster, &conf, &build_job(app, &data), splitmix(seed));
            FeedbackRun { app, data, conf, result }
        })
        .collect()
}
