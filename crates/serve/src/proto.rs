//! The typed request/response surface and its two codecs.
//!
//! One [`Request`]/[`Response`] enum pair covers every operation the serve
//! plane speaks — recommend/observe/retrieve plus the admin family — and
//! both codecs are thin `bytes ↔ Request/Response` adapters over it: the
//! v2 JSON envelope ([`Request::to_json`]/[`Request::from_json`],
//! [`Response::to_json`]/[`Response::from_json`]) and the v3 binary frames
//! ([`encode_request`]/[`decode_request`],
//! [`encode_response`]/[`decode_response`]). [`Codec`] picks between them
//! from a frame's first payload byte, so the server's one handler and the
//! [`Client`](crate::client::Client) never branch on the dialect.
//!
//! ## v2 JSON envelope
//!
//! A request is `{"v":2,"o":<op code>,...payload}` with the numeric
//! [`OpCode`]; `recommend`/`retrieve` may lead the payload with a nonzero
//! `"t"` trace id. A success answer is `{"v":2,"ok":true,...}` (with the
//! `"t"` echoed right after `"v"` when the request was traced), an error
//! `{"v":2,"ok":false,"c":<code>,"code":"<name>","error":"..."}` with the
//! numeric [`ErrorCode`]. `hello` (`{"v":2,"o":7,"max":2}`) is answered
//! `{"v":<negotiated>,"ok":true}` — the envelope's one `"v"` *is* the
//! negotiated version. `cluster` is either a preset name
//! (`"cluster-a"`/`"cluster-b"`/`"cluster-c"`) or a full object with the
//! Table III fields.
//!
//! ## v3 frame layout
//!
//! A v3 frame rides inside the same outer transport framing as JSON (a
//! 4-byte big-endian payload length), distinguished by its first payload
//! byte: JSON documents start with `{` (0x7B), v3 frames with the magic
//! byte 0xB3. The payload is a fixed 16-byte little-endian header followed
//! by an op-specific body:
//!
//! ```text
//! offset  size  field
//! 0       1     magic 0xB3
//! 1       1     protocol version (3)
//! 2       1     op code (the shared OpCode table)
//! 3       1     flags: bit0 = traced, bit1 = error response
//! 4       4     request id (u32 LE) — pipelining correlation tag
//! 8       8     trace id (u64 LE; meaningful when bit0 is set)
//! 16      ...   body
//! ```
//!
//! Hot ops (recommend/observe/retrieve, plus ping/hello) use fixed binary
//! body layouts decoded by bounds-checked slice views — no intermediate
//! JSON value exists on the hot path. Admin responses (stats, metrics,
//! trace, health, analyze, tailtrace, profile, slo) carry the rendered
//! JSON success document as the body: those ops are not hot, and reusing
//! the JSON renderers keeps one source of truth for their shapes. Error
//! responses set flags bit1 and carry `code:u8` + UTF-8 message.
//!
//! Multi-byte integers and floats are little-endian throughout the body;
//! floats travel as `f64` bit patterns. Strings are length-prefixed
//! (u16 for names, u32 for source text). A decoder rejects any frame with
//! trailing bytes, so round-trips are bit-exact.

use lite_core::recommend::RankedCandidate;
use lite_obs::Json;
use lite_sparksim::cluster::ClusterSpec;
use lite_sparksim::conf::{ConfSpace, SparkConf, NUM_KNOBS};
use lite_sparksim::result::{FailureReason, RunResult, StageStats};
use lite_workloads::apps::AppId;
use lite_workloads::data::DataSpec;

use crate::service::{RecommendResponse, RetrieveResponse, ServeError};

/// The JSON envelope version.
pub const PROTOCOL_VERSION: u64 = 2;

/// Numeric operation codes, shared by the v2 envelope's `"o"` and the v3
/// header's op byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Liveness + serving version.
    Ping = 0,
    /// Top-k recommendation.
    Recommend = 1,
    /// Executed-configuration feedback.
    Observe = 2,
    /// Operational summary.
    Stats = 3,
    /// Prometheus text exposition.
    Metrics = 4,
    /// Chrome trace-event JSON.
    Trace = 5,
    /// Probe endpoint.
    Health = 6,
    /// Version negotiation.
    Hello = 7,
    /// Static stage extraction + lints for cold-start onboarding.
    Analyze = 8,
    /// Slow-request exemplars from the tail-forensics reservoir.
    Tailtrace = 9,
    /// Zero-execution cold-start retrieval from the historical run index.
    Retrieve = 10,
    /// Sampling-profiler report: top-K self/total tag tables, folded
    /// stacks, and allocation attribution.
    Profile = 11,
    /// Burn-rate SLO status: windowed quantiles, burn rates, and the
    /// alert state.
    Slo = 12,
}

impl OpCode {
    /// All operations, for exhaustive round-trip tests.
    pub const ALL: [OpCode; 13] = [
        OpCode::Ping,
        OpCode::Recommend,
        OpCode::Observe,
        OpCode::Stats,
        OpCode::Metrics,
        OpCode::Trace,
        OpCode::Health,
        OpCode::Hello,
        OpCode::Analyze,
        OpCode::Tailtrace,
        OpCode::Retrieve,
        OpCode::Profile,
        OpCode::Slo,
    ];

    /// The numeric wire code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decode a numeric op code.
    pub fn from_code(code: u64) -> Option<OpCode> {
        OpCode::ALL.into_iter().find(|op| u64::from(op.code()) == code)
    }
}

/// Structured wire error codes: numeric in the v2 `"c"` field and the v3
/// error body, with the snake_case name alongside in JSON for humans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request queue was full; shed at admission.
    Overloaded = 1,
    /// The deadline passed before a worker picked the request up.
    DeadlineExceeded = 2,
    /// The service answered from its degradation fallback. Never produced
    /// by the server as an error (degraded responses succeed with
    /// `"degraded":true`); reserved for clients that promote them.
    Degraded = 3,
    /// The service is shutting down.
    ShuttingDown = 4,
    /// A server-side bug; surfaced, not hung.
    Internal = 5,
    /// The app's templates are not in the serving snapshot.
    ColdApp = 6,
    /// The request itself was malformed.
    BadRequest = 7,
}

impl ErrorCode {
    /// All codes, for exhaustive round-trip tests.
    pub const ALL: [ErrorCode; 7] = [
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Degraded,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
        ErrorCode::ColdApp,
        ErrorCode::BadRequest,
    ];

    /// The numeric wire code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The snake_case name (the JSON `"code"` value).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Degraded => "degraded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
            ErrorCode::ColdApp => "cold_app",
            ErrorCode::BadRequest => "bad_request",
        }
    }

    /// Decode a numeric wire code.
    pub fn from_code(code: u64) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| u64::from(c.code()) == code)
    }

    /// Extract the error code from a JSON response document's numeric
    /// `"c"`. `None` for successful responses.
    pub fn from_response(resp: &Json) -> Option<ErrorCode> {
        if resp.get("ok").and_then(Json::as_bool) != Some(false) {
            return None;
        }
        resp.get("c").and_then(Json::as_u64).and_then(ErrorCode::from_code)
    }
}

/// First payload byte of a v3 binary frame (never a valid JSON start).
pub const V3_MAGIC: u8 = 0xB3;

/// The binary protocol version negotiated by a binary `hello`.
pub const PROTOCOL_V3: u64 = 3;

/// Fixed v3 header size, bytes.
pub const V3_HEADER: usize = 16;

/// Header flag: the request carries a trace id / the response echoes one.
pub const FLAG_TRACED: u8 = 1;

/// Header flag: the response is an error frame (`code:u8` + message body).
pub const FLAG_ERROR: u8 = 2;

// ---------------------------------------------------------------------------
// Typed surface

/// A cluster reference: a server-known preset name, or a full
/// specification for clusters the server has never seen.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterRef {
    /// A preset name (`"cluster-a"`/`"cluster-b"`/`"cluster-c"`).
    Preset(String),
    /// A full Table III specification.
    Spec(ClusterSpec),
}

impl ClusterRef {
    /// Wrap a [`ClusterSpec`], collapsing to the preset name when the spec
    /// is one of the evaluation presets (keeps JSON encodings minimal).
    pub fn from_spec(spec: &ClusterSpec) -> ClusterRef {
        for preset in ClusterSpec::all_evaluation_clusters() {
            if preset == *spec {
                return ClusterRef::Preset(preset.name.clone());
            }
        }
        ClusterRef::Spec(spec.clone())
    }

    fn to_json(&self) -> Json {
        match self {
            ClusterRef::Preset(name) => Json::from(name.as_str()),
            ClusterRef::Spec(c) => Json::obj(vec![
                ("name", Json::from(c.name.as_str())),
                ("nodes", Json::from(u64::from(c.nodes))),
                ("cores_per_node", Json::from(u64::from(c.cores_per_node))),
                ("cpu_ghz", Json::Num(c.cpu_ghz)),
                ("mem_gb_per_node", Json::Num(c.mem_gb_per_node)),
                ("mem_mts", Json::Num(c.mem_mts)),
                ("net_gbps", Json::Num(c.net_gbps)),
            ]),
        }
    }

    fn from_json(value: Option<&Json>) -> Result<ClusterRef, String> {
        match value {
            Some(Json::Str(name)) => Ok(ClusterRef::Preset(name.clone())),
            Some(obj @ Json::Obj(_)) => {
                let num = |key: &str| {
                    obj.get(key).and_then(Json::as_f64).ok_or(format!("cluster.{key} required"))
                };
                Ok(ClusterRef::Spec(ClusterSpec {
                    name: obj.get("name").and_then(Json::as_str).unwrap_or("wire-cluster").into(),
                    nodes: num("nodes")? as u32,
                    cores_per_node: num("cores_per_node")? as u32,
                    cpu_ghz: num("cpu_ghz")?,
                    mem_gb_per_node: num("mem_gb_per_node")?,
                    mem_mts: num("mem_mts")?,
                    net_gbps: num("net_gbps")?,
                }))
            }
            _ => Err("missing cluster (preset name or object)".to_string()),
        }
    }

    /// Resolve into a concrete spec: preset names are looked up
    /// case-insensitively. `Err` is a `bad_request` message.
    pub fn resolve(&self) -> Result<ClusterSpec, String> {
        match self {
            ClusterRef::Preset(name) => ClusterSpec::all_evaluation_clusters()
                .into_iter()
                .find(|c| c.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown cluster preset {name:?}")),
            ClusterRef::Spec(spec) => Ok(spec.clone()),
        }
    }
}

/// What a `retrieve` searches by: a server-known app, or raw source text
/// the server embeds statically.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrieveTarget {
    /// Nearest runs for a named workload.
    App(AppId),
    /// Nearest runs for submitted source text (zero-execution cold start).
    Source(String),
}

/// What an `analyze` extracts from.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeTarget {
    /// A named workload's bundled source.
    App(AppId),
    /// Submitted source text with an explicit iteration count.
    Source {
        /// The application source to extract stages from.
        source: String,
        /// Iteration count for iterative pipelines.
        iterations: u32,
    },
}

/// Every operation the serve plane accepts, as one typed enum. Encoded by
/// [`Request::to_json`] (v2 JSON) or [`encode_request`] (v3).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness + serving version.
    Ping,
    /// Version negotiation: the highest protocol version the client speaks.
    Hello {
        /// Client's maximum supported protocol version.
        max: u64,
    },
    /// Top-k recommendation.
    Recommend {
        /// Target workload.
        app: AppId,
        /// Target data scale.
        data: DataSpec,
        /// Target cluster.
        cluster: ClusterRef,
        /// How many candidates to return.
        k: usize,
        /// Candidate-sampling seed.
        seed: u64,
        /// Optional nonzero trace id for tail forensics.
        trace: Option<u64>,
    },
    /// Executed-configuration feedback.
    Observe {
        /// Workload that ran.
        app: AppId,
        /// Data scale it ran at.
        data: DataSpec,
        /// Cluster it ran on.
        cluster: ClusterRef,
        /// The configuration that was executed.
        conf: SparkConf,
        /// The observed outcome.
        result: Box<RunResult>,
    },
    /// Zero-execution cold-start retrieval (protocol v2+).
    Retrieve {
        /// What to search by.
        target: RetrieveTarget,
        /// Target data scale.
        data: DataSpec,
        /// Target cluster.
        cluster: ClusterRef,
        /// How many neighbors to retrieve.
        k: usize,
        /// Optional nonzero trace id for tail forensics.
        trace: Option<u64>,
    },
    /// Static stage extraction + lints.
    Analyze {
        /// What to extract from.
        target: AnalyzeTarget,
    },
    /// Sampling-profiler report (protocol v2+).
    Profile {
        /// Top-k tags to report.
        k: usize,
    },
    /// Operational summary.
    Stats,
    /// Prometheus text exposition.
    Metrics,
    /// Chrome trace-event JSON.
    Trace,
    /// Probe endpoint.
    Health,
    /// Slow-request exemplars.
    Tailtrace,
    /// Burn-rate SLO status (protocol v2+).
    Slo,
}

impl Request {
    /// The operation this request performs.
    pub fn op(&self) -> OpCode {
        match self {
            Request::Ping => OpCode::Ping,
            Request::Hello { .. } => OpCode::Hello,
            Request::Recommend { .. } => OpCode::Recommend,
            Request::Observe { .. } => OpCode::Observe,
            Request::Retrieve { .. } => OpCode::Retrieve,
            Request::Analyze { .. } => OpCode::Analyze,
            Request::Profile { .. } => OpCode::Profile,
            Request::Stats => OpCode::Stats,
            Request::Metrics => OpCode::Metrics,
            Request::Trace => OpCode::Trace,
            Request::Health => OpCode::Health,
            Request::Tailtrace => OpCode::Tailtrace,
            Request::Slo => OpCode::Slo,
        }
    }

    /// The trace id riding with this request, if any.
    pub fn trace_id(&self) -> Option<u64> {
        match self {
            Request::Recommend { trace, .. } | Request::Retrieve { trace, .. } => *trace,
            _ => None,
        }
    }

    /// Encode as a v2 JSON document: the `"v"`/`"o"` envelope first, then
    /// the payload fields in their pinned order, with the optional `"t"`
    /// trace id leading the payload. The envelope is v2 whatever `version`
    /// says; the argument stays because the benchmark calls this signature.
    pub fn to_json(&self, _version: u64) -> Json {
        let mut pairs = vec![
            ("v", Json::from(PROTOCOL_VERSION)),
            ("o", Json::from(u64::from(self.op().code()))),
        ];
        if let Some(t) = self.trace_id() {
            pairs.push(("t", Json::from(t)));
        }
        match self {
            Request::Ping
            | Request::Stats
            | Request::Metrics
            | Request::Trace
            | Request::Health
            | Request::Tailtrace
            | Request::Slo => {}
            Request::Hello { max } => pairs.push(("max", Json::from(*max))),
            Request::Recommend { app, data, cluster, k, seed, trace: _ } => {
                pairs.push(("app", Json::from(app.name())));
                pairs.push(("data", data_to_json(data)));
                pairs.push(("cluster", cluster.to_json()));
                pairs.push(("k", Json::from(*k)));
                pairs.push(("seed", Json::from(*seed)));
            }
            Request::Observe { app, data, cluster, conf, result } => {
                pairs.push(("app", Json::from(app.name())));
                pairs.push(("data", data_to_json(data)));
                pairs.push(("cluster", cluster.to_json()));
                pairs.push(("conf", conf_to_json(conf)));
                pairs.push(("result", result_to_json(result)));
            }
            Request::Retrieve { target, data, cluster, k, trace: _ } => {
                match target {
                    RetrieveTarget::App(app) => pairs.push(("app", Json::from(app.name()))),
                    RetrieveTarget::Source(src) => pairs.push(("source", Json::from(src.as_str()))),
                }
                pairs.push(("data", data_to_json(data)));
                pairs.push(("cluster", cluster.to_json()));
                pairs.push(("k", Json::from(*k)));
            }
            Request::Analyze { target } => match target {
                AnalyzeTarget::App(app) => pairs.push(("app", Json::from(app.name()))),
                AnalyzeTarget::Source { source, iterations } => {
                    pairs.push(("source", Json::from(source.as_str())));
                    pairs.push(("iterations", Json::from(u64::from(*iterations))));
                }
            },
            Request::Profile { k } => pairs.push(("k", Json::from(*k))),
        }
        Json::obj(pairs)
    }

    /// Decode a v2 JSON document — the inverse of [`Request::to_json`].
    /// A document without `"v":2` (a v1 `"op"`-keyed frame included) is
    /// refused. `Err` is a `bad_request` message.
    pub fn from_json(doc: &Json, space: &ConfSpace) -> Result<Request, String> {
        match doc.get("v").and_then(Json::as_u64) {
            Some(PROTOCOL_VERSION) => {}
            Some(v) => return Err(format!("unsupported version {v}")),
            None => return Err("missing \"v\":2 (protocol v1 is no longer served)".to_string()),
        }
        let op = doc.get("o").and_then(Json::as_u64).and_then(OpCode::from_code);
        let u = |key: &str, default: u64| doc.get(key).and_then(Json::as_u64).unwrap_or(default);
        let trace = doc.get("t").and_then(Json::as_u64);
        Ok(match op.ok_or("unknown op")? {
            OpCode::Ping => Request::Ping,
            OpCode::Stats => Request::Stats,
            OpCode::Metrics => Request::Metrics,
            OpCode::Trace => Request::Trace,
            OpCode::Health => Request::Health,
            OpCode::Tailtrace => Request::Tailtrace,
            OpCode::Slo => Request::Slo,
            OpCode::Hello => Request::Hello { max: u("max", PROTOCOL_VERSION) },
            OpCode::Recommend => Request::Recommend {
                app: parse_app(doc.get("app"))?,
                data: parse_data(doc.get("data"))?,
                cluster: ClusterRef::from_json(doc.get("cluster"))?,
                k: u("k", 1) as usize,
                seed: u("seed", 0),
                trace,
            },
            OpCode::Observe => Request::Observe {
                app: parse_app(doc.get("app"))?,
                data: parse_data(doc.get("data"))?,
                cluster: ClusterRef::from_json(doc.get("cluster"))?,
                conf: parse_conf(doc.get("conf"), space)?,
                result: Box::new(parse_result(doc.get("result"))?),
            },
            OpCode::Retrieve => Request::Retrieve {
                target: match (doc.get("app"), doc.get("source").and_then(Json::as_str)) {
                    (Some(app), _) => RetrieveTarget::App(parse_app(Some(app))?),
                    (None, Some(src)) => RetrieveTarget::Source(src.to_string()),
                    (None, None) => return Err("retrieve needs \"app\" or \"source\"".to_string()),
                },
                data: parse_data(doc.get("data"))?,
                cluster: ClusterRef::from_json(doc.get("cluster"))?,
                k: u("k", 1) as usize,
                trace,
            },
            OpCode::Analyze => Request::Analyze {
                target: match (doc.get("app"), doc.get("source").and_then(Json::as_str)) {
                    (Some(app), _) => AnalyzeTarget::App(parse_app(Some(app))?),
                    (None, Some(src)) => AnalyzeTarget::Source {
                        source: src.to_string(),
                        iterations: u("iterations", 1).min(u64::from(u32::MAX)) as u32,
                    },
                    (None, None) => return Err("analyze needs \"app\" or \"source\"".to_string()),
                },
            },
            OpCode::Profile => Request::Profile { k: u("k", 10) as usize },
        })
    }
}

fn conf_to_json(conf: &SparkConf) -> Json {
    Json::Arr(conf.values().iter().map(|&v| Json::Num(v)).collect())
}

fn data_to_json(data: &DataSpec) -> Json {
    Json::obj(vec![
        ("rows", Json::from(data.rows)),
        ("cols", Json::from(data.cols)),
        ("iterations", Json::from(data.iterations)),
        ("partitions", Json::from(data.partitions)),
        ("bytes", Json::from(data.bytes)),
    ])
}

/// Stage names and durations are what feedback needs; the
/// observability-only stage fields travel too so nothing is lost.
fn result_to_json(result: &RunResult) -> Json {
    let stage = |s: &StageStats| {
        Json::obj(vec![
            ("stage_id", Json::from(s.stage_id)),
            ("name", Json::from(s.name.as_str())),
            ("duration_s", Json::Num(s.duration_s)),
            ("num_tasks", Json::from(s.num_tasks)),
            ("input_bytes", Json::from(s.input_bytes)),
            ("shuffle_read_bytes", Json::from(s.shuffle_read_bytes)),
            ("shuffle_write_bytes", Json::from(s.shuffle_write_bytes)),
            ("spill_bytes", Json::from(s.spill_bytes)),
            ("gc_time_s", Json::Num(s.gc_time_s)),
            ("peak_task_memory", Json::from(s.peak_task_memory)),
            ("cached_fraction", Json::Num(s.cached_fraction)),
        ])
    };
    Json::obj(vec![
        ("total_time_s", Json::Num(result.total_time_s)),
        ("failed", Json::Bool(result.failure.is_some())),
        ("executors", Json::from(result.executors)),
        ("slots", Json::from(result.slots)),
        ("stages", Json::Arr(result.stages.iter().map(stage).collect())),
    ])
}

fn parse_app(value: Option<&Json>) -> Result<AppId, String> {
    let name = value.and_then(Json::as_str).ok_or("missing app name")?;
    AppId::all()
        .iter()
        .copied()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown app {name:?}"))
}

fn parse_data(value: Option<&Json>) -> Result<DataSpec, String> {
    let obj = value.ok_or("missing data")?;
    let field = |key: &str| obj.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(DataSpec {
        rows: field("rows"),
        cols: field("cols") as u32,
        iterations: field("iterations") as u32,
        partitions: field("partitions") as u32,
        bytes: obj.get("bytes").and_then(Json::as_u64).ok_or("data.bytes required")?,
    })
}

fn parse_conf(value: Option<&Json>, space: &ConfSpace) -> Result<SparkConf, String> {
    let items = value.and_then(Json::as_arr).ok_or("missing conf array")?;
    if items.len() != NUM_KNOBS {
        return Err(format!("conf needs {NUM_KNOBS} values, got {}", items.len()));
    }
    let mut values = [0.0f64; NUM_KNOBS];
    for (i, item) in items.iter().enumerate() {
        values[i] = item.as_f64().ok_or_else(|| format!("conf[{i}] is not a number"))?;
    }
    Ok(SparkConf::from_values(space, values))
}

fn parse_result(value: Option<&Json>) -> Result<RunResult, String> {
    let obj = value.ok_or("missing result")?;
    let total_time_s =
        obj.get("total_time_s").and_then(Json::as_f64).ok_or("result.total_time_s required")?;
    let failed = obj.get("failed").and_then(Json::as_bool).unwrap_or(false);
    let stages_json = obj.get("stages").and_then(Json::as_arr).ok_or("result.stages required")?;
    let mut stages = Vec::with_capacity(stages_json.len());
    for (i, st) in stages_json.iter().enumerate() {
        let name = st
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("stages[{i}].name required"))?;
        let duration_s = st
            .get("duration_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stages[{i}].duration_s required"))?;
        let u = |key: &str| st.get(key).and_then(Json::as_u64).unwrap_or(0);
        stages.push(StageStats {
            stage_id: st.get("stage_id").and_then(Json::as_u64).unwrap_or(i as u64) as usize,
            name: name.to_string(),
            duration_s,
            num_tasks: u("num_tasks") as u32,
            input_bytes: u("input_bytes"),
            shuffle_read_bytes: u("shuffle_read_bytes"),
            shuffle_write_bytes: u("shuffle_write_bytes"),
            spill_bytes: u("spill_bytes"),
            gc_time_s: st.get("gc_time_s").and_then(Json::as_f64).unwrap_or(0.0),
            peak_task_memory: u("peak_task_memory"),
            cached_fraction: st.get("cached_fraction").and_then(Json::as_f64).unwrap_or(1.0),
        });
    }
    Ok(RunResult {
        total_time_s,
        stages,
        // The wire carries only a failed flag; the concrete reason does not
        // affect feedback extraction.
        failure: failed.then_some(FailureReason::ExecutorOom),
        executors: obj.get("executors").and_then(Json::as_u64).unwrap_or(0) as u32,
        slots: obj.get("slots").and_then(Json::as_u64).unwrap_or(0) as u32,
    })
}

/// A retrieval neighbor as the wire carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// Application of the historical run.
    pub app: AppId,
    /// Embedding distance to the target.
    pub distance: f64,
    /// Historical runtime, seconds.
    pub runtime_s: f64,
    /// First-order runtime estimate of the adapted conf on the target.
    pub estimate_s: f64,
    /// The neighbor's conf adapted to the target scale.
    pub conf: SparkConf,
}

/// Every answer the serve plane produces, as one typed enum.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `ping` answer.
    Pong {
        /// Serving model version.
        version: u64,
        /// Completed hot-swaps.
        swaps: u64,
    },
    /// `hello` answer: the negotiated protocol version.
    Hello {
        /// Version the server chose (`min(client max, server max)`).
        v: u64,
    },
    /// `recommend` answer.
    Recommend {
        /// Model version that produced every score.
        version: u64,
        /// Candidates answered from the response cache (all of them on a
        /// repeat answered inline, else none).
        cached: usize,
        /// Candidates scored through the batched NECS pass.
        scored: usize,
        /// Whether this is the degradation fallback.
        degraded: bool,
        /// Top-k candidates, best first.
        ranked: Vec<RankedCandidate>,
        /// Echo of the request's trace id, when the request was traced.
        trace: Option<u64>,
    },
    /// `observe` answer: feedback-buffer size after extraction.
    Observe {
        /// Feedback instances waiting (or total observed, tuner backends).
        feedback: usize,
    },
    /// `retrieve` answer.
    Retrieve {
        /// Historical runs in the index.
        index: usize,
        /// Index search time, nanoseconds.
        search_ns: u64,
        /// Raw neighbors, nearest first.
        neighbors: Vec<Neighbor>,
        /// Adapted candidates ranked best-first.
        ranked: Vec<RankedCandidate>,
        /// Echo of the request's trace id, when the request was traced.
        trace: Option<u64>,
    },
    /// Any admin-op answer (stats, metrics, trace, health, analyze,
    /// tailtrace, profile, slo): the raw success document.
    Admin(Json),
    /// A structured wire error.
    Error {
        /// The structured code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error { .. })
    }

    /// The raw response document, when this is an admin-op response.
    pub fn into_admin(self) -> Option<Json> {
        match self {
            Response::Admin(doc) => Some(doc),
            _ => None,
        }
    }

    /// A `bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> Response {
        Response::Error { code: ErrorCode::BadRequest, message: message.into() }
    }

    /// The wire form of a service outcome's failure.
    pub(crate) fn error(err: &ServeError) -> Response {
        let code = match err {
            ServeError::Overloaded => ErrorCode::Overloaded,
            ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServeError::ColdApp(_) => ErrorCode::ColdApp,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::Internal(_) => ErrorCode::Internal,
        };
        Response::Error { code, message: err.to_string() }
    }

    /// The wire form of a served recommendation (moves the ranking).
    pub(crate) fn recommend(resp: RecommendResponse, trace: Option<u64>) -> Response {
        let RecommendResponse { version, ranked, cached, scored, degraded } = resp;
        Response::Recommend { version, cached, scored, degraded, ranked, trace }
    }

    /// The wire form of a served retrieval.
    pub(crate) fn retrieve(resp: RetrieveResponse, trace: Option<u64>) -> Response {
        let neighbors = resp
            .neighbors
            .into_iter()
            .map(|n| Neighbor {
                app: n.app,
                distance: f64::from(n.distance),
                runtime_s: n.runtime_s,
                estimate_s: n.estimate_s,
                conf: n.conf,
            })
            .collect();
        Response::Retrieve {
            index: resp.index_len,
            search_ns: resp.search_ns,
            neighbors,
            ranked: resp.ranked,
            trace,
        }
    }

    /// Render as a v2 JSON document: `"v"` first, the echoed `"t"` next
    /// when the request was traced, then `"ok"` and the payload. By value,
    /// so an admin document (a trace can be half a frame) is stamped in
    /// place rather than copied.
    pub fn to_json(self) -> Json {
        let ok = |trace: Option<u64>, fields: Vec<(&str, Json)>| {
            let mut pairs = vec![("v", Json::from(PROTOCOL_VERSION))];
            pairs.extend(trace.map(|t| ("t", Json::from(t))));
            pairs.push(("ok", Json::Bool(true)));
            pairs.extend(fields);
            Json::obj(pairs)
        };
        match self {
            Response::Pong { version, swaps } => {
                ok(None, vec![("version", Json::from(version)), ("swaps", Json::from(swaps))])
            }
            // The envelope's one "v" is the negotiated version.
            Response::Hello { v } => {
                Json::obj(vec![("v", Json::from(v)), ("ok", Json::Bool(true))])
            }
            Response::Recommend { version, cached, scored, degraded, ranked, trace } => ok(
                trace,
                vec![
                    ("version", Json::from(version)),
                    ("cached", Json::from(cached)),
                    ("scored", Json::from(scored)),
                    ("degraded", Json::Bool(degraded)),
                    ("ranked", ranked_to_json(&ranked)),
                ],
            ),
            Response::Observe { feedback } => ok(None, vec![("feedback", Json::from(feedback))]),
            Response::Retrieve { index, search_ns, neighbors, ranked, trace } => {
                let neighbor = |n: &Neighbor| {
                    Json::obj(vec![
                        ("app", Json::from(n.app.name())),
                        ("distance", Json::Num(n.distance)),
                        ("runtime_s", Json::Num(n.runtime_s)),
                        ("estimate_s", Json::Num(n.estimate_s)),
                        ("conf", conf_to_json(&n.conf)),
                    ])
                };
                ok(
                    trace,
                    vec![
                        ("index", Json::from(index)),
                        ("search_ns", Json::from(search_ns)),
                        ("neighbors", Json::Arr(neighbors.iter().map(neighbor).collect())),
                        ("ranked", ranked_to_json(&ranked)),
                    ],
                )
            }
            // Admin documents carry their own "ok": stamp the version on.
            Response::Admin(Json::Obj(mut pairs)) => {
                pairs.insert(0, ("v".to_string(), Json::from(PROTOCOL_VERSION)));
                Json::Obj(pairs)
            }
            Response::Admin(other) => other,
            Response::Error { code, message } => Json::obj(vec![
                ("v", Json::from(PROTOCOL_VERSION)),
                ("ok", Json::Bool(false)),
                ("c", Json::from(u64::from(code.code()))),
                ("code", Json::from(code.name())),
                ("error", Json::from(message.as_str())),
            ]),
        }
    }

    /// Decode a v2 JSON response document for `op` — the inverse of
    /// [`Response::to_json`]. Unrecognized success shapes fall back to
    /// [`Response::Admin`], which holds the document without its `"v"`
    /// stamp, exactly as a v3 admin body carries it.
    pub fn from_json(op: OpCode, doc: &Json, space: &ConfSpace) -> Response {
        if doc.get("ok").and_then(Json::as_bool) == Some(false) {
            let code = ErrorCode::from_response(doc).unwrap_or(ErrorCode::Internal);
            let message =
                doc.get("error").and_then(Json::as_str).unwrap_or("unknown error").to_string();
            return Response::Error { code, message };
        }
        let u = |key: &str| doc.get(key).and_then(Json::as_u64);
        match op {
            OpCode::Ping => Response::Pong {
                version: u("version").unwrap_or(0),
                swaps: u("swaps").unwrap_or(0),
            },
            OpCode::Hello => Response::Hello { v: u("v").unwrap_or(PROTOCOL_VERSION) },
            OpCode::Recommend => Response::Recommend {
                version: u("version").unwrap_or(0),
                cached: u("cached").unwrap_or(0) as usize,
                scored: u("scored").unwrap_or(0) as usize,
                degraded: doc.get("degraded").and_then(Json::as_bool).unwrap_or(false),
                ranked: parse_ranked(doc.get("ranked"), space),
                trace: u("t"),
            },
            OpCode::Observe => Response::Observe { feedback: u("feedback").unwrap_or(0) as usize },
            OpCode::Retrieve => Response::Retrieve {
                index: u("index").unwrap_or(0) as usize,
                search_ns: u("search_ns").unwrap_or(0),
                neighbors: parse_neighbors(doc.get("neighbors"), space),
                ranked: parse_ranked(doc.get("ranked"), space),
                trace: u("t"),
            },
            _ => Response::Admin(match doc {
                Json::Obj(pairs) => {
                    Json::Obj(pairs.iter().filter(|(key, _)| key != "v").cloned().collect())
                }
                other => other.clone(),
            }),
        }
    }
}

fn ranked_to_json(ranked: &[RankedCandidate]) -> Json {
    let candidate = |r: &RankedCandidate| {
        Json::obj(vec![("conf", conf_to_json(&r.conf)), ("predicted_s", Json::Num(r.predicted_s))])
    };
    Json::Arr(ranked.iter().map(candidate).collect())
}

fn parse_ranked(value: Option<&Json>, space: &ConfSpace) -> Vec<RankedCandidate> {
    let Some(items) = value.and_then(Json::as_arr) else { return Vec::new() };
    items
        .iter()
        .filter_map(|item| {
            let conf = parse_conf(item.get("conf"), space).ok()?;
            let predicted_s = item.get("predicted_s").and_then(Json::as_f64)?;
            Some(RankedCandidate { conf, predicted_s })
        })
        .collect()
}

fn parse_neighbors(value: Option<&Json>, space: &ConfSpace) -> Vec<Neighbor> {
    let Some(items) = value.and_then(Json::as_arr) else { return Vec::new() };
    items
        .iter()
        .filter_map(|item| {
            Some(Neighbor {
                app: parse_app(item.get("app")).ok()?,
                distance: item.get("distance").and_then(Json::as_f64).unwrap_or(0.0),
                runtime_s: item.get("runtime_s").and_then(Json::as_f64).unwrap_or(0.0),
                estimate_s: item.get("estimate_s").and_then(Json::as_f64).unwrap_or(0.0),
                conf: parse_conf(item.get("conf"), space).ok()?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Binary primitives

/// Little-endian append-only encoder for v3 bodies, over the caller's
/// buffer: a frame is encoded where it will be sent from.
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A u16-length-prefixed short string (names); silently truncates past
    /// 64 KiB, which no knob or preset name approaches.
    fn name(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        self.u16(len as u16);
        self.buf.extend_from_slice(&bytes[..len]);
    }

    /// A u32-length-prefixed long string (source text).
    fn text(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked little-endian slice reader for v3 bodies. Every accessor
/// returns a decode error instead of panicking, so torn and truncated
/// frames surface as clean `bad_request`s.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, &'static str>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else { return Err("truncated v3 frame") };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> DecResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> DecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> DecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn name(&mut self) -> DecResult<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map(str::to_string).map_err(|_| "non-utf8 string in v3 frame")
    }

    fn text(&mut self) -> DecResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map(str::to_string).map_err(|_| "non-utf8 string in v3 frame")
    }

    /// Declare decoding finished; trailing bytes are a protocol error.
    fn finish(self) -> DecResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("trailing bytes in v3 frame")
        }
    }
}

/// A parsed v3 frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V3Header {
    /// The operation.
    pub op: OpCode,
    /// Header flags ([`FLAG_TRACED`], [`FLAG_ERROR`]).
    pub flags: u8,
    /// Pipelining correlation tag; echoed verbatim in the response.
    pub req_id: u32,
    /// Trace id (meaningful when [`FLAG_TRACED`] is set).
    pub trace_id: u64,
}

fn header_bytes(op: OpCode, flags: u8, req_id: u32, trace_id: u64) -> [u8; V3_HEADER] {
    let mut h = [0u8; V3_HEADER];
    h[0] = V3_MAGIC;
    h[1] = PROTOCOL_V3 as u8;
    h[2] = op.code();
    h[3] = flags;
    h[4..8].copy_from_slice(&req_id.to_le_bytes());
    h[8..16].copy_from_slice(&trace_id.to_le_bytes());
    h
}

/// Parse a v3 header from a frame payload. `Err` is a decode error fit for
/// a `bad_request` message.
pub fn parse_header(payload: &[u8]) -> Result<V3Header, &'static str> {
    if payload.len() < V3_HEADER {
        return Err("truncated v3 header");
    }
    if payload[0] != V3_MAGIC {
        return Err("bad v3 magic");
    }
    if payload[1] != PROTOCOL_V3 as u8 {
        return Err("unsupported binary protocol version");
    }
    let Some(op) = OpCode::from_code(u64::from(payload[2])) else {
        return Err("unknown v3 op");
    };
    let req_id = u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]);
    let mut tid = [0u8; 8];
    tid.copy_from_slice(&payload[8..16]);
    Ok(V3Header { op, flags: payload[3], req_id, trace_id: u64::from_le_bytes(tid) })
}

// ---------------------------------------------------------------------------
// Request codec

fn enc_data(e: &mut Enc, data: &DataSpec) {
    e.u64(data.rows);
    e.u32(data.cols);
    e.u32(data.iterations);
    e.u32(data.partitions);
    e.u64(data.bytes);
}

fn dec_data(d: &mut Dec) -> DecResult<DataSpec> {
    Ok(DataSpec {
        rows: d.u64()?,
        cols: d.u32()?,
        iterations: d.u32()?,
        partitions: d.u32()?,
        bytes: d.u64()?,
    })
}

fn enc_cluster(e: &mut Enc, cluster: &ClusterRef) {
    match cluster {
        ClusterRef::Preset(name) => {
            e.u8(0);
            e.name(name);
        }
        ClusterRef::Spec(c) => {
            e.u8(1);
            e.name(&c.name);
            e.u32(c.nodes);
            e.u32(c.cores_per_node);
            e.f64(c.cpu_ghz);
            e.f64(c.mem_gb_per_node);
            e.f64(c.mem_mts);
            e.f64(c.net_gbps);
        }
    }
}

fn dec_cluster(d: &mut Dec) -> DecResult<ClusterRef> {
    match d.u8()? {
        0 => Ok(ClusterRef::Preset(d.name()?)),
        1 => Ok(ClusterRef::Spec(ClusterSpec {
            name: d.name()?,
            nodes: d.u32()?,
            cores_per_node: d.u32()?,
            cpu_ghz: d.f64()?,
            mem_gb_per_node: d.f64()?,
            mem_mts: d.f64()?,
            net_gbps: d.f64()?,
        })),
        _ => Err("bad cluster tag"),
    }
}

fn enc_app(e: &mut Enc, app: AppId) {
    e.u16(app.index() as u16);
}

fn dec_app(d: &mut Dec) -> DecResult<AppId> {
    let idx = d.u16()? as usize;
    AppId::all().get(idx).copied().ok_or("unknown app index")
}

fn enc_conf(e: &mut Enc, conf: &SparkConf) {
    for &v in conf.values() {
        e.f64(v);
    }
}

fn dec_conf(d: &mut Dec, space: &ConfSpace) -> DecResult<SparkConf> {
    let mut values = [0.0f64; NUM_KNOBS];
    for v in values.iter_mut() {
        *v = d.f64()?;
    }
    Ok(SparkConf::from_values(space, values))
}

fn enc_result(e: &mut Enc, result: &RunResult) {
    e.f64(result.total_time_s);
    e.u8(u8::from(result.failure.is_some()));
    e.u32(result.executors);
    e.u32(result.slots);
    let n = result.stages.len().min(u16::MAX as usize);
    e.u16(n as u16);
    for s in &result.stages[..n] {
        e.u32(s.stage_id as u32);
        e.name(&s.name);
        e.f64(s.duration_s);
        e.u32(s.num_tasks);
        e.u64(s.input_bytes);
        e.u64(s.shuffle_read_bytes);
        e.u64(s.shuffle_write_bytes);
        e.u64(s.spill_bytes);
        e.f64(s.gc_time_s);
        e.u64(s.peak_task_memory);
        e.f64(s.cached_fraction);
    }
}

fn dec_result(d: &mut Dec) -> DecResult<RunResult> {
    let total_time_s = d.f64()?;
    let failed = d.u8()? != 0;
    let executors = d.u32()?;
    let slots = d.u32()?;
    let n = d.u16()? as usize;
    let mut stages = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        stages.push(StageStats {
            stage_id: d.u32()? as usize,
            name: d.name()?,
            duration_s: d.f64()?,
            num_tasks: d.u32()?,
            input_bytes: d.u64()?,
            shuffle_read_bytes: d.u64()?,
            shuffle_write_bytes: d.u64()?,
            spill_bytes: d.u64()?,
            gc_time_s: d.f64()?,
            peak_task_memory: d.u64()?,
            cached_fraction: d.f64()?,
        });
    }
    Ok(RunResult {
        total_time_s,
        stages,
        // The wire carries only a failed flag, same as the JSON codec.
        failure: failed.then_some(FailureReason::ExecutorOom),
        executors,
        slots,
    })
}

/// Encode one request as a complete v3 frame payload (header + body).
pub fn encode_request(req: &Request, req_id: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_request_into(req, req_id, &mut buf);
    buf
}

/// [`encode_request`], appended to `buf`.
pub fn encode_request_into(req: &Request, req_id: u32, buf: &mut Vec<u8>) {
    let trace = req.trace_id();
    let flags = if trace.is_some() { FLAG_TRACED } else { 0 };
    let mut e = Enc { buf };
    e.buf.extend_from_slice(&header_bytes(req.op(), flags, req_id, trace.unwrap_or(0)));
    match req {
        Request::Ping
        | Request::Stats
        | Request::Metrics
        | Request::Trace
        | Request::Health
        | Request::Tailtrace
        | Request::Slo => {}
        Request::Hello { max } => e.u64(*max),
        Request::Recommend { app, data, cluster, k, seed, trace: _ } => {
            enc_app(&mut e, *app);
            enc_data(&mut e, data);
            enc_cluster(&mut e, cluster);
            e.u16(*k as u16);
            e.u64(*seed);
        }
        Request::Observe { app, data, cluster, conf, result } => {
            enc_app(&mut e, *app);
            enc_data(&mut e, data);
            enc_cluster(&mut e, cluster);
            enc_conf(&mut e, conf);
            enc_result(&mut e, result);
        }
        Request::Retrieve { target, data, cluster, k, trace: _ } => {
            match target {
                RetrieveTarget::App(app) => {
                    e.u8(0);
                    enc_app(&mut e, *app);
                }
                RetrieveTarget::Source(src) => {
                    e.u8(1);
                    e.text(src);
                }
            }
            enc_data(&mut e, data);
            enc_cluster(&mut e, cluster);
            e.u16(*k as u16);
        }
        Request::Analyze { target } => match target {
            AnalyzeTarget::App(app) => {
                e.u8(0);
                enc_app(&mut e, *app);
            }
            AnalyzeTarget::Source { source, iterations } => {
                e.u8(1);
                e.text(source);
                e.u32(*iterations);
            }
        },
        Request::Profile { k } => e.u16(*k as u16),
    }
}

/// Decode a v3 frame payload into its header and typed request.
pub fn decode_request(payload: &[u8], space: &ConfSpace) -> DecResult<(V3Header, Request)> {
    let header = parse_header(payload)?;
    let trace = (header.flags & FLAG_TRACED != 0).then_some(header.trace_id);
    let mut d = Dec::new(&payload[V3_HEADER..]);
    let req = match header.op {
        OpCode::Ping => Request::Ping,
        OpCode::Stats => Request::Stats,
        OpCode::Metrics => Request::Metrics,
        OpCode::Trace => Request::Trace,
        OpCode::Health => Request::Health,
        OpCode::Tailtrace => Request::Tailtrace,
        OpCode::Slo => Request::Slo,
        OpCode::Hello => Request::Hello { max: d.u64()? },
        OpCode::Recommend => Request::Recommend {
            app: dec_app(&mut d)?,
            data: dec_data(&mut d)?,
            cluster: dec_cluster(&mut d)?,
            k: d.u16()? as usize,
            seed: d.u64()?,
            trace,
        },
        OpCode::Observe => Request::Observe {
            app: dec_app(&mut d)?,
            data: dec_data(&mut d)?,
            cluster: dec_cluster(&mut d)?,
            conf: dec_conf(&mut d, space)?,
            result: Box::new(dec_result(&mut d)?),
        },
        OpCode::Retrieve => {
            let target = match d.u8()? {
                0 => RetrieveTarget::App(dec_app(&mut d)?),
                1 => RetrieveTarget::Source(d.text()?),
                _ => return Err("bad retrieve target tag"),
            };
            Request::Retrieve {
                target,
                data: dec_data(&mut d)?,
                cluster: dec_cluster(&mut d)?,
                k: d.u16()? as usize,
                trace,
            }
        }
        OpCode::Analyze => {
            let target = match d.u8()? {
                0 => AnalyzeTarget::App(dec_app(&mut d)?),
                1 => {
                    let source = d.text()?;
                    AnalyzeTarget::Source { source, iterations: d.u32()? }
                }
                _ => return Err("bad analyze target tag"),
            };
            Request::Analyze { target }
        }
        OpCode::Profile => Request::Profile { k: d.u16()? as usize },
    };
    d.finish()?;
    Ok((header, req))
}

// ---------------------------------------------------------------------------
// Response codec

fn enc_ranked(e: &mut Enc, ranked: &[RankedCandidate]) {
    let n = ranked.len().min(u16::MAX as usize);
    e.u16(n as u16);
    for r in &ranked[..n] {
        enc_conf(e, &r.conf);
        e.f64(r.predicted_s);
    }
}

fn enc_recommend_body(
    e: &mut Enc,
    version: u64,
    cached: usize,
    scored: usize,
    degraded: bool,
    ranked: &[RankedCandidate],
) {
    e.u64(version);
    e.u32(cached as u32);
    e.u32(scored as u32);
    e.u8(u8::from(degraded));
    enc_ranked(e, ranked);
}

/// Encode a v3 `recommend` success response straight from the service's
/// answer.
pub fn encode_recommend_response(
    req_id: u32,
    trace: Option<u64>,
    resp: &RecommendResponse,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    let mut e = Enc { buf: &mut buf };
    let flags = if trace.is_some() { FLAG_TRACED } else { 0 };
    e.buf.extend_from_slice(&header_bytes(OpCode::Recommend, flags, req_id, trace.unwrap_or(0)));
    enc_recommend_body(&mut e, resp.version, resp.cached, resp.scored, resp.degraded, &resp.ranked);
    buf
}

/// Encode any typed response to `op` as a complete v3 frame payload.
pub fn encode_response(op: OpCode, req_id: u32, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_response_into(op, req_id, resp, &mut buf);
    buf
}

/// [`encode_response`], appended to `buf`.
pub fn encode_response_into(op: OpCode, req_id: u32, resp: &Response, buf: &mut Vec<u8>) {
    let mut e = Enc { buf };
    let (flags, trace_id) = match resp {
        Response::Recommend { trace: Some(t), .. } | Response::Retrieve { trace: Some(t), .. } => {
            (FLAG_TRACED, *t)
        }
        Response::Error { .. } => (FLAG_ERROR, 0),
        _ => (0, 0),
    };
    e.buf.extend_from_slice(&header_bytes(op, flags, req_id, trace_id));
    match resp {
        Response::Pong { version, swaps } => {
            e.u64(*version);
            e.u64(*swaps);
        }
        Response::Hello { v } => e.u64(*v),
        Response::Recommend { version, cached, scored, degraded, ranked, trace: _ } => {
            enc_recommend_body(&mut e, *version, *cached, *scored, *degraded, ranked);
        }
        Response::Observe { feedback } => e.u64(*feedback as u64),
        Response::Retrieve { index, search_ns, neighbors, ranked, trace: _ } => {
            e.u64(*index as u64);
            e.u64(*search_ns);
            let n = neighbors.len().min(u16::MAX as usize);
            e.u16(n as u16);
            for nb in &neighbors[..n] {
                enc_app(&mut e, nb.app);
                e.f64(nb.distance);
                e.f64(nb.runtime_s);
                e.f64(nb.estimate_s);
                enc_conf(&mut e, &nb.conf);
            }
            enc_ranked(&mut e, ranked);
        }
        // Admin bodies are the rendered JSON success document.
        Response::Admin(doc) => e.buf.extend_from_slice(doc.render().as_bytes()),
        Response::Error { code, message } => {
            e.u8(code.code());
            e.buf.extend_from_slice(message.as_bytes());
        }
    }
}

/// Decode a v3 response frame into its request id and typed response.
pub fn decode_response(payload: &[u8], space: &ConfSpace) -> DecResult<(u32, Response)> {
    let header = parse_header(payload)?;
    let body = &payload[V3_HEADER..];
    if header.flags & FLAG_ERROR != 0 {
        let mut d = Dec::new(body);
        let code = ErrorCode::from_code(u64::from(d.u8()?)).unwrap_or(ErrorCode::Internal);
        let message =
            std::str::from_utf8(&body[1..]).map_err(|_| "non-utf8 error message")?.to_string();
        return Ok((header.req_id, Response::Error { code, message }));
    }
    let mut d = Dec::new(body);
    let resp = match header.op {
        OpCode::Ping => Response::Pong { version: d.u64()?, swaps: d.u64()? },
        OpCode::Hello => Response::Hello { v: d.u64()? },
        OpCode::Observe => Response::Observe { feedback: d.u64()? as usize },
        OpCode::Recommend => {
            let version = d.u64()?;
            let cached = d.u32()? as usize;
            let scored = d.u32()? as usize;
            let degraded = d.u8()? != 0;
            let n = d.u16()? as usize;
            let mut ranked = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let conf = dec_conf(&mut d, space)?;
                ranked.push(RankedCandidate { conf, predicted_s: d.f64()? });
            }
            let trace = (header.flags & FLAG_TRACED != 0).then_some(header.trace_id);
            Response::Recommend { version, cached, scored, degraded, ranked, trace }
        }
        OpCode::Retrieve => {
            let index = d.u64()? as usize;
            let search_ns = d.u64()?;
            let n = d.u16()? as usize;
            let mut neighbors = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let app = dec_app(&mut d)?;
                let distance = d.f64()?;
                let runtime_s = d.f64()?;
                let estimate_s = d.f64()?;
                neighbors.push(Neighbor {
                    app,
                    distance,
                    runtime_s,
                    estimate_s,
                    conf: dec_conf(&mut d, space)?,
                });
            }
            let r = d.u16()? as usize;
            let mut ranked = Vec::with_capacity(r.min(1024));
            for _ in 0..r {
                let conf = dec_conf(&mut d, space)?;
                ranked.push(RankedCandidate { conf, predicted_s: d.f64()? });
            }
            let trace = (header.flags & FLAG_TRACED != 0).then_some(header.trace_id);
            Response::Retrieve { index, search_ns, neighbors, ranked, trace }
        }
        // Admin bodies are rendered JSON documents.
        _ => {
            let text = std::str::from_utf8(body).map_err(|_| "non-utf8 admin body in v3 frame")?;
            let doc = Json::parse(text).map_err(|_| "unparsable admin body in v3 frame")?;
            return Ok((header.req_id, Response::Admin(doc)));
        }
    };
    d.finish()?;
    Ok((header.req_id, resp))
}

// ---------------------------------------------------------------------------
// Codec selection

/// The codec a frame arrived in — picked from its first payload byte —
/// and therefore the one its answer leaves in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// The v2 JSON envelope.
    Json,
    /// A v3 binary frame, with the header fields its answer echoes. Both
    /// are read best-effort, so even an undecodable frame's error frame
    /// names the op and correlation tag the sender used.
    V3 {
        /// The request's op (`Ping` when the op byte is unknown).
        op: OpCode,
        /// The pipelining correlation tag.
        req_id: u32,
    },
}

impl Codec {
    /// The codec of one frame payload.
    pub fn of(payload: &[u8]) -> Codec {
        if payload.first() != Some(&V3_MAGIC) {
            return Codec::Json;
        }
        let op = payload.get(2).and_then(|&b| OpCode::from_code(u64::from(b)));
        let req_id = match payload.get(4..8) {
            Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            None => 0,
        };
        Codec::V3 { op: op.unwrap_or(OpCode::Ping), req_id }
    }

    /// The newest protocol version this codec can carry — what a `hello`
    /// arriving in it can negotiate at most.
    pub fn version(self) -> u64 {
        match self {
            Codec::Json => PROTOCOL_VERSION,
            Codec::V3 { .. } => PROTOCOL_V3,
        }
    }

    /// Decode a request frame. `Err` is a `bad_request` message.
    pub fn decode(self, payload: &[u8], space: &ConfSpace) -> Result<Request, String> {
        match self {
            Codec::Json => {
                let text = std::str::from_utf8(payload).map_err(|_| "frame is not utf-8")?;
                let doc = Json::parse(text).map_err(|e| e.to_string())?;
                Request::from_json(&doc, space)
            }
            Codec::V3 { .. } => {
                decode_request(payload, space).map(|(_, request)| request).map_err(str::to_string)
            }
        }
    }

    /// Encode a response frame's payload, appended to `buf`.
    pub fn encode_into(self, response: Response, buf: &mut Vec<u8>) {
        match self {
            Codec::Json => buf.extend_from_slice(response.to_json().render().as_bytes()),
            Codec::V3 { op, req_id } => encode_response_into(op, req_id, &response, buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parsers_roundtrip_domain_types() {
        let data = AppId::PageRank.dataset(lite_workloads::data::SizeTier::Valid);
        let parsed = parse_data(Some(&data_to_json(&data))).unwrap();
        assert_eq!(parsed, data);

        let cluster = ClusterRef::from_json(Some(&Json::from("cluster-b"))).unwrap();
        assert_eq!(cluster.resolve().unwrap(), ClusterSpec::cluster_b());
        let custom = Json::parse(
            r#"{"name":"x","nodes":2,"cores_per_node":8,"cpu_ghz":3.0,
                "mem_gb_per_node":32,"mem_mts":2400,"net_gbps":10}"#,
        )
        .unwrap();
        assert_eq!(ClusterRef::from_json(Some(&custom)).unwrap().resolve().unwrap().nodes, 2);

        let space = ConfSpace::table_iv();
        let conf = space.default_conf();
        assert_eq!(parse_conf(Some(&conf_to_json(&conf)), &space).unwrap(), conf);

        assert_eq!(parse_app(Some(&Json::from("KMeans"))).unwrap(), AppId::KMeans);
        assert!(parse_app(Some(&Json::from("NoSuchApp"))).is_err());
    }

    #[test]
    fn run_results_roundtrip_the_fields_feedback_needs() {
        let result = RunResult {
            total_time_s: 42.5,
            stages: vec![StageStats {
                stage_id: 3,
                name: "reduce".into(),
                duration_s: 21.25,
                num_tasks: 64,
                input_bytes: 1024,
                shuffle_read_bytes: 256,
                shuffle_write_bytes: 128,
                spill_bytes: 0,
                gc_time_s: 0.5,
                peak_task_memory: 99,
                cached_fraction: 0.75,
            }],
            failure: None,
            executors: 4,
            slots: 16,
        };
        let parsed = parse_result(Some(&result_to_json(&result))).unwrap();
        assert_eq!(parsed, result);
    }

    #[test]
    fn v3_request_roundtrip_hot_ops() {
        let space = ConfSpace::table_iv();
        let data = AppId::Sort.dataset(lite_workloads::data::SizeTier::Valid);
        let req = Request::Recommend {
            app: AppId::Sort,
            data,
            cluster: ClusterRef::Preset("cluster-a".into()),
            k: 3,
            seed: 7,
            trace: Some(42),
        };
        let frame = encode_request(&req, 9);
        let (header, decoded) = decode_request(&frame, &space).expect("decode");
        assert_eq!(header.req_id, 9);
        assert_eq!(header.trace_id, 42);
        assert_eq!(decoded, req);
        assert_eq!(encode_request(&decoded, 9), frame, "re-encode is bit-identical");
    }

    #[test]
    fn v3_truncated_frames_fail_cleanly() {
        let space = ConfSpace::table_iv();
        let data = AppId::Sort.dataset(lite_workloads::data::SizeTier::Valid);
        let req = Request::Recommend {
            app: AppId::Sort,
            data,
            cluster: ClusterRef::Spec(ClusterSpec::cluster_b()),
            k: 1,
            seed: 0,
            trace: None,
        };
        let frame = encode_request(&req, 0);
        for cut in 0..frame.len() {
            assert!(decode_request(&frame[..cut], &space).is_err(), "cut at {cut} must fail");
        }
        // Trailing garbage is refused too: round-trips are exact.
        let mut padded = frame.clone();
        padded.push(0);
        assert!(decode_request(&padded, &space).is_err());
    }

    #[test]
    fn v3_response_roundtrip_recommend() {
        let space = ConfSpace::table_iv();
        let resp = RecommendResponse {
            version: 5,
            ranked: vec![RankedCandidate { conf: space.default_conf(), predicted_s: 12.5 }],
            cached: 2,
            scored: 3,
            degraded: false,
        };
        let frame = encode_recommend_response(7, Some(99), &resp);
        let (req_id, decoded) = decode_response(&frame, &space).expect("decode");
        assert_eq!(req_id, 7);
        match decoded {
            Response::Recommend { version, cached, scored, degraded, ranked, trace } => {
                assert_eq!((version, cached, scored, degraded), (5, 2, 3, false));
                assert_eq!(ranked.len(), 1);
                assert_eq!(ranked[0].predicted_s, 12.5);
                assert_eq!(trace, Some(99), "traced response must echo its id");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let full = Response::Error { code: ErrorCode::Overloaded, message: "full".into() };
        let err = encode_response(OpCode::Recommend, 8, &full);
        let (id, e) = decode_response(&err, &space).expect("decode error frame");
        assert_eq!((id, e), (8, full));
    }
}
