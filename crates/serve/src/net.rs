//! Length-prefixed TCP front-end over the in-process service handle:
//! the reactor, the framing, and the one frame handler.
//!
//! Framing is a 4-byte big-endian payload length followed by one payload
//! in either codec of [`crate::proto`] — a v2 JSON document or a v3 binary
//! frame, told apart by the first payload byte. One request frame yields
//! exactly one response frame in the codec it arrived in.
//!
//! Every frame goes through [`serve_frame`]: pick the codec, decode to a
//! typed [`Request`], run the one `match` over its variants, and write the
//! typed [`Response`] back through the same codec — inline for everything
//! the reactor can answer itself, from the worker's callback for
//! `recommend`/`observe`. The wire shapes of requests, answers and errors
//! are documented (and owned) by [`crate::proto`]; what follows are the
//! success documents of the admin ops, which this module renders. Each is
//! the `Response::Admin` payload: stamped `"v":2` in JSON, carried verbatim
//! as the body of a v3 frame.
//!
//! * `stats` → `{"ok":true,"uptime_s":u,"version":v,"swaps":n,
//!   "queue_depth":d,"queue_capacity":c,"workers":w,"feedback":f,
//!   "update_batch":b,"requests":r,
//!   "cache":{"hit_rate":h,"hits":x,"misses":y},
//!   "drift":{"samples":s,"mape":m,"mean_error_s":e,"inversion_rate":i,
//!   "drifted":false}}` — a point-in-time operational summary. With
//!   tracing enabled it additionally carries
//!   `"phases":[{"phase":"queue_wait","count":...,"p50_ns":...,...},...]`
//!   (the `serve.phase.*` breakdown), and with an SLO configured a
//!   `"slo":{"alert":...,"burn_fast":...,"window":{...}}` summary — both
//!   strictly additive keys.
//! * `metrics` → `{"ok":true,"content_type":"text/plain; version=0.0.4",
//!   "body":"# TYPE serve_requests counter\nserve_requests 17\n..."}` —
//!   the service registry as Prometheus text exposition (histograms as
//!   cumulative `_bucket`/`_sum`/`_count`).
//! * `trace` → `{"ok":true,"trace":{"traceEvents":[...]},
//!   "dropped_spans":0}` — finished spans as Chrome trace-event JSON; save
//!   the `trace` value to a file and load it in Perfetto. Empty when
//!   tracing is disabled. When the document would overflow the response
//!   frame the oldest spans are shed and counted in `dropped_spans`, with
//!   those the tracer's bounded ring already evicted.
//! * `health` → `{"ok":true,"status":"ok","version":v,"uptime_s":u}` —
//!   liveness for probes.
//! * `tailtrace` → `{"ok":true,"completed":n,"captured":m,
//!   "exemplars":[{"trace_id":id,"total_ns":t,
//!   "spans":[{"phase":"queue_wait","start_ns":a,"end_ns":b,
//!   "queue_depth":d,"swap":false},...]},...]}` — the slowest captured
//!   requests in full, phase by phase, slowest first. Empty when tail
//!   forensics is disabled. When the document would overflow the response
//!   frame the fastest exemplars are shed first.
//! * `analyze` → `{"ok":true,"app_name":...,
//!   "stages":[{"template":...,"ops":["textFile",...],
//!   "instances_per_run":n},...],"diagnostics":[{"rule":...,
//!   "message":...,"line":l,"col":c},...]}` — the `lite-analyze` static
//!   extractor over the wire: stage templates and lint findings without
//!   running the application (cold-start onboarding).
//! * `profile` → `{"ok":true,"samples":n,"sweeps":s,
//!   "torn":0,"truncated":0,"threads":t,"distinct_stacks":d,
//!   "top":[{"tag":"serve.recommend","self":a,"total":b},...],
//!   "alloc":[{"tag":...,"bytes":...,"allocs":...},...],
//!   "folded":"serve.recommend;serve.score 42\n..."}` — the
//!   sampling-profiler report: the top-`k` tags by self samples,
//!   allocation attribution from the opt-in allocator wrapper, and the
//!   collapsed-stack text a flamegraph renders from. `bad_request` from
//!   servers running no profiler.
//! * `slo` → `{"ok":true,"objective_ns":o,"target":0.999,
//!   "bucket_s":1,"burn_fast":b,"burn_slow":c,"good_fraction":g,
//!   "alert":false,"alert_ticks":0,"fast":{"count":...,"rate":...,
//!   "p50_ns":...,"p99_ns":...,"p999_ns":...,"span_s":...},"slow":{...}}`
//!   — burn-rate SLO status over windowed rollups of `serve.latency_ns`.
//!   `bad_request` from servers with no SLO configured.
//!
//! ## Tracing
//!
//! When the server runs with tail forensics enabled, a `recommend` or
//! `retrieve` is recorded phase by phase (frame read, parse, queueing,
//! scoring, serialization, write) under its trace id, and the id is echoed
//! in the answer. A v2 JSON request carries the id as `"t"` and is
//! assigned a server-generated one when it has none; a v3 request is
//! traced only when its header sets `FLAG_TRACED`, so pipelined hot paths
//! stay trace-free unless the caller asks. With forensics disabled the id
//! is ignored and answers carry none.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use lite_obs::span::epoch_ns;
use lite_obs::trace::{Exemplar, Phase, TraceId};
use lite_obs::Json;
use lite_sparksim::conf::ConfSpace;
use lite_sparksim::fault::FaultKind;
use lite_workloads::data::{DataSpec, SizeTier};

pub use crate::client::{Client, ClientBuilder};
use crate::monitor::DriftSummary;
use crate::proto::{
    AnalyzeTarget, ClusterRef, Codec, Request, Response, RetrieveTarget, PROTOCOL_VERSION,
};
use crate::service::{ServiceHandle, ServiceStats};

/// Largest accepted frame payload; recommendation traffic is tiny, so
/// anything bigger is a protocol error, not a workload. The transport
/// ceiling: `ProtocolConfig::max_frame` may lower the binary-frame cap
/// per service, never raise it past this.
pub const MAX_FRAME: u32 = 1 << 20;

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame; `None` on a clean EOF before the length prefix.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Server

/// A running TCP front-end. Dropping (or calling
/// [`shutdown`](TcpServer::shutdown)) stops the reactor; established
/// connections are closed once their in-flight requests drain.
pub struct TcpServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    reactor_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stop the reactor and join it.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // The reactor polls non-blockingly, so setting the flag is enough.
        if let Some(t) = self.reactor_thread.take() {
            t.join().expect("reactor thread panicked"); // gate: allow(expect)
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Serve `handle` over TCP at `addr` (e.g. `"127.0.0.1:0"`).
///
/// One readiness-driven reactor thread owns the listener and every
/// connection: sockets are non-blocking, frames are extracted from
/// per-connection buffers, and hot operations (`recommend`/`observe`)
/// are submitted to the shard queues with callback replies so the
/// reactor never blocks on a worker. JSON frames are served strictly one
/// at a time; v3 binary frames may pipeline up to `protocol.max_pipeline`
/// deep, with responses correlated by request id. Admin and retrieval
/// operations are answered inline on the reactor.
pub fn serve_tcp<A: ToSocketAddrs>(handle: ServiceHandle, addr: A) -> std::io::Result<TcpServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let reactor_stop = stop.clone();
    let reactor_thread = std::thread::Builder::new()
        .name("serve-reactor".into())
        .spawn(move || reactor_loop(listener, handle, reactor_stop))
        .expect("spawn reactor thread"); // gate: allow(expect)
    Ok(TcpServer { local_addr, stop, reactor_thread: Some(reactor_thread) })
}

/// The reply half of a connection, shared with worker callbacks. Writes
/// go through a mutex (one frame at a time, never interleaved) on a
/// dup'd socket handle; `dead` poisons the connection for the reactor.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
    in_flight: AtomicUsize,
    faults: Option<Arc<lite_sparksim::fault::FaultInjector>>,
}

impl ConnWriter {
    /// Write one length-prefixed frame, honoring the injected torn-frame
    /// fault (length promises a full payload, half arrives, the
    /// connection dies). Marks the connection dead on any write failure.
    fn write_frame(&self, payload: &[u8]) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let Ok(len) = u32::try_from(payload.len()) else {
            self.dead.store(true, Ordering::Release);
            return false;
        };
        if len > MAX_FRAME {
            self.dead.store(true, Ordering::Release);
            return false;
        }
        let torn =
            self.faults.as_deref().is_some_and(|f| f.fires(FaultKind::TornFrame, f.next_key()));
        let body = if torn { &payload[..payload.len() / 2] } else { payload };
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(body);
        let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        let ok = nb_write_all(&mut stream, &frame).is_ok();
        let _ = stream.flush();
        drop(stream);
        if torn || !ok {
            self.dead.store(true, Ordering::Release);
            return false;
        }
        true
    }
}

/// `write_all` over a non-blocking socket (the dup'd writer handle shares
/// the reader's `O_NONBLOCK`): retry briefly on `WouldBlock`, give up —
/// poisoning the connection — if the peer stalls for seconds.
fn nb_write_all(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    let mut stalls = 0u32;
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "peer gone")),
            Ok(n) => {
                buf = &buf[n..];
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                stalls += 1;
                if stalls > 40_000 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "peer not draining",
                    ));
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Per-connection reactor state: the non-blocking reader, the shared
/// writer, and the receive buffer frames are extracted from.
struct Conn {
    stream: TcpStream,
    writer: Arc<ConnWriter>,
    buf: Vec<u8>,
    read_closed: bool,
    /// When the connection went idle (last frame fully consumed) — the
    /// start of the next request's `Accept` span.
    idle_ns: u64,
    /// When bytes last arrived — the `Accept`/`FrameRead` boundary.
    last_read_ns: u64,
}

/// Receive-buffer cap per connection: enough for one maximal frame plus a
/// full pipeline of small ones; the reactor stops draining the socket
/// past it, which backpressures pipelining clients through TCP.
const CONN_BUF_CAP: usize = 2 * MAX_FRAME as usize;

impl Conn {
    fn new(
        stream: TcpStream,
        writer_stream: TcpStream,
        faults: Option<Arc<lite_sparksim::fault::FaultInjector>>,
    ) -> Conn {
        let now = epoch_ns();
        Conn {
            stream,
            writer: Arc::new(ConnWriter {
                stream: Mutex::new(writer_stream),
                dead: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                faults,
            }),
            buf: Vec::new(),
            read_closed: false,
            idle_ns: now,
            last_read_ns: now,
        }
    }

    /// Whether the connection still has work: not poisoned, and either
    /// readable, holding a complete buffered frame, or awaiting replies.
    fn alive(&self) -> bool {
        if self.writer.dead.load(Ordering::Acquire) {
            return false;
        }
        !self.read_closed
            || self.writer.in_flight.load(Ordering::Acquire) > 0
            || complete_frame_len(&self.buf).is_some()
    }

    /// Drain the socket into the buffer and serve every extractable
    /// frame. Returns whether anything happened (the reactor's idle
    /// detector).
    fn pump(&mut self, cx: &ReactorCx, chunk: &mut [u8]) -> bool {
        if self.writer.dead.load(Ordering::Acquire) {
            return false;
        }
        let mut active = false;
        while !self.read_closed && self.buf.len() < CONN_BUF_CAP {
            match self.stream.read(chunk) {
                Ok(0) => self.read_closed = true,
                Ok(n) => {
                    self.last_read_ns = epoch_ns();
                    self.buf.extend_from_slice(&chunk[..n]);
                    active = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.read_closed = true;
                    self.writer.dead.store(true, Ordering::Release);
                }
            }
        }
        while let Some(total) = complete_frame_len(&self.buf) {
            if total == usize::MAX {
                // Oversized length prefix: unrecoverable framing error.
                self.writer.dead.store(true, Ordering::Release);
                self.read_closed = true;
                self.buf.clear();
                break;
            }
            let codec = Codec::of(&self.buf[4..total]);
            let in_flight = self.writer.in_flight.load(Ordering::Acquire);
            // JSON frames are strictly serial (responses carry no
            // correlation tag, so order is the contract); binary frames
            // pipeline up to the configured depth.
            let depth = if codec == Codec::Json { 1 } else { cx.max_pipeline };
            if in_flight >= depth {
                break;
            }
            let payload = self.buf[4..total].to_vec();
            self.buf.drain(..total);
            active = true;
            let arrived_ns = self.last_read_ns;
            let idle_ns = self.idle_ns;
            self.idle_ns = epoch_ns();
            serve_frame(cx, &self.writer, codec, &payload, idle_ns, arrived_ns);
        }
        active
    }
}

/// Total length (prefix + payload) of the first complete frame in `buf`,
/// `None` when more bytes are needed, `usize::MAX` when the length prefix
/// itself is out of protocol bounds.
fn complete_frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME {
        return Some(usize::MAX);
    }
    let total = 4 + len as usize;
    (buf.len() >= total).then_some(total)
}

/// Shared per-reactor context threaded into the frame handler.
struct ReactorCx {
    handle: ServiceHandle,
    space: ConfSpace,
    max_pipeline: usize,
    binary_cap: u32,
}

fn reactor_loop(listener: TcpListener, handle: ServiceHandle, stop: Arc<AtomicBool>) {
    let faults = handle.fault_injector();
    let cx = ReactorCx {
        space: ConfSpace::table_iv(),
        max_pipeline: handle.protocol().max_pipeline.max(1),
        binary_cap: handle.protocol().max_frame.min(MAX_FRAME),
        handle,
    };
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    while !stop.load(Ordering::Acquire) {
        let mut active = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Frames are small; without NODELAY, Nagle + delayed
                    // ACK stalls every response by tens of milliseconds.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if let Ok(writer_stream) = stream.try_clone() {
                        conns.push(Conn::new(stream, writer_stream, faults.clone()));
                        active = true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        for conn in &mut conns {
            active |= conn.pump(&cx, &mut chunk);
        }
        conns.retain(Conn::alive);
        if !active {
            // Nothing readable and nothing accepted: yield briefly rather
            // than spin. Callback replies progress on worker threads.
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
}

// ---------------------------------------------------------------------------
// The frame handler

/// What writing one request's answer needs beyond the answer itself: the
/// codec it arrived in and its trace context. `Copy`, so the worker
/// callbacks of `recommend`/`observe` carry it for free.
#[derive(Clone, Copy)]
struct Reply {
    codec: Codec,
    trace: Option<TraceId>,
    arrived_ns: u64,
}

impl Reply {
    /// Encode and write one response, recording the serialize/write phases
    /// and completing the trace.
    fn send(self, handle: &ServiceHandle, writer: &ConnWriter, response: Response) {
        let serialize_start_ns = if self.trace.is_some() { epoch_ns() } else { 0 };
        let frame = self.codec.encode(response);
        let write_start_ns = if self.trace.is_some() { epoch_ns() } else { 0 };
        if let Some(id) = self.trace {
            handle.trace_phase(id, Phase::Serialize, serialize_start_ns, write_start_ns);
        }
        writer.write_frame(&frame);
        if let Some(id) = self.trace {
            let done_ns = epoch_ns();
            handle.trace_phase(id, Phase::Write, write_start_ns, done_ns);
            // End-to-end as the server observed it: from the request frame
            // arriving to the response flushed. This is the latency the
            // exemplar reservoir ranks by.
            handle.trace_complete(id, done_ns.saturating_sub(self.arrived_ns));
        }
    }
}

/// Serve one frame of either codec: decode it to a typed [`Request`], run
/// the op, and answer through the codec it arrived in. Hot operations are
/// submitted to the shard queues and answered from the worker's callback;
/// everything else is answered inline. Every failure is a clean error
/// frame — the connection survives anything short of transport-level
/// framing damage.
fn serve_frame(
    cx: &ReactorCx,
    writer: &Arc<ConnWriter>,
    codec: Codec,
    payload: &[u8],
    idle_ns: u64,
    arrived_ns: u64,
) {
    let handle = &cx.handle;
    let decoded = if codec != Codec::Json && payload.len() > cx.binary_cap as usize {
        Err("binary frame exceeds protocol.max_frame".to_string())
    } else {
        codec.decode(payload, &cx.space)
    };
    let request = match decoded {
        Ok(request) => request,
        Err(msg) => {
            let reply = Reply { codec, trace: None, arrived_ns };
            reply.send(handle, writer, Response::bad_request(msg));
            return;
        }
    };
    // JSON `recommend`/`retrieve` are always traced (the server generates
    // an id when the frame carries none); binary tracing is strictly
    // opt-in per request, so pipelined hot paths stay trace-free unless
    // the caller asks.
    let traceable = matches!(request, Request::Recommend { .. } | Request::Retrieve { .. });
    let trace = if traceable && handle.trace_enabled() {
        let wire = request.trace_id().and_then(TraceId::from_wire);
        wire.or_else(|| (codec == Codec::Json).then(TraceId::generate))
    } else {
        None
    };
    if let Some(id) = trace {
        // The trace id lives inside the frame, so the socket-side phases
        // that precede decoding are recorded retroactively. Accept covers
        // the idle wait between frames (kept out of the request's
        // end-to-end total); FrameRead is the buffered-transfer boundary.
        handle.trace_phase(id, Phase::Accept, idle_ns, arrived_ns);
        handle.trace_phase(id, Phase::FrameRead, arrived_ns, arrived_ns);
        handle.trace_phase(id, Phase::Parse, arrived_ns, epoch_ns());
    }
    let reply = Reply { codec, trace, arrived_ns };
    let response = match request {
        Request::Ping => Response::Pong { version: handle.version(), swaps: handle.swap_count() },
        Request::Hello { max } => {
            Response::Hello { v: max.clamp(PROTOCOL_VERSION, codec.version()) }
        }
        Request::Recommend { app, data, cluster, k, seed, .. } => match cluster.resolve() {
            Ok(cluster) => {
                writer.in_flight.fetch_add(1, Ordering::AcqRel);
                let (h, w) = (handle.clone(), writer.clone());
                handle.submit_recommend(
                    app,
                    &data,
                    &cluster,
                    k,
                    seed,
                    handle.default_deadline(),
                    trace,
                    Box::new(move |outcome, sent_ns, shard| {
                        if let Some(id) = reply.trace {
                            if sent_ns != 0 {
                                h.trace_respond(id, sent_ns, epoch_ns(), shard);
                            }
                        }
                        let response = match outcome {
                            Ok(resp) => Response::recommend(resp, reply.trace.map(TraceId::raw)),
                            Err(err) => Response::error(&err),
                        };
                        reply.send(&h, &w, response);
                        w.in_flight.fetch_sub(1, Ordering::AcqRel);
                    }),
                );
                return;
            }
            Err(msg) => Response::bad_request(msg),
        },
        Request::Observe { app, data, cluster, conf, result } => match cluster.resolve() {
            Ok(cluster) => {
                writer.in_flight.fetch_add(1, Ordering::AcqRel);
                let (h, w) = (handle.clone(), writer.clone());
                handle.observe_with(
                    app,
                    &data,
                    &cluster,
                    &conf,
                    result,
                    Box::new(move |outcome, _, _| {
                        let response = match outcome {
                            Ok(feedback) => Response::Observe { feedback },
                            Err(err) => Response::error(&err),
                        };
                        reply.send(&h, &w, response);
                        w.in_flight.fetch_sub(1, Ordering::AcqRel);
                    }),
                );
                return;
            }
            Err(msg) => Response::bad_request(msg),
        },
        Request::Retrieve { target, data, cluster, k, .. } => {
            retrieve(handle, &target, &data, &cluster, k, trace)
        }
        Request::Analyze { target } => {
            let (source, iterations) = match &target {
                AnalyzeTarget::App(app) => {
                    (app.main_source(), app.dataset(SizeTier::Train(0)).iterations)
                }
                AnalyzeTarget::Source { source, iterations } => (source.as_str(), *iterations),
            };
            let options = lite_analyze::ExtractOptions { iterations: iterations.max(1) };
            match lite_analyze::extract_stages(source, options) {
                Ok(ex) => Response::Admin(extraction_to_json(&ex)),
                Err(e) => Response::bad_request(e.to_string()),
            }
        }
        Request::Profile { k } => profile(handle, k.clamp(1, 64)),
        Request::Stats => Response::Admin(stats_with_planes(handle)),
        Request::Metrics => Response::Admin(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("content_type", Json::from("text/plain; version=0.0.4")),
            ("body", Json::from(handle.prometheus().as_str())),
        ])),
        Request::Trace => {
            // Leave half the frame for the envelope and escaping overhead;
            // oldest spans are shed first when the trace outgrows it.
            let (trace_doc, dropped) = handle.trace_json_capped(MAX_FRAME as usize / 2);
            Response::Admin(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("trace", trace_doc),
                ("dropped_spans", Json::from(dropped)),
            ]))
        }
        Request::Health => Response::Admin(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("status", Json::from("ok")),
            ("version", Json::from(handle.version())),
            ("uptime_s", Json::Num(handle.stats().uptime_s)),
        ])),
        Request::Tailtrace => {
            let (completed, captured) = handle.tail_totals();
            // Same half-frame budget; the fastest exemplars are shed first
            // when the document outgrows it.
            Response::Admin(tailtrace_to_json(
                handle.tail_exemplars(),
                completed,
                captured,
                MAX_FRAME as usize / 2,
            ))
        }
        Request::Slo => slo(handle),
    };
    reply.send(handle, writer, response);
}

/// The `retrieve` op: inline on the reactor (an index search, not a
/// scoring job), refused with `bad_request` when the server has no store.
fn retrieve(
    handle: &ServiceHandle,
    target: &RetrieveTarget,
    data: &DataSpec,
    cluster: &ClusterRef,
    k: usize,
    trace: Option<TraceId>,
) -> Response {
    if !handle.retrieval_enabled() {
        return Response::bad_request("retrieval not enabled on this server");
    }
    let cluster = match cluster.resolve() {
        Ok(cluster) => cluster,
        Err(msg) => return Response::bad_request(msg),
    };
    let k = k.clamp(1, 64);
    let outcome = match target {
        RetrieveTarget::App(app) => handle.retrieve(*app, data, &cluster, k, trace),
        RetrieveTarget::Source(src) => handle.retrieve_source(src, data, &cluster, k, trace),
    };
    match outcome {
        Ok(resp) => Response::retrieve(resp, trace.map(TraceId::raw)),
        Err(err) => Response::error(&err),
    }
}

// ---------------------------------------------------------------------------
// Admin documents

/// Encode the tail-forensics reservoir, shedding the fastest exemplars
/// until the document fits `max_bytes`.
fn tailtrace_to_json(
    mut exemplars: Vec<Exemplar>,
    completed: u64,
    captured: u64,
    max_bytes: usize,
) -> Json {
    loop {
        let doc = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("completed", Json::from(completed)),
            ("captured", Json::from(captured)),
            ("exemplars", Json::Arr(exemplars.iter().map(exemplar_to_json).collect())),
        ]);
        if doc.render().len() <= max_bytes || exemplars.is_empty() {
            return doc;
        }
        exemplars.pop();
    }
}

/// Encode one captured exemplar for the wire.
fn exemplar_to_json(e: &Exemplar) -> Json {
    Json::obj(vec![
        ("trace_id", Json::from(e.trace_id)),
        ("total_ns", Json::from(e.total_ns)),
        (
            "spans",
            Json::Arr(
                e.spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("phase", Json::from(s.phase.name())),
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                            ("queue_depth", Json::from(u64::from(s.queue_depth))),
                            ("swap", Json::Bool(s.swap_in_progress)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn extraction_to_json(ex: &lite_analyze::Extraction) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("app_name", ex.app_name.as_deref().map_or(Json::Null, Json::from)),
        (
            "stages",
            Json::Arr(
                ex.stages
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("template", Json::from(s.template.as_str())),
                            (
                                "ops",
                                Json::Arr(s.ops.iter().map(|o| Json::from(o.label())).collect()),
                            ),
                            ("instances_per_run", Json::from(s.instances_per_run)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "diagnostics",
            Json::Arr(
                ex.diagnostics
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("rule", Json::from(d.rule)),
                            ("message", Json::from(d.message.as_str())),
                            ("line", Json::from(u64::from(d.span.line))),
                            ("col", Json::from(u64::from(d.span.col))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn profile(handle: &ServiceHandle, k: usize) -> Response {
    let Some(report) = handle.profile_report(k) else {
        return Response::bad_request("profiling not enabled on this server");
    };
    let folded = handle.profile_folded().unwrap_or_default();
    Response::Admin(Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("samples", Json::from(report.samples)),
        ("sweeps", Json::from(report.sweeps)),
        ("torn", Json::from(report.torn)),
        ("truncated", Json::from(report.truncated)),
        ("threads", Json::from(report.threads)),
        ("distinct_stacks", Json::from(report.distinct_stacks)),
        (
            "top",
            Json::Arr(
                report
                    .top
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("tag", Json::from(t.tag.as_str())),
                            ("self", Json::from(t.self_samples)),
                            ("total", Json::from(t.total_samples)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "alloc",
            Json::Arr(
                lite_obs::prof::alloc_table()
                    .iter()
                    .map(|(tag, bytes, allocs)| {
                        Json::obj(vec![
                            ("tag", Json::from(tag.as_str())),
                            ("bytes", Json::from(*bytes)),
                            ("allocs", Json::from(*allocs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("folded", Json::from(folded.as_str())),
    ]))
}

/// Encode one [`lite_obs::WindowStats`] for the wire.
fn window_to_json(w: &lite_obs::WindowStats) -> Json {
    Json::obj(vec![
        ("count", Json::from(w.count)),
        ("rate", Json::Num(w.rate)),
        ("mean_ns", Json::Num(w.mean)),
        ("min_ns", Json::from(w.min)),
        ("max_ns", Json::from(w.max)),
        ("p50_ns", Json::from(w.p50)),
        ("p90_ns", Json::from(w.p90)),
        ("p99_ns", Json::from(w.p99)),
        ("p999_ns", Json::from(w.p999)),
        ("span_s", Json::Num(w.span_s)),
    ])
}

fn slo(handle: &ServiceHandle) -> Response {
    let (Some(config), Some(status)) = (handle.slo_config(), handle.slo_status()) else {
        return Response::bad_request("slo not configured on this server");
    };
    Response::Admin(Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("objective_ns", Json::from(config.objective_ns)),
        ("target", Json::Num(config.target)),
        ("bucket_s", Json::Num(config.bucket.as_secs_f64())),
        ("burn_fast", Json::Num(status.burn_fast)),
        ("burn_slow", Json::Num(status.burn_slow)),
        ("good_fraction", Json::Num(status.good_fraction)),
        ("alert", Json::Bool(status.alert)),
        ("alert_ticks", Json::from(status.alert_ticks)),
        ("fast", window_to_json(&status.fast)),
        ("slow", window_to_json(&status.slow)),
    ]))
}

/// The `stats` response: the point-in-time summary plus, additively, the
/// per-phase latency breakdown (tracing enabled) and the windowed SLO
/// view (SLO configured) — so operators get both without a Prometheus
/// scrape. Servers without those planes answer exactly as before.
fn stats_with_planes(handle: &ServiceHandle) -> Json {
    let mut doc = stats_to_json(&handle.stats());
    let Json::Obj(pairs) = &mut doc else { return doc };
    let phases = handle.phase_summaries();
    if !phases.is_empty() {
        let arr = phases
            .iter()
            .map(|(name, s)| {
                Json::obj(vec![
                    ("phase", Json::from(*name)),
                    ("count", Json::from(s.count)),
                    ("mean_ns", Json::Num(s.mean)),
                    ("p50_ns", Json::from(s.p50)),
                    ("p90_ns", Json::from(s.p90)),
                    ("p99_ns", Json::from(s.p99)),
                    ("p999_ns", Json::from(s.p999)),
                    ("max_ns", Json::from(s.max)),
                ])
            })
            .collect();
        pairs.push(("phases".to_string(), Json::Arr(arr)));
    }
    if let Some(status) = handle.slo_status() {
        pairs.push((
            "slo".to_string(),
            Json::obj(vec![
                ("alert", Json::Bool(status.alert)),
                ("burn_fast", Json::Num(status.burn_fast)),
                ("burn_slow", Json::Num(status.burn_slow)),
                ("good_fraction", Json::Num(status.good_fraction)),
                ("window", window_to_json(&status.fast)),
            ]),
        ));
    }
    doc
}

fn drift_to_json(d: &DriftSummary) -> Json {
    Json::obj(vec![
        ("samples", Json::from(d.samples)),
        ("mape", Json::Num(d.mape)),
        ("mean_error_s", Json::Num(d.mean_error_s)),
        ("inversion_rate", Json::Num(d.inversion_rate)),
        ("drifted", Json::Bool(d.drifted)),
    ])
}

fn stats_to_json(s: &ServiceStats) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("uptime_s", Json::Num(s.uptime_s)),
        ("version", Json::from(s.version)),
        ("swaps", Json::from(s.swap_count)),
        ("queue_depth", Json::from(s.queue_depth)),
        ("queue_capacity", Json::from(s.queue_capacity)),
        ("workers", Json::from(s.workers)),
        ("feedback", Json::from(s.feedback_len)),
        ("update_batch", Json::from(s.update_batch)),
        ("requests", Json::from(s.requests)),
        (
            "cache",
            Json::obj(vec![
                ("hit_rate", Json::Num(s.cache_hit_rate)),
                ("hits", Json::from(s.cache_hits)),
                ("misses", Json::from(s.cache_misses)),
            ]),
        ),
        ("drift", drift_to_json(&s.drift)),
        ("degraded", Json::Bool(s.degraded)),
        ("backend", Json::from("snapshot")),
        ("updater_failures", Json::from(s.updater_failures)),
        ("fallbacks", Json::from(s.fallbacks)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"v\":2,\"o\":0}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"{\"v\":2,\"o\":0}");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let huge = (MAX_FRAME + 1).to_be_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }
}
