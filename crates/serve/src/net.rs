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
//! are documented (and owned) by [`crate::proto`], the success documents
//! of the admin ops by [`crate::admin`].
//!
//! ## The reactor
//!
//! One thread (`serve-reactor`) owns the listener and every connection and
//! blocks in one `poll(2)` over them and a wake channel; nothing in this
//! module sleeps or retries a socket on a timer. For [`HOT_WINDOW`] after
//! it served a v3 frame it polls without blocking first, so the next
//! request of a closely spaced stream finds its CPU awake. Each connection
//! enters the set as what its next step needs: `POLLIN` to read, `POLLOUT`
//! while replies the peer has not taken sit in its out-buffer, or no
//! descriptor at all (`fd = -1`) while it only waits on a worker's reply —
//! then the reply closure owes the wake-up (see [`ConnWriter::parked`]).
//! DESIGN.md §12.5 has the protocol and why it cannot lose a wake-up.
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

use std::ffi::{c_int, c_ulong};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lite_obs::span::epoch_ns;
use lite_obs::trace::{Phase, TraceId};
use lite_obs::Json;
use lite_sparksim::conf::ConfSpace;
use lite_sparksim::fault::{FaultInjector, FaultKind};
use lite_workloads::data::{DataSpec, SizeTier};

use crate::admin;
pub use crate::client::{Client, ClientBuilder};
use crate::proto::{
    AnalyzeTarget, ClusterRef, Codec, Request, Response, RetrieveTarget, PROTOCOL_VERSION,
};
use crate::service::ServiceHandle;

/// Largest accepted frame payload; recommendation traffic is tiny, so
/// anything bigger is a protocol error, not a workload. The transport
/// ceiling: `ProtocolConfig::max_frame` may lower the binary-frame cap
/// per service, never raise it past this.
pub const MAX_FRAME: u32 = 1 << 20;

/// Append one length-prefixed frame to `buf`, `encode` writing its payload
/// in place behind the prefix; returns the payload's length. Past
/// [`MAX_FRAME`] it is `None`, and `buf` is as it was.
pub(crate) fn frame_into(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Option<usize> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let len = buf.len() - start - 4;
    match u32::try_from(len).ok().filter(|&len| len <= MAX_FRAME) {
        Some(prefix) => {
            buf[start..start + 4].copy_from_slice(&prefix.to_be_bytes());
            Some(len)
        }
        None => {
            buf.truncate(start);
            None
        }
    }
}

/// Write one length-prefixed frame. Prefix and payload leave in one
/// `write`: with `TCP_NODELAY` on, two writes are two segments, and a peer
/// blocked on readiness is woken for each.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame_into(&mut frame, |buf| buf.extend_from_slice(payload))
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame; `None` on a clean EOF before the length prefix.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(ErrorKind::InvalidData, "frame too large"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Readiness: poll(2) and the wake channel

/// `struct pollfd` of `<poll.h>`. The kernel skips an entry whose `fd` is
/// negative (its `revents` reads 0).
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    /// glibc: `int poll(struct pollfd *, nfds_t, int timeout_ms)`.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` passed (`None`:
/// for as long as it takes), leaving each entry's readiness in `revents`.
/// A failed call (`EINTR`) reports nothing ready; the reactor's next pass
/// rebuilds the set and calls again.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    // Rounded up, so a pass woken by the timeout finds its deadline passed.
    let ms =
        timeout.map_or(-1, |t| c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX));
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s and the count passed is its own length; the call writes
    // only the `revents` of those entries and keeps no pointer.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    if ready < 0 {
        fds.iter_mut().for_each(|fd| fd.revents = 0);
    }
}

/// How long after serving a v3 frame the reactor polls without blocking
/// before it blocks. A blocked reactor's CPU halts, and on a VM the next
/// request then pays for the host waking that vCPU: anything up to
/// 200 µs, by the host's luck, which a depth-1 caller sees as its tail. A
/// v3 peer chose the low-latency path, and its next frame usually follows
/// within a round trip and a little work; the window covers that gap and
/// costs an otherwise idle CPU at most this much per burst. JSON peers
/// (admin tools, v2 compatibility) never heat the reactor, and an idle
/// one still blocks for good.
const HOT_WINDOW: Duration = Duration::from_micros(500);

/// [`wait_ready`] that, for the first `hot` of the wait, polls without
/// blocking and yields the CPU between polls instead.
fn wait_ready_hot(fds: &mut [PollFd], timeout: Option<Duration>, hot: Duration) {
    let hot = hot.min(timeout.unwrap_or(hot));
    let started = Instant::now();
    while started.elapsed() < hot {
        wait_ready(fds, Some(Duration::ZERO));
        if fds.iter().any(|fd| fd.revents != 0) {
            return;
        }
        std::thread::yield_now();
    }
    // `timeout` was taken before the hot part: a deadline is found passed
    // at most `HOT_WINDOW` late, never early.
    wait_ready(fds, timeout);
}

/// The write end of the reactor's wake channel (a non-blocking
/// `UnixStream` pair): one byte makes a blocked [`wait_ready`] return.
struct Waker(UnixStream);

impl Waker {
    fn wake(&self) {
        // A full channel already holds a wake-up the reactor has yet to
        // consume, and a closed one has no reactor left: both are fine.
        let _ = (&self.0).write(&[1]);
    }
}

// ---------------------------------------------------------------------------
// Server

/// A running TCP front-end. Dropping (or calling
/// [`shutdown`](TcpServer::shutdown)) stops the reactor; established
/// connections are closed once their in-flight requests drain.
pub struct TcpServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Arc<Waker>,
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
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // An idle reactor is blocked in `poll` with no timeout and would
        // never read the flag: wake it.
        self.wake.wake();
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
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let wake = Arc::new(Waker(wake_tx));
    let stop = Arc::new(AtomicBool::new(false));
    let (reactor_stop, reactor_wake) = (stop.clone(), wake.clone());
    let reactor_thread = std::thread::Builder::new()
        .name("serve-reactor".into())
        .spawn(move || reactor_loop(listener, handle, reactor_stop, wake_rx, reactor_wake))
        .expect("spawn reactor thread"); // gate: allow(expect)
    Ok(TcpServer { local_addr, stop, wake, reactor_thread: Some(reactor_thread) })
}

/// How long a connection's out-buffer may make no progress before the
/// peer counts as gone and the connection is poisoned.
const STALL_LIMIT: Duration = Duration::from_secs(2);
/// Capacity an emptied out-buffer keeps: room for a burst of small
/// replies, not for the one large admin document that passed through.
/// Also the most a corked out-buffer gathers before it is flushed
/// mid-pass, so corking never grows the buffer past what it keeps.
const OUT_KEEP: usize = 64 * 1024;

/// What the writer mutex guards: the dup'd socket handle and the frame
/// bytes it has not taken yet.
struct Out {
    stream: TcpStream,
    /// Whole frames (the first possibly part-sent), in reply order.
    pending: Vec<u8>,
    /// When `pending` last shrank, or went from empty to not.
    progress: Instant,
    /// The reactor is serving this connection's buffered frames: replies
    /// gather in `pending`, and the pass ends with one flush
    /// ([`ConnWriter::uncork`]). Only [`Conn::pump`] sets it, and never
    /// returns with it set.
    corked: bool,
}

/// The reply half of a connection, shared with worker callbacks. Frames
/// go out under one mutex, so they never interleave; what the socket
/// will not take stays in the out-buffer for the reactor to flush on
/// `POLLOUT`, so no writer ever waits on a peer.
struct ConnWriter {
    out: Mutex<Out>,
    /// `out.pending` is non-empty. Written under the `out` lock, read by
    /// the reactor without it.
    backlogged: AtomicBool,
    /// Poisoned: the reactor drops the connection on its next pass.
    dead: AtomicBool,
    /// `recommend`/`observe` requests whose reply closure has not run.
    in_flight: AtomicUsize,
    /// Set by the reactor before it blocks with this connection waiting
    /// on a reply (out of the poll set); the reply closure that clears it
    /// owes the wake-up. `SeqCst` with `in_flight` on both sides: the
    /// reactor marks then re-reads `in_flight`, the closure decrements
    /// then swaps the mark, so one of the two sees the other.
    parked: AtomicBool,
    wake: Arc<Waker>,
    faults: Option<Arc<FaultInjector>>,
}

impl ConnWriter {
    fn lock_out(&self) -> MutexGuard<'_, Out> {
        // Every update of `Out` leaves it valid (bytes are appended whole
        // and drained only once sent), so a poisoned lock is recovered.
        self.out.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poison the connection. The reactor may be blocked — with this
    /// connection in its set or parked out of it — so it is woken to reap.
    fn poison(&self) {
        self.dead.store(true, Ordering::Release);
        self.wake.wake();
    }

    /// Put one length-prefixed frame in the out-buffer, its payload
    /// written in place by `encode`, and hand the buffer to the socket —
    /// unless bytes are already waiting their turn there, or the
    /// connection is corked, `through` is not set and the buffer is within
    /// [`OUT_KEEP`]: then the frame leaves with the flush that is due.
    /// Honors the injected torn-frame fault (length promises a full
    /// payload, half arrives, the connection dies): the whole frames
    /// gathered ahead of the torn one leave with it. Poisons the
    /// connection on any write failure.
    fn write_frame(&self, through: bool, encode: impl FnOnce(&mut Vec<u8>)) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let torn =
            self.faults.as_deref().is_some_and(|f| f.fires(FaultKind::TornFrame, f.next_key()));
        let mut out = self.lock_out();
        let framed = frame_into(&mut out.pending, encode);
        if let (true, Some(len)) = (torn, framed) {
            let whole = out.pending.len();
            out.pending.truncate(whole - len + len / 2);
        }
        let held = self.backlogged.load(Ordering::SeqCst)
            || out.corked && !through && !torn && out.pending.len() <= OUT_KEEP;
        let ok = framed.is_some() && (held || self.flush(&mut out));
        drop(out);
        if torn || !ok {
            self.poison();
            return false;
        }
        true
    }

    /// Start gathering replies: the reactor is about to serve frames.
    fn cork(&self) {
        self.lock_out().corked = true;
    }

    /// End of the reactor's pass: whatever gathered leaves in one `write`
    /// (behind a backlog it waits its turn, as ever).
    fn uncork(&self) {
        let mut out = self.lock_out();
        out.corked = false;
        let ok = out.pending.is_empty()
            || self.backlogged.load(Ordering::SeqCst)
            || self.flush(&mut out);
        drop(out);
        if !ok {
            self.poison();
        }
    }

    /// Hand the socket as much of the out-buffer as it takes, in one
    /// `write` when it takes it all. What is left makes the connection
    /// backlogged (waking the reactor to ask `POLLOUT` for it); `false`
    /// on a transport error.
    fn flush(&self, out: &mut Out) -> bool {
        let mut sent = 0;
        while sent < out.pending.len() {
            match out.stream.write(&out.pending[sent..]) {
                Ok(0) => return false,
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        let was_backlogged = self.backlogged.load(Ordering::SeqCst);
        if sent == out.pending.len() {
            out.pending.clear();
            out.pending.shrink_to(OUT_KEEP);
            if was_backlogged {
                self.backlogged.store(false, Ordering::SeqCst);
            }
            return true;
        }
        out.pending.drain(..sent);
        if sent > 0 || !was_backlogged {
            out.progress = Instant::now();
        }
        if !was_backlogged {
            self.backlogged.store(true, Ordering::SeqCst);
            self.wake.wake();
        }
        true
    }

    /// The reactor's half of a backlog: flush if the socket is `ready` to
    /// take more, and poison a connection whose peer took nothing for
    /// [`STALL_LIMIT`]. `true` once the backlog is gone.
    fn drain_backlog(&self, ready: bool) -> bool {
        let mut out = self.lock_out();
        let ok = !ready || self.flush(&mut out);
        let drained = out.pending.is_empty();
        let stalled = !drained && out.progress.elapsed() >= STALL_LIMIT;
        drop(out);
        if !ok || stalled {
            self.poison();
            return false;
        }
        drained
    }

    /// How long the backlog may still stand without progress.
    fn stall_left(&self) -> Duration {
        STALL_LIMIT.saturating_sub(self.lock_out().progress.elapsed())
    }

    /// An awaited reply is out: free its pipeline slot, and wake the
    /// reactor if it parked this connection waiting for one.
    fn reply_done(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        if self.parked.swap(false, Ordering::SeqCst) {
            self.wake.wake();
        }
    }
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
    /// A v3 frame was served since the reactor last asked ([`HOT_WINDOW`]).
    served_v3: bool,
}

/// Receive-buffer cap per connection: enough for one maximal frame plus a
/// full pipeline of small ones; the reactor stops draining the socket
/// past it, which backpressures pipelining clients through TCP.
const CONN_BUF_CAP: usize = 2 * MAX_FRAME as usize;

/// What a connection's next step waits for — its entry in the poll set.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    /// Bytes from the peer: `POLLIN`.
    Read,
    /// Room in the socket for the out-buffer: `POLLOUT`, nothing served
    /// meanwhile.
    Flush,
    /// A worker's reply — a complete frame is held back by the JSON-serial
    /// / `max_pipeline` window, or a half-closed connection drains its
    /// in-flight replies. Nothing the socket reports can help (and a
    /// level-triggered hang-up or a buffer at [`CONN_BUF_CAP`] would spin
    /// the loop), so the entry's `fd` is -1 and the connection is parked.
    Reply,
    /// Nothing: a reply landed since the last pass, run another at once.
    Run,
    /// Nothing any more: poisoned, or half-closed with every frame served
    /// and every reply out. The connection is dropped.
    Done,
}

impl Conn {
    fn new(stream: TcpStream, writer_stream: TcpStream, cx: &ReactorCx) -> Conn {
        let now = epoch_ns();
        Conn {
            stream,
            writer: Arc::new(ConnWriter {
                out: Mutex::new(Out {
                    stream: writer_stream,
                    pending: Vec::new(),
                    progress: Instant::now(),
                    corked: false,
                }),
                backlogged: AtomicBool::new(false),
                dead: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                parked: AtomicBool::new(false),
                wake: cx.wake.clone(),
                faults: cx.faults.clone(),
            }),
            buf: Vec::new(),
            read_closed: false,
            idle_ns: now,
            last_read_ns: now,
            served_v3: false,
        }
    }

    /// One pass over the connection: flush a backlog, drain the socket
    /// into the buffer if `poll` reported it `ready`, and serve every
    /// frame the window admits.
    fn pump(&mut self, cx: &ReactorCx, chunk: &mut [u8], ready: bool) {
        let writer = &self.writer;
        if writer.dead.load(Ordering::Acquire) {
            return;
        }
        // The reactor runs: replies written from here on (the inline ones
        // on this very thread above all) have nobody to wake.
        if writer.parked.load(Ordering::SeqCst) {
            writer.parked.store(false, Ordering::SeqCst);
        }
        if writer.backlogged.load(Ordering::SeqCst) && !writer.drain_backlog(ready) {
            return;
        }
        while ready && !self.read_closed && self.buf.len() < CONN_BUF_CAP {
            match self.stream.read(chunk) {
                Ok(0) => self.read_closed = true,
                Ok(n) => {
                    self.last_read_ns = epoch_ns();
                    self.buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return writer.poison(),
            }
        }
        // Frames are served in place, off a cursor; the buffer is
        // compacted once, after the last one. The out-buffer is corked
        // from the first frame served (`at` moves) to the last, so the
        // pass's replies leave in one `write`.
        let mut at = 0;
        while let Some(total) = complete_frame_len(&self.buf[at..]) {
            if total == usize::MAX {
                // Oversized length prefix: unrecoverable framing error.
                // The frames ahead of it were answered, and leave first.
                if at > 0 {
                    writer.uncork();
                }
                return writer.poison();
            }
            let payload = &self.buf[at + 4..at + total];
            let codec = Codec::of(payload);
            // A reply the peer is not taking stops service: what it has
            // already sent waits in the buffer, then in the socket.
            if writer.in_flight.load(Ordering::SeqCst) >= cx.window(codec)
                || writer.backlogged.load(Ordering::SeqCst)
            {
                break;
            }
            if at == 0 {
                writer.cork();
            }
            at += total;
            let (idle_ns, arrived_ns) = (self.idle_ns, self.last_read_ns);
            self.idle_ns = epoch_ns();
            serve_frame(cx, writer, codec, payload, idle_ns, arrived_ns);
            self.served_v3 |= codec != Codec::Json;
        }
        if at > 0 {
            writer.uncork();
            self.buf.drain(..at);
        }
    }

    /// What the connection waits for now that [`pump`](Conn::pump) has
    /// served all it could.
    fn step(&self, cx: &ReactorCx) -> Step {
        if self.writer.dead.load(Ordering::Acquire) {
            return Step::Done;
        }
        if self.writer.backlogged.load(Ordering::SeqCst) {
            return Step::Flush;
        }
        let in_flight = self.writer.in_flight.load(Ordering::SeqCst);
        match complete_frame_len(&self.buf) {
            Some(total) if in_flight >= cx.window(Codec::of(&self.buf[4..total])) => Step::Reply,
            Some(_) => Step::Run,
            None if !self.read_closed => Step::Read,
            None if in_flight > 0 => Step::Reply,
            None => Step::Done,
        }
    }

    /// The connection's entry in the poll set (`None`: it is done, drop
    /// it), lowering `timeout` where its step has a deadline. A connection
    /// that waits on a reply is parked first and looked at again after: a
    /// reply that landed before the mark found nobody to wake, and shows
    /// in the second look.
    fn poll_entry(&self, cx: &ReactorCx, timeout: &mut Option<Duration>) -> Option<PollFd> {
        let mut step = self.step(cx);
        if step == Step::Reply {
            self.writer.parked.store(true, Ordering::SeqCst);
            step = self.step(cx);
        }
        let fd = self.stream.as_raw_fd();
        let (fd, events, within) = match step {
            Step::Read => (fd, POLLIN, None),
            Step::Flush => (fd, POLLOUT, Some(self.writer.stall_left())),
            Step::Reply => (-1, 0, None),
            Step::Run => (-1, 0, Some(Duration::ZERO)),
            Step::Done => return None,
        };
        if let Some(within) = within {
            *timeout = Some(timeout.map_or(within, |t| t.min(within)));
        }
        Some(PollFd { fd, events, revents: 0 })
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
    wake: Arc<Waker>,
    faults: Option<Arc<FaultInjector>>,
}

impl ReactorCx {
    /// Requests a connection may have in flight before the next frame of
    /// `codec` is held back. JSON frames are strictly serial (responses
    /// carry no correlation tag, so order is the contract); binary frames
    /// pipeline up to the configured depth.
    fn window(&self, codec: Codec) -> usize {
        if codec == Codec::Json {
            1
        } else {
            self.max_pipeline
        }
    }
}

/// How long the listener stays out of the poll set after `accept` failed
/// for a reason that outlasts the call (`EMFILE`): level-triggered, it
/// would report the same pending connection again at once.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Accept until the listener runs dry; `false` when `accept` failed.
fn accept_all(listener: &TcpListener, conns: &mut Vec<Conn>, cx: &ReactorCx) -> bool {
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
                    conns.push(Conn::new(stream, writer_stream, cx));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

fn reactor_loop(
    listener: TcpListener,
    handle: ServiceHandle,
    stop: Arc<AtomicBool>,
    wake_rx: UnixStream,
    wake: Arc<Waker>,
) {
    let cx = ReactorCx {
        space: ConfSpace::table_iv(),
        max_pipeline: handle.protocol().max_pipeline.max(1),
        binary_cap: handle.protocol().max_frame.min(MAX_FRAME),
        faults: handle.fault_injector(),
        wake,
        handle,
    };
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut accepting = true;
    let mut hot_until = Instant::now();
    loop {
        // The set: the wake channel, the listener, then every connection
        // that is not done, in order. Blocks for good unless an entry has
        // a deadline.
        let mut timeout = if accepting { None } else { Some(ACCEPT_BACKOFF) };
        fds.clear();
        fds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        let listener_fd = if accepting { listener.as_raw_fd() } else { -1 };
        fds.push(PollFd { fd: listener_fd, events: POLLIN, revents: 0 });
        conns.retain(|conn| conn.poll_entry(&cx, &mut timeout).map(|e| fds.push(e)).is_some());
        wait_ready_hot(&mut fds, timeout, hot_until.saturating_duration_since(Instant::now()));
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Consumed before any connection is looked at: a wake-up sent
        // while this pass runs stays in the channel for the next `poll`.
        if fds[0].revents != 0 {
            while matches!((&wake_rx).read(&mut chunk), Ok(n) if n == chunk.len()) {}
        }
        // Connections accepted now are appended, past the entries, and
        // join the set on the next pass.
        for (conn, entry) in conns.iter_mut().zip(&fds[2..]) {
            conn.pump(&cx, &mut chunk, entry.revents != 0);
            if std::mem::take(&mut conn.served_v3) {
                hot_until = Instant::now() + HOT_WINDOW;
            }
        }
        if fds[1].revents != 0 || !accepting {
            accepting = accept_all(&listener, &mut conns, &cx);
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
    /// and completing the trace. A traced reply flushes through a corked
    /// out-buffer, so `Write` and the completion keep meaning "handed to
    /// the socket".
    fn send(self, handle: &ServiceHandle, writer: &ConnWriter, response: Response) {
        let Some(id) = self.trace else {
            writer.write_frame(false, |buf| self.codec.encode_into(response, buf));
            return;
        };
        let serialize_start_ns = epoch_ns();
        let mut write_start_ns = serialize_start_ns;
        writer.write_frame(true, |buf| {
            self.codec.encode_into(response, buf);
            write_start_ns = epoch_ns();
        });
        let done_ns = epoch_ns();
        handle.trace_phase(id, Phase::Serialize, serialize_start_ns, write_start_ns);
        handle.trace_phase(id, Phase::Write, write_start_ns, done_ns);
        // End-to-end as the server observed it: from the request frame
        // arriving to the response flushed. This is the latency the
        // exemplar reservoir ranks by.
        handle.trace_complete(id, done_ns.saturating_sub(self.arrived_ns));
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
                writer.in_flight.fetch_add(1, Ordering::SeqCst);
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
                        w.reply_done();
                    }),
                );
                return;
            }
            Err(msg) => Response::bad_request(msg),
        },
        Request::Observe { app, data, cluster, conf, result } => match cluster.resolve() {
            Ok(cluster) => {
                writer.in_flight.fetch_add(1, Ordering::SeqCst);
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
                        w.reply_done();
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
                Ok(ex) => Response::Admin(admin::extraction_to_json(&ex)),
                Err(e) => Response::bad_request(e.to_string()),
            }
        }
        Request::Profile { k } => admin::profile(handle, k.clamp(1, 64)),
        Request::Stats => Response::Admin(admin::stats_with_planes(handle)),
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
            Response::Admin(admin::tailtrace_to_json(
                handle.tail_exemplars(),
                completed,
                captured,
                MAX_FRAME as usize / 2,
            ))
        }
        Request::Slo => admin::slo(handle),
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
