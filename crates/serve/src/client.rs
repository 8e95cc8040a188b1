//! The blocking TCP client for the serve plane.
//!
//! [`ClientBuilder`] connects and negotiates — v3 binary with pipelining
//! by default, the v2 JSON envelope when capped with
//! [`protocol(2)`](ClientBuilder::protocol) — and [`Client::call`] is the
//! typed API: one [`proto::Request`] in, one [`proto::Response`] out,
//! whichever codec the connection negotiated.

use std::borrow::Cow;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use lite_obs::trace::TraceId;
use lite_obs::Json;
use lite_sparksim::conf::ConfSpace;

use crate::net::{frame_into, read_frame};
use crate::proto::{self, ErrorCode, PROTOCOL_V3, PROTOCOL_VERSION};

/// Builder for a [`Client`]: protocol ceiling, pipelining depth, and
/// per-request trace opt-in.
///
/// ```no_run
/// use lite_serve::net::ClientBuilder;
/// let client = ClientBuilder::new()
///     .pipeline_depth(64)
///     .trace(true)
///     .connect("127.0.0.1:7878")?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    protocol: u64,
    pipeline_depth: usize,
    trace: bool,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        ClientBuilder::new()
    }
}

impl ClientBuilder {
    /// Defaults: v3 binary, pipeline depth 32, tracing off.
    pub fn new() -> ClientBuilder {
        ClientBuilder { protocol: PROTOCOL_V3, pipeline_depth: 32, trace: false }
    }

    /// Cap the protocol version: `2` speaks the JSON envelope, `3` (the
    /// default) the binary protocol. Other values clamp into that range.
    pub fn protocol(mut self, version: u64) -> ClientBuilder {
        self.protocol = version.clamp(PROTOCOL_VERSION, PROTOCOL_V3);
        self
    }

    /// Client-side pipelining window for [`Client::pipeline`]: at most
    /// this many v3 requests are in flight on the connection at once.
    pub fn pipeline_depth(mut self, depth: usize) -> ClientBuilder {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Opt hot requests into tail-forensics tracing: `recommend` and
    /// `retrieve` requests without an explicit trace id get a generated
    /// one (v2's implicit server-side tracing is unchanged).
    pub fn trace(mut self, on: bool) -> ClientBuilder {
        self.trace = on;
        self
    }

    /// Connect and negotiate: one `hello` in the chosen codec, answered
    /// with `min(our ceiling, the server's)`.
    pub fn connect<A: ToSocketAddrs>(self, addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Room for a window of answers (a top-5 `recommend` is ≈ 700
        // bytes), so a burst's replies cost a `read` or two, not one per
        // 8 KB.
        let read_buf = (self.pipeline_depth * 1024).clamp(8 * 1024, 64 * 1024);
        let mut client = Client {
            stream: BufReader::with_capacity(read_buf, stream),
            frames: Vec::new(),
            version: self.protocol,
            pipeline_depth: self.pipeline_depth,
            trace: self.trace,
            space: ConfSpace::table_iv(),
            next_req: 0,
        };
        match client.call(&proto::Request::Hello { max: self.protocol })? {
            proto::Response::Hello { v } => {
                client.version = v.clamp(PROTOCOL_VERSION, self.protocol);
                Ok(client)
            }
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected hello response: {other:?}"),
            )),
        }
    }
}

/// A blocking TCP client for the serve plane; built by [`ClientBuilder`].
pub struct Client {
    /// Reads are buffered — a pipelined burst of small responses costs one
    /// `read` per segment, not two per response; writes go to the socket
    /// underneath, one per call and one per (half-)window of a pipeline.
    stream: BufReader<TcpStream>,
    /// The request frames of the next `write`, encoded in place; reused.
    frames: Vec<u8>,
    version: u64,
    pipeline_depth: usize,
    trace: bool,
    space: ConfSpace,
    next_req: u32,
}

impl Client {
    /// The negotiated protocol version requests are encoded with.
    pub fn protocol_version(&self) -> u64 {
        self.version
    }

    /// Send one typed request and block for its typed response.
    ///
    /// On a v3 connection the request travels as a binary frame; on v2 as
    /// the pinned JSON document, with the response document decoded into
    /// the same [`proto::Response`] shape — callers never branch on the
    /// negotiated version.
    pub fn call(&mut self, request: &proto::Request) -> std::io::Result<proto::Response> {
        let request = self.stamped(request);
        if self.version >= PROTOCOL_V3 {
            let req_id = self.next_req_id();
            self.push_frame(|buf| proto::encode_request_into(&request, req_id, buf))?;
            self.send_frames()?;
            loop {
                let payload = self.read_response_payload()?;
                let (rid, resp) = proto::decode_response(&payload, &self.space)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                if rid == req_id {
                    return Ok(resp);
                }
                // A stale response from an abandoned pipeline: skip it.
            }
        }
        let resp = self.request(&request.to_json(self.version))?;
        Ok(proto::Response::from_json(request.op(), &resp, &self.space))
    }

    /// Send a batch of typed requests over one connection, keeping up to
    /// the configured [`pipeline depth`](ClientBuilder::pipeline_depth)
    /// in flight, and return the responses in request order.
    ///
    /// v3 connections genuinely pipeline (responses are correlated by
    /// request id, so server-side completion order does not matter): the
    /// first window leaves in one `write`, and the window is topped up,
    /// again in one `write`, each time half of it has been answered. On
    /// v2 this degrades to a serial loop.
    pub fn pipeline(
        &mut self,
        requests: &[proto::Request],
    ) -> std::io::Result<Vec<proto::Response>> {
        if self.version < PROTOCOL_V3 || requests.len() <= 1 {
            return requests.iter().map(|r| self.call(r)).collect();
        }
        let n = requests.len();
        let first_id = self.next_req.wrapping_add(1);
        let mut out: Vec<Option<proto::Response>> = (0..n).map(|_| None).collect();
        let mut sent = 0usize;
        let mut received = 0usize;
        while received < n {
            if sent < n && sent - received <= self.pipeline_depth / 2 {
                while sent < n && sent - received < self.pipeline_depth {
                    let request = self.stamped(&requests[sent]);
                    let req_id = self.next_req_id();
                    self.push_frame(|buf| proto::encode_request_into(&request, req_id, buf))?;
                    sent += 1;
                }
                self.send_frames()?;
            }
            let payload = self.read_response_payload()?;
            let (rid, resp) = proto::decode_response(&payload, &self.space)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            let idx = rid.wrapping_sub(first_id) as usize;
            if idx < n && out[idx].is_none() {
                out[idx] = Some(resp);
                received += 1;
            }
        }
        Ok(out
            .into_iter()
            .map(|r| {
                r.unwrap_or(proto::Response::Error {
                    code: ErrorCode::Internal,
                    message: "response missing from pipeline".to_string(),
                })
            })
            .collect())
    }

    /// Append one frame to the next `write`; one past the transport cap
    /// is refused, and the frames pushed ahead of it are dropped with it.
    fn push_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        if frame_into(&mut self.frames, encode).is_none() {
            self.frames.clear();
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"));
        }
        Ok(())
    }

    /// Hand the socket every frame pushed since the last call, in one
    /// `write` when it takes them all.
    fn send_frames(&mut self) -> std::io::Result<()> {
        let sent = self.stream.get_mut().write_all(&self.frames);
        self.frames.clear();
        sent
    }

    fn next_req_id(&mut self) -> u32 {
        self.next_req = self.next_req.wrapping_add(1);
        self.next_req
    }

    fn read_response_payload(&mut self) -> std::io::Result<Vec<u8>> {
        read_frame(&mut self.stream)?
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Apply the builder's trace opt-in: hot requests without an explicit
    /// trace id get a generated one. Every other request is borrowed as is.
    fn stamped<'a>(&self, request: &'a proto::Request) -> Cow<'a, proto::Request> {
        use proto::Request::{Recommend, Retrieve};
        let mut request = Cow::Borrowed(request);
        if self.trace
            && matches!(*request, Recommend { trace: None, .. } | Retrieve { trace: None, .. })
        {
            if let Recommend { trace, .. } | Retrieve { trace, .. } = request.to_mut() {
                *trace = Some(TraceId::generate().raw());
            }
        }
        request
    }

    /// Send one raw JSON request document and block for its response
    /// document — the escape hatch for callers that pin wire bytes. Works
    /// on any connection: the server picks the codec per frame.
    pub fn request(&mut self, request: &Json) -> std::io::Result<Json> {
        self.push_frame(|buf| buf.extend_from_slice(request.render().as_bytes()))?;
        self.send_frames()?;
        let payload = self.read_response_payload()?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf-8 frame"))?;
        Json::parse(text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}
