//! Spark-style event logs (the SLOG wire format).
//!
//! Real LITE parses the JSON event logs Spark writes per application to
//! recover the stage-level DAG scheduler view. The simulator emits the same
//! information through a compact binary event log; `lite-workloads`'
//! instrumentation step parses it back. Round-tripping through an explicit
//! wire format (rather than passing structs around) keeps the feature
//! extractor honest: it only sees what a log would contain.
//!
//! | tag | record | payload (little-endian) |
//! |---|---|---|
//! | 1 | `AppStart` | str app, u32 stages |
//! | 2 | `StageSubmitted` | u32 stage_id, str name, u32 n, n×u16 op, u32 e, e×(u32,u32) edge |
//! | 3 | `StageCompleted` | u32 stage_id, f64 duration_s, u32 num_tasks, u64 input_bytes |
//! | 4 | `AppEnd` | u8 success, f64 total_time_s |
//!
//! A log is the magic `SLOG`, a `u32` record count, then the records; `str`
//! is `u32` length + UTF-8 bytes. [`decode`] is an input boundary: every
//! length is checked against the bytes that remain before anything is read
//! or sized from it.

use crate::plan::{JobPlan, OpDag, OpKind};
use crate::result::RunResult;

/// Event-log records, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Application started: name, number of planned stages.
    AppStart { app: String, stages: u32 },
    /// Stage submitted with its operator DAG.
    StageSubmitted { stage_id: u32, name: String, dag: OpDag },
    /// Stage completed.
    StageCompleted { stage_id: u32, duration_s: f64, num_tasks: u32, input_bytes: u64 },
    /// Application finished (success flag + total time).
    AppEnd { success: bool, total_time_s: f64 },
}

const TAG_APP_START: u8 = 1;
const TAG_STAGE_SUBMITTED: u8 = 2;
const TAG_STAGE_COMPLETED: u8 = 3;
const TAG_APP_END: u8 = 4;

const MAGIC: &[u8; 4] = b"SLOG";

/// Emit the event log for a finished run.
pub fn emit(plan: &JobPlan, result: &RunResult) -> Vec<Event> {
    let mut events = Vec::with_capacity(plan.stages.len() * 2 + 2);
    events.push(Event::AppStart { app: plan.app_name.clone(), stages: plan.stages.len() as u32 });
    for stats in &result.stages {
        let stage = &plan.stages[stats.stage_id];
        events.push(Event::StageSubmitted {
            stage_id: stats.stage_id as u32,
            name: stage.name.clone(),
            dag: stage.ops.clone(),
        });
        events.push(Event::StageCompleted {
            stage_id: stats.stage_id as u32,
            duration_s: stats.duration_s,
            num_tasks: stats.num_tasks,
            input_bytes: stats.input_bytes,
        });
    }
    events.push(Event::AppEnd { success: result.ok(), total_time_s: result.total_time_s });
    events
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Encode events into the binary log format.
pub fn encode(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for ev in events {
        match ev {
            Event::AppStart { app, stages } => {
                buf.push(TAG_APP_START);
                put_str(&mut buf, app);
                buf.extend_from_slice(&stages.to_le_bytes());
            }
            Event::StageSubmitted { stage_id, name, dag } => {
                buf.push(TAG_STAGE_SUBMITTED);
                buf.extend_from_slice(&stage_id.to_le_bytes());
                put_str(&mut buf, name);
                buf.extend_from_slice(&(dag.nodes.len() as u32).to_le_bytes());
                for n in &dag.nodes {
                    buf.extend_from_slice(&(n.id() as u16).to_le_bytes());
                }
                buf.extend_from_slice(&(dag.edges.len() as u32).to_le_bytes());
                for &(u, v) in &dag.edges {
                    buf.extend_from_slice(&(u as u32).to_le_bytes());
                    buf.extend_from_slice(&(v as u32).to_le_bytes());
                }
            }
            Event::StageCompleted { stage_id, duration_s, num_tasks, input_bytes } => {
                buf.push(TAG_STAGE_COMPLETED);
                buf.extend_from_slice(&stage_id.to_le_bytes());
                buf.extend_from_slice(&duration_s.to_le_bytes());
                buf.extend_from_slice(&num_tasks.to_le_bytes());
                buf.extend_from_slice(&input_bytes.to_le_bytes());
            }
            Event::AppEnd { success, total_time_s } => {
                buf.push(TAG_APP_END);
                buf.push(u8::from(*success));
                buf.extend_from_slice(&total_time_s.to_le_bytes());
            }
        }
    }
    buf
}

/// Errors produced while decoding an event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Buffer ended mid-record.
    Truncated,
    /// Unknown record tag.
    BadTag(u8),
    /// Unknown operation id.
    BadOp(u16),
    /// Invalid UTF-8 in a string field.
    BadUtf8,
}

/// The undecoded tail of a log; every read is length-checked.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32` element count followed by `count × width` bytes, as a
    /// reader over exactly those bytes — so a lying count is refused before
    /// anything is sized from it.
    fn counted(&mut self, width: usize) -> Result<Reader<'a>, DecodeError> {
        let n = self.u32()? as usize;
        self.take(n.checked_mul(width).ok_or(DecodeError::Truncated)?).map(Reader)
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.counted(1)?.0.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// Decode a binary event log.
pub fn decode(buf: &[u8]) -> Result<Vec<Event>, DecodeError> {
    if buf.len() < 8 || &buf[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut r = Reader(&buf[4..]);
    let n = r.u32()? as usize;
    let ops = OpKind::all();
    // Every record is at least one byte, so the count is bounded by the
    // input before it sizes the vector.
    let mut events = Vec::with_capacity(n.min(r.0.len()));
    for _ in 0..n {
        let ev = match r.u8()? {
            TAG_APP_START => Event::AppStart { app: r.str()?, stages: r.u32()? },
            TAG_STAGE_SUBMITTED => {
                let stage_id = r.u32()?;
                let name = r.str()?;
                let mut raw = r.counted(2)?;
                let mut nodes = Vec::with_capacity(raw.0.len() / 2);
                while !raw.0.is_empty() {
                    let id = raw.u16()?;
                    nodes.push(*ops.get(id as usize).ok_or(DecodeError::BadOp(id))?);
                }
                let mut raw = r.counted(8)?;
                let mut edges = Vec::with_capacity(raw.0.len() / 8);
                while !raw.0.is_empty() {
                    edges.push((raw.u32()? as usize, raw.u32()? as usize));
                }
                Event::StageSubmitted { stage_id, name, dag: OpDag { nodes, edges } }
            }
            TAG_STAGE_COMPLETED => Event::StageCompleted {
                stage_id: r.u32()?,
                duration_s: r.f64()?,
                num_tasks: r.u32()?,
                input_bytes: r.u64()?,
            },
            TAG_APP_END => Event::AppEnd { success: r.u8()? != 0, total_time_s: r.f64()? },
            t => return Err(DecodeError::BadTag(t)),
        };
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::conf::ConfSpace;
    use crate::exec::simulate;

    #[test]
    fn emit_encode_decode_roundtrip() {
        let plan = JobPlan::example_shuffle_job(128 << 20);
        let result =
            simulate(&ClusterSpec::cluster_a(), &ConfSpace::table_iv().default_conf(), &plan, 1);
        let events = emit(&plan, &result);
        let bytes = encode(&events);
        assert_eq!(&bytes[..4], b"SLOG");
        let decoded = decode(&bytes).unwrap();
        assert_eq!(events, decoded);
        // First event is AppStart, last is AppEnd with success.
        assert!(matches!(decoded.first(), Some(Event::AppStart { .. })));
        assert!(matches!(decoded.last(), Some(Event::AppEnd { success: true, .. })));
        // Any strict prefix is an error, never a silent partial parse.
        for cut in [bytes.len() - 1, bytes.len() - 20, 10] {
            assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(b"nope"), Err(DecodeError::BadMagic));
        assert_eq!(decode(b"XXXX\x01\x00\x00\x00"), Err(DecodeError::BadMagic));
        // Valid magic, truncated body.
        assert_eq!(decode(b"SLOG\x01\x00\x00\x00"), Err(DecodeError::Truncated));
        // A record count far beyond the input is refused, not allocated for.
        assert_eq!(decode(b"SLOG\xff\xff\xff\xff"), Err(DecodeError::Truncated));
        // So is an operator count that lies about the bytes behind it.
        let mut lying = b"SLOG\x01\x00\x00\x00\x02".to_vec();
        lying.extend_from_slice(&0u32.to_le_bytes()); // stage_id
        lying.extend_from_slice(&0u32.to_le_bytes()); // empty name
        lying.extend_from_slice(&u32::MAX.to_le_bytes()); // node count
        assert_eq!(decode(&lying), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert_eq!(decode(b"SLOG\x01\x00\x00\x00\x63"), Err(DecodeError::BadTag(99)));
        // So are the tags either side of the four records.
        assert_eq!(decode(b"SLOG\x01\x00\x00\x00\x00"), Err(DecodeError::BadTag(0)));
        assert_eq!(decode(b"SLOG\x01\x00\x00\x00\x05"), Err(DecodeError::BadTag(5)));
    }

    #[test]
    fn failed_runs_log_only_started_stages() {
        let cluster = ClusterSpec::cluster_c();
        let s = ConfSpace::table_iv();
        let mut conf = s.default_conf();
        conf.set(&s, crate::conf::Knob::DefaultParallelism, 8.0);
        conf.set(&s, crate::conf::Knob::ExecutorMemoryGb, 1.0);
        let plan = JobPlan::example_shuffle_job(64 << 30);
        let result = simulate(&cluster, &conf, &plan, 3);
        assert!(!result.ok());
        let events = emit(&plan, &result);
        let submitted = events.iter().filter(|e| matches!(e, Event::StageSubmitted { .. })).count();
        assert_eq!(submitted, result.stages.len());
        assert!(matches!(events.last(), Some(Event::AppEnd { success: false, .. })));
    }

    /// A buffer byte-for-byte as the seed's encoder produced it. This is a
    /// frozen regression artifact: if this test breaks, previously written
    /// logs have been orphaned.
    #[test]
    fn golden_v1_bytes_decode_unchanged() {
        let mut golden = Vec::new();
        golden.extend_from_slice(b"SLOG");
        golden.extend_from_slice(&2u32.to_le_bytes()); // two events
        golden.push(1); // AppStart
        golden.extend_from_slice(&2u32.to_le_bytes());
        golden.extend_from_slice(b"wc");
        golden.extend_from_slice(&3u32.to_le_bytes());
        golden.push(4); // AppEnd
        golden.push(1);
        golden.extend_from_slice(&42.5f64.to_le_bytes());
        let expected = vec![
            Event::AppStart { app: "wc".into(), stages: 3 },
            Event::AppEnd { success: true, total_time_s: 42.5 },
        ];
        assert_eq!(decode(&golden).unwrap(), expected);
        // The encoder still writes exactly those bytes.
        assert_eq!(encode(&expected), golden);
    }
}
