//! The framed wire protocol of `caesar serve`.
//!
//! Every frame is `u32 body_len (LE) | body`, and every body starts
//! with one kind byte. Event payloads reuse the binary event codec of
//! [`caesar_events::codec`] verbatim — the server adds tenancy and
//! control framing around it, not a second serialization.
//!
//! ```text
//! client → server                      server → client
//! 0x01 INGEST    tenant + events       0x81 ACK        (ingest/subscribe accepted)
//! 0x02 SUBSCRIBE tenant                0x82 FLUSH_OK   (barrier passed)
//! 0x03 FLUSH     tenant                0x83 OUTPUTS    events
//! 0x04 FINISH    tenant                0x84 REPORT     end-of-stream totals
//! 0x05 PING                            0x85 ERROR      code + message
//! 0x06 SHUTDOWN                        0x86 PONG
//!                                      0x87 SHUTDOWN_OK
//!                                      0x88 RETRACT    retracted events
//! ```
//!
//! `RETRACT` frames appear only on tenants running speculative
//! consistency: each one cancels a prior `OUTPUTS` delivery of exactly
//! those events (same type, interval, partition and attributes), and
//! the corrected emissions always follow as ordinary `OUTPUTS` frames
//! on the same connection. Folding a subscription's `OUTPUTS` minus its
//! `RETRACT`s reproduces the strict output stream.
//!
//! Tenant names travel as `u16 len | utf8`. Oversized frames are
//! rejected *before* the body is read (the length prefix alone decides)
//! and malformed bodies produce a typed [`ErrorCode`] — the accept loop
//! never panics on wire input.

use bytes::BytesMut;
use caesar_events::{codec, Event};
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's body, server default (4 MiB).
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// Typed error codes carried by `ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame body did not parse (bad tenant length, trailing
    /// garbage, truncated payload).
    Malformed = 1,
    /// The length prefix exceeded the server's frame ceiling.
    FrameTooLarge = 2,
    /// No tenant of that name is hosted.
    UnknownTenant = 3,
    /// The tenant's bounded ingest queue stayed full past the
    /// admission deadline.
    QueueFull = 4,
    /// The server is draining and admits no new work.
    Draining = 5,
    /// The tenant was already finished by a `FINISH` frame.
    TenantFinished = 6,
    /// The embedded event payload failed the event codec.
    Codec = 7,
    /// Unknown frame kind byte.
    UnknownKind = 8,
    /// Internal failure (a shard died); the connection is closed.
    Internal = 9,
}

impl ErrorCode {
    /// Decodes a code byte (unknown bytes map to `Internal`).
    #[must_use]
    pub fn from_byte(b: u8) -> Self {
        match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::FrameTooLarge,
            3 => ErrorCode::UnknownTenant,
            4 => ErrorCode::QueueFull,
            5 => ErrorCode::Draining,
            6 => ErrorCode::TenantFinished,
            7 => ErrorCode::Codec,
            8 => ErrorCode::UnknownKind,
            _ => ErrorCode::Internal,
        }
    }
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Append events to a tenant's stream.
    Ingest {
        /// Target tenant.
        tenant: String,
        /// The events, in stream order.
        events: Vec<Event>,
    },
    /// Stream the tenant's derived outputs to this connection.
    Subscribe {
        /// Target tenant.
        tenant: String,
    },
    /// Barrier: acked once everything admitted so far is processed.
    Flush {
        /// Target tenant.
        tenant: String,
    },
    /// End-of-stream: flush, finish the tenant's engines, report.
    Finish {
        /// Target tenant.
        tenant: String,
    },
    /// Liveness probe.
    Ping,
    /// Ask the server to drain gracefully (same path as SIGINT).
    Shutdown,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ingest/subscribe accepted.
    Ack,
    /// Flush barrier passed.
    FlushOk,
    /// Derived output events for a subscribed tenant.
    Outputs(
        /// The derived events.
        Vec<Event>,
    ),
    /// End-of-stream totals of a finished tenant.
    Report(TenantReport),
    /// Typed rejection.
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Liveness reply.
    Pong,
    /// The server finished draining this connection.
    ShutdownOk,
    /// Retractions of previously delivered outputs (speculative
    /// tenants only): each event cancels one prior `Outputs` delivery
    /// of the byte-identical event.
    Retractions(
        /// The retracted events.
        Vec<Event>,
    ),
}

/// The over-the-wire subset of a `RunReport`: the deterministic totals
/// the equivalence harness compares (latency and wall-clock stay
/// server-side — they describe the process, not the stream).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantReport {
    /// Input events processed across all shards.
    pub events_in: u64,
    /// Derived output events across all shards.
    pub events_out: u64,
    /// Context transitions applied across all shards.
    pub transitions_applied: u64,
    /// Events dropped as later than the reorder slack.
    pub late_dropped: u64,
    /// Per-derived-type output counts, sorted by type name.
    pub outputs_by_type: Vec<(String, u64)>,
}

impl TenantReport {
    /// Output count of one derived type (0 when absent).
    #[must_use]
    pub fn outputs_of(&self, type_name: &str) -> u64 {
        self.outputs_by_type
            .iter()
            .find(|(name, _)| name == type_name)
            .map_or(0, |(_, n)| *n)
    }
}

/// What went wrong reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (includes EOF mid-frame).
    Io(io::Error),
    /// The length prefix exceeded the ceiling; nothing was read past it.
    TooLarge {
        /// Declared body length.
        declared: usize,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// The body failed to parse.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport: {e}"),
            FrameError::TooLarge { declared, max } => {
                write!(
                    f,
                    "frame body of {declared} bytes exceeds the {max}-byte limit"
                )
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + body).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one frame body. `Ok(None)` is a clean close (EOF exactly on a
/// frame boundary); EOF inside a frame is an error — the mid-frame
/// disconnect the robustness tests exercise.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let declared = u32::from_le_bytes(len_buf) as usize;
    if declared > max_len {
        return Err(FrameError::TooLarge {
            declared,
            max: max_len,
        });
    }
    let mut body = vec![0u8; declared];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

fn push_name(buf: &mut Vec<u8>, name: &str) {
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
}

fn take_name(body: &[u8], at: usize) -> Result<(String, usize), FrameError> {
    let len_end = at + 2;
    if body.len() < len_end {
        return Err(FrameError::Malformed("truncated tenant length".into()));
    }
    let len = u16::from_le_bytes([body[at], body[at + 1]]) as usize;
    let end = len_end + len;
    if body.len() < end {
        return Err(FrameError::Malformed("truncated tenant name".into()));
    }
    let name = std::str::from_utf8(&body[len_end..end])
        .map_err(|_| FrameError::Malformed("tenant name is not UTF-8".into()))?
        .to_string();
    Ok((name, end))
}

fn decode_events(payload: &[u8]) -> Result<Vec<Event>, FrameError> {
    codec::decode_slice(payload).map_err(|e| FrameError::Malformed(format!("event codec: {e}")))
}

/// Kind byte of an `OUTPUTS` frame.
pub(crate) const OUTPUTS: u8 = 0x83;
/// Kind byte of a `RETRACT` frame.
pub(crate) const RETRACT: u8 = 0x88;

/// Appends the encodings of borrowed events to a frame body whose head
/// (kind byte, tenant name) is already written.
pub(crate) fn push_events<'a>(
    head: Vec<u8>,
    events: impl ExactSizeIterator<Item = &'a Event>,
) -> Vec<u8> {
    let mut buf = BytesMut::from(head);
    buf.reserve(events.len() * 64);
    for event in events {
        codec::encode(event, &mut buf);
    }
    buf.into()
}

impl Request {
    /// Encodes the request into a frame body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Request::Ingest { tenant, events } => {
                body.push(0x01);
                push_name(&mut body, tenant);
                body = push_events(body, events.iter());
            }
            Request::Subscribe { tenant } => {
                body.push(0x02);
                push_name(&mut body, tenant);
            }
            Request::Flush { tenant } => {
                body.push(0x03);
                push_name(&mut body, tenant);
            }
            Request::Finish { tenant } => {
                body.push(0x04);
                push_name(&mut body, tenant);
            }
            Request::Ping => body.push(0x05),
            Request::Shutdown => body.push(0x06),
        }
        body
    }

    /// Decodes a frame body into a request.
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        let Some(&kind) = body.first() else {
            return Err(FrameError::Malformed("empty frame body".into()));
        };
        let exact_end = |at: usize| -> Result<(), FrameError> {
            if body.len() == at {
                Ok(())
            } else {
                Err(FrameError::Malformed("trailing bytes after frame".into()))
            }
        };
        match kind {
            0x01 => {
                let (tenant, at) = take_name(body, 1)?;
                let events = decode_events(&body[at..])?;
                Ok(Request::Ingest { tenant, events })
            }
            0x02 => {
                let (tenant, at) = take_name(body, 1)?;
                exact_end(at)?;
                Ok(Request::Subscribe { tenant })
            }
            0x03 => {
                let (tenant, at) = take_name(body, 1)?;
                exact_end(at)?;
                Ok(Request::Flush { tenant })
            }
            0x04 => {
                let (tenant, at) = take_name(body, 1)?;
                exact_end(at)?;
                Ok(Request::Finish { tenant })
            }
            0x05 => {
                exact_end(1)?;
                Ok(Request::Ping)
            }
            0x06 => {
                exact_end(1)?;
                Ok(Request::Shutdown)
            }
            other => Err(FrameError::Malformed(format!(
                "unknown request kind {other:#04x}"
            ))),
        }
    }
}

impl Response {
    /// Encodes the response into a frame body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Response::Ack => body.push(0x81),
            Response::FlushOk => body.push(0x82),
            Response::Outputs(events) => body = push_events(vec![OUTPUTS], events.iter()),
            Response::Report(report) => {
                body.push(0x84);
                body.extend_from_slice(&report.events_in.to_le_bytes());
                body.extend_from_slice(&report.events_out.to_le_bytes());
                body.extend_from_slice(&report.transitions_applied.to_le_bytes());
                body.extend_from_slice(&report.late_dropped.to_le_bytes());
                body.extend_from_slice(&(report.outputs_by_type.len() as u32).to_le_bytes());
                for (name, n) in &report.outputs_by_type {
                    push_name(&mut body, name);
                    body.extend_from_slice(&n.to_le_bytes());
                }
            }
            Response::Error { code, message } => {
                body.push(0x85);
                body.push(*code as u8);
                body.extend_from_slice(&(message.len() as u16).to_le_bytes());
                body.extend_from_slice(message.as_bytes());
            }
            Response::Pong => body.push(0x86),
            Response::ShutdownOk => body.push(0x87),
            Response::Retractions(events) => body = push_events(vec![RETRACT], events.iter()),
        }
        body
    }

    /// Decodes a frame body into a response.
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        let Some(&kind) = body.first() else {
            return Err(FrameError::Malformed("empty frame body".into()));
        };
        match kind {
            0x81 => Ok(Response::Ack),
            0x82 => Ok(Response::FlushOk),
            OUTPUTS => Ok(Response::Outputs(decode_events(&body[1..])?)),
            0x84 => {
                let take_u64 = |at: usize| -> Result<u64, FrameError> {
                    body.get(at..at + 8)
                        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                        .ok_or_else(|| FrameError::Malformed("truncated report".into()))
                };
                let mut report = TenantReport {
                    events_in: take_u64(1)?,
                    events_out: take_u64(9)?,
                    transitions_applied: take_u64(17)?,
                    late_dropped: take_u64(25)?,
                    outputs_by_type: Vec::new(),
                };
                let n = body
                    .get(33..37)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                    .ok_or_else(|| FrameError::Malformed("truncated report".into()))?;
                let mut at = 37;
                for _ in 0..n {
                    let (name, next) = take_name(body, at)?;
                    let count = take_u64(next)?;
                    report.outputs_by_type.push((name, count));
                    at = next + 8;
                }
                Ok(Response::Report(report))
            }
            0x85 => {
                let code = *body
                    .get(1)
                    .ok_or_else(|| FrameError::Malformed("truncated error".into()))?;
                let (message, _) = take_name(body, 2)?;
                Ok(Response::Error {
                    code: ErrorCode::from_byte(code),
                    message,
                })
            }
            0x86 => Ok(Response::Pong),
            0x87 => Ok(Response::ShutdownOk),
            RETRACT => Ok(Response::Retractions(decode_events(&body[1..])?)),
            other => Err(FrameError::Malformed(format!(
                "unknown response kind {other:#04x}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_events::{PartitionId, Schema, SchemaRegistry, Value};

    fn sample_events() -> Vec<Event> {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new("R", &[("v", caesar_events::AttrType::Int)]))
            .unwrap();
        let r = reg.lookup("R").unwrap();
        (0..5)
            .map(|t| Event::simple(r, t, PartitionId(t as u32), vec![Value::Int(t as i64)]))
            .collect()
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Ingest {
                tenant: "traffic".into(),
                events: sample_events(),
            },
            Request::Subscribe { tenant: "t".into() },
            Request::Flush {
                tenant: "αβ".into(),
            },
            Request::Finish {
                tenant: String::new(),
            },
            Request::Ping,
            Request::Shutdown,
        ];
        for case in cases {
            let body = case.encode();
            assert_eq!(Request::decode(&body).unwrap(), case, "{case:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Ack,
            Response::FlushOk,
            Response::Outputs(sample_events()),
            Response::Report(TenantReport {
                events_in: 10,
                events_out: 3,
                transitions_applied: 2,
                late_dropped: 1,
                outputs_by_type: vec![("Toll".into(), 3)],
            }),
            Response::Error {
                code: ErrorCode::QueueFull,
                message: "queue at capacity".into(),
            },
            Response::Pong,
            Response::ShutdownOk,
            Response::Retractions(sample_events()),
        ];
        for case in cases {
            let body = case.encode();
            assert_eq!(Response::decode(&body).unwrap(), case, "{case:?}");
        }
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        assert!(matches!(
            Request::decode(&[]),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            Request::decode(&[0x42]),
            Err(FrameError::Malformed(_))
        ));
        // Tenant length promising more bytes than the body holds.
        assert!(matches!(
            Request::decode(&[0x02, 0xFF, 0x00, b'x']),
            Err(FrameError::Malformed(_))
        ));
        // Trailing garbage after a fixed-shape frame.
        assert!(matches!(
            Request::decode(&[0x05, 0x00]),
            Err(FrameError::Malformed(_))
        ));
        // Ingest payload that is not a valid event encoding.
        let mut body = Request::Ingest {
            tenant: "t".into(),
            events: sample_events(),
        }
        .encode();
        body.truncate(body.len() - 3);
        assert!(matches!(
            Request::decode(&body),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn frame_io_round_trips_and_enforces_ceiling() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, &[]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), Some(vec![]));
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), None, "clean EOF");

        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 100]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, 10),
            Err(FrameError::TooLarge {
                declared: 100,
                max: 10
            })
        ));
    }

    #[test]
    fn eof_mid_frame_is_an_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[9; 50]).unwrap();
        wire.truncate(20); // disconnect mid-body
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Io(_))
        ));
    }
}
