//! Wire encoding of events.
//!
//! The event distributor of a deployed CAESAR instance receives events
//! from remote producers (sensors, position-report gateways). This
//! module provides a compact, length-prefixed binary encoding used by
//! the CLI's file-based ingestion and by anyone wiring the engine to a
//! socket.
//!
//! Layout per event (all integers little-endian):
//!
//! ```text
//! u32  total length of the remainder
//! u32  type id
//! u64  occurrence start
//! u64  occurrence end
//! u32  partition
//! u16  attribute count
//! per attribute: u8 tag, payload
//!   0 = Null
//!   1 = Int    (i64)
//!   2 = Float  (f64)
//!   3 = Bool   (u8)
//!   4 = Str    (u32 length + UTF-8 bytes)
//! optional trailing provenance block (present only when the event
//! carries one — a decoder that predates it skips the trailing bytes
//! under the length prefix, and a provenance-free event encodes
//! byte-identically to earlier versions):
//!   u16  step count
//!   per step: u32 type id, u64 occurrence start, u64 occurrence end
//! ```

use crate::event::{Event, PartitionId};
use crate::provenance::{ProvStep, Provenance};
use crate::record::OutputRecord;
use crate::schema::TypeId;
use crate::time::Interval;
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::sync::Arc;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced length.
    Truncated,
    /// Unknown value tag byte.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// The occurrence interval was inverted.
    BadInterval,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated event frame"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string attribute"),
            CodecError::BadInterval => write!(f, "occurrence interval start exceeds end"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends one encoded event to `buf`.
pub fn encode(event: &Event, buf: &mut BytesMut) {
    // One pass: size the event, reserve once, write the fixed header as
    // one slice — its length prefix is known up front.
    let attrs: usize = event.attrs.iter().map(value_len).sum();
    let steps = event.provenance.as_ref().map(|p| p.steps.as_slice());
    let provenance = steps.map_or(0, |steps| 2 + steps.len() * 20);
    let body = HEADER_LEN - 4 + attrs + provenance;
    buf.reserve(4 + body);
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&(body as u32).to_le_bytes());
    header[4..8].copy_from_slice(&event.type_id.0.to_le_bytes());
    header[8..16].copy_from_slice(&event.occurrence.start.to_le_bytes());
    header[16..24].copy_from_slice(&event.occurrence.end.to_le_bytes());
    header[24..28].copy_from_slice(&event.partition.0.to_le_bytes());
    header[28..30].copy_from_slice(&(event.attrs.len() as u16).to_le_bytes());
    buf.put_slice(&header);
    for value in event.attrs.iter() {
        match value {
            Value::Null => buf.put_u8(0),
            Value::Int(v) => {
                buf.put_u8(1);
                buf.put_i64_le(*v);
            }
            Value::Float(v) => {
                buf.put_u8(2);
                buf.put_f64_le(*v);
            }
            Value::Bool(v) => {
                buf.put_u8(3);
                buf.put_u8(u8::from(*v));
            }
            Value::Str(s) => {
                buf.put_u8(4);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }
    if let Some(steps) = steps {
        buf.put_u16_le(steps.len() as u16);
        for step in steps {
            buf.put_u32_le(step.type_id.0);
            buf.put_u64_le(step.occurrence.start);
            buf.put_u64_le(step.occurrence.end);
        }
    }
}

/// Bytes of the fixed header: the length prefix, type id, occurrence,
/// partition and attribute count.
const HEADER_LEN: usize = 30;

/// Encoded bytes of one attribute value: its tag and payload.
fn value_len(value: &Value) -> usize {
    match value {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Bool(_) => 2,
        Value::Str(s) => 5 + s.len(),
    }
}

/// Encodes a single event into a standalone byte vector. Because the
/// encoding is deterministic, the bytes double as a canonical equality
/// key — the differential harness keys multisets of events this way.
#[must_use]
pub fn encode_to_vec(event: &Event) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    encode(event, &mut buf);
    buf.to_vec()
}

/// Encodes a whole batch.
#[must_use]
pub fn encode_all(events: &[Event]) -> Bytes {
    let mut buf = BytesMut::with_capacity(events.len() * 64);
    for e in events {
        encode(e, &mut buf);
    }
    buf.freeze()
}

/// Decodes one event from the front of `buf`, advancing it past the
/// event (not at all on error). Returns `Ok(None)` when the buffer is
/// empty.
pub fn decode(buf: &mut Bytes) -> Result<Option<Event>, CodecError> {
    advancing(buf, |rest| decode_event(rest, &mut None))
}

/// Decodes every event in the buffer.
pub fn decode_all(buf: Bytes) -> Result<Vec<Event>, CodecError> {
    decode_slice(&buf)
}

/// Decodes every event in `buf` — a frame payload as it came off the
/// socket. Equal string attributes of the frame's events share one
/// allocation, so comparing two of them usually ends at the pointer.
pub fn decode_slice(mut buf: &[u8]) -> Result<Vec<Event>, CodecError> {
    let mut strings = Some(RecentStrings::default());
    // As many bytes as the payload has: bounded by the frame, and a
    // frame of small events (three attributes, 59 bytes on the wire)
    // still fits without regrowing.
    let mut out = Vec::with_capacity(buf.len() / std::mem::size_of::<Event>());
    while let Some(e) = decode_event(&mut buf, &mut strings)? {
        out.push(e);
    }
    Ok(out)
}

/// Runs a slice decoder over the unread part of `buf` and advances
/// `buf` past what it consumed.
fn advancing<T>(
    buf: &mut Bytes,
    parse: impl FnOnce(&mut &[u8]) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut rest: &[u8] = buf;
    let value = parse(&mut rest)?;
    let used = buf.len() - rest.len();
    buf.advance(used);
    Ok(value)
}

/// The last few distinct string attributes decoded, newest overwriting
/// oldest. A low-cardinality attribute (`lane`) decodes to clones of
/// one `Arc<str>` instead of an allocation per event.
#[derive(Default)]
struct RecentStrings {
    seen: [Option<Arc<str>>; 4],
    next: usize,
}

impl RecentStrings {
    fn intern(&mut self, raw: &[u8]) -> Result<Arc<str>, CodecError> {
        if let Some(hit) = self.seen.iter().flatten().find(|s| s.as_bytes() == raw) {
            return Ok(Arc::clone(hit));
        }
        let fresh = decode_str(raw)?;
        self.seen[self.next] = Some(Arc::clone(&fresh));
        self.next = (self.next + 1) % self.seen.len();
        Ok(fresh)
    }
}

fn decode_str(raw: &[u8]) -> Result<Arc<str>, CodecError> {
    std::str::from_utf8(raw)
        .map(Arc::from)
        .map_err(|_| CodecError::BadUtf8)
}

/// Decodes one event from the front of `buf`, leaving `buf` at the
/// next event.
fn decode_event(
    buf: &mut &[u8],
    strings: &mut Option<RecentStrings>,
) -> Result<Option<Event>, CodecError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let len = read_u32(buf)? as usize;
    let mut body = take(buf, len)?;
    let body = &mut body;
    let type_id = TypeId(read_u32(body)?);
    let start = read_u64(body)?;
    let end = read_u64(body)?;
    if start > end {
        return Err(CodecError::BadInterval);
    }
    let partition = PartitionId(read_u32(body)?);
    let count = read_u16(body)? as usize;
    let mut attrs = Vec::with_capacity(count);
    for _ in 0..count {
        attrs.push(decode_value(body, strings)?);
    }
    let mut event = Event::complex(type_id, Interval::new(start, end), partition, attrs);
    if !body.is_empty() {
        let steps = read_u16(body)? as usize;
        let mut prov = Provenance {
            steps: Vec::with_capacity(steps),
        };
        for _ in 0..steps {
            let step_type = TypeId(read_u32(body)?);
            let s = read_u64(body)?;
            let e = read_u64(body)?;
            if s > e {
                return Err(CodecError::BadInterval);
            }
            prov.steps.push(ProvStep {
                type_id: step_type,
                occurrence: Interval::new(s, e),
            });
        }
        event.provenance = Some(Arc::new(prov));
    }
    Ok(Some(event))
}

fn decode_value(
    body: &mut &[u8],
    strings: &mut Option<RecentStrings>,
) -> Result<Value, CodecError> {
    Ok(match read_u8(body)? {
        0 => Value::Null,
        1 => Value::Int(i64::from_le_bytes(take_array(body)?)),
        2 => Value::Float(f64::from_le_bytes(take_array(body)?)),
        3 => Value::Bool(read_u8(body)? != 0),
        4 => {
            let len = read_u32(body)? as usize;
            let raw = take(body, len)?;
            Value::Str(match strings {
                Some(recent) => recent.intern(raw)?,
                None => decode_str(raw)?,
            })
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

/// Tag byte of an [`OutputRecord::Emit`] frame.
const RECORD_EMIT: u8 = 0;
/// Tag byte of an [`OutputRecord::Retract`] frame.
const RECORD_RETRACT: u8 = 1;

/// Appends one encoded output record: a one-byte kind tag
/// (`0` = emit, `1` = retract) followed by the event encoding.
pub fn encode_record(record: &OutputRecord, buf: &mut BytesMut) {
    match record {
        OutputRecord::Emit(e) => {
            buf.put_u8(RECORD_EMIT);
            encode(e, buf);
        }
        OutputRecord::Retract(e) => {
            buf.put_u8(RECORD_RETRACT);
            encode(e, buf);
        }
    }
}

/// Encodes a whole record sequence.
#[must_use]
pub fn encode_records(records: &[OutputRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(records.len() * 64);
    for r in records {
        encode_record(r, &mut buf);
    }
    buf.freeze()
}

/// Decodes one output record from the front of `buf`, advancing it.
/// Returns `Ok(None)` when the buffer is empty.
pub fn decode_record(buf: &mut Bytes) -> Result<Option<OutputRecord>, CodecError> {
    advancing(buf, |rest| decode_record_at(rest, &mut None))
}

/// Decodes every output record in the buffer.
pub fn decode_records(buf: Bytes) -> Result<Vec<OutputRecord>, CodecError> {
    let mut rest: &[u8] = &buf;
    let mut strings = Some(RecentStrings::default());
    let mut out = Vec::new();
    while let Some(r) = decode_record_at(&mut rest, &mut strings)? {
        out.push(r);
    }
    Ok(out)
}

fn decode_record_at(
    buf: &mut &[u8],
    strings: &mut Option<RecentStrings>,
) -> Result<Option<OutputRecord>, CodecError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let tag = read_u8(buf)?;
    let event = decode_event(buf, strings)?.ok_or(CodecError::Truncated)?;
    match tag {
        RECORD_EMIT => Ok(Some(OutputRecord::Emit(event))),
        RECORD_RETRACT => Ok(Some(OutputRecord::Retract(event))),
        other => Err(CodecError::BadTag(other)),
    }
}

/// Splits `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    take(buf, N).map(|head| head.try_into().expect("take returned N bytes"))
}

fn read_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    take_array::<1>(buf).map(|[b]| b)
}

fn read_u16(buf: &mut &[u8]) -> Result<u16, CodecError> {
    take_array(buf).map(u16::from_le_bytes)
}

fn read_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    take_array(buf).map(u32::from_le_bytes)
}

fn read_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    take_array(buf).map(u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event::complex(
            TypeId(7),
            Interval::new(10, 40),
            PartitionId(3),
            vec![
                Value::Int(-42),
                Value::Float(2.75),
                Value::str("exit"),
                Value::Bool(true),
                Value::Null,
            ],
        )
    }

    #[test]
    fn round_trip_single() {
        let e = sample();
        let mut buf = BytesMut::new();
        encode(&e, &mut buf);
        let mut bytes = buf.freeze();
        let decoded = decode(&mut bytes).unwrap().unwrap();
        assert_eq!(decoded, e);
        assert!(decode(&mut bytes).unwrap().is_none(), "buffer drained");
    }

    #[test]
    fn round_trip_batch() {
        let events: Vec<Event> = (0..50)
            .map(|i| {
                Event::simple(
                    TypeId(i % 3),
                    u64::from(i),
                    PartitionId(i % 5),
                    vec![Value::Int(i64::from(i)), Value::str(format!("s{i}"))],
                )
            })
            .collect();
        let encoded = encode_all(&events);
        let decoded = decode_all(encoded).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn truncated_frame_detected() {
        let mut buf = BytesMut::new();
        encode(&sample(), &mut buf);
        let full = buf.freeze();
        for cut in 1..full.len() {
            let mut partial = full.slice(0..cut);
            assert!(
                matches!(decode(&mut partial), Err(CodecError::Truncated) | Ok(None)),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut buf = BytesMut::new();
        encode(
            &Event::simple(TypeId(0), 1, PartitionId(0), vec![Value::Int(1)]),
            &mut buf,
        );
        let mut raw = buf.to_vec();
        // The tag byte sits right after the fixed header (4+4+8+8+4+2).
        raw[30] = 99;
        let mut bytes = Bytes::from(raw);
        assert_eq!(decode(&mut bytes), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn inverted_interval_rejected() {
        let mut buf = BytesMut::new();
        encode(&sample(), &mut buf);
        let mut raw = buf.to_vec();
        // Swap start (offset 8) and end (offset 16) qwords.
        raw[8..16].copy_from_slice(&100u64.to_le_bytes());
        raw[16..24].copy_from_slice(&5u64.to_le_bytes());
        let mut bytes = Bytes::from(raw);
        assert_eq!(decode(&mut bytes), Err(CodecError::BadInterval));
    }

    #[test]
    fn empty_buffer_is_clean_end() {
        let mut empty = Bytes::new();
        assert_eq!(decode(&mut empty), Ok(None));
        assert!(decode_all(Bytes::new()).unwrap().is_empty());
    }

    #[test]
    fn provenance_round_trips_and_absence_is_byte_identical() {
        let plain = sample();
        // A provenance-free event encodes exactly as before the block
        // existed (the opt-in wire extension adds zero bytes when off).
        let baseline = encode_to_vec(&plain);

        let prov = Provenance::from_steps([
            (TypeId(1), Interval::point(10)),
            (TypeId(2), Interval::new(12, 40)),
        ]);
        let tagged = plain.with_provenance(Arc::new(prov.clone()));
        let encoded = encode_to_vec(&tagged);
        assert!(encoded.len() > baseline.len());
        let decoded = decode(&mut Bytes::from(encoded)).unwrap().unwrap();
        assert_eq!(decoded, tagged);
        assert_eq!(decoded.provenance.as_deref(), Some(&prov));
    }

    #[test]
    fn provenance_inverted_interval_rejected() {
        let prov = Provenance::from_steps([(TypeId(1), Interval::point(10))]);
        let tagged = sample().with_provenance(Arc::new(prov));
        let mut raw = encode_to_vec(&tagged);
        // The single step's start/end are the final two qwords.
        let n = raw.len();
        raw[n - 16..n - 8].copy_from_slice(&99u64.to_le_bytes());
        raw[n - 8..].copy_from_slice(&5u64.to_le_bytes());
        assert_eq!(decode(&mut Bytes::from(raw)), Err(CodecError::BadInterval));
    }

    #[test]
    fn record_round_trip() {
        let records = vec![
            OutputRecord::Emit(sample()),
            OutputRecord::Retract(sample()),
            OutputRecord::Emit(Event::simple(
                TypeId(1),
                5,
                PartitionId(0),
                vec![Value::Int(9)],
            )),
        ];
        let encoded = encode_records(&records);
        let decoded = decode_records(encoded).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn record_bad_kind_tag_detected() {
        let mut buf = BytesMut::new();
        encode_record(&OutputRecord::Emit(sample()), &mut buf);
        let mut raw = buf.to_vec();
        raw[0] = 7;
        assert_eq!(decode_records(Bytes::from(raw)), Err(CodecError::BadTag(7)));
    }

    #[test]
    fn record_truncated_after_tag_detected() {
        let mut raw = Bytes::from(vec![RECORD_RETRACT]);
        assert_eq!(decode_record(&mut raw), Err(CodecError::Truncated));
    }
}
