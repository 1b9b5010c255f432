//! The slice-cursor decoder against the `Bytes`-cursor decoder it
//! replaced, kept here verbatim as the reference: on arbitrary encoded
//! events, on every truncation of them and on arbitrary corruption both
//! must return the same event or the same typed `CodecError`, and what
//! decodes must re-encode to the bytes it came from.

use bytes::{Buf, Bytes};
use caesar_events::codec::{decode, decode_slice, encode_all, encode_to_vec, CodecError};
use caesar_events::{Event, Interval, PartitionId, ProvStep, Provenance, TypeId, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// The decoder as it was before the slice cursor.
fn reference_decode(buf: &mut Bytes) -> Result<Option<Event>, CodecError> {
    fn ensure(buf: &Bytes, n: usize) -> Result<(), CodecError> {
        if buf.remaining() < n {
            Err(CodecError::Truncated)
        } else {
            Ok(())
        }
    }
    fn read_u8(buf: &mut Bytes) -> Result<u8, CodecError> {
        ensure(buf, 1)?;
        Ok(buf.get_u8())
    }
    fn read_u16(buf: &mut Bytes) -> Result<u16, CodecError> {
        ensure(buf, 2)?;
        Ok(buf.get_u16_le())
    }
    fn read_u32(buf: &mut Bytes) -> Result<u32, CodecError> {
        ensure(buf, 4)?;
        Ok(buf.get_u32_le())
    }
    fn read_u64(buf: &mut Bytes) -> Result<u64, CodecError> {
        ensure(buf, 8)?;
        Ok(buf.get_u64_le())
    }

    if buf.is_empty() {
        return Ok(None);
    }
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let mut body = buf.split_to(len);
    let type_id = TypeId(read_u32(&mut body)?);
    let start = read_u64(&mut body)?;
    let end = read_u64(&mut body)?;
    if start > end {
        return Err(CodecError::BadInterval);
    }
    let partition = PartitionId(read_u32(&mut body)?);
    let count = read_u16(&mut body)? as usize;
    let mut attrs = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = read_u8(&mut body)?;
        attrs.push(match tag {
            0 => Value::Null,
            1 => {
                ensure(&body, 8)?;
                Value::Int(body.get_i64_le())
            }
            2 => {
                ensure(&body, 8)?;
                Value::Float(body.get_f64_le())
            }
            3 => {
                ensure(&body, 1)?;
                Value::Bool(body.get_u8() != 0)
            }
            4 => {
                let len = read_u32(&mut body)? as usize;
                ensure(&body, len)?;
                let raw = body.split_to(len);
                let s = std::str::from_utf8(&raw).map_err(|_| CodecError::BadUtf8)?;
                Value::str(s)
            }
            other => return Err(CodecError::BadTag(other)),
        });
    }
    let mut event = Event::complex(type_id, Interval::new(start, end), partition, attrs);
    if body.has_remaining() {
        let steps = read_u16(&mut body)? as usize;
        let mut prov = Provenance {
            steps: Vec::with_capacity(steps),
        };
        for _ in 0..steps {
            let step_type = TypeId(read_u32(&mut body)?);
            let s = read_u64(&mut body)?;
            let e = read_u64(&mut body)?;
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

/// Every event the reference decodes from `raw`, or its first error.
fn reference_decode_all(raw: &[u8]) -> Result<Vec<Event>, CodecError> {
    let mut buf = Bytes::copy_from_slice(raw);
    let mut out = Vec::new();
    while let Some(event) = reference_decode(&mut buf)? {
        out.push(event);
    }
    Ok(out)
}

/// Both decoders over `raw`: the first event (or error) of the
/// single-event entry point, then the whole buffer.
fn assert_same(raw: &[u8]) -> Result<(), String> {
    let expected = reference_decode(&mut Bytes::copy_from_slice(raw));
    let got = decode(&mut Bytes::copy_from_slice(raw));
    prop_assert_eq!(&got, &expected, "first event of {raw:?}");
    prop_assert_eq!(
        decode_slice(raw),
        reference_decode_all(raw),
        "all of {raw:?}"
    );
    Ok(())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Any bit pattern, NaNs included: value equality is on the bits.
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        any::<bool>().prop_map(Value::Bool),
        // Few distinct strings, so frames repeat them (the reuse path),
        // the empty string among them.
        prop::sample::select(vec!["", "exit", "travel", "é世"]).prop_map(Value::str),
        "[a-z0-9 \u{00e9}\u{4e16}]{0,12}".prop_map(Value::str),
        Just(Value::Null),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        (any::<u32>(), 0u64..1_000_000, 0u64..1_000, any::<u32>()),
        prop::collection::vec(arb_value(), 0..8),
        prop::collection::vec((any::<u32>(), 0u64..1_000, 0u64..50), 0..4),
        any::<bool>(),
    )
        .prop_map(|((ty, start, span, partition), attrs, steps, with_prov)| {
            let event = Event::complex(
                TypeId(ty),
                Interval::new(start, start + span),
                PartitionId(partition),
                attrs,
            );
            if with_prov {
                event.with_provenance(Arc::new(Provenance::from_steps(
                    steps
                        .into_iter()
                        .map(|(ty, s, span)| (TypeId(ty), Interval::new(s, s + span))),
                )))
            } else {
                event
            }
        })
}

proptest! {
    #[test]
    fn well_formed_events_decode_alike_and_reencode_to_the_same_bytes(
        events in prop::collection::vec(arb_event(), 0..12),
    ) {
        let wire = encode_all(&events);
        let decoded = decode_slice(&wire).map_err(|e| e.to_string())?;
        prop_assert_eq!(&decoded, &events);
        prop_assert_eq!(&reference_decode_all(&wire).map_err(|e| e.to_string())?, &events);
        prop_assert_eq!(&encode_all(&decoded), &wire);
        // One event at a time, the cursor lands where the reference's does.
        let (mut new, mut old) = (wire.clone(), wire);
        loop {
            let (got, expected) = (decode(&mut new), reference_decode(&mut old));
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(new.len(), old.len());
            if matches!(got, Ok(None)) {
                break;
            }
        }
    }

    #[test]
    fn every_truncation_is_the_same_typed_error(
        events in prop::collection::vec(arb_event(), 1..4),
    ) {
        let wire = encode_all(&events).to_vec();
        for cut in 0..wire.len() {
            assert_same(&wire[..cut])?;
        }
    }

    #[test]
    fn corruption_is_the_same_typed_error(
        events in prop::collection::vec(arb_event(), 1..5),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..6),
    ) {
        let mut raw = encode_all(&events).to_vec();
        for (at, byte) in flips {
            let i = at.index(raw.len());
            raw[i] ^= byte;
        }
        assert_same(&raw)?;
    }
}

#[test]
fn non_utf8_string_is_bad_utf8_in_both() {
    let event = Event::simple(TypeId(1), 5, PartitionId(2), vec![Value::str("lane")]);
    let mut raw = encode_to_vec(&event);
    let last = raw.len() - 1;
    raw[last] = 0xFF;
    assert_eq!(decode_slice(&raw), Err(CodecError::BadUtf8));
    assert_same(&raw).unwrap();
    // ...also when the same (invalid) bytes were seen before in the frame.
    let doubled = [raw.clone(), raw].concat();
    assert_eq!(decode_slice(&doubled), Err(CodecError::BadUtf8));
    assert_same(&doubled).unwrap();
}

#[test]
fn equal_strings_of_a_frame_share_one_allocation() {
    let events: Vec<Event> = (0..6)
        .map(|t| {
            let lane = if t % 3 == 0 { "exit" } else { "travel" };
            Event::simple(TypeId(0), t, PartitionId(0), vec![Value::str(lane)])
        })
        .collect();
    let decoded = decode_slice(&encode_all(&events)).unwrap();
    assert_eq!(decoded, events);
    let lane = |i: usize| match &decoded[i].attrs[0] {
        Value::Str(s) => Arc::clone(s),
        other => panic!("{other:?}"),
    };
    assert!(Arc::ptr_eq(&lane(1), &lane(2)));
    assert!(Arc::ptr_eq(&lane(0), &lane(3)));
    assert!(!Arc::ptr_eq(&lane(0), &lane(1)));
}
