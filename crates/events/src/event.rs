//! Events: timestamped, typed, attribute-carrying messages.
//!
//! "An event is a message indicating that something of interest happens in
//! the real world" (§2). Simple events carry a point occurrence time;
//! complex (derived) events carry the interval spanning all events they
//! were derived from \[23\].

use crate::error::EventError;
use crate::provenance::Provenance;
use crate::schema::{AttrId, Schema, SchemaRegistry, TypeId};
use crate::time::{Interval, Time};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a stream partition.
///
/// CAESAR maintains context state *per stream partition* — a unidirectional
/// road segment in the traffic use case, a subject in the activity
/// monitoring use case (§6.2).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// Index into partition-ordered arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The shard (of `shards`) this partition routes to.
    ///
    /// Runs the id through a SplitMix64-style finalizer before the
    /// modulo, so structured id sets — all-even user ids, ids sharing a
    /// stride, hashed keys with a biased low byte — still spread across
    /// shards. Plain `id % shards` sends every even id to shard 0 when
    /// `shards == 2`, collapsing a "parallel" run onto one core. The
    /// mix is a pure function of the id, so a given partition always
    /// lands on the same shard (context state never splits) and reruns
    /// are deterministic.
    #[must_use]
    pub fn shard(self, shards: usize) -> usize {
        let mut z = u64::from(self.0).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % shards.max(1) as u64) as usize
    }
}

/// Hasher of the partition-keyed maps ([`PartitionMap`]): one
/// multiplication and a fold per lookup.
///
/// Partition ids are sparse — a clickstream workload hashes millions of
/// user keys into the 32-bit id space — so partition state is keyed by
/// id, and the maps are probed several times per event. The multiplier
/// is odd (the product is a bijection of the id) and is *not* the
/// SplitMix gamma [`PartitionId::shard`] starts from: the ids one shard
/// receives agree on `mix(id) % shards`, and a map hashing them with the
/// same mix would crowd them into the buckets that share those bits.
/// Unkeyed, like the shard router: ids crafted to collide cost their own
/// tenant probe length, which the admission bound caps like any other
/// slow input.
#[derive(Debug, Default, Clone, Copy)]
pub struct PartitionHasher(u64);

impl std::hash::Hasher for PartitionHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        // The product's high half is the well-mixed one; the table
        // indexes buckets by the low bits.
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by (sparse) partition id, hashed by [`PartitionHasher`].
/// Iteration order is unspecified: a walk whose order is observable
/// (emitted outputs, snapshot bytes) sorts the ids first.
pub type PartitionMap<V> =
    std::collections::HashMap<u32, V, std::hash::BuildHasherDefault<PartitionHasher>>;

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A single event instance.
///
/// The attribute array is positionally aligned with the event type's
/// [`Schema`]; `Arc` keeps fan-out through shared operators cheap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// The event's registered type.
    pub type_id: TypeId,
    /// Occurrence time: a point for simple events, a span for complex ones.
    pub occurrence: Interval,
    /// The stream partition the event belongs to.
    pub partition: PartitionId,
    /// Attribute values, positionally matching the schema.
    pub attrs: Arc<[Value]>,
    /// Match provenance of a derived event — the contributing events of
    /// each pattern step. `None` unless the engine runs in the opt-in
    /// provenance-collecting mode; participates in equality and the
    /// wire encoding (as a trailing optional block), so provenance-off
    /// runs stay byte-identical to earlier versions.
    pub provenance: Option<Arc<Provenance>>,
}

impl Event {
    /// Builds a simple event occurring at time point `t`.
    #[must_use]
    pub fn simple(
        type_id: TypeId,
        t: Time,
        partition: PartitionId,
        attrs: impl Into<Arc<[Value]>>,
    ) -> Self {
        Self {
            type_id,
            occurrence: Interval::point(t),
            partition,
            attrs: attrs.into(),
            provenance: None,
        }
    }

    /// Builds a complex event spanning `occurrence`.
    #[must_use]
    pub fn complex(
        type_id: TypeId,
        occurrence: Interval,
        partition: PartitionId,
        attrs: impl Into<Arc<[Value]>>,
    ) -> Self {
        Self {
            type_id,
            occurrence,
            partition,
            attrs: attrs.into(),
            provenance: None,
        }
    }

    /// The same event carrying `provenance` (builder-style; used by the
    /// pattern runtime's provenance-collecting mode).
    #[must_use]
    pub fn with_provenance(mut self, provenance: Arc<Provenance>) -> Self {
        self.provenance = Some(provenance);
        self
    }

    /// The event's *ordering* timestamp. CAESAR orders events (and forms
    /// stream transactions) by the end of the occurrence interval: a
    /// complex event becomes known when its last constituent arrives.
    #[must_use]
    pub fn time(&self) -> Time {
        self.occurrence.end
    }

    /// Start of the occurrence interval.
    #[must_use]
    pub fn start_time(&self) -> Time {
        self.occurrence.start
    }

    /// Reads one attribute by positional id.
    #[must_use]
    pub fn attr(&self, id: AttrId) -> &Value {
        &self.attrs[id.index()]
    }

    /// Reads one attribute by name, resolving against the given schema.
    pub fn attr_by_name(&self, schema: &Schema, name: &str) -> Result<&Value, EventError> {
        Ok(self.attr(schema.attr_id(name)?))
    }

    /// Checks this event against its schema in the registry
    /// (arity + value domains).
    pub fn validate(&self, registry: &SchemaRegistry) -> Result<(), EventError> {
        let schema = registry.schema(self.type_id);
        if schema.arity() != self.attrs.len() {
            return Err(EventError::ArityMismatch {
                event_type: schema.name.to_string(),
                expected: schema.arity(),
                found: self.attrs.len(),
            });
        }
        for (def, value) in schema.attrs.iter().zip(self.attrs.iter()) {
            let ok = matches!(
                (def.ty, value),
                (crate::schema::AttrType::Int, Value::Int(_))
                    | (crate::schema::AttrType::Float, Value::Float(_))
                    | (crate::schema::AttrType::Float, Value::Int(_))
                    | (crate::schema::AttrType::Str, Value::Str(_))
                    | (crate::schema::AttrType::Bool, Value::Bool(_))
                    | (_, Value::Null)
            );
            if !ok {
                return Err(EventError::TypeMismatch {
                    expected: match def.ty {
                        crate::schema::AttrType::Int => "Int",
                        crate::schema::AttrType::Float => "Float",
                        crate::schema::AttrType::Str => "Str",
                        crate::schema::AttrType::Bool => "Bool",
                    },
                    found: value.type_name(),
                });
            }
        }
        Ok(())
    }
}

/// Ergonomic builder for events with named attributes, used by the
/// workload generators and tests (the hot path constructs events
/// positionally instead).
#[derive(Debug)]
pub struct EventBuilder<'a> {
    registry: &'a SchemaRegistry,
    type_id: TypeId,
    time: Interval,
    partition: PartitionId,
    attrs: Vec<Value>,
}

impl<'a> EventBuilder<'a> {
    /// Starts building an event of type `type_name` at time `t`.
    pub fn new(registry: &'a SchemaRegistry, type_name: &str, t: Time) -> Result<Self, EventError> {
        let type_id = registry.lookup(type_name)?;
        let arity = registry.schema(type_id).arity();
        Ok(Self {
            registry,
            type_id,
            time: Interval::point(t),
            partition: PartitionId::default(),
            attrs: vec![Value::Null; arity],
        })
    }

    /// Sets the partition.
    #[must_use]
    pub fn partition(mut self, p: PartitionId) -> Self {
        self.partition = p;
        self
    }

    /// Widens the occurrence to an interval (for complex events).
    #[must_use]
    pub fn occurrence(mut self, interval: Interval) -> Self {
        self.time = interval;
        self
    }

    /// Sets a named attribute.
    pub fn attr(mut self, name: &str, value: impl Into<Value>) -> Result<Self, EventError> {
        let id = self.registry.schema(self.type_id).attr_id(name)?;
        self.attrs[id.index()] = value.into();
        Ok(self)
    }

    /// Finishes the event, validating it against its schema.
    pub fn build(self) -> Result<Event, EventError> {
        let event = Event {
            type_id: self.type_id,
            occurrence: self.time,
            partition: self.partition,
            attrs: self.attrs.into(),
            provenance: None,
        };
        event.validate(self.registry)?;
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new(
            "PositionReport",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
                ("lane", AttrType::Str),
            ],
        ))
        .unwrap();
        reg
    }

    #[test]
    fn builder_produces_validated_event() {
        let reg = registry();
        let e = EventBuilder::new(&reg, "PositionReport", 30)
            .unwrap()
            .partition(PartitionId(7))
            .attr("vid", 101)
            .unwrap()
            .attr("sec", 30)
            .unwrap()
            .attr("lane", "travel")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(e.time(), 30);
        assert_eq!(e.partition, PartitionId(7));
        assert_eq!(e.attr(AttrId(0)), &Value::Int(101));
        let schema = reg.schema(e.type_id);
        assert_eq!(
            e.attr_by_name(schema, "lane").unwrap(),
            &Value::str("travel")
        );
    }

    #[test]
    fn unset_attrs_default_to_null() {
        let reg = registry();
        let e = EventBuilder::new(&reg, "PositionReport", 1)
            .unwrap()
            .build()
            .unwrap();
        assert!(e.attr(AttrId(0)).is_null());
    }

    #[test]
    fn wrong_domain_fails_validation() {
        let reg = registry();
        let result = EventBuilder::new(&reg, "PositionReport", 1)
            .unwrap()
            .attr("vid", "not an int")
            .unwrap()
            .build();
        assert!(matches!(result, Err(EventError::TypeMismatch { .. })));
    }

    #[test]
    fn arity_mismatch_detected() {
        let reg = registry();
        let type_id = reg.lookup("PositionReport").unwrap();
        let e = Event::simple(type_id, 1, PartitionId(0), vec![Value::Int(1)]);
        assert!(matches!(
            e.validate(&reg),
            Err(EventError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn complex_event_orders_by_interval_end() {
        let reg = registry();
        let type_id = reg.lookup("PositionReport").unwrap();
        let e = Event::complex(
            type_id,
            Interval::new(10, 40),
            PartitionId(0),
            vec![Value::Null, Value::Null, Value::Null],
        );
        assert_eq!(e.time(), 40);
        assert_eq!(e.start_time(), 10);
    }

    #[test]
    fn unknown_event_type_in_builder() {
        let reg = registry();
        assert!(EventBuilder::new(&reg, "Ghost", 0).is_err());
    }
}
