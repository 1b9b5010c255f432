//! Error types for the event model substrate.

use std::fmt;

/// Errors raised by the event model (schema violations, type errors,
/// out-of-order ingestion).
#[derive(Debug, Clone, PartialEq)]
pub enum EventError {
    /// A value had a different runtime type than an operation required.
    TypeMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// What it actually got.
        found: &'static str,
    },
    /// Arithmetic failure (overflow, division by zero).
    Arithmetic {
        /// The operator that failed.
        op: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// An event type name was not registered.
    UnknownType(String),
    /// An attribute name does not exist on the schema.
    UnknownAttr {
        /// The event type searched.
        event_type: String,
        /// The missing attribute.
        attr: String,
    },
    /// An event carried the wrong number of attribute values for its schema.
    ArityMismatch {
        /// The event type.
        event_type: String,
        /// Attributes declared by the schema.
        expected: usize,
        /// Attributes supplied.
        found: usize,
    },
    /// An event arrived with a timestamp older than the queue watermark.
    /// CAESAR assumes in-order streams (§6.2); the distributor rejects
    /// violations instead of silently corrupting context state.
    OutOfOrder {
        /// Current queue watermark.
        watermark: u64,
        /// Offending event timestamp.
        timestamp: u64,
    },
    /// A type was registered twice with conflicting schemas.
    DuplicateType(String),
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            EventError::Arithmetic { op, detail } => {
                write!(f, "arithmetic error in '{op}': {detail}")
            }
            EventError::UnknownType(name) => write!(f, "unknown event type '{name}'"),
            EventError::UnknownAttr { event_type, attr } => {
                write!(f, "event type '{event_type}' has no attribute '{attr}'")
            }
            EventError::ArityMismatch {
                event_type,
                expected,
                found,
            } => write!(
                f,
                "event of type '{event_type}' carries {found} attributes, schema declares {expected}"
            ),
            EventError::OutOfOrder {
                watermark,
                timestamp,
            } => write!(
                f,
                "out-of-order event: timestamp {timestamp} behind watermark {watermark}"
            ),
            EventError::DuplicateType(name) => {
                write!(f, "event type '{name}' registered twice with conflicting schema")
            }
        }
    }
}

impl std::error::Error for EventError {}
