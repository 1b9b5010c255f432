//! Dynamically typed attribute values.
//!
//! Linear Road position reports carry integer attributes; the physical
//! activity data set carries floating-point sensor readings; derived events
//! may carry strings (e.g. lane names). [`Value`] covers all of these and
//! implements the arithmetic and comparison operators of the CAESAR
//! expression grammar (Figure 4): `+ - * / = ≠ > ≥ < ≤ AND OR`.

use crate::error::EventError;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single attribute value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer (Linear Road attributes are integers, §2).
    Int(i64),
    /// 64-bit float (sensor readings, averages).
    Float(f64),
    /// Interned string (lane names, activity labels).
    Str(Arc<str>),
    /// Boolean (results of predicates).
    Bool(bool),
    /// Absent value (attribute not set / projected away).
    Null,
}

impl Value {
    /// Builds a string value from anything string-like.
    #[must_use]
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns the integer payload, coercing exact floats.
    pub fn as_int(&self) -> Result<i64, EventError> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(EventError::TypeMismatch {
                expected: "Int",
                found: other.type_name(),
            }),
        }
    }

    /// Returns the boolean payload.
    pub fn as_bool(&self) -> Result<bool, EventError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EventError::TypeMismatch {
                expected: "Bool",
                found: other.type_name(),
            }),
        }
    }

    /// Returns the string payload.
    pub fn as_str(&self) -> Result<&str, EventError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(EventError::TypeMismatch {
                expected: "Str",
                found: other.type_name(),
            }),
        }
    }

    /// Name of the runtime type, for diagnostics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
            Value::Bool(_) => "Bool",
            Value::Null => "Null",
        }
    }

    /// Returns `true` if the value is [`Value::Null`].
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric addition (`+` in the grammar).
    pub fn add(&self, rhs: &Value) -> Result<Value, EventError> {
        numeric_op(self, rhs, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Numeric subtraction (`-`).
    pub fn sub(&self, rhs: &Value) -> Result<Value, EventError> {
        numeric_op(self, rhs, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Numeric multiplication (`*`).
    pub fn mul(&self, rhs: &Value) -> Result<Value, EventError> {
        numeric_op(self, rhs, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Numeric division (`/`). Integer division by zero is an error;
    /// float division follows IEEE semantics.
    pub fn div(&self, rhs: &Value) -> Result<Value, EventError> {
        match (self, rhs) {
            (Value::Int(_), Value::Int(0)) => Err(EventError::Arithmetic {
                op: "/",
                detail: "integer division by zero".into(),
            }),
            _ => numeric_op(self, rhs, "/", |a, b| a.checked_div(b), |a, b| a / b),
        }
    }

    /// Equality comparison (`=`). Numeric types compare cross-type;
    /// nulls never equal anything (including other nulls).
    #[must_use]
    pub fn eq_value(&self, rhs: &Value) -> bool {
        match (self, rhs) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            // Interned strings (see `caesar_events::schema::SymbolTable`)
            // share one allocation, so equality usually resolves on
            // pointer identity without touching the bytes.
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// Total comparison used by `< <= > >=`; `None` for incomparable types.
    #[must_use]
    pub fn partial_cmp_value(&self, rhs: &Value) -> Option<Ordering> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

fn numeric_op(
    lhs: &Value,
    rhs: &Value,
    op: &'static str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Value, EventError> {
    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => {
            int_op(*a, *b)
                .map(Value::Int)
                .ok_or_else(|| EventError::Arithmetic {
                    op,
                    detail: format!("integer overflow on {a} {op} {b}"),
                })
        }
        (Value::Float(a), Value::Float(b)) => Ok(Value::Float(float_op(*a, *b))),
        (Value::Int(a), Value::Float(b)) => Ok(Value::Float(float_op(*a as f64, *b))),
        (Value::Float(a), Value::Int(b)) => Ok(Value::Float(float_op(*a, *b as f64))),
        _ => Err(EventError::TypeMismatch {
            expected: "numeric operands",
            found: if matches!(lhs, Value::Int(_) | Value::Float(_)) {
                rhs.type_name()
            } else {
                lhs.type_name()
            },
        }),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // Structural equality (used by tests and dedup); unlike
            // `eq_value`, nulls are equal to nulls here.
            (Value::Null, Value::Null) => true,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self.eq_value(other),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "\"{v}\""),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_on_ints() {
        let a = Value::Int(30);
        let b = Value::Int(12);
        assert_eq!(a.add(&b).unwrap(), Value::Int(42));
        assert_eq!(a.sub(&b).unwrap(), Value::Int(18));
        assert_eq!(a.mul(&b).unwrap(), Value::Int(360));
        assert_eq!(a.div(&b).unwrap(), Value::Int(2));
    }

    #[test]
    fn mixed_numeric_promotes_to_float() {
        let a = Value::Int(3);
        let b = Value::Float(0.5);
        assert_eq!(a.add(&b).unwrap(), Value::Float(3.5));
        assert_eq!(b.mul(&a).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn integer_division_by_zero_is_error() {
        let err = Value::Int(1).div(&Value::Int(0)).unwrap_err();
        assert!(matches!(err, EventError::Arithmetic { .. }));
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let err = Value::Int(i64::MAX).add(&Value::Int(1)).unwrap_err();
        assert!(matches!(err, EventError::Arithmetic { .. }));
    }

    #[test]
    fn string_arithmetic_is_type_error() {
        let err = Value::str("exit").add(&Value::Int(1)).unwrap_err();
        assert!(matches!(err, EventError::TypeMismatch { .. }));
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert!(Value::Int(4).eq_value(&Value::Float(4.0)));
        assert!(!Value::Int(4).eq_value(&Value::Float(4.5)));
        assert!(!Value::Int(4).eq_value(&Value::str("4")));
    }

    #[test]
    fn null_is_not_equal_to_null_under_query_semantics() {
        assert!(!Value::Null.eq_value(&Value::Null));
        // ...but structurally equal for dedup purposes.
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn ordering_across_numeric_types() {
        assert_eq!(
            Value::Int(3).partial_cmp_value(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("b").partial_cmp_value(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Bool(true).partial_cmp_value(&Value::Int(1)), None);
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("exit").to_string(), "\"exit\"");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
