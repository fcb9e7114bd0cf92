//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! this shim provides the small slice of serde's API the workspace actually
//! uses: the `Serialize` / `Deserialize` traits (with derive macros) on top
//! of a simple JSON-like [`Value`] tree. `serde_json` (also shimmed) renders
//! that tree as real JSON.
//!
//! The derive supports the two shapes the scenario and result-table file
//! formats use, with serde's own layout: a struct with named fields is an
//! object in field order, and an enum under `#[serde(tag = "...",
//! rename_all = "snake_case")]` whose variants all have named fields is one
//! flat object, tag first. Leaf impls cover `u64`, `usize`, `f64`,
//! `String`, `Vec<T>` and `Value`.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

// Let this crate's own tests exercise the derive macros, whose expansion
// refers to `::serde::...`.
#[cfg(test)]
extern crate self as serde;

/// A JSON-like value tree, the intermediate representation of this shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so `u64::MAX` survives).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion-ordered, mirroring serde_json's struct behaviour.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) if i >= 0 => Some(i as u64),
            Value::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Error produced by deserialization.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Creates an error with the given message.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses `Self` out of a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the value has the wrong shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Support functions used by the derive expansion.
// ---------------------------------------------------------------------------

/// Looks up a required struct field in an object (derive-internal).
///
/// # Errors
///
/// Returns [`DeError`] when the key is missing.
pub fn __get_field<'a>(v: &'a Value, key: &str, ty: &str) -> Result<&'a Value, DeError> {
    v.get(key)
        .ok_or_else(|| DeError::msg(format!("missing field `{key}` while deserializing {ty}")))
}

/// Reports a shape mismatch (derive-internal).
pub fn __type_error<T>(expected: &str, got: &Value) -> Result<T, DeError> {
    Err(DeError::msg(format!("expected {expected}, got {got:?}")))
}

// ---------------------------------------------------------------------------
// Leaf impls.
// ---------------------------------------------------------------------------

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_u64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| DeError::msg(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), v)))
            }
        }
    )*};
}
ser_uint!(u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .ok_or_else(|| DeError::msg(format!("expected f64, got {v:?}")))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => __type_error("string", v),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => __type_error("array", v),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(usize::from_value(&7usize.to_value()).unwrap(), 7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(Vec::<u64>::from_value(&v.to_value()).unwrap(), v);
    }

    #[test]
    fn object_lookup() {
        let obj = Value::Object(vec![("a".into(), Value::Int(1))]);
        assert_eq!(obj.get("a"), Some(&Value::Int(1)));
        assert_eq!(obj.get("b"), None);
    }

    #[derive(Debug, PartialEq, serde_derive::Serialize, serde_derive::Deserialize)]
    #[serde(tag = "kind", rename_all = "snake_case")]
    enum TaggedAction {
        BudgetStep { fraction: f64 },
        CoresOffline { cores: Vec<usize> },
    }

    #[test]
    fn internally_tagged_enum_serializes_flat() {
        let v = TaggedAction::BudgetStep { fraction: 0.5 }.to_value();
        assert_eq!(
            v,
            Value::Object(vec![
                ("kind".into(), Value::Str("budget_step".into())),
                ("fraction".into(), Value::Float(0.5)),
            ])
        );
    }

    #[test]
    fn internally_tagged_enum_round_trips() {
        for a in [
            TaggedAction::BudgetStep { fraction: 0.25 },
            TaggedAction::CoresOffline { cores: vec![0, 3] },
        ] {
            assert_eq!(TaggedAction::from_value(&a.to_value()).unwrap(), a);
        }
    }

    #[test]
    fn internally_tagged_enum_rejects_bad_shapes() {
        // Unknown tag value.
        let v = Value::Object(vec![("kind".into(), Value::Str("explode".into()))]);
        let err = TaggedAction::from_value(&v).unwrap_err();
        assert!(
            err.0.contains("unknown TaggedAction variant `explode`"),
            "{err}"
        );
        // Missing tag key.
        let v = Value::Object(vec![("fraction".into(), Value::Float(0.5))]);
        assert!(TaggedAction::from_value(&v).is_err());
        // Missing variant field.
        let v = Value::Object(vec![("kind".into(), Value::Str("budget_step".into()))]);
        let err = TaggedAction::from_value(&v).unwrap_err();
        assert!(err.0.contains("missing field `fraction`"), "{err}");
        // Not an object at all.
        assert!(TaggedAction::from_value(&Value::Str("budget_step".into())).is_err());
    }
}
