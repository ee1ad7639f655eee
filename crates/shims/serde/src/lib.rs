//! In-tree stand-in for `serde`, vendored so the workspace builds with no
//! network access and no external crates.
//!
//! The real serde is a zero-copy visitor framework; this shim is a much
//! smaller design that covers exactly what the workspace needs: types
//! convert to and from a JSON-shaped [`Value`] tree, and `serde_json`
//! (also vendored) prints/parses that tree. The public names mirror serde
//! (`Serialize`, `Deserialize`, `#[derive(Serialize, Deserialize)]`) so
//! call sites are source-compatible with the real crate.
//!
//! Representation choices match `serde_json` defaults where the workspace
//! depends on them:
//! * structs → objects with the field names as keys,
//! * unit enum variants → strings (`"FirstTouch"`),
//! * newtype enum variants → one-entry objects (`{"Bind": 0}`),
//! * maps → objects (keys must serialize as strings).

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;

/// A JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative or small integer.
    Int(i64),
    /// A non-negative integer (kept separate so `u64 > i64::MAX` survive).
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up an object key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A short name of the variant for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error: what was expected, what was found.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Builds a "while deserializing T: expected X, found Y" error.
    pub fn expected(what: &str, context: &str, found: &Value) -> DeError {
        DeError(format!(
            "{context}: expected {what}, found {}",
            found.kind()
        ))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Conversion from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reads `Self` out of a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Reads a struct field out of object entries (helper for derived code).
pub fn from_field<T: Deserialize>(
    obj: &[(String, Value)],
    key: &str,
    ty: &str,
) -> Result<T, DeError> {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v).map_err(|e| DeError(format!("{ty}.{key}: {e}"))),
        None => Err(DeError(format!("{ty}: missing field '{key}'"))),
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", "bool", other)),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = match v {
                    Value::UInt(u) => Some(*u),
                    Value::Int(i) if *i >= 0 => Some(*i as u64),
                    _ => None,
                };
                raw.and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| DeError::expected("unsigned integer", stringify!($t), v))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = match v {
                    Value::Int(i) => Some(*i),
                    Value::UInt(u) => i64::try_from(*u).ok(),
                    _ => None,
                };
                raw.and_then(|i| <$t>::try_from(i).ok())
                    .ok_or_else(|| DeError::expected("integer", stringify!($t), v))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    other => Err(DeError::expected("number", stringify!($t), other)),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", "String", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|e| e.to_value()).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(a) => a.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", "Vec", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        let entries = self
            .iter()
            .map(|(k, v)| {
                let key = match k.to_value() {
                    Value::Str(s) => s,
                    Value::Int(i) => i.to_string(),
                    Value::UInt(u) => u.to_string(),
                    other => panic!("map key must serialize as a string, got {}", other.kind()),
                };
                (key, v.to_value())
            })
            .collect();
        Value::Object(entries)
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(o) => o
                .iter()
                .map(|(k, v)| {
                    let key = K::from_value(&Value::Str(k.clone()))
                        .map_err(|e| DeError(format!("map key '{k}': {e}")))?;
                    Ok((key, V::from_value(v)?))
                })
                .collect(),
            other => Err(DeError::expected("object", "BTreeMap", other)),
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
