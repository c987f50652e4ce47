//! Offline stand-in for the [`serde`](https://crates.io/crates/serde) crate.
//!
//! The build environment of this repository has no network access, so this
//! crate provides the subset the workspace uses: a [`Serialize`] trait (here
//! producing an explicit [`Json`] tree rather than driving a generic
//! `Serializer`) and a `#[derive(Serialize)]` macro for structs with named
//! fields. `serde_json::to_string_pretty` renders the tree.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::Serialize;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    Uint(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`; integers widen losslessly (within 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Uint(u) => Some(*u as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::Uint(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Uint(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries of an object, if it is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Looks up `key` in an object (first match; `None` on non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Mutable [`Json::get`]: lets a reader move a decoded value out of the
    /// tree instead of cloning it.
    #[must_use]
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Object(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Types that can render themselves as a [`Json`] tree.
pub trait Serialize {
    /// Converts the value into a JSON tree.
    fn to_json(&self) -> Json;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Uint(*self as u64)
            }
        }
    )*};
}

impl_serialize_int!(i8, i16, i32, i64, isize);
impl_serialize_uint!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_json(&self) -> Json {
        // Deterministic output: sort keys.
        let mut entries: Vec<(String, Json)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_and_containers() {
        assert_eq!(3usize.to_json(), Json::Uint(3));
        assert_eq!((-3i32).to_json(), Json::Int(-3));
        assert_eq!(true.to_json(), Json::Bool(true));
        assert_eq!("hi".to_string().to_json(), Json::Str("hi".into()));
        assert_eq!(None::<u8>.to_json(), Json::Null);
        assert_eq!(
            vec![1u8, 2].to_json(),
            Json::Array(vec![Json::Uint(1), Json::Uint(2)])
        );
    }

    #[test]
    fn maps_are_ordered() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), 1usize);
        m.insert("a".to_string(), 2usize);
        match m.to_json() {
            Json::Object(entries) => {
                assert_eq!(entries[0].0, "a");
                assert_eq!(entries[1].0, "b");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }
}
