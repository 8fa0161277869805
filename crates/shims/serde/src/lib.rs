//! Offline shim of `serde`.
//!
//! The build environment has no registry access, so this crate provides the
//! subset of serde this workspace uses, with derive macros from the sibling
//! `serde_derive` shim:
//!
//! - [`Serialize`] drives a visitor [`Serializer`] shaped like real serde's
//!   data model (structs and fields, sequences, maps, unit / newtype / struct
//!   variants, scalars).  Nothing is built in between: the sibling
//!   `serde_json` shim's serializer writes JSON straight into a `String`.
//! - [`Deserialize`] reads a simplified self-describing [`Value`] tree, which
//!   `serde_json` parses first.
//!
//! The signatures are simpler than real serde's: a serializer has no `Ok` /
//! `Error` associated types (it records its first error itself and the caller
//! checks it once at the end), compound values are opened and closed by
//! methods on the serializer instead of returned `SerializeStruct`-style
//! handles, and deserialisation has no visitor.  Outside tests one type
//! implements [`Serialize`] by hand (`psp::service::wire`'s borrowed event
//! envelope, since the derive has no lifetimes), so besides it only the
//! derive macros and `serde_json` depend on the traits' exact shape.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing parsed value: what `serde_json` hands to
/// [`Deserialize`].  Serialisation never builds one.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also unit structs and `None`).
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer outside the `i64` range or serialised from unsigned types.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// A sequence (arrays, tuples, multi-field tuple structs).
    Seq(Vec<Value>),
    /// An ordered map (structs, maps, externally tagged enum variants).
    Map(Vec<(Value, Value)>),
}

impl Value {
    /// The entries of a map value, if this is a map.
    #[must_use]
    pub fn as_map(&self) -> Option<&[(Value, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements of a sequence value, if this is a sequence.
    #[must_use]
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if this is a string value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The shim's (de)serialisation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with a message.
    #[must_use]
    pub fn custom(msg: &str) -> Self {
        Self {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde shim error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// A visitor that receives a value's structure, shaped like real serde's
/// data model.
///
/// A compound value is opened, filled and closed: `serialize_struct`, one
/// `serialize_field` per field, `end_struct`; `serialize_seq`, one
/// `serialize_element` per element, `end_seq`; `serialize_map`, then
/// `serialize_key` and `serialize_value` per entry, `end_map`.  The methods
/// return nothing: a serializer that meets a value it cannot represent
/// records the error and reports it when the caller finishes.
pub trait Serializer {
    /// A unit value, unit struct or `None`.
    fn serialize_unit(&mut self);
    /// A boolean.
    fn serialize_bool(&mut self, v: bool);
    /// A signed integer.
    fn serialize_i64(&mut self, v: i64);
    /// An unsigned integer.
    fn serialize_u64(&mut self, v: u64);
    /// A floating-point number.
    fn serialize_f64(&mut self, v: f64);
    /// A string.
    fn serialize_str(&mut self, v: &str);
    /// Opens a sequence (vectors, slices, tuples, multi-field tuple structs).
    fn serialize_seq(&mut self);
    /// One sequence element.
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T);
    /// Closes the open sequence.
    fn end_seq(&mut self);
    /// Opens a map.
    fn serialize_map(&mut self);
    /// One map key; its value follows through [`serialize_value`](Self::serialize_value).
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T);
    /// The value of the key just serialized.
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T);
    /// Closes the open map.
    fn end_map(&mut self);
    /// Opens a struct with named fields.
    fn serialize_struct(&mut self, name: &'static str);
    /// One named field of the open struct or struct variant.
    fn serialize_field<T: Serialize + ?Sized>(&mut self, key: &'static str, value: &T);
    /// Closes the open struct.
    fn end_struct(&mut self);
    /// A fieldless enum variant.
    fn serialize_unit_variant(&mut self, name: &'static str, variant: &'static str);
    /// An enum variant wrapping one value (multi-field tuple variants wrap a
    /// tuple).
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        &mut self,
        name: &'static str,
        variant: &'static str,
        value: &T,
    );
    /// Opens an enum variant with named fields, filled by
    /// [`serialize_field`](Self::serialize_field).
    fn serialize_struct_variant(&mut self, name: &'static str, variant: &'static str);
    /// Closes the open struct variant.
    fn end_struct_variant(&mut self);
}

/// A value that can describe itself to a [`Serializer`].
pub trait Serialize {
    /// Feeds `self` to the serializer.
    fn serialize<S: Serializer>(&self, s: &mut S);
}

/// Deserialisation from the shim's [`Value`] model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value does not have the expected shape.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.serialize_i64(i64::from(*self));
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom("signed integer out of range")),
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom("unsigned integer out of range")),
                    _ => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}
ser_de_signed!(i8, i16, i32, i64);

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.serialize_u64(u64::from(*self));
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom("unsigned integer out of range")),
                    Value::Int(n) => u64::try_from(*n)
                        .ok()
                        .and_then(|n| <$t>::try_from(n).ok())
                        .ok_or_else(|| Error::custom("integer out of unsigned range")),
                    _ => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}
ser_de_unsigned!(u8, u16, u32, u64);

impl Serialize for usize {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_u64(*self as u64);
    }
}
impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        u64::from_value(v).and_then(|n| {
            usize::try_from(n).map_err(|_| Error::custom("integer out of usize range"))
        })
    }
}

impl Serialize for isize {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_i64(*self as i64);
    }
}
impl Deserialize for isize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        i64::from_value(v).and_then(|n| {
            isize::try_from(n).map_err(|_| Error::custom("integer out of isize range"))
        })
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_f64(*self);
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            _ => Err(Error::custom("expected number for f64")),
        }
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_f64(f64::from(*self));
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_bool(*self);
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected boolean")),
        }
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_str(self.encode_utf8(&mut [0; 4]));
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_str()
            .ok_or_else(|| Error::custom("expected string for char"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string for char")),
        }
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_str(self);
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_str(self);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(inner) => inner.serialize(s),
            None => s.serialize_unit(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::custom("expected sequence"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_seq();
        for item in self {
            s.serialize_element(item);
        }
        s.end_seq();
    }
}

fn serialize_entries<'a, K, V, S>(s: &mut S, entries: impl Iterator<Item = (&'a K, &'a V)>)
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    S: Serializer,
{
    s.serialize_map();
    for (key, value) in entries {
        s.serialize_key(key);
        s.serialize_value(value);
    }
    s.end_map();
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_entries(s, self.iter());
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| Error::custom("expected map"))?
            .iter()
            .map(|(k, val)| Ok((K::from_value(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize, H: std::hash::BuildHasher> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_entries(s, self.iter());
    }
}
impl<K: Deserialize + Hash + Eq, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| Error::custom("expected map"))?
            .iter()
            .map(|(k, val)| Ok((K::from_value(k)?, V::from_value(val)?)))
            .collect()
    }
}

macro_rules! ser_de_tuple {
    ($(($($t:ident : $idx:tt),+)),*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.serialize_seq();
                $(s.serialize_element(&self.$idx);)+
                s.end_seq();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let seq = v.as_seq().ok_or_else(|| Error::custom("expected tuple sequence"))?;
                let expected = [$($idx),+].len();
                if seq.len() != expected {
                    return Err(Error::custom("wrong tuple arity"));
                }
                Ok(($($t::from_value(&seq[$idx])?,)+))
            }
        }
    )*};
}
ser_de_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3)
);

/// Support functions for the derive macros; not part of the public API.
pub mod __private {
    use super::{Deserialize, Error, Value};

    /// Looks up a named field in a struct map and deserialises it.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the field is missing or has the wrong shape.
    pub fn get_field<T: Deserialize>(
        map: &[(Value, Value)],
        name: &str,
        ty: &str,
    ) -> Result<T, Error> {
        match map.iter().find(|(k, _)| k.as_str() == Some(name)) {
            Some((_, v)) => T::from_value(v),
            None => Err(Error::custom(&format!("missing field `{name}` for {ty}"))),
        }
    }
}
