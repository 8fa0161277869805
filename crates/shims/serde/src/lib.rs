//! Offline shim of `serde`.
//!
//! The build environment has no registry access, so this crate provides the
//! subset of serde this workspace uses, with derive macros from the sibling
//! `serde_derive` shim.  Both directions are visitors with nothing built in
//! between:
//!
//! - [`Serialize`] drives a [`Serializer`] shaped like real serde's data
//!   model (structs and fields, sequences, maps, unit / newtype / struct
//!   variants, scalars); the sibling `serde_json` shim's serializer writes
//!   JSON straight into a `String`.
//! - [`Deserialize`] pulls from a [`Deserializer`]: it asks for the scalar,
//!   sequence, map, struct or enum variant it expects next, and `serde_json`'s
//!   deserializer reads exactly that from the input bytes.  Struct field
//!   names are handed over borrowed, and values a type does not want are
//!   skipped (still fully validated) without being built.
//!
//! The signatures are simpler than real serde's: a serializer has no `Ok` /
//! `Error` associated types (it records its first error itself and the caller
//! checks it once at the end), compound values are opened and closed by
//! methods on the serializer and deserializer instead of returned
//! `SerializeStruct` / `SeqAccess`-style handles, and a deserializing type
//! asks for one shape rather than handing the deserializer a `Visitor`.
//! Outside tests two types implement [`Serialize`] by hand (the borrowed
//! envelopes `psp::service::wire::WireEventRef` and
//! `psp::service::journal::WalRecordRef`, since the derive has no lifetimes),
//! so besides them only the derive macros and `serde_json` depend on the
//! traits' exact shape.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

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

/// A source of a value's structure, pulled by [`Deserialize`]: the mirror of
/// [`Serializer`].
///
/// The deserializing type asks for the shape it expects next, and the
/// deserializer reads exactly that or fails.  A compound value is opened and
/// then walked: after `deserialize_seq`, `next_element` before each element
/// until it returns `false`; after `deserialize_map`, `next_key` before each
/// value until it returns `None`; after `deserialize_struct`, `next_field`
/// likewise.  Every value a key or element announces must be read, or
/// dropped with [`skip_value`](Self::skip_value).
pub trait Deserializer {
    /// A boolean.
    ///
    /// # Errors
    ///
    /// Every method returns [`Error`] on malformed input or when the input
    /// holds a different shape than the one asked for.
    fn deserialize_bool(&mut self) -> Result<bool, Error>;
    /// A signed integer.
    fn deserialize_i64(&mut self) -> Result<i64, Error>;
    /// An unsigned integer.
    fn deserialize_u64(&mut self) -> Result<u64, Error>;
    /// A floating-point number (integers are accepted too).
    fn deserialize_f64(&mut self) -> Result<f64, Error>;
    /// A string, borrowed until the next call.
    fn deserialize_str(&mut self) -> Result<&str, Error>;
    /// Whether an optional value is present: consumes a null and returns
    /// `false`, or returns `true` and leaves the value to be read.
    fn deserialize_option(&mut self) -> Result<bool, Error>;
    /// Opens a sequence.
    fn deserialize_seq(&mut self) -> Result<(), Error>;
    /// Whether another element of the open sequence follows; `false` closes it.
    fn next_element(&mut self) -> Result<bool, Error>;
    /// Opens a map.
    fn deserialize_map(&mut self) -> Result<(), Error>;
    /// The next key of the open map, or `None` when it closes.
    fn next_key<K: Deserialize>(&mut self) -> Result<Option<K>, Error>;
    /// Opens a struct with named fields.
    fn deserialize_struct(&mut self, name: &'static str) -> Result<(), Error>;
    /// The next field name of the open struct or struct variant, borrowed
    /// until the next call, or `None` when it closes.
    fn next_field(&mut self) -> Result<Option<&str>, Error>;
    /// Opens an externally tagged enum value: its variant name, and whether a
    /// payload follows (which must then be read and closed with
    /// [`end_variant`](Self::end_variant)) or the variant is a bare name.
    fn deserialize_variant(&mut self, name: &'static str) -> Result<(&str, bool), Error>;
    /// Closes a variant whose payload has been read.
    fn end_variant(&mut self) -> Result<(), Error>;
    /// Reads and discards one value of any shape.
    fn skip_value(&mut self) -> Result<(), Error>;
}

/// A value that can rebuild itself from a [`Deserializer`].
pub trait Deserialize: Sized {
    /// Pulls `Self` from the deserializer.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the input is malformed or has the wrong shape.
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error>;
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
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        T::deserialize(d).map(Box::new)
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
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
                <$t>::try_from(d.deserialize_i64()?)
                    .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
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
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
                <$t>::try_from(d.deserialize_u64()?)
                    .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
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
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        usize::try_from(d.deserialize_u64()?)
            .map_err(|_| Error::custom("integer out of usize range"))
    }
}

impl Serialize for isize {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_i64(*self as i64);
    }
}
impl Deserialize for isize {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        isize::try_from(d.deserialize_i64()?)
            .map_err(|_| Error::custom("integer out of isize range"))
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_f64(*self);
    }
}
impl Deserialize for f64 {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        d.deserialize_f64()
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_f64(f64::from(*self));
    }
}
impl Deserialize for f32 {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        d.deserialize_f64().map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_bool(*self);
    }
}
impl Deserialize for bool {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        d.deserialize_bool()
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_str(self.encode_utf8(&mut [0; 4]));
    }
}
impl Deserialize for char {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        let mut chars = d.deserialize_str()?.chars();
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
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        d.deserialize_str().map(str::to_owned)
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
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        if d.deserialize_option()? {
            T::deserialize(d).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        d.deserialize_seq()?;
        let mut items = Vec::new();
        while d.next_element()? {
            items.push(T::deserialize(d)?);
        }
        Ok(items)
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

/// Reads a whole map into any collection of its entries; a repeated key
/// keeps its last value, as collecting into a map does.
fn deserialize_entries<K, V, C, D>(d: &mut D) -> Result<C, Error>
where
    K: Deserialize,
    V: Deserialize,
    C: Default + Extend<(K, V)>,
    D: Deserializer,
{
    d.deserialize_map()?;
    let mut map = C::default();
    while let Some(key) = d.next_key()? {
        let value = V::deserialize(d)?;
        map.extend(std::iter::once((key, value)));
    }
    Ok(map)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_entries(s, self.iter());
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        deserialize_entries(d)
    }
}

impl<K: Serialize, V: Serialize, H: std::hash::BuildHasher> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_entries(s, self.iter());
    }
}
impl<K: Deserialize + Hash + Eq, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error> {
        deserialize_entries(d)
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
            fn deserialize<De: Deserializer>(d: &mut De) -> Result<Self, Error> {
                let arity = || Error::custom("wrong tuple arity");
                d.deserialize_seq()?;
                let tuple = ($({
                    if !d.next_element()? {
                        return Err(arity());
                    }
                    $t::deserialize(d)?
                },)+);
                if d.next_element()? {
                    return Err(arity());
                }
                Ok(tuple)
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
