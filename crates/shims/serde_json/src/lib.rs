//! Offline shim of `serde_json`.
//!
//! Supports exactly what this workspace uses: `to_string`, `to_string_pretty`,
//! [`to_string_into`] (append to a reused buffer) and `from_str`.
//!
//! Serialising is one pass: a [`Serialize`] value drives this crate's
//! `serde::Serializer`, which writes JSON straight into a `String` — compact,
//! or pretty through an indent state — with nothing built in between.
//! Floats keep Rust's shortest round-trip `{:?}` form (e.g. `360.0`);
//! integral floats below `1e16` take a digit-writing fast path that prints
//! exactly the same bytes.  Parsing is one pass too: `Deserialize` pulls
//! from this crate's `serde::Deserializer`, which reads each token as it is
//! asked for.  Strings without escapes are copied once, straight from the
//! text; struct field names are matched in place; values a type does not
//! want are skipped but still fully validated, and the nesting limit
//! applies to them too.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::ops::Range;

/// The error type (shared with the serde shim).
pub type Error = serde::Error;

/// Serialises a value to compact JSON.
///
/// # Errors
///
/// Returns [`Error`] for non-finite floats or non-string-like map keys.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    to_string_into(&mut out, value)?;
    Ok(out)
}

/// Serialises a value to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Returns [`Error`] for non-finite floats or non-string-like map keys.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write(&mut out, value, Some(2))?;
    Ok(out)
}

/// Appends a value's compact JSON to `out`, so a caller encoding many
/// values can reuse one buffer.
///
/// # Errors
///
/// Returns [`Error`] for non-finite floats or non-string-like map keys; `out`
/// is then left exactly as it was before the call.
pub fn to_string_into<T: Serialize + ?Sized>(out: &mut String, value: &T) -> Result<(), Error> {
    write(out, value, None)
}

/// Parses JSON text into a deserialisable type, pulling each value straight
/// from the text: nothing is built but the value itself.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON (anywhere, skipped values included),
/// trailing characters, or a shape mismatch.  A malformed document reports
/// its syntax error, never the shape mismatch the type may have met first.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut deserializer = Deserializer::new(s);
    match T::deserialize(&mut deserializer) {
        Ok(value) => deserializer.end().map(|()| value),
        // Only a failed parse pays for this second, untyped pass.
        Err(shape) => {
            let mut syntax = Deserializer::new(s);
            serde::Deserializer::skip_value(&mut syntax).and_then(|()| syntax.end())?;
            Err(shape)
        }
    }
}

fn write<T: Serialize + ?Sized>(
    out: &mut String,
    value: &T,
    indent: Option<usize>,
) -> Result<(), Error> {
    let start = out.len();
    let mut serializer = Serializer {
        out,
        indent,
        depth: 0,
        first: true,
        key: false,
        error: None,
    };
    value.serialize(&mut serializer);
    match serializer.error {
        None => Ok(()),
        Some(error) => {
            out.truncate(start);
            Err(error)
        }
    }
}

/// The JSON writer behind every `to_string*` call.
struct Serializer<'a> {
    out: &'a mut String,
    /// Spaces per nesting level; `None` writes compact JSON.
    indent: Option<usize>,
    /// Containers currently open.
    depth: usize,
    /// Nothing has been written yet into the innermost open container.
    /// Closing a container leaves it `false`: its parent now holds an item.
    first: bool,
    /// The value being written is a map key and must come out as a string.
    key: bool,
    /// The first unrepresentable value met; the caller discards the output.
    error: Option<Error>,
}

impl Serializer<'_> {
    fn fail(&mut self, msg: &str) {
        self.error.get_or_insert_with(|| Error::custom(msg));
    }

    fn fail_if_key(&mut self) {
        if self.key {
            self.fail("map key must be string-like");
        }
    }

    fn newline(&mut self) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            for _ in 0..width * self.depth {
                self.out.push(' ');
            }
        }
    }

    /// The separator and indentation before an item of the open container.
    fn next_item(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn open(&mut self, bracket: char) {
        self.fail_if_key();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    fn write_key(&mut self, key: &str) {
        self.next_item();
        write_string(self.out, key);
        self.colon();
    }

    fn colon(&mut self) {
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
    }

    /// An integer; quoted when it is a map key.
    fn integer(&mut self, negative: bool, magnitude: u64) {
        if self.key {
            self.out.push('"');
        }
        if negative {
            self.out.push('-');
        }
        write_u64(self.out, magnitude);
        if self.key {
            self.out.push('"');
        }
    }
}

impl serde::Serializer for Serializer<'_> {
    fn serialize_unit(&mut self) {
        self.fail_if_key();
        self.out.push_str("null");
    }

    fn serialize_bool(&mut self, v: bool) {
        self.fail_if_key();
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn serialize_i64(&mut self, v: i64) {
        self.integer(v < 0, v.unsigned_abs());
    }

    fn serialize_u64(&mut self, v: u64) {
        self.integer(false, v);
    }

    fn serialize_f64(&mut self, v: f64) {
        self.fail_if_key();
        if v.is_finite() {
            write_f64(self.out, v);
        } else {
            self.fail("cannot serialise non-finite float");
        }
    }

    fn serialize_str(&mut self, v: &str) {
        write_string(self.out, v);
    }

    fn serialize_seq(&mut self) {
        self.open('[');
    }

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.next_item();
        value.serialize(self);
    }

    fn end_seq(&mut self) {
        self.close(']');
    }

    fn serialize_map(&mut self) {
        self.open('{');
    }

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) {
        self.next_item();
        self.key = true;
        key.serialize(self);
        self.key = false;
        self.colon();
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) {
        value.serialize(self);
    }

    fn end_map(&mut self) {
        self.close('}');
    }

    fn serialize_struct(&mut self, _name: &'static str) {
        self.open('{');
    }

    fn serialize_field<T: Serialize + ?Sized>(&mut self, key: &'static str, value: &T) {
        self.write_key(key);
        value.serialize(self);
    }

    fn end_struct(&mut self) {
        self.close('}');
    }

    fn serialize_unit_variant(&mut self, _name: &'static str, variant: &'static str) {
        write_string(self.out, variant);
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        &mut self,
        _name: &'static str,
        variant: &'static str,
        value: &T,
    ) {
        self.open('{');
        self.write_key(variant);
        value.serialize(self);
        self.close('}');
    }

    fn serialize_struct_variant(&mut self, _name: &'static str, variant: &'static str) {
        self.open('{');
        self.write_key(variant);
        self.open('{');
    }

    fn end_struct_variant(&mut self) {
        self.close('}');
        self.close('}');
    }
}

/// Writes `n` in decimal without allocating.
fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0_u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Writes a finite float as Rust's shortest round-trip `{:?}` form.  An
/// integral value below `1e16` (other than `-0.0`) prints as its integer
/// digits plus `.0` under `{:?}`, so those are written digit by digit.
fn write_f64(out: &mut String, x: f64) {
    let n = x as i64;
    if n as f64 == x && x.abs() < 1e16 && (n != 0 || x.is_sign_positive()) {
        if n < 0 {
            out.push('-');
        }
        write_u64(out, n.unsigned_abs());
        out.push_str(".0");
    } else {
        let _ = write!(out, "{x:?}");
    }
}

/// Writes a JSON string literal, copying runs of bytes that need no escape.
fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Maximum container nesting the parser accepts, in typed and skipped values
/// alike.  Matches real serde_json's default recursion limit; without it,
/// adversarial input like `"[" * 100_000` inside an ignored field overflows
/// the stack (an abort, not a catchable error).
const MAX_PARSE_DEPTH: usize = 128;

/// A number token, typed by the first rule it fits: an integer in `i64`,
/// else an integer in `u64`, else a float.
enum Number {
    Int(i64),
    UInt(u64),
    Float(f64),
}

/// The pull parser behind [`from_str`]: each `serde::Deserializer` call
/// reads one token (or one container boundary) straight from the input.
struct Deserializer<'a> {
    input: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// The innermost open container has had no item yet, so the next one
    /// takes no `,`.  Closing a container leaves it `false`.
    first: bool,
    /// Decoded text of the last string that held escapes; strings without
    /// escapes are borrowed from `input` instead.
    scratch: String,
}

impl<'a> Deserializer<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            depth: 0,
            first: false,
            scratch: String::new(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn error(&self, what: &str) -> Error {
        Error::custom(&format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    /// Rejects anything but whitespace after the value.
    fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters after JSON value")),
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    /// Consumes the opening bracket of a container.
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.expect(bracket)?;
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(Error::custom("recursion limit exceeded"));
        }
        self.first = true;
        Ok(())
    }

    /// Before an item of the open container: `false` (with the closing
    /// bracket consumed) when the container ends here, else `true` with the
    /// separating `,` consumed.
    fn next_item(&mut self, close: u8) -> Result<bool, Error> {
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if self.first {
            self.first = false;
        } else {
            self.expect(b',')?;
        }
        Ok(true)
    }

    /// The next struct field name or map key and its `:`.
    fn key(&mut self) -> Result<Option<&str>, Error> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let span = self.string_span()?;
        self.expect(b':')?;
        Ok(Some(self.span_str(span)))
    }

    /// Reads a string token.  Returns where its text is: the byte range in
    /// `input` when it has no escapes, else `None`, the decoded text being in
    /// `scratch`.
    fn string_span(&mut self) -> Result<Option<Range<usize>>, Error> {
        self.expect(b'"')?;
        let bytes = self.bytes();
        let start = self.pos;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(Some(start..self.pos - 1));
                }
                b'\\' => break,
                _ => self.pos += 1,
            }
        }
        self.scratch.clear();
        self.scratch.push_str(&self.input[start..self.pos]);
        loop {
            let run = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // `"` and `\\` are ASCII, so both ends are char boundaries.
            self.scratch.push_str(&self.input[run..self.pos]);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(None);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = *bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    let decoded = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{0008}',
                        b'f' => '\u{000c}',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("unknown escape sequence")),
                    };
                    self.scratch.push(decoded);
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn span_str(&self, span: Option<Range<usize>>) -> &str {
        match span {
            Some(range) => &self.input[range],
            None => &self.scratch,
        }
    }

    fn string(&mut self) -> Result<&str, Error> {
        let span = self.string_span()?;
        Ok(self.span_str(span))
    }

    /// The character of a `\\u` escape (its `\\u` already consumed),
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if !self.eat_literal("\\u") {
                return Err(Error::custom("unpaired surrogate"));
            }
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(Error::custom("unpaired surrogate"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| Error::custom("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .input
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated unicode escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error::custom("invalid unicode escape"))
    }

    fn number(&mut self) -> Result<Number, Error> {
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => {}
            _ => return Err(self.error("expected number")),
        }
        let bytes = self.bytes();
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Number::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Number::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| Error::custom(&format!("invalid number `{text}`")))
    }
}

impl serde::Deserializer for Deserializer<'_> {
    fn deserialize_bool(&mut self) -> Result<bool, Error> {
        if self.peek() == Some(b't') && self.eat_literal("true") {
            Ok(true)
        } else if self.peek() == Some(b'f') && self.eat_literal("false") {
            Ok(false)
        } else {
            Err(self.error("expected boolean"))
        }
    }

    fn deserialize_i64(&mut self) -> Result<i64, Error> {
        match self.number()? {
            Number::Int(n) => Ok(n),
            _ => Err(Error::custom("expected signed integer")),
        }
    }

    fn deserialize_u64(&mut self) -> Result<u64, Error> {
        match self.number()? {
            Number::UInt(n) => Ok(n),
            Number::Int(n) => {
                u64::try_from(n).map_err(|_| Error::custom("integer out of unsigned range"))
            }
            Number::Float(_) => Err(Error::custom("expected unsigned integer")),
        }
    }

    fn deserialize_f64(&mut self) -> Result<f64, Error> {
        Ok(match self.number()? {
            Number::Int(n) => n as f64,
            Number::UInt(n) => n as f64,
            Number::Float(x) => x,
        })
    }

    fn deserialize_str(&mut self) -> Result<&str, Error> {
        self.string()
    }

    fn deserialize_option(&mut self) -> Result<bool, Error> {
        Ok(!(self.peek() == Some(b'n') && self.eat_literal("null")))
    }

    fn deserialize_seq(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    fn next_element(&mut self) -> Result<bool, Error> {
        self.next_item(b']')
    }

    fn deserialize_map(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    fn next_key<K: Deserialize>(&mut self) -> Result<Option<K>, Error> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return Err(self.error("expected string key"));
        }
        let key = K::deserialize(self)?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    fn deserialize_struct(&mut self, name: &'static str) -> Result<(), Error> {
        if self.peek() != Some(b'{') {
            return Err(self.error(&format!("expected map for {name}")));
        }
        self.open(b'{')
    }

    fn next_field(&mut self) -> Result<Option<&str>, Error> {
        self.key()
    }

    fn deserialize_variant(&mut self, name: &'static str) -> Result<(&str, bool), Error> {
        match self.peek() {
            Some(b'"') => Ok((self.string()?, false)),
            Some(b'{') => {
                self.open(b'{')?;
                match self.key()? {
                    Some(variant) => Ok((variant, true)),
                    None => Err(Error::custom(&format!("empty map for {name}"))),
                }
            }
            _ => Err(self.error(&format!("expected string or single-entry map for {name}"))),
        }
    }

    fn end_variant(&mut self) -> Result<(), Error> {
        if !self.next_item(b'}')? {
            return Ok(());
        }
        Err(self.error("expected a single-entry map for an enum variant"))
    }

    fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(()),
            Some(b't') if self.eat_literal("true") => Ok(()),
            Some(b'f') if self.eat_literal("false") => Ok(()),
            Some(b'"') => self.string_span().map(drop),
            Some(b'[') => {
                self.open(b'[')?;
                while self.next_item(b']')? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.open(b'{')?;
                while self.key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(drop),
            _ => Err(self.error("unexpected character")),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn round_trip_scalars() {
        assert_eq!(to_string(&42_i32).unwrap(), "42");
        assert_eq!(from_str::<i32>("42").unwrap(), 42);
        assert_eq!(to_string(&360.0_f64).unwrap(), "360.0");
        assert_eq!(from_str::<f64>("360.0").unwrap(), 360.0);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(
            to_string(&"a \"quote\"\n".to_string()).unwrap(),
            "\"a \\\"quote\\\"\\n\""
        );
        let s: String = from_str("\"a \\\"quote\\\"\\n\"").unwrap();
        assert_eq!(s, "a \"quote\"\n");
    }

    #[test]
    fn round_trip_collections() {
        let v = vec![(1_u64, "x".to_string()), (2, "y".to_string())];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<(u64, String)>>(&json).unwrap(), v);
        let none: Option<f64> = None;
        assert_eq!(to_string(&none).unwrap(), "null");
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<f64>>("2.5").unwrap(), Some(2.5));
    }

    #[test]
    fn float_shortest_repr_survives() {
        for x in [0.1_f64, 1.0 / 3.0, 1e-12, 123456.789, f64::MIN_POSITIVE] {
            let json = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&json).unwrap(), x, "{json}");
        }
    }

    /// The integral fast path must print exactly what `{:?}` prints.
    fn assert_debug_form(x: f64) {
        let mut out = String::new();
        write_f64(&mut out, x);
        assert_eq!(out, format!("{x:?}"), "bits {:#018x}", x.to_bits());
    }

    #[test]
    fn float_edge_cases_print_as_debug_does() {
        let two_53 = 9_007_199_254_740_992.0_f64;
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            two_53,
            -two_53,
            two_53 - 1.0,
            -(two_53 - 1.0),
            two_53 + 2.0,
            -(two_53 + 2.0),
            9_999_999_999_999_998.0,
            -9_999_999_999_999_998.0,
            1e16,
            -1e16,
            1e15,
            360.0,
            0.5,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ] {
            assert_debug_form(x);
        }
    }

    // The shim's range strategies span at most 2^64 - 1 values, so 64 random
    // bits are drawn as two 32-bit halves.
    proptest::proptest! {
        #[test]
        fn random_bit_patterns_print_as_debug_does(
            hi in 0..=u32::MAX,
            lo in 0..=u32::MAX,
        ) {
            let x = f64::from_bits(u64::from(hi) << 32 | u64::from(lo));
            if x.is_finite() {
                assert_debug_form(x);
            }
        }

        #[test]
        fn random_integral_floats_print_as_debug_does(
            hi in 0..=u32::MAX,
            lo in 0..=u32::MAX,
            shift in 0_u32..64,
        ) {
            // Spans every magnitude up to 2^63, across the 1e16 cut-over.
            let n = (u64::from(hi) << 32 | u64::from(lo)) as i64;
            assert_debug_form((n >> shift) as f64);
        }
    }

    #[test]
    fn integers_print_as_to_string_does() {
        assert_eq!(to_string(&0_u64).unwrap(), "0");
        assert_eq!(to_string(&u64::MAX).unwrap(), u64::MAX.to_string());
        assert_eq!(to_string(&i64::MIN).unwrap(), i64::MIN.to_string());
        assert_eq!(to_string(&i64::MAX).unwrap(), i64::MAX.to_string());
        assert_eq!(to_string(&-7_i32).unwrap(), "-7");
    }

    #[test]
    fn a_non_finite_float_errors_and_leaves_a_reused_buffer_untouched() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::from("[1,2]");
            let err = to_string_into(&mut out, &vec![(1_u64, 2.5), (2, bad)]).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
            assert_eq!(out, "[1,2]");
            assert!(to_string(&bad).is_err());
            assert!(to_string_pretty(&Some(bad)).is_err());
        }
    }

    #[test]
    fn map_keys_must_be_string_like() {
        let mut ints = BTreeMap::new();
        ints.insert(-3_i32, "a".to_string());
        ints.insert(4, "b".to_string());
        assert_eq!(to_string(&ints).unwrap(), r#"{"-3":"a","4":"b"}"#);
        let mut floats = HashMap::new();
        floats.insert(KeyedByFloat(3), 1_u8);
        let mut out = String::from("kept");
        assert!(to_string_into(&mut out, &floats).is_err());
        assert_eq!(out, "kept");
        let mut seqs = BTreeMap::new();
        seqs.insert(vec![1_u8], 1_u8);
        assert!(to_string(&seqs).is_err());
    }

    #[derive(PartialEq, Eq, Hash)]
    struct KeyedByFloat(u8);

    impl Serialize for KeyedByFloat {
        fn serialize<S: serde::Serializer>(&self, s: &mut S) {
            s.serialize_f64(f64::from(self.0) / 2.0);
        }
    }

    #[test]
    fn strings_escape_control_bytes_and_keep_unicode() {
        let text = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é 😀\u{7f}";
        assert_eq!(
            to_string(&text).unwrap(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh é 😀\u{7f}\""
        );
        assert_eq!(
            from_str::<String>(&to_string(&text).unwrap()).unwrap(),
            text
        );
    }

    #[test]
    fn pretty_output_indents_nested_containers() {
        let mut map = BTreeMap::new();
        map.insert("empty".to_string(), Vec::<u8>::new());
        map.insert("pair".to_string(), vec![1, 2]);
        assert_eq!(
            to_string_pretty(&map).unwrap(),
            "{\n  \"empty\": [],\n  \"pair\": [\n    1,\n    2\n  ]\n}"
        );
        assert_eq!(to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
    }

    #[test]
    fn unicode_escapes_parse() {
        let s: String = from_str("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(s, "Aé😀");
    }

    #[test]
    fn deep_nesting_is_a_structured_error_not_a_stack_overflow() {
        // Well past any realistic document, far past the recursion limit —
        // before the limit existed this aborted the process.
        let hostile = "[".repeat(100_000);
        let err = from_str::<Vec<u64>>(&hostile).unwrap_err();
        assert!(err.to_string().contains("recursion"), "{err}");
        let hostile_obj = "{\"a\":".repeat(100_000);
        assert!(from_str::<Vec<u64>>(&hostile_obj).is_err());
        // Nesting under the limit still parses: depth 100 gets past the
        // parser (the failure below is the shape mismatch with `Vec<u64>`,
        // not the recursion guard).
        let fine = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        let err = from_str::<Vec<u64>>(&fine).unwrap_err();
        assert!(!err.to_string().contains("recursion"), "{err}");
        assert_eq!(from_str::<Vec<Vec<u64>>>("[[1],[2]]").unwrap().len(), 2);
    }
}
