//! Canonical deterministic byte encoding for `serde::Serialize` values.
//!
//! Signing a message requires a well-defined byte string for it (`SIG_β(m)`
//! in the paper's notation). This module provides a compact, self-describing
//! tag-length-value encoding with the properties the signature layer needs:
//!
//! * **Deterministic** — equal values always encode to equal bytes.
//! * **Injective over a fixed schema** — every field is framed by a type tag
//!   and (where variable-sized) a length, so distinct values of the same type
//!   cannot collide.
//!
//! Only serialization is implemented; the protocol exchanges typed values
//! in-process and uses the encoding solely as the signature pre-image.
//!
//! Maps with non-deterministic iteration order (e.g. `HashMap`) are rejected
//! at runtime — use `BTreeMap` in signed bodies.

use serde::ser::{self, Serialize};
use std::fmt;

/// Errors produced while canonically encoding a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonError {
    /// A type unsupported in canonical form (currently only `HashMap`-style
    /// maps, which have no deterministic order).
    Unsupported(&'static str),
    /// Custom error surfaced by a `Serialize` impl.
    Custom(String),
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonError::Unsupported(what) => write!(f, "cannot canonically encode {what}"),
            CanonError::Custom(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CanonError {}

impl ser::Error for CanonError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CanonError::Custom(msg.to_string())
    }
}

/// A borrowed byte string that encodes as one framed byte string (tag
/// `0x07`, a u64 big-endian length, the raw bytes) instead of as a
/// sequence of integers, which costs nine bytes per byte. Signatures and
/// block payloads enter signed bodies through this adapter; a plain
/// `Vec<u8>` still encodes as a sequence.
#[derive(Debug, Clone, Copy)]
pub struct Bytes<'a>(pub &'a [u8]);

impl Serialize for Bytes<'_> {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

/// Encodes `value` to canonical bytes.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, CanonError> {
    let mut ser = CanonSerializer { out: Vec::new() };
    value.serialize(&mut ser)?;
    Ok(ser.out)
}

// Type tags. Every emitted value starts with one, which is what makes the
// encoding unambiguous.
mod tag {
    pub(super) const BOOL: u8 = 0x01;
    pub(super) const INT: u8 = 0x02; // i64, 8 bytes BE
    pub(super) const UINT: u8 = 0x03; // u64, 8 bytes BE
    pub(super) const U128: u8 = 0x04; // 16 bytes BE
    pub(super) const I128: u8 = 0x05;
    pub(super) const F64: u8 = 0x06; // IEEE-754 bits, BE
    pub(super) const BYTES: u8 = 0x07; // u64 length + raw
    pub(super) const STR: u8 = 0x08; // u64 length + UTF-8
    pub(super) const CHAR: u8 = 0x09;
    pub(super) const NONE: u8 = 0x0a;
    pub(super) const SOME: u8 = 0x0b;
    pub(super) const UNIT: u8 = 0x0c;
    pub(super) const SEQ: u8 = 0x0d; // u64 count, then elements
    pub(super) const TUPLE: u8 = 0x0e;
    pub(super) const STRUCT: u8 = 0x0f;
    pub(super) const VARIANT: u8 = 0x10; // u32 index, name, then payload
    pub(super) const END: u8 = 0x11; // terminates unknown-length sequences
}

struct CanonSerializer {
    out: Vec<u8>,
}

impl CanonSerializer {
    fn put_tag(&mut self, t: u8) {
        self.out.push(t);
    }

    fn put_u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }
}

macro_rules! ser_int {
    ($meth:ident, $ty:ty) => {
        fn $meth(self, v: $ty) -> Result<(), CanonError> {
            self.put_tag(tag::INT);
            self.put_u64((v as i64) as u64);
            Ok(())
        }
    };
}

macro_rules! ser_uint {
    ($meth:ident, $ty:ty) => {
        fn $meth(self, v: $ty) -> Result<(), CanonError> {
            self.put_tag(tag::UINT);
            self.put_u64(v as u64);
            Ok(())
        }
    };
}

impl ser::Serializer for &mut CanonSerializer {
    type Ok = ();
    type Error = CanonError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CanonError> {
        self.put_tag(tag::BOOL);
        self.out.push(v as u8);
        Ok(())
    }

    ser_int!(serialize_i8, i8);
    ser_int!(serialize_i16, i16);
    ser_int!(serialize_i32, i32);
    ser_int!(serialize_i64, i64);
    ser_uint!(serialize_u8, u8);
    ser_uint!(serialize_u16, u16);
    ser_uint!(serialize_u32, u32);
    ser_uint!(serialize_u64, u64);

    fn serialize_i128(self, v: i128) -> Result<(), CanonError> {
        self.put_tag(tag::I128);
        self.out.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    fn serialize_u128(self, v: u128) -> Result<(), CanonError> {
        self.put_tag(tag::U128);
        self.out.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    // The serializer must cover the full serde data model, floats
    // included — message bodies carry f64 bids and meters. The float path
    // only canonicalizes the bit pattern (NaN payload, -0.0); it never
    // does arithmetic, so the exact-payment guarantee is untouched.
    // dls-lint: allow(no-float-in-exact) -- serde surface: widen f32 to the canonical f64 wire form
    fn serialize_f32(self, v: f32) -> Result<(), CanonError> {
        // dls-lint: allow(no-float-in-exact) -- bit-level widening, no arithmetic
        self.serialize_f64(v as f64)
    }

    // dls-lint: allow(no-float-in-exact) -- serde surface: floats are serialized by bit pattern only
    fn serialize_f64(self, v: f64) -> Result<(), CanonError> {
        self.put_tag(tag::F64);
        // Canonicalize the NaN payload and -0.0 so equal numbers sign equal.
        let v = if v.is_nan() {
            // dls-lint: allow(no-float-in-exact) -- canonical NaN bit pattern
            f64::NAN
            // dls-lint: allow(no-float-in-exact) -- -0.0 folds to +0.0 for signing
        } else if v == 0.0 {
            // dls-lint: allow(no-float-in-exact) -- canonical zero bit pattern
            0.0
        } else {
            v
        };
        self.out.extend_from_slice(&v.to_bits().to_be_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), CanonError> {
        self.put_tag(tag::CHAR);
        self.put_u64(v as u64);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), CanonError> {
        self.put_tag(tag::STR);
        self.put_str(v);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), CanonError> {
        self.put_tag(tag::BYTES);
        self.put_u64(v.len() as u64);
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), CanonError> {
        self.put_tag(tag::NONE);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CanonError> {
        self.put_tag(tag::SOME);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), CanonError> {
        self.put_tag(tag::UNIT);
        Ok(())
    }

    fn serialize_unit_struct(self, name: &'static str) -> Result<(), CanonError> {
        self.put_tag(tag::STRUCT);
        self.put_str(name);
        self.put_tag(tag::UNIT);
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
    ) -> Result<(), CanonError> {
        self.put_tag(tag::VARIANT);
        self.put_str(name);
        self.put_u64(variant_index as u64);
        self.put_str(variant);
        self.put_tag(tag::UNIT);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.put_tag(tag::STRUCT);
        self.put_str(name);
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.put_tag(tag::VARIANT);
        self.put_str(name);
        self.put_u64(variant_index as u64);
        self.put_str(variant);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CanonError> {
        self.put_tag(tag::SEQ);
        match len {
            Some(n) => self.put_u64(n as u64),
            // Unknown length: encode u64::MAX marker and rely on END.
            None => self.put_u64(u64::MAX),
        }
        Ok(self)
    }

    fn serialize_tuple(self, len: usize) -> Result<Self, CanonError> {
        self.put_tag(tag::TUPLE);
        self.put_u64(len as u64);
        Ok(self)
    }

    fn serialize_tuple_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self, CanonError> {
        self.put_tag(tag::STRUCT);
        self.put_str(name);
        self.put_tag(tag::TUPLE);
        self.put_u64(len as u64);
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self, CanonError> {
        self.put_tag(tag::VARIANT);
        self.put_str(name);
        self.put_u64(variant_index as u64);
        self.put_str(variant);
        self.put_tag(tag::TUPLE);
        self.put_u64(len as u64);
        Ok(self)
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Self, CanonError> {
        // BTreeMap would be fine, but serde gives us no way to distinguish
        // ordered from unordered maps here; signed bodies must avoid maps
        // entirely (use sorted Vec<(K, V)> instead).
        Err(CanonError::Unsupported(
            "maps (iteration order is not canonical; use sorted Vec<(K,V)>)",
        ))
    }

    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self, CanonError> {
        self.put_tag(tag::STRUCT);
        self.put_str(name);
        self.put_u64(len as u64);
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self, CanonError> {
        self.put_tag(tag::VARIANT);
        self.put_str(name);
        self.put_u64(variant_index as u64);
        self.put_str(variant);
        self.put_u64(len as u64);
        Ok(self)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

impl ser::SerializeSeq for &mut CanonSerializer {
    type Ok = ();
    type Error = CanonError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CanonError> {
        self.put_tag(tag::END);
        Ok(())
    }
}

impl ser::SerializeTuple for &mut CanonSerializer {
    type Ok = ();
    type Error = CanonError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CanonError> {
        Ok(())
    }
}

impl ser::SerializeTupleStruct for &mut CanonSerializer {
    type Ok = ();
    type Error = CanonError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CanonError> {
        Ok(())
    }
}

impl ser::SerializeTupleVariant for &mut CanonSerializer {
    type Ok = ();
    type Error = CanonError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CanonError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CanonError> {
        Ok(())
    }
}

impl ser::SerializeMap for &mut CanonSerializer {
    type Ok = ();
    type Error = CanonError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, _key: &T) -> Result<(), CanonError> {
        Err(CanonError::Unsupported("maps"))
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, _value: &T) -> Result<(), CanonError> {
        Err(CanonError::Unsupported("maps"))
    }

    fn end(self) -> Result<(), CanonError> {
        Err(CanonError::Unsupported("maps"))
    }
}

impl ser::SerializeStruct for &mut CanonSerializer {
    type Ok = ();
    type Error = CanonError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.put_str(key);
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CanonError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut CanonSerializer {
    type Ok = ();
    type Error = CanonError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), CanonError> {
        self.put_str(key);
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CanonError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Bid {
        processor: String,
        value: f64,
        round: u32,
    }

    #[derive(Serialize)]
    enum Msg {
        Hello,
        Bid { value: f64 },
        Pair(u32, u32),
    }

    #[test]
    fn deterministic() {
        let b = Bid {
            processor: "P1".into(),
            value: 2.5,
            round: 7,
        };
        assert_eq!(to_bytes(&b).unwrap(), to_bytes(&b).unwrap());
    }

    #[test]
    fn field_values_do_not_collide() {
        // ("ab", "c") must differ from ("a", "bc") — length framing.
        #[derive(Serialize)]
        struct Two(String, String);
        let a = to_bytes(&Two("ab".into(), "c".into())).unwrap();
        let b = to_bytes(&Two("a".into(), "bc".into())).unwrap();
        assert_ne!(a, b);
        let a = to_bytes(&(Bytes(b"ab"), Bytes(b"c"))).unwrap();
        let b = to_bytes(&(Bytes(b"a"), Bytes(b"bc"))).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_values_distinct_bytes() {
        let x = Bid {
            processor: "P1".into(),
            value: 2.5,
            round: 7,
        };
        let y = Bid {
            processor: "P1".into(),
            value: 2.5000001,
            round: 7,
        };
        assert_ne!(to_bytes(&x).unwrap(), to_bytes(&y).unwrap());
    }

    #[test]
    fn enum_variants_distinct() {
        assert_ne!(
            to_bytes(&Msg::Hello).unwrap(),
            to_bytes(&Msg::Bid { value: 0.0 }).unwrap()
        );
        assert_ne!(
            to_bytes(&Msg::Pair(1, 2)).unwrap(),
            to_bytes(&Msg::Pair(2, 1)).unwrap()
        );
    }

    #[test]
    fn options_and_seqs() {
        assert_ne!(
            to_bytes(&Option::<u32>::None).unwrap(),
            to_bytes(&Some(0u32)).unwrap()
        );
        assert_ne!(
            to_bytes(&vec![1u32, 2]).unwrap(),
            to_bytes(&vec![1u32, 2, 0]).unwrap()
        );
        assert_eq!(
            to_bytes(&vec![1u32, 2]).unwrap(),
            to_bytes(&[1u32, 2][..]).unwrap()
        );
    }

    #[test]
    fn byte_strings_encode_as_framed_raw_bytes() {
        // Tag 0x07, u64 big-endian length, the raw bytes.
        assert_eq!(
            to_bytes(&Bytes(b"ab")).unwrap(),
            [0x07, 0, 0, 0, 0, 0, 0, 0, 2, b'a', b'b']
        );
        assert_eq!(to_bytes(&Bytes(b"")).unwrap(), [0x07, 0, 0, 0, 0, 0, 0, 0, 0]);
        // A plain `Vec<u8>` stays a sequence of u8 integers (9 bytes each).
        let seq = to_bytes(&vec![b'a', b'b']).unwrap();
        assert_eq!(seq.len(), 1 + 8 + 2 * 9 + 1);
        assert_eq!(seq[0], 0x0d);
        assert_ne!(seq, to_bytes(&Bytes(b"ab")).unwrap());
    }

    #[test]
    fn negative_zero_canonicalized() {
        assert_eq!(to_bytes(&0.0f64).unwrap(), to_bytes(&(-0.0f64)).unwrap());
    }

    #[test]
    fn maps_rejected() {
        let m: std::collections::HashMap<String, u32> =
            [("a".to_string(), 1u32)].into_iter().collect();
        assert!(matches!(
            to_bytes(&m),
            Err(CanonError::Unsupported(_))
        ));
    }

    #[test]
    fn nested_struct_roundtrip_determinism() {
        #[derive(Serialize)]
        struct Outer {
            inner: Vec<Bid>,
            tag: Option<String>,
        }
        let o = Outer {
            inner: vec![
                Bid {
                    processor: "P1".into(),
                    value: 1.0,
                    round: 0,
                },
                Bid {
                    processor: "P2".into(),
                    value: 2.0,
                    round: 1,
                },
            ],
            tag: Some("x".into()),
        };
        assert_eq!(to_bytes(&o).unwrap(), to_bytes(&o).unwrap());
    }
}
