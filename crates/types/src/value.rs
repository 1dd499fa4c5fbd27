//! Runtime values.
//!
//! `Value` is the API-boundary representation of a single attribute value.
//! Inside the engine, tuples stay in raw row-major byte form ([`crate::tuple`])
//! and `Value`s are only materialized where a human or a test needs them.

use crate::datatype::DataType;
use crate::error::{Error, Result};

/// A single attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Four-byte signed integer.
    Int(i32),
    /// Eight-byte signed integer (aggregate outputs).
    Long(i64),
    /// Fixed-length text; length is dictated by the column's
    /// [`DataType::Text`] width (shorter payloads are zero-padded on encode).
    Text(Box<[u8]>),
}

impl Value {
    /// Construct a text value from a UTF-8 string slice.
    pub fn text(s: &str) -> Value {
        Value::Text(s.as_bytes().into())
    }

    /// The four-byte integer payload, or a type error.
    pub fn as_int(&self) -> Result<i32> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(Error::TypeMismatch {
                expected: "Int",
                got: other.dtype().name(),
            }),
        }
    }

    /// Any numeric payload widened to i64, or a type error.
    pub fn as_num(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v as i64),
            Value::Long(v) => Ok(*v),
            Value::Text(_) => Err(Error::TypeMismatch {
                expected: "Int/Long",
                got: "Text",
            }),
        }
    }

    /// The text payload, or a type error.
    pub fn as_text(&self) -> Result<&[u8]> {
        match self {
            Value::Text(b) => Ok(b),
            other => Err(Error::TypeMismatch {
                expected: "Text",
                got: other.dtype().name(),
            }),
        }
    }

    /// The [`DataType`] kind this value belongs to. For text the width is the
    /// payload length (columns may declare a larger, padded width).
    pub fn dtype(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Long(_) => DataType::Long,
            Value::Text(b) => DataType::Text(b.len()),
        }
    }

    /// True if this value can be stored in a column of type `dt`
    /// (text payloads may be shorter than the declared width; they are
    /// zero-padded when encoded).
    pub fn fits(&self, dt: DataType) -> bool {
        self.check_fits(dt).is_ok()
    }

    /// [`Value::fits`] as the one typed error every write path reports:
    /// `TypeMismatch` for a value of the wrong kind, `ValueOutOfDomain`
    /// naming the width for text wider than its column.
    pub fn check_fits(&self, dt: DataType) -> Result<()> {
        match (self, dt) {
            (Value::Int(_), DataType::Int) | (Value::Long(_), DataType::Long) => Ok(()),
            (Value::Text(b), DataType::Text(n)) if b.len() <= n => Ok(()),
            (Value::Text(b), DataType::Text(n)) => Err(Error::ValueOutOfDomain(format!(
                "text of {} bytes in text({n}) column",
                b.len()
            ))),
            (v, dt) => Err(Error::TypeMismatch {
                expected: dt.name(),
                got: v.dtype().name(),
            }),
        }
    }

    /// Encode this value into `out` using exactly `dt.width()` bytes.
    /// Integers are little-endian; text is zero-padded to the declared width.
    pub fn encode_into(&self, dt: DataType, out: &mut Vec<u8>) -> Result<()> {
        self.check_fits(dt)?;
        match self {
            Value::Int(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::Long(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::Text(b) => {
                out.extend_from_slice(b);
                out.extend(std::iter::repeat_n(0u8, dt.width() - b.len()));
            }
        }
        Ok(())
    }

    /// Decode a value of type `dt` from a raw byte slice of exactly
    /// `dt.width()` bytes.
    pub fn decode(dt: DataType, raw: &[u8]) -> Result<Value> {
        if raw.len() != dt.width() {
            return Err(Error::corrupt(format!(
                "value slice of {} bytes for {dt} (need {})",
                raw.len(),
                dt.width()
            )));
        }
        Ok(match dt {
            DataType::Int => Value::Int(i32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]])),
            DataType::Long => Value::Long(i64::from_le_bytes([
                raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7],
            ])),
            DataType::Text(_) => Value::Text(raw.into()),
        })
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Text(b) => {
                let trimmed: Vec<u8> = b.iter().copied().take_while(|&c| c != 0).collect();
                write!(f, "{}", String::from_utf8_lossy(&trimmed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let v = Value::Int(-123_456);
        let mut buf = Vec::new();
        v.encode_into(DataType::Int, &mut buf).unwrap();
        assert_eq!(buf.len(), 4);
        assert_eq!(Value::decode(DataType::Int, &buf).unwrap(), v);
    }

    #[test]
    fn long_roundtrip_and_widening() {
        let v = Value::Long(-5_000_000_000);
        let mut buf = Vec::new();
        v.encode_into(DataType::Long, &mut buf).unwrap();
        assert_eq!(buf.len(), 8);
        assert_eq!(Value::decode(DataType::Long, &buf).unwrap(), v);
        assert_eq!(v.as_num().unwrap(), -5_000_000_000);
        assert_eq!(Value::Int(7).as_num().unwrap(), 7);
        assert!(v.as_int().is_err());
        assert!(Value::Int(7).encode_into(DataType::Long, &mut buf).is_err());
        assert!(v.fits(DataType::Long));
        assert!(!v.fits(DataType::Int));
    }

    #[test]
    fn text_pads_and_roundtrips() {
        let v = Value::text("AIR");
        let mut buf = Vec::new();
        v.encode_into(DataType::Text(10), &mut buf).unwrap();
        assert_eq!(buf.len(), 10);
        let back = Value::decode(DataType::Text(10), &buf).unwrap();
        assert_eq!(back.to_string(), "AIR");
        assert_eq!(back.as_text().unwrap().len(), 10);
    }

    #[test]
    fn text_too_long_rejected() {
        let v = Value::text("TOO LONG FOR FIELD");
        let mut buf = Vec::new();
        assert!(v.encode_into(DataType::Text(4), &mut buf).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut buf = Vec::new();
        assert!(Value::Int(1)
            .encode_into(DataType::Text(4), &mut buf)
            .is_err());
        assert!(Value::text("x")
            .encode_into(DataType::Int, &mut buf)
            .is_err());
        assert!(Value::Int(1).as_text().is_err());
        assert!(Value::text("x").as_int().is_err());
    }

    #[test]
    fn fits_respects_width() {
        assert!(Value::text("AIR").fits(DataType::Text(3)));
        assert!(Value::text("AIR").fits(DataType::Text(10)));
        assert!(!Value::text("AIRMAIL").fits(DataType::Text(3)));
        assert!(Value::Int(7).fits(DataType::Int));
        assert!(!Value::Int(7).fits(DataType::Text(4)));
    }

    #[test]
    fn decode_wrong_len_is_corrupt() {
        assert!(Value::decode(DataType::Int, &[0u8; 3]).is_err());
        assert!(Value::decode(DataType::Text(5), &[0u8; 4]).is_err());
    }
}
