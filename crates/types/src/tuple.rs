//! Raw row-major tuple encoding.
//!
//! The engine moves tuples around as contiguous byte slices laid out by a
//! [`Schema`]: each attribute occupies exactly `dtype.width()` bytes at
//! `schema.offset(i)`. The row *store* additionally pads tuples to
//! [`crate::schema::ROW_ALIGN`] on disk; in-memory blocks use the unpadded
//! logical width.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;

/// Encode a full tuple (one `Value` per schema column) into `out`, appending
/// exactly `schema.logical_width()` bytes.
pub fn encode_tuple(schema: &Schema, values: &[Value], out: &mut Vec<u8>) -> Result<()> {
    if values.len() != schema.len() {
        return Err(Error::corrupt(format!(
            "tuple with {} values for {}-column schema",
            values.len(),
            schema.len()
        )));
    }
    let start = out.len();
    for (v, c) in values.iter().zip(schema.columns()) {
        v.encode_into(c.dtype, out)?;
    }
    debug_assert_eq!(out.len() - start, schema.logical_width());
    Ok(())
}

/// Decode every attribute of a raw tuple into owned [`Value`]s.
pub fn decode_tuple(schema: &Schema, raw: &[u8]) -> Result<Vec<Value>> {
    if raw.len() < schema.logical_width() {
        return Err(Error::corrupt(format!(
            "tuple slice of {} bytes, schema needs {}",
            raw.len(),
            schema.logical_width()
        )));
    }
    let mut row = Vec::with_capacity(schema.len());
    for i in 0..schema.len() {
        row.push(decode_field(schema, raw, i)?);
    }
    Ok(row)
}

/// Decode a single attribute from a raw tuple.
pub fn decode_field(schema: &Schema, raw: &[u8], col: usize) -> Result<Value> {
    let off = schema.offset(col);
    let w = schema.dtype(col).width();
    let slice = raw
        .get(off..off + w)
        .ok_or_else(|| Error::corrupt(format!("field {col} out of tuple bounds")))?;
    Value::decode(schema.dtype(col), slice)
}

/// Borrow the raw bytes of a single attribute from a raw tuple.
#[inline]
pub fn field_slice<'a>(schema: &Schema, raw: &'a [u8], col: usize) -> &'a [u8] {
    let off = schema.offset(col);
    &raw[off..off + schema.dtype(col).width()]
}

/// Read an `Int` attribute directly from a raw tuple without allocating.
#[inline]
pub fn read_int(schema: &Schema, raw: &[u8], col: usize) -> i32 {
    let off = schema.offset(col);
    i32::from_le_bytes([raw[off], raw[off + 1], raw[off + 2], raw[off + 3]])
}

/// Read a `Long` attribute directly from a raw tuple without allocating.
#[inline]
pub fn read_long(schema: &Schema, raw: &[u8], col: usize) -> i64 {
    let off = schema.offset(col);
    let b = &raw[off..off + 8];
    i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::int("id"),
            Column::text("flag", 1),
            Column::text("mode", 10),
            Column::int("qty"),
        ])
        .unwrap()
    }

    fn tuple() -> Vec<Value> {
        vec![
            Value::Int(42),
            Value::text("A"),
            Value::text("TRUCK"),
            Value::Int(-7),
        ]
    }

    #[test]
    fn roundtrip() {
        let s = schema();
        let mut buf = Vec::new();
        encode_tuple(&s, &tuple(), &mut buf).unwrap();
        assert_eq!(buf.len(), s.logical_width());
        let vals = decode_tuple(&s, &buf).unwrap();
        assert_eq!(vals[0], Value::Int(42));
        assert_eq!(vals[1].to_string(), "A");
        assert_eq!(vals[2].to_string(), "TRUCK");
        assert_eq!(vals[3], Value::Int(-7));
    }

    #[test]
    fn field_access() {
        let s = schema();
        let mut buf = Vec::new();
        encode_tuple(&s, &tuple(), &mut buf).unwrap();
        assert_eq!(read_int(&s, &buf, 0), 42);
        assert_eq!(read_int(&s, &buf, 3), -7);
        let l = Schema::new(vec![Column::int("i"), Column::new("l", DataType::Long)]).unwrap();
        let mut lbuf = Vec::new();
        encode_tuple(&l, &[Value::Int(1), Value::Long(i64::MIN + 3)], &mut lbuf).unwrap();
        assert_eq!(read_long(&l, &lbuf, 1), i64::MIN + 3);
        assert_eq!(field_slice(&s, &buf, 1), b"A");
        assert_eq!(decode_field(&s, &buf, 2).unwrap().to_string(), "TRUCK");
    }

    #[test]
    fn decoded_rows_are_allocated_once() {
        let s = schema();
        let mut buf = Vec::new();
        encode_tuple(&s, &tuple(), &mut buf).unwrap();
        assert_eq!(decode_tuple(&s, &buf).unwrap().capacity(), s.len());
    }

    #[test]
    fn wrong_arity_rejected() {
        let s = schema();
        let mut buf = Vec::new();
        assert!(encode_tuple(&s, &[Value::Int(1)], &mut buf).is_err());
    }

    #[test]
    fn short_slice_rejected() {
        let s = schema();
        assert!(decode_tuple(&s, &[0u8; 3]).is_err());
        assert!(decode_field(&s, &[0u8; 3], 3).is_err());
    }
}
