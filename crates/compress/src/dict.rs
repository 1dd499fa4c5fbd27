//! Dictionary encoding support.
//!
//! "When loading data we first create an array with all the distinct values
//! of an attribute, and then store each attribute as an index number to that
//! array" (§2.2.1). The dictionary is built once at load time and kept in the
//! catalog; pages only store bit-packed index codes.

use std::collections::HashMap;

use rodb_types::{DataType, Error, Result, Value};

use crate::bits::bits_for;

/// An immutable value dictionary: code ↔ value in both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct Dictionary {
    values: Vec<Value>,
    /// The values decoded once as ints (an int dictionary; empty otherwise):
    /// what a page's int lookup indexes.
    ints: Vec<i32>,
    /// Every value at its full declared width, `width` bytes each in code
    /// order: what a page's byte lookup copies an entry out of.
    entries: Vec<u8>,
    width: usize,
    /// Stored bytes → code: the one index every value → code lookup (a
    /// `Value` through [`Dictionary::code_of`], a page's stored bytes
    /// through the block encoder) goes through.
    index: HashMap<Box<[u8]>, u32>,
}

impl Dictionary {
    /// Build a dictionary from the distinct values of a column, in first-seen
    /// order. Text values are stored at the column's declared (padded) width
    /// so decoding can hand back full-width values without re-padding.
    pub fn build<'a>(
        dtype: DataType,
        values: impl Iterator<Item = &'a Value>,
    ) -> Result<Dictionary> {
        let mut dict = Dictionary {
            values: Vec::new(),
            ints: Vec::new(),
            entries: Vec::new(),
            width: dtype.width(),
            index: HashMap::new(),
        };
        for v in values {
            dict.intern(dtype, v)?;
        }
        Ok(dict)
    }

    /// Insert (if new) and return the code for `v`, a value of the type the
    /// dictionary was built for.
    fn intern(&mut self, dtype: DataType, v: &Value) -> Result<u32> {
        let stored = stored(dtype, v)?;
        if let Some(&code) = self.index.get(&stored[..]) {
            return Ok(code);
        }
        let code = u32::try_from(self.values.len())
            .map_err(|_| Error::ValueOutOfDomain("dictionary exceeds u32 codes".into()))?;
        let value = Value::decode(dtype, &stored)?;
        if let Value::Int(i) = value {
            self.ints.push(i);
        }
        self.entries.extend_from_slice(&stored);
        self.values.push(value);
        self.index.insert(stored.into(), code);
        Ok(code)
    }

    /// Look up the code for a value (must already be interned).
    pub fn code_of(&self, dtype: DataType, v: &Value) -> Result<u32> {
        self.code_of_stored(&stored(dtype, v)?)
            .ok_or_else(|| Error::ValueOutOfDomain(format!("value {v} not in dictionary")))
    }

    /// The code of a value given as its stored bytes at full declared
    /// width, if the dictionary holds it.
    #[inline]
    pub(crate) fn code_of_stored(&self, stored: &[u8]) -> Option<u32> {
        self.index.get(stored).copied()
    }

    /// The value for a code.
    pub fn value_of(&self, code: u32) -> Result<&Value> {
        self.values
            .get(code as usize)
            .ok_or_else(|| Error::corrupt(format!("dictionary code {code} out of range")))
    }

    /// The value of every code as an int, for an int dictionary (empty
    /// otherwise).
    pub(crate) fn ints(&self) -> &[i32] {
        &self.ints
    }

    /// The value of every code at full declared width, and that width.
    pub(crate) fn entries(&self) -> (&[u8], usize) {
        (&self.entries, self.width)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bits required to store any code of this dictionary.
    pub fn code_bits(&self) -> u8 {
        bits_for(self.values.len().saturating_sub(1) as u64)
    }
}

/// A value's stored bytes at the declared width — text zero-padded, so
/// dictionary equality is on stored bytes. Int and text dictionaries only.
fn stored(dtype: DataType, v: &Value) -> Result<Vec<u8>> {
    match (dtype, v) {
        (DataType::Int, Value::Int(_)) | (DataType::Text(_), Value::Text(_)) => {
            let mut buf = Vec::with_capacity(dtype.width());
            v.encode_into(dtype, &mut buf)?;
            Ok(buf)
        }
        _ => Err(Error::TypeMismatch {
            expected: dtype.name(),
            got: v.dtype().name(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_male_female() {
        // §2.2.1: "MALE"/"FEMALE" → codes 0 and 1.
        let vals = [
            Value::text("MALE"),
            Value::text("FEMALE"),
            Value::text("MALE"),
        ];
        let d = Dictionary::build(DataType::Text(6), vals.iter()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(
            d.code_of(DataType::Text(6), &Value::text("MALE")).unwrap(),
            0
        );
        assert_eq!(
            d.code_of(DataType::Text(6), &Value::text("FEMALE"))
                .unwrap(),
            1
        );
        assert_eq!(d.code_bits(), 1);
    }

    #[test]
    fn code_bits_grows_with_cardinality() {
        let vals: Vec<Value> = (0..7).map(Value::Int).collect();
        let d = Dictionary::build(DataType::Int, vals.iter()).unwrap();
        assert_eq!(d.code_bits(), 3); // 7 distinct → codes 0..6 → 3 bits
        let vals: Vec<Value> = (0..3).map(Value::Int).collect();
        let d = Dictionary::build(DataType::Int, vals.iter()).unwrap();
        assert_eq!(d.code_bits(), 2); // matches L_RETURNFLAG "dict, 2 bits"
    }

    #[test]
    fn roundtrip_codes() {
        let vals: Vec<Value> = ["AIR", "TRUCK", "MAIL", "SHIP"]
            .iter()
            .map(|s| Value::text(s))
            .collect();
        let d = Dictionary::build(DataType::Text(10), vals.iter()).unwrap();
        for v in &vals {
            let c = d.code_of(DataType::Text(10), v).unwrap();
            let back = d.value_of(c).unwrap();
            // Stored at full width, trims back to the same string.
            assert_eq!(back.to_string(), v.to_string());
            assert_eq!(back.as_text().unwrap().len(), 10);
        }
        assert!(d.code_of(DataType::Text(10), &Value::text("RAIL")).is_err());
        assert!(d.value_of(99).is_err());
    }

    #[test]
    fn type_errors() {
        let mut d = Dictionary::build(DataType::Int, [].iter()).unwrap();
        assert!(d.intern(DataType::Int, &Value::text("x")).is_err());
        assert!(d.is_empty());
    }
}
