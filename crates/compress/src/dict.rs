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
    /// what a page's dictionary lookup indexes.
    ints: Vec<i32>,
    index: HashMap<Value, u32>,
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
            index: HashMap::new(),
        };
        for v in values {
            dict.intern(dtype, v)?;
        }
        Ok(dict)
    }

    /// Insert (if new) and return the code for `v`.
    pub fn intern(&mut self, dtype: DataType, v: &Value) -> Result<u32> {
        v.check_fits(dtype)?;
        let normalized = normalize(dtype, v)?;
        if let Some(&code) = self.index.get(&normalized) {
            return Ok(code);
        }
        let code = u32::try_from(self.values.len())
            .map_err(|_| Error::ValueOutOfDomain("dictionary exceeds u32 codes".into()))?;
        if let Value::Int(i) = normalized {
            self.ints.push(i);
        }
        self.values.push(normalized.clone());
        self.index.insert(normalized, code);
        Ok(code)
    }

    /// Look up the code for a value (must already be interned).
    pub fn code_of(&self, dtype: DataType, v: &Value) -> Result<u32> {
        let normalized = normalize(dtype, v)?;
        self.index
            .get(&normalized)
            .copied()
            .ok_or_else(|| Error::ValueOutOfDomain(format!("value {v} not in dictionary")))
    }

    /// The value for a code.
    pub fn value_of(&self, code: u32) -> Result<&Value> {
        self.values
            .get(code as usize)
            .ok_or_else(|| Error::corrupt(format!("dictionary code {code} out of range")))
    }

    /// The value of every code, in code order.
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// [`Dictionary::values`] as ints, for an int dictionary (empty
    /// otherwise).
    pub(crate) fn ints(&self) -> &[i32] {
        &self.ints
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

/// Pad text values to the declared width so dictionary equality is on stored
/// bytes (ints pass through).
fn normalize(dtype: DataType, v: &Value) -> Result<Value> {
    match (dtype, v) {
        (DataType::Int, Value::Int(_)) => Ok(v.clone()),
        (DataType::Text(n), Value::Text(b)) if b.len() == n => Ok(v.clone()),
        (DataType::Text(_), Value::Text(_)) => {
            let mut buf = Vec::new();
            v.encode_into(dtype, &mut buf)?;
            Ok(Value::Text(buf.into()))
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
