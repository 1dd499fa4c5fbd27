//! Tuple blocks — the unit of data flow between operators.
//!
//! The engine is a pull-based *block*-iterator (§2.2.3): every `next()`
//! returns an array of tuples rather than a single tuple, amortizing call
//! overhead and keeping the working set inside L1 (the paper sizes blocks at
//! 100 tuples for a 16 KB L1). Tuples inside a block are raw row-major bytes
//! laid out by the block's output schema; both the row scanner and the
//! column scanner emit exactly this format, which is what makes them
//! interchangeable (Figure 4).

use std::sync::Arc;

use rodb_types::{tuple, Error, Result, Schema, Value};

/// A block of densely packed tuples plus their source row positions.
#[derive(Debug, Clone)]
pub struct TupleBlock {
    schema: Arc<Schema>,
    /// `count × schema.logical_width()` bytes, row-major.
    data: Vec<u8>,
    /// Global source-row ordinal of each tuple (drives pipelined column scan
    /// nodes; also useful to tests). Empty for operators that lose lineage
    /// (joins, aggregates).
    positions: Vec<u64>,
    count: usize,
}

impl TupleBlock {
    /// A fresh, empty block for the given output schema.
    pub fn new(schema: Arc<Schema>, capacity: usize) -> TupleBlock {
        let width = schema.logical_width();
        TupleBlock {
            schema,
            data: Vec::with_capacity(capacity * width),
            positions: Vec::with_capacity(capacity),
            count: 0,
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn count(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tuple width in bytes.
    pub fn width(&self) -> usize {
        self.schema.logical_width()
    }

    /// Total payload bytes currently in the block.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Raw bytes of tuple `i`.
    #[inline]
    pub fn tuple(&self, i: usize) -> &[u8] {
        let w = self.width();
        &self.data[i * w..(i + 1) * w]
    }

    /// Raw bytes of every tuple, in order.
    pub fn tuples(&self) -> std::slice::ChunksExact<'_, u8> {
        self.data.chunks_exact(self.width().max(1))
    }

    /// Source-row position of tuple `i` (if lineage was kept).
    pub fn position(&self, i: usize) -> Option<u64> {
        self.positions.get(i).copied()
    }

    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    /// Append a fully formed tuple.
    pub fn push_tuple(&mut self, raw: &[u8], position: u64) -> Result<()> {
        if raw.len() != self.width() {
            return Err(Error::corrupt(format!(
                "tuple of {} bytes into block of width {}",
                raw.len(),
                self.width()
            )));
        }
        self.data.extend_from_slice(raw);
        self.positions.push(position);
        self.count += 1;
        Ok(())
    }

    /// A block of the tuples laid out row-major in `data`, one per position.
    pub(crate) fn from_parts(
        schema: Arc<Schema>,
        data: Vec<u8>,
        positions: Vec<u64>,
    ) -> Result<TupleBlock> {
        let count = positions.len();
        if data.len() != count * schema.logical_width() {
            return Err(Error::corrupt(format!(
                "{} bytes for {count} tuples of width {}",
                data.len(),
                schema.logical_width()
            )));
        }
        Ok(TupleBlock {
            schema,
            data,
            positions,
            count,
        })
    }

    /// Mutable bytes of column `col` of tuple `i`.
    #[inline]
    pub fn field_mut(&mut self, i: usize, col: usize) -> &mut [u8] {
        let w = self.width();
        let off = i * w + self.schema.offset(col);
        let fw = self.schema.dtype(col).width();
        &mut self.data[off..off + fw]
    }

    /// Mutable bytes of every tuple, row-major.
    pub(crate) fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Borrow the bytes of column `col` of tuple `i`.
    #[inline]
    pub fn field(&self, i: usize, col: usize) -> &[u8] {
        tuple::field_slice(&self.schema, self.tuple(i), col)
    }

    /// Decode column `col` of tuple `i` to an owned [`Value`].
    pub fn value(&self, i: usize, col: usize) -> Result<Value> {
        tuple::decode_field(&self.schema, self.tuple(i), col)
    }

    /// Fast path: `Int` column of tuple `i`.
    #[inline]
    pub fn int(&self, i: usize, col: usize) -> i32 {
        tuple::read_int(&self.schema, self.tuple(i), col)
    }

    /// Keep only the tuples whose indices are in `keep` (ascending); returns
    /// bytes moved (for CPU accounting of the paper's "re-writing the
    /// resulting tuples" in predicate scan nodes).
    pub fn retain_indices(&mut self, keep: &[usize]) -> usize {
        let w = self.width();
        let mut moved = 0usize;
        for (dst, &src) in keep.iter().enumerate() {
            debug_assert!(src >= dst);
            if src != dst {
                let (head, tail) = self.data.split_at_mut(src * w);
                head[dst * w..dst * w + w].copy_from_slice(&tail[..w]);
                self.positions[dst] = self.positions[src];
            }
            moved += w;
        }
        self.count = keep.len();
        self.data.truncate(self.count * w);
        self.positions.truncate(self.count);
        moved
    }

    /// Clear contents, keeping the allocation (the paper's block reuse).
    pub fn clear(&mut self) {
        self.data.clear();
        self.positions.clear();
        self.count = 0;
    }

    /// Decode every tuple (test/debug helper).
    pub fn rows(&self) -> Result<Vec<Vec<Value>>> {
        (0..self.count)
            .map(|i| tuple::decode_tuple(&self.schema, self.tuple(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::Column;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Column::int("a"),
                Column::text("t", 5),
                Column::int("b"),
            ])
            .unwrap(),
        )
    }

    fn encode(a: i32, t: &str, b: i32, s: &Schema) -> Vec<u8> {
        let mut raw = Vec::new();
        tuple::encode_tuple(s, &[Value::Int(a), Value::text(t), Value::Int(b)], &mut raw).unwrap();
        raw
    }

    #[test]
    fn push_and_read() {
        let s = schema();
        let mut b = TupleBlock::new(s.clone(), 4);
        b.push_tuple(&encode(1, "x", -1, &s), 10).unwrap();
        b.push_tuple(&encode(2, "yy", -2, &s), 20).unwrap();
        assert_eq!(b.count(), 2);
        assert_eq!(b.int(0, 0), 1);
        assert_eq!(b.int(1, 2), -2);
        assert_eq!(b.value(1, 1).unwrap().to_string(), "yy");
        assert_eq!(b.position(0), Some(10));
        assert_eq!(b.positions(), &[10, 20]);
        assert_eq!(b.byte_len(), 2 * s.logical_width());
    }

    #[test]
    fn blank_fill_in_place() {
        let s = schema();
        let mut b = TupleBlock::from_parts(s.clone(), vec![0; s.logical_width()], vec![5]).unwrap();
        let i = 0;
        b.field_mut(i, 0).copy_from_slice(&42i32.to_le_bytes());
        b.field_mut(i, 1)[..3].copy_from_slice(b"abc");
        assert_eq!(b.int(i, 0), 42);
        assert_eq!(b.value(i, 1).unwrap().to_string(), "abc");
        assert_eq!(b.int(i, 2), 0);
    }

    #[test]
    fn retain_compacts() {
        let s = schema();
        let mut b = TupleBlock::new(s.clone(), 4);
        for i in 0..5 {
            b.push_tuple(&encode(i, "t", i * 10, &s), i as u64).unwrap();
        }
        let moved = b.retain_indices(&[0, 2, 4]);
        assert_eq!(b.count(), 3);
        assert_eq!(moved, 3 * s.logical_width());
        assert_eq!(b.int(0, 0), 0);
        assert_eq!(b.int(1, 0), 2);
        assert_eq!(b.int(2, 0), 4);
        assert_eq!(b.positions(), &[0, 2, 4]);
    }

    #[test]
    fn clear_reuses_allocation() {
        let s = schema();
        let mut b = TupleBlock::new(s.clone(), 4);
        b.push_tuple(&encode(1, "x", 2, &s), 0).unwrap();
        let cap = b.data.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.data.capacity(), cap);
    }

    #[test]
    fn wrong_width_rejected() {
        let s = schema();
        let mut b = TupleBlock::new(s.clone(), 1);
        assert!(b.push_tuple(&[0u8; 3], 0).is_err());
        let w = s.logical_width();
        assert!(TupleBlock::from_parts(s.clone(), vec![0; 2 * w - 1], vec![0, 1]).is_err());
        assert!(TupleBlock::from_parts(s, vec![0; 2 * w], vec![0, 1]).is_ok());
    }

    #[test]
    fn rows_roundtrip() {
        let s = schema();
        let mut b = TupleBlock::new(s.clone(), 2);
        b.push_tuple(&encode(7, "hi", 8, &s), 0).unwrap();
        let rows = b.rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(7));
        assert_eq!(rows[0][2], Value::Int(8));
    }
}
