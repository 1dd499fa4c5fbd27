//! Tuple blocks — the unit of data flow between operators.
//!
//! The engine is a pull-based *block*-iterator (§2.2.3): every `next()`
//! returns an array of tuples rather than a single tuple, amortizing call
//! overhead and keeping the working set inside L1 (the paper sizes blocks at
//! 100 tuples for a 16 KB L1). Tuples inside a block are raw row-major bytes
//! laid out by the block's output schema; both the row scanner and the
//! column scanner emit exactly this format, which is what makes them
//! interchangeable (Figure 4).
//!
//! Blocks are also the result format: a collected query hands back a
//! [`RowBatch`], the blocks its plan emitted, and decodes a field only
//! where a caller reads it.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use rodb_types::{tuple, DataType, Error, Result, Schema, Value};

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

/// A collected query result: the output schema and the blocks the plan
/// emitted, in emission order, without their lineage (the blocks'
/// positions are dropped when they are pushed). Rows stay in block form —
/// `count × logical_width` row-major bytes per block — and are read in
/// place through [`RowBatch::iter`]'s [`RowView`]s; nothing is decoded
/// into [`Value`]s unless a caller asks for one.
///
/// Every stored block holds a whole number of tuples of the batch's
/// schema (checked when it is pushed or appended), so every field read is
/// in bounds and every decode is total.
#[derive(Clone, Default)]
pub struct RowBatch {
    /// The first pushed or appended block's; `None` before (no rows).
    schema: Option<Arc<Schema>>,
    /// Each block's tuples, row-major at the schema's logical width.
    blocks: Vec<Vec<u8>>,
    len: usize,
    /// The `Vec<Vec<Value>>` bridge ([`Deref`]), filled on first use.
    decoded: OnceLock<Vec<Vec<Value>>>,
}

impl RowBatch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Take `schema` as the batch's, or check it equals the batch's own.
    fn adopt(&mut self, schema: &Arc<Schema>) -> Result<()> {
        match &self.schema {
            None => self.schema = Some(schema.clone()),
            Some(s) if Arc::ptr_eq(s, schema) || **s == **schema => {}
            Some(s) => {
                return Err(Error::InvalidPlan(format!(
                    "rows of {} columns joined to a batch of {} columns, or of other types",
                    schema.len(),
                    s.len()
                )))
            }
        }
        Ok(())
    }

    /// Keep `block`'s tuples (not its positions). A block left with more
    /// than half its allocation unused (a scan's narrowed block) is shrunk,
    /// so a batch never holds more than twice its tuple bytes.
    pub fn push(&mut self, block: TupleBlock) -> Result<()> {
        self.adopt(&block.schema)?;
        if block.count == 0 {
            return Ok(());
        }
        let mut data = block.data;
        if data.capacity() > 2 * data.len() {
            data.shrink_to_fit();
        }
        self.len += block.count;
        self.blocks.push(data);
        self.decoded.take();
        Ok(())
    }

    /// Move `other`'s rows behind this batch's: O(blocks), no tuple is
    /// copied. Fails if the two schemas differ.
    pub fn append(&mut self, mut other: RowBatch) -> Result<()> {
        if let Some(s) = &other.schema {
            self.adopt(s)?;
        }
        self.len += other.len;
        self.blocks.append(&mut other.blocks);
        self.decoded.take();
        Ok(())
    }

    /// Borrowed views of the rows, in order.
    pub fn iter(&self) -> impl Iterator<Item = RowView<'_>> + '_ {
        self.schema.iter().flat_map(move |schema| {
            let width = schema.logical_width().max(1);
            (self.blocks.iter())
                .flat_map(move |block| block.chunks_exact(width))
                .map(move |tuple| RowView { schema, tuple })
        })
    }

    /// Decode every row into owned values — for tests, the oracle and
    /// examples; the engine reads rows through [`RowBatch::iter`].
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.iter().map(|r| r.values()).collect()
    }

    /// Whether the [`Deref`] bridge has decoded this batch.
    pub fn is_decoded(&self) -> bool {
        self.decoded.get().is_some()
    }
}

/// Lists the rows' values, as the `Vec<Vec<Value>>` it replaces did.
impl std::fmt::Debug for RowBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The bridge for callers still written against `Vec<Vec<Value>>` rows
/// (the benchmark's `&r.rows` and `r.rows.len()`): the first dereference
/// decodes every row once, through [`RowBatch::to_rows`], and keeps the
/// decode. It exists only until the benchmark reads rows through
/// [`RowBatch::iter`] (ROADMAP item 3: the benchmark switches, then this
/// impl is deleted); non-test code under `crates/` and `src/` never goes
/// through it.
impl Deref for RowBatch {
    type Target = [Vec<Value>];

    fn deref(&self) -> &[Vec<Value>] {
        self.decoded.get_or_init(|| self.to_rows())
    }
}

/// Same rows in the same order: equal schemas (when both hold rows) and
/// equal tuple bytes — which is value equality, since each type's stored
/// bytes decode one way.
impl PartialEq for RowBatch {
    fn eq(&self, other: &RowBatch) -> bool {
        if self.len != other.len {
            return false;
        }
        if self.len > 0 && self.schema != other.schema {
            return false;
        }
        self.iter()
            .zip(other.iter())
            .all(|(a, b)| a.bytes() == b.bytes())
    }
}

impl PartialEq<Vec<Vec<Value>>> for RowBatch {
    fn eq(&self, other: &Vec<Vec<Value>>) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(r, o)| r == o[..])
    }
}

/// One row of a [`RowBatch`], borrowed in place.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    schema: &'a Schema,
    tuple: &'a [u8],
}

impl<'a> RowView<'a> {
    /// The row's raw bytes (the schema's logical width).
    pub fn bytes(&self) -> &'a [u8] {
        self.tuple
    }

    /// The stored bytes of column `col`.
    pub fn field(&self, col: usize) -> &'a [u8] {
        tuple::field_slice(self.schema, self.tuple, col)
    }

    /// An `Int` column.
    pub fn int(&self, col: usize) -> i32 {
        tuple::read_int(self.schema, self.tuple, col)
    }

    /// A `Long` column.
    pub fn long(&self, col: usize) -> i64 {
        tuple::read_long(self.schema, self.tuple, col)
    }

    /// Column `col` decoded to an owned value (text keeps its padding, as
    /// [`Value::decode`] does).
    pub fn value(&self, col: usize) -> Value {
        match self.schema.dtype(col) {
            DataType::Int => Value::Int(self.int(col)),
            DataType::Long => Value::Long(self.long(col)),
            DataType::Text(_) => Value::Text(self.field(col).into()),
        }
    }

    /// Every column decoded.
    pub fn values(&self) -> Vec<Value> {
        (0..self.schema.len()).map(|c| self.value(c)).collect()
    }
}

impl std::fmt::Debug for RowView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

/// Column by column, without decoding: a value equals the stored field it
/// would decode from.
impl PartialEq<[Value]> for RowView<'_> {
    fn eq(&self, other: &[Value]) -> bool {
        self.schema.len() == other.len()
            && other
                .iter()
                .enumerate()
                .all(|(c, v)| match (self.schema.dtype(c), v) {
                    (DataType::Int, Value::Int(x)) => self.int(c) == *x,
                    (DataType::Long, Value::Long(x)) => self.long(c) == *x,
                    (DataType::Text(_), Value::Text(b)) => self.field(c) == &**b,
                    _ => false,
                })
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

    /// A batch of `blocks` blocks of `per` rows each, row `i` = `(i, "t", -i)`.
    fn batch(blocks: i32, per: i32) -> RowBatch {
        let s = schema();
        let mut out = RowBatch::default();
        for b in 0..blocks {
            let mut block = TupleBlock::new(s.clone(), per as usize);
            for i in b * per..(b + 1) * per {
                block.push_tuple(&encode(i, "t", -i, &s), i as u64).unwrap();
            }
            out.push(block).unwrap();
        }
        out
    }

    #[test]
    fn views_to_rows_and_the_bridge_agree() {
        for (blocks, per) in [(0, 0), (1, 0), (1, 1), (3, 4)] {
            let b = batch(blocks, per);
            let n = (blocks * per) as usize;
            assert_eq!((b.len(), b.is_empty(), b.iter().count()), (n, n == 0, n));
            let viewed: Vec<Vec<Value>> = b.iter().map(|r| r.values()).collect();
            let rows = b.to_rows();
            assert_eq!(viewed, rows);
            assert!(!b.is_decoded());
            assert_eq!(&*b, &rows[..]);
            assert!(b.is_decoded());
            assert_eq!(b, rows);
            for (i, r) in b.iter().enumerate() {
                let i = i as i32;
                assert_eq!((r.int(0), r.int(2)), (i, -i));
                assert_eq!(r.field(1), b"t\0\0\0\0");
                assert_eq!(r.value(1), rows[i as usize][1]);
                assert_eq!(r.bytes(), encode(i, "t", -i, &schema()));
            }
        }
        assert!(RowBatch::default().iter().next().is_none());
        assert_eq!(RowBatch::default().to_rows(), Vec::<Vec<Value>>::new());
    }

    #[test]
    fn equality_ignores_block_boundaries() {
        let (one, many) = (batch(1, 12), batch(4, 3));
        assert_eq!(one, many);
        assert_eq!((one.blocks.len(), many.blocks.len()), (1, 4));
        assert_ne!(batch(1, 11), many);
        assert_eq!(RowBatch::default(), batch(0, 0));
        let mut rows = many.to_rows();
        assert!(many == rows);
        rows[5][1] = Value::text("t");
        assert!(many != rows, "text compares at its stored width");
    }

    #[test]
    fn append_moves_blocks_and_resets_the_bridge() {
        let mut a = batch(2, 3);
        let _ = &*a;
        assert!(a.is_decoded());
        a.append(RowBatch::default()).unwrap();
        a.append(batch(1, 2)).unwrap();
        assert!(!a.is_decoded());
        assert_eq!((a.len(), a.blocks.len()), (8, 3));
        assert_eq!(
            a.to_rows()[6],
            vec![Value::Int(0), Value::text("t\0\0\0\0"), Value::Int(0)]
        );
        let mut empty = RowBatch::default();
        empty.append(batch(1, 1)).unwrap();
        assert_eq!(empty.schema.as_deref(), Some(&*schema()));
    }

    #[test]
    fn other_schemas_are_refused() {
        let other = Arc::new(Schema::new(vec![Column::int("a")]).unwrap());
        let mut b = batch(1, 1);
        assert!(b.push(TupleBlock::new(other.clone(), 1)).is_err());
        let mut others = RowBatch::default();
        others.push(TupleBlock::new(other, 1)).unwrap();
        assert!(b.append(others).is_err());
        assert_eq!(b.len(), 1);
    }

    /// A kept block gives up its positions and, when mostly unused, its
    /// spare capacity: a batch never outweighs the decoded rows it stands
    /// for, even when a narrowed block keeps one row of a hundred.
    #[test]
    fn a_batch_is_no_larger_than_its_rows() {
        let s = schema();
        let mut b = RowBatch::default();
        for i in 0..50 {
            let mut block = TupleBlock::new(s.clone(), 100);
            for j in 0..100 {
                block
                    .push_tuple(&encode(i * 100 + j, "t", j, &s), j as u64)
                    .unwrap();
            }
            let keep: Vec<usize> = if i % 2 == 0 {
                vec![7]
            } else {
                (0..100).collect()
            };
            block.retain_indices(&keep);
            b.push(block).unwrap();
        }
        let held: usize = b.blocks.iter().map(|d| d.capacity()).sum::<usize>()
            + b.blocks.capacity() * std::mem::size_of::<Vec<u8>>();
        let rows = b.to_rows();
        let decoded: usize = rows
            .iter()
            .map(|r| {
                std::mem::size_of::<Vec<Value>>()
                    + r.capacity() * std::mem::size_of::<Value>()
                    + r.iter()
                        .map(|v| v.as_text().map_or(0, <[u8]>::len))
                        .sum::<usize>()
            })
            .sum();
        assert_eq!(b.len(), 25 + 25 * 100);
        assert!(held <= decoded, "batch {held} B, rows {decoded} B");
        assert!(b.blocks.iter().all(|d| d.capacity() <= 2 * d.len()));
    }
}
