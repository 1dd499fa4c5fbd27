//! Packed (compressed) row pages.
//!
//! The paper's compression schemes "yield the same compression ratio for
//! both row and column data" (§2.2.1) — a compressed row store packs each
//! tuple as the concatenation of its attributes' fixed-width codes (ORDERS-Z
//! tuples are 92 bits). FOR/FOR-delta base values are per page *per column*,
//! so the page stores a small base array after the count:
//!
//! ```text
//! [count: u32][base: i64 × (FOR/FOR-delta columns)][tuple codes ...][trailer]
//! ```
//!
//! FOR-delta attributes are deltas against the *previous tuple in the page*,
//! which makes packed row pages strictly sequential-decode for those
//! attributes — exactly like their column counterparts.

use rodb_compress::{BitReader, BitWriter, ColumnCompression, Encoder, Field};
use rodb_types::{Error, PageId, Result, Schema, Value};

use crate::page::{write_trailer, PageView, VerifiedPage, PAGE_HEADER, PAGE_TRAILER};

/// Bits per packed tuple for a codec assignment.
pub fn packed_tuple_bits(schema: &Schema, comps: &[ColumnCompression]) -> usize {
    schema
        .columns()
        .iter()
        .zip(comps)
        .map(|(c, comp)| comp.bits_per_value(c.dtype))
        .sum()
}

/// Indices of columns that carry a per-page base (FOR / FOR-delta).
pub fn base_columns(comps: &[ColumnCompression]) -> Vec<usize> {
    comps
        .iter()
        .enumerate()
        .filter(|(_, c)| c.codec.has_base())
        .map(|(i, _)| i)
        .collect()
}

/// Packed tuples per page.
pub fn packed_tuples_per_page(
    page_size: usize,
    schema: &Schema,
    comps: &[ColumnCompression],
) -> usize {
    let base_bytes = base_columns(comps).len() * 8;
    let body_bits = (page_size - PAGE_HEADER - PAGE_TRAILER - base_bytes) * 8;
    body_bits / packed_tuple_bits(schema, comps)
}

/// Packed tuples need every field at a computable bit offset: the
/// variable-rate and page-relative codecs are demoted to their
/// [`ColumnCompression::packed_equivalent`] by the loader first, so meeting
/// one here is a planner bug.
fn check_packable(comps: &[ColumnCompression]) -> Result<()> {
    match comps.iter().find(|c| !c.codec.packable()) {
        Some(c) => Err(Error::InvalidConfig(format!(
            "codec {:?} is not supported in packed row pages",
            c.codec.kind()
        ))),
        None => Ok(()),
    }
}

/// Builds packed row pages by buffering whole rows.
pub struct PackedRowPageBuilder {
    page_size: usize,
    capacity: usize,
    rows: Vec<Vec<Value>>,
}

impl PackedRowPageBuilder {
    pub fn new(
        page_size: usize,
        schema: &Schema,
        comps: &[ColumnCompression],
    ) -> Result<PackedRowPageBuilder> {
        if comps.len() != schema.len() {
            return Err(Error::InvalidConfig(format!(
                "{} codecs for {} columns",
                comps.len(),
                schema.len()
            )));
        }
        check_packable(comps)?;
        let capacity = packed_tuples_per_page(page_size, schema, comps);
        if capacity == 0 {
            return Err(Error::InvalidConfig(
                "packed tuple wider than a page".into(),
            ));
        }
        Ok(PackedRowPageBuilder {
            page_size,
            capacity,
            rows: Vec::new(),
        })
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_full(&self) -> bool {
        self.rows.len() >= self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn push(&mut self, values: &[Value]) -> Result<()> {
        if self.is_full() {
            return Err(Error::corrupt("push into full packed row page"));
        }
        self.rows.push(values.to_vec());
        Ok(())
    }

    /// Encode the buffered rows and emit the page.
    pub fn build(
        &mut self,
        schema: &Schema,
        comps: &[ColumnCompression],
        page_id: PageId,
    ) -> Result<Vec<u8>> {
        if self.rows.iter().any(|r| r.len() != schema.len()) {
            return Err(Error::corrupt("row arity mismatch"));
        }
        // One encoder per column, its page base fixed over the page's rows.
        let mut encoders = comps
            .iter()
            .enumerate()
            .map(|(ci, comp)| {
                Encoder::new(comp, schema.dtype(ci), self.rows.iter().map(|r| &r[ci]))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut w = BitWriter::new();
        for row in &self.rows {
            for (v, enc) in row.iter().zip(&mut encoders) {
                enc.write(v, &mut w)?;
            }
        }

        let mut page = vec![0u8; self.page_size];
        page[0..4].copy_from_slice(&(self.rows.len() as u32).to_le_bytes());
        let mut off = PAGE_HEADER;
        for k in base_columns(comps) {
            page[off..off + 8].copy_from_slice(&encoders[k].base().to_le_bytes());
            off += 8;
        }
        let data = w.into_bytes();
        if off + data.len() > self.page_size - PAGE_TRAILER {
            return Err(Error::corrupt("packed rows overflow page"));
        }
        page[off..off + data.len()].copy_from_slice(&data);
        write_trailer(&mut page, page_id, 0);
        self.rows.clear();
        Ok(page)
    }
}

impl VerifiedPage {
    /// Re-open as a bit-packed row page (structural checks only).
    pub fn packed(&self, comps: &[ColumnCompression]) -> Result<PackedRowPage<'_>> {
        PackedRowPage::from_view(self.view(), comps)
    }
}

/// Read-side view of one packed row page.
pub struct PackedRowPage<'a> {
    bytes: &'a [u8],
    count: usize,
    bases: Vec<i64>,
}

impl<'a> PackedRowPage<'a> {
    pub fn new(bytes: &'a [u8], comps: &[ColumnCompression]) -> Result<PackedRowPage<'a>> {
        PackedRowPage::from_view(PageView::new(bytes)?, comps)
    }

    /// The structural checks behind a passed checksum.
    fn from_view(view: PageView<'a>, comps: &[ColumnCompression]) -> Result<PackedRowPage<'a>> {
        check_packable(comps)?;
        let bytes = view.bytes();
        let count = view.count();
        let n_bases = base_columns(comps).len();
        if PAGE_HEADER + n_bases * 8 > bytes.len() - PAGE_TRAILER {
            return Err(Error::corrupt(format!(
                "packed row page too small for {n_bases} bases"
            )));
        }
        let mut bases = Vec::with_capacity(n_bases);
        for k in 0..n_bases {
            let off = PAGE_HEADER + k * 8;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[off..off + 8]);
            bases.push(i64::from_le_bytes(buf));
        }
        Ok(PackedRowPage {
            bytes,
            count,
            bases,
        })
    }

    pub fn count(&self) -> usize {
        self.count
    }

    /// The per-page base of column `col` (`Some` only for FOR / FOR-delta
    /// columns) — the metadata code-space predicate rewrites key on.
    pub fn base_of(&self, comps: &[ColumnCompression], col: usize) -> Option<i64> {
        base_columns(comps)
            .iter()
            .position(|&c| c == col)
            .map(|k| self.bases[k])
    }

    /// Sequential decoder over the page's tuples.
    pub fn cursor(
        &'a self,
        schema: &'a Schema,
        comps: &'a [ColumnCompression],
    ) -> PackedRowCursor<'a> {
        let data_start = PAGE_HEADER + self.bases.len() * 8;
        let mut bases = self.bases.iter();
        let mut tuple_bits = 0;
        let fields = schema
            .columns()
            .iter()
            .zip(comps)
            .map(|(c, comp)| {
                let base = comp.codec.has_base().then(|| bases.next()).flatten();
                let field = PackedField {
                    field: comp.field(c.dtype, base.copied().unwrap_or(0), 0),
                    off: tuple_bits,
                    sum: 0,
                };
                tuple_bits += comp.bits_per_value(c.dtype);
                field
            })
            .collect();
        PackedRowCursor {
            reader: BitReader::new(&self.bytes[data_start..self.bytes.len() - PAGE_TRAILER]),
            count: self.count,
            tuple_bits,
            fields,
            tuple: 0,
            started: false,
        }
    }
}

/// One column of a packed tuple: its codec's read half on this page and
/// where in a tuple it sits.
struct PackedField<'a> {
    field: Field<'a>,
    /// Bit offset within a tuple.
    off: usize,
    /// FOR-delta: the running sum of the page's deltas up to the current
    /// tuple.
    sum: u64,
}

/// Sequential tuple cursor. Call [`PackedRowCursor::advance`] before reading
/// each tuple's fields; FOR-delta fields are maintained incrementally.
pub struct PackedRowCursor<'a> {
    reader: BitReader<'a>,
    count: usize,
    tuple_bits: usize,
    fields: Vec<PackedField<'a>>,
    /// 1-based position: 0 = before first tuple.
    tuple: usize,
    started: bool,
}

impl PackedRowCursor<'_> {
    /// Move to the next tuple; false at end of page. Steps the delta fields
    /// to the new tuple (mandatory work, like the paper says).
    pub fn advance(&mut self) -> Result<bool> {
        let next = if self.started { self.tuple + 1 } else { 0 };
        if next >= self.count {
            return Ok(false);
        }
        for f in self.fields.iter_mut().filter(|f| f.field.is_delta()) {
            let d = f.field.code(&self.reader, next * self.tuple_bits + f.off)?;
            // The first tuple's code is 0: the page base carries its value.
            if next > 0 {
                f.sum = f.sum.wrapping_add(d);
            }
        }
        self.tuple = next;
        self.started = true;
        Ok(true)
    }

    /// Column `col` of the current tuple, and its bit offset in the page.
    fn at(&self, col: usize) -> (&PackedField<'_>, usize) {
        let f = &self.fields[col];
        (f, self.tuple * self.tuple_bits + f.off)
    }

    /// Read the raw stored code of a field without decoding it — the entry
    /// point for code-space predicate evaluation. A FOR-delta field's code
    /// is a delta, not a position-independent code.
    pub fn field_code(&mut self, col: usize) -> Result<u64> {
        let (f, off) = self.at(col);
        if f.field.is_delta() {
            return Err(Error::InvalidConfig(
                "a FOR-delta field has no position-independent code".into(),
            ));
        }
        f.field.code(&self.reader, off)
    }

    /// Decode an integer field of the current tuple.
    pub fn field_int(&mut self, col: usize) -> Result<i32> {
        let (f, off) = self.at(col);
        if f.field.is_delta() {
            return f.field.int_of(f.sum);
        }
        f.field.int(&self.reader, off)
    }

    /// Decode any field of the current tuple to full-width raw bytes.
    pub fn field_raw(&mut self, col: usize, out: &mut Vec<u8>) -> Result<()> {
        let (f, off) = self.at(col);
        if f.field.is_delta() {
            return f.field.raw_of(f.sum, out);
        }
        f.field.raw(&self.reader, off, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_compress::Codec;
    use rodb_types::{Column, DataType};
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::int("date"),
            Column::int("key"),
            Column::int("raw"),
            Column::text("status", 1),
            Column::text("pad", 12),
        ])
        .unwrap()
    }

    fn comps() -> Vec<ColumnCompression> {
        let dict = Arc::new(
            rodb_compress::Dictionary::build(
                DataType::Text(1),
                [Value::text("F"), Value::text("O"), Value::text("P")].iter(),
            )
            .unwrap(),
        );
        vec![
            ColumnCompression::new(Codec::BitPack { bits: 14 }, None).unwrap(),
            ColumnCompression::new(Codec::ForDelta { bits: 8 }, None).unwrap(),
            ColumnCompression::none(),
            ColumnCompression::new(Codec::Dict { bits: 2 }, Some(dict)).unwrap(),
            ColumnCompression::new(Codec::TextPack { bytes: 4 }, None).unwrap(),
        ]
    }

    fn row(i: i32) -> Vec<Value> {
        vec![
            Value::Int(i % 2400),
            Value::Int(1000 + i),
            Value::Int(-i),
            Value::text(["F", "O", "P"][i as usize % 3]),
            Value::text(["ab", "cdef"][i as usize % 2]),
        ]
    }

    #[test]
    fn packed_width_matches_figure5_math() {
        let s = schema();
        let c = comps();
        // 14 + 8 + 32 + 2 + 32 = 88 bits.
        assert_eq!(packed_tuple_bits(&s, &c), 88);
        assert_eq!(base_columns(&c), vec![1]);
        // One base (8 bytes) reserved; (4068-8)*8/88 = 369.
        assert_eq!(packed_tuples_per_page(4096, &s, &c), 369);
    }

    #[test]
    fn roundtrip_all_codecs() {
        let s = schema();
        let c = comps();
        let mut b = PackedRowPageBuilder::new(4096, &s, &c).unwrap();
        let n = 200;
        for i in 0..n {
            b.push(&row(i)).unwrap();
        }
        let page = b.build(&s, &c, PageId(5)).unwrap();
        assert_eq!(page.len(), 4096);

        let p = PackedRowPage::new(&page, &c).unwrap();
        assert_eq!(p.count(), n as usize);
        let mut cur = p.cursor(&s, &c);
        for i in 0..n {
            assert!(cur.advance().unwrap());
            assert_eq!(cur.field_int(0).unwrap(), i % 2400);
            assert_eq!(cur.field_int(1).unwrap(), 1000 + i);
            assert_eq!(cur.field_int(2).unwrap(), -i);
            let mut raw = Vec::new();
            cur.field_raw(3, &mut raw).unwrap();
            assert_eq!(raw, ["F", "O", "P"][i as usize % 3].as_bytes());
            raw.clear();
            cur.field_raw(4, &mut raw).unwrap();
            assert_eq!(raw.len(), 12);
            let txt = Value::decode(DataType::Text(12), &raw).unwrap();
            assert_eq!(txt.to_string(), ["ab", "cdef"][i as usize % 2]);
        }
        assert!(!cur.advance().unwrap());
    }

    #[test]
    fn capacity_enforced() {
        let s = schema();
        let c = comps();
        let mut b = PackedRowPageBuilder::new(4096, &s, &c).unwrap();
        let cap = b.capacity();
        for i in 0..cap as i32 {
            b.push(&row(i)).unwrap();
        }
        assert!(b.is_full());
        assert!(b.push(&row(0)).is_err());
    }

    #[test]
    fn delta_needs_monotone_rows() {
        let s = schema();
        let c = comps();
        let mut b = PackedRowPageBuilder::new(4096, &s, &c).unwrap();
        b.push(&row(5)).unwrap();
        b.push(&row(1)).unwrap(); // key decreases
        assert!(b.build(&s, &c, PageId(0)).is_err());
    }

    #[test]
    fn bases_survive_page_boundaries() {
        // FOR codec with a min base that differs per page.
        let s = Schema::new(vec![Column::int("v")]).unwrap();
        let c = vec![ColumnCompression::new(Codec::For { bits: 8 }, None).unwrap()];
        let mut b = PackedRowPageBuilder::new(256, &s, &c).unwrap();
        let cap = b.capacity();
        let vals: Vec<i32> = (0..cap as i32).map(|i| 10_000 + (i % 100)).collect();
        for &v in &vals {
            b.push(&[Value::Int(v)]).unwrap();
        }
        let page = b.build(&s, &c, PageId(0)).unwrap();
        let p = PackedRowPage::new(&page, &c).unwrap();
        let mut cur = p.cursor(&s, &c);
        for &v in &vals {
            cur.advance().unwrap();
            assert_eq!(cur.field_int(0).unwrap(), v);
        }
    }
}
