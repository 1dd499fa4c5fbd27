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

use rodb_compress::{BitReader, BitWriter, ColumnCompression, Field};
use rodb_types::{Error, PageId, Result, Schema};

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

/// Builds packed row pages by staging each column's values as their stored
/// bytes, a page's worth at a time.
pub struct PackedRowPageBuilder {
    page_size: usize,
    capacity: usize,
    /// Per column, its declared width and the staged tuples' values at it.
    widths: Vec<usize>,
    cols: Vec<Vec<u8>>,
    count: usize,
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
            widths: schema.columns().iter().map(|c| c.dtype.width()).collect(),
            cols: vec![Vec::new(); schema.len()],
            count: 0,
        })
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tuples the page can still take.
    pub(crate) fn room(&self) -> usize {
        self.capacity.saturating_sub(self.count)
    }

    pub fn is_full(&self) -> bool {
        self.count >= self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Stage `n` tuples given column by column: `col(c)` holds column
    /// `c`'s `n` values as their stored bytes. Every column's length is
    /// checked before any is staged.
    pub fn push_columns<'c>(&mut self, col: impl Fn(usize) -> &'c [u8], n: usize) -> Result<()> {
        if n > self.room() {
            return Err(Error::corrupt("push into full packed row page"));
        }
        let sized = |(c, &w): (usize, &usize)| n.checked_mul(w) == Some(col(c).len());
        if !self.widths.iter().enumerate().all(sized) {
            return Err(Error::corrupt("packed row columns do not match the schema"));
        }
        for (c, staged) in self.cols.iter_mut().enumerate() {
            staged.extend_from_slice(col(c));
        }
        self.count += n;
        Ok(())
    }

    /// Encode the staged tuples and emit the page: each column's codes
    /// over the page at once, then interleaved tuple by tuple.
    pub fn build(
        &mut self,
        schema: &Schema,
        comps: &[ColumnCompression],
        page_id: PageId,
    ) -> Result<Vec<u8>> {
        if self.cols.len() != schema.len() || comps.len() != schema.len() {
            return Err(Error::corrupt("row arity mismatch"));
        }
        let codes = comps
            .iter()
            .zip(&self.cols)
            .enumerate()
            .map(|(ci, (comp, raw))| comp.page_codes(schema.dtype(ci), raw, self.count))
            .collect::<Result<Vec<_>>>()?;
        let tuple_bits = packed_tuple_bits(schema, comps);
        let mut w = BitWriter::with_capacity((self.count * tuple_bits).div_ceil(8));
        for i in 0..self.count {
            for col in &codes {
                col.write(i, &mut w);
            }
        }

        let mut page = vec![0u8; self.page_size];
        page[0..4].copy_from_slice(&(self.count as u32).to_le_bytes());
        let mut off = PAGE_HEADER;
        for k in base_columns(comps) {
            page[off..off + 8].copy_from_slice(&codes[k].base().to_le_bytes());
            off += 8;
        }
        let data = w.into_bytes();
        if off + data.len() > self.page_size - PAGE_TRAILER {
            return Err(Error::corrupt("packed rows overflow page"));
        }
        page[off..off + data.len()].copy_from_slice(&data);
        write_trailer(&mut page, page_id, 0);
        self.cols.iter_mut().for_each(Vec::clear);
        self.count = 0;
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

    /// The page's columns, each decodable as a block or at a slot: the
    /// scan's reader. Fails `Corrupt` when the claimed tuples overrun the
    /// body, before any slot is read.
    pub fn columns(
        &'a self,
        schema: &'a Schema,
        comps: &'a [ColumnCompression],
    ) -> Result<PackedColumns<'a>> {
        let cols = self.columns_unchecked(schema, comps);
        let body_bits = cols.reader.bit_len();
        if cols
            .count
            .checked_mul(cols.tuple_bits)
            .is_none_or(|bits| bits > body_bits)
        {
            return Err(Error::corrupt(format!(
                "packed row page claims {} tuples of {} bits in a {body_bits}-bit body",
                cols.count, cols.tuple_bits
            )));
        }
        Ok(cols)
    }

    fn columns_unchecked(
        &'a self,
        schema: &'a Schema,
        comps: &'a [ColumnCompression],
    ) -> PackedColumns<'a> {
        let data_start = PAGE_HEADER + self.bases.len() * 8;
        let mut bases = self.bases.iter();
        let mut tuple_bits = 0;
        let fields = schema
            .columns()
            .iter()
            .zip(comps)
            .map(|(c, comp)| {
                let base = comp.codec.has_base().then(|| bases.next()).flatten();
                let field = comp.field(c.dtype, base.copied().unwrap_or(0), 0);
                let off = tuple_bits;
                tuple_bits += comp.bits_per_value(c.dtype);
                (field, off)
            })
            .collect();
        PackedColumns {
            reader: BitReader::new(&self.bytes[data_start..self.bytes.len() - PAGE_TRAILER]),
            count: self.count,
            tuple_bits,
            fields,
        }
    }

    /// Sequential decoder over the page's tuples.
    pub fn cursor(
        &'a self,
        schema: &'a Schema,
        comps: &'a [ColumnCompression],
    ) -> PackedRowCursor<'a> {
        PackedRowCursor {
            cols: self.columns_unchecked(schema, comps),
            sums: vec![0; comps.len()],
            tuple: 0,
            started: false,
        }
    }
}

/// One packed row page's columns: each column's codec read half on this
/// page and its bit offset within a tuple. Tuple `slot`'s field of column
/// `col` sits at bit `slot × tuple_bits + off`, so a column is a strided run
/// of codes.
pub struct PackedColumns<'a> {
    reader: BitReader<'a>,
    count: usize,
    tuple_bits: usize,
    /// Per column: its field and its bit offset within a tuple.
    fields: Vec<(Field<'a>, usize)>,
}

impl PackedColumns<'_> {
    /// Tuples on the page.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Append every tuple's value of column `col`, in slot order, at full
    /// declared width. A FOR-delta column is decoded as one running sum.
    pub fn column_raw(&self, col: usize, out: &mut Vec<u8>) -> Result<()> {
        let (field, off) = self.field(col)?;
        field.raw_strided(&self.reader, off, self.tuple_bits, self.count, out)
    }

    /// Append every tuple's stored code of column `col`, undecoded — the
    /// entry point for code-space predicate evaluation. A FOR-delta code is
    /// a delta, not a position-independent code.
    pub fn column_codes(&self, col: usize, out: &mut Vec<u64>) -> Result<()> {
        let (field, off) = self.positional(col)?;
        out.extend(field.codes_strided(&self.reader, off, self.tuple_bits, self.count)?);
        Ok(())
    }

    /// Append column `col` of the tuple at `slot` at full declared width. A
    /// FOR-delta field has no value of its own at a slot: decode its column.
    #[inline]
    pub fn field_raw_at(&self, slot: usize, col: usize, out: &mut Vec<u8>) -> Result<()> {
        let (field, off) = self.positional(col)?;
        if slot >= self.count {
            return Err(Error::InvalidPlan(format!(
                "slot {slot} of a {}-tuple packed row page",
                self.count
            )));
        }
        field.raw(&self.reader, slot * self.tuple_bits + off, out)
    }

    #[inline]
    fn field(&self, col: usize) -> Result<(&Field<'_>, usize)> {
        let (field, off) = self
            .fields
            .get(col)
            .ok_or_else(|| Error::InvalidPlan(format!("column {col} of a packed row page")))?;
        Ok((field, *off))
    }

    /// [`PackedColumns::field`] where it is not FOR-delta.
    #[inline]
    fn positional(&self, col: usize) -> Result<(&Field<'_>, usize)> {
        let (field, off) = self.field(col)?;
        if field.is_delta() {
            return Err(Error::InvalidConfig(
                "a FOR-delta field has no position-independent code".into(),
            ));
        }
        Ok((field, off))
    }
}

/// Sequential tuple cursor. Call [`PackedRowCursor::advance`] before reading
/// each tuple's fields; FOR-delta fields are maintained incrementally. The
/// scan reads [`PackedColumns`] instead; this is the table oracle's decoder.
pub struct PackedRowCursor<'a> {
    cols: PackedColumns<'a>,
    /// FOR-delta columns: the running sum of the page's deltas up to the
    /// current tuple.
    sums: Vec<u64>,
    /// 0-based position of the current tuple.
    tuple: usize,
    started: bool,
}

impl PackedRowCursor<'_> {
    /// Move to the next tuple; false at end of page. Steps the delta fields
    /// to the new tuple (mandatory work, like the paper says).
    pub fn advance(&mut self) -> Result<bool> {
        let next = if self.started { self.tuple + 1 } else { 0 };
        if next >= self.cols.count {
            return Ok(false);
        }
        let cols = &self.cols;
        for ((field, off), sum) in cols.fields.iter().zip(&mut self.sums) {
            if field.is_delta() {
                let d = field.code(&cols.reader, next * cols.tuple_bits + off)?;
                // The first tuple's code is 0: the page base carries its value.
                if next > 0 {
                    *sum = sum.wrapping_add(d);
                }
            }
        }
        self.tuple = next;
        self.started = true;
        Ok(true)
    }

    /// Decode any field of the current tuple to full-width raw bytes.
    pub fn field_raw(&mut self, col: usize, out: &mut Vec<u8>) -> Result<()> {
        let (field, _) = self.cols.field(col)?;
        if field.is_delta() {
            return field.raw_of(self.sums[col], out);
        }
        self.cols.field_raw_at(self.tuple, col, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_compress::Codec;
    use rodb_types::{Column, DataType, Value};
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

    /// Stage one tuple through its values' stored bytes.
    fn push(b: &mut PackedRowPageBuilder, s: &Schema, row: &[Value]) -> Result<()> {
        let cols = row
            .iter()
            .zip(s.columns())
            .map(|(v, c)| {
                let mut raw = Vec::new();
                v.encode_into(c.dtype, &mut raw).map(|()| raw)
            })
            .collect::<Result<Vec<_>>>()?;
        b.push_columns(|c| &cols[c], 1)
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

    /// A value's bytes at full declared width.
    fn encoded(v: &Value, dtype: DataType) -> Vec<u8> {
        let mut raw = Vec::new();
        v.encode_into(dtype, &mut raw).unwrap();
        raw
    }

    #[test]
    fn roundtrip_all_codecs() {
        let s = schema();
        let c = comps();
        let mut b = PackedRowPageBuilder::new(4096, &s, &c).unwrap();
        let n = 200;
        for i in 0..n {
            push(&mut b, &s, &row(i)).unwrap();
        }
        let page = b.build(&s, &c, PageId(5)).unwrap();
        assert_eq!(page.len(), 4096);

        let p = PackedRowPage::new(&page, &c).unwrap();
        assert_eq!(p.count(), n as usize);
        let mut cur = p.cursor(&s, &c);
        for i in 0..n {
            assert!(cur.advance().unwrap());
            for (col, v) in row(i).iter().enumerate() {
                let mut raw = Vec::new();
                cur.field_raw(col, &mut raw).unwrap();
                assert_eq!(raw, encoded(v, s.dtype(col)), "tuple {i} column {col}");
            }
        }
        assert!(!cur.advance().unwrap());
    }

    /// Every codec packed rows carry, each field at an odd bit offset: a
    /// 3-bit int dictionary, then 13, 7, 32, 5, 2, 24, 40 and 64 bits.
    fn every_codec() -> (Schema, Vec<ColumnCompression>) {
        let s = Schema::new(vec![
            Column::int("dict_int"),
            Column::int("bitpack"),
            Column::int("for"),
            Column::int("raw"),
            Column::int("delta"),
            Column::text("dict_text", 3),
            Column::text("textpack", 9),
            Column::text("raw_text", 5),
            Column::new("raw_long", DataType::Long),
        ])
        .unwrap();
        let dict = |dtype, words: &[Value]| {
            let d = rodb_compress::Dictionary::build(dtype, words.iter()).unwrap();
            Some(Arc::new(d))
        };
        let ints = [7, -3, 900, 12, 0].map(Value::Int);
        let words = ["F", "OO", "PPP"].map(Value::text);
        let c = vec![
            ColumnCompression::new(Codec::Dict { bits: 3 }, dict(DataType::Int, &ints)).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 13 }, None).unwrap(),
            ColumnCompression::new(Codec::For { bits: 7 }, None).unwrap(),
            ColumnCompression::none(),
            ColumnCompression::new(Codec::ForDelta { bits: 5 }, None).unwrap(),
            ColumnCompression::new(Codec::Dict { bits: 2 }, dict(DataType::Text(3), &words))
                .unwrap(),
            ColumnCompression::new(Codec::TextPack { bytes: 3 }, None).unwrap(),
            ColumnCompression::none(),
            ColumnCompression::none(),
        ];
        (s, c)
    }

    fn every_codec_row(i: usize) -> Vec<Value> {
        vec![
            Value::Int([7, -3, 900, 12, 0][i % 5]),
            Value::Int((i * 37 % 8000) as i32),
            Value::Int(5000 + (i % 100) as i32),
            Value::Int(-(i as i32) * 7),
            Value::Int(1000 + 10 * i as i32 + (i % 3) as i32),
            Value::text(["F", "OO", "PPP"][i % 3]),
            Value::text(["ab", "cde", ""][i % 3]),
            Value::text(["x", "hello"][i % 2]),
            Value::Long(i as i64 * 10_000_000_000 - 7),
        ]
    }

    #[test]
    fn the_block_decoders_equal_the_cursor_for_every_codec() {
        let (s, c) = every_codec();
        let cap = packed_tuples_per_page(4096, &s, &c);
        assert_eq!(packed_tuple_bits(&s, &c), 190);
        for n in [cap, 1, 2, 130] {
            let mut b = PackedRowPageBuilder::new(4096, &s, &c).unwrap();
            for i in 0..n {
                push(&mut b, &s, &every_codec_row(i)).unwrap();
            }
            let page = b.build(&s, &c, PageId(3)).unwrap();
            let p = PackedRowPage::new(&page, &c).unwrap();
            // The oracle: every field of every tuple through the cursor.
            let mut cur = p.cursor(&s, &c);
            let mut want: Vec<Vec<Vec<u8>>> = vec![Vec::new(); s.len()];
            while cur.advance().unwrap() {
                for (col, want) in want.iter_mut().enumerate() {
                    let mut raw = Vec::new();
                    cur.field_raw(col, &mut raw).unwrap();
                    want.push(raw);
                }
            }
            let cols = p.columns(&s, &c).unwrap();
            assert_eq!(cols.count(), n);
            for (col, want) in want.iter().enumerate() {
                assert_eq!(want.len(), n);
                let what = format!("column {col} of {n}");
                let stored = (0..n).map(|i| encoded(&every_codec_row(i)[col], s.dtype(col)));
                assert_eq!(want, &stored.collect::<Vec<_>>(), "{what}");
                let mut raw = Vec::new();
                cols.column_raw(col, &mut raw).unwrap();
                assert_eq!(raw, want.concat(), "{what}");
                let delta = matches!(c[col].codec, Codec::ForDelta { .. });
                for (slot, want) in want.iter().enumerate() {
                    let mut raw = Vec::new();
                    let got = cols.field_raw_at(slot, col, &mut raw);
                    match delta {
                        true => assert!(matches!(got, Err(Error::InvalidConfig(_))), "{what}"),
                        false => assert_eq!((got, &raw), (Ok(()), want), "{what} slot {slot}"),
                    }
                }
                let past = cols.field_raw_at(n, col, &mut Vec::new());
                assert!(past.is_err(), "{what}: slot {n}");
                // Codes where the field stores codes: the value map of each
                // is the cursor's value.
                let mut codes = Vec::new();
                let got = cols.column_codes(col, &mut codes);
                let bytes = match &c[col].codec {
                    Codec::None => !s.dtype(col).is_int(),
                    codec => codec.kind() == rodb_compress::CodecKind::TextPack,
                };
                if delta || bytes {
                    assert!(got.is_err(), "{what}");
                    continue;
                }
                got.unwrap();
                assert_eq!(codes.len(), n, "{what}");
                let field = c[col].field(s.dtype(col), p.base_of(&c, col).unwrap_or(0), 0);
                for (code, want) in codes.iter().zip(want) {
                    let mut raw = Vec::new();
                    field.raw_of(*code, &mut raw).unwrap();
                    assert_eq!(&raw, want, "{what}");
                }
            }
        }
    }

    #[test]
    fn a_count_past_the_body_fails_before_any_slot_is_read() {
        let (s, c) = every_codec();
        let mut b = PackedRowPageBuilder::new(4096, &s, &c).unwrap();
        for i in 0..20 {
            push(&mut b, &s, &every_codec_row(i)).unwrap();
        }
        let mut page = b.build(&s, &c, PageId(9)).unwrap();
        let cap = packed_tuples_per_page(4096, &s, &c) as u32;
        for count in [cap, cap + 1, u32::MAX] {
            page[..4].copy_from_slice(&count.to_le_bytes());
            write_trailer(&mut page, PageId(9), 0);
            let p = PackedRowPage::new(&page, &c).unwrap();
            let got = p.columns(&s, &c).map(|cols| cols.count());
            match count {
                _ if count == cap => assert_eq!(got, Ok(cap as usize)),
                _ => assert!(matches!(got, Err(Error::Corrupt(_))), "{count}: {got:?}"),
            }
        }
    }

    #[test]
    fn capacity_enforced() {
        let s = schema();
        let c = comps();
        let mut b = PackedRowPageBuilder::new(4096, &s, &c).unwrap();
        let cap = b.capacity();
        for i in 0..cap as i32 {
            push(&mut b, &s, &row(i)).unwrap();
        }
        assert!(b.is_full());
        assert!(push(&mut b, &s, &row(0)).is_err());
    }

    #[test]
    fn delta_needs_monotone_rows() {
        let s = schema();
        let c = comps();
        let mut b = PackedRowPageBuilder::new(4096, &s, &c).unwrap();
        push(&mut b, &s, &row(5)).unwrap();
        push(&mut b, &s, &row(1)).unwrap(); // key decreases
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
            push(&mut b, &s, &[Value::Int(v)]).unwrap();
        }
        let page = b.build(&s, &c, PageId(0)).unwrap();
        let p = PackedRowPage::new(&page, &c).unwrap();
        let mut raw = Vec::new();
        p.columns(&s, &c).unwrap().column_raw(0, &mut raw).unwrap();
        let ints: Vec<i32> = raw
            .chunks_exact(4)
            .map(|v| i32::from_le_bytes([v[0], v[1], v[2], v[3]]))
            .collect();
        assert_eq!(ints, vals);
    }
}
