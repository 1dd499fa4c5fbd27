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

use rodb_compress::{BitReader, BitWriter, Codec, ColumnCompression};
use rodb_types::{DataType, Error, PageId, Result, Schema, Value};

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
        .filter(|(_, c)| matches!(c.codec, Codec::For { .. } | Codec::ForDelta { .. }))
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
        let base_cols = base_columns(comps);
        // Compute per-column bases over the page.
        let mut bases = Vec::with_capacity(base_cols.len());
        for &c in &base_cols {
            let vals: Result<Vec<i64>> = self
                .rows
                .iter()
                .map(|r| r[c].as_int().map(|v| v as i64))
                .collect();
            let vals = vals?;
            let base = match comps[c].codec {
                Codec::For { .. } => vals.iter().copied().min().unwrap_or(0),
                Codec::ForDelta { .. } => vals.first().copied().unwrap_or(0),
                _ => unreachable!("base_columns filters"),
            };
            bases.push(base);
        }

        let mut w = BitWriter::new();
        let mut prev: Vec<i64> = vec![0; schema.len()];
        for (ti, row) in self.rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(Error::corrupt("row arity mismatch"));
            }
            for (ci, (v, comp)) in row.iter().zip(comps).enumerate() {
                let dtype = schema.dtype(ci);
                match &comp.codec {
                    Codec::None => {
                        let mut buf = Vec::with_capacity(dtype.width());
                        v.encode_into(dtype, &mut buf)?;
                        for b in buf {
                            w.write(b as u64, 8)?;
                        }
                    }
                    Codec::BitPack { bits } => {
                        let iv = v.as_int()?;
                        if iv < 0 {
                            return Err(Error::ValueOutOfDomain(
                                "negative value under BitPack".into(),
                            ));
                        }
                        w.write(iv as u64, *bits)?;
                    }
                    Codec::Dict { bits } => {
                        let dict = comp.dict.as_ref().ok_or_else(|| {
                            Error::InvalidConfig("Dict codec without dictionary".into())
                        })?;
                        w.write(dict.code_of(dtype, v)? as u64, *bits)?;
                    }
                    Codec::For { bits } => {
                        let base = bases[base_cols.iter().position(|&b| b == ci).unwrap()];
                        let code = (v.as_int()? as i64 - base) as u64;
                        w.write(code, *bits)?;
                    }
                    Codec::ForDelta { bits } => {
                        let iv = v.as_int()? as i64;
                        let code = if ti == 0 { 0 } else { iv - prev[ci] };
                        if code < 0 {
                            return Err(Error::ValueOutOfDomain(
                                "negative delta under FOR-delta".into(),
                            ));
                        }
                        w.write(code as u64, *bits)?;
                        prev[ci] = iv;
                    }
                    Codec::Rle { .. }
                    | Codec::Pfor { .. }
                    | Codec::DictFor { .. }
                    | Codec::RleDict { .. } => {
                        // Variable-rate / page-relative codecs are demoted to
                        // their packed_equivalent() by the loader before a row
                        // format is built; reaching here is a planner bug.
                        return Err(Error::InvalidConfig(format!(
                            "codec {:?} is not supported in packed row pages",
                            comp.codec.kind()
                        )));
                    }
                    Codec::TextPack { bytes } => {
                        let t = v.as_text()?;
                        let nb = *bytes as usize;
                        if t.len() > nb && t[nb..].iter().any(|&b| b != 0) {
                            return Err(Error::ValueOutOfDomain(
                                "text content exceeds TextPack width".into(),
                            ));
                        }
                        for k in 0..nb {
                            w.write(*t.get(k).unwrap_or(&0) as u64, 8)?;
                        }
                    }
                }
                if matches!(comp.codec, Codec::ForDelta { .. }) {
                    // prev already updated above
                } else if let Ok(iv) = v.as_int() {
                    prev[ci] = iv as i64;
                }
            }
        }

        let mut page = vec![0u8; self.page_size];
        page[0..4].copy_from_slice(&(self.rows.len() as u32).to_le_bytes());
        let mut off = PAGE_HEADER;
        for b in &bases {
            page[off..off + 8].copy_from_slice(&b.to_le_bytes());
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
        let base_cols = base_columns(comps);
        let data_start = PAGE_HEADER + base_cols.len() * 8;
        let mut field_bit_off = Vec::with_capacity(schema.len());
        let mut acc = 0usize;
        for (c, comp) in schema.columns().iter().zip(comps) {
            field_bit_off.push(acc);
            acc += comp.bits_per_value(c.dtype);
        }
        let mut running = vec![0i64; schema.len()];
        for (k, &c) in base_cols.iter().enumerate() {
            running[c] = self.bases[k];
        }
        PackedRowCursor {
            reader: BitReader::new(&self.bytes[data_start..self.bytes.len() - PAGE_TRAILER]),
            schema,
            comps,
            count: self.count,
            tuple_bits: acc,
            field_bit_off,
            tuple: 0,
            running,
            started: false,
            codes_decoded: 0,
        }
    }
}

/// Sequential tuple cursor. Call [`PackedRowCursor::advance`] before reading
/// each tuple's fields; FOR-delta fields are maintained incrementally.
pub struct PackedRowCursor<'a> {
    reader: BitReader<'a>,
    schema: &'a Schema,
    comps: &'a [ColumnCompression],
    count: usize,
    tuple_bits: usize,
    field_bit_off: Vec<usize>,
    /// 1-based position: 0 = before first tuple.
    tuple: usize,
    running: Vec<i64>,
    started: bool,
    codes_decoded: u64,
}

impl PackedRowCursor<'_> {
    /// Move to the next tuple; false at end of page. Decodes the delta
    /// fields of the new tuple (mandatory work, like the paper says).
    pub fn advance(&mut self) -> Result<bool> {
        let next = if self.started { self.tuple + 1 } else { 0 };
        if next >= self.count {
            return Ok(false);
        }
        for (ci, comp) in self.comps.iter().enumerate() {
            if let Codec::ForDelta { bits } = comp.codec {
                let off = next * self.tuple_bits + self.field_bit_off[ci];
                let d = self.reader.read_at(off, bits)? as i64;
                if next > 0 {
                    self.running[ci] += d;
                }
                self.codes_decoded += 1;
            }
        }
        self.tuple = next;
        self.started = true;
        Ok(true)
    }

    /// Codes decoded so far (delta maintenance + field reads).
    pub fn codes_decoded(&self) -> u64 {
        self.codes_decoded
    }

    /// Read the raw stored code of a field without decoding it — the entry
    /// point for code-space predicate evaluation. Only packed-code codecs
    /// (BitPack / Dict / FOR) have position-independent codes.
    pub fn field_code(&mut self, col: usize) -> Result<u64> {
        let off = self.tuple * self.tuple_bits + self.field_bit_off[col];
        match &self.comps[col].codec {
            Codec::BitPack { bits } | Codec::Dict { bits } | Codec::For { bits } => {
                self.reader.read_at(off, *bits)
            }
            c => Err(Error::InvalidConfig(format!(
                "codec {:?} has no position-independent code",
                c.kind()
            ))),
        }
    }

    /// Decode an integer field of the current tuple.
    pub fn field_int(&mut self, col: usize) -> Result<i32> {
        let comp = &self.comps[col];
        let off = self.tuple * self.tuple_bits + self.field_bit_off[col];
        self.codes_decoded += 1;
        Ok(match &comp.codec {
            Codec::ForDelta { .. } => self.running[col] as i32,
            Codec::BitPack { bits } => self.reader.read_at(off, *bits)? as i32,
            Codec::For { bits } => {
                (self.running[col] + self.reader.read_at(off, *bits)? as i64) as i32
            }
            Codec::Dict { bits } => {
                let code = self.reader.read_at(off, *bits)? as u32;
                comp.dict
                    .as_ref()
                    .ok_or_else(|| Error::InvalidConfig("Dict without dictionary".into()))?
                    .value_of(code)?
                    .as_int()?
            }
            Codec::None => {
                let mut v = 0u32;
                for b in 0..4 {
                    v |= (self.reader.read_at(off + b * 8, 8)? as u32) << (b * 8);
                }
                v as i32
            }
            Codec::TextPack { .. } => {
                return Err(Error::TypeMismatch {
                    expected: "Int",
                    got: "Text",
                })
            }
            c @ (Codec::Rle { .. }
            | Codec::Pfor { .. }
            | Codec::DictFor { .. }
            | Codec::RleDict { .. }) => {
                return Err(Error::InvalidConfig(format!(
                    "codec {:?} is not supported in packed row pages",
                    c.kind()
                )))
            }
        })
    }

    /// Decode any field of the current tuple to full-width raw bytes.
    pub fn field_raw(&mut self, col: usize, out: &mut Vec<u8>) -> Result<()> {
        let dtype = self.schema.dtype(col);
        match (&self.comps[col].codec, dtype) {
            (Codec::None, dt) => {
                let off = self.tuple * self.tuple_bits + self.field_bit_off[col];
                for b in 0..dt.width() {
                    out.push(self.reader.read_at(off + b * 8, 8)? as u8);
                }
                self.codes_decoded += 1;
                Ok(())
            }
            (Codec::TextPack { bytes }, DataType::Text(n)) => {
                let off = self.tuple * self.tuple_bits + self.field_bit_off[col];
                let nb = *bytes as usize;
                for b in 0..nb {
                    out.push(self.reader.read_at(off + b * 8, 8)? as u8);
                }
                out.extend(std::iter::repeat_n(0u8, n - nb));
                self.codes_decoded += 1;
                Ok(())
            }
            (Codec::Dict { bits }, dt) => {
                let off = self.tuple * self.tuple_bits + self.field_bit_off[col];
                let code = self.reader.read_at(off, *bits)? as u32;
                self.codes_decoded += 1;
                self.comps[col]
                    .dict
                    .as_ref()
                    .ok_or_else(|| Error::InvalidConfig("Dict without dictionary".into()))?
                    .value_of(code)?
                    .encode_into(dt, out)
            }
            (_, DataType::Int) => {
                let v = self.field_int(col)?;
                out.extend_from_slice(&v.to_le_bytes());
                Ok(())
            }
            (c, dt) => Err(Error::InvalidConfig(format!(
                "packed codec {:?} cannot decode {dt}",
                c.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::Column;
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
        assert!(cur.codes_decoded() > 0);
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
