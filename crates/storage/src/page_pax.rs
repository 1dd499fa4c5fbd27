//! PAX page layout (Ailamaki et al., VLDB 2001), as discussed in the
//! paper's §6:
//!
//! > "PAX proposes a column-based layout for the records within a database
//! > page, taking advantage of the increased spatial locality to improve
//! > cache performance, similarly to column-based stores. However, since PAX
//! > does not change the actual contents of the page, I/O performance is
//! > identical to that of a row-store."
//!
//! A PAX page stores the same tuples as a row page, but grouped into one
//! *minipage per attribute*:
//!
//! ```text
//! [count: u32][col0 × C][col1 × C]...[colN × C][pad][trailer]
//! ```
//!
//! With `C` the fixed page capacity, the minipage of column `j` starts at
//! `C × schema.offset(j)` inside the body — the same prefix-sum arithmetic
//! as a tuple, scaled by the capacity. No padding between values, so a PAX
//! page holds slightly more tuples than a padded row page.

use rodb_types::{Error, PageId, Result, Schema, Value};

use crate::page::{write_trailer, PageView, VerifiedPage, PAGE_HEADER, PAGE_TRAILER};

/// Tuples per PAX page: the unpadded tuple width packs the body.
#[inline]
pub fn pax_tuples_per_page(page_size: usize, schema: &Schema) -> usize {
    (page_size - PAGE_HEADER - PAGE_TRAILER) / schema.logical_width()
}

/// Builds PAX pages by buffering whole tuples and emitting column-major.
#[derive(Debug)]
pub struct PaxPageBuilder {
    page_size: usize,
    capacity: usize,
    /// Raw tuples (logical width each), row-major until build.
    rows: Vec<u8>,
    width: usize,
    count: usize,
}

impl PaxPageBuilder {
    pub fn new(page_size: usize, schema: &Schema) -> PaxPageBuilder {
        PaxPageBuilder {
            page_size,
            capacity: pax_tuples_per_page(page_size, schema),
            rows: Vec::new(),
            width: schema.logical_width(),
            count: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_full(&self) -> bool {
        self.count >= self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append one raw tuple (logical width).
    pub fn push(&mut self, raw_tuple: &[u8]) -> Result<()> {
        if self.is_full() {
            return Err(Error::corrupt("push into full PAX page"));
        }
        if raw_tuple.len() != self.width {
            return Err(Error::corrupt(format!(
                "tuple of {} bytes for PAX width {}",
                raw_tuple.len(),
                self.width
            )));
        }
        self.rows.extend_from_slice(raw_tuple);
        self.count += 1;
        Ok(())
    }

    /// Emit the finished page: pivot the buffered tuples into minipages.
    pub fn build(&mut self, schema: &Schema, page_id: PageId) -> Vec<u8> {
        let mut page = vec![0u8; self.page_size];
        page[0..4].copy_from_slice(&(self.count as u32).to_le_bytes());
        let cap = self.capacity;
        for (ci, col) in schema.columns().iter().enumerate() {
            let w = col.dtype.width();
            let src_off = schema.offset(ci);
            let mini_start = PAGE_HEADER + cap * src_off;
            for t in 0..self.count {
                let src = &self.rows[t * self.width + src_off..t * self.width + src_off + w];
                page[mini_start + t * w..mini_start + (t + 1) * w].copy_from_slice(src);
            }
        }
        // Trailer: page id; no compression base.
        write_trailer(&mut page, page_id, 0);
        self.rows.clear();
        self.count = 0;
        page
    }
}

impl VerifiedPage {
    /// Re-open as a PAX page (structural checks only).
    pub fn pax(&self, schema: &Schema) -> Result<PaxPage<'_>> {
        PaxPage::from_view(self.view(), schema)
    }
}

/// Read-side view of one PAX page.
#[derive(Debug, Clone, Copy)]
pub struct PaxPage<'a> {
    view: PageView<'a>,
    capacity: usize,
}

impl<'a> PaxPage<'a> {
    pub fn new(bytes: &'a [u8], schema: &Schema) -> Result<PaxPage<'a>> {
        PaxPage::from_view(PageView::new(bytes)?, schema)
    }

    /// The structural checks behind a passed checksum.
    fn from_view(view: PageView<'a>, schema: &Schema) -> Result<PaxPage<'a>> {
        let capacity = pax_tuples_per_page(view.bytes().len(), schema);
        if view.count() > capacity {
            return Err(Error::corrupt(format!(
                "PAX page claims {} tuples, capacity {capacity}",
                view.count()
            )));
        }
        Ok(PaxPage { view, capacity })
    }

    pub fn count(&self) -> usize {
        self.view.count()
    }

    pub fn page_id(&self) -> PageId {
        self.view.page_id()
    }

    /// Raw bytes of column `col` of tuple `i` — contiguous per column, the
    /// cache-locality property PAX exists for.
    #[inline]
    pub fn field(&self, schema: &Schema, i: usize, col: usize) -> &'a [u8] {
        let w = schema.dtype(col).width();
        let body = self.view.body();
        let mini = self.capacity * schema.offset(col);
        &body[mini + i * w..mini + (i + 1) * w]
    }

    /// The whole minipage of a column (count × width bytes).
    pub fn minipage(&self, schema: &Schema, col: usize) -> &'a [u8] {
        let w = schema.dtype(col).width();
        let body = self.view.body();
        let mini = self.capacity * schema.offset(col);
        &body[mini..mini + self.count() * w]
    }

    /// Decode a field to an owned value.
    pub fn value(&self, schema: &Schema, i: usize, col: usize) -> Result<Value> {
        Value::decode(schema.dtype(col), self.field(schema, i, col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::{tuple, Column};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::int("a"),
            Column::text("t", 5),
            Column::int("b"),
        ])
        .unwrap()
    }

    fn raw(i: i32, s: &Schema) -> Vec<u8> {
        let mut out = Vec::new();
        tuple::encode_tuple(
            s,
            &[Value::Int(i), Value::text("pax"), Value::Int(-i)],
            &mut out,
        )
        .unwrap();
        out
    }

    #[test]
    fn capacity_beats_padded_rows() {
        let s = schema(); // 13 B logical, 16 B stored
        assert_eq!(pax_tuples_per_page(4096, &s), 4068 / 13);
        assert!(
            pax_tuples_per_page(4096, &s)
                > crate::page::row_tuples_per_page(4096, s.stored_width())
        );
    }

    #[test]
    fn roundtrip_and_minipage_contiguity() {
        let s = schema();
        let mut b = PaxPageBuilder::new(1024, &s);
        let n = 40usize;
        for i in 0..n {
            b.push(&raw(i as i32, &s)).unwrap();
        }
        let page = b.build(&s, PageId(9));
        assert_eq!(page.len(), 1024);
        let p = PaxPage::new(&page, &s).unwrap();
        assert_eq!(p.count(), n);
        assert_eq!(p.page_id(), PageId(9));
        for i in 0..n {
            assert_eq!(p.value(&s, i, 0).unwrap(), Value::Int(i as i32));
            assert_eq!(p.value(&s, i, 1).unwrap().to_string(), "pax");
            assert_eq!(p.value(&s, i, 2).unwrap(), Value::Int(-(i as i32)));
        }
        // Minipage of column 0 is the ints back-to-back.
        let mini = p.minipage(&s, 0);
        assert_eq!(mini.len(), n * 4);
        for (i, chunk) in mini.chunks_exact(4).enumerate() {
            assert_eq!(i32::from_le_bytes(chunk.try_into().unwrap()), i as i32);
        }
    }

    #[test]
    fn full_and_mismatched_pushes_rejected() {
        let s = schema();
        let mut b = PaxPageBuilder::new(256, &s);
        let cap = b.capacity();
        for i in 0..cap {
            b.push(&raw(i as i32, &s)).unwrap();
        }
        assert!(b.is_full());
        assert!(b.push(&raw(0, &s)).is_err());
        let mut b2 = PaxPageBuilder::new(256, &s);
        assert!(b2.push(&[0u8; 3]).is_err());
    }

    #[test]
    fn corrupt_count_rejected() {
        let s = schema();
        let mut page = vec![0u8; 512];
        page[0..4].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(PaxPage::new(&page, &s).is_err());
    }

    #[test]
    fn partial_page() {
        let s = schema();
        let mut b = PaxPageBuilder::new(4096, &s);
        b.push(&raw(7, &s)).unwrap();
        let page = b.build(&s, PageId(0));
        assert!(b.is_empty());
        let p = PaxPage::new(&page, &s).unwrap();
        assert_eq!(p.count(), 1);
        assert_eq!(p.value(&s, 0, 2).unwrap(), Value::Int(-7));
    }
}
