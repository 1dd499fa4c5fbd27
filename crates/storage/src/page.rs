//! Dense-packed page format (Figure 3 of the paper).
//!
//! Because a read-optimized store has no real-time updates, pages forego the
//! slotted layout: they are a count followed by a tightly packed array of
//! values — whole tuples for row data, single-attribute values for column
//! data. Page-specific information (the page ID, which together with a
//! tuple's position gives the Record ID, plus compression metadata) lives in
//! a fixed-size trailer at the end of the page.
//!
//! ```text
//! ROW page:    [count: u32][tuple 0][tuple 1]...[pad][trailer]
//! COLUMN page: [count: u32][packed codes............][pad][trailer]
//! trailer:     [page_id: u64][base: i64][reserved: u32][crc32: u32]  (24 bytes)
//! ```
//!
//! The trailing CRC-32 (IEEE polynomial, LE) covers every byte of the page
//! except the checksum itself — header, body, padding, page id, base and the
//! reserved word — so a single flipped bit anywhere is caught when the page
//! is next opened. Compressed layouts amplify bit damage across many tuples,
//! which is why verification happens at page-open time on the scan path.

use std::cell::Cell;

use rodb_compress::{ColumnCompression, PageValues};
use rodb_io::PageRef;
use rodb_types::{CorruptKind, DataType, Error, PageId, Result, Schema, Value};

pub use crate::crc::crc32;

/// Bytes of the page header (the entry count).
pub const PAGE_HEADER: usize = 4;
/// Bytes of the page trailer (page id + compression base + reserved + crc).
pub const PAGE_TRAILER: usize = 24;

/// Usable body bytes of a page.
#[inline]
pub fn body_capacity(page_size: usize) -> usize {
    page_size - PAGE_HEADER - PAGE_TRAILER
}

/// How many row-store tuples of `stored_width` bytes fit in one page.
#[inline]
pub fn row_tuples_per_page(page_size: usize, stored_width: usize) -> usize {
    body_capacity(page_size) / stored_width
}

/// How many column values of `bits` bits fit in one page.
#[inline]
pub fn col_values_per_page(page_size: usize, bits: usize) -> usize {
    body_capacity(page_size) * 8 / bits
}

/// Write the 24-byte trailer and seal the page with its CRC. Every page
/// builder (row, packed row, PAX, column) must finish through here so the
/// read side can verify unconditionally.
pub(crate) fn write_trailer(page: &mut [u8], page_id: PageId, base: i64) {
    write_trailer_zone(page, page_id, base, 0);
}

/// [`write_trailer`] with a zone map in the reserved word.
///
/// Integer column pages encode their value range as `[base, base + zone - 1]`
/// — `base` is the page minimum and `zone` is `(max - min) + 1`. `zone == 0`
/// means "no zone map" (row/PAX/packed/text pages, empty pages, and the
/// degenerate full-`i32`-span page whose range does not fit the u32), which
/// is also what every pre-zone page carries, so old and new trailers parse
/// identically. The CRC is computed after the zone is written, so checksums
/// cover it automatically.
pub(crate) fn write_trailer_zone(page: &mut [u8], page_id: PageId, base: i64, zone: u32) {
    let n = page.len();
    page[n - 24..n - 16].copy_from_slice(&page_id.0.to_le_bytes());
    page[n - 16..n - 8].copy_from_slice(&base.to_le_bytes());
    page[n - 8..n - 4].copy_from_slice(&zone.to_le_bytes());
    let crc = crc32(&page[..n - 4]);
    page[n - 4..n].copy_from_slice(&crc.to_le_bytes());
}

/// Parse the zone map out of a raw page's trailer without checksum
/// verification (zone peeks model catalog-resident metadata — the scanner
/// consults them *before* deciding to read the page, and a skipped page is
/// never parsed). Returns `(min, max)` or `None` when the page carries no
/// zone.
pub fn page_zone(bytes: &[u8]) -> Option<(i64, i64)> {
    let n = bytes.len();
    if n < PAGE_HEADER + PAGE_TRAILER {
        return None;
    }
    let zone = u32::from_le_bytes([bytes[n - 8], bytes[n - 7], bytes[n - 6], bytes[n - 5]]);
    if zone == 0 {
        return None;
    }
    let base = read_u64(&bytes[n - 16..n - 8]) as i64;
    Some((base, base + (zone - 1) as i64))
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

thread_local! {
    /// Checksum passes [`PageView::new`] ran on this thread.
    static VERIFIED_PAGES: Cell<u64> = const { Cell::new(0) };
}

/// Whole-page checksum passes run on the calling thread so far (every
/// [`PageView::new`], pass or fail). Read-only telemetry for the verify-once
/// invariant — a scanner must not verify more pages than its streams
/// delivered; it feeds no result.
pub fn verified_pages() -> u64 {
    VERIFIED_PAGES.with(Cell::get)
}

/// Common read-side page view: header/trailer decoding and body access.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    bytes: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wrap one page-sized byte slice, verifying its checksum. This is the
    /// only place page bytes are checksummed on the read side: a caller that
    /// must open the same delivered page again holds a [`VerifiedPage`].
    pub fn new(bytes: &'a [u8]) -> Result<PageView<'a>> {
        VERIFIED_PAGES.with(|c| c.set(c.get() + 1));
        let n = bytes.len();
        if n < PAGE_HEADER + PAGE_TRAILER {
            return Err(Error::corrupt_kind(
                CorruptKind::Truncated,
                format!("page of {n} bytes"),
            ));
        }
        let stored = u32::from_le_bytes([bytes[n - 4], bytes[n - 3], bytes[n - 2], bytes[n - 1]]);
        let actual = crc32(&bytes[..n - 4]);
        if stored != actual {
            return Err(Error::corrupt_kind(
                CorruptKind::Checksum,
                format!("page checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
            ));
        }
        Ok(PageView { bytes })
    }

    /// The whole page, header and trailer included.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Number of entries (tuples or values) stored in the page.
    pub fn count(&self) -> usize {
        u32::from_le_bytes([self.bytes[0], self.bytes[1], self.bytes[2], self.bytes[3]]) as usize
    }

    /// The page's ID from the trailer.
    pub fn page_id(&self) -> PageId {
        let n = self.bytes.len();
        PageId(read_u64(&self.bytes[n - 24..n - 16]))
    }

    /// The compression base value from the trailer (FOR/FOR-delta).
    pub fn base(&self) -> i64 {
        let n = self.bytes.len();
        read_u64(&self.bytes[n - 16..n - 8]) as i64
    }

    /// The dense body region.
    pub fn body(&self) -> &'a [u8] {
        &self.bytes[PAGE_HEADER..self.bytes.len() - PAGE_TRAILER]
    }
}

/// Builds row pages from pre-encoded tuples.
#[derive(Debug)]
pub struct RowPageBuilder {
    page_size: usize,
    stored_width: usize,
    capacity: usize,
    buf: Vec<u8>,
    count: usize,
}

impl RowPageBuilder {
    pub fn new(page_size: usize, schema: &Schema) -> RowPageBuilder {
        let stored_width = schema.stored_width();
        RowPageBuilder {
            page_size,
            stored_width,
            capacity: row_tuples_per_page(page_size, stored_width),
            buf: Vec::with_capacity(page_size),
            count: 0,
        }
    }

    /// Tuples that fit per page.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_full(&self) -> bool {
        self.count >= self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append one tuple's raw bytes (logical width; padding added here).
    pub fn push(&mut self, raw_tuple: &[u8]) -> Result<()> {
        if self.is_full() {
            return Err(Error::corrupt("push into full row page"));
        }
        if raw_tuple.len() > self.stored_width {
            return Err(Error::corrupt(format!(
                "tuple of {} bytes, stored width {}",
                raw_tuple.len(),
                self.stored_width
            )));
        }
        self.buf.extend_from_slice(raw_tuple);
        self.buf.extend(std::iter::repeat_n(
            0u8,
            self.stored_width - raw_tuple.len(),
        ));
        self.count += 1;
        Ok(())
    }

    /// Emit the finished page (exactly `page_size` bytes) and reset.
    pub fn build(&mut self, page_id: PageId) -> Vec<u8> {
        let mut page = vec![0u8; self.page_size];
        page[0..4].copy_from_slice(&(self.count as u32).to_le_bytes());
        page[PAGE_HEADER..PAGE_HEADER + self.buf.len()].copy_from_slice(&self.buf);
        write_trailer(&mut page, page_id, 0);
        self.buf.clear();
        self.count = 0;
        page
    }
}

/// Read-side view of one row page.
#[derive(Debug, Clone, Copy)]
pub struct RowPage<'a> {
    view: PageView<'a>,
    stored_width: usize,
}

impl<'a> RowPage<'a> {
    pub fn new(bytes: &'a [u8], stored_width: usize) -> Result<RowPage<'a>> {
        RowPage::from_view(PageView::new(bytes)?, stored_width)
    }

    /// The structural checks behind a passed checksum.
    fn from_view(view: PageView<'a>, stored_width: usize) -> Result<RowPage<'a>> {
        let count = view.count();
        if count * stored_width > view.body().len() {
            return Err(Error::corrupt(format!(
                "row page claims {count} tuples of {stored_width} bytes"
            )));
        }
        Ok(RowPage { view, stored_width })
    }

    pub fn count(&self) -> usize {
        self.view.count()
    }

    pub fn page_id(&self) -> PageId {
        self.view.page_id()
    }

    /// Raw bytes of tuple `i` (stored width, including padding).
    #[inline]
    pub fn tuple(&self, i: usize) -> &'a [u8] {
        let body = self.view.body();
        &body[i * self.stored_width..(i + 1) * self.stored_width]
    }

    /// Iterate raw tuples.
    pub fn tuples(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        (0..self.count()).map(move |i| self.tuple(i))
    }
}

/// Builds column pages by buffering values and encoding them on emit.
#[derive(Debug)]
pub struct ColumnPageBuilder {
    page_size: usize,
    dtype: DataType,
    capacity: usize,
    values: Vec<Value>,
}

impl ColumnPageBuilder {
    pub fn new(page_size: usize, dtype: DataType, comp: &ColumnCompression) -> ColumnPageBuilder {
        let bits = comp.bits_per_value(dtype);
        // Codecs with a per-page blob header (Dict→FOR's code base, the RLE
        // family's run count) lose those bytes from the code area. For
        // variable-rate codecs `bits` is the worst case, so this capacity is
        // a guaranteed-fit floor; the loader raises it by trial encoding
        // (see `TableBuilder::fit_values_per_page`).
        let body_bits = (body_capacity(page_size) - comp.codec.blob_header_bytes()) * 8;
        ColumnPageBuilder {
            page_size,
            dtype,
            capacity: body_bits / bits,
            values: Vec::new(),
        }
    }

    /// A builder with an externally chosen capacity — used for variable-rate
    /// codecs where the loader has verified by trial encoding that this many
    /// values fit. `build` still errors if an overfull page slips through.
    pub fn with_capacity(page_size: usize, dtype: DataType, capacity: usize) -> ColumnPageBuilder {
        ColumnPageBuilder {
            page_size,
            dtype,
            capacity,
            values: Vec::new(),
        }
    }

    /// Values that fit per page under the configured codec.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_full(&self) -> bool {
        self.values.len() >= self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn push(&mut self, v: Value) -> Result<()> {
        if self.is_full() {
            return Err(Error::corrupt("push into full column page"));
        }
        v.check_fits(self.dtype)?;
        self.values.push(v);
        Ok(())
    }

    /// Encode the buffered values and emit the finished page.
    pub fn build(&mut self, comp: &ColumnCompression, page_id: PageId) -> Result<Vec<u8>> {
        let enc = comp.encode_page(self.dtype, &self.values)?;
        let mut page = vec![0u8; self.page_size];
        if PAGE_HEADER + enc.data.len() > self.page_size - PAGE_TRAILER {
            return Err(Error::corrupt(format!(
                "encoded column body of {} bytes exceeds page",
                enc.data.len()
            )));
        }
        page[0..4].copy_from_slice(&(self.values.len() as u32).to_le_bytes());
        page[PAGE_HEADER..PAGE_HEADER + enc.data.len()].copy_from_slice(&enc.data);
        // Zone map for integer pages: trailer base = page min, reserved =
        // range + 1. Safe to overload base: FOR's encode base *is* the page
        // min, FOR-delta's base (the first value of a non-decreasing page)
        // equals the min, and the remaining codecs ignore base on decode.
        let zone = match self.dtype {
            DataType::Int if !self.values.is_empty() => {
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                for v in &self.values {
                    let iv = v.as_int()? as i64;
                    lo = lo.min(iv);
                    hi = hi.max(iv);
                }
                u32::try_from(hi - lo + 1).ok().map(|z| (lo, z))
            }
            _ => None,
        };
        match zone {
            Some((lo, z)) => {
                debug_assert!(
                    !comp.codec.has_base() || enc.base == lo,
                    "FOR-family base must equal the page min"
                );
                write_trailer_zone(&mut page, page_id, lo, z);
            }
            None => write_trailer(&mut page, page_id, enc.base),
        }
        self.values.clear();
        Ok(page)
    }
}

/// A page delivered by a [`rodb_io::FileStream`] whose checksum has passed —
/// the proof travels with the held page, so a scan node that reads many
/// positions from one page verifies it once, not once per position.
///
/// The only constructor is [`VerifiedPage::verify`], and a [`PageRef`]'s
/// bytes are immutable, so the re-openers ([`VerifiedPage::row`],
/// [`VerifiedPage::packed`], [`VerifiedPage::pax`], [`VerifiedPage::column`])
/// cannot be reached with bytes that were not checksummed. A page that
/// *fails* verification gets no `VerifiedPage`.
#[derive(Debug, Clone)]
pub struct VerifiedPage {
    page: PageRef,
}

impl VerifiedPage {
    /// The one checksum pass for this delivered page.
    pub fn verify(page: &PageRef) -> Result<VerifiedPage> {
        PageView::new(page.bytes())?;
        Ok(VerifiedPage { page: page.clone() })
    }

    /// The already verified bytes as a view — no checksum pass.
    pub(crate) fn view(&self) -> PageView<'_> {
        PageView {
            bytes: self.page.bytes(),
        }
    }

    /// Entries (tuples or values) the page header claims.
    pub fn count(&self) -> usize {
        self.view().count()
    }

    /// Re-open as a plain row page (structural checks only).
    pub fn row(&self, stored_width: usize) -> Result<RowPage<'_>> {
        RowPage::from_view(self.view(), stored_width)
    }

    /// Re-open as a column page.
    pub fn column(&self, dtype: DataType) -> ColumnPage<'_> {
        ColumnPage {
            view: self.view(),
            dtype,
        }
    }
}

/// Read-side view of one column page: decodes the trailer and hands back a
/// [`PageValues`] decoder.
#[derive(Debug, Clone, Copy)]
pub struct ColumnPage<'a> {
    view: PageView<'a>,
    dtype: DataType,
}

impl<'a> ColumnPage<'a> {
    pub fn new(bytes: &'a [u8], dtype: DataType) -> Result<ColumnPage<'a>> {
        Ok(ColumnPage {
            view: PageView::new(bytes)?,
            dtype,
        })
    }

    pub fn count(&self) -> usize {
        self.view.count()
    }

    pub fn page_id(&self) -> PageId {
        self.view.page_id()
    }

    /// Open the packed values with their codec.
    pub fn values(&self, comp: &'a ColumnCompression) -> PageValues<'a> {
        comp.open_page(
            self.dtype,
            self.view.body(),
            self.view.count(),
            self.view.base(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_compress::Codec;
    use rodb_types::{tuple, Column};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::int("a"),
            Column::text("b", 3),
            Column::int("c"),
        ])
        .unwrap()
    }

    #[test]
    fn capacities() {
        // 4096 - 28 = 4068 body bytes.
        assert_eq!(body_capacity(4096), 4068);
        assert_eq!(row_tuples_per_page(4096, 152), 26); // LINEITEM rows
        assert_eq!(row_tuples_per_page(4096, 32), 127); // ORDERS rows
        assert_eq!(col_values_per_page(4096, 32), 1017); // raw int column
        assert_eq!(col_values_per_page(4096, 3), 10848); // 3-bit packed column
    }

    #[test]
    fn row_page_roundtrip() {
        let s = schema();
        let mut b = RowPageBuilder::new(512, &s);
        let cap = b.capacity();
        assert!(cap > 0);
        let mut raws = Vec::new();
        for i in 0..cap {
            let mut raw = Vec::new();
            tuple::encode_tuple(
                &s,
                &[
                    Value::Int(i as i32),
                    Value::text("xy"),
                    Value::Int(-(i as i32)),
                ],
                &mut raw,
            )
            .unwrap();
            b.push(&raw).unwrap();
            raws.push(raw);
        }
        assert!(b.is_full());
        assert!(b.push(&raws[0]).is_err());
        let page = b.build(PageId(7));
        assert_eq!(page.len(), 512);
        assert!(b.is_empty());

        let rp = RowPage::new(&page, s.stored_width()).unwrap();
        assert_eq!(rp.count(), cap);
        assert_eq!(rp.page_id(), PageId(7));
        for (i, raw) in raws.iter().enumerate() {
            assert_eq!(&rp.tuple(i)[..s.logical_width()], raw.as_slice());
            assert_eq!(tuple::read_int(&s, rp.tuple(i), 0), i as i32);
        }
        assert_eq!(rp.tuples().count(), cap);
    }

    #[test]
    fn column_page_roundtrip_compressed() {
        let comp = ColumnCompression::new(Codec::For { bits: 12 }, None).unwrap();
        let mut b = ColumnPageBuilder::new(4096, DataType::Int, &comp);
        assert_eq!(b.capacity(), col_values_per_page(4096, 12));
        let n = 100usize;
        for i in 0..n {
            b.push(Value::Int(5000 + (i as i32 % 97))).unwrap();
        }
        let page = b.build(&comp, PageId(3)).unwrap();
        let cp = ColumnPage::new(&page, DataType::Int).unwrap();
        assert_eq!(cp.count(), n);
        assert_eq!(cp.page_id(), PageId(3));
        let pv = cp.values(&comp);
        for i in 0..n {
            assert_eq!(pv.int_at(i).unwrap(), 5000 + (i as i32 % 97));
        }
    }

    #[test]
    fn column_page_negative_base_survives_trailer() {
        let comp = ColumnCompression::new(Codec::For { bits: 8 }, None).unwrap();
        let mut b = ColumnPageBuilder::new(256, DataType::Int, &comp);
        b.push(Value::Int(-100)).unwrap();
        b.push(Value::Int(-50)).unwrap();
        let page = b.build(&comp, PageId(0)).unwrap();
        let cp = ColumnPage::new(&page, DataType::Int).unwrap();
        let pv = cp.values(&comp);
        assert_eq!(pv.int_at(0).unwrap(), -100);
        assert_eq!(pv.int_at(1).unwrap(), -50);
    }

    #[test]
    fn zone_map_records_page_min_max() {
        // Int pages carry [min, max] in the trailer regardless of codec.
        for comp in [
            ColumnCompression::none(),
            ColumnCompression::new(Codec::For { bits: 8 }, None).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 8 }, None).unwrap(),
        ] {
            let mut b = ColumnPageBuilder::new(256, DataType::Int, &comp);
            for v in [40, 7, 199, 7] {
                b.push(Value::Int(v)).unwrap();
            }
            let page = b.build(&comp, PageId(1)).unwrap();
            assert_eq!(page_zone(&page), Some((7, 199)), "{:?}", comp.codec.kind());
            // Zones ride in the CRC-covered trailer; decode still works.
            let cp = ColumnPage::new(&page, DataType::Int).unwrap();
            let pv = cp.values(&comp);
            assert_eq!(pv.int_at(0).unwrap(), 40);
            assert_eq!(pv.int_at(2).unwrap(), 199);
        }
        // Text pages and row pages carry no zone.
        let comp = ColumnCompression::none();
        let mut b = ColumnPageBuilder::new(256, DataType::Text(4), &comp);
        b.push(Value::text("ab")).unwrap();
        let page = b.build(&comp, PageId(2)).unwrap();
        assert_eq!(page_zone(&page), None);

        // A single-value page has min == max (the Eq boundary case).
        let comp = ColumnCompression::none();
        let mut b = ColumnPageBuilder::new(256, DataType::Int, &comp);
        b.push(Value::Int(-5)).unwrap();
        let page = b.build(&comp, PageId(3)).unwrap();
        assert_eq!(page_zone(&page), Some((-5, -5)));
    }

    #[test]
    fn type_checked_push() {
        let comp = ColumnCompression::none();
        let mut b = ColumnPageBuilder::new(4096, DataType::Int, &comp);
        assert!(b.push(Value::text("oops")).is_err());
        assert!(b.push(Value::Int(1)).is_ok());
    }

    #[test]
    fn corrupt_pages_rejected() {
        assert!(PageView::new(&[0u8; 8]).is_err());
        // Claimed count larger than the body allows.
        let mut page = vec![0u8; 128];
        page[0..4].copy_from_slice(&1000u32.to_le_bytes());
        write_trailer(&mut page, PageId(0), 0);
        assert!(RowPage::new(&page, 8).is_err());
    }

    #[test]
    fn any_bit_flip_breaks_checksum() {
        let s = schema();
        let mut b = RowPageBuilder::new(512, &s);
        let mut raw = Vec::new();
        tuple::encode_tuple(
            &s,
            &[Value::Int(42), Value::text("ok"), Value::Int(-1)],
            &mut raw,
        )
        .unwrap();
        b.push(&raw).unwrap();
        let page = b.build(PageId(3));
        assert!(RowPage::new(&page, s.stored_width()).is_ok());
        // Header, body, padding, trailer fields and the CRC itself: flipping
        // one bit anywhere must be caught.
        for pos in [0usize, 2, 40, 300, 488, 496, 504, 508, 511] {
            for bit in [0u8, 3, 7] {
                let mut bad = page.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    RowPage::new(&bad, s.stored_width()).is_err(),
                    "flip bit {bit} of byte {pos} went undetected"
                );
            }
        }
    }

    #[test]
    fn partial_page_preserves_count() {
        let s = schema();
        let mut b = RowPageBuilder::new(4096, &s);
        let mut raw = Vec::new();
        tuple::encode_tuple(
            &s,
            &[Value::Int(9), Value::text("ab"), Value::Int(8)],
            &mut raw,
        )
        .unwrap();
        b.push(&raw).unwrap();
        let page = b.build(PageId(0));
        let rp = RowPage::new(&page, s.stored_width()).unwrap();
        assert_eq!(rp.count(), 1);
    }
}
