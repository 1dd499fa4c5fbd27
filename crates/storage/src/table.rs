//! On-disk table representations.
//!
//! A [`Table`] is the catalog entry for one relation. It can carry a **row
//! representation** (one file of dense tuple pages) and/or a **column
//! representation** (one file per attribute, as in Figure 3) — the paper's
//! experiments need both so the same data can be scanned either way. Files
//! are striped across the simulated disk array by the I/O layer; here they
//! are just page-aligned byte buffers.

use std::sync::Arc;

use rodb_compress::ColumnCompression;
use rodb_types::{tuple, Error, Result, Schema, Value};

use crate::page::{ColumnPage, RowPage};
use crate::page_packed::PackedRowPage;
use crate::page_pax::PaxPage;

/// Which physical representation a scan should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    Row,
    Column,
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layout::Row => write!(f, "row"),
            Layout::Column => write!(f, "column"),
        }
    }
}

/// Physical encoding of a row file.
#[derive(Debug, Clone)]
pub enum RowFormat {
    /// Uncompressed, padded tuples (the paper's plain row store).
    Plain {
        /// Stored (padded) tuple width.
        stored_width: usize,
    },
    /// Bit-packed compressed tuples (the paper's -Z row store).
    Packed {
        comps: Vec<ColumnCompression>,
        tuple_bits: usize,
    },
    /// PAX: row-store pages with per-attribute minipages (§6) — identical
    /// I/O to `Plain`, column-like cache locality.
    Pax,
}

/// The row-store file of a table.
#[derive(Debug, Clone)]
pub struct RowStorage {
    /// Page-aligned file contents.
    pub file: Arc<Vec<u8>>,
    pub page_size: usize,
    /// Full-page tuple capacity.
    pub tuples_per_page: usize,
    pub pages: usize,
    pub format: RowFormat,
}

impl RowStorage {
    /// Stored bytes per tuple (padded width, or packed bits ÷ 8).
    pub fn bytes_per_tuple(&self) -> f64 {
        match &self.format {
            RowFormat::Plain { stored_width } => *stored_width as f64,
            RowFormat::Packed { tuple_bits, .. } => *tuple_bits as f64 / 8.0,
            RowFormat::Pax => self.page_size as f64 / self.tuples_per_page.max(1) as f64,
        }
    }

    fn page_slice(&self, i: usize) -> Result<&[u8]> {
        if i >= self.pages {
            return Err(Error::corrupt(format!("row page {i} of {}", self.pages)));
        }
        let start = i * self.page_size;
        Ok(&self.file[start..start + self.page_size])
    }

    /// Borrow plain page `i` (error for packed row files).
    pub fn page(&self, i: usize) -> Result<RowPage<'_>> {
        match &self.format {
            RowFormat::Plain { stored_width } => RowPage::new(self.page_slice(i)?, *stored_width),
            _ => Err(Error::LayoutUnavailable(
                "plain page view of a non-plain row file".into(),
            )),
        }
    }

    /// Borrow PAX page `i` (error for non-PAX row files).
    pub fn pax_page<'a>(&'a self, i: usize, schema: &Schema) -> Result<PaxPage<'a>> {
        match &self.format {
            RowFormat::Pax => PaxPage::new(self.page_slice(i)?, schema),
            _ => Err(Error::LayoutUnavailable(
                "PAX page view of a non-PAX row file".into(),
            )),
        }
    }

    /// Borrow packed page `i` (error for plain row files).
    pub fn packed_page(&self, i: usize) -> Result<PackedRowPage<'_>> {
        match &self.format {
            RowFormat::Packed { comps, .. } => PackedRowPage::new(self.page_slice(i)?, comps),
            _ => Err(Error::LayoutUnavailable(
                "packed page view of a non-packed row file".into(),
            )),
        }
    }

    /// File length in bytes (what a scan must read).
    pub fn byte_len(&self) -> u64 {
        self.file.len() as u64
    }
}

/// One column's file within a table's column representation.
#[derive(Debug, Clone)]
pub struct ColumnStorage {
    pub file: Arc<Vec<u8>>,
    pub page_size: usize,
    pub comp: ColumnCompression,
    /// Full-page value capacity — a per-file constant (position → page
    /// arithmetic depends on it). Fixed-width codecs derive it from the code
    /// width; variable-rate codecs (RLE / PFOR families) get it from the
    /// loader's trial-encode fit-search, and every page honours it.
    pub values_per_page: usize,
    pub pages: usize,
}

impl ColumnStorage {
    /// Borrow page `i` for a column of type `dtype`.
    pub fn page(&self, i: usize, dtype: rodb_types::DataType) -> Result<ColumnPage<'_>> {
        if i >= self.pages {
            return Err(Error::corrupt(format!("column page {i} of {}", self.pages)));
        }
        let start = i * self.page_size;
        ColumnPage::new(&self.file[start..start + self.page_size], dtype)
    }

    pub fn byte_len(&self) -> u64 {
        self.file.len() as u64
    }

    /// The zone map `(min, max)` of page `i`, or `None` when the page has no
    /// zone (text columns, pre-zone files). Peeked straight from the trailer
    /// without a simulated read — zone maps model catalog-resident metadata.
    pub fn zone_of(&self, i: usize) -> Option<(i64, i64)> {
        if i >= self.pages {
            return None;
        }
        let start = i * self.page_size;
        crate::page::page_zone(&self.file[start..start + self.page_size])
    }

    /// Which (page, slot) holds global row ordinal `row`.
    #[inline]
    pub fn locate(&self, row: u64) -> (usize, usize) {
        (
            (row / self.values_per_page as u64) as usize,
            (row % self.values_per_page as u64) as usize,
        )
    }
}

/// The column representation: one [`ColumnStorage`] per schema column.
#[derive(Debug, Clone)]
pub struct ColStorage {
    pub columns: Vec<ColumnStorage>,
}

impl ColStorage {
    /// Total bytes across all column files.
    pub fn byte_len(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_len()).sum()
    }

    /// Bytes of just the given columns (what a projecting scan reads).
    pub fn selected_byte_len(&self, cols: &[usize]) -> u64 {
        cols.iter().map(|&c| self.columns[c].byte_len()).sum()
    }
}

/// One work unit of a morsel-driven parallel scan: a half-open range of
/// global row ordinals `[start, end)`. Morsels partition the table — they
/// are disjoint and cover every row — so workers can scan them
/// independently and results merged in morsel order equal a serial scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    pub start: u64,
    pub end: u64,
}

impl Morsel {
    /// Rows in this morsel.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A catalog table: schema plus loaded physical representations.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Arc<Schema>,
    pub row_count: u64,
    pub row: Option<RowStorage>,
    pub col: Option<ColStorage>,
    /// Pages bad on every replica (shared across clones of this table).
    pub quarantine: crate::quarantine::Quarantine,
}

impl Table {
    pub fn row_storage(&self) -> Result<&RowStorage> {
        self.row
            .as_ref()
            .ok_or_else(|| Error::LayoutUnavailable(format!("{}: row", self.name)))
    }

    pub fn col_storage(&self) -> Result<&ColStorage> {
        self.col
            .as_ref()
            .ok_or_else(|| Error::LayoutUnavailable(format!("{}: column", self.name)))
    }

    pub fn has_layout(&self, layout: Layout) -> bool {
        match layout {
            Layout::Row => self.row.is_some(),
            Layout::Column => self.col.is_some(),
        }
    }

    /// Bytes a full scan of this layout reads off disk (for the column layout
    /// optionally restricted to a projection).
    pub fn scan_bytes(&self, layout: Layout, projection: Option<&[usize]>) -> Result<u64> {
        match layout {
            Layout::Row => Ok(self.row_storage()?.byte_len()),
            Layout::Column => {
                let cs = self.col_storage()?;
                Ok(match projection {
                    Some(cols) => cs.selected_byte_len(cols),
                    None => cs.byte_len(),
                })
            }
        }
    }

    /// Split the table into up to `n` disjoint [`Morsel`]s covering every
    /// row, for morsel-driven parallel scans.
    ///
    /// Boundaries are aligned to storage-page boundaries where a natural
    /// alignment exists — the row file's tuples-per-page if the table has a
    /// row representation, otherwise the first column's values-per-page —
    /// so adjacent workers rarely touch the same page. Alignment is a
    /// performance nicety, not a correctness requirement: scanners accept
    /// arbitrary ranges. Returns fewer than `n` morsels when the table is
    /// too small to split (empty tables yield no morsels).
    pub fn morsels(&self, n: usize) -> Vec<Morsel> {
        let rows = self.row_count;
        if rows == 0 || n == 0 {
            return Vec::new();
        }
        let align = self
            .row
            .as_ref()
            .map(|rs| rs.tuples_per_page)
            .or_else(|| {
                self.col
                    .as_ref()
                    .and_then(|cs| cs.columns.first())
                    .map(|c| c.values_per_page)
            })
            .unwrap_or(1)
            .max(1) as u64;
        let n = n as u64;
        let per = rows.div_ceil(n);
        // Round the chunk size up to the alignment so boundaries land on
        // page edges of the aligning layout.
        let per = per.div_ceil(align) * align;
        let mut out = Vec::new();
        let mut start = 0u64;
        while start < rows {
            let end = (start + per).min(rows);
            out.push(Morsel { start, end });
            start = end;
        }
        out
    }

    /// Materialize every row through the given layout — a correctness oracle
    /// for tests and the WOS merge path, not a query path.
    pub fn read_all(&self, layout: Layout) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::with_capacity(self.row_count as usize);
        match layout {
            Layout::Row => {
                let rs = self.row_storage()?;
                match &rs.format {
                    RowFormat::Plain { .. } => {
                        for p in 0..rs.pages {
                            let page = rs.page(p)?;
                            for raw in page.tuples() {
                                out.push(tuple::decode_tuple(&self.schema, raw)?);
                            }
                        }
                    }
                    RowFormat::Packed { comps, .. } => {
                        for p in 0..rs.pages {
                            let page = rs.packed_page(p)?;
                            let mut cur = page.cursor(&self.schema, comps);
                            let mut raw = Vec::new();
                            while cur.advance()? {
                                let mut row = Vec::with_capacity(self.schema.len());
                                for c in 0..self.schema.len() {
                                    raw.clear();
                                    cur.field_raw(c, &mut raw)?;
                                    row.push(Value::decode(self.schema.dtype(c), &raw)?);
                                }
                                out.push(row);
                            }
                        }
                    }
                    RowFormat::Pax => {
                        for p in 0..rs.pages {
                            let page = rs.pax_page(p, &self.schema)?;
                            for i in 0..page.count() {
                                let row = (0..self.schema.len())
                                    .map(|c| page.value(&self.schema, i, c))
                                    .collect::<Result<Vec<_>>>()?;
                                out.push(row);
                            }
                        }
                    }
                }
            }
            Layout::Column => {
                let cs = self.col_storage()?;
                out.resize(self.row_count as usize, Vec::new());
                for (ci, col) in cs.columns.iter().enumerate() {
                    let dtype = self.schema.dtype(ci);
                    let mut row = 0usize;
                    for p in 0..col.pages {
                        let page = col.page(p, dtype)?;
                        let pv = page.values(&col.comp);
                        let mut cur = pv.cursor();
                        for _ in 0..pv.count() {
                            let mut raw = Vec::with_capacity(dtype.width());
                            cur.next_raw(&mut raw)?;
                            out[row].push(Value::decode(dtype, &raw)?);
                            row += 1;
                        }
                    }
                    if row != self.row_count as usize {
                        return Err(Error::corrupt(format!(
                            "column {ci} has {row} values, table has {}",
                            self.row_count
                        )));
                    }
                }
            }
        }
        Ok(out)
    }
}
