//! Bulk loader.
//!
//! The paper's systems are loaded by a bulk-loading tool, not OLTP inserts
//! (§1.2). [`TableBuilder`] streams rows in, dense-packs pages as they fill,
//! and emits a [`Table`] with a row representation, a column representation,
//! or both. Per-column compression is fixed up front ("compression schemes
//! are typically chosen during physical design") and each column file fills
//! its pages independently, since per-page value capacity depends on the
//! code width.

use std::sync::Arc;

use rodb_compress::ColumnCompression;
use rodb_types::{tuple, Error, PageId, Result, Schema, Value};

use crate::page::{body_capacity, ColumnPageBuilder, RowPageBuilder};
use crate::page_packed::{packed_tuple_bits, PackedRowPageBuilder};
use crate::page_pax::PaxPageBuilder;
use crate::table::{ColStorage, ColumnStorage, RowFormat, RowStorage, Table};

/// Which physical representations to materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildLayouts {
    pub row: bool,
    pub column: bool,
}

impl BuildLayouts {
    pub fn both() -> Self {
        BuildLayouts {
            row: true,
            column: true,
        }
    }
    pub fn row_only() -> Self {
        BuildLayouts {
            row: true,
            column: false,
        }
    }
    pub fn column_only() -> Self {
        BuildLayouts {
            row: false,
            column: true,
        }
    }
}

enum RowBuilderKind {
    Plain(RowPageBuilder),
    Packed(PackedRowPageBuilder),
    Pax(PaxPageBuilder),
}

/// Streaming bulk loader for one table.
pub struct TableBuilder {
    name: String,
    schema: Arc<Schema>,
    page_size: usize,
    layouts: BuildLayouts,
    comps: Vec<ColumnCompression>,
    /// Row-side codecs: packed row pages need fixed-width position-stable
    /// codes, so variable-rate / page-relative column codecs are demoted to
    /// their [`ColumnCompression::packed_equivalent`] here.
    row_comps: Vec<ColumnCompression>,
    row_builder: Option<RowBuilderKind>,
    row_file: Vec<u8>,
    row_pages: usize,
    col_builders: Vec<ColumnPageBuilder>,
    /// `Some` for variable-rate columns (RLE / PFOR families): their
    /// per-page value count depends on the data, so values are buffered and
    /// paged out in [`TableBuilder::finish`] after a capacity fit-search.
    var_bufs: Vec<Option<Vec<Value>>>,
    col_files: Vec<Vec<u8>>,
    col_pages: Vec<usize>,
    row_count: u64,
    raw_buf: Vec<u8>,
}

impl TableBuilder {
    /// Start a builder with every column uncompressed.
    pub fn new(
        name: impl Into<String>,
        schema: Arc<Schema>,
        page_size: usize,
        layouts: BuildLayouts,
    ) -> Result<TableBuilder> {
        let comps = vec![ColumnCompression::none(); schema.len()];
        TableBuilder::with_compression(name, schema, page_size, layouts, comps)
    }

    /// Start a builder whose row representation uses PAX pages (§6):
    /// uncompressed attributes, column-grouped within each page.
    pub fn new_pax(
        name: impl Into<String>,
        schema: Arc<Schema>,
        page_size: usize,
        layouts: BuildLayouts,
    ) -> Result<TableBuilder> {
        let mut b = TableBuilder::new(name, schema, page_size, layouts)?;
        if let Some(_rb) = &b.row_builder {
            b.row_builder = Some(RowBuilderKind::Pax(PaxPageBuilder::new(
                b.page_size,
                &b.schema,
            )));
        }
        Ok(b)
    }

    /// Start a builder with an explicit codec per column.
    pub fn with_compression(
        name: impl Into<String>,
        schema: Arc<Schema>,
        page_size: usize,
        layouts: BuildLayouts,
        comps: Vec<ColumnCompression>,
    ) -> Result<TableBuilder> {
        if !layouts.row && !layouts.column {
            return Err(Error::InvalidConfig("no layouts requested".into()));
        }
        if comps.len() != schema.len() {
            return Err(Error::InvalidConfig(format!(
                "{} codecs for {} columns",
                comps.len(),
                schema.len()
            )));
        }
        for (i, c) in comps.iter().enumerate() {
            c.codec.validate_for(schema.dtype(i))?;
        }
        let row_comps: Vec<ColumnCompression> =
            comps.iter().map(|c| c.packed_equivalent()).collect();
        let any_compressed = row_comps
            .iter()
            .any(|c| !matches!(c.codec, rodb_compress::Codec::None));
        let row_builder = if layouts.row {
            Some(if any_compressed {
                RowBuilderKind::Packed(PackedRowPageBuilder::new(page_size, &schema, &row_comps)?)
            } else {
                RowBuilderKind::Plain(RowPageBuilder::new(page_size, &schema))
            })
        } else {
            None
        };
        let (col_builders, var_bufs, col_files, col_pages) = if layouts.column {
            let builders = schema
                .columns()
                .iter()
                .zip(&comps)
                .map(|(col, comp)| ColumnPageBuilder::new(page_size, col.dtype, comp))
                .collect::<Vec<_>>();
            let bufs = comps
                .iter()
                .map(|c| c.codec.variable_rate().then(Vec::new))
                .collect();
            (
                builders,
                bufs,
                vec![Vec::new(); schema.len()],
                vec![0; schema.len()],
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new(), Vec::new())
        };
        Ok(TableBuilder {
            name: name.into(),
            schema,
            page_size,
            layouts,
            comps,
            row_comps,
            row_builder,
            row_file: Vec::new(),
            row_pages: 0,
            col_builders,
            var_bufs,
            col_files,
            col_pages,
            row_count: 0,
            raw_buf: Vec::new(),
        })
    }

    /// Append one row.
    pub fn push_row(&mut self, values: &[Value]) -> Result<()> {
        if let Some(rb) = &mut self.row_builder {
            match rb {
                RowBuilderKind::Plain(rb) => {
                    self.raw_buf.clear();
                    tuple::encode_tuple(&self.schema, values, &mut self.raw_buf)?;
                    if rb.is_full() {
                        let page = rb.build(PageId(self.row_pages as u64));
                        self.row_file.extend_from_slice(&page);
                        self.row_pages += 1;
                    }
                    rb.push(&self.raw_buf)?;
                }
                RowBuilderKind::Packed(rb) => {
                    if rb.is_full() {
                        let page =
                            rb.build(&self.schema, &self.row_comps, PageId(self.row_pages as u64))?;
                        self.row_file.extend_from_slice(&page);
                        self.row_pages += 1;
                    }
                    rb.push(values)?;
                }
                RowBuilderKind::Pax(rb) => {
                    self.raw_buf.clear();
                    tuple::encode_tuple(&self.schema, values, &mut self.raw_buf)?;
                    if rb.is_full() {
                        let page = rb.build(&self.schema, PageId(self.row_pages as u64));
                        self.row_file.extend_from_slice(&page);
                        self.row_pages += 1;
                    }
                    rb.push(&self.raw_buf)?;
                }
            }
        } else if values.len() != self.schema.len() {
            return Err(Error::corrupt(format!(
                "row with {} values for {}-column schema",
                values.len(),
                self.schema.len()
            )));
        }
        if self.layouts.column {
            for (ci, v) in values.iter().enumerate() {
                if let Some(buf) = &mut self.var_bufs[ci] {
                    // Variable-rate column: page boundaries are only known
                    // once the data is, so buffer now and page out in finish.
                    v.check_fits(self.schema.dtype(ci))?;
                    buf.push(v.clone());
                    continue;
                }
                let cb = &mut self.col_builders[ci];
                if cb.is_full() {
                    let page = cb.build(&self.comps[ci], PageId(self.col_pages[ci] as u64))?;
                    self.col_files[ci].extend_from_slice(&page);
                    self.col_pages[ci] += 1;
                }
                cb.push(v.clone())?;
            }
        }
        self.row_count += 1;
        Ok(())
    }

    /// Flush partial pages and produce the finished [`Table`].
    pub fn finish(mut self) -> Result<Table> {
        let row = if let Some(rb) = &mut self.row_builder {
            let (capacity, format) = match rb {
                RowBuilderKind::Plain(rb) => {
                    if !rb.is_empty() {
                        let page = rb.build(PageId(self.row_pages as u64));
                        self.row_file.extend_from_slice(&page);
                        self.row_pages += 1;
                    }
                    (
                        rb.capacity(),
                        RowFormat::Plain {
                            stored_width: self.schema.stored_width(),
                        },
                    )
                }
                RowBuilderKind::Packed(rb) => {
                    if !rb.is_empty() {
                        let page =
                            rb.build(&self.schema, &self.row_comps, PageId(self.row_pages as u64))?;
                        self.row_file.extend_from_slice(&page);
                        self.row_pages += 1;
                    }
                    (
                        rb.capacity(),
                        RowFormat::Packed {
                            comps: self.row_comps.clone(),
                            tuple_bits: packed_tuple_bits(&self.schema, &self.row_comps),
                        },
                    )
                }
                RowBuilderKind::Pax(rb) => {
                    if !rb.is_empty() {
                        let page = rb.build(&self.schema, PageId(self.row_pages as u64));
                        self.row_file.extend_from_slice(&page);
                        self.row_pages += 1;
                    }
                    (rb.capacity(), RowFormat::Pax)
                }
            };
            Some(RowStorage {
                file: Arc::new(std::mem::take(&mut self.row_file)),
                page_size: self.page_size,
                tuples_per_page: capacity,
                pages: self.row_pages,
                format,
            })
        } else {
            None
        };
        let col = if self.layouts.column {
            let mut columns = Vec::with_capacity(self.schema.len());
            for (ci, cb) in self.col_builders.iter_mut().enumerate() {
                if let Some(buf) = self.var_bufs[ci].take() {
                    // Variable-rate column: pick the per-file page capacity
                    // by trial encoding, then emit every page with it.
                    let dtype = self.schema.dtype(ci);
                    let vpp = fit_values_per_page(self.page_size, dtype, &self.comps[ci], &buf)?;
                    let mut b = ColumnPageBuilder::with_capacity(self.page_size, dtype, vpp);
                    for chunk in buf.chunks(vpp) {
                        for v in chunk {
                            b.push(v.clone())?;
                        }
                        let page = b.build(&self.comps[ci], PageId(self.col_pages[ci] as u64))?;
                        self.col_files[ci].extend_from_slice(&page);
                        self.col_pages[ci] += 1;
                    }
                    columns.push(ColumnStorage {
                        file: Arc::new(std::mem::take(&mut self.col_files[ci])),
                        page_size: self.page_size,
                        comp: self.comps[ci].clone(),
                        values_per_page: vpp,
                        pages: self.col_pages[ci],
                    });
                    continue;
                }
                if !cb.is_empty() {
                    let page = cb.build(&self.comps[ci], PageId(self.col_pages[ci] as u64))?;
                    self.col_files[ci].extend_from_slice(&page);
                    self.col_pages[ci] += 1;
                }
                columns.push(ColumnStorage {
                    file: Arc::new(std::mem::take(&mut self.col_files[ci])),
                    page_size: self.page_size,
                    comp: self.comps[ci].clone(),
                    values_per_page: cb.capacity(),
                    pages: self.col_pages[ci],
                });
            }
            Some(ColStorage { columns })
        } else {
            None
        };
        Ok(Table {
            name: self.name,
            schema: self.schema,
            row_count: self.row_count,
            row,
            col,
            quarantine: crate::quarantine::Quarantine::default(),
        })
    }

    pub fn row_count(&self) -> u64 {
        self.row_count
    }
}

/// Largest values-per-page for a variable-rate codec such that **every**
/// aligned window of the column verifiably encodes within one page body.
///
/// `values_per_page` is a per-file constant (position → page arithmetic
/// depends on it), so the choice must hold for the worst window, not the
/// average one. Strategy: estimate from the whole column's aggregate encoded
/// size, then walk the candidate down until a full trial-encode pass fits.
/// The walk terminates: small enough windows always fit (a single RLE run or
/// PFOR exception is tens of bytes against a page body).
fn fit_values_per_page(
    page_size: usize,
    dtype: rodb_types::DataType,
    comp: &ColumnCompression,
    values: &[Value],
) -> Result<usize> {
    let body = body_capacity(page_size);
    if values.is_empty() {
        // Match the fixed-rate worst-case floor so empty files still carry a
        // sane geometry constant.
        return Ok(ColumnPageBuilder::new(page_size, dtype, comp)
            .capacity()
            .max(1));
    }
    let fits = |vpp: usize| -> Result<bool> {
        for chunk in values.chunks(vpp) {
            if comp.encode_page(dtype, chunk)?.data.len() > body {
                return Ok(false);
            }
        }
        Ok(true)
    };
    let total = comp.encode_page(dtype, values)?.data.len().max(1);
    let mut vpp = (body * values.len() / total).clamp(1, values.len());
    loop {
        if fits(vpp)? {
            return Ok(vpp);
        }
        if vpp == 1 {
            return Err(Error::corrupt(format!(
                "single value of {:?} does not fit a {page_size}-byte page",
                comp.codec.kind()
            )));
        }
        vpp = (vpp * 9 / 10).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Layout;
    use rodb_compress::Codec;
    use rodb_types::{Column, DataType};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Column::int("id"),
                Column::int("qty"),
                Column::text("mode", 10),
            ])
            .unwrap(),
        )
    }

    fn rows(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i32),
                    Value::Int((i % 50) as i32),
                    Value::text(["AIR", "SHIP", "TRUCK"][i % 3]),
                ]
            })
            .collect()
    }

    #[test]
    fn load_both_layouts_and_read_back() {
        let s = schema();
        let mut b = TableBuilder::new("t", s.clone(), 1024, BuildLayouts::both()).unwrap();
        let data = rows(500);
        for r in &data {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.row_count, 500);
        assert!(t.has_layout(Layout::Row) && t.has_layout(Layout::Column));

        let via_row = t.read_all(Layout::Row).unwrap();
        let via_col = t.read_all(Layout::Column).unwrap();
        assert_eq!(via_row.len(), 500);
        assert_eq!(via_row, via_col);
        assert_eq!(via_row[499][0], Value::Int(499));
        // Text values come back padded to the declared width.
        assert_eq!(via_row[0][2].as_text().unwrap().len(), 10);
    }

    #[test]
    fn compressed_column_layout_roundtrips() {
        let s = schema();
        let dict = Arc::new(
            rodb_compress::Dictionary::build(
                DataType::Text(10),
                [
                    Value::text("AIR"),
                    Value::text("SHIP"),
                    Value::text("TRUCK"),
                ]
                .iter(),
            )
            .unwrap(),
        );
        let comps = vec![
            ColumnCompression::new(Codec::ForDelta { bits: 2 }, None).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 6 }, None).unwrap(),
            ColumnCompression::new(Codec::Dict { bits: 2 }, Some(dict)).unwrap(),
        ];
        let mut b = TableBuilder::with_compression(
            "tz",
            s.clone(),
            1024,
            BuildLayouts::column_only(),
            comps,
        )
        .unwrap();
        let data = rows(2000);
        for r in &data {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        assert!(!t.has_layout(Layout::Row));
        assert!(t.read_all(Layout::Row).is_err());
        let back = t.read_all(Layout::Column).unwrap();
        for (i, r) in back.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i32));
            assert_eq!(r[1], Value::Int((i % 50) as i32));
            assert_eq!(r[2].to_string(), ["AIR", "SHIP", "TRUCK"][i % 3]);
        }
        // Compressed columns occupy far fewer bytes than raw ones.
        let cs = t.col_storage().unwrap();
        assert!(cs.columns[0].byte_len() < 2000 * 4 / 2);
        assert!(cs.columns[2].byte_len() < 2000 * 10 / 8);
    }

    #[test]
    fn column_files_fill_independently() {
        let s = schema();
        let comps = vec![
            ColumnCompression::new(Codec::BitPack { bits: 11 }, None).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 6 }, None).unwrap(),
            ColumnCompression::none(),
        ];
        let mut b =
            TableBuilder::with_compression("t", s, 1024, BuildLayouts::column_only(), comps)
                .unwrap();
        for r in rows(1500) {
            b.push_row(&r).unwrap();
        }
        let t = b.finish().unwrap();
        let cs = t.col_storage().unwrap();
        // Narrower codes → more values per page → fewer pages.
        assert!(cs.columns[1].pages < cs.columns[0].pages);
        assert!(cs.columns[0].pages < cs.columns[2].pages);
        // locate() stays consistent with per-column capacities.
        let (p, s0) = cs.columns[1].locate(0);
        assert_eq!((p, s0), (0, 0));
        let vpp = cs.columns[1].values_per_page as u64;
        assert_eq!(cs.columns[1].locate(vpp), (1, 0));
    }

    #[test]
    fn variable_rate_columns_fit_search_and_roundtrip() {
        // Runny qty column under RLE, id with outliers under PFOR. Page
        // capacity is data-dependent; the loader must pick one constant that
        // every page honours and the read path must agree with it.
        let s = Arc::new(Schema::new(vec![Column::int("id"), Column::int("qty")]).unwrap());
        let comps = vec![
            ColumnCompression::new(Codec::Pfor { bits: 6 }, None).unwrap(),
            ColumnCompression::new(
                Codec::Rle {
                    value_bits: 8,
                    len_bits: 6,
                },
                None,
            )
            .unwrap(),
        ];
        let mut b = TableBuilder::with_compression(
            "vr",
            s.clone(),
            1024,
            BuildLayouts::column_only(),
            comps,
        )
        .unwrap();
        let n = 4000usize;
        let data: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    // Mostly 6-bit codes, 1-in-200 huge exceptions.
                    Value::Int(if i % 200 == 0 {
                        1_000_000
                    } else {
                        (i % 60) as i32
                    }),
                    // Runs of ~37 identical values.
                    Value::Int((i / 37 % 200) as i32),
                ]
            })
            .collect();
        for r in &data {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        let back = t.read_all(Layout::Column).unwrap();
        assert_eq!(back, data);
        let cs = t.col_storage().unwrap();
        // The fit-search must beat the worst-case floor: RLE's worst case is
        // one run per value (14 bits), but real runs are ~37 long.
        let rle_floor = (1024 - 28 - 4) * 8 / 14;
        assert!(
            cs.columns[1].values_per_page > rle_floor,
            "vpp {} should exceed the worst-case floor {rle_floor}",
            cs.columns[1].values_per_page
        );
        // Geometry invariant: every page but the last holds exactly vpp.
        let vpp = cs.columns[1].values_per_page;
        assert_eq!(cs.columns[1].pages, n.div_ceil(vpp));
    }

    #[test]
    fn variable_rate_codecs_demote_for_packed_rows() {
        // A table with an RLE column and both layouts: the row side must
        // demote to a fixed-width equivalent, and both layouts read back
        // identically.
        let s = Arc::new(Schema::new(vec![Column::int("id"), Column::int("qty")]).unwrap());
        let comps = vec![
            ColumnCompression::new(Codec::BitPack { bits: 12 }, None).unwrap(),
            ColumnCompression::new(
                Codec::Rle {
                    value_bits: 8,
                    len_bits: 4,
                },
                None,
            )
            .unwrap(),
        ];
        let mut b =
            TableBuilder::with_compression("dem", s.clone(), 1024, BuildLayouts::both(), comps)
                .unwrap();
        let data: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::Int(i), Value::Int(i / 20 % 100)])
            .collect();
        for r in &data {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.read_all(Layout::Row).unwrap(), data);
        assert_eq!(t.read_all(Layout::Column).unwrap(), data);
        // The stored row format must not contain a variable-rate codec.
        let rs = t.row_storage().unwrap();
        if let RowFormat::Packed { comps, .. } = &rs.format {
            assert!(comps.iter().all(|c| !c.codec.variable_rate()));
        } else {
            panic!("compressed table should use packed rows");
        }
    }

    #[test]
    fn scan_bytes_reflects_projection() {
        let s = schema();
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::both()).unwrap();
        for r in rows(5000) {
            b.push_row(&r).unwrap();
        }
        let t = b.finish().unwrap();
        let all = t.scan_bytes(Layout::Column, None).unwrap();
        let one = t.scan_bytes(Layout::Column, Some(&[0])).unwrap();
        let row = t.scan_bytes(Layout::Row, None).unwrap();
        assert!(one < all);
        assert!(all <= row + 4096 * 3); // dense col ≈ row minus padding, plus partial pages
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        let mut b = TableBuilder::new("t", s, 1024, BuildLayouts::both()).unwrap();
        assert!(b.push_row(&[Value::Int(1)]).is_err());
        let mut b2 = TableBuilder::new("t2", schema(), 1024, BuildLayouts::column_only()).unwrap();
        assert!(b2.push_row(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn codec_count_and_type_validated() {
        let s = schema();
        assert!(TableBuilder::with_compression(
            "t",
            s.clone(),
            1024,
            BuildLayouts::both(),
            vec![ColumnCompression::none()],
        )
        .is_err());
        let bad = vec![
            ColumnCompression::new(Codec::BitPack { bits: 4 }, None).unwrap(),
            ColumnCompression::none(),
            ColumnCompression::new(Codec::BitPack { bits: 4 }, None).unwrap(), // text col
        ];
        assert!(TableBuilder::with_compression("t", s, 1024, BuildLayouts::both(), bad).is_err());
    }

    #[test]
    fn empty_table() {
        let s = schema();
        let t = TableBuilder::new("t", s, 1024, BuildLayouts::both())
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(t.row_count, 0);
        assert_eq!(t.read_all(Layout::Row).unwrap().len(), 0);
        assert_eq!(t.read_all(Layout::Column).unwrap().len(), 0);
    }
}
