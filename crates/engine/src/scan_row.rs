//! The row-store table scanner (§2.2.2).
//!
//! "The row scanner is straightforward: it iterates over the pages contained
//! inside an I/O buffer, and, for each page, it iterates over the tuples,
//! applying the predicates. Tuples that qualify are projected according to
//! the list of attributes selected by the query and are placed in a block of
//! tuples."
//!
//! That is one loop (`TupleLoop::process_page`) over the pieces of the scan
//! core (`scan_core.rs`: admit, select, emit), monomorphized over a
//! `TupleReader` per row format: plain padded tuples, PAX minipages, and the
//! packed (compressed) tuples of the -Z tables. The loop runs a page at a
//! time: the slots the window admits form a selection vector, each
//! predicate narrows it in turn ([`narrow`]), and only the survivors are
//! projected, into the sink in one push per page. A plain or PAX reader
//! presents each column as a strided run of its stored fields and selects
//! over it with the scan core's kernel ([`select_strided`]); a reader
//! appends the projected fields of a page's survivors and is charged for
//! decoding; it knows nothing of windows, tallies or blocks.
//!
//! A packed page decodes a predicate's column once, on its codes where the
//! predicate was rewritten into code space and on its values otherwise. A
//! FOR-delta attribute (deltas against the previous tuple of the page) is
//! decoded as one running sum over the page, and only when the query reads
//! it. It is still charged per visited tuple, as the paper's engine pays it
//! stepping through the page (§4.4: the row store "shows a small increase in
//! user CPU time ... the cost of decompression").

use std::sync::Arc;

use rodb_compress::{Codec, CodecKind, ColumnCompression};
use rodb_cpu::CpuMeter;
use rodb_storage::page_packed::PackedColumns;
use rodb_storage::{RowFormat, Table, VerifiedPage};
use rodb_types::{DataType, Result, Schema};

use crate::block::TupleBlock;
use crate::codepred::{rewrite, CodePred};
use crate::op::{ExecContext, Operator};
use crate::page_cursor::PageCursor;
use crate::predicate::{scan_schema, Predicate};
use crate::scan_core::{
    copy_fields, narrow, retain, select_strided, Pending, PredTally, Sink, Window,
};

/// Scans a table's row representation, applying SARGable predicates and a
/// projection.
pub struct RowScanner {
    table: Arc<Table>,
    /// The row file, clamped to the pages holding this scanner's row range
    /// (whole table by default; a morsel of it under parallel execution).
    pages: PageCursor,
    tuples: TupleLoop,
    /// Per schema column: its offset in a stored tuple and its width,
    /// looked up once per scan.
    fields: Vec<(usize, usize)>,
    /// Packed pages: this page's code-space rewrites, and decode space.
    code_preds: Vec<Option<CodePred>>,
    decoded: Decoded,
}

/// What the tuple loop reads and writes — everything of a [`RowScanner`]
/// but the table its page readers borrow from.
struct TupleLoop {
    ctx: ExecContext,
    schema: Arc<Schema>,
    projection: Vec<usize>,
    predicates: Vec<Predicate>,
    /// This page's evaluations and passes, per predicate.
    tallies: Vec<PredTally>,
    /// Bytes of the fields the projection copies per qualifying tuple.
    proj_bytes: usize,
    window: Window,
    /// This page's selection vector: the slots still qualifying.
    sel: Vec<usize>,
    /// Qualifying projected tuples not yet emitted.
    sink: Sink,
}

/// A packed page's decode space, reused page to page.
#[derive(Default)]
struct Decoded {
    /// One code-space predicate's column of codes.
    codes: Vec<u64>,
    /// The columns decoded whole on this page, back to back.
    values: Vec<u8>,
    /// Per column: where in `values` it starts, if decoded.
    at: Vec<Option<usize>>,
}

impl RowScanner {
    /// Build a row scanner. `projection` lists base-table column indices in
    /// output order; `predicates` reference base-table columns; `range`
    /// restricts the scan to row ordinals `[start, end)` — one morsel of a
    /// parallel scan — and `None` scans the whole table.
    pub(crate) fn new(
        table: Arc<Table>,
        projection: Vec<usize>,
        predicates: Vec<Predicate>,
        ctx: &ExecContext,
        range: Option<(u64, u64)>,
    ) -> Result<RowScanner> {
        let out_schema = scan_schema(&table.schema, &projection, &predicates)?;
        let schema = &table.schema;
        let fields = (0..schema.len())
            .map(|col| (schema.offset(col), schema.dtype(col).width()))
            .collect();
        let pages = PageCursor::open(ctx, &table, None, range)?;
        // A single sequential scan keeps one request outstanding.
        ctx.disk.borrow_mut().set_interleave(1);
        let tuples = TupleLoop {
            ctx: ctx.clone(),
            schema: table.schema.clone(),
            proj_bytes: table.schema.selected_bytes(&projection),
            projection,
            tallies: vec![PredTally::default(); predicates.len()],
            predicates,
            window: Window::new(pages.range()),
            sel: Vec::new(),
            sink: Sink::new(out_schema, Pending::Tuples),
        };
        Ok(RowScanner {
            table,
            pages,
            tuples,
            fields,
            code_preds: Vec::new(),
            decoded: Decoded::default(),
        })
    }

    /// Process one whole page into the sink. False at EOF.
    fn fill_from_next_page(&mut self) -> Result<bool> {
        let Some((page_index, first_row, page)) =
            self.pages.next_or_skip(&mut self.tuples.window.dropped)?
        else {
            return Ok(false);
        };
        // A quarantined page leaves nothing to roll back: a retryable error
        // is a failed checksum, raised before any tuple of the page is read.
        if let Some(page) = page {
            self.open_page(&page, first_row)
                .map_err(|e| self.pages.locate(e, page_index))?;
        }
        Ok(true)
    }

    /// Open `page` in the table's row format and run the tuple loop over it.
    /// `first_row` is the page's first ordinal by file geometry.
    fn open_page(&mut self, page: &VerifiedPage, first_row: u64) -> Result<()> {
        let schema: &Schema = &self.table.schema;
        let fields = &self.fields;
        match &self.table.row_storage()?.format {
            RowFormat::Plain { stored_width } => {
                let page = page.row(*stored_width)?;
                let tuples = page.tuple_bytes();
                let reader = Stored::<_, false> {
                    count: page.count(),
                    fields,
                    column: |col: usize| {
                        let field = tuples.get(fields[col].0..).unwrap_or_default();
                        (field, *stored_width)
                    },
                };
                self.tuples.process_page(reader, first_row)
            }
            RowFormat::Pax => {
                // Same bytes off disk, but the fields of one column are
                // contiguous in the page.
                let page = page.pax(schema)?;
                let reader = Stored::<_, true> {
                    count: page.count(),
                    fields,
                    column: |col: usize| (page.minipage(schema, col), fields[col].1),
                };
                self.tuples.process_page(reader, first_row)
            }
            RowFormat::Packed { comps, .. } => {
                let page = page.packed(comps)?;
                // Fast path: rewrite each predicate against this page's
                // compression metadata; rewritten predicates are evaluated on
                // the raw stored codes without decoding the field.
                let fast = self.tuples.ctx.sys.scan_fast_path;
                self.code_preds.clear();
                self.code_preds
                    .extend(self.tuples.predicates.iter().map(|p| {
                        let base = page.base_of(comps, p.col).unwrap_or(0);
                        // Packed row formats only carry fixed-width codecs
                        // (packed_equivalent demotion), so code_base is 0.
                        fast.then(|| rewrite(p, &comps[p.col], base, 0)).flatten()
                    }));
                let decoded = &mut self.decoded;
                decoded.values.clear();
                decoded.at.clear();
                decoded.at.resize(comps.len(), None);
                let reader = PackedTuples {
                    schema,
                    comps,
                    cols: page.columns(schema, comps)?,
                    code_preds: &self.code_preds,
                    decoded,
                };
                self.tuples.process_page(reader, first_row)
            }
        }
    }
}

/// One row-format page as the tuple loop reads it.
trait TupleReader {
    /// Fields of one column sit contiguously in the page, so evaluation
    /// touches densely packed cache lines (PAX — §6's locality benefit).
    const DENSE_L1: bool;

    /// Tuples on the page.
    fn count(&self) -> usize;

    /// Narrow `sel`, slots of the page in order, to those on which
    /// predicate number `pi` of the scan, on a column of type `dtype`, holds.
    fn keep(
        &mut self,
        pi: usize,
        pred: &Predicate,
        dtype: DataType,
        sel: &mut Vec<usize>,
    ) -> Result<()>;

    /// Append, for each slot of `sel` in order, columns `cols` of its tuple,
    /// each at full declared width.
    fn project(&mut self, sel: &[usize], cols: &[usize], out: &mut Vec<u8>) -> Result<()>;

    /// Whether predicate number `pi` is decided on this page's stored codes,
    /// its field never decoded.
    fn decided_in_code(&self, _pi: usize) -> bool {
        false
    }

    /// Charge what decoding the page's tuples cost, `visited` of them in the
    /// window and `passed` qualifying. Formats that store values verbatim
    /// decode nothing.
    fn charge_decode(&self, _: &mut CpuMeter, _: &TupleLoop, _visited: u64, _passed: u64) {}
}

impl TupleLoop {
    /// The page loop: the slots the window admits, narrowed predicate by
    /// predicate, the survivors projected into the sink in slot order — then
    /// the page's CPU accounting, charged per tuple as the paper's
    /// tuple-at-a-time loop pays it.
    fn process_page<R: TupleReader>(&mut self, mut reader: R, first_row: u64) -> Result<()> {
        self.tallies.fill(PredTally::default());
        // Out-of-window rows on a shared boundary page are stepped over, not
        // visited. No slot of a page is among the window's dropped ordinals:
        // those are the rows of this file's quarantined pages, which never
        // reach the loop.
        let sel = &mut self.sel;
        sel.clear();
        sel.extend(self.window.slots(first_row, reader.count()));
        let visited = sel.len() as u64;
        let schema = &self.schema;
        narrow(&self.predicates, &mut self.tallies, sel, |pi, pred, sel| {
            reader.keep(pi, pred, schema.dtype(pred.col), sel)
        })?;
        let passed = sel.len() as u64;
        let positions = sel.iter().map(|&slot| first_row + slot as u64);
        let projection = &self.projection;
        self.sink
            .push_rows(positions, |out| reader.project(sel, projection, out))?;

        let mut meter = self.ctx.meter.borrow_mut();
        reader.charge_decode(&mut meter, self, visited, passed);
        let touch_l1 = |meter: &mut CpuMeter, n: f64, width: f64| {
            if R::DENSE_L1 {
                meter.touch_l1_dense(n * width);
            } else {
                meter.touch_l1(n, width);
            }
        };
        meter.row_iter(visited as f64);
        for (pi, (pred, tally)) in self.predicates.iter().zip(&self.tallies).enumerate() {
            if reader.decided_in_code(pi) {
                // A vectorized compare on the code, not an interpreted
                // predicate on a value read out of the tuple.
                meter.vec_predicate(tally.evals as f64);
                continue;
            }
            meter.predicate(tally.evals as f64, tally.passes as f64);
            let width = self.schema.dtype(pred.col).width();
            touch_l1(&mut meter, tally.evals as f64, width as f64);
        }
        let (passed, proj_bytes) = (passed as f64, self.proj_bytes as f64);
        meter.project(passed, self.projection.len() as f64, passed * proj_bytes);
        touch_l1(&mut meter, passed, proj_bytes);
        Ok(())
    }
}

/// Plain and PAX pages: tuples stored at full width, each column a strided
/// run of its fields. `column(col)` lends one as `(bytes, stride)`: a plain
/// page's tuple bytes from the field's offset on, a stored tuple apart, or
/// a PAX page's minipage, a value apart. `fields` are the scan's per-column
/// `(offset, width)`. `DENSE`: see [`TupleReader::DENSE_L1`].
struct Stored<'f, C, const DENSE: bool> {
    count: usize,
    fields: &'f [(usize, usize)],
    column: C,
}

impl<'a, C, const DENSE: bool> TupleReader for Stored<'_, C, DENSE>
where
    C: Fn(usize) -> (&'a [u8], usize),
{
    const DENSE_L1: bool = DENSE;

    fn count(&self) -> usize {
        self.count
    }

    fn keep(
        &mut self,
        _: usize,
        pred: &Predicate,
        dtype: DataType,
        sel: &mut Vec<usize>,
    ) -> Result<()> {
        let (bytes, stride) = (self.column)(pred.col);
        select_strided(pred, dtype, bytes, stride, sel);
        Ok(())
    }

    /// A column at a time: each projected field of every survivor, into its
    /// place in the survivors' output tuples.
    fn project(&mut self, sel: &[usize], cols: &[usize], out: &mut Vec<u8>) -> Result<()> {
        if sel.is_empty() {
            return Ok(());
        }
        let row: usize = cols.iter().map(|&col| self.fields[col].1).sum();
        let mut at = out.len();
        out.resize(at + sel.len() * row, 0);
        for &col in cols {
            let (bytes, stride) = (self.column)(col);
            let width = self.fields[col].1;
            copy_fields(bytes, stride, width, sel, &mut out[at..], row);
            at += width;
        }
        Ok(())
    }
}

/// Packed tuples: a predicate rewritten into code space reads its column's
/// stored codes, any other decodes its column's values once per page; a
/// projected field is read at its slot, or out of its column where that was
/// decoded (a FOR-delta column always is: its values are a running sum).
struct PackedTuples<'a> {
    schema: &'a Schema,
    comps: &'a [ColumnCompression],
    cols: PackedColumns<'a>,
    code_preds: &'a [Option<CodePred>],
    decoded: &'a mut Decoded,
}

impl PackedTuples<'_> {
    /// Column `col`'s values on this page, decoded on first use.
    fn column(&mut self, col: usize) -> Result<&[u8]> {
        let d = &mut *self.decoded;
        let start = match d.at[col] {
            Some(start) => start,
            None => {
                let start = d.values.len();
                self.cols.column_raw(col, &mut d.values)?;
                *d.at[col].insert(start)
            }
        };
        let len = self.cols.count() * self.schema.dtype(col).width();
        Ok(&d.values[start..start + len])
    }
}

impl TupleReader for PackedTuples<'_> {
    const DENSE_L1: bool = false;

    fn count(&self) -> usize {
        self.cols.count()
    }

    fn keep(
        &mut self,
        pi: usize,
        pred: &Predicate,
        dtype: DataType,
        sel: &mut Vec<usize>,
    ) -> Result<()> {
        if let Some(cp) = &self.code_preds[pi] {
            let codes = &mut self.decoded.codes;
            codes.clear();
            self.cols.column_codes(pred.col, codes)?;
            retain(sel, |slot| cp.eval(codes[slot]));
            return Ok(());
        }
        let values = self.column(pred.col)?;
        select_strided(pred, dtype, values, dtype.width(), sel);
        Ok(())
    }

    /// A survivor at a time, each field read at its slot unless its column
    /// was decoded whole.
    fn project(&mut self, sel: &[usize], cols: &[usize], out: &mut Vec<u8>) -> Result<()> {
        for &slot in sel {
            for &col in cols {
                let is_delta = matches!(self.comps[col].codec, Codec::ForDelta { .. });
                if self.decoded.at[col].is_none() && !is_delta {
                    self.cols.field_raw_at(slot, col, out)?;
                    continue;
                }
                let width = self.schema.dtype(col).width();
                out.extend_from_slice(&self.column(col)?[slot * width..][..width]);
            }
        }
        Ok(())
    }

    fn decided_in_code(&self, pi: usize) -> bool {
        self.code_preds[pi].is_some()
    }

    /// Decompression CPU: predicate fields for every tuple (unless evaluated
    /// in code space), delta maintenance for every tuple, projected fields
    /// for qualifying tuples.
    fn charge_decode(&self, meter: &mut CpuMeter, lp: &TupleLoop, visited: u64, passed: u64) {
        let kind = |col: usize| self.comps[col].codec.kind();
        let is_delta = |col: usize| matches!(self.comps[col].codec, Codec::ForDelta { .. });
        for (pi, pred) in lp.predicates.iter().enumerate() {
            if !self.decided_in_code(pi) {
                meter.decode(kind(pred.col), visited as f64);
            }
        }
        let delta_cols = (0..self.comps.len()).filter(|&c| is_delta(c)).count();
        meter.decode(CodecKind::ForDelta, (visited * delta_cols as u64) as f64);
        for &c in lp.projection.iter().filter(|&&c| !is_delta(c)) {
            meter.decode(kind(c), passed as f64);
        }
    }
}

impl Operator for RowScanner {
    fn schema(&self) -> &Arc<Schema> {
        self.tuples.sink.schema()
    }

    fn label(&self) -> String {
        format!("scan[row] {}", self.table.name)
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        let block_cap = self.tuples.ctx.sys.block_tuples;
        while self.tuples.sink.remaining() < block_cap && self.fill_from_next_page()? {}
        let ctx = &self.tuples.ctx;
        let block = self.tuples.sink.emit(ctx, block_cap)?;
        if block.is_none() && self.tuples.window.settle(ctx) {
            // End-of-scan memory accounting: the scanner's page window
            // streamed through the memory bus (dense sequential access →
            // hardware prefetched). A whole-table scan streams the whole file.
            ctx.meter.borrow_mut().seq_region(self.pages.window_bytes());
        }
        Ok(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect_rows;
    use rodb_compress::ColumnCompression;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{Column, Value};

    fn table(n: usize) -> Arc<Table> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("id"),
                Column::int("val"),
                Column::text("tag", 6),
            ])
            .unwrap(),
        );
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..n {
            b.push_row(&[
                Value::Int(i as i32),
                Value::Int((i % 100) as i32),
                Value::text(["aa", "bb", "cc"][i % 3]),
            ])
            .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn packed_table(n: usize) -> Arc<Table> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("id"),
                Column::int("val"),
                Column::text("tag", 6),
            ])
            .unwrap(),
        );
        let dict = Arc::new(
            rodb_compress::Dictionary::build(
                rodb_types::DataType::Text(6),
                [Value::text("aa"), Value::text("bb"), Value::text("cc")].iter(),
            )
            .unwrap(),
        );
        let comps = vec![
            ColumnCompression::new(Codec::ForDelta { bits: 2 }, None).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap(),
            ColumnCompression::new(Codec::Dict { bits: 2 }, Some(dict)).unwrap(),
        ];
        let mut b =
            TableBuilder::with_compression("tz", s, 4096, BuildLayouts::both(), comps).unwrap();
        for i in 0..n {
            b.push_row(&[
                Value::Int(i as i32),
                Value::Int((i % 100) as i32),
                Value::text(["aa", "bb", "cc"][i % 3]),
            ])
            .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn full_scan_projects_everything() {
        let t = table(1000);
        let ctx = ExecContext::default_ctx();
        let mut s = RowScanner::new(t, vec![0, 1, 2], vec![], &ctx, None).unwrap();
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows[999][0], Value::Int(999));
        assert_eq!(rows[7][2].to_string(), "bb");
    }

    #[test]
    fn predicate_filters_and_positions_track_source() {
        let t = table(1000);
        let ctx = ExecContext::default_ctx();
        let mut s = RowScanner::new(t, vec![1], vec![Predicate::lt(1, 10)], &ctx, None).unwrap();
        let mut total = 0;
        while let Some(b) = s.next().unwrap() {
            for i in 0..b.count() {
                assert!(b.int(i, 0) < 10);
                let pos = b.position(i).unwrap();
                assert!(pos % 100 < 10);
            }
            total += b.count();
        }
        assert_eq!(total, 100); // 10% of 1000
    }

    #[test]
    fn packed_rows_scan_like_plain_rows() {
        let plain = table(3000);
        let packed = packed_table(3000);
        for preds in [
            vec![],
            vec![Predicate::lt(1, 10)],
            vec![Predicate::eq(2, "bb")],
        ] {
            for proj in [vec![0, 1, 2], vec![2, 0], vec![1]] {
                let ctx = ExecContext::default_ctx();
                let mut a = RowScanner::new(plain.clone(), proj.clone(), preds.clone(), &ctx, None)
                    .unwrap();
                let ctx2 = ExecContext::default_ctx();
                let mut b =
                    RowScanner::new(packed.clone(), proj.clone(), preds.clone(), &ctx2, None)
                        .unwrap();
                assert_eq!(
                    collect_rows(&mut a).unwrap(),
                    collect_rows(&mut b).unwrap(),
                    "proj {proj:?} preds {preds:?}"
                );
            }
        }
    }

    #[test]
    fn packed_rows_read_fewer_bytes_but_cost_more_cpu() {
        let plain = table(20_000);
        let packed = packed_table(20_000);
        let run = |t: &Arc<Table>| {
            let ctx = ExecContext::default_ctx();
            let mut s = RowScanner::new(
                t.clone(),
                vec![0, 1, 2],
                vec![Predicate::lt(1, 10)],
                &ctx,
                None,
            )
            .unwrap();
            while s.next().unwrap().is_some() {}
            let bytes = ctx.disk.borrow().stats().bytes_read;
            let uops = ctx.meter.borrow().counters().uops;
            (bytes, uops)
        };
        let (plain_bytes, plain_uops) = run(&plain);
        let (packed_bytes, packed_uops) = run(&packed);
        assert!(packed_bytes < plain_bytes / 2.0);
        assert!(packed_uops > plain_uops); // decompression cost (§4.4)
    }

    #[test]
    fn packed_fast_path_matches_and_cuts_cpu() {
        let packed = packed_table(5000);
        let fast_ctx = || {
            ExecContext::new(
                rodb_types::HardwareConfig::default(),
                rodb_types::SystemConfig::default().with_scan_fast_path(true),
                1.0,
            )
            .unwrap()
        };
        for preds in [
            vec![Predicate::lt(1, 10)],
            vec![Predicate::eq(2, "bb")],
            vec![Predicate::ge(1, 97), Predicate::eq(2, "cc")],
            vec![Predicate::eq(0, 1234)], // FOR-delta: not rewritable
        ] {
            let ctx = ExecContext::default_ctx();
            let mut slow =
                RowScanner::new(packed.clone(), vec![0, 1, 2], preds.clone(), &ctx, None).unwrap();
            let slow_rows = collect_rows(&mut slow).unwrap();
            let fctx = fast_ctx();
            let mut fast =
                RowScanner::new(packed.clone(), vec![0, 1, 2], preds.clone(), &fctx, None).unwrap();
            let fast_rows = collect_rows(&mut fast).unwrap();
            assert_eq!(fast_rows, slow_rows, "{preds:?}");
        }
        // A rewritable predicate skips its per-tuple decode + interpreted
        // evaluation: modeled CPU must drop.
        let run = |fast: bool| {
            let ctx = if fast {
                fast_ctx()
            } else {
                ExecContext::default_ctx()
            };
            let mut s = RowScanner::new(
                packed.clone(),
                vec![1],
                vec![Predicate::lt(1, 1)],
                &ctx,
                None,
            )
            .unwrap();
            while s.next().unwrap().is_some() {}
            let uops = ctx.meter.borrow().counters().uops;
            uops
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn projection_reorders_columns() {
        let t = table(10);
        let ctx = ExecContext::default_ctx();
        let mut s = RowScanner::new(t, vec![2, 0], vec![], &ctx, None).unwrap();
        assert_eq!(s.schema().columns()[0].name, "tag");
        assert_eq!(s.schema().columns()[1].name, "id");
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows[3][1], Value::Int(3));
    }

    #[test]
    fn conjunctive_predicates() {
        let t = table(1000);
        let ctx = ExecContext::default_ctx();
        let preds = vec![Predicate::lt(1, 50), Predicate::eq(2, "aa")];
        let mut s = RowScanner::new(t, vec![0], preds, &ctx, None).unwrap();
        let rows = collect_rows(&mut s).unwrap();
        for r in &rows {
            let id = r[0].as_int().unwrap() as usize;
            assert!(id % 100 < 50 && id.is_multiple_of(3));
        }
        let expected = (0..1000).filter(|i| i % 100 < 50 && i % 3 == 0).count();
        assert_eq!(rows.len(), expected);
    }

    #[test]
    fn io_reads_whole_file_regardless_of_selectivity() {
        let t = table(5000);
        let file_bytes = t.row_storage().unwrap().byte_len() as f64;
        for pred in [vec![], vec![Predicate::lt(1, 1)]] {
            let ctx = ExecContext::default_ctx();
            let mut s = RowScanner::new(t.clone(), vec![0], pred, &ctx, None).unwrap();
            while s.next().unwrap().is_some() {}
            let stats = *ctx.disk.borrow().stats();
            assert!((stats.bytes_read - file_bytes).abs() < 1.0);
        }
    }

    #[test]
    fn cpu_meter_sees_scan_work() {
        let t = table(2000);
        let ctx = ExecContext::default_ctx();
        let mut s = RowScanner::new(
            t.clone(),
            vec![0, 1],
            vec![Predicate::lt(1, 10)],
            &ctx,
            None,
        )
        .unwrap();
        while s.next().unwrap().is_some() {}
        let c = ctx.meter.borrow().counters();
        assert!(c.uops > 0.0);
        let file_bytes = t.row_storage().unwrap().byte_len() as f64;
        assert!(c.seq_bytes >= file_bytes);
        assert!(c.branch_mispredicts > 0.0);
    }

    #[test]
    fn rejects_bad_plans() {
        let t = table(10);
        let ctx = ExecContext::default_ctx();
        assert!(RowScanner::new(t.clone(), vec![], vec![], &ctx, None).is_err());
        assert!(RowScanner::new(t.clone(), vec![9], vec![], &ctx, None).is_err());
        assert!(RowScanner::new(t, vec![0], vec![Predicate::lt(9, 1)], &ctx, None).is_err());
    }

    /// The same rows in every row format — plain, PAX and packed — on
    /// `PAGE`-byte pages. Packed: FOR-delta `id`, BitPack `val`, Dict text
    /// `tag`, raw `x` and TextPack `note`, so every field but the first sits
    /// at an odd bit offset.
    const PAGE: usize = 1024;

    fn every_format(n: usize) -> Vec<Table> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("id"),
                Column::int("val"),
                Column::text("tag", 6),
                Column::int("x"),
                Column::text("note", 8),
            ])
            .unwrap(),
        );
        let tags = ["aa", "bb", "cc"].map(Value::text);
        let dict = rodb_compress::Dictionary::build(DataType::Text(6), tags.iter()).unwrap();
        let comps = vec![
            ColumnCompression::new(Codec::ForDelta { bits: 3 }, None).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap(),
            ColumnCompression::new(Codec::Dict { bits: 2 }, Some(Arc::new(dict))).unwrap(),
            ColumnCompression::none(),
            ColumnCompression::new(Codec::TextPack { bytes: 4 }, None).unwrap(),
        ];
        let layouts = BuildLayouts::row_only();
        let builders = [
            TableBuilder::new("plain", s.clone(), PAGE, layouts),
            TableBuilder::new_pax("pax", s.clone(), PAGE, layouts),
            TableBuilder::with_compression("packed", s, PAGE, layouts, comps),
        ];
        let rows = (0..n).map(|i| {
            [
                Value::Int((2 * i + i % 2) as i32),
                Value::Int((i * 7 % 100) as i32),
                tags[(i * 5 + i / 7) % 3].clone(),
                Value::Int(1000 - 3 * i as i32),
                Value::text(["n1", "note", "", "xy"][i % 4]),
            ]
        });
        let build = |b: Result<TableBuilder>| {
            let mut b = b.unwrap();
            rows.clone().for_each(|row| b.push_row(&row).unwrap());
            b.finish().unwrap()
        };
        builders.into_iter().map(build).collect()
    }

    /// The scan's `(position, row)` pairs, or its error.
    fn scan_rows(
        t: &Arc<Table>,
        sys: rodb_types::SystemConfig,
        proj: &[usize],
        preds: &[Predicate],
        range: Option<(u64, u64)>,
    ) -> Result<Vec<(u64, Vec<Value>)>> {
        t.quarantine.clear();
        let ctx = ExecContext::new(rodb_types::HardwareConfig::default(), sys, 1.0)?;
        let mut s = RowScanner::new(t.clone(), proj.to_vec(), preds.to_vec(), &ctx, range)?;
        let mut rows = Vec::new();
        while let Some(block) = s.next()? {
            rows.extend(block.positions().iter().copied().zip(block.rows()?));
        }
        Ok(rows)
    }

    #[test]
    fn every_row_format_returns_the_oracle_rows_of_its_window() {
        use rodb_storage::Layout;
        use rodb_types::{OnCorrupt, SystemConfig};
        const ROWS: u64 = 1_500;
        let preds = [
            vec![],
            vec![Predicate::lt(1, 30)],
            vec![Predicate::eq(2, "bb")],
            vec![Predicate::ge(0, 1_200)], // the FOR-delta column
            vec![Predicate::lt(1, 60), Predicate::eq(2, "cc")],
        ];
        let projections = [vec![0, 1, 2, 3, 4], vec![4, 2, 1], vec![3, 0]];
        let cuts = [0, 1, 250, 701, ROWS - 1, ROWS];
        let mut windows = vec![None];
        for (i, &a) in cuts.iter().enumerate() {
            windows.extend(cuts[i..].iter().map(|&b| Some((a, b))));
        }
        for clean in every_format(ROWS as usize) {
            // The oracle decodes through the sequential cursor.
            let oracle = clean.read_all(Layout::Row).unwrap();
            let rs = clean.row_storage().unwrap();
            let tpp = rs.tuples_per_page as u64;
            assert!(rs.pages > 4, "{}: {} pages", clean.name, rs.pages);
            let mut damaged = clean.clone();
            let file = &mut damaged.row.as_mut().unwrap().file;
            Arc::make_mut(file)[2 * PAGE + 100] ^= 0x10;
            let lost = 2 * tpp..3 * tpp;
            for (t, on_corrupt) in [(clean, OnCorrupt::Fail), (damaged, OnCorrupt::Skip)] {
                let t = Arc::new(t);
                for fast in [false, true] {
                    let sys = SystemConfig {
                        page_size: PAGE,
                        ..SystemConfig::default()
                    }
                    .with_scan_fast_path(fast)
                    .with_on_corrupt(on_corrupt);
                    for (preds, proj) in preds
                        .iter()
                        .flat_map(|p| projections.iter().map(move |j| (p, j)))
                    {
                        for &range in &windows {
                            let (a, b) = range.unwrap_or((0, ROWS));
                            let skip = on_corrupt == OnCorrupt::Skip;
                            let want: Vec<(u64, Vec<Value>)> = (a..b)
                                .filter(|pos| !(skip && lost.contains(pos)))
                                .map(|pos| (pos, &oracle[pos as usize]))
                                .filter(|(_, row)| preds.iter().all(|p| p.eval_value(&row[p.col])))
                                .map(|(pos, row)| {
                                    (pos, proj.iter().map(|&c| row[c].clone()).collect())
                                })
                                .collect();
                            let what = format!(
                                "{} {range:?} fast={fast} {preds:?} {proj:?} {on_corrupt:?}",
                                t.name
                            );
                            assert_eq!(
                                scan_rows(&t, sys, proj, preds, range).unwrap(),
                                want,
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_packed_page_claiming_too_many_tuples_fails_the_scan_corrupt() {
        use rodb_types::{Error, SystemConfig};
        let mut t = every_format(600).remove(2);
        let rs = t.row.as_mut().unwrap();
        let cap = rs.tuples_per_page as u32;
        for count in [cap + 1, u32::MAX] {
            let mut t = t.clone();
            let file = Arc::make_mut(&mut t.row.as_mut().unwrap().file);
            let page = &mut file[PAGE..2 * PAGE];
            page[..4].copy_from_slice(&count.to_le_bytes());
            let crc = rodb_storage::page::crc32(&page[..PAGE - 4]);
            page[PAGE - 4..].copy_from_slice(&crc.to_le_bytes());
            let t = Arc::new(t);
            for fast in [false, true] {
                for preds in [vec![], vec![Predicate::lt(1, 30)]] {
                    let sys = SystemConfig {
                        page_size: PAGE,
                        ..SystemConfig::default()
                    }
                    .with_scan_fast_path(fast);
                    let got = scan_rows(&t, sys, &[0, 1, 2, 3, 4], &preds, None);
                    assert!(
                        matches!(got, Err(Error::Corrupt(_))),
                        "count {count} fast={fast} {preds:?}: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn column_only_table_has_no_row_scan() {
        let s = Arc::new(Schema::new(vec![Column::int("a")]).unwrap());
        let mut b = TableBuilder::new("c", s, 4096, BuildLayouts::column_only()).unwrap();
        b.push_row(&[Value::Int(1)]).unwrap();
        let t = Arc::new(b.finish().unwrap());
        let ctx = ExecContext::default_ctx();
        assert!(RowScanner::new(t, vec![0], vec![], &ctx, None).is_err());
    }
}
