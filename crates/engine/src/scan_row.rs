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
//! packed (compressed) tuples of the -Z tables, whose FOR-delta attributes
//! force sequential per-tuple decoding (§4.4: the row store "shows a small
//! increase in user CPU time ... the cost of decompression"). A reader knows
//! how its format steps, decides one predicate on the current tuple, appends
//! one field of it and is charged for decoding; it knows nothing of windows,
//! tallies or blocks.

use std::sync::Arc;

use rodb_compress::{Codec, CodecKind, ColumnCompression};
use rodb_cpu::CpuMeter;
use rodb_storage::page_packed::PackedRowCursor;
use rodb_storage::{RowFormat, Table, VerifiedPage};
use rodb_types::{DataType, Result, Schema};

use crate::block::TupleBlock;
use crate::codepred::{rewrite, CodePred};
use crate::op::{ExecContext, Operator};
use crate::page_cursor::PageCursor;
use crate::predicate::{scan_schema, Predicate};
use crate::scan_core::{conjunction, Pending, PredTally, Sink, Window};

/// Scans a table's row representation, applying SARGable predicates and a
/// projection.
pub struct RowScanner {
    table: Arc<Table>,
    /// The row file, clamped to the pages holding this scanner's row range
    /// (whole table by default; a morsel of it under parallel execution).
    pages: PageCursor,
    tuples: TupleLoop,
    /// Packed pages: this page's code-space rewrites, and decode space.
    code_preds: Vec<Option<CodePred>>,
    scratch: Vec<u8>,
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
    /// Qualifying projected tuples not yet emitted.
    sink: Sink,
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
            sink: Sink::new(out_schema, Pending::Tuples),
        };
        Ok(RowScanner {
            table,
            pages,
            tuples,
            code_preds: Vec::new(),
            scratch: Vec::new(),
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
        match &self.table.row_storage()?.format {
            RowFormat::Plain { stored_width } => {
                let page = page.row(*stored_width)?;
                let reader = Stored::<_, _, false> {
                    tuples: page.tuples(),
                    cur: &[][..],
                    field: |tuple, col| {
                        let off = schema.offset(col);
                        &tuple[off..off + schema.dtype(col).width()]
                    },
                };
                self.tuples.process_page(reader, first_row)
            }
            RowFormat::Pax => {
                // Same bytes off disk, but the fields of one column are
                // contiguous in the page.
                let page = page.pax(schema)?;
                let reader = Stored::<_, _, true> {
                    tuples: 0..page.count(),
                    cur: 0,
                    field: |i, col| page.field(schema, i, col),
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
                let reader = PackedTuples {
                    comps,
                    cur: page.cursor(schema, comps),
                    code_preds: &self.code_preds,
                    scratch: &mut self.scratch,
                };
                self.tuples.process_page(reader, first_row)
            }
        }
    }
}

/// One row-format page as the tuple loop steps through it.
trait TupleReader {
    /// Fields of one column sit contiguously in the page, so evaluation
    /// touches densely packed cache lines (PAX — §6's locality benefit).
    const DENSE_L1: bool;

    /// Step to the next tuple; false at the end of the page.
    fn advance(&mut self) -> Result<bool>;

    /// Whether predicate number `pi` of the scan, on a column of type
    /// `dtype`, holds on the current tuple.
    fn holds(&mut self, pi: usize, pred: &Predicate, dtype: DataType) -> Result<bool>;

    /// Append column `col` of the current tuple at full declared width.
    fn project(&mut self, col: usize, out: &mut Vec<u8>) -> Result<()>;

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
    /// The tuple loop: every tuple of one page, in order — admit, select,
    /// project into the sink — then the page's CPU accounting.
    fn process_page<R: TupleReader>(&mut self, mut reader: R, first_row: u64) -> Result<()> {
        let (mut visited, mut passed) = (0u64, 0u64);
        self.tallies.fill(PredTally::default());
        let mut pos = first_row;
        while reader.advance()? {
            // Out-of-window rows on a shared boundary page are stepped over
            // (a sequential decoder still decodes past them), not visited.
            if self.window.admits(pos) {
                visited += 1;
                let holds =
                    |pi, pred: &Predicate| reader.holds(pi, pred, self.schema.dtype(pred.col));
                if conjunction(&self.predicates, &mut self.tallies, holds)? {
                    passed += 1;
                    self.sink.push_with(pos, |out| {
                        for &c in &self.projection {
                            reader.project(c, out)?;
                        }
                        Ok(())
                    })?;
                }
            }
            pos += 1;
        }

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

/// Plain and PAX pages: tuples stored at full width, `field(tuple, col)`
/// lending a field of the current one — `cur`, a slice of a plain page or an
/// index into a PAX page's minipages. `DENSE`: see [`TupleReader::DENSE_L1`].
struct Stored<'a, I: Iterator, F: Fn(I::Item, usize) -> &'a [u8], const DENSE: bool> {
    tuples: I,
    cur: I::Item,
    field: F,
}

impl<'a, I, F, const DENSE: bool> TupleReader for Stored<'a, I, F, DENSE>
where
    I: Iterator<Item: Copy>,
    F: Fn(I::Item, usize) -> &'a [u8],
{
    const DENSE_L1: bool = DENSE;

    fn advance(&mut self) -> Result<bool> {
        let next = self.tuples.next();
        self.cur = next.unwrap_or(self.cur);
        Ok(next.is_some())
    }

    fn holds(&mut self, _: usize, pred: &Predicate, dtype: DataType) -> Result<bool> {
        Ok(pred.eval_raw(dtype, (self.field)(self.cur, pred.col)))
    }

    fn project(&mut self, col: usize, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice((self.field)(self.cur, col));
        Ok(())
    }
}

/// Packed tuples: a sequential cursor (FOR-delta fields are maintained
/// tuple by tuple); a predicate rewritten into code space reads the stored
/// code, any other field is decoded on demand.
struct PackedTuples<'a> {
    comps: &'a [ColumnCompression],
    cur: PackedRowCursor<'a>,
    code_preds: &'a [Option<CodePred>],
    scratch: &'a mut Vec<u8>,
}

impl TupleReader for PackedTuples<'_> {
    const DENSE_L1: bool = false;

    fn advance(&mut self) -> Result<bool> {
        self.cur.advance()
    }

    #[inline]
    fn holds(&mut self, pi: usize, pred: &Predicate, dtype: DataType) -> Result<bool> {
        if let Some(cp) = &self.code_preds[pi] {
            return Ok(cp.eval(self.cur.field_code(pred.col)?));
        }
        self.scratch.clear();
        self.cur.field_raw(pred.col, self.scratch)?;
        Ok(pred.eval_raw(dtype, self.scratch))
    }

    fn project(&mut self, col: usize, out: &mut Vec<u8>) -> Result<()> {
        self.cur.field_raw(col, out)
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
        let c = *ctx.meter.borrow().counters();
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
