//! The row-store table scanner (§2.2.2).
//!
//! "The row scanner is straightforward: it iterates over the pages contained
//! inside an I/O buffer, and, for each page, it iterates over the tuples,
//! applying the predicates. Tuples that qualify are projected according to
//! the list of attributes selected by the query and are placed in a block of
//! tuples."
//!
//! Handles both row formats: plain padded tuples and the packed (compressed)
//! tuples of the -Z tables, whose FOR-delta attributes force sequential
//! per-tuple decoding (§4.4: the row store "shows a small increase in user
//! CPU time ... the cost of decompression").

use std::sync::Arc;

use rodb_compress::{Codec, CodecKind};
use rodb_storage::{RowFormat, Table, VerifiedPage};
use rodb_types::{Result, Schema};

use crate::block::TupleBlock;
use crate::codepred::{rewrite, CodePred};
use crate::degraded::DropSet;
use crate::op::{ExecContext, Operator};
use crate::page_cursor::PageCursor;
use crate::predicate::{scan_schema, Predicate};

/// Scans a table's row representation, applying SARGable predicates and a
/// projection.
pub struct RowScanner {
    table: Arc<Table>,
    ctx: ExecContext,
    projection: Vec<usize>,
    predicates: Vec<Predicate>,
    out_schema: Arc<Schema>,
    /// The row file, clamped to the pages holding this scanner's row range
    /// (whole table by default; a morsel of it under parallel execution).
    pages: PageCursor,
    done: bool,
    /// Ordinal ranges dropped by degraded skips (empty unless `on_corrupt =
    /// Skip` absorbed a page whose every replica was bad).
    dropped: DropSet,
    /// Bytes of the fields the projection copies per qualifying tuple.
    proj_bytes: usize,
    /// Qualifying projected tuples not yet emitted (strided by out width).
    pending: Vec<u8>,
    pending_pos: Vec<u64>,
    pending_taken: usize,
    scratch: Vec<u8>,
}

impl RowScanner {
    /// Build a row scanner. `projection` lists base-table column indices in
    /// output order; `predicates` reference base-table columns.
    pub fn new(
        table: Arc<Table>,
        projection: Vec<usize>,
        predicates: Vec<Predicate>,
        ctx: &ExecContext,
    ) -> Result<RowScanner> {
        RowScanner::new_range(table, projection, predicates, ctx, None)
    }

    /// Build a row scanner restricted to the row-ordinal range `[start, end)`
    /// — one morsel of a parallel scan. `None` scans the whole table.
    pub fn new_range(
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
        let proj_bytes = table.schema.selected_bytes(&projection);
        Ok(RowScanner {
            table,
            ctx: ctx.clone(),
            projection,
            predicates,
            out_schema,
            pages,
            done: false,
            dropped: DropSet::default(),
            proj_bytes,
            pending: Vec::new(),
            pending_pos: Vec::new(),
            pending_taken: 0,
            scratch: Vec::new(),
        })
    }

    fn pending_remaining(&self) -> usize {
        self.pending_pos.len() - self.pending_taken
    }

    /// Process one whole page into the pending buffer. False at EOF.
    fn fill_from_next_page(&mut self) -> Result<bool> {
        let Some((page_index, first_row, page)) = self.pages.next() else {
            return Ok(false);
        };
        match page {
            Ok(page) => self
                .process_page(&page, first_row)
                .map_err(|e| self.pages.locate(e, page_index))?,
            // Degraded skip. Nothing to roll back: a retryable error is a
            // failed checksum, raised before any tuple of the page is read.
            Err(e) if self.pages.skips(&e) => self.pages.quarantine(page_index, &mut self.dropped),
            Err(e) => return Err(e),
        }
        Ok(true)
    }

    /// Parse one page, appending qualifying projected tuples to the pending
    /// buffer and charging CPU work. `first_row` is the page's first ordinal
    /// by file geometry.
    fn process_page(&mut self, page: &VerifiedPage, first_row: u64) -> Result<()> {
        let schema = self.table.schema.clone();
        let rs = self.table.row_storage()?;
        let out_width = self.out_schema.logical_width();
        let range = self.pages.range();
        let mut row_ordinal = first_row;

        let mut visited = 0u64;
        let mut pred_evals = vec![0u64; self.predicates.len()];
        let mut pred_passes = vec![0u64; self.predicates.len()];
        let mut passed_total = 0u64;
        let mut dense_l1 = false;

        match &rs.format {
            RowFormat::Plain { stored_width } => {
                let page = page.row(*stored_width)?;
                for raw in page.tuples() {
                    if row_ordinal < range.0 || row_ordinal >= range.1 {
                        row_ordinal += 1;
                        continue;
                    }
                    visited += 1;
                    let mut pass = true;
                    for (pi, pred) in self.predicates.iter().enumerate() {
                        pred_evals[pi] += 1;
                        let dt = schema.dtype(pred.col);
                        let off = schema.offset(pred.col);
                        if pred.eval_raw(dt, &raw[off..off + dt.width()]) {
                            pred_passes[pi] += 1;
                        } else {
                            pass = false;
                            break;
                        }
                    }
                    if pass {
                        passed_total += 1;
                        for &c in &self.projection {
                            let off = schema.offset(c);
                            let w = schema.dtype(c).width();
                            self.pending.extend_from_slice(&raw[off..off + w]);
                        }
                        self.pending_pos.push(row_ordinal);
                    }
                    row_ordinal += 1;
                }
            }
            RowFormat::Pax => {
                // PAX: same bytes off disk, but fields of one column are
                // contiguous in the page — predicate evaluation touches
                // densely packed cache lines (§6's locality benefit).
                dense_l1 = true;
                let page = page.pax(&schema)?;
                for i in 0..page.count() {
                    if row_ordinal < range.0 || row_ordinal >= range.1 {
                        row_ordinal += 1;
                        continue;
                    }
                    visited += 1;
                    let mut pass = true;
                    for (pi, pred) in self.predicates.iter().enumerate() {
                        pred_evals[pi] += 1;
                        let dt = schema.dtype(pred.col);
                        if pred.eval_raw(dt, page.field(&schema, i, pred.col)) {
                            pred_passes[pi] += 1;
                        } else {
                            pass = false;
                            break;
                        }
                    }
                    if pass {
                        passed_total += 1;
                        for &c in &self.projection {
                            self.pending.extend_from_slice(page.field(&schema, i, c));
                        }
                        self.pending_pos.push(row_ordinal);
                    }
                    row_ordinal += 1;
                }
            }
            RowFormat::Packed { comps, .. } => {
                let page = page.packed(comps)?;
                // Fast path: rewrite each predicate against this page's
                // compression metadata; rewritten predicates are evaluated on
                // the raw stored codes without decoding the field.
                let code_preds: Vec<Option<CodePred>> = if self.ctx.sys.scan_fast_path {
                    self.predicates
                        .iter()
                        .map(|p| {
                            let base = page.base_of(comps, p.col).unwrap_or(0);
                            // Packed row formats only carry fixed-width codecs
                            // (packed_equivalent demotion), so code_base is 0.
                            rewrite(p, &comps[p.col], base, 0)
                        })
                        .collect()
                } else {
                    vec![None; self.predicates.len()]
                };
                let mut vec_evals = vec![0u64; self.predicates.len()];
                let mut cur = page.cursor(&schema, comps);
                let delta_cols = comps
                    .iter()
                    .filter(|c| matches!(c.codec, Codec::ForDelta { .. }))
                    .count();
                let mut scratch = std::mem::take(&mut self.scratch);
                while cur.advance()? {
                    if row_ordinal < range.0 || row_ordinal >= range.1 {
                        // Out-of-range rows on a shared boundary page: the
                        // cursor still decodes past them (FOR-delta is
                        // sequential) but they are not visited.
                        row_ordinal += 1;
                        continue;
                    }
                    visited += 1;
                    let mut pass = true;
                    for (pi, pred) in self.predicates.iter().enumerate() {
                        if let Some(cp) = &code_preds[pi] {
                            vec_evals[pi] += 1;
                            if !cp.eval(cur.field_code(pred.col)?) {
                                pass = false;
                                break;
                            }
                            continue;
                        }
                        pred_evals[pi] += 1;
                        let dt = schema.dtype(pred.col);
                        scratch.clear();
                        cur.field_raw(pred.col, &mut scratch)?;
                        if pred.eval_raw(dt, &scratch) {
                            pred_passes[pi] += 1;
                        } else {
                            pass = false;
                            break;
                        }
                    }
                    if pass {
                        passed_total += 1;
                        for &c in &self.projection {
                            cur.field_raw(c, &mut self.pending)?;
                        }
                        self.pending_pos.push(row_ordinal);
                    }
                    row_ordinal += 1;
                }
                self.scratch = scratch;
                // Decompression CPU: predicate fields for every tuple (unless
                // evaluated in code space), delta maintenance for every
                // tuple, projected fields for qualifying tuples.
                let mut meter = self.ctx.meter.borrow_mut();
                for (pi, pred) in self.predicates.iter().enumerate() {
                    if code_preds[pi].is_some() {
                        meter.vec_predicate(vec_evals[pi] as f64);
                    } else {
                        meter.decode(comps[pred.col].codec.kind(), visited as f64);
                    }
                }
                meter.decode(CodecKind::ForDelta, (visited * delta_cols as u64) as f64);
                for &c in &self.projection {
                    if !matches!(comps[c].codec, Codec::ForDelta { .. }) {
                        meter.decode(comps[c].codec.kind(), passed_total as f64);
                    }
                }
            }
        }

        debug_assert_eq!(self.pending.len(), (self.pending_pos.len()) * out_width);

        // Common CPU accounting for the page.
        {
            let mut meter = self.ctx.meter.borrow_mut();
            meter.row_iter(visited as f64);
            for (pi, pred) in self.predicates.iter().enumerate() {
                meter.predicate(pred_evals[pi] as f64, pred_passes[pi] as f64);
                let w = schema.dtype(pred.col).width() as f64;
                if dense_l1 {
                    meter.touch_l1_dense(pred_evals[pi] as f64 * w);
                } else {
                    meter.touch_l1(pred_evals[pi] as f64, w);
                }
            }
            meter.project(
                passed_total as f64,
                self.projection.len() as f64,
                passed_total as f64 * self.proj_bytes as f64,
            );
            if dense_l1 {
                meter.touch_l1_dense(passed_total as f64 * self.proj_bytes as f64);
            } else {
                meter.touch_l1(passed_total as f64, self.proj_bytes as f64);
            }
        }
        Ok(())
    }

    /// End-of-scan memory accounting: the scanner's page window streamed
    /// through the memory bus (dense sequential access → hardware
    /// prefetched). A whole-table scan streams the whole file.
    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let dropped = self.dropped.total();
        if dropped > 0 {
            self.ctx.disk.borrow_mut().note_dropped_rows(dropped);
        }
        self.ctx
            .meter
            .borrow_mut()
            .seq_region(self.pages.window_bytes());
    }
}

impl Operator for RowScanner {
    fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    fn label(&self) -> String {
        format!("scan[row] {}", self.table.name)
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        if self.done {
            return Ok(None);
        }
        let block_cap = self.ctx.sys.block_tuples;
        while self.pending_remaining() < block_cap {
            if !self.fill_from_next_page()? {
                break;
            }
        }
        if self.pending_remaining() == 0 {
            self.finish();
            return Ok(None);
        }
        let take = self.pending_remaining().min(block_cap);
        let w = self.out_schema.logical_width();
        let mut block = TupleBlock::new(self.out_schema.clone(), take);
        for k in 0..take {
            let idx = self.pending_taken + k;
            block.push_tuple(&self.pending[idx * w..(idx + 1) * w], self.pending_pos[idx])?;
        }
        self.pending_taken += take;
        if self.pending_taken == self.pending_pos.len() {
            self.pending.clear();
            self.pending_pos.clear();
            self.pending_taken = 0;
        }
        {
            let mut meter = self.ctx.meter.borrow_mut();
            meter.block_calls(1.0);
            meter.stream_bytes(block.byte_len() as f64);
        }
        Ok(Some(block))
    }
}

/// The row scanner's page schedule with the tuples taken out — the shared
/// cursor's driver pass over the row file (see
/// [`crate::scan_col::column_page_pass`]): pull and checksum, once, every
/// page holding `range`, quarantining under `on_corrupt = Skip` what a
/// [`RowScanner`] would, and parse no tuple.
pub fn row_page_pass(table: &Table, ctx: &ExecContext, range: (u64, u64)) -> Result<()> {
    let mut pages = PageCursor::open(ctx, table, None, Some(range))?;
    ctx.disk.borrow_mut().set_interleave(1);
    let mut dropped = DropSet::default();
    while let Some((page_index, _, page)) = pages.next() {
        match page {
            Ok(_) => {}
            Err(e) if pages.skips(&e) => pages.quarantine(page_index, &mut dropped),
            Err(e) => return Err(e),
        }
    }
    if dropped.total() > 0 {
        ctx.disk.borrow_mut().note_dropped_rows(dropped.total());
    }
    Ok(())
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
        let mut s = RowScanner::new(t, vec![0, 1, 2], vec![], &ctx).unwrap();
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows[999][0], Value::Int(999));
        assert_eq!(rows[7][2].to_string(), "bb");
    }

    #[test]
    fn predicate_filters_and_positions_track_source() {
        let t = table(1000);
        let ctx = ExecContext::default_ctx();
        let mut s = RowScanner::new(t, vec![1], vec![Predicate::lt(1, 10)], &ctx).unwrap();
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
                let mut a =
                    RowScanner::new(plain.clone(), proj.clone(), preds.clone(), &ctx).unwrap();
                let ctx2 = ExecContext::default_ctx();
                let mut b =
                    RowScanner::new(packed.clone(), proj.clone(), preds.clone(), &ctx2).unwrap();
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
            let mut s = RowScanner::new(t.clone(), vec![0, 1, 2], vec![Predicate::lt(1, 10)], &ctx)
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
                RowScanner::new(packed.clone(), vec![0, 1, 2], preds.clone(), &ctx).unwrap();
            let slow_rows = collect_rows(&mut slow).unwrap();
            let fctx = fast_ctx();
            let mut fast =
                RowScanner::new(packed.clone(), vec![0, 1, 2], preds.clone(), &fctx).unwrap();
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
            let mut s =
                RowScanner::new(packed.clone(), vec![1], vec![Predicate::lt(1, 1)], &ctx).unwrap();
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
        let mut s = RowScanner::new(t, vec![2, 0], vec![], &ctx).unwrap();
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
        let mut s = RowScanner::new(t, vec![0], preds, &ctx).unwrap();
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
            let mut s = RowScanner::new(t.clone(), vec![0], pred, &ctx).unwrap();
            while s.next().unwrap().is_some() {}
            let stats = *ctx.disk.borrow().stats();
            assert!((stats.bytes_read - file_bytes).abs() < 1.0);
        }
    }

    #[test]
    fn cpu_meter_sees_scan_work() {
        let t = table(2000);
        let ctx = ExecContext::default_ctx();
        let mut s =
            RowScanner::new(t.clone(), vec![0, 1], vec![Predicate::lt(1, 10)], &ctx).unwrap();
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
        assert!(RowScanner::new(t.clone(), vec![], vec![], &ctx).is_err());
        assert!(RowScanner::new(t.clone(), vec![9], vec![], &ctx).is_err());
        assert!(RowScanner::new(t, vec![0], vec![Predicate::lt(9, 1)], &ctx).is_err());
    }

    #[test]
    fn column_only_table_has_no_row_scan() {
        let s = Arc::new(Schema::new(vec![Column::int("a")]).unwrap());
        let mut b = TableBuilder::new("c", s, 4096, BuildLayouts::column_only()).unwrap();
        b.push_row(&[Value::Int(1)]).unwrap();
        let t = Arc::new(b.finish().unwrap());
        let ctx = ExecContext::default_ctx();
        assert!(RowScanner::new(t, vec![0], vec![], &ctx).is_err());
    }
}
