//! Non-pipelined, single-iterator column scanner (§4.2's suggested
//! optimization, out of the paper's measured scope — implemented here as an
//! extension for the ablation study).
//!
//! "It first fetches disk pages from all scanned columns into memory. Then,
//! it uses memory offsets to access all attributes within the same row,
//! iterating over entire rows, similarly to a row store. This architecture
//! is similar to PAX and MonetDB."
//!
//! Compared with the pipelined scanner it pays **no position-pair overhead**,
//! but it decodes *every* value of *every* selected column regardless of
//! selectivity — better at high selectivity, worse at low.

use std::sync::Arc;

use rodb_storage::Table;
use rodb_types::{DataType, Result, Schema};

use crate::block::TupleBlock;
use crate::degraded::DropSet;
use crate::op::{ExecContext, Operator};
use crate::page_cursor::PageCursor;
use crate::predicate::{scan_columns, scan_schema, Predicate};

struct ColCursor {
    dtype: DataType,
    width: usize,
    comp: rodb_compress::ColumnCompression,
    preds: Vec<Predicate>,
    out_col: Option<usize>,
    pages: PageCursor,
    /// All values of the current page, decoded eagerly (raw full-width bytes,
    /// strided by `width`).
    decoded: Vec<u8>,
    /// Fast path: int scratch for the block-decode kernels.
    ints: Vec<i32>,
    /// Fast path: per-slot predicate verdict for the current page, computed
    /// in one vectorized pass at page load.
    pass_map: Vec<bool>,
    /// Vectorized fast path enabled (`scan_fast_path`).
    fast: bool,
    values_decoded: u64,
    blocks_decoded: u64,
    vec_pred_evals: u64,
    pred_evals: u64,
    pred_passes: u64,
    values_written: u64,
}

impl ColCursor {
    /// Whether predicate verdicts come from the page-load `pass_map`.
    #[inline]
    fn vectorized(&self) -> bool {
        self.fast && self.dtype == DataType::Int && !self.preds.is_empty()
    }

    /// Seek to the page holding `pos`, eagerly decoding every page pulled
    /// on the way — the defining trait of this scanner.
    fn load_page_for(&mut self, pos: u64) -> Result<()> {
        if self.pages.holds(pos) {
            return Ok(());
        }
        let ColCursor {
            pages,
            dtype,
            width,
            comp,
            preds,
            decoded,
            ints,
            pass_map,
            fast,
            values_decoded,
            blocks_decoded,
            vec_pred_evals,
            ..
        } = self;
        pages.seek(pos, |verified, _| {
            let page = verified.column(*dtype);
            let count = page.count();
            decoded.clear();
            decoded.reserve(count * *width);
            let pv = page.values(comp);
            if *fast && *dtype == DataType::Int {
                // Block-kernel decode plus one vectorized predicate pass.
                pv.decode_ints_into(ints)?;
                for v in ints.iter() {
                    decoded.extend_from_slice(&v.to_le_bytes());
                }
                *blocks_decoded += count as u64;
                if !preds.is_empty() {
                    pass_map.clear();
                    pass_map.extend(ints.iter().map(|&v| preds.iter().all(|p| p.eval_int(v))));
                    *vec_pred_evals += (count * preds.len()) as u64;
                }
            } else {
                let mut cur = pv.cursor();
                for _ in 0..count {
                    cur.next_raw(decoded)?;
                }
                *values_decoded += count as u64;
            }
            Ok(())
        })
    }

    /// Slot of `pos` in the held page.
    #[inline]
    fn slot(&self, pos: u64) -> usize {
        (pos - self.pages.held().1) as usize
    }

    #[inline]
    fn raw_at(&self, pos: u64) -> &[u8] {
        let slot = self.slot(pos);
        &self.decoded[slot * self.width..(slot + 1) * self.width]
    }
}

/// PAX/MonetDB-style column scanner: row-at-a-time over eagerly decoded
/// column pages.
pub struct SingleIteratorColumnScanner {
    ctx: ExecContext,
    table: Arc<Table>,
    out_schema: Arc<Schema>,
    cursors: Vec<ColCursor>,
    row_count: u64,
    next_row: u64,
    done: bool,
    /// Ordinal ranges dropped by degraded skips, shared across the cursors.
    dropped: DropSet,
}

impl SingleIteratorColumnScanner {
    pub fn new(
        table: Arc<Table>,
        projection: Vec<usize>,
        predicates: Vec<Predicate>,
        ctx: &ExecContext,
    ) -> Result<SingleIteratorColumnScanner> {
        let out_schema = scan_schema(&table.schema, &projection, &predicates)?;
        let cs = table.col_storage()?;

        let cols = scan_columns(&projection, &predicates);
        let mut cursors = Vec::with_capacity(cols.len());
        for &col in &cols {
            cursors.push(ColCursor {
                dtype: table.schema.dtype(col),
                width: table.schema.dtype(col).width(),
                comp: cs.columns[col].comp.clone(),
                preds: predicates
                    .iter()
                    .filter(|p| p.col == col)
                    .cloned()
                    .collect(),
                out_col: projection.iter().position(|&c| c == col),
                pages: PageCursor::open(ctx, &table, Some(col), None)?,
                decoded: Vec::new(),
                ints: Vec::new(),
                pass_map: Vec::new(),
                fast: ctx.sys.scan_fast_path,
                values_decoded: 0,
                blocks_decoded: 0,
                vec_pred_evals: 0,
                pred_evals: 0,
                pred_passes: 0,
                values_written: 0,
            });
        }
        // Fetch-all-then-iterate keeps multiple requests outstanding, like
        // the pipelined scanner.
        let interleave = if cursors.len() > 1 { 2 } else { 1 };
        ctx.disk.borrow_mut().set_interleave(interleave);
        Ok(SingleIteratorColumnScanner {
            ctx: ctx.clone(),
            out_schema,
            cursors,
            row_count: table.row_count,
            table,
            next_row: 0,
            done: false,
            dropped: DropSet::default(),
        })
    }

    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let dropped = self.dropped.total();
        if dropped > 0 {
            self.ctx.disk.borrow_mut().note_dropped_rows(dropped);
        }
        let hw = self.ctx.hw;
        let mut meter = self.ctx.meter.borrow_mut();
        for c in &mut self.cursors {
            c.pages.drain();
            let decoded_all = (c.values_decoded + c.blocks_decoded) as f64;
            meter.decode(c.comp.codec.kind(), c.values_decoded as f64);
            meter.decode_block(c.comp.codec.kind(), c.blocks_decoded as f64);
            meter.col_iter(decoded_all);
            if !c.preds.is_empty() {
                meter.predicate(c.pred_evals as f64, c.pred_passes as f64);
                meter.vec_predicate(c.vec_pred_evals as f64);
            }
            meter.project(
                c.values_written as f64,
                1.0,
                c.values_written as f64 * c.width as f64,
            );
            // Everything is touched: dense sequential streaming of each file.
            meter.memory_access(&hw, c.pages.window_bytes(), decoded_all, c.width as f64);
        }
    }
}

impl Operator for SingleIteratorColumnScanner {
    fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    fn label(&self) -> String {
        format!("scan[column-single] {}", self.table.name)
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        if self.done {
            return Ok(None);
        }
        let cap = self.ctx.sys.block_tuples;
        let mut block = TupleBlock::new(self.out_schema.clone(), cap);
        while block.count() < cap && self.next_row < self.row_count {
            let pos = self.next_row;
            self.next_row += 1;
            if self.dropped.contains(pos) {
                continue;
            }
            let mut pass = true;
            let mut row_dropped = false;
            // Predicate pass over the row (cursors hold decoded pages).
            for ci in 0..self.cursors.len() {
                if let Err(e) = self.cursors[ci].load_page_for(pos) {
                    let pages = &self.cursors[ci].pages;
                    if !pages.skips(&e) {
                        return Err(e);
                    }
                    // Degraded skip: quarantine the bad page and drop the
                    // ordinals it holds by geometry. Later cursors are not
                    // advanced for this row; they catch up lazily.
                    pages.quarantine_row(pos, &mut self.dropped);
                    row_dropped = true;
                    break;
                }
                let c = &mut self.cursors[ci];
                if pass {
                    if c.vectorized() {
                        // Verdict was computed in the page-load block pass.
                        pass = c.pass_map[c.slot(pos)];
                    } else {
                        for p in &c.preds {
                            c.pred_evals += 1;
                            if p.eval_raw(c.dtype, c.raw_at(pos)) {
                                c.pred_passes += 1;
                            } else {
                                pass = false;
                                break;
                            }
                        }
                    }
                }
            }
            if row_dropped {
                continue;
            }
            if pass {
                let bi = block.push_blank(pos);
                for c in self.cursors.iter_mut() {
                    if let Some(oc) = c.out_col {
                        let raw = c.raw_at(pos).to_vec();
                        block.field_mut(bi, oc).copy_from_slice(&raw);
                        c.values_written += 1;
                    }
                }
            }
        }
        if block.is_empty() {
            self.finish();
            return Ok(None);
        }
        {
            let mut meter = self.ctx.meter.borrow_mut();
            meter.block_calls(1.0);
            meter.stream_bytes(block.byte_len() as f64);
        }
        Ok(Some(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect_rows;
    use crate::scan_col::{ColumnScanMode, ColumnScanner};
    use rodb_compress::{Codec, ColumnCompression};
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
        let comps = vec![
            ColumnCompression::new(Codec::ForDelta { bits: 2 }, None).unwrap(),
            ColumnCompression::none(),
            ColumnCompression::none(),
        ];
        let mut b =
            TableBuilder::with_compression("t", s, 4096, BuildLayouts::column_only(), comps)
                .unwrap();
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
    fn matches_pipelined_scanner_results() {
        let t = table(3000);
        for preds in [
            vec![],
            vec![Predicate::lt(1, 10)],
            vec![Predicate::eq(2, "bb")],
        ] {
            let ctx = ExecContext::default_ctx();
            let mut single =
                SingleIteratorColumnScanner::new(t.clone(), vec![0, 1, 2], preds.clone(), &ctx)
                    .unwrap();
            let a = collect_rows(&mut single).unwrap();
            let ctx2 = ExecContext::default_ctx();
            let mut pipe = ColumnScanner::new(
                t.clone(),
                vec![0, 1, 2],
                preds.clone(),
                ColumnScanMode::Pipelined,
                &ctx2,
            )
            .unwrap();
            let b = collect_rows(&mut pipe).unwrap();
            assert_eq!(a, b, "{preds:?}");
        }
    }

    #[test]
    fn decodes_everything_even_at_low_selectivity() {
        let t = table(5000);
        // Pipelined at 0.1% selectivity decodes few driven values; the
        // single-iterator decodes all of them.
        let ctx_s = ExecContext::default_ctx();
        let mut single = SingleIteratorColumnScanner::new(
            t.clone(),
            vec![0, 1, 2],
            vec![Predicate::lt(1, 1)],
            &ctx_s,
        )
        .unwrap();
        while single.next().unwrap().is_some() {}
        let ctx_p = ExecContext::default_ctx();
        let mut pipe = ColumnScanner::new(
            t.clone(),
            vec![0, 1, 2],
            vec![Predicate::lt(1, 1)],
            ColumnScanMode::Pipelined,
            &ctx_p,
        )
        .unwrap();
        while pipe.next().unwrap().is_some() {}
        let u_single = ctx_s.meter.borrow().counters().uops;
        let u_pipe = ctx_p.meter.borrow().counters().uops;
        assert!(
            u_single > u_pipe,
            "single {u_single} should exceed pipelined {u_pipe} at 1% selectivity"
        );
    }

    #[test]
    fn no_position_overhead_at_full_selectivity() {
        let t = table(5000);
        let ctx_s = ExecContext::default_ctx();
        let mut single =
            SingleIteratorColumnScanner::new(t.clone(), vec![0, 1, 2], vec![], &ctx_s).unwrap();
        while single.next().unwrap().is_some() {}
        let ctx_p = ExecContext::default_ctx();
        let mut pipe = ColumnScanner::new(
            t.clone(),
            vec![0, 1, 2],
            vec![],
            ColumnScanMode::Pipelined,
            &ctx_p,
        )
        .unwrap();
        while pipe.next().unwrap().is_some() {}
        let u_single = ctx_s.meter.borrow().counters().uops;
        let u_pipe = ctx_p.meter.borrow().counters().uops;
        assert!(
            u_single < u_pipe,
            "single {u_single} should undercut pipelined {u_pipe} at 100% selectivity"
        );
    }

    #[test]
    fn fast_path_matches_and_cuts_decode_cpu() {
        let t = table(4000);
        for preds in [
            vec![],
            vec![Predicate::lt(1, 10)],
            vec![Predicate::lt(1, 60), Predicate::eq(2, "cc")],
        ] {
            let ctx = ExecContext::default_ctx();
            let mut slow =
                SingleIteratorColumnScanner::new(t.clone(), vec![0, 1, 2], preds.clone(), &ctx)
                    .unwrap();
            let slow_rows = collect_rows(&mut slow).unwrap();
            let fctx = ExecContext::new(
                rodb_types::HardwareConfig::default(),
                rodb_types::SystemConfig::default().with_scan_fast_path(true),
                1.0,
            )
            .unwrap();
            let mut fast =
                SingleIteratorColumnScanner::new(t.clone(), vec![0, 1, 2], preds.clone(), &fctx)
                    .unwrap();
            let fast_rows = collect_rows(&mut fast).unwrap();
            assert_eq!(fast_rows, slow_rows, "{preds:?}");
            let u_slow = ctx.meter.borrow().counters().uops;
            let u_fast = fctx.meter.borrow().counters().uops;
            assert!(
                u_fast < u_slow,
                "fast {u_fast} should undercut slow {u_slow} ({preds:?})"
            );
        }
    }

    #[test]
    fn io_equals_selected_columns() {
        let t = table(5000);
        let cs = t.col_storage().unwrap();
        let expect = (cs.columns[0].byte_len() + cs.columns[1].byte_len()) as f64;
        let ctx = ExecContext::default_ctx();
        let mut s = SingleIteratorColumnScanner::new(t.clone(), vec![0, 1], vec![], &ctx).unwrap();
        while s.next().unwrap().is_some() {}
        assert!((ctx.disk.borrow().stats().bytes_read - expect).abs() < 1.0);
    }
}
