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
//! selectivity — better at high selectivity, worse at low. That is the whole
//! difference: its cursors are the pipelined scanner's scan nodes (the scan
//! core's column node, `scan_core.rs`) opened under the *every-page* decode
//! policy, read side by side. "Iterating over entire rows" is done a run at
//! a time — the rows every node's held page covers: one selection vector of
//! the run's admitted rows narrowed node by node by the select kernel, the
//! projected columns copied into the survivors' tuples, one push per run.

use std::ops::Range;
use std::sync::Arc;

use rodb_storage::Table;
use rodb_types::{Result, Schema};

use crate::block::TupleBlock;
use crate::op::{ExecContext, Operator};
use crate::predicate::{scan_schema, Predicate};
use crate::scan_col::interleave;
use crate::scan_core::{copy_fields, ColumnNode, DecodePolicy, Pending, Sink, Window};

/// PAX/MonetDB-style column scanner: whole rows over eagerly decoded column
/// pages.
pub struct SingleIteratorColumnScanner {
    ctx: ExecContext,
    table: Arc<Table>,
    /// One cursor per column touched; each decodes every page it pulls.
    nodes: Vec<ColumnNode>,
    /// Each projected column's node, and its field's offset in an output
    /// tuple.
    projected: Vec<(usize, usize)>,
    /// The row ordinals not yet visited.
    rows: Range<u64>,
    /// The scanned range, less the ordinals degraded skips dropped.
    window: Window,
    sink: Sink,
    /// A run's surviving rows, as offsets from its first.
    sel: Vec<usize>,
}

impl SingleIteratorColumnScanner {
    /// Build a single-iterator scanner over the row-ordinal range
    /// `[start, end)`, or the whole table when `None`; every cursor is
    /// clamped to the pages of its column holding the range.
    pub(crate) fn new(
        table: Arc<Table>,
        projection: Vec<usize>,
        predicates: Vec<Predicate>,
        ctx: &ExecContext,
        range: Option<(u64, u64)>,
    ) -> Result<SingleIteratorColumnScanner> {
        let out_schema = scan_schema(&table.schema, &projection, &predicates)?;
        let policy = DecodePolicy::EveryPage;
        let nodes = ColumnNode::open_all(&table, &projection, &predicates, ctx, range, policy)?;
        let projected = (nodes.iter().enumerate())
            .filter_map(|(ni, node)| Some((ni, out_schema.offset(node.out_col?))))
            .collect();
        // Fetch-all-then-iterate keeps multiple requests outstanding, like
        // the pipelined scanner.
        ctx.disk
            .borrow_mut()
            .set_interleave(interleave(false, nodes.len()));
        let (start, end) = nodes[0].pages.range();
        Ok(SingleIteratorColumnScanner {
            ctx: ctx.clone(),
            nodes,
            projected,
            rows: start..end,
            window: Window::new((start, end)),
            table,
            sink: Sink::new(out_schema, Pending::Tuples),
            sel: Vec::new(),
        })
    }
}

impl Operator for SingleIteratorColumnScanner {
    fn schema(&self) -> &Arc<Schema> {
        self.sink.schema()
    }

    fn label(&self) -> String {
        format!("scan[column-single] {}", self.table.name)
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        let cap = self.ctx.sys.block_tuples;
        let (window, sel) = (&mut self.window, &mut self.sel);
        'runs: while self.sink.remaining() < cap {
            // A run starts at the next row the window admits. Every node is
            // sought there, in node order, and holds its decoded page.
            let Some(start) = self.rows.find(|&pos| window.admits(pos)) else {
                break;
            };
            let mut end = self.rows.end;
            for ni in 0..self.nodes.len() {
                if let Err(e) = self.nodes[ni].seek(start, &mut window.dropped) {
                    // The nodes already sought judge the row first, as the
                    // row-at-a-time model charges it. Degraded skip:
                    // quarantine the bad page and drop the ordinals it holds
                    // by geometry. Later cursors are not advanced for this
                    // row; they catch up lazily.
                    *sel = vec![0];
                    (self.nodes[..ni].iter_mut()).try_for_each(|n| n.select_held(start, sel))?;
                    self.nodes[ni].pages.absorb(e, start, &mut window.dropped)?;
                    continue 'runs;
                }
                end = end.min(self.nodes[ni].pages.held_span().1);
            }
            // The run ends where some node's page does; a node's predicates
            // judge only the rows every earlier node's kept.
            self.rows.start = end;
            sel.clear();
            sel.extend((0..(end - start) as usize).filter(|&k| window.admits(start + k as u64)));
            for node in &mut self.nodes {
                node.select_held(start, sel)?;
            }
            if sel.is_empty() {
                continue;
            }
            let (nodes, row) = (&mut self.nodes, self.sink.schema().logical_width());
            let positions = sel.iter().map(|&k| start + k as u64);
            self.sink.push_rows(positions, |out| {
                let at = out.len();
                out.resize(at + sel.len() * row, 0);
                for &(ni, off) in &self.projected {
                    let node = &mut nodes[ni];
                    node.tally.values_written += sel.len() as u64;
                    let (first, width) = (node.pages.held_span().0, node.dtype.width());
                    let values = &node.raw[(start - first) as usize * width..];
                    copy_fields(values, width, width, sel, &mut out[at + off..], row);
                }
                Ok(())
            })?;
        }
        let block = self.sink.emit(&self.ctx, cap)?;
        if block.is_none() {
            ColumnNode::finish(&mut self.nodes, &mut self.window, &self.ctx);
        }
        Ok(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect_rows;
    use crate::scan_col::ColumnScanner;
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
            let mut single = SingleIteratorColumnScanner::new(
                t.clone(),
                vec![0, 1, 2],
                preds.clone(),
                &ctx,
                None,
            )
            .unwrap();
            let a = collect_rows(&mut single).unwrap();
            let ctx2 = ExecContext::default_ctx();
            let mut pipe =
                ColumnScanner::new(t.clone(), vec![0, 1, 2], preds.clone(), false, &ctx2, None)
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
            None,
        )
        .unwrap();
        while single.next().unwrap().is_some() {}
        let ctx_p = ExecContext::default_ctx();
        let mut pipe = ColumnScanner::new(
            t.clone(),
            vec![0, 1, 2],
            vec![Predicate::lt(1, 1)],
            false,
            &ctx_p,
            None,
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
            SingleIteratorColumnScanner::new(t.clone(), vec![0, 1, 2], vec![], &ctx_s, None)
                .unwrap();
        while single.next().unwrap().is_some() {}
        let ctx_p = ExecContext::default_ctx();
        let mut pipe =
            ColumnScanner::new(t.clone(), vec![0, 1, 2], vec![], false, &ctx_p, None).unwrap();
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
            let mut slow = SingleIteratorColumnScanner::new(
                t.clone(),
                vec![0, 1, 2],
                preds.clone(),
                &ctx,
                None,
            )
            .unwrap();
            let slow_rows = collect_rows(&mut slow).unwrap();
            let fctx = ExecContext::new(
                rodb_types::HardwareConfig::default(),
                rodb_types::SystemConfig::default().with_scan_fast_path(true),
                1.0,
            )
            .unwrap();
            let mut fast = SingleIteratorColumnScanner::new(
                t.clone(),
                vec![0, 1, 2],
                preds.clone(),
                &fctx,
                None,
            )
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
    fn ranged_scans_concatenate_to_the_whole_scan() {
        let t = table(3000);
        let scan = |range| {
            let ctx = ExecContext::default_ctx();
            let preds = vec![Predicate::lt(1, 40)];
            let mut s =
                SingleIteratorColumnScanner::new(t.clone(), vec![0, 1, 2], preds, &ctx, range)
                    .unwrap();
            collect_rows(&mut s).unwrap()
        };
        // Boundaries mid-page in every column file.
        let pieces: Vec<_> = [(0, 777), (777, 1_501), (1_501, 3_000)]
            .into_iter()
            .flat_map(|r| scan(Some(r)))
            .collect();
        assert_eq!(pieces, scan(None));
        assert_eq!(pieces.len(), 1_200);
    }

    #[test]
    fn io_equals_selected_columns() {
        let t = table(5000);
        let cs = t.col_storage().unwrap();
        let expect = (cs.columns[0].byte_len() + cs.columns[1].byte_len()) as f64;
        let ctx = ExecContext::default_ctx();
        let mut s =
            SingleIteratorColumnScanner::new(t.clone(), vec![0, 1], vec![], &ctx, None).unwrap();
        while s.next().unwrap().is_some() {}
        assert!((ctx.disk.borrow().stats().bytes_read - expect).abs() < 1.0);
    }

    /// FNV-1a over a log: a digest to pin a scan's observable trace by.
    fn fnv(log: &str) -> u64 {
        log.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The run loop against the row loop it replaced. Every `next()` call
    /// returns the same block and leaves the same disk events and `IoStats`,
    /// and the scan ends with the same tallies in every node (they reach the
    /// meter only then) and the same modeled charge; the digests were taken
    /// from the row loop. Windows cut pages of every column; scalar and
    /// fast; blocks of 1, 7 and 100; predicates on an int and a text
    /// column. Under `Skip` a page of `note` (the third node) and one of
    /// `tag` (the second) are bad, each met in the middle of a run of the
    /// deepest column's page, and quarantined.
    #[test]
    fn the_run_loop_equals_the_row_loop() {
        use crate::predicate::CmpOp;
        use rodb_compress::Dictionary;
        use rodb_types::{DataType, HardwareConfig, OnCorrupt, SystemConfig};
        use std::cell::RefCell;
        use std::fmt::Write;
        use std::rc::Rc;
        const ROWS: u64 = 4_000;
        const PAGE: usize = 1024;
        let s = Arc::new(
            Schema::new(vec![
                Column::int("a"),
                Column::int("id"),
                Column::text("tag", 6),
                Column::text("note", 10),
            ])
            .unwrap(),
        );
        let words: Vec<Value> = ["aa", "bb", "cc"].map(Value::text).to_vec();
        let dict = Dictionary::build(DataType::Text(6), words.iter()).unwrap();
        let comps = vec![
            ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap(),
            ColumnCompression::new(Codec::ForDelta { bits: 2 }, None).unwrap(),
            ColumnCompression::new(Codec::Dict { bits: 8 }, Some(Arc::new(dict))).unwrap(),
            ColumnCompression::none(),
        ];
        let mut b =
            TableBuilder::with_compression("runs", s, PAGE, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..ROWS as usize {
            b.push_row(&[
                Value::Int((i * 37 % 100) as i32),
                Value::Int(i as i32),
                words[(i * 7 + i / 5) % 3].clone(),
                Value::text(&format!("n{}", i % 1000)),
            ])
            .unwrap();
        }
        let clean = b.finish().unwrap();
        let cols = &clean.col_storage().unwrap().columns;
        let vpp: Vec<u64> = cols.iter().map(|c| c.values_per_page as u64).collect();
        // Both bad pages start inside a page of `a`, not at its first row.
        assert!(
            [5 * vpp[3], 2 * vpp[2]]
                .iter()
                .all(|first| first % vpp[0] != 0),
            "{vpp:?}"
        );
        let mut damaged = clean.clone();
        let cols = &mut damaged.col.as_mut().unwrap().columns;
        Arc::make_mut(&mut cols[3].file)[5 * PAGE + 100] ^= 0x10;
        Arc::make_mut(&mut cols[2].file)[2 * PAGE + 100] ^= 0x10;
        // `a` and `tag` judge (nodes 0 and 1); `note`, `id` and `a` are
        // projected.
        let preds = vec![
            Predicate::lt(0, 60),
            Predicate::new(2, CmpOp::Ne, Value::text("bb")),
        ];
        let ranges = [
            None,
            Some((0, 777)),
            Some((777, 1_501)),
            Some((1_501, ROWS)),
            Some((1_234, 1_235)),
            Some((10, 10)),
        ];
        let mut digests = Vec::new();
        for (t, on_corrupt) in [(clean, OnCorrupt::Fail), (damaged, OnCorrupt::Skip)] {
            let t = Arc::new(t);
            for fast in [false, true] {
                let mut log = String::new();
                for block_tuples in [1, 7, 100] {
                    for range in ranges {
                        t.quarantine.clear();
                        let sys = SystemConfig {
                            page_size: PAGE,
                            block_tuples,
                            ..SystemConfig::default()
                        }
                        .with_scan_fast_path(fast)
                        .with_on_corrupt(on_corrupt);
                        let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
                        let events = Rc::new(RefCell::new(rodb_trace::EventBuf::default()));
                        ctx.disk.borrow_mut().set_trace_sink(events.clone());
                        let mut s = SingleIteratorColumnScanner::new(
                            t.clone(),
                            vec![3, 1, 0],
                            preds.clone(),
                            &ctx,
                            range,
                        )
                        .unwrap();
                        writeln!(log, "{block_tuples} {range:?}").unwrap();
                        loop {
                            let block = s.next().unwrap();
                            let rows = block
                                .as_ref()
                                .map(|b| (b.positions().to_vec(), b.rows().unwrap()));
                            let events: Vec<_> = (events.borrow_mut().events.drain(..))
                                .map(|e| (e.ts_s.to_bits(), e.kind.name(), e.file, e.page, e.count))
                                .collect();
                            let io = *ctx.disk.borrow().stats();
                            writeln!(log, "{rows:?} {events:?} {io:?}").unwrap();
                            if block.is_none() {
                                break;
                            }
                        }
                        for node in &s.nodes {
                            writeln!(log, "{:?} {:?}", node.tally, node.pred_tallies).unwrap();
                        }
                        let quarantined = t.quarantine.snapshot();
                        if on_corrupt == OnCorrupt::Skip && range.is_none() {
                            assert_eq!(quarantined.len(), 2, "{quarantined:?}");
                        }
                        let counters = ctx.meter.borrow().counters();
                        writeln!(log, "{counters:?} {quarantined:?}").unwrap();
                    }
                }
                digests.push(fnv(&log));
            }
        }
        assert_eq!(
            digests,
            [
                4657956435872491025,
                13261610445096252121,
                14305476660802672210,
                1751807148556479252
            ]
        );
    }
}
