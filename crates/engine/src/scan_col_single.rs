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
//! policy, and its row loop reads them side by side.

use std::ops::Range;
use std::sync::Arc;

use rodb_storage::Table;
use rodb_types::{Result, Schema};

use crate::block::TupleBlock;
use crate::op::{ExecContext, Operator};
use crate::predicate::{scan_schema, Predicate};
use crate::scan_col::interleave;
use crate::scan_core::{ColumnNode, DecodePolicy, Pending, Sink, Window};

/// PAX/MonetDB-style column scanner: row-at-a-time over eagerly decoded
/// column pages.
pub struct SingleIteratorColumnScanner {
    ctx: ExecContext,
    table: Arc<Table>,
    /// One cursor per column touched; each decodes every page it pulls.
    nodes: Vec<ColumnNode>,
    /// Index into `nodes` of each projected column, in output order.
    projected: Vec<usize>,
    /// The row ordinals not yet visited.
    rows: Range<u64>,
    /// The scanned range, less the ordinals degraded skips dropped.
    window: Window,
    sink: Sink,
    scratch: Vec<u8>,
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
        // Each projected column has one node, which knows its output index
        // (the projection holds no column twice: its schema validated).
        let mut projected = vec![0; projection.len()];
        for (ni, node) in nodes.iter().enumerate() {
            if let Some(out) = node.out_col {
                projected[out] = ni;
            }
        }
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
            scratch: Vec::new(),
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
        'rows: while self.sink.remaining() < cap {
            let Some(pos) = self.rows.next() else { break };
            if !self.window.admits(pos) {
                continue;
            }
            // Predicate pass over the row (every cursor holds its decoded
            // page; a failed predicate stops evaluation, not the seeks).
            let mut pass = true;
            for node in &mut self.nodes {
                if let Err(e) = node.seek(pos, &mut self.window.dropped) {
                    // Degraded skip: quarantine the bad page and drop the
                    // ordinals it holds by geometry. Later cursors are not
                    // advanced for this row; they catch up lazily.
                    node.pages.absorb(e, pos, &mut self.window.dropped)?;
                    continue 'rows;
                }
                if pass && !node.preds.is_empty() {
                    pass = node.passes(pos, &mut self.scratch)?;
                }
            }
            if pass {
                let (nodes, mut projected) = (&mut self.nodes, self.projected.iter());
                self.sink.push_with(pos, |out| {
                    projected.try_for_each(|&ni| {
                        nodes[ni].tally.values_written += 1;
                        nodes[ni].read(pos, out)
                    })
                })?;
            }
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
}
