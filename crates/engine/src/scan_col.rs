//! The pipelined column-store table scanner (§2.2.2, Figure 4).
//!
//! "A column scanner consists of a series of pipelined scan nodes, as many as
//! the columns selected by the query. The deepest scan node starts reading
//! the column, creating {position, value} pairs for all qualified tuples. ...
//! Once the second-deepest scan node receives a block of tuples (containing
//! position pairs), it uses the position information to drive the inner
//! loop, examining values from the second column."
//!
//! Scan nodes that yield few qualifying tuples are pushed as deep as
//! possible; nodes with predicates re-write the surviving tuples (charged as
//! copies), nodes without predicates only attach their value.
//!
//! A scan node is the scan core's column node (`scan_core.rs`) opened under
//! the *pipelined* decode policy: FOR-delta columns decode every stored code
//! up to a needed position (Figure 9's CPU effect), everything else is read
//! per position from the held page. What this file keeps is the schedule —
//! node 0 pulls pages and filters them (on the fast path in code space,
//! which only node 0 can), later nodes are driven off the position list —
//! and the *slow* variant (`ScanLayout::ColumnSlow`), which serializes disk
//! requests per column: the reference variant of Figure 11 that loses the
//! "one step ahead" controller advantage.

use std::collections::VecDeque;
use std::sync::Arc;

use rodb_storage::Table;
use rodb_types::{DataType, Result, Schema};

use crate::block::TupleBlock;
use crate::codepred::{rewrite_all, zone_rejects};
use crate::op::{ExecContext, Operator};
use crate::page_cursor::PageCursor;
use crate::predicate::{scan_schema, Predicate};
use crate::scan_core::{judge, ColumnNode, DecodePolicy, Pending, Sink, Window};

/// Disk-request submission aggressiveness over `nodes` column files (§4.5 /
/// Figure 11): the pipelined scanner submits the next column's request while
/// the previous one is still being served ("one step ahead"); the slow
/// variant — and any single-file scan — submits strictly one at a time.
pub(crate) fn interleave(slow: bool, nodes: usize) -> u64 {
    if !slow && nodes > 1 {
        2
    } else {
        1
    }
}

/// Scans a table's column representation through pipelined scan nodes.
pub struct ColumnScanner {
    ctx: ExecContext,
    table: Arc<Table>,
    /// One scan node per column touched, deepest first.
    nodes: Vec<ColumnNode>,
    /// Qualifying {position, value} pairs produced by node 0 and not yet
    /// emitted.
    sink: Sink,
    /// Row-ordinal window this scanner is responsible for, shared by every
    /// scan node of the projection.
    window: Window,
    /// Figure 11's slow variant: one disk request in flight at a time.
    slow: bool,
    scratch: Vec<u8>,
    /// Block indices a driven node keeps.
    keep: Vec<usize>,
}

impl ColumnScanner {
    /// Build a column scanner over the row-ordinal range `[start, end)` —
    /// one morsel of a parallel scan — or the whole table when `None`.
    /// Every scan node's stream is clamped to the pages of its column
    /// holding the range, so a worker pays I/O only for its window.
    pub(crate) fn new(
        table: Arc<Table>,
        projection: Vec<usize>,
        predicates: Vec<Predicate>,
        slow: bool,
        ctx: &ExecContext,
        range: Option<(u64, u64)>,
    ) -> Result<ColumnScanner> {
        let out_schema = scan_schema(&table.schema, &projection, &predicates)?;
        let policy = DecodePolicy::Pipelined;
        let nodes = ColumnNode::open_all(&table, &projection, &predicates, ctx, range, policy)?;
        ctx.disk
            .borrow_mut()
            .set_interleave(interleave(slow, nodes.len()));
        let pending = Pending::Column {
            width: nodes[0].dtype.width(),
            out: nodes[0].out_col,
        };
        Ok(ColumnScanner {
            ctx: ctx.clone(),
            table,
            sink: Sink::new(out_schema, pending),
            window: Window::new(nodes[0].pages.range()),
            nodes,
            slow,
            scratch: Vec::new(),
            keep: Vec::new(),
        })
    }

    /// Node 0: process one more page of the deepest column, appending
    /// qualifying {position, value} pairs to the sink. Returns false at EOF.
    fn node0_fill(&mut self) -> Result<bool> {
        let (node, sink, window) = (&mut self.nodes[0], &mut self.sink, &mut self.window);

        // Zone-map page skipping (fast path): the page trailer's min/max can
        // prove no value qualifies — skip the page without transferring it.
        if node.fast && !node.preds.is_empty() {
            while let Some(idx) = node.pages.peek_index() {
                match node.storage.zone_of(idx) {
                    Some((zmin, zmax)) if zone_rejects(&node.preds, zmin, zmax) => {
                        node.pages.skip_zoned();
                        node.tally.pages_skipped_z += 1;
                    }
                    _ => break,
                }
            }
        }

        let Some((_, first_row, page)) = node.pages.next_or_skip(&mut window.dropped)? else {
            return Ok(false);
        };
        let Some(page) = page else {
            return Ok(true);
        };
        let comp = &node.storage.comp;
        let pv = page.column(node.dtype).values(comp);
        let count = pv.count();

        if node.fast && node.dtype == DataType::Int {
            // Code-space evaluation: rewrite the predicates against this
            // page's compression metadata and filter on raw codes, decoding
            // only the survivors.
            let code_preds = if node.preds.is_empty() {
                None
            } else {
                rewrite_all(&node.preds, comp, pv.base(), pv.code_base())
            };
            // Survivors are gathered out of the block into {position, value}
            // pairs.
            let mut gather = |pos: u64, v: i32| {
                node.tally.positions_seen += 1;
                node.tally.gathered += 1;
                sink.push_with(pos, |out| {
                    out.extend_from_slice(&v.to_le_bytes());
                    Ok(())
                })
            };
            if let Some(cps) = code_preds {
                let mut block = [0u64; 128];
                let mut slot = 0usize;
                while slot < count {
                    let n = 128.min(count - slot);
                    pv.codes_block(slot, &mut block[..n])?;
                    for (k, &code) in block[..n].iter().enumerate() {
                        let pos = first_row + (slot + k) as u64;
                        if window.admits(pos) && cps.iter().all(|cp| cp.eval(code)) {
                            // The page's value map (PFOR codes arrive
                            // already exception-patched).
                            gather(pos, pv.int_of(code)?)?;
                        }
                    }
                    slot += n;
                }
            } else {
                // Value-space vectorized fallback (raw / FOR-delta /
                // text-literal predicates): block-decode the page, then a
                // branchless filter over the decoded ints.
                pv.decode_ints_into(&mut node.ints)?;
                for (slot, &v) in node.ints.iter().enumerate() {
                    let pos = first_row + slot as u64;
                    if window.admits(pos) && node.preds.iter().all(|p| p.eval_int(v)) {
                        gather(pos, v)?;
                    }
                }
            }
            node.tally.blocks_decoded += count as u64;
            node.tally.vec_pred_evals += (count * node.preds.len()) as u64;
            return Ok(true);
        }

        // An int page goes through the one block decoder; text is read per
        // slot. Decode cost is paid for slots outside the window too.
        let int = node.dtype == DataType::Int;
        if int {
            pv.decode_ints_into(&mut node.ints)?;
        }
        for slot in 0..count {
            self.scratch.clear();
            if int {
                self.scratch
                    .extend_from_slice(&node.ints[slot].to_le_bytes());
            } else {
                pv.write_raw(slot, &mut self.scratch)?;
            }
            let pos = first_row + slot as u64;
            let raw = self.scratch.as_slice();
            if window.admits(pos) && judge(&node.preds, &mut node.pred_tallies, node.dtype, raw)? {
                node.tally.positions_seen += 1; // {position, value} pair created
                sink.push_with(pos, |out| {
                    out.extend_from_slice(raw);
                    Ok(())
                })?;
            }
        }
        node.tally.values_decoded += count as u64;
        Ok(true)
    }
}

impl Operator for ColumnScanner {
    fn schema(&self) -> &Arc<Schema> {
        self.sink.schema()
    }

    fn label(&self) -> String {
        let layout = if self.slow { "column-slow" } else { "column" };
        format!("scan[{layout}] {}", self.table.name)
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        let block_cap = self.ctx.sys.block_tuples;
        loop {
            // Refill the pending pool from node 0.
            while self.sink.remaining() < block_cap && self.node0_fill()? {}
            // Assemble one block from the next batch of pending pairs.
            let Some(mut block) = self.sink.take(block_cap)? else {
                ColumnNode::finish(&mut self.nodes, &mut self.window, &self.ctx);
                return Ok(None);
            };
            if self.nodes[0].out_col.is_some() {
                self.nodes[0].tally.values_written += block.count() as u64;
            }

            // Drive the remaining nodes off the position list.
            for node in &mut self.nodes[1..] {
                self.keep.clear();
                for i in 0..block.count() {
                    let pos = block.position(i).expect("scanners keep lineage");
                    if !self.window.admits(pos) {
                        // Lost to a page another node quarantined after this
                        // position had already been produced.
                        continue;
                    }
                    node.tally.positions_seen += 1;
                    let scratch = &mut self.scratch;
                    let sought = node.seek(pos, &mut self.window.dropped);
                    match sought.and_then(|()| node.passes(pos, scratch)) {
                        Ok(false) => {}
                        Ok(true) => {
                            if let Some(oc) = node.out_col {
                                block.field_mut(i, oc).copy_from_slice(scratch);
                                node.tally.values_written += 1;
                            }
                            self.keep.push(i);
                        }
                        // Degraded skip: the requested position targets a
                        // page bad on every replica.
                        Err(e) => node.pages.absorb(e, pos, &mut self.window.dropped)?,
                    }
                }
                if self.keep.len() < block.count() {
                    // Predicate (or degraded) nodes re-write the surviving
                    // tuples (§2.2.2).
                    let moved = block.retain_indices(&self.keep);
                    self.ctx.meter.borrow_mut().project(0.0, 0.0, moved as f64);
                }
            }

            if !block.is_empty() {
                // A block hop per scan node plus the hand-off to the parent.
                Sink::ship(&self.ctx, &block, self.nodes.len());
                return Ok(Some(block));
            }
            // Entire batch filtered out — continue with the next batch.
        }
    }
}

/// A scanner's page schedule with the values taken out — the shared
/// cursor's driver pass ([`crate::shared_cursor`]). It moves and checksums
/// (once each) exactly the pages a predicate-free scan of `range` would, in
/// the order that scan would request them, and decodes no value, evaluates
/// nothing and assembles no block. `cols` names the files: `None` the row
/// file (a row scan's one stream), `Some(cols)` those column files (a
/// pipelined column scan over `cols`).
///
/// The block-fill rule is the pipelined column scanner's: node 0 pulls pages
/// until a block's worth of window positions is pending, then every later
/// column is driven through the block's positions, pulling each page on the
/// way. With one node that is the row scanner's sequential pull, at its
/// interleave of 1. Positions — not just a block's last ordinal — are
/// carried so that under `on_corrupt = Skip` each driven page is pulled when
/// the scanner would pull it: a position dropped by a quarantined page pulls
/// nothing. `tests/page_pass_lockstep.rs`
/// holds this function to the scanners' `IoStats`, disk events and cache
/// residency.
pub fn page_pass(
    table: &Table,
    cols: Option<&[usize]>,
    ctx: &ExecContext,
    range: (u64, u64),
) -> Result<()> {
    let files: Vec<Option<usize>> = match cols {
        None => vec![None],
        Some(cols) => {
            scan_schema(&table.schema, cols, &[])?;
            cols.iter().copied().map(Some).collect()
        }
    };
    let mut nodes = files
        .into_iter()
        .map(|col| PageCursor::open(ctx, table, col, Some(range)))
        .collect::<Result<Vec<_>>>()?;
    ctx.disk
        .borrow_mut()
        .set_interleave(interleave(false, nodes.len()));
    let (node0, driven) = nodes
        .split_first_mut()
        .expect("scan_schema rejects an empty projection");
    let mut window = Window::new(node0.range());
    let block_cap = ctx.sys.block_tuples;
    let mut pending: VecDeque<u64> = VecDeque::new();
    let mut block: Vec<u64> = Vec::new();
    loop {
        while pending.len() < block_cap {
            match node0.next_or_skip(&mut window.dropped)? {
                None => break,
                Some((_, first_row, Some(page))) => {
                    let rows = first_row..first_row + page.count() as u64;
                    pending.extend(rows.filter(|&pos| window.admits(pos)));
                }
                Some(_) => {}
            }
        }
        if pending.is_empty() {
            break;
        }
        block.clear();
        block.extend(pending.drain(..block_cap.min(pending.len())));
        for node in driven.iter_mut() {
            let mut kept = 0;
            for i in 0..block.len() {
                let pos = block[i];
                if !window.admits(pos) {
                    continue;
                }
                if !node.holds(pos) {
                    if let Err(e) = node.seek(pos, &mut window.dropped, |_, _| Ok(())) {
                        node.absorb(e, pos, &mut window.dropped)?;
                        continue;
                    }
                }
                block[kept] = pos;
                kept += 1;
            }
            block.truncate(kept);
        }
    }
    for node in &mut nodes {
        node.drain(&mut window.dropped);
    }
    window.settle(ctx);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect_rows;
    use crate::predicate::CmpOp;
    use crate::scan_row::RowScanner;
    use rodb_compress::{Codec, ColumnCompression, Dictionary};
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{Column, DataType, Value};
    use std::sync::Arc;

    fn table(n: usize) -> Arc<Table> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("id"),
                Column::int("val"),
                Column::text("tag", 6),
                Column::int("qty"),
            ])
            .unwrap(),
        );
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..n {
            b.push_row(&[
                Value::Int(i as i32),
                Value::Int((i % 100) as i32),
                Value::text(["aa", "bb", "cc"][i % 3]),
                Value::Int((i % 7) as i32),
            ])
            .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn compressed_table(n: usize) -> Arc<Table> {
        let s = Arc::new(Schema::new(vec![Column::int("id"), Column::int("val")]).unwrap());
        let comps = vec![
            ColumnCompression::new(Codec::ForDelta { bits: 2 }, None).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap(),
        ];
        let mut b =
            TableBuilder::with_compression("tz", s, 4096, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..n {
            b.push_row(&[Value::Int(i as i32), Value::Int((i % 100) as i32)])
                .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn matches_row_scanner_output() {
        let t = table(3000);
        for preds in [
            vec![],
            vec![Predicate::lt(1, 10)],
            vec![Predicate::lt(1, 50), Predicate::eq(2, "aa")],
            vec![Predicate::eq(2, "bb"), Predicate::ge(3, 3)],
        ] {
            for proj in [vec![0], vec![0, 1, 2, 3], vec![2, 0], vec![1, 3]] {
                let ctx = ExecContext::default_ctx();
                let mut cs =
                    ColumnScanner::new(t.clone(), proj.clone(), preds.clone(), false, &ctx, None)
                        .unwrap();
                let col_rows = collect_rows(&mut cs).unwrap();
                let ctx2 = ExecContext::default_ctx();
                let mut rs =
                    RowScanner::new(t.clone(), proj.clone(), preds.clone(), &ctx2, None).unwrap();
                let row_rows = collect_rows(&mut rs).unwrap();
                assert_eq!(col_rows, row_rows, "proj {proj:?} preds {preds:?}");
            }
        }
    }

    #[test]
    fn predicate_on_unprojected_column() {
        let t = table(1000);
        let ctx = ExecContext::default_ctx();
        let mut cs =
            ColumnScanner::new(t, vec![0], vec![Predicate::lt(1, 10)], false, &ctx, None).unwrap();
        let rows = collect_rows(&mut cs).unwrap();
        assert_eq!(rows.len(), 100);
        for r in &rows {
            assert!(r[0].as_int().unwrap() % 100 < 10);
        }
    }

    #[test]
    fn compressed_delta_column_scans_correctly() {
        let t = compressed_table(5000);
        let ctx = ExecContext::default_ctx();
        let mut cs =
            ColumnScanner::new(t, vec![0, 1], vec![Predicate::lt(1, 5)], false, &ctx, None)
                .unwrap();
        let rows = collect_rows(&mut cs).unwrap();
        assert_eq!(rows.len(), 250);
        for r in &rows {
            assert_eq!(r[0].as_int().unwrap() % 100, r[1].as_int().unwrap() % 100);
            assert!(r[1].as_int().unwrap() < 5);
        }
        // The delta column (driven node) decoded *every* code, not just 5%.
        let c = *ctx.meter.borrow().counters();
        assert!(c.uops > 0.0);
    }

    #[test]
    fn delta_as_driven_node_decodes_all_codes() {
        let t = compressed_table(5000);
        // Predicate on val (bit-packed) so the FOR-delta id column is driven.
        let run = |sel_lt: i32| {
            let ctx = ExecContext::default_ctx();
            let mut cs = ColumnScanner::new(
                t.clone(),
                vec![0],
                vec![Predicate::lt(1, sel_lt)],
                false,
                &ctx,
                None,
            )
            .unwrap();
            let rows = collect_rows(&mut cs).unwrap();
            let uops = ctx.meter.borrow().counters().uops;
            (rows.len(), uops)
        };
        let (n_low, _uops_low) = run(1); // 1% selectivity
        let (n_high, _uops_high) = run(100); // 100%
        assert_eq!(n_low, 50);
        assert_eq!(n_high, 5000);
    }

    #[test]
    fn io_reads_only_selected_columns() {
        let t = table(5000);
        let cs_store = t.col_storage().unwrap();
        let one_col = cs_store.columns[0].byte_len() as f64;
        let ctx = ExecContext::default_ctx();
        let mut cs = ColumnScanner::new(t.clone(), vec![0], vec![], false, &ctx, None).unwrap();
        while cs.next().unwrap().is_some() {}
        let read = ctx.disk.borrow().stats().bytes_read;
        assert!((read - one_col).abs() < 1.0, "read {read} vs {one_col}");

        // Selecting more columns reads more bytes.
        let ctx2 = ExecContext::default_ctx();
        let mut cs2 =
            ColumnScanner::new(t.clone(), vec![0, 2], vec![], false, &ctx2, None).unwrap();
        while cs2.next().unwrap().is_some() {}
        assert!(ctx2.disk.borrow().stats().bytes_read > read);
    }

    #[test]
    fn selectivity_does_not_change_io() {
        // Figure 7's premise: a selective filter leaves I/O untouched.
        let t = table(5000);
        let read_with = |preds: Vec<Predicate>| {
            let ctx = ExecContext::default_ctx();
            let mut cs =
                ColumnScanner::new(t.clone(), vec![0, 2], preds, false, &ctx, None).unwrap();
            while cs.next().unwrap().is_some() {}
            let read = ctx.disk.borrow().stats().bytes_read;
            read
        };
        let full = read_with(vec![]);
        let sparse = read_with(vec![Predicate::lt(1, 1)]);
        // The predicate column adds its own file; compare like for like by
        // including it in both.
        let full2 = read_with(vec![Predicate::lt(1, 200)]);
        assert!((full2 - sparse).abs() < 1.0);
        assert!(sparse > full - 1.0);
    }

    #[test]
    fn multi_column_scan_seeks_more_than_single() {
        let t = table(20000);
        let seeks = |proj: Vec<usize>| {
            let ctx = ExecContext::default_ctx();
            let mut cs = ColumnScanner::new(t.clone(), proj, vec![], false, &ctx, None).unwrap();
            while cs.next().unwrap().is_some() {}
            let seeks = ctx.disk.borrow().stats().seeks;
            seeks
        };
        assert!(seeks(vec![0, 1, 2, 3]) > seeks(vec![0]));
    }

    #[test]
    fn slow_mode_sets_strict_interleave() {
        let t = table(100);
        let ctx = ExecContext::default_ctx();
        let cs = ColumnScanner::new(t.clone(), vec![0, 1], vec![], true, &ctx, None).unwrap();
        assert_eq!(cs.label(), "scan[column-slow] t");
        assert_eq!((interleave(true, 2), interleave(false, 2)), (1, 2));
        // Behavioural check: under competition, slow mode is slower.
        let elapsed = |slow: bool| {
            let ctx = ExecContext::default_ctx();
            ctx.add_competing_scan();
            let mut cs =
                ColumnScanner::new(table(20000), vec![0, 1, 2, 3], vec![], slow, &ctx, None)
                    .unwrap();
            while cs.next().unwrap().is_some() {}
            let e = ctx.disk.borrow().elapsed();
            e
        };
        assert!(elapsed(true) >= elapsed(false));
    }

    #[test]
    fn empty_result_is_clean() {
        let t = table(1000);
        let ctx = ExecContext::default_ctx();
        let mut cs =
            ColumnScanner::new(t, vec![0], vec![Predicate::lt(1, -1)], false, &ctx, None).unwrap();
        assert!(cs.next().unwrap().is_none());
        assert!(cs.next().unwrap().is_none());
    }

    fn fast_ctx() -> ExecContext {
        ExecContext::new(
            rodb_types::HardwareConfig::default(),
            rodb_types::SystemConfig::default().with_scan_fast_path(true),
            1.0,
        )
        .unwrap()
    }

    /// A table with a sorted FOR column (zone-map friendly), a small-domain
    /// dict-style bit-packed column, and a raw column.
    fn zoned_table(n: usize) -> Arc<Table> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("sorted"),
                Column::int("val"),
                Column::int("raw"),
            ])
            .unwrap(),
        );
        let comps = vec![
            ColumnCompression::new(Codec::For { bits: 20 }, None).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap(),
            ColumnCompression::none(),
        ];
        let mut b =
            TableBuilder::with_compression("zt", s, 4096, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..n {
            b.push_row(&[
                Value::Int(1000 + i as i32),
                Value::Int((i % 100) as i32),
                Value::Int((i as i32) - 50),
            ])
            .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn fast_path_matches_slow_path_results() {
        for t in [table(3000), compressed_table(5000), zoned_table(4000)] {
            let ncols = t.schema.len();
            let pred_sets: Vec<Vec<Predicate>> = if ncols == 4 {
                vec![
                    vec![],
                    vec![Predicate::lt(1, 10)],
                    vec![Predicate::lt(1, 50), Predicate::eq(2, "aa")],
                ]
            } else if ncols == 3 {
                vec![
                    vec![],
                    vec![Predicate::lt(0, 1200)],
                    vec![Predicate::ge(0, 4600), Predicate::lt(1, 30)],
                    vec![Predicate::eq(1, 7)],
                    vec![Predicate::gt(2, 3800)],
                ]
            } else {
                vec![vec![Predicate::lt(1, 5)], vec![Predicate::eq(0, 4321)]]
            };
            for preds in pred_sets {
                let proj: Vec<usize> = (0..ncols).collect();
                let slow_ctx = ExecContext::default_ctx();
                let mut slow = ColumnScanner::new(
                    t.clone(),
                    proj.clone(),
                    preds.clone(),
                    false,
                    &slow_ctx,
                    None,
                )
                .unwrap();
                let slow_rows = collect_rows(&mut slow).unwrap();
                let fctx = fast_ctx();
                let mut fast =
                    ColumnScanner::new(t.clone(), proj.clone(), preds.clone(), false, &fctx, None)
                        .unwrap();
                let fast_rows = collect_rows(&mut fast).unwrap();
                assert_eq!(fast_rows, slow_rows, "preds {preds:?}");
            }
        }
    }

    /// Three predicate targets over one payload: a sorted FOR key, and a
    /// dictionary and a bit-packed column uniform over 1000 values.
    fn kernels_table(n: usize) -> Arc<Table> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("key"),
                Column::int("dcol"),
                Column::int("bcol"),
                Column::int("pay"),
            ])
            .unwrap(),
        );
        let dvals: Vec<Value> = (0..n as i64)
            .map(|i| Value::Int((i * 7919 % 1000) as i32))
            .collect();
        let dict = Dictionary::build(DataType::Int, dvals.iter()).unwrap();
        let dict_codec = Codec::Dict {
            bits: dict.code_bits(),
        };
        let comps = vec![
            ColumnCompression::new(Codec::For { bits: 20 }, None).unwrap(),
            ColumnCompression::new(dict_codec, Some(Arc::new(dict))).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 10 }, None).unwrap(),
            ColumnCompression::new(Codec::BitPack { bits: 16 }, None).unwrap(),
        ];
        let mut b =
            TableBuilder::with_compression("kt", s, 4096, BuildLayouts::column_only(), comps)
                .unwrap();
        for (i, dv) in dvals.iter().enumerate() {
            let i = i as i64;
            b.push_row(&[
                Value::Int(i as i32),
                dv.clone(),
                Value::Int((i * 104_729 % 1000) as i32),
                Value::Int((i * 31 % 60_000) as i32),
            ])
            .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    /// At 1 % selectivity the fast path models at least 2x less user-mode
    /// CPU (uop + L2 + L1 + rest; `sys` is kernel I/O time, the same on
    /// both paths) whichever codec the predicate column uses.
    #[test]
    fn fast_path_reduces_modeled_cpu() {
        let n = 20_000;
        let t = kernels_table(n);
        for (col, lit) in [(0, n as i32 / 100), (1, 10), (2, 10)] {
            let run = |fast: bool| {
                let ctx = if fast {
                    fast_ctx()
                } else {
                    ExecContext::default_ctx()
                };
                let mut cs = ColumnScanner::new(
                    t.clone(),
                    vec![col, 3],
                    vec![Predicate::lt(col, lit)],
                    false,
                    &ctx,
                    None,
                )
                .unwrap();
                let rows = collect_rows(&mut cs).unwrap();
                ctx.settle_io_kernel_work();
                let meter = ctx.meter.borrow();
                let user_s = meter.breakdown(&ctx.hw).user();
                (rows.len(), meter.counters().uops, user_s)
            };
            let (n_slow, uops_slow, user_slow) = run(false);
            let (n_fast, uops_fast, user_fast) = run(true);
            assert_eq!(n_slow, n / 100, "column {col}");
            assert_eq!(n_slow, n_fast);
            assert!(
                uops_fast * 2.0 <= uops_slow,
                "column {col}: fast {uops_fast} vs slow {uops_slow} uops"
            );
            assert!(
                user_fast * 2.0 <= user_slow,
                "column {col}: fast {user_fast} vs slow {user_slow} user-CPU seconds"
            );
        }
    }

    #[test]
    fn zone_maps_skip_pages_on_sorted_column() {
        let t = zoned_table(20000);
        // sorted in [1000, 21000); select a narrow band near the top.
        let ctx = fast_ctx();
        let mut cs = ColumnScanner::new(
            t.clone(),
            vec![0],
            vec![Predicate::ge(0, 20600)],
            false,
            &ctx,
            None,
        )
        .unwrap();
        let rows = collect_rows(&mut cs).unwrap();
        assert_eq!(rows.len(), 400);
        let disk = ctx.disk.borrow();
        let stats = disk.stats();
        let pages = t.col_storage().unwrap().columns[0].pages as u64;
        assert!(
            stats.pages_skipped * 10 >= pages * 9,
            "skipped {} of {} pages",
            stats.pages_skipped,
            pages
        );
        let fast_bytes = stats.bytes_read;
        drop(disk);

        // The scalar path reads every page.
        let ctx2 = ExecContext::default_ctx();
        let mut cs2 = ColumnScanner::new(
            t.clone(),
            vec![0],
            vec![Predicate::ge(0, 20600)],
            false,
            &ctx2,
            None,
        )
        .unwrap();
        assert_eq!(collect_rows(&mut cs2).unwrap().len(), 400);
        assert_eq!(ctx2.disk.borrow().stats().pages_skipped, 0);
        assert!(ctx2.disk.borrow().stats().bytes_read > fast_bytes);
    }

    #[test]
    fn zone_boundary_equal_page_is_not_skipped() {
        // A constant column: every page zone is [min, max] with min == max.
        let s = Arc::new(Schema::new(vec![Column::int("c"), Column::int("id")]).unwrap());
        let comps = vec![
            ColumnCompression::new(Codec::For { bits: 1 }, None).unwrap(),
            ColumnCompression::none(),
        ];
        let mut b =
            TableBuilder::with_compression("ct", s, 4096, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..5000 {
            b.push_row(&[Value::Int(42), Value::Int(i)]).unwrap();
        }
        let t = Arc::new(b.finish().unwrap());
        let ctx = fast_ctx();
        // min == literal == max: Eq must not skip — every row matches.
        let mut cs = ColumnScanner::new(
            t.clone(),
            vec![1],
            vec![Predicate::eq(0, 42)],
            false,
            &ctx,
            None,
        )
        .unwrap();
        assert_eq!(collect_rows(&mut cs).unwrap().len(), 5000);
        assert_eq!(ctx.disk.borrow().stats().pages_skipped, 0);
        // Ne on the constant value skips every data page.
        let ctx2 = fast_ctx();
        let mut cs2 = ColumnScanner::new(
            t,
            vec![1],
            vec![Predicate::new(0, CmpOp::Ne, Value::Int(42))],
            false,
            &ctx2,
            None,
        )
        .unwrap();
        assert!(collect_rows(&mut cs2).unwrap().is_empty());
        assert!(ctx2.disk.borrow().stats().pages_skipped > 0);
    }

    #[test]
    fn fast_path_matches_on_morsel_ranges() {
        let t = zoned_table(7000);
        let preds = vec![Predicate::ge(0, 3000), Predicate::lt(1, 40)];
        for range in [(0u64, 7000u64), (1000, 2500), (2500, 7000), (6900, 7000)] {
            let run = |fast: bool| {
                let ctx = if fast {
                    fast_ctx()
                } else {
                    ExecContext::default_ctx()
                };
                let mut cs = ColumnScanner::new(
                    t.clone(),
                    vec![0, 1, 2],
                    preds.clone(),
                    false,
                    &ctx,
                    Some(range),
                )
                .unwrap();
                collect_rows(&mut cs).unwrap()
            };
            assert_eq!(run(true), run(false), "range {range:?}");
        }
    }

    #[test]
    fn rejects_bad_plans() {
        let t = table(10);
        let ctx = ExecContext::default_ctx();
        assert!(ColumnScanner::new(t.clone(), vec![], vec![], false, &ctx, None).is_err());
        assert!(ColumnScanner::new(t, vec![9], vec![], false, &ctx, None).is_err());
    }
    /// The scan core's column node, under both decode policies and both
    /// paths, hands back for every position the bytes the codec's own
    /// random-access read gives — whatever it decoded eagerly on the way.
    #[test]
    fn a_column_node_reads_what_the_page_holds() {
        use crate::scan_core::{ColumnNode, DecodePolicy};
        for t in [table(3000), compressed_table(5000), zoned_table(4000)] {
            let cs = t.col_storage().unwrap();
            for (col, storage) in cs.columns.iter().enumerate() {
                let dtype = t.schema.dtype(col);
                // The oracle: `ColumnPage::values(..).write_raw`, where the
                // codec allows it; a sequential decode where it does not.
                let mut expect: Vec<Vec<u8>> = Vec::new();
                for page in 0..storage.pages {
                    let page = storage.page(page, dtype).unwrap();
                    let pv = page.values(&storage.comp);
                    let mut cur = pv.cursor();
                    for slot in 0..pv.count() {
                        let mut raw = Vec::new();
                        if storage.comp.codec.random_access() {
                            pv.write_raw(slot, &mut raw).unwrap();
                        } else {
                            cur.next_raw(&mut raw).unwrap();
                        }
                        expect.push(raw);
                    }
                }
                assert_eq!(expect.len() as u64, t.row_count);
                for policy in [DecodePolicy::Pipelined, DecodePolicy::EveryPage] {
                    // Every position, then a stride that streams past pages.
                    for (fast, step) in [(false, 1), (true, 1), (false, 611), (true, 611)] {
                        let ctx = if fast {
                            fast_ctx()
                        } else {
                            ExecContext::default_ctx()
                        };
                        let mut nodes =
                            ColumnNode::open_all(&t, &[col], &[], &ctx, None, policy).unwrap();
                        let node = &mut nodes[0];
                        let mut raw = Vec::new();
                        for pos in (0..t.row_count).step_by(step) {
                            raw.clear();
                            node.seek(pos, &mut Default::default()).unwrap();
                            node.read(pos, &mut raw).unwrap();
                            assert_eq!(
                                raw, expect[pos as usize],
                                "{} col {col} {policy:?} fast={fast} pos {pos}",
                                t.name
                            );
                        }
                    }
                }
            }
        }
    }
}
