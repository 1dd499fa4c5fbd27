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
//! up to a needed position (Figure 9's CPU effect), everything else is
//! read from the held page at the needed slots only. What this file keeps
//! is the schedule — node 0 pulls pages and filters them (on the fast
//! path in code space, which only node 0 can; otherwise a page at a time,
//! a selection vector of the window's slots narrowed over the decoded run
//! by the scan core's select kernel), later nodes are driven off the
//! position list a page's run at a time (one seek, one read of the run's
//! slots, the same select kernel over the read run and one strided copy
//! into the block per run) —
//! and the *slow* variant (`ScanLayout::ColumnSlow`), which serializes disk
//! requests per column: the reference variant of Figure 11 that loses the
//! "one step ahead" controller advantage.

use std::collections::VecDeque;
use std::sync::Arc;

use rodb_compress::BLOCK;
use rodb_storage::Table;
use rodb_types::{DataType, Error, Result, Schema};

use crate::block::TupleBlock;
use crate::codepred::{rewrite_all, zone_rejects};
use crate::op::{ExecContext, Operator};
use crate::page_cursor::PageCursor;
use crate::predicate::{scan_schema, Predicate};
use crate::scan_core::{
    copy_fields, narrow, scatter_fields, select_strided, ColumnNode, DecodePolicy, Pending, Sink,
    Window,
};

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
    /// Node 0's selection vector over the page it decoded: indices into
    /// the window's slots of it.
    sel: Vec<usize>,
    /// Block indices a driven node keeps.
    keep: Vec<usize>,
    /// The positions of the block a driven node is reading.
    lineage: Vec<u64>,
    /// A driven node's run: the block indices of its positions, and their
    /// slots on the held page.
    run_rows: Vec<usize>,
    run_slots: Vec<usize>,
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
            sel: Vec::new(),
            keep: Vec::new(),
            lineage: Vec::new(),
            run_rows: Vec::new(),
            run_slots: Vec::new(),
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

        let Some((index, first_row, page)) = node.pages.next_or_skip(&mut window.dropped)? else {
            return Ok(false);
        };
        let Some(page) = page else {
            return Ok(true);
        };
        // A decode error behind a good checksum names its page.
        let locate = |e| node.pages.locate(e, index);
        let comp = &node.storage.comp;
        let pv = page.column(node.dtype).values(comp);
        let count = pv.count();
        // Only the slots inside the window are decoded — a morsel or cursor
        // segment that cuts a page reads its share of it — but every tally
        // below is charged for the whole page, as the paper's scanner
        // decodes it.
        let slots = window.slots(first_row, count);
        // Either path's scratch: a selection vector and a run of values.
        let (sel, raw) = (&mut self.sel, &mut self.scratch);
        sel.clear();
        raw.clear();

        if node.fast && node.dtype == DataType::Int {
            // Code-space evaluation: rewrite the predicates against this
            // page's compression metadata and filter on raw codes, decoding
            // only the survivors.
            let code_preds = if node.preds.is_empty() {
                None
            } else {
                rewrite_all(&node.preds, comp, pv.base(), pv.code_base())
            };
            // The page's admitted survivors: their slots in `sel` and their
            // values gathered out of the block into `raw`, pushed as
            // {position, value} pairs at once.
            let mut hit = [0u8; BLOCK];
            if let Some(cps) = code_preds {
                let mut block = [0u64; BLOCK];
                let mut slot = slots.start;
                while slot < slots.end {
                    // Blocks stay aligned to the page's, so full ones take
                    // the word kernels.
                    let codes = &mut block[..(BLOCK - slot % BLOCK).min(slots.end - slot)];
                    pv.codes_block(slot, codes).map_err(locate)?;
                    let n = select(codes, &mut hit, |code| cps.iter().all(|cp| cp.eval(code)));
                    for k in hit[..n].iter().map(|&k| usize::from(k)) {
                        if window.admits(first_row + (slot + k) as u64) {
                            // The page's value map (PFOR codes arrive
                            // already exception-patched).
                            let v = pv.int_of(codes[k]).map_err(locate)?;
                            sel.push(slot + k);
                            raw.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    slot += codes.len();
                }
            } else {
                // Value-space vectorized fallback (raw / FOR-delta /
                // text-literal predicates): block-decode the page, then a
                // branchless filter over the decoded ints.
                pv.decode_ints_into(&mut node.ints).map_err(locate)?;
                let ints = &node.ints[slots.clone()];
                for (first, block) in slots.step_by(BLOCK).zip(ints.chunks(BLOCK)) {
                    let n = select(block, &mut hit, |v| {
                        node.preds.iter().all(|p| p.eval_int(v))
                    });
                    for k in hit[..n].iter().map(|&k| usize::from(k)) {
                        if window.admits(first_row + (first + k) as u64) {
                            sel.push(first + k);
                            raw.extend_from_slice(&block[k].to_le_bytes());
                        }
                    }
                }
            }
            node.tally.positions_seen += sel.len() as u64;
            node.tally.gathered += sel.len() as u64;
            let positions = sel.iter().map(|&slot| first_row + slot as u64);
            sink.push_rows(positions, |out| {
                out.extend_from_slice(raw);
                Ok(())
            })?;
            node.tally.blocks_decoded += count as u64;
            node.tally.vec_pred_evals += (count * node.preds.len()) as u64;
            return Ok(true);
        }

        // An int page goes through the int block decoder, anything else
        // through the range decoder over the window's slots.
        if node.dtype == DataType::Int {
            pv.decode_ints_into(&mut node.ints).map_err(locate)?;
            raw.extend(
                node.ints[slots.clone()]
                    .iter()
                    .flat_map(|v| v.to_le_bytes()),
            );
        } else {
            pv.decode_raw_into(slots.start, slots.len(), raw)
                .map_err(locate)?;
        }
        // The window's admitted slots, narrowed predicate by predicate over
        // the decoded run; the survivors become {position, value} pairs.
        let (dtype, width, run) = (node.dtype, node.dtype.width(), &raw[..]);
        let first = first_row + slots.start as u64;
        sel.extend((0..slots.len()).filter(|&k| window.admits(first + k as u64)));
        narrow(&node.preds, &mut node.pred_tallies, sel, |_, pred, sel| {
            select_strided(pred, dtype, run, width, sel);
            Ok(())
        })?;
        node.tally.positions_seen += sel.len() as u64;
        let positions = sel.iter().map(|&k| first + k as u64);
        sink.push_rows(positions, |out| {
            let at = out.len();
            out.resize(at + sel.len() * width, 0);
            copy_fields(run, width, width, sel, &mut out[at..], width);
            Ok(())
        })?;
        node.tally.values_decoded += count as u64;
        Ok(true)
    }

    /// Drive the nodes after node 0 off `block`'s position list. The
    /// positions ascend, so a node reads them in runs that fall on the page
    /// it holds: per run one seek, one gather of the run's slots, the run
    /// narrowed by the select kernel and its kept values copied into the
    /// block at once. A position the window no longer admits — lost to a
    /// page some node quarantined after it was produced — is passed over.
    #[inline(never)]
    fn drive(&mut self, block: &mut TupleBlock) -> Result<()> {
        let (window, keep, lineage) = (&mut self.window, &mut self.keep, &mut self.lineage);
        let (rows, slots, run, sel) = (
            &mut self.run_rows,
            &mut self.run_slots,
            &mut self.scratch,
            &mut self.sel,
        );
        for node in &mut self.nodes[1..] {
            keep.clear();
            lineage.clear();
            lineage.extend_from_slice(block.positions());
            let (dtype, width) = (node.dtype, node.dtype.width());
            let (stride, at) = (
                block.width(),
                node.out_col.map(|oc| block.schema().offset(oc)),
            );
            let mut i = 0;
            while i < lineage.len() {
                let pos = lineage[i];
                i += 1;
                if !window.admits(pos) {
                    continue;
                }
                node.tally.positions_seen += 1;
                if let Err(e) = node.seek(pos, &mut window.dropped) {
                    // Degraded skip: the position targets a page bad on
                    // every replica.
                    node.pages.absorb(e, pos, &mut window.dropped)?;
                    continue;
                }
                // The run: this position and the block's later ones on the
                // held page.
                let (first_row, end) = node.pages.held_span();
                rows.clear();
                slots.clear();
                rows.push(i - 1);
                slots.push((pos - first_row) as usize);
                while let Some(&next) = lineage.get(i).filter(|&&next| next < end) {
                    if window.admits(next) {
                        rows.push(i);
                        slots.push((next - first_row) as usize);
                    }
                    i += 1;
                }
                node.tally.positions_seen += rows.len() as u64 - 1;
                run.clear();
                let (n, read) = node.read_run(slots, run);
                sel.clear();
                sel.extend(0..n);
                narrow(&node.preds, &mut node.pred_tallies, sel, |_, pred, sel| {
                    select_strided(pred, dtype, run, width, sel);
                    Ok(())
                })?;
                if let Some(at) = at {
                    scatter_fields(run, width, sel, rows, &mut block.data_mut()[at..], stride);
                    node.tally.values_written += sel.len() as u64;
                }
                keep.extend(sel.iter().map(|&k| rows[k]));
                if let Err(e) = read {
                    // Slot `n` failed to decode. Under `Skip` its page is
                    // quarantined, and the run's later positions with it:
                    // they were never this node's to see.
                    node.tally.positions_seen -= (rows.len() - n - 1) as u64;
                    let failed = first_row + slots[n] as u64;
                    node.pages.absorb(e, failed, &mut window.dropped)?;
                }
            }
            if keep.len() < block.count() {
                // Predicate (or degraded) nodes re-write the surviving
                // tuples (§2.2.2).
                let moved = block.retain_indices(keep);
                self.ctx.meter.borrow_mut().project(0.0, 0.0, moved as f64);
            }
        }
        Ok(())
    }
}

/// The indices of the `block` values that pass, in order, written to `sel`
/// without a branch on the outcome; returns how many passed.
fn select<T: Copy>(block: &[T], sel: &mut [u8; BLOCK], pass: impl Fn(T) -> bool) -> usize {
    let mut n = 0;
    for (k, &v) in block.iter().take(BLOCK).enumerate() {
        sel[n] = k as u8;
        n += usize::from(pass(v));
    }
    n
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

            self.drive(&mut block)?;

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
    let Some((node0, driven)) = nodes.split_first_mut() else {
        return Err(Error::InvalidPlan("a page pass over no file".into()));
    };
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
        let c = ctx.meter.borrow().counters();
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

    /// Node 0 on dictionary text whose pages outlast the scan's range: over
    /// a grid of cuts `[a, b)`, scalar and fast, with and without a text
    /// predicate, clean and under `Skip` with one page of another column
    /// quarantined, a ranged scan returns exactly the solo scan's rows
    /// inside its window, and node 0 counts every value of the pages it
    /// pulled as decoded.
    #[test]
    fn a_ranged_scan_over_dictionary_text_returns_the_solo_rows_of_its_window() {
        use rodb_types::{HardwareConfig, OnCorrupt, SystemConfig};
        const ROWS: u64 = 5_000;
        const PAGE: usize = 1024;
        let s = Arc::new(
            Schema::new(vec![
                Column::text("tag", 6),
                Column::int("id"),
                Column::int("val"),
            ])
            .unwrap(),
        );
        let words: Vec<Value> = ["aa", "bb", "cc", "dddddd"].map(Value::text).to_vec();
        let dict = Dictionary::build(DataType::Text(6), words.iter()).unwrap();
        let comps = vec![
            ColumnCompression::new(Codec::Dict { bits: 2 }, Some(Arc::new(dict))).unwrap(),
            ColumnCompression::none(),
            ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap(),
        ];
        let mut b =
            TableBuilder::with_compression("dt", s, PAGE, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..ROWS as usize {
            let tag = words[(i * 7 + i / 5) % 4].clone();
            b.push_row(&[tag, Value::Int(i as i32), Value::Int((i % 100) as i32)])
                .unwrap();
        }
        let clean = b.finish().unwrap();
        let mut damaged = clean.clone();
        let id = &mut damaged.col.as_mut().unwrap().columns[1];
        Arc::make_mut(&mut id.file)[2 * PAGE + 100] ^= 0x10;
        let tags = &clean.col_storage().unwrap().columns[0];
        let vpp = tags.values_per_page as u64;
        assert_eq!(tags.pages, 2, "a tag page holds {vpp} rows");
        let ids = clean.col_storage().unwrap().columns[1].values_per_page as u64;
        let lost = 2 * ids..3 * ids;
        assert!(lost.contains(&600));
        // 600 cuts the rows the damaged `id` page drops.
        let cuts = [0, 1, 600, vpp - 1, vpp + 7, ROWS - 1, ROWS];
        for (t, on_corrupt) in [(clean, OnCorrupt::Fail), (damaged, OnCorrupt::Skip)] {
            let t = Arc::new(t);
            for fast in [false, true] {
                for preds in [vec![], vec![Predicate::eq(0, "bb")]] {
                    let sys = SystemConfig {
                        page_size: PAGE,
                        ..SystemConfig::default()
                    }
                    .with_scan_fast_path(fast)
                    .with_on_corrupt(on_corrupt);
                    let scan = |range| {
                        t.quarantine.clear();
                        let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
                        let mut cs = ColumnScanner::new(
                            t.clone(),
                            vec![0, 1, 2],
                            preds.clone(),
                            false,
                            &ctx,
                            range,
                        )
                        .unwrap();
                        let mut rows = Vec::new();
                        while let Some(block) = cs.next().unwrap() {
                            let positions = block.positions().iter().copied();
                            rows.extend(positions.zip(block.rows().unwrap()));
                        }
                        (rows, cs.nodes[0].tally.values_decoded)
                    };
                    let (solo, _) = scan(None);
                    assert!(solo.len() as u64 > ROWS / 8);
                    let dropped = solo.iter().all(|(pos, _)| !lost.contains(pos));
                    assert_eq!(dropped, on_corrupt == OnCorrupt::Skip);
                    for (i, &a) in cuts.iter().enumerate() {
                        for &b in &cuts[i..] {
                            let what = format!("[{a}, {b}) fast={fast} {preds:?} {on_corrupt:?}");
                            let (rows, decoded) = scan(Some((a, b)));
                            let window = solo.iter().filter(|(pos, _)| (a..b).contains(pos));
                            assert_eq!(rows, window.cloned().collect::<Vec<_>>(), "{what}");
                            let pages = a / vpp..b.div_ceil(vpp).max(a / vpp);
                            let whole: u64 = pages.map(|p| vpp.min(ROWS - p * vpp)).sum();
                            assert_eq!(decoded, whole, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// Node 0's scalar path, two predicates on its column, over windows that
    /// cut its pages: clean, and under `Skip` with a page of a driven column
    /// quarantined so that later node-0 pages meet dropped ordinals. Rows
    /// are the oracle's; tallies are the per-slot conjunction's over the
    /// window's slots where nothing was dropped, and under `Skip` the
    /// totals the per-slot loop counted.
    #[test]
    fn node0_narrows_its_window_like_the_per_slot_loop() {
        use crate::scan_core::PredTally;
        use rodb_storage::Layout;
        use rodb_types::{HardwareConfig, OnCorrupt, SystemConfig};
        const ROWS: u64 = 5_000;
        const PAGE: usize = 1024;
        let s = Arc::new(
            Schema::new(vec![
                Column::int("v"),
                Column::int("id"),
                Column::text("tag", 6),
            ])
            .unwrap(),
        );
        let comps = vec![
            ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap(),
            ColumnCompression::none(),
            ColumnCompression::none(),
        ];
        let mut b =
            TableBuilder::with_compression("n0", s, PAGE, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..ROWS as usize {
            let tag = Value::text(["aa", "bb", "cc"][i % 3]);
            b.push_row(&[Value::Int((i * 37 % 100) as i32), Value::Int(i as i32), tag])
                .unwrap();
        }
        let clean = b.finish().unwrap();
        let oracle = clean.read_all(Layout::Column).unwrap();
        let vpp = clean.col_storage().unwrap().columns[0].values_per_page as u64;
        let ids = clean.col_storage().unwrap().columns[1].values_per_page as u64;
        let mut damaged = clean.clone();
        let id = &mut damaged.col.as_mut().unwrap().columns[1];
        Arc::make_mut(&mut id.file)[4 * PAGE + 100] ^= 0x10;
        let lost = 4 * ids..5 * ids;
        // The lost rows run past node 0's first page into its second.
        assert!(
            lost.contains(&(vpp - 1)) && lost.contains(&vpp),
            "{vpp} {ids}"
        );
        let preds = vec![Predicate::ge(0, 10), Predicate::lt(0, 80)];
        let cuts = [0, 1, 600, vpp - 1, vpp + 7, 2 * vpp + 3, ROWS - 1, ROWS];
        // Under `Skip`: the evaluations and passes of both predicates, the
        // pairs node 0 created and the rows returned, summed over the windows.
        let (mut skip_totals, mut skip_slots) = ([0u64; 6], 0);
        for (t, on_corrupt) in [(clean, OnCorrupt::Fail), (damaged, OnCorrupt::Skip)] {
            let t = Arc::new(t);
            let skip = on_corrupt == OnCorrupt::Skip;
            let sys = SystemConfig {
                page_size: PAGE,
                ..SystemConfig::default()
            }
            .with_on_corrupt(on_corrupt);
            for (i, &a) in cuts.iter().enumerate() {
                for &b in &cuts[i..] {
                    let what = format!("[{a}, {b}) {on_corrupt:?}");
                    t.quarantine.clear();
                    let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
                    let mut cs = ColumnScanner::new(
                        t.clone(),
                        vec![2, 0, 1],
                        preds.clone(),
                        false,
                        &ctx,
                        Some((a, b)),
                    )
                    .unwrap();
                    let mut rows = Vec::new();
                    while let Some(block) = cs.next().unwrap() {
                        let positions = block.positions().iter().copied();
                        rows.extend(positions.zip(block.rows().unwrap()));
                    }
                    let want: Vec<(u64, Vec<Value>)> = (a..b)
                        .filter(|pos| !(skip && lost.contains(pos)))
                        .map(|pos| (pos, &oracle[pos as usize]))
                        .filter(|(_, row)| preds.iter().all(|p| p.eval_value(&row[0])))
                        .map(|(pos, row)| {
                            (pos, vec![row[2].clone(), row[0].clone(), row[1].clone()])
                        })
                        .collect();
                    assert_eq!(rows, want, "{what}");
                    let node = &cs.nodes[0];
                    let (tallies, seen) = (node.pred_tallies.clone(), node.tally.positions_seen);
                    let pages = a / vpp..b.div_ceil(vpp).max(a / vpp);
                    let whole: u64 = pages.map(|p| vpp.min(ROWS - p * vpp)).sum();
                    assert_eq!(node.tally.values_decoded, whole, "{what}");
                    if skip {
                        let got = [
                            tallies[0].evals,
                            tallies[0].passes,
                            tallies[1].evals,
                            tallies[1].passes,
                            seen,
                            rows.len() as u64,
                        ];
                        for (total, n) in skip_totals.iter_mut().zip(got) {
                            *total += n;
                        }
                        skip_slots += b - a;
                        continue;
                    }
                    let mut expect = vec![PredTally::default(); 2];
                    let mut passed = 0;
                    for pos in a..b {
                        let holds = |_, p: &Predicate| Ok(p.eval_value(&oracle[pos as usize][0]));
                        passed += u64::from(
                            crate::scan_core::conjunction(&preds, &mut expect, holds).unwrap(),
                        );
                    }
                    assert_eq!((tallies, seen), (expect, passed), "{what}");
                }
            }
        }
        assert_eq!(skip_totals, [64051, 57653, 57653, 44847, 44847, 42910]);
        // Node 0 met dropped ordinals: it judged fewer slots than its windows hold.
        assert!(skip_totals[0] < skip_slots, "{skip_slots}");
    }

    /// A decode error behind a good checksum on node 0's page names that
    /// page. A dictionary too short for some codes of the deepest column —
    /// ints, decoded whole per page on both paths, or text, decoded over the
    /// window's slots — fails the scan with the `(file, page)` of the first
    /// page the window reaches holding such a code.
    #[test]
    fn node0_decode_errors_name_their_page() {
        use rodb_types::{HardwareConfig, SystemConfig};
        const ROWS: u64 = 5_000;
        const PAGE: usize = 1024;
        let s = Arc::new(Schema::new(vec![Column::int("v"), Column::text("tag", 6)]).unwrap());
        let ints: Vec<Value> = [10, 20, 30, 40].map(Value::Int).to_vec();
        let words: Vec<Value> = ["aa", "bb", "cc", "dddddd"].map(Value::text).to_vec();
        let dict = |dtype: DataType, values: &[Value], n: usize| {
            let d = Dictionary::build(dtype, values[..n].iter()).unwrap();
            ColumnCompression::new(Codec::Dict { bits: 8 }, Some(Arc::new(d))).unwrap()
        };
        let comps = vec![
            dict(DataType::Int, &ints, 4),
            dict(DataType::Text(6), &words, 4),
        ];
        let mut b =
            TableBuilder::with_compression("e0", s, PAGE, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..ROWS as usize {
            // Every 1500th row from row 1200 holds the code a short
            // dictionary lacks.
            let k = if i % 1_500 == 1_200 { 3 } else { i % 3 };
            b.push_row(&[ints[k].clone(), words[k].clone()]).unwrap();
        }
        let mut short = b.finish().unwrap();
        let cols = &mut short.col.as_mut().unwrap().columns;
        cols[0].comp = dict(DataType::Int, &ints, 3);
        cols[1].comp = dict(DataType::Text(6), &words, 3);
        let vpp: Vec<u64> = cols.iter().map(|c| c.values_per_page as u64).collect();
        assert!(vpp.iter().all(|&n| (900..1_200).contains(&n)), "{vpp:?}");
        let t = Arc::new(short);
        let cases = [
            (None, Some(1_200)),
            (Some((2_000, ROWS)), Some(2_700)),
            (Some((0, 900)), None),
        ];
        for col in [0, 1] {
            for fast in [false, true] {
                for (range, first_bad) in cases {
                    let what = format!("col {col} fast={fast} {range:?}");
                    let sys = SystemConfig {
                        page_size: PAGE,
                        ..SystemConfig::default()
                    }
                    .with_scan_fast_path(fast);
                    let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
                    let mut cs =
                        ColumnScanner::new(t.clone(), vec![col], vec![], false, &ctx, range)
                            .unwrap();
                    let got = collect_rows(&mut cs);
                    let Some(bad) = first_bad else {
                        assert!(got.is_ok(), "{what}: {got:?}");
                        continue;
                    };
                    let Err(Error::Corrupt(e)) = got else {
                        panic!("{what}: {got:?}");
                    };
                    assert!(e.msg.contains("dictionary code 3 out of range"), "{e:?}");
                    // Node 0's file is the first a fresh context numbers.
                    let page = bad / vpp[col];
                    assert_eq!((e.file_id, e.page_id), (Some(1), Some(page)), "{what}");
                }
            }
        }
    }

    /// The driven nodes — a PFOR column judging two predicates, a projected
    /// Dict text column and a projected FOR-delta column, behind a BitPack
    /// node 0 with its own predicate — over windows that cut their pages,
    /// scalar and fast. Clean: rows are the oracle's, and every driven
    /// tally is the per-position count — positions seen, predicate
    /// evaluations and passes, values written, and values decoded or
    /// gathered as each node's decode policy reads its pages. Under `Skip`
    /// with a Dict text page quarantined mid-block, rows lose exactly its
    /// ordinals and the summed tallies are the ones the per-slot loop
    /// counted. With a dictionary too short for some of the text codes, the
    /// scan fails at the first position holding one, with that position's
    /// page, under `Fail` and `Skip` alike (a format error is never
    /// skipped), after the rows and tallies the per-slot loop had reached.
    #[test]
    fn driven_nodes_read_runs_like_the_per_slot_loop() {
        use crate::scan_core::PredTally;
        use rodb_storage::Layout;
        use rodb_types::{HardwareConfig, OnCorrupt, SystemConfig};
        const ROWS: u64 = 6_000;
        const PAGE: usize = 1024;
        let s = Arc::new(
            Schema::new(vec![
                Column::int("v"),
                Column::int("w"),
                Column::text("tag", 6),
                Column::int("id"),
            ])
            .unwrap(),
        );
        let words: Vec<Value> = ["aa", "bb", "cc", "dddddd"].map(Value::text).to_vec();
        let dict = |n: usize| {
            let d = Dictionary::build(DataType::Text(6), words[..n].iter()).unwrap();
            ColumnCompression::new(Codec::Dict { bits: 8 }, Some(Arc::new(d))).unwrap()
        };
        let comps = vec![
            ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap(),
            ColumnCompression::new(Codec::Pfor { bits: 4 }, None).unwrap(),
            dict(4),
            ColumnCompression::new(Codec::ForDelta { bits: 2 }, None).unwrap(),
        ];
        let mut b =
            TableBuilder::with_compression("dr", s, PAGE, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..ROWS as usize {
            // `w` is small but for PFOR exceptions every 17th row; a rare
            // text code is the one the short dictionary lacks.
            let w = if i % 17 == 0 { 200 + i % 50 } else { i % 13 };
            let word = if i % 257 == 100 {
                3
            } else {
                (i * 7 + i / 5) % 3
            };
            b.push_row(&[
                Value::Int((i * 37 % 100) as i32),
                Value::Int(w as i32),
                words[word].clone(),
                Value::Int(i as i32),
            ])
            .unwrap();
        }
        let clean = b.finish().unwrap();
        let oracle = clean.read_all(Layout::Column).unwrap();
        let cols = &clean.col_storage().unwrap().columns;
        let vpp: Vec<u64> = cols.iter().map(|c| c.values_per_page as u64).collect();
        let page_rows = |col: usize, page: u64| vpp[col].min(ROWS - page * vpp[col]);
        let tags = vpp[2];
        let mut damaged = clean.clone();
        let tag = &mut damaged.col.as_mut().unwrap().columns[2];
        Arc::make_mut(&mut tag.file)[3 * PAGE + 100] ^= 0x10;
        let lost = 3 * tags..4 * tags;
        let mut short = clean.clone();
        short.col.as_mut().unwrap().columns[2].comp = dict(3);
        let preds = vec![
            Predicate::lt(0, 70),
            Predicate::ge(1, 3),
            Predicate::new(1, CmpOp::Ne, Value::Int(7)),
        ];
        let cuts = [
            0,
            1,
            600,
            vpp[1] - 1,
            vpp[1] + 7,
            2 * tags + 3,
            ROWS - 1,
            ROWS,
        ];
        let passes = |pos: u64, col: usize| {
            let row = &oracle[pos as usize];
            preds
                .iter()
                .filter(|p| p.col == col)
                .all(|p| p.eval_value(&row[col]))
        };
        // Node 0 is `v`; the driven nodes are `w`, `tag`, `id`.
        let tallies = |cs: &ColumnScanner| -> Vec<u64> {
            cs.nodes[1..]
                .iter()
                .flat_map(|node| {
                    let t = &node.tally;
                    let preds = node.pred_tallies.iter().flat_map(|p| [p.evals, p.passes]);
                    [
                        t.positions_seen,
                        t.values_decoded,
                        t.blocks_decoded,
                        t.gathered,
                        t.values_written,
                    ]
                    .into_iter()
                    .chain(preds)
                })
                .collect()
        };
        let mut skip_totals = vec![0u64; 19];
        let mut short_totals = [0u64; 6];
        let tables = [
            (clean, OnCorrupt::Fail),
            (damaged, OnCorrupt::Skip),
            (short.clone(), OnCorrupt::Fail),
            (short, OnCorrupt::Skip),
        ];
        for (case, (t, on_corrupt)) in tables.into_iter().enumerate() {
            let t = Arc::new(t);
            for fast in [false, true] {
                let sys = SystemConfig {
                    page_size: PAGE,
                    ..SystemConfig::default()
                }
                .with_scan_fast_path(fast)
                .with_on_corrupt(on_corrupt);
                for (i, &a) in cuts.iter().enumerate() {
                    for &b in &cuts[i..] {
                        let what = format!("[{a}, {b}) fast={fast} case {case}");
                        t.quarantine.clear();
                        let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
                        let mut cs = ColumnScanner::new(
                            t.clone(),
                            vec![2, 3, 0],
                            preds.clone(),
                            false,
                            &ctx,
                            Some((a, b)),
                        )
                        .unwrap();
                        let mut rows = Vec::new();
                        let failed = loop {
                            match cs.next() {
                                Ok(Some(block)) => {
                                    let positions = block.positions().iter().copied();
                                    rows.extend(positions.zip(block.rows().unwrap()));
                                }
                                Ok(None) => break None,
                                Err(e) => break Some(e),
                            }
                        };
                        // The positions reaching `w`, and `tag` and `id`.
                        let to_w: Vec<u64> = (a..b).filter(|&pos| passes(pos, 0)).collect();
                        let to_tag: Vec<u64> =
                            to_w.iter().copied().filter(|&pos| passes(pos, 1)).collect();
                        let want: Vec<(u64, Vec<Value>)> = to_tag
                            .iter()
                            .map(|&pos| {
                                let row = &oracle[pos as usize];
                                (pos, vec![row[2].clone(), row[3].clone(), row[0].clone()])
                            })
                            .collect();
                        if case >= 2 {
                            // The first position whose text code the short
                            // dictionary lacks fails the scan; the rows
                            // before it are a prefix of the clean ones.
                            let bad = to_tag
                                .iter()
                                .find(|&&pos| oracle[pos as usize][2] == words[3]);
                            let Some(&bad) = bad else {
                                assert!(failed.is_none(), "{what}");
                                assert_eq!(rows, want, "{what}");
                                continue;
                            };
                            let e = failed.unwrap_or_else(|| panic!("{what}: no error"));
                            assert!(
                                e.to_string().contains("dictionary code 3 out of range"),
                                "{e}"
                            );
                            // It names the page holding the code: `tag`'s
                            // file, the third a fresh context numbers.
                            let Error::Corrupt(c) = &e else {
                                panic!("{what}: {e:?}");
                            };
                            let page = Some(bad / vpp[2]);
                            assert_eq!((c.file_id, c.page_id), (Some(3), page), "{what}");
                            assert_eq!(rows[..], want[..rows.len()], "{what}");
                            assert!(rows.iter().all(|(pos, _)| *pos < bad), "{what}");
                            let tag = &cs.nodes[2].tally;
                            let got = [
                                rows.len() as u64,
                                tag.positions_seen,
                                tag.values_decoded,
                                tag.values_written,
                                cs.nodes[3].tally.positions_seen,
                                cs.nodes[1].tally.positions_seen,
                            ];
                            for (total, n) in short_totals.iter_mut().zip(got) {
                                *total += n;
                            }
                            continue;
                        }
                        assert!(failed.is_none(), "{what}: {failed:?}");
                        if case == 1 {
                            let kept = want.iter().filter(|(pos, _)| !lost.contains(pos));
                            assert_eq!(rows, kept.cloned().collect::<Vec<_>>(), "{what}");
                            for (total, n) in skip_totals.iter_mut().zip(tallies(&cs)) {
                                *total += n;
                            }
                            continue;
                        }
                        assert_eq!(rows, want, "{what}");
                        // `w` (PFOR): billed per position off the fast
                        // path; on it, billed a block decode per target page
                        // and a gather per position, though only the read
                        // slots are decoded.
                        let w_pages = {
                            let mut pages: Vec<u64> = to_w.iter().map(|&p| p / vpp[1]).collect();
                            pages.dedup();
                            pages.into_iter().map(|p| page_rows(1, p)).sum::<u64>()
                        };
                        let (w_values, w_blocks, w_gathered) = if fast {
                            (0, w_pages, to_w.len() as u64)
                        } else {
                            (to_w.len() as u64, 0, 0)
                        };
                        let mut w_preds = vec![PredTally::default(); 2];
                        for &pos in &to_w {
                            let holds =
                                |_, p: &Predicate| Ok(p.eval_value(&oracle[pos as usize][1]));
                            crate::scan_core::conjunction(&preds[1..], &mut w_preds, holds)
                                .unwrap();
                        }
                        // `id` (FOR-delta): every page up to the last target
                        // is decoded whole — block work on the fast path.
                        let id_pages: u64 = to_tag.last().map_or(0, |&last| {
                            (a / vpp[3]..=last / vpp[3]).map(|p| page_rows(3, p)).sum()
                        });
                        let (id_values, id_blocks) =
                            if fast { (0, id_pages) } else { (id_pages, 0) };
                        let (n_w, n_tag) = (to_w.len() as u64, to_tag.len() as u64);
                        let expect = vec![
                            n_w,
                            w_values,
                            w_blocks,
                            w_gathered,
                            0,
                            w_preds[0].evals,
                            w_preds[0].passes,
                            w_preds[1].evals,
                            w_preds[1].passes,
                            n_tag,
                            n_tag,
                            0,
                            0,
                            n_tag,
                            n_tag,
                            id_values,
                            id_blocks,
                            0,
                            n_tag,
                        ];
                        assert_eq!(tallies(&cs), expect, "{what}");
                    }
                }
            }
        }
        let skip_expect = [
            90372, 45186, 88388, 45186, 0, 90372, 70680, 70680, 64128, 63816, 63792, 0, 0, 63792,
            63792, 133776, 133776, 0, 63792,
        ];
        assert_eq!(skip_totals, skip_expect);
        assert_eq!(short_totals, [8008, 11816, 11716, 11716, 8008, 21192]);
    }

    /// Driven int nodes of every random-access codec — raw, BitPack, FOR,
    /// PFOR (exceptions inside and outside the runs), Dict and Dict→FOR —
    /// read lone, scattered, consecutive and whole-page runs, with and
    /// without driven predicates, on both paths. Rows equal the oracle. Off
    /// the fast path each value read is billed as decoded one at a time; on
    /// it each target page as one block decode and each value read as a
    /// gather out of it, as before the runs decoded only their slots. A
    /// dictionary too short for codes only unread slots hold leaves a scan
    /// exact; a run that reads one fails both paths alike, at its page,
    /// after the same rows.
    #[test]
    fn the_fast_path_reads_only_its_slots_and_bills_as_before() {
        use crate::scan_core::{conjunction, PredTally};
        use rodb_storage::Layout;
        use rodb_types::{HardwareConfig, SystemConfig};
        const ROWS: usize = 12_000;
        const PAGE: usize = 1024;
        const LONE: usize = 1601;
        let names = ["pick", "raw", "bp", "for", "pfor", "dict", "dictfor"];
        let s = Arc::new(Schema::new(names.map(Column::int).to_vec()).unwrap());
        let domain = [5, 17, 40, 900].map(Value::Int);
        let dict = |n: usize, codec| {
            let d = Dictionary::build(DataType::Int, domain[..n].iter()).unwrap();
            ColumnCompression::new(codec, Some(Arc::new(d))).unwrap()
        };
        let plain = |codec| ColumnCompression::new(codec, None).unwrap();
        let comps = vec![
            ColumnCompression::none(),
            ColumnCompression::none(),
            plain(Codec::BitPack { bits: 7 }),
            plain(Codec::For { bits: 8 }),
            plain(Codec::Pfor { bits: 4 }),
            dict(4, Codec::Dict { bits: 8 }),
            dict(4, Codec::DictFor { bits: 6 }),
        ];
        // `pick` sorts the rows into run shapes: 1 lone, 0 consecutive, 2
        // scattered, 3 none. The dictionary value a short dictionary lacks
        // is only on rows of shape 3.
        let rare = |i: usize| i % 1009 == 500;
        let pick = |i: usize| match i {
            _ if rare(i) => 3,
            _ if i % LONE == 7 => 1,
            1000..1300 | 5000..7500 => 0,
            _ if i % 3 == 1 => 2,
            _ => 3,
        };
        let mut b =
            TableBuilder::with_compression("ro", s, PAGE, BuildLayouts::column_only(), comps)
                .unwrap();
        for i in 0..ROWS {
            let (d, df) = match rare(i) {
                true => (3, 3),
                false => ((i * 7 + i / 5) % 3, (i / 5 + i % 2) % 3),
            };
            // PFOR: small values, an exception every 17th row.
            let w = if i % 17 == 0 { 200 + i % 50 } else { i % 13 };
            b.push_row(&[
                Value::Int(pick(i)),
                Value::Int(i as i32 * 7 - 3000),
                Value::Int((i * 37 % 100) as i32),
                Value::Int(1000 + (i * 13 % 250) as i32),
                Value::Int(w as i32),
                domain[d].clone(),
                domain[df].clone(),
            ])
            .unwrap();
        }
        let clean = b.finish().unwrap();
        let oracle = clean.read_all(Layout::Column).unwrap();
        let cols = &clean.col_storage().unwrap().columns;
        let vpp: Vec<usize> = cols.iter().map(|c| c.values_per_page).collect();
        assert!(
            vpp.iter().all(|&v| v < LONE),
            "{vpp:?}: a lone run shares a page"
        );
        let mut short = clean.clone();
        for col in [5, 6] {
            let codec = short.col_storage().unwrap().columns[col].comp.codec.clone();
            short.col.as_mut().unwrap().columns[col].comp = dict(3, codec);
        }
        let (clean, short) = (Arc::new(clean), Arc::new(short));
        let shapes = [
            ("lone", Predicate::eq(0, 1)),
            ("consecutive", Predicate::eq(0, 0)),
            ("scattered", Predicate::eq(0, 2)),
            ("whole", Predicate::ge(0, 0)),
        ];
        let driven = [
            Predicate::new(4, CmpOp::Ne, Value::Int(7)),
            Predicate::ge(5, 17),
        ];
        let scan = |t: &Arc<Table>, preds: &[Predicate], fast: bool| {
            let sys = SystemConfig {
                page_size: PAGE,
                block_tuples: 2500,
                ..SystemConfig::default()
            }
            .with_scan_fast_path(fast);
            let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
            let proj = (1..names.len()).collect();
            let mut cs =
                ColumnScanner::new(t.clone(), proj, preds.to_vec(), false, &ctx, None).unwrap();
            let mut rows = Vec::new();
            let failed = loop {
                match cs.next() {
                    Ok(Some(block)) => {
                        let positions = block.positions().iter().copied();
                        rows.extend(positions.zip(block.rows().unwrap()));
                    }
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            (cs, rows, failed)
        };
        // Per driven node: its `NodeTally`, then each predicate's tally.
        let tallies = |cs: &ColumnScanner| -> Vec<Vec<u64>> {
            cs.nodes[1..]
                .iter()
                .map(|node| {
                    let t = &node.tally;
                    let preds = node.pred_tallies.iter().flat_map(|p| [p.evals, p.passes]);
                    [
                        t.positions_seen,
                        t.values_decoded,
                        t.blocks_decoded,
                        t.gathered,
                        t.vec_pred_evals,
                        t.pages_skipped_z,
                        t.values_written,
                    ]
                    .into_iter()
                    .chain(preds)
                    .collect()
                })
                .collect()
        };
        let mut totals = [[0u64; 9]; 2];
        for (shape, pick_pred) in &shapes {
            for with_driven in [false, true] {
                let mut preds = vec![pick_pred.clone()];
                if with_driven {
                    preds.extend(driven.iter().cloned());
                }
                let order = crate::predicate::scan_columns(&[1, 2, 3, 4, 5, 6], &preds);
                for fast in [false, true] {
                    let what = format!("{shape} driven preds={with_driven} fast={fast}");
                    let (cs, rows, failed) = scan(&clean, &preds, fast);
                    assert!(failed.is_none(), "{what}: {failed:?}");
                    // The positions reaching each driven node, and what it
                    // should have billed for them.
                    let mut reach: Vec<u64> = (0..ROWS as u64)
                        .filter(|&pos| pick_pred.eval_value(&oracle[pos as usize][0]))
                        .collect();
                    let mut expect = Vec::new();
                    for &col in &order[1..] {
                        let n = reach.len() as u64;
                        let mut pages: Vec<u64> =
                            reach.iter().map(|&p| p / vpp[col] as u64).collect();
                        pages.dedup();
                        let page_rows: u64 = pages
                            .iter()
                            .map(|&p| (vpp[col] as u64).min(ROWS as u64 - p * vpp[col] as u64))
                            .sum();
                        let node_preds: Vec<Predicate> =
                            preds.iter().filter(|p| p.col == col).cloned().collect();
                        let mut pred_tallies = vec![PredTally::default(); node_preds.len()];
                        reach.retain(|&pos| {
                            let value = &oracle[pos as usize][col];
                            let holds = |_, p: &Predicate| Ok(p.eval_value(value));
                            conjunction(&node_preds, &mut pred_tallies, holds).unwrap()
                        });
                        let (values, blocks, gathered) =
                            if fast { (0, page_rows, n) } else { (n, 0, 0) };
                        let bill = [n, values, blocks, gathered, 0, 0, reach.len() as u64];
                        let preds = pred_tallies.iter().flat_map(|p| [p.evals, p.passes]);
                        expect.push(bill.into_iter().chain(preds).collect::<Vec<u64>>());
                    }
                    let got = tallies(&cs);
                    assert_eq!(got, expect, "{what}");
                    let want: Vec<(u64, Vec<Value>)> = reach
                        .iter()
                        .map(|&pos| (pos, oracle[pos as usize][1..].to_vec()))
                        .collect();
                    assert_eq!(rows, want, "{what}");
                    for node in &got {
                        for (total, n) in totals[usize::from(fast)].iter_mut().zip(node) {
                            *total += n;
                        }
                    }
                    if with_driven {
                        continue;
                    }
                    // Under the short dictionaries: exact where no run reads
                    // a rare slot, else the scalar path's error and rows.
                    let (short_cs, short_rows, short_failed) = scan(&short, &preds, fast);
                    let first_bad = want
                        .iter()
                        .map(|(pos, _)| *pos)
                        .find(|&pos| rare(pos as usize));
                    let Some(bad) = first_bad else {
                        assert!(short_failed.is_none(), "{what}: {short_failed:?}");
                        assert_eq!(short_rows, rows, "{what}");
                        assert_eq!(tallies(&short_cs), got, "{what}");
                        continue;
                    };
                    let e = short_failed.unwrap_or_else(|| panic!("{what}: no error"));
                    let Error::Corrupt(c) = &e else {
                        panic!("{what}: {e:?}");
                    };
                    assert!(
                        e.to_string().contains("dictionary code 3 out of range"),
                        "{e}"
                    );
                    assert_eq!(c.page_id, Some(bad / vpp[5] as u64), "{what}");
                    assert!(short_rows.iter().all(|(pos, _)| *pos < bad), "{what}");
                    assert_eq!(short_rows[..], want[..short_rows.len()], "{what}");
                    let (_, scalar_rows, scalar_failed) = scan(&short, &preds, false);
                    assert_eq!(scalar_failed.as_ref(), Some(&e), "{what}");
                    assert_eq!(scalar_rows, short_rows, "{what}");
                }
            }
        }
        // Summed over the cells, per path.
        let scalar = [181423, 181423, 0, 0, 0, 0, 173504, 34439, 26520];
        let fast = [181423, 0, 394704, 181423, 0, 0, 173504, 34439, 26520];
        assert_eq!(totals, [scalar, fast]);
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
                            let slot = (pos - node.pages.held_span().0) as usize;
                            node.read_run(&[slot], &mut raw).1.unwrap();
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
