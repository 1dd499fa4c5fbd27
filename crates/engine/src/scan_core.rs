//! The scan core: the five pieces every scanner configures.
//!
//! The paper's engine shares everything above the disk access layer because
//! the scanners' output format is identical (§2.2.2/§3). This module is the
//! same idea one level down — between the plan above the scanners
//! ([`crate::plan`]) and the page boundary below them
//! ([`crate::page_cursor`]) each primitive step of a scan has one home:
//!
//! * **select** — [`conjunction`]: the short-circuit predicate loop with its
//!   eval/pass tally, over a field accessor the caller's tuple format supplies;
//! * **admit** — [`Window`]: the row-ordinal range a scan answers for, less
//!   the ordinals degraded skips dropped;
//! * **emit** — [`Sink`]: pending selections → [`TupleBlock`], with the
//!   block-hop and output-stream charges;
//! * **decode / gather** — [`ColumnNode`]: one column file under a scan —
//!   identity, [`PageCursor`], held-page decode state and one tally struct —
//!   opened by [`ColumnNode::open_all`], flushed by [`ColumnNode::charge`].
//!
//! The row scanner, the pipelined column scanner, the single-iterator
//! column scanner and `MemScan` configure these; none of them tallies a
//! predicate, meters a decode, or assembles a block by hand (the CI lint job
//! greps for it). What stays per scanner is its *schedule*:
//! which page is pulled when, and — for node 0 of the pipelined scanner —
//! the code-space block filter only it runs.

use std::sync::Arc;

use rodb_cpu::CpuMeter;
use rodb_storage::{ColumnStorage, Table, VerifiedPage};
use rodb_types::{DataType, HardwareConfig, Result, Schema};

use crate::block::TupleBlock;
use crate::degraded::DropSet;
use crate::op::ExecContext;
use crate::page_cursor::PageCursor;
use crate::predicate::{scan_columns, Predicate};

// ---------------------------------------------------------------------------
// select
// ---------------------------------------------------------------------------

/// Evaluations and passes of one predicate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PredTally {
    pub evals: u64,
    pub passes: u64,
}

/// Whether a tuple passes every predicate: evaluated in order, stopping at
/// the first that fails, each evaluation and each pass tallied. `holds(pi,
/// pred)` decides predicate number `pi` on the tuple at hand — on its stored
/// field, in code space or on an owned value, as the caller's format allows.
#[inline]
pub(crate) fn conjunction(
    preds: &[Predicate],
    tallies: &mut [PredTally],
    mut holds: impl FnMut(usize, &Predicate) -> Result<bool>,
) -> Result<bool> {
    for (pi, (pred, tally)) in preds.iter().zip(tallies).enumerate() {
        tally.evals += 1;
        if !holds(pi, pred)? {
            return Ok(false);
        }
        tally.passes += 1;
    }
    Ok(true)
}

/// [`conjunction`] on one stored value at full declared width, which every
/// predicate reads: a column node's.
#[inline]
pub(crate) fn judge(
    preds: &[Predicate],
    tallies: &mut [PredTally],
    dtype: DataType,
    raw: &[u8],
) -> Result<bool> {
    conjunction(preds, tallies, |_, pred| Ok(pred.eval_raw(dtype, raw)))
}

// ---------------------------------------------------------------------------
// admit
// ---------------------------------------------------------------------------

/// The rows a scan answers for: its row-ordinal range `[start, end)` less
/// the ordinals lost to quarantined pages. Every scan node of a projection
/// consults the same window, so columns never misalign.
pub(crate) struct Window {
    range: (u64, u64),
    settled: bool,
    /// Ordinal ranges dropped by degraded skips (empty unless `on_corrupt =
    /// Skip` absorbed a page whose every replica was bad).
    pub dropped: DropSet,
}

impl Window {
    pub fn new(range: (u64, u64)) -> Window {
        Window {
            range,
            settled: false,
            dropped: DropSet::default(),
        }
    }

    /// Whether row `pos` is this scan's to produce. Slots of a boundary page
    /// outside the range belong to a neighbouring morsel; dropped ordinals
    /// were lost to a quarantined page of some column.
    #[inline]
    pub fn admits(&self, pos: u64) -> bool {
        self.range.0 <= pos && pos < self.range.1 && !self.dropped.contains(pos)
    }

    /// End of scan: report what was dropped to the recovery counters.
    /// True the first time only — a scanner polled past its end closes its
    /// accounting once.
    pub fn settle(&mut self, ctx: &ExecContext) -> bool {
        let first = !std::mem::replace(&mut self.settled, true);
        let dropped = self.dropped.total();
        if first && dropped > 0 {
            ctx.disk.borrow_mut().note_dropped_rows(dropped);
        }
        first
    }
}

// ---------------------------------------------------------------------------
// emit
// ---------------------------------------------------------------------------

/// What the bytes pending in a [`Sink`] are.
pub(crate) enum Pending {
    /// Whole output tuples.
    Tuples,
    /// Values of the deepest scan column, `width` bytes each: output column
    /// `out`, or not projected at all (only their positions are emitted).
    Column { width: usize, out: Option<usize> },
}

/// Qualifying rows selected but not yet emitted, and the one way they become
/// a [`TupleBlock`].
pub(crate) struct Sink {
    schema: Arc<Schema>,
    pending: Pending,
    /// Bytes per pending row.
    stride: usize,
    positions: Vec<u64>,
    /// `positions.len() × stride` bytes — also across a failed push.
    bytes: Vec<u8>,
    taken: usize,
}

impl Sink {
    pub fn new(schema: Arc<Schema>, pending: Pending) -> Sink {
        let stride = match pending {
            Pending::Tuples => schema.logical_width(),
            Pending::Column { width, .. } => width,
        };
        Sink {
            schema,
            pending,
            stride,
            positions: Vec::new(),
            bytes: Vec::new(),
            taken: 0,
        }
    }

    /// The output schema of the blocks this sink emits.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Rows pending.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.positions.len() - self.taken
    }

    /// Append one row: `fill` appends its bytes, field by field if it likes.
    /// An error leaves the sink as it was, so a scan resumed past it stays
    /// aligned.
    pub fn push_with(
        &mut self,
        pos: u64,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        let len = self.bytes.len();
        self.positions.push(pos);
        fill(&mut self.bytes).inspect_err(|_| {
            self.positions.pop();
            self.bytes.truncate(len);
        })
    }

    /// Move up to `cap` pending rows into a block; `None` when none pend.
    pub fn take(&mut self, cap: usize) -> Result<Option<TupleBlock>> {
        let take = self.remaining().min(cap);
        if take == 0 {
            return Ok(None);
        }
        debug_assert_eq!(self.bytes.len(), self.positions.len() * self.stride);
        let mut block = TupleBlock::new(self.schema.clone(), take);
        for idx in self.taken..self.taken + take {
            let pos = self.positions[idx];
            let raw = &self.bytes[idx * self.stride..(idx + 1) * self.stride];
            match self.pending {
                Pending::Tuples => block.push_tuple(raw, pos)?,
                Pending::Column { out, .. } => {
                    let bi = block.push_blank(pos);
                    if let Some(oc) = out {
                        block.field_mut(bi, oc).copy_from_slice(raw);
                    }
                }
            }
        }
        self.taken += take;
        if self.taken == self.positions.len() {
            self.positions.clear();
            self.bytes.clear();
            self.taken = 0;
        }
        Ok(Some(block))
    }

    /// Charge `block` leaving the scanner: `hops` block-iterator calls (one
    /// per scan node it crossed, the hand-off to the parent included) and
    /// its bytes streamed out.
    pub fn ship(ctx: &ExecContext, block: &TupleBlock, hops: usize) {
        let mut meter = ctx.meter.borrow_mut();
        meter.block_calls(hops as f64);
        meter.stream_bytes(block.byte_len() as f64);
    }

    /// [`Sink::take`] then [`Sink::ship`] over the one hop to the parent.
    pub fn emit(&mut self, ctx: &ExecContext, cap: usize) -> Result<Option<TupleBlock>> {
        let block = self.take(cap)?;
        if let Some(block) = &block {
            Sink::ship(ctx, block, 1);
        }
        Ok(block)
    }
}

// ---------------------------------------------------------------------------
// decode / gather
// ---------------------------------------------------------------------------

/// What a column node decodes of the pages its cursor pulls — the one thing
/// the paper's two column scanners differ in. Fixed by the scanner that
/// opens the node; not a configuration knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodePolicy {
    /// §2.2.2, the pipelined scanner: a FOR-delta page is decoded whole on
    /// the way (every prior code is needed anyway — Figure 9's CPU effect);
    /// on the fast path an int *target* page is block-decoded once; anything
    /// else is read per position from the held page.
    Pipelined,
    /// §4.2, the single-iterator scanner: every pulled page is decoded
    /// whole, and on the fast path its int predicates are judged in the
    /// same pass.
    EveryPage,
}

/// Work one column node did, flushed into the meter by
/// [`ColumnNode::finish`].
#[derive(Debug, Default)]
pub(crate) struct NodeTally {
    /// Codes decoded one at a time.
    pub values_decoded: u64,
    /// Codes decoded through the block kernels.
    pub blocks_decoded: u64,
    /// Predicate evaluations inside vectorized passes.
    pub vec_pred_evals: u64,
    /// Values gathered out of decoded blocks.
    pub gathered: u64,
    /// Pages a zone map let the node skip untransferred.
    pub pages_skipped_z: u64,
    /// {position, value} pairs created or consumed.
    pub positions_seen: u64,
    /// Values copied into output tuples.
    pub values_written: u64,
}

/// One column file under a scan: a scan node of the pipelined scanner, a
/// cursor of the single-iterator scanner.
pub(crate) struct ColumnNode {
    pub col: usize,
    pub dtype: DataType,
    pub preds: Vec<Predicate>,
    /// Evaluations and passes of `preds`, one tally each.
    pub pred_tallies: Vec<PredTally>,
    /// Offset of this column in the output schema, if projected.
    pub out_col: Option<usize>,
    /// Catalog-resident metadata: the codec, and the zone-map trailers.
    pub storage: ColumnStorage,
    /// This column's file, clamped to the pages holding the row range. Under
    /// `Skip` every page of it is verified, and a bad one quarantined,
    /// whether a position targets it or the node streams past or drains it,
    /// so serial and parallel scans quarantine identical sets.
    pub pages: PageCursor,
    policy: DecodePolicy,
    /// Vectorized fast path enabled ([`rodb_types::SystemConfig`]
    /// `scan_fast_path`).
    pub fast: bool,
    /// Whether the held page was decoded whole — an int column's into
    /// `ints` by the page's one block decoder (metered as block work on the
    /// fast path, per value off it), a text column's into `raw` at full
    /// declared width. Otherwise values are read per position through the
    /// codec.
    decoded: bool,
    /// Also node 0's value-space filter scratch.
    pub ints: Vec<i32>,
    raw: Vec<u8>,
    /// Per-slot verdict of `preds` on the held page, where decoding judged
    /// them in one vectorized pass (empty otherwise).
    verdicts: Vec<bool>,
    pub tally: NodeTally,
}

impl ColumnNode {
    /// Open a node for every column the scan touches, in
    /// [`scan_columns`] order, each clamped to `range` by its own geometry
    /// (columns pack different value counts per page).
    pub fn open_all(
        table: &Table,
        projection: &[usize],
        predicates: &[Predicate],
        ctx: &ExecContext,
        range: Option<(u64, u64)>,
        policy: DecodePolicy,
    ) -> Result<Vec<ColumnNode>> {
        let cs = table.col_storage()?;
        let open = |col: usize| {
            let preds: Vec<Predicate> = predicates
                .iter()
                .filter(|p| p.col == col)
                .cloned()
                .collect();
            Ok(ColumnNode {
                col,
                dtype: table.schema.dtype(col),
                pred_tallies: vec![PredTally::default(); preds.len()],
                preds,
                out_col: projection.iter().position(|&c| c == col),
                storage: cs.columns[col].clone(),
                pages: PageCursor::open(ctx, table, Some(col), range)?,
                policy,
                fast: ctx.sys.scan_fast_path,
                decoded: false,
                ints: Vec::new(),
                raw: Vec::new(),
                verdicts: Vec::new(),
                tally: NodeTally::default(),
            })
        };
        scan_columns(projection, predicates)
            .into_iter()
            .map(open)
            .collect()
    }

    /// Make `pos` addressable: hold the page containing it, decoding on the
    /// way what the policy says. A bad page streamed past under `Skip` drops
    /// its ordinals into `dropped`.
    #[inline]
    pub fn seek(&mut self, pos: u64, dropped: &mut DropSet) -> Result<()> {
        if self.pages.holds(pos) {
            return Ok(());
        }
        let comp = &self.storage.comp;
        let fast_int = self.fast && self.dtype == DataType::Int;
        self.pages
            .seek(pos, dropped, |verified: &VerifiedPage, is_target| {
                self.decoded = false;
                let whole = match self.policy {
                    // Pages only streamed past are not decoded — unless the
                    // codec needs every prior code anyway (FOR-delta and the
                    // RLE family, all int-only).
                    DecodePolicy::Pipelined => {
                        !comp.codec.random_access() || (fast_int && is_target)
                    }
                    DecodePolicy::EveryPage => true,
                };
                if !whole {
                    return Ok(());
                }
                let pv = verified.column(self.dtype).values(comp);
                let count = pv.count();
                if self.dtype == DataType::Int {
                    pv.decode_ints_into(&mut self.ints)?;
                } else {
                    self.raw.clear();
                    for slot in 0..count {
                        pv.write_raw(slot, &mut self.raw)?;
                    }
                }
                if fast_int {
                    self.tally.blocks_decoded += count as u64;
                } else {
                    self.tally.values_decoded += count as u64;
                }
                self.decoded = true;
                if fast_int && self.policy == DecodePolicy::EveryPage && !self.preds.is_empty() {
                    // The row loop's int predicates are judged here, in one
                    // vectorized pass.
                    let verdict = |&v| self.preds.iter().all(|p| p.eval_int(v));
                    self.verdicts.clear();
                    self.verdicts.extend(self.ints.iter().map(verdict));
                    self.tally.vec_pred_evals += (count * self.preds.len()) as u64;
                }
                Ok(())
            })
    }

    /// Append the value at `pos` of the held page (after a successful
    /// [`ColumnNode::seek`]) at full declared width.
    #[inline]
    pub fn read(&mut self, pos: u64, out: &mut Vec<u8>) -> Result<()> {
        let (page, first_row) = self.pages.held();
        let slot = (pos - first_row) as usize;
        let width = self.dtype.width();
        let comp = &self.storage.comp;
        if !self.decoded {
            // Scalar reads and the fast path's fallback (text has no block
            // kernel) alike re-open the held page: no checksum pass here.
            page.column(self.dtype).values(comp).write_raw(slot, out)?;
            self.tally.values_decoded += 1;
        } else if self.dtype == DataType::Int {
            out.extend_from_slice(&self.ints[slot].to_le_bytes());
            if self.policy == DecodePolicy::Pipelined && comp.codec.random_access() {
                // Block-decoded for the lookups' sake, not the codec's or
                // the policy's.
                self.tally.gathered += 1;
            }
        } else {
            out.extend_from_slice(&self.raw[slot * width..][..width]);
        }
        Ok(())
    }

    /// Whether the value at `pos` of the held page passes: the verdict of
    /// the decode pass where it judged the page, else the value is read
    /// into `scratch` (left there for the caller) and judged.
    #[inline]
    pub fn passes(&mut self, pos: u64, scratch: &mut Vec<u8>) -> Result<bool> {
        if let Some(&verdict) = self.verdicts.get((pos - self.pages.held().1) as usize) {
            return Ok(verdict);
        }
        scratch.clear();
        self.read(pos, scratch)?;
        judge(&self.preds, &mut self.pred_tallies, self.dtype, scratch)
    }

    /// End of a column scan (once, however often it is called): drain each
    /// file's remaining pages, deepest first (under `Skip` that may still
    /// drop rows), settle the window, then flush every tally into the meter.
    pub fn finish(nodes: &mut [ColumnNode], window: &mut Window, ctx: &ExecContext) {
        for node in nodes.iter_mut() {
            node.pages.drain(&mut window.dropped);
        }
        if !window.settle(ctx) {
            return;
        }
        let mut meter = ctx.meter.borrow_mut();
        for node in nodes {
            node.charge(&mut meter, &ctx.hw);
        }
    }

    fn charge(&self, meter: &mut CpuMeter, hw: &HardwareConfig) {
        let t = &self.tally;
        let kind = self.storage.comp.codec.kind();
        let width = self.dtype.width() as f64;
        let decoded_all = t.values_decoded + t.blocks_decoded;
        // CPU: decode + loop + predicates + position handling. Scalar and
        // block-kernel work are metered at their own rates.
        meter.decode(kind, t.values_decoded as f64);
        meter.decode_block(kind, t.blocks_decoded as f64);
        meter.col_iter(match self.policy {
            // A value loop runs over scalar-decoded codes and positions only.
            DecodePolicy::Pipelined => t.values_decoded.max(t.positions_seen),
            // The row loop visits every decoded value.
            DecodePolicy::EveryPage => decoded_all,
        } as f64);
        if !self.preds.is_empty() {
            let evals: u64 = self.pred_tallies.iter().map(|p| p.evals).sum();
            let passes: u64 = self.pred_tallies.iter().map(|p| p.passes).sum();
            meter.predicate(evals as f64, passes as f64);
            meter.vec_predicate(t.vec_pred_evals as f64);
        }
        meter.selvec_gather(t.gathered as f64);
        meter.position_pairs(t.positions_seen as f64);
        let written = t.values_written as f64;
        meter.project(written, 1.0, written * width);
        // Memory: the file streams (minus zone-skipped pages, which were
        // never transferred) or misses depending on how densely it was
        // touched. Whatever was decoded was touched.
        let skipped = (t.pages_skipped_z as usize * self.storage.page_size) as f64;
        let touched = decoded_all.max(t.positions_seen) as f64;
        meter.memory_access(
            hw,
            (self.pages.window_bytes() - skipped).max(0.0),
            touched,
            width,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::Column;

    /// The reference: the plain tallying loop, spelled out.
    fn hand_loop(preds: &[Predicate], dtype: DataType, raw: &[u8]) -> (bool, Vec<PredTally>) {
        let mut tallies = vec![PredTally::default(); preds.len()];
        let mut pass = true;
        for (p, t) in preds.iter().zip(&mut tallies) {
            t.evals += 1;
            if p.eval_raw(dtype, raw) {
                t.passes += 1;
            } else {
                pass = false;
                break;
            }
        }
        (pass, tallies)
    }

    #[test]
    fn conjunction_tallies_like_the_hand_loop_at_every_short_circuit() {
        let raw = 5i32.to_le_bytes();
        let (holds, fails) = (Predicate::lt(0, 10), Predicate::lt(0, 3));
        // Nothing failing, then the first, second and third of three, then
        // two at once (the first failure hides the second).
        for failing in [vec![], vec![0], vec![1], vec![2], vec![0, 2], vec![1, 2]] {
            let preds: Vec<Predicate> = (0..3)
                .map(|i| if failing.contains(&i) { &fails } else { &holds }.clone())
                .collect();
            let mut tallies = vec![PredTally::default(); 3];
            let holds = |_, p: &Predicate| Ok(p.eval_raw(DataType::Int, &raw));
            let pass = conjunction(&preds, &mut tallies, holds).unwrap();
            assert_eq!(
                (pass, tallies),
                hand_loop(&preds, DataType::Int, &raw),
                "{failing:?}"
            );
            assert_eq!(pass, failing.is_empty());
        }
        // Tallies accumulate across tuples.
        let preds = vec![holds.clone(), fails.clone()];
        let mut tallies = vec![PredTally::default(); 2];
        for _ in 0..4 {
            let holds = |_, p: &Predicate| Ok(p.eval_raw(DataType::Int, &raw));
            assert!(!conjunction(&preds, &mut tallies, holds).unwrap());
        }
        let tally = |evals, passes| PredTally { evals, passes };
        assert_eq!(tallies, [tally(4, 4), tally(4, 0)]);
    }

    #[test]
    fn window_admits_its_range_less_the_dropped() {
        let mut w = Window::new((10, 20));
        w.dropped.add(12, 14);
        let admitted: Vec<u64> = (0..30).filter(|&p| w.admits(p)).collect();
        assert_eq!(admitted, [10, 11, 14, 15, 16, 17, 18, 19]);
        let ctx = ExecContext::default_ctx();
        assert!(w.settle(&ctx));
        assert!(!w.settle(&ctx), "a scan closes once");
        assert_eq!(ctx.disk.borrow().stats().recovery.dropped_rows, 2);
    }

    /// Drain a sink the way every scanner does — fill until a block's worth
    /// pends or the source ends, then emit — feeding `batch` rows at a time.
    fn blocks(pending: Pending, cap: usize, batch: usize) -> Vec<(Vec<u8>, Vec<u64>)> {
        let mut out: Vec<(Vec<u8>, Vec<u64>)> = Vec::new();
        const ROWS: u64 = 530;
        let schema = Arc::new(Schema::new(vec![Column::text("t", 3), Column::int("v")]).unwrap());
        let whole = matches!(pending, Pending::Tuples);
        let mut sink = Sink::new(schema, pending);
        let ctx = ExecContext::default_ctx();
        let mut next = 0u64;
        loop {
            while sink.remaining() < cap && next < ROWS {
                for pos in next..(next + batch as u64).min(ROWS) {
                    let v = (pos as i32 * 7).to_le_bytes();
                    let text = [b'a' + (pos % 26) as u8; 3];
                    sink.push_with(pos, |out| {
                        if whole {
                            out.extend_from_slice(&text);
                        }
                        out.extend_from_slice(&v);
                        Ok(())
                    })
                    .unwrap();
                }
                next = (next + batch as u64).min(ROWS);
            }
            let Some(block) = sink.emit(&ctx, cap).unwrap() else {
                break;
            };
            assert!(block.count() <= cap);
            let bytes = (0..block.count()).flat_map(|i| block.tuple(i).to_vec());
            out.push((bytes.collect(), block.positions().to_vec()));
        }
        // One hop and the block's bytes per emitted block, nothing else.
        let mut expect = rodb_cpu::CpuMeter::default();
        for (bytes, _) in &out {
            expect.block_calls(1.0);
            expect.stream_bytes(bytes.len() as f64);
        }
        assert_eq!(ctx.meter.borrow().counters(), expect.counters());
        out
    }

    #[test]
    fn sink_blocks_do_not_depend_on_how_it_was_fed() {
        for cap in [1, 3, 100] {
            for pending in [
                || Pending::Tuples,
                || Pending::Column {
                    width: 4,
                    out: Some(1),
                },
                || Pending::Column {
                    width: 4,
                    out: None,
                },
            ] {
                let paged = blocks(pending(), cap, 250);
                let single = blocks(pending(), cap, 1);
                assert_eq!(paged, single, "cap {cap}");
                // Every block full but the last, positions in order.
                let counts: Vec<usize> = paged.iter().map(|(_, p)| p.len()).collect();
                assert_eq!(counts.iter().sum::<usize>(), 530);
                assert!(counts[..counts.len() - 1].iter().all(|&c| c == cap));
                let positions: Vec<u64> = paged.iter().flat_map(|(_, p)| p.clone()).collect();
                assert_eq!(positions, (0..530).collect::<Vec<u64>>());
                // Whole tuples arrive whole; a column lands in `v` of an
                // otherwise zeroed tuple; an unprojected one leaves zeros.
                let tuples: Vec<u8> = paged.iter().flat_map(|(b, _)| b.clone()).collect();
                for (pos, tuple) in tuples.chunks(7).enumerate() {
                    let (text, v) = match pending() {
                        Pending::Tuples => ([b'a' + (pos % 26) as u8; 3], pos as i32 * 7),
                        Pending::Column { out: Some(_), .. } => ([0; 3], pos as i32 * 7),
                        Pending::Column { out: None, .. } => ([0; 3], 0),
                    };
                    assert_eq!(tuple, [&text[..], &v.to_le_bytes()].concat(), "row {pos}");
                }
            }
        }
    }

    #[test]
    fn a_failed_push_leaves_the_sink_aligned() {
        let schema = Arc::new(Schema::new(vec![Column::int("a"), Column::int("b")]).unwrap());
        let mut sink = Sink::new(schema, Pending::Tuples);
        let row = |out: &mut Vec<u8>| {
            out.extend_from_slice(&[1; 8]);
            Ok(())
        };
        sink.push_with(0, row).unwrap();
        let torn = sink.push_with(1, |out| {
            out.extend_from_slice(&[9; 4]);
            Err(rodb_types::Error::corrupt("second field failed"))
        });
        assert!(torn.is_err());
        sink.push_with(2, row).unwrap();
        let block = sink.take(10).unwrap().unwrap();
        assert_eq!(block.positions(), &[0, 2]);
        assert_eq!(block.tuple(1), &[1; 8]);
    }
}
