//! The scan core: the five pieces every scanner configures.
//!
//! The paper's engine shares everything above the disk access layer because
//! the scanners' output format is identical (§2.2.2/§3). This module is the
//! same idea one level down — between the plan above the scanners
//! ([`crate::plan`]) and the page boundary below them
//! ([`crate::page_cursor`]) each primitive step of a scan has one home:
//!
//! * **select** — [`narrow`]: the short-circuit predicate loop with its
//!   eval/pass tally over a selection vector, and [`select_strided`] the one
//!   value-space kernel that narrows it over a strided run of stored fields
//!   (a row page's column, a PAX minipage, a decoded column or run);
//!   [`conjunction`] is the same rule on one tuple, for `MemScan`'s owned
//!   rows;
//! * **admit** — [`Window`]: the row-ordinal range a scan answers for, less
//!   the ordinals degraded skips dropped;
//! * **emit** — [`Sink`]: pending selections → [`TupleBlock`], a page's
//!   (a run's, a call's) survivors pushed at once and a block taken in one
//!   copy, with the block-hop and output-stream charges;
//! * **decode / gather** — [`ColumnNode`]: one column file under a scan —
//!   identity, [`PageCursor`], held-page decode state and one tally struct —
//!   opened by [`ColumnNode::open_all`], flushed by [`ColumnNode::charge`].
//!
//! The row scanner, the pipelined column scanner, the single-iterator
//! column scanner and `MemScan` configure these; none of them tallies a
//! predicate, meters a decode, or assembles a block by hand (the CI lint job
//! greps for it), and none of them pushes or judges a row at a time: each
//! is "selection vector ← slots; narrow; copy; one push". What stays per
//! scanner is its *schedule*: which page is pulled when, and — for node 0
//! of the pipelined scanner — the code-space block filter only it runs.

use std::sync::Arc;

use rodb_cpu::CpuMeter;
use rodb_storage::{ColumnStorage, Table, VerifiedPage};
use rodb_types::{DataType, HardwareConfig, Result, Schema, Value};

use crate::block::TupleBlock;
use crate::degraded::DropSet;
use crate::op::ExecContext;
use crate::page_cursor::PageCursor;
use crate::predicate::{scan_columns, CmpOp, Predicate};

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

/// [`conjunction`] over a page at once: `sel` holds the slots still in the
/// running, and predicate by predicate `keep(pi, pred, sel)` narrows it to
/// the slots on which predicate number `pi` holds. Each predicate is judged
/// on exactly the slots every earlier one passed, so the tallies equal
/// [`conjunction`]'s summed over the slots.
#[inline]
pub(crate) fn narrow(
    preds: &[Predicate],
    tallies: &mut [PredTally],
    sel: &mut Vec<usize>,
    mut keep: impl FnMut(usize, &Predicate, &mut Vec<usize>) -> Result<()>,
) -> Result<()> {
    for (pi, (pred, tally)) in preds.iter().zip(tallies).enumerate() {
        if sel.is_empty() {
            break;
        }
        tally.evals += sel.len() as u64;
        keep(pi, pred, sel)?;
        tally.passes += sel.len() as u64;
    }
    Ok(())
}

/// Keep the slots of `sel` on which `holds` is true, in order, without a
/// branch on the outcome.
#[inline(always)]
pub(crate) fn retain(sel: &mut Vec<usize>, holds: impl Fn(usize) -> bool) {
    let mut n = 0;
    for k in 0..sel.len() {
        let slot = sel[k];
        sel[n] = slot;
        n += usize::from(holds(slot));
    }
    sel.truncate(n);
}

/// The select kernel of every page loop: keep the slots of `sel` whose field
/// satisfies `pred`, the `dtype`-wide field of slot `s` starting at byte
/// `s * stride` of `bytes`. The run is a plain row page's column (the
/// stored tuple width apart), a PAX minipage or a decoded column (the value
/// width apart).
///
/// An int or long column against an int or long literal is one typed loop
/// per operator, the literal widened to `i64` as [`Predicate::eval_raw`]
/// widens it; text, and a pair `validate` rejects, is judged by `eval_raw`.
pub(crate) fn select_strided(
    pred: &Predicate,
    dtype: DataType,
    bytes: &[u8],
    stride: usize,
    sel: &mut Vec<usize>,
) {
    let lit = match pred.literal {
        Value::Int(l) => Some(i64::from(l)),
        Value::Long(l) => Some(l),
        Value::Text(_) => None,
    };
    match (dtype, lit) {
        (DataType::Int, Some(lit)) => keep_cmp(sel, pred.op, lit, |slot| {
            let f = &bytes[slot * stride..][..4];
            i64::from(i32::from_le_bytes([f[0], f[1], f[2], f[3]]))
        }),
        (DataType::Long, Some(lit)) => keep_cmp(sel, pred.op, lit, |slot| {
            let f = &bytes[slot * stride..][..8];
            i64::from_le_bytes([f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]])
        }),
        _ => {
            let width = dtype.width();
            retain(sel, |slot| {
                pred.eval_raw(dtype, &bytes[slot * stride..][..width])
            })
        }
    }
}

/// [`retain`] on `read(slot) op lit`, one loop per operator.
#[inline(always)]
fn keep_cmp(sel: &mut Vec<usize>, op: CmpOp, lit: i64, read: impl Fn(usize) -> i64) {
    match op {
        CmpOp::Lt => retain(sel, |slot| read(slot) < lit),
        CmpOp::Le => retain(sel, |slot| read(slot) <= lit),
        CmpOp::Eq => retain(sel, |slot| read(slot) == lit),
        CmpOp::Ne => retain(sel, |slot| read(slot) != lit),
        CmpOp::Ge => retain(sel, |slot| read(slot) >= lit),
        CmpOp::Gt => retain(sel, |slot| read(slot) > lit),
    }
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

    /// The slots of a page of `count` rows from `first_row` that lie inside
    /// the range: every slot the window can admit (a dropped ordinal
    /// among them still fails [`Window::admits`]).
    pub fn slots(&self, first_row: u64, count: usize) -> std::ops::Range<usize> {
        let slot = |pos: u64| pos.saturating_sub(first_row).min(count as u64) as usize;
        let start = slot(self.range.0);
        start..slot(self.range.1).max(start)
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

    /// Append a page's survivors at once: one row per position, `fill`
    /// appends their bytes back to back. An error leaves the sink as it
    /// was, every row of the call rolled back, so a scan resumed past it
    /// stays aligned.
    pub fn push_rows(
        &mut self,
        positions: impl IntoIterator<Item = u64>,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        let (rows, len) = (self.positions.len(), self.bytes.len());
        self.positions.extend(positions);
        fill(&mut self.bytes).inspect_err(|_| {
            self.positions.truncate(rows);
            self.bytes.truncate(len);
        })
    }

    /// Move up to `cap` pending rows into a block, in one copy; `None` when
    /// none pend.
    pub fn take(&mut self, cap: usize) -> Result<Option<TupleBlock>> {
        let take = self.remaining().min(cap);
        if take == 0 {
            return Ok(None);
        }
        debug_assert_eq!(self.bytes.len(), self.positions.len() * self.stride);
        let rows = self.taken..self.taken + take;
        let positions = self.positions[rows.clone()].to_vec();
        let bytes = &self.bytes[rows.start * self.stride..rows.end * self.stride];
        let data = match self.pending {
            Pending::Tuples => bytes.to_vec(),
            Pending::Column { width, out } => {
                // One column lands in otherwise zeroed tuples.
                let row = self.schema.logical_width();
                let mut data = vec![0; take * row];
                if let Some(oc) = out {
                    let off = self.schema.offset(oc);
                    for (i, value) in bytes.chunks_exact(width).enumerate() {
                        data[i * row + off..][..width].copy_from_slice(value);
                    }
                }
                data
            }
        };
        self.taken += take;
        if self.taken == self.positions.len() {
            self.positions.clear();
            self.bytes.clear();
            self.taken = 0;
        }
        TupleBlock::from_parts(self.schema.clone(), data, positions).map(Some)
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

/// Copy the `width`-byte field of each slot of `sel` out of a strided run
/// (slot `s`'s at byte `s * stride` of `src`) to every `dst_stride` bytes of
/// `dst`, in order: a page's survivors into pending rows.
#[inline]
pub(crate) fn copy_fields(
    src: &[u8],
    stride: usize,
    width: usize,
    sel: &[usize],
    dst: &mut [u8],
    dst_stride: usize,
) {
    let at = sel.iter().enumerate();
    copy_at(
        src,
        dst,
        width,
        at.map(|(i, &slot)| (slot * stride, i * dst_stride)),
    );
}

/// Copy the `width`-byte value of each index `k` of `sel` out of a dense
/// run (value `k` at byte `k * width` of `src`) to row `rows[k]` of `dst`,
/// rows `dst_stride` bytes apart: a driven run's kept values into their
/// block's tuples.
#[inline]
pub(crate) fn scatter_fields(
    src: &[u8],
    width: usize,
    sel: &[usize],
    rows: &[usize],
    dst: &mut [u8],
    dst_stride: usize,
) {
    let at = sel.iter().map(|&k| (k * width, rows[k] * dst_stride));
    copy_at(src, dst, width, at);
}

/// Copy `width` bytes from `src` to `dst` at each `(from, to)` byte offset
/// pair. An int's or a long's copy is one load and one store, not a call.
#[inline(always)]
fn copy_at(src: &[u8], dst: &mut [u8], width: usize, at: impl Iterator<Item = (usize, usize)>) {
    match width {
        4 => copy_n::<4>(src, dst, at),
        8 => copy_n::<8>(src, dst, at),
        _ => at.for_each(|(from, to)| dst[to..][..width].copy_from_slice(&src[from..][..width])),
    }
}

/// [`copy_at`] at a width known to the compiler.
#[inline(always)]
fn copy_n<const W: usize>(src: &[u8], dst: &mut [u8], at: impl Iterator<Item = (usize, usize)>) {
    at.for_each(|(from, to)| dst[to..][..W].copy_from_slice(&src[from..][..W]));
}

// ---------------------------------------------------------------------------
// decode / gather
// ---------------------------------------------------------------------------

/// What a column node decodes of the pages its cursor pulls — the one thing
/// the paper's two column scanners differ in. Fixed by the scanner that
/// opens the node; not a configuration knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodePolicy {
    /// §2.2.2, the pipelined scanner: a FOR-delta or RLE page is decoded
    /// whole on the way (every prior code is needed anyway — Figure 9's CPU
    /// effect); anything else is read from the held page a run of positions
    /// at a time, decoding only the run's slots. On the fast path an int
    /// *target* page is still billed as one block decode, and its run's
    /// values as gathers out of it — the model's kernel, while the host
    /// decodes only the run (as node 0's ranged decode bills whole pages).
    Pipelined,
    /// §4.2, the single-iterator scanner: every pulled page is decoded
    /// whole into stored bytes, and on the fast path its int predicates are
    /// charged as one vectorized pass over it.
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
    /// `ints` by the page's int block decoder (metered as block work on the
    /// fast path, per value off it), any other column's into `raw` by its
    /// range decoder. Otherwise values are gathered through the codec.
    decoded: bool,
    /// Also node 0's value-space filter scratch.
    pub ints: Vec<i32>,
    /// The held page's values at full declared width, back to back, when
    /// decoded whole and not ints — or, under [`DecodePolicy::EveryPage`],
    /// ints too.
    pub raw: Vec<u8>,
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
                    // Random-access pages are read a run at a time: only
                    // the codecs that need every prior code anyway
                    // (FOR-delta and the RLE family, all int-only) decode
                    // whole on the way.
                    DecodePolicy::Pipelined => !comp.codec.random_access(),
                    DecodePolicy::EveryPage => true,
                };
                if !whole {
                    if fast_int && is_target {
                        // Billed as the block decode the fast path models;
                        // `read_run` decodes only the run's slots.
                        self.tally.blocks_decoded += verified.count() as u64;
                    }
                    return Ok(());
                }
                let pv = verified.column(self.dtype).values(comp);
                let count = pv.count();
                let every = self.policy == DecodePolicy::EveryPage;
                self.raw.clear();
                if self.dtype == DataType::Int {
                    pv.decode_ints_into(&mut self.ints)?;
                    if every {
                        // The run loop reads every column as stored bytes.
                        self.raw
                            .extend(self.ints.iter().flat_map(|v| v.to_le_bytes()));
                    }
                } else {
                    pv.decode_raw_into(0, count, &mut self.raw)?;
                }
                if fast_int {
                    self.tally.blocks_decoded += count as u64;
                    if every {
                        // The page's int predicates, priced as one
                        // vectorized pass over it (`select_held` runs it).
                        self.tally.vec_pred_evals += (count * self.preds.len()) as u64;
                    }
                } else {
                    self.tally.values_decoded += count as u64;
                }
                self.decoded = true;
                Ok(())
            })
    }

    /// Append the values at the strictly ascending `slots` of the held page
    /// (after a successful [`ColumnNode::seek`]) at full declared width,
    /// back to back: a run of a driven node's positions. A page not decoded
    /// whole is gathered through the codec in one call. Returns how many slots
    /// were appended; on an error `out` holds exactly those values, and the
    /// error is the one the codec's per-slot read raises at the next slot,
    /// located at the held page.
    pub fn read_run(&mut self, slots: &[usize], out: &mut Vec<u8>) -> (usize, Result<()>) {
        let (page, page_index) = match self.pages.held() {
            Ok(held) => held,
            Err(e) => return (0, Err(e)),
        };
        let width = self.dtype.width();
        let comp = &self.storage.comp;
        if !self.decoded {
            // One re-open of the held page per run: no checksum pass here.
            let (n, read) = page.column(self.dtype).values(comp).gather_raw(slots, out);
            if self.fast && self.dtype == DataType::Int {
                // The seek billed the page's block decode, so the run's
                // values are gathers out of it.
                self.tally.gathered += n as u64;
            } else {
                self.tally.values_decoded += n as u64;
            }
            return (n, read.map_err(|e| self.pages.locate(e, page_index)));
        }
        out.reserve(slots.len() * width);
        if self.dtype == DataType::Int {
            out.extend(slots.iter().flat_map(|&slot| self.ints[slot].to_le_bytes()));
        } else {
            for &slot in slots {
                out.extend_from_slice(&self.raw[slot * width..][..width]);
            }
        }
        (slots.len(), Ok(()))
    }

    /// Narrow `sel` — offsets from row `start`, each on the held page of an
    /// every-page node — to the rows whose value passes `preds`, by the
    /// select kernel over the held page's values from `start` on (`raw`). A
    /// fast-path int page was charged its predicates as one vectorized pass
    /// when decoded, so its narrowing tallies nothing.
    pub fn select_held(&mut self, start: u64, sel: &mut Vec<usize>) -> Result<()> {
        let (dtype, width) = (self.dtype, self.dtype.width());
        let run = &self.raw[(start - self.pages.held_span().0) as usize * width..];
        if self.fast && dtype == DataType::Int {
            for pred in &self.preds {
                select_strided(pred, dtype, run, width, sel);
            }
            return Ok(());
        }
        narrow(&self.preds, &mut self.pred_tallies, sel, |_, pred, sel| {
            select_strided(pred, dtype, run, width, sel);
            Ok(())
        })
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
    fn narrow_tallies_like_conjunction_at_every_short_circuit() {
        // Each slot stops the conjunction at a different predicate of the
        // three (or passes all), in every order of the three.
        let values = [5, 50, 60, 150, 20, 99, 10, 200, 7, 60];
        let (lt, ge, ne) = (
            Predicate::lt(0, 100),
            Predicate::ge(0, 10),
            Predicate::new(0, crate::predicate::CmpOp::Ne, 50.into()),
        );
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let starts: [Vec<usize>; 3] = [(0..values.len()).collect(), vec![1, 3, 4, 9], vec![]];
        for order in orders {
            let all = [&lt, &ge, &ne];
            for n in 0..=3 {
                let preds: Vec<Predicate> = order[..n].iter().map(|&i| all[i].clone()).collect();
                for start in &starts {
                    let mut want = vec![PredTally::default(); n];
                    let mut kept = Vec::new();
                    for &slot in start {
                        let holds = |_, p: &Predicate| Ok(p.eval_int(values[slot]));
                        if conjunction(&preds, &mut want, holds).unwrap() {
                            kept.push(slot);
                        }
                    }
                    let mut got = vec![PredTally::default(); n];
                    let mut sel = start.clone();
                    narrow(&preds, &mut got, &mut sel, |_, p, sel| {
                        retain(sel, |slot| p.eval_int(values[slot]));
                        Ok(())
                    })
                    .unwrap();
                    assert_eq!((sel, got), (kept, want), "{order:?}[..{n}] from {start:?}");
                }
            }
        }
        // A failed judgement stops the narrowing with its error.
        let preds = vec![lt.clone(), ge.clone()];
        let mut tallies = vec![PredTally::default(); 2];
        let mut sel = vec![0, 1, 2];
        let failed = narrow(&preds, &mut tallies, &mut sel, |pi, _, _| match pi {
            0 => Ok(()),
            _ => Err(rodb_types::Error::corrupt("judge failed")),
        });
        assert!(failed.is_err());
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Ge,
        CmpOp::Gt,
    ];

    /// Stored fields laid out one every `stride` bytes, the gaps filled with
    /// a byte that is not theirs, so a field read at the wrong offset shows.
    fn strided(fields: &[Vec<u8>], stride: usize) -> Vec<u8> {
        let mut bytes = vec![0xA5; fields.len() * stride];
        for (slot, field) in fields.iter().enumerate() {
            bytes[slot * stride..][..field.len()].copy_from_slice(field);
        }
        bytes
    }

    /// Every column type with values at the `i32` / `i64` edges and either
    /// side of the literals below, and literals of every kind against each.
    fn kernel_cases() -> Vec<(DataType, Vec<Vec<u8>>, Vec<Value>)> {
        let (min, max) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let ints = [
            i32::MIN,
            i32::MIN + 1,
            -8,
            -1,
            0,
            1,
            6,
            7,
            8,
            i32::MAX - 1,
            i32::MAX,
        ];
        let longs = [
            i64::MIN,
            i64::MIN + 1,
            min - 1,
            min,
            min + 1,
            -1,
            0,
            6,
            7,
            8,
            max - 1,
            max,
            max + 1,
            i64::MAX - 1,
            i64::MAX,
        ];
        let texts = ["", "a", "ab", "abc", "abcde", "abd", "b", "\x7f", "zz"];
        let numeric = || {
            let mut lits: Vec<Value> = [i32::MIN, -1, 0, 7, i32::MAX].map(Value::Int).to_vec();
            let longs = [i64::MIN, min - 1, min, 7, max, max + 1, i64::MAX];
            lits.extend(longs.map(Value::Long));
            lits.push(Value::text("a"));
            lits
        };
        let text = |v: &str| {
            let mut raw = v.as_bytes().to_vec();
            raw.resize(5, 0);
            raw
        };
        let mut text_lits: Vec<Value> = ["", "ab", "abc", "abcde", "abcdef", "b"]
            .map(Value::text)
            .to_vec();
        text_lits.extend([Value::Int(7), Value::Long(7)]);
        vec![
            (
                DataType::Int,
                ints.map(|v| v.to_le_bytes().to_vec()).to_vec(),
                numeric(),
            ),
            (
                DataType::Long,
                longs.map(|v| v.to_le_bytes().to_vec()).to_vec(),
                numeric(),
            ),
            (DataType::Text(5), texts.map(text).to_vec(), text_lits),
        ]
    }

    #[test]
    fn the_strided_kernel_keeps_what_eval_raw_keeps() {
        for (dtype, fields, literals) in kernel_cases() {
            let n = fields.len();
            let width = dtype.width();
            let selections: [Vec<usize>; 3] = [
                (0..n).collect(),
                (0..n).filter(|slot| slot % 3 != 1).collect(),
                vec![],
            ];
            for stride in [width, 32, 150, (width | 1) + 2] {
                let bytes = strided(&fields, stride);
                for lit in &literals {
                    for op in OPS {
                        let pred = Predicate::new(0, op, lit.clone());
                        for start in &selections {
                            let want: Vec<usize> = start
                                .iter()
                                .copied()
                                .filter(|&slot| pred.eval_raw(dtype, &fields[slot]))
                                .collect();
                            let mut sel = start.clone();
                            select_strided(&pred, dtype, &bytes, stride, &mut sel);
                            assert_eq!(
                                sel, want,
                                "{dtype:?} {pred} stride {stride} from {start:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn narrowing_with_the_kernel_tallies_like_conjunction() {
        let ints: Vec<i32> = (-40..40).map(|i| i * 7 % 23).collect();
        let fields: Vec<Vec<u8>> = ints.iter().map(|v| v.to_le_bytes().to_vec()).collect();
        let bytes = strided(&fields, 32);
        let all = [
            Predicate::ge(0, -10),
            Predicate::lt(0, 12),
            Predicate::new(0, CmpOp::Ne, Value::Long(7)),
            Predicate::new(0, CmpOp::Le, Value::Long(20)),
        ];
        let starts: [Vec<usize>; 3] = [
            (0..ints.len()).collect(),
            (5..60).step_by(2).collect(),
            vec![],
        ];
        let mut orders: Vec<Vec<usize>> = (0..4).map(|a| vec![a]).collect();
        for n in 2..=3 {
            let longer: Vec<Vec<usize>> = orders
                .iter()
                .filter(|o| o.len() == n - 1)
                .flat_map(|o| {
                    (0..4)
                        .filter(|b| !o.contains(b))
                        .map(move |b| [&o[..], &[b]].concat())
                })
                .collect();
            orders.extend(longer);
        }
        for order in orders {
            let preds: Vec<Predicate> = order.iter().map(|&i| all[i].clone()).collect();
            for start in &starts {
                let mut want = vec![PredTally::default(); preds.len()];
                let mut kept = Vec::new();
                for &slot in start {
                    let holds = |_, p: &Predicate| Ok(p.eval_raw(DataType::Int, &fields[slot]));
                    if conjunction(&preds, &mut want, holds).unwrap() {
                        kept.push(slot);
                    }
                }
                let mut got = vec![PredTally::default(); preds.len()];
                let mut sel = start.clone();
                narrow(&preds, &mut got, &mut sel, |_, p, sel| {
                    select_strided(p, DataType::Int, &bytes, 32, sel);
                    Ok(())
                })
                .unwrap();
                assert_eq!((sel, got), (kept, want), "{order:?} from {start:?}");
            }
        }
    }

    #[test]
    fn window_admits_its_range_less_the_dropped() {
        let mut w = Window::new((10, 20));
        w.dropped.add(12, 14);
        let admitted: Vec<u64> = (0..30).filter(|&p| w.admits(p)).collect();
        assert_eq!(admitted, [10, 11, 14, 15, 16, 17, 18, 19]);
        // A page's slots inside the range: before, across both ends, inside,
        // after.
        let slots =
            [(0, 5), (0, 30), (8, 4), (12, 3), (19, 9), (20, 5)].map(|(f, n)| w.slots(f, n));
        assert_eq!(slots, [5..5, 10..20, 2..4, 0..3, 0..1, 0..0]);
        let ctx = ExecContext::default_ctx();
        assert!(w.settle(&ctx));
        assert!(!w.settle(&ctx), "a scan closes once");
        assert_eq!(ctx.disk.borrow().stats().recovery.dropped_rows, 2);
    }

    /// Drain a sink the way every scanner does — fill until a block's worth
    /// pends or the source ends, then emit — feeding `batch` rows at a time,
    /// in one `push_rows` each when `paged`, else one `push_rows` per row.
    fn blocks(pending: Pending, cap: usize, batch: usize, paged: bool) -> Vec<(Vec<u8>, Vec<u64>)> {
        let mut out: Vec<(Vec<u8>, Vec<u64>)> = Vec::new();
        const ROWS: u64 = 530;
        let schema = Arc::new(Schema::new(vec![Column::text("t", 3), Column::int("v")]).unwrap());
        let whole = matches!(pending, Pending::Tuples);
        let mut sink = Sink::new(schema, pending);
        let ctx = ExecContext::default_ctx();
        let row = |pos: u64, out: &mut Vec<u8>| {
            if whole {
                out.extend_from_slice(&[b'a' + (pos % 26) as u8; 3]);
            }
            out.extend_from_slice(&(pos as i32 * 7).to_le_bytes());
        };
        let mut next = 0u64;
        loop {
            while sink.remaining() < cap && next < ROWS {
                let end = (next + batch as u64).min(ROWS);
                if paged {
                    let fill = |out: &mut Vec<u8>| {
                        (next..end).for_each(|pos| row(pos, out));
                        Ok(())
                    };
                    sink.push_rows(next..end, fill).unwrap();
                } else {
                    for pos in next..end {
                        sink.push_rows([pos], |out| {
                            row(pos, out);
                            Ok(())
                        })
                        .unwrap();
                    }
                }
                next = end;
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
        for cap in [1, 3, 7, 100, 600] {
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
                let paged = blocks(pending(), cap, 250, true);
                let single = blocks(pending(), cap, 1, false);
                assert_eq!(paged, single, "cap {cap}");
                // Whatever the batch, a page pushed at once or row by row.
                for (batch, at_once) in [(250, false), (1, true), (37, true), (530, true)] {
                    let fed = blocks(pending(), cap, batch, at_once);
                    assert_eq!(fed, single, "cap {cap} batch {batch} paged={at_once}");
                }
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
        sink.push_rows([0], row).unwrap();
        let torn = sink.push_rows([1], |out| {
            out.extend_from_slice(&[9; 4]);
            Err(rodb_types::Error::corrupt("second field failed"))
        });
        assert!(torn.is_err());
        sink.push_rows([2], row).unwrap();
        // A page's rows roll back as a whole.
        let torn = sink.push_rows([3, 4, 5], |out| {
            out.extend_from_slice(&[7; 20]);
            Err(rodb_types::Error::corrupt("third row failed"))
        });
        assert!(torn.is_err());
        let page = |out: &mut Vec<u8>| {
            out.extend_from_slice(&[2; 16]);
            Ok(())
        };
        sink.push_rows([6, 7], page).unwrap();
        let block = sink.take(10).unwrap().unwrap();
        assert_eq!(block.positions(), &[0, 2, 6, 7]);
        assert_eq!(block.tuple(1), &[1; 8]);
        assert_eq!(block.tuple(3), &[2; 8]);

        // A pending column likewise: the failed page leaves no value behind.
        let schema = Arc::new(Schema::new(vec![Column::int("a"), Column::int("b")]).unwrap());
        let mut sink = Sink::new(
            schema,
            Pending::Column {
                width: 4,
                out: Some(1),
            },
        );
        let torn = sink.push_rows([0, 1], |out| {
            out.extend_from_slice(&[9; 4]);
            Err(rodb_types::Error::corrupt("second value failed"))
        });
        assert!(torn.is_err());
        sink.push_rows([2, 3], |out| {
            out.extend_from_slice(&[[3; 4], [4; 4]].concat());
            Ok(())
        })
        .unwrap();
        let block = sink.take(10).unwrap().unwrap();
        assert_eq!(block.positions(), &[2, 3]);
        assert_eq!(block.tuple(0), &[0, 0, 0, 0, 3, 3, 3, 3]);
        assert_eq!(block.tuple(1), &[0, 0, 0, 0, 4, 4, 4, 4]);
    }
}
