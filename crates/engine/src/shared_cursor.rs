//! Shared circular scan cursors: many concurrent queries over one table
//! ride a single physical scan (§2.1.1's scan sharing: "employ a single
//! scanner and deliver data to multiple queries off a single reading
//! stream") — over every layout in any stored format, with per-query
//! aggregation, the fast path and the page cache.
//!
//! The cursor walks the table's page-aligned segments in a circle. Queries
//! *attach* at whatever segment the cursor is currently on — a late
//! arrival joins mid-scan, rides to the end of the table, and completes
//! its missed prefix after the cursor wraps around. Each segment visit
//! runs:
//!
//! 1. **One driver pass** — the pages of the row file, or (for every column
//!    layout) of the union of all attached queries' columns (projection ∪
//!    predicate inputs), are moved and checksummed once each, in the order
//!    a predicate-free pipelined scan of them would request them
//!    ([`page_pass`]), optionally through a shared page cache. The driver
//!    decodes nothing: it exists to charge the segment's only I/O — one
//!    file pass per wraparound cycle no matter how many queries ride it —
//!    and to fail the batch on a page that is bad on every replica.
//! 2. **Per-query work** off the shared stream — riders decode: each
//!    query's plan runs over the segment through [`QueryPlan::run_on`], the
//!    riders mapped over one `sched::pool`, each with its own scanner.
//!    Segments are page-aligned on one file (the row file's, else the first
//!    column's), so a page of a column that packs more values spans several:
//!    a rider's node 0 decodes only the slots of its segment, not the page
//!    once per segment (the tallies still charge it whole, as a solo scan
//!    does). Their simulated I/O is discarded (the driver already paid
//!    it), so they read through no page cache; their CPU is charged in full
//!    per query. That is deliberately conservative: the paper's shared-scan
//!    model amortizes predicate evaluation too, but here every query keeps
//!    its exact solo kernel costs so results and per-query CPU attribution
//!    stay bit-identical to solo runs.
//!
//! Each rider's runs are stored by *segment index* and folded in segment
//! order `0..S` at completion by `QueryPlan::finish`, so a wrapped query's
//! rows come out in exactly the order its solo scan would have produced, and
//! its aggregation partials merge and emit as the morsel executor's do. All
//! merges are indexed, never arrival- or worker-ordered, so a cursor run is
//! deterministic across worker counts.

use std::sync::Arc;

use rodb_io::{IoStats, SharedPageCache};
use rodb_storage::Table;
use rodb_types::{Error, HardwareConfig, Result, SystemConfig, Value};

use crate::exec::overlapped;
use crate::op::ExecContext;
use crate::plan::{PlanRun, QueryPlan, ScanLayout};
use crate::scan_col::page_pass;
use crate::sched::pool;

/// One query as the cursor sees it: its plan, evaluated segment by segment
/// off the shared stream.
#[derive(Debug, Clone)]
pub struct CursorQuery {
    /// Caller's correlation id, echoed in [`QueryDone`].
    pub token: usize,
    /// Must scan the cursor's `(table, layout)` and be
    /// [`QueryPlan::partitionable`].
    pub plan: QueryPlan,
    /// Materialize result rows (vs measurement-only).
    pub collect: bool,
}

/// A completed query, its results reassembled in table order.
#[derive(Debug, Clone)]
pub struct QueryDone {
    pub token: usize,
    pub rows: Vec<Vec<Value>>,
    pub nrows: u64,
    /// Segment index the query attached at.
    pub attach_seg: usize,
    /// Whether completion required riding past the wraparound point.
    pub wrapped: bool,
    /// CPU seconds this query was charged across all its segments
    /// (including its share-free serial aggregation tail).
    pub cpu_s: f64,
}

/// What one segment visit cost and completed.
#[derive(Debug, Clone)]
pub struct SegmentStep {
    /// Modelled elapsed seconds of the visit (driver I/O overlapped with
    /// the riders' CPU, plus serial emission tails).
    pub elapsed_s: f64,
    /// The driver pass's I/O — the only I/O charged for the segment.
    pub driver_io: IoStats,
    /// Queries that completed their full cycle on this visit, in attach
    /// order.
    pub done: Vec<QueryDone>,
    /// Whether advancing past this segment wrapped the cursor head.
    pub wrapped: bool,
}

struct ActiveQuery {
    q: CursorQuery,
    attach_seg: usize,
    visited: usize,
    /// This query's run of each segment visited so far, by segment index.
    pieces: Vec<Option<PlanRun>>,
    /// CPU charged so far, summed in visiting order.
    cpu_s: f64,
}

/// A circular shared scan over one `(table, layout)` pair.
pub struct SharedCursor {
    table: Arc<Table>,
    layout: ScanLayout,
    hw: HardwareConfig,
    sys: SystemConfig,
    row_scale: f64,
    cache: Option<SharedPageCache>,
    segments: Vec<(u64, u64)>,
    pos: usize,
    active: Vec<ActiveQuery>,
    /// The files the driver pass moves: `None` for the row file, else the
    /// sorted union of the active queries' projection and predicate columns,
    /// kept current by [`SharedCursor::refresh_union_cols`] whenever
    /// `active` changes.
    union_cols: Option<Vec<usize>>,
    io: IoStats,
    cycles: u64,
}

impl SharedCursor {
    /// Build a cursor over `table` for riders scanning it through `layout`,
    /// cut into about `segments` segments (the page-aligned morsel split the
    /// table produces for that count, at most one segment per page run).
    /// The riders of a segment run on a pool `sys.threads` wide.
    pub fn new(
        table: Arc<Table>,
        layout: ScanLayout,
        segments: usize,
        hw: HardwareConfig,
        sys: SystemConfig,
        row_scale: f64,
        cache: Option<SharedPageCache>,
    ) -> Result<SharedCursor> {
        let segments: Vec<(u64, u64)> = table
            .morsels(segments.max(1))
            .iter()
            .map(|m| (m.start, m.end))
            .collect();
        if segments.is_empty() {
            return Err(Error::InvalidPlan("shared cursor over empty table".into()));
        }
        Ok(SharedCursor {
            table,
            layout,
            hw,
            sys,
            row_scale,
            cache,
            segments,
            pos: 0,
            active: Vec::new(),
            union_cols: (layout != ScanLayout::Row).then(Vec::new),
            io: IoStats::default(),
            cycles: 0,
        })
    }

    /// Attach a query at the cursor's current position; returns the attach
    /// segment index. The query completes after visiting all segments —
    /// one full circle. Fails closed on a plan the cursor cannot answer
    /// exactly: one that is not [`QueryPlan::partitionable`] (a WOS tail
    /// would be silently lost), or one over another table or layout.
    pub fn attach(&mut self, q: CursorQuery) -> Result<usize> {
        q.plan.partitionable()?;
        if !Arc::ptr_eq(&q.plan.scan.table, &self.table) || q.plan.scan.layout != self.layout {
            return Err(Error::InvalidPlan(format!(
                "query over {} [{}] attached to the shared cursor of {} [{}]",
                q.plan.scan.table.name, q.plan.scan.layout, self.table.name, self.layout
            )));
        }
        let attach_seg = self.pos;
        self.active.push(ActiveQuery {
            q,
            attach_seg,
            visited: 0,
            pieces: (0..self.segments.len()).map(|_| None).collect(),
            cpu_s: 0.0,
        });
        self.refresh_union_cols();
        Ok(attach_seg)
    }

    fn refresh_union_cols(&mut self) {
        let Some(union) = &mut self.union_cols else {
            return;
        };
        *union = self
            .active
            .iter()
            .flat_map(|a| {
                let scan = &a.q.plan.scan;
                scan.projection
                    .iter()
                    .copied()
                    .chain(scan.predicates.iter().map(|p| p.col))
            })
            .collect();
        union.sort_unstable();
        union.dedup();
    }

    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The attached queries' tokens, in attach order.
    pub fn tokens(&self) -> impl Iterator<Item = usize> + '_ {
        self.active.iter().map(|a| a.q.token)
    }

    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Current head position (the segment the next [`SharedCursor::step`]
    /// scans, and where the next attach lands).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Completed head revolutions.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulated driver-pass I/O (the cursor's total charged I/O,
    /// including page-cache counters when a shared cache is installed).
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Scan the current segment for every attached query, advance the
    /// head, and return the visit's cost plus any completions.
    pub fn step(&mut self) -> Result<SegmentStep> {
        if self.active.is_empty() {
            return Err(Error::InvalidPlan(
                "shared cursor step with no attached queries".into(),
            ));
        }
        let seg_idx = self.pos;
        let range = self.segments[seg_idx];
        let (hw, sys, row_scale) = (self.hw, self.sys, self.row_scale);

        // 1. Driver pass: the segment's pages, moved and verified, I/O
        // charged once. It does no scan work (each query pays its own full
        // kernel costs below), so its meter holds only the kernel-side I/O
        // work of the bytes it actually moved.
        let ctx = ExecContext::new(hw, sys, row_scale)?;
        if let Some(cache) = &self.cache {
            ctx.disk.borrow_mut().set_page_cache(cache.clone());
        }
        page_pass(&self.table, self.union_cols.as_deref(), &ctx, range)?;
        ctx.settle_io_kernel_work();
        let driver_kernel_s = ctx.meter.borrow().breakdown(&hw).scaled(row_scale).total();
        let driver_io = *ctx.disk.borrow().stats();
        self.io.merge(&driver_io);

        // 2. The riders' runs of the segment, on the shared pool. Their
        // simulated I/O is discarded — the driver pass above already paid
        // it — so they read through no page cache: one pass pulls each page
        // once, and a cache of their own could never hit.
        let riders: Vec<&CursorQuery> = self.active.iter().map(|a| &a.q).collect();
        let rider_sys = SystemConfig { cache: None, ..sys };
        let pieces = pool(sys.threads, &riders, |q| {
            q.plan.run_on(
                &ExecContext::new(hw, rider_sys, row_scale)?,
                Some(range),
                q.collect,
            )
        })?;
        // The modeled clock charges per-query CPU serially — the paper's
        // testbed is single-core, and a worker-invariant clock keeps the
        // whole service schedule (attach points, wraparounds, admission)
        // bit-identical across pool sizes. The pool parallelizes the real
        // wall time of the riders' runs, never the simulated clock.
        let mut cpu_s = driver_kernel_s;
        for (a, piece) in self.active.iter_mut().zip(pieces) {
            let q_cpu = piece.report.cpu.total();
            cpu_s += q_cpu;
            a.cpu_s += q_cpu;
            a.pieces[seg_idx] = Some(piece);
            a.visited += 1;
        }

        // 3. Completions: full circle ridden. Fold in segment order 0..S —
        // table order, independent of attach point.
        let nsegs = self.segments.len();
        let mut done = Vec::new();
        let (finished, riding): (Vec<_>, Vec<_>) = std::mem::take(&mut self.active)
            .into_iter()
            .partition(|a| a.visited == nsegs);
        self.active = riding;
        if !finished.is_empty() {
            self.refresh_union_cols();
        }
        for a in finished {
            let pieces = a.pieces.into_iter().flatten().collect();
            let ((rows, nrows, _), tail) =
                a.q.plan.finish(pieces, &hw, &sys, row_scale, a.q.collect)?;
            // The aggregation tail is serial on one core.
            cpu_s += tail.total();
            done.push(QueryDone {
                token: a.q.token,
                rows,
                nrows,
                attach_seg: a.attach_seg,
                wrapped: a.attach_seg != 0,
                cpu_s: a.cpu_s + tail.total(),
            });
        }

        // 4. Advance the head.
        self.pos = (self.pos + 1) % nsegs;
        let wrapped = self.pos == 0;
        if wrapped {
            self.cycles += 1;
        }

        Ok(SegmentStep {
            elapsed_s: overlapped(driver_io.total_s(), cpu_s),
            driver_io,
            done,
            wrapped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggSpec, AggStrategy};
    use crate::op::collect_rows;
    use crate::plan::{AggPlan, ScanSpec};
    use crate::predicate::Predicate;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{CacheSpec, Column, Schema};

    fn table(n: usize) -> Arc<Table> {
        let s = Arc::new(Schema::new(vec![Column::int("a"), Column::int("b")]).unwrap());
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..n {
            b.push_row(&[
                rodb_types::Value::Int(i as i32),
                rodb_types::Value::Int((i % 9) as i32),
            ])
            .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn cursor(t: &Arc<Table>, layout: ScanLayout, threads: usize) -> SharedCursor {
        cursor_on(t, layout, SystemConfig::default().with_threads(threads))
    }

    fn cursor_on(t: &Arc<Table>, layout: ScanLayout, sys: SystemConfig) -> SharedCursor {
        SharedCursor::new(
            t.clone(),
            layout,
            4,
            HardwareConfig::default(),
            sys,
            1.0,
            None,
        )
        .unwrap()
    }

    fn q(c: &SharedCursor, token: usize, pred: Option<Predicate>) -> CursorQuery {
        let scan = ScanSpec::new(c.table.clone(), c.layout, vec![0, 1])
            .with_predicates(pred.into_iter().collect());
        CursorQuery {
            token,
            plan: QueryPlan::new(scan),
            collect: true,
        }
    }

    fn solo_rows(cq: &CursorQuery) -> Vec<Vec<Value>> {
        let ctx = ExecContext::default_ctx();
        let mut op = cq.plan.build(&ctx).unwrap();
        collect_rows(&mut op).unwrap()
    }

    #[test]
    fn late_attach_wraps_and_matches_solo_order() {
        let t = table(12_000);
        let mut c = cursor(&t, ScanLayout::Column, 2);
        assert!(c.segment_count() >= 4);
        let q0 = q(&c, 0, Some(Predicate::lt(1, 4)));
        let q1 = q(&c, 1, Some(Predicate::eq(0, 7_777)));
        c.attach(q0.clone()).unwrap();
        let first = c.step().unwrap();
        assert!(first.done.is_empty());
        assert!(first.elapsed_s > 0.0);
        // q1 arrives mid-scan: it must wrap to finish.
        let attach = c.attach(q1.clone()).unwrap();
        assert_eq!(attach, 1);
        let mut done = Vec::new();
        for _ in 0..c.segment_count() {
            done.extend(c.step().unwrap().done);
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].token, 0);
        assert!(!done[0].wrapped);
        assert_eq!(done[1].token, 1);
        assert!(done[1].wrapped);
        assert_eq!(done[1].attach_seg, 1);
        assert_eq!(done[0].rows, solo_rows(&q0));
        assert_eq!(done[1].rows, solo_rows(&q1));
        assert_eq!(c.active_count(), 0);
        assert_eq!(c.cycles(), 1);
    }

    #[test]
    fn io_is_one_file_pass_and_cpu_is_charged_per_rider() {
        let t = table(10_000);
        let file_bytes = t.row_storage().unwrap().byte_len() as f64;
        let preds = [
            Some(Predicate::lt(1, 4)),
            Some(Predicate::eq(0, 7_777)),
            None,
        ];
        let pages = t.row_storage().unwrap().pages;
        let cached = SystemConfig::default().with_cache(CacheSpec::lru_k(pages / 2));
        let mut solo_cpu = None;
        for (k, sys) in [1usize, 3]
            .into_iter()
            .flat_map(|k| [(k, SystemConfig::default()), (k, cached)])
        {
            let mut c = cursor_on(&t, ScanLayout::Row, sys);
            for (i, pred) in preds.iter().take(k).enumerate() {
                c.attach(q(&c, i, pred.clone())).unwrap();
            }
            let mut done = Vec::new();
            for _ in 0..c.segment_count() {
                done.extend(c.step().unwrap().done);
            }
            // I/O: the driver's single pass over the file, however many
            // queries ride it.
            assert_eq!(c.io_stats().bytes_read, file_bytes, "k={k}");
            assert_eq!(c.io_stats().cache.misses > 0, sys.cache.is_some(), "k={k}");
            // CPU: a rider is charged the same whoever else rides along (the
            // cursor amortizes the disk, never the tuple loop), and whether
            // or not the driver reads through a page cache.
            assert_eq!(done.len(), k);
            let rider0 = done.iter().find(|d| d.token == 0).unwrap().cpu_s;
            let what = format!("k={k} cache={:?}", sys.cache);
            assert_eq!(*solo_cpu.get_or_insert(rider0), rider0, "{what}");
        }
    }

    #[test]
    fn a_plan_with_a_wos_tail_is_rejected_at_attach() {
        let t = table(1_000);
        let mut c = cursor(&t, ScanLayout::Row, 1);
        let mut rider = q(&c, 0, None);
        rider.plan.tail = Some(Arc::new(vec![vec![Value::Int(1), Value::Int(2)]]));
        let err = c.attach(rider).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidPlan(m) if m.contains("WOS tail")),
            "{err}"
        );
        assert_eq!(c.active_count(), 0);
        // So is a plan over another layout than the cursor's.
        let mut other = q(&c, 1, None);
        other.plan.scan.layout = ScanLayout::Column;
        assert!(c.attach(other).is_err());
    }

    #[test]
    fn aggregate_through_wraparound_matches_the_morsel_scheduler() {
        let t = table(9_000);
        let plan = AggPlan {
            group_by: Some(1),
            specs: vec![AggSpec::count(), AggSpec::sum(0)],
            strategy: AggStrategy::Hash,
        };
        let mut c = cursor(&t, ScanLayout::Column, 2);
        // Burn one step with a placeholder so the agg query attaches late.
        c.attach(q(&c, 9, None)).unwrap();
        c.step().unwrap();
        let mut agg_q = q(&c, 1, Some(Predicate::lt(0, 8_000)));
        agg_q.plan.agg = Some(plan);
        c.attach(agg_q.clone()).unwrap();
        let mut agg_done = None;
        for _ in 0..c.segment_count() {
            for d in c.step().unwrap().done {
                if d.token == 1 {
                    agg_done = Some(d);
                }
            }
        }
        let d = agg_done.unwrap();
        assert!(d.wrapped);
        let sys = SystemConfig::default().with_threads(2);
        let context = || ExecContext::new(HardwareConfig::default(), sys, 1.0);
        let (want, ..) = crate::sched::run_morsels(&agg_q.plan, true, context).unwrap();
        assert_eq!(d.rows, want.rows);
    }

    #[test]
    fn steps_are_deterministic_across_worker_counts() {
        let t = table(8_000);
        let run = |threads: usize| {
            let mut c = cursor(&t, ScanLayout::Column, threads);
            c.attach(q(&c, 0, Some(Predicate::lt(1, 5)))).unwrap();
            c.attach(q(&c, 1, None)).unwrap();
            let mut elapsed = Vec::new();
            let mut rows = Vec::new();
            for _ in 0..c.segment_count() {
                let s = c.step().unwrap();
                elapsed.push(s.elapsed_s);
                for d in s.done {
                    rows.push((d.token, d.rows, d.cpu_s));
                }
            }
            (elapsed, rows, c.io_stats())
        };
        let (e1, r1, io1) = run(1);
        let (e4, r4, io4) = run(4);
        // Rows, I/O, every step's elapsed time and every rider's CPU are
        // bit-identical: rider CPU is summed serially on the modeled clock.
        assert_eq!(r1.len(), 2);
        assert_eq!(r1, r4);
        assert_eq!(io1, io4);
        assert_eq!(e1, e4);
    }

    #[test]
    fn research_layout_riders_return_their_solo_rows() {
        let t = table(12_000);
        for layout in [ScanLayout::ColumnSlow, ScanLayout::ColumnSingleIterator] {
            let mut c = cursor(&t, layout, 2);
            let q0 = q(&c, 0, Some(Predicate::lt(1, 4)));
            let q1 = q(&c, 1, Some(Predicate::ge(0, 5_000)));
            c.attach(q0.clone()).unwrap();
            c.step().unwrap();
            // q1 attaches late and completes after the wraparound.
            assert_eq!(c.attach(q1.clone()).unwrap(), 1);
            let mut done = Vec::new();
            for _ in 0..c.segment_count() {
                done.extend(c.step().unwrap().done);
            }
            assert_eq!(done.len(), 2, "{layout}");
            assert!(done[1].wrapped, "{layout}");
            assert_eq!(done[0].rows, solo_rows(&q0), "{layout}");
            assert_eq!(done[1].rows, solo_rows(&q1), "{layout}");
        }
    }

    #[test]
    fn rejects_empty_steps() {
        let mut c = cursor(&table(100), ScanLayout::Row, 1);
        assert!(c.step().is_err());
    }
}
