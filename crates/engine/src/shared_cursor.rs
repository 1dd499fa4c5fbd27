//! Shared circular scan cursors: many concurrent queries over one table
//! ride a single physical scan (§2.1.1's scan sharing: "employ a single
//! scanner and deliver data to multiple queries off a single reading
//! stream") — over the Row and Column layouts in any stored format, with
//! per-query aggregation, the fast path and the page cache.
//!
//! The cursor walks the table's page-aligned segments in a circle. Queries
//! *attach* at whatever segment the cursor is currently on — a late
//! arrival joins mid-scan, rides to the end of the table, and completes
//! its missed prefix after the cursor wraps around. Each segment visit
//! runs:
//!
//! 1. **One driver pass** — the pages of the union of all attached
//!    queries' columns (projection ∪ predicate inputs) are moved and
//!    checksummed once each, in the order a predicate-free scan of that
//!    union would request them ([`row_page_pass`] / [`column_page_pass`]),
//!    optionally through a shared page cache. The driver decodes nothing:
//!    it exists to charge the segment's only I/O — one file pass per
//!    wraparound cycle no matter how many queries ride it — and to fail
//!    the batch on a page that is bad on every replica.
//! 2. **Per-query work** off the shared stream — riders decode: each
//!    query's predicates, projection and partial aggregation over the
//!    segment, executed as single-task jobs on one [`TaskScheduler`] pool.
//!    Their simulated I/O is discarded (the driver already paid it); their
//!    CPU is charged in full per query. That is deliberately conservative:
//!    the paper's shared-scan model amortizes predicate evaluation too, but
//!    here every query keeps its exact solo kernel costs so results and
//!    per-query CPU attribution stay bit-identical to solo runs.
//!
//! Per-segment results are stored by *segment index* and reassembled in
//! segment order `0..S` at completion, so a wrapped query's rows come out
//! in exactly the order its solo scan would have produced. Aggregation
//! partials merge in the same order and emit through
//! [`QueryPlan::emit`], matching the parallel-equals-serial
//! guarantee of the morsel executor. All merges are indexed, never
//! arrival- or worker-ordered, so a cursor run is deterministic across
//! worker counts.

use std::sync::Arc;

use rodb_io::{IoStats, SharedPageCache};
use rodb_storage::Table;
use rodb_types::{Error, HardwareConfig, Result, SystemConfig, Value};

use crate::agg::{merge_partials, AggPartial};
use crate::exec::DEFAULT_OVERLAP_LOSS;
use crate::op::ExecContext;
use crate::plan::{QueryPlan, ScanLayout};
use crate::scan_col::column_page_pass;
use crate::scan_row::row_page_pass;
use crate::sched::{QueryJob, TaskScheduler};

/// Cursor-level knobs (the service derives these from
/// [`rodb_types::ServiceSpec`]).
#[derive(Debug, Clone, Copy)]
pub struct SharedCursorConfig {
    /// Desired segment count; the actual count is the page-aligned morsel
    /// split the table produces for it (at most one segment per page run).
    pub segments: usize,
    /// Worker pool width for the per-query segment jobs.
    pub workers: usize,
}

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
    pub blocks: u64,
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
    /// Segment index that was scanned.
    pub segment: usize,
    /// Modelled elapsed seconds of the visit (driver I/O overlapped with
    /// the per-query CPU critical path, plus serial emission tails).
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
    rows_by_seg: Vec<Option<Vec<Vec<Value>>>>,
    partial_by_seg: Vec<Option<AggPartial>>,
    nrows: u64,
    blocks: u64,
    cpu_s: f64,
}

/// A circular shared scan over one `(table, layout)` pair.
pub struct SharedCursor {
    table: Arc<Table>,
    layout: ScanLayout,
    hw: HardwareConfig,
    sys: SystemConfig,
    row_scale: f64,
    workers: usize,
    cache: Option<SharedPageCache>,
    segments: Vec<(u64, u64)>,
    pos: usize,
    active: Vec<ActiveQuery>,
    /// Sorted union of the active queries' projection and predicate
    /// columns — what the driver pass moves. Kept current by
    /// [`SharedCursor::refresh_union_cols`] whenever `active` changes.
    union_cols: Vec<usize>,
    io: IoStats,
    cycles: u64,
}

impl SharedCursor {
    /// Build a cursor. Only the [`ScanLayout::Row`] and
    /// [`ScanLayout::Column`] layouts support range-restricted segment
    /// scans; the single-iterator teaching variants are rejected up front
    /// with the same message the service surfaces.
    pub fn new(
        table: Arc<Table>,
        layout: ScanLayout,
        cfg: SharedCursorConfig,
        hw: HardwareConfig,
        sys: SystemConfig,
        row_scale: f64,
        cache: Option<SharedPageCache>,
    ) -> Result<SharedCursor> {
        if !layout.supports_ranges() {
            return Err(Error::InvalidPlan(format!(
                "shared cursor supports the Row and Column layouts, not {layout:?}"
            )));
        }
        if cfg.workers == 0 {
            return Err(Error::InvalidPlan("shared cursor with 0 workers".into()));
        }
        let segments: Vec<(u64, u64)> = table
            .morsels(cfg.segments.max(1))
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
            workers: cfg.workers,
            cache,
            segments,
            pos: 0,
            active: Vec::new(),
            union_cols: Vec::new(),
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
        let s = self.segments.len();
        let attach_seg = self.pos;
        self.active.push(ActiveQuery {
            q,
            attach_seg,
            visited: 0,
            rows_by_seg: (0..s).map(|_| None).collect(),
            partial_by_seg: (0..s).map(|_| None).collect(),
            nrows: 0,
            blocks: 0,
            cpu_s: 0.0,
        });
        self.refresh_union_cols();
        Ok(attach_seg)
    }

    fn refresh_union_cols(&mut self) {
        self.union_cols = self
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
        self.union_cols.sort_unstable();
        self.union_cols.dedup();
    }

    pub fn active_count(&self) -> usize {
        self.active.len()
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
        let (start, end) = self.segments[seg_idx];

        // 1. Driver pass: the union columns' pages, moved and verified, I/O
        // charged once. It does no scan work (each query pays its own full
        // kernel costs below), so its meter holds only the kernel-side I/O
        // work of the bytes it actually moved.
        let ctx = ExecContext::new(self.hw, self.sys, self.row_scale)?;
        if let Some(cache) = &self.cache {
            ctx.disk.borrow_mut().set_page_cache(cache.clone());
        }
        match self.layout {
            // `new` admits only the Row and Column layouts.
            ScanLayout::Row => row_page_pass(&self.table, &ctx, (start, end))?,
            _ => column_page_pass(&self.table, &self.union_cols, &ctx, (start, end))?,
        }
        ctx.settle_io_kernel_work();
        let driver_kernel_s = ctx
            .meter
            .borrow()
            .breakdown(&self.hw)
            .scaled(self.row_scale)
            .total();
        let driver_io = *ctx.disk.borrow().stats();
        self.io.merge(&driver_io);

        // 2. Per-query segment jobs on the shared pool. Simulated I/O of
        // these jobs is discarded — the driver pass above already paid it.
        let jobs: Vec<QueryJob> = self
            .active
            .iter()
            .map(|a| {
                let mut j = QueryJob::new(a.q.plan.with_row_range(start, end), self.hw, self.sys);
                j.row_scale = self.row_scale;
                j.collect = a.q.collect && a.q.plan.agg.is_none();
                j.emit = false;
                j
            })
            .collect();
        let outs = TaskScheduler::new(self.workers).run_jobs(&jobs)?;

        let mut cpu_sum = driver_kernel_s;
        for (a, out) in self.active.iter_mut().zip(outs) {
            let q_cpu = out.report.cpu.total();
            cpu_sum += q_cpu;
            a.cpu_s += q_cpu;
            if a.q.plan.agg.is_some() {
                a.partial_by_seg[seg_idx] = out.partial;
            } else {
                a.nrows += out.report.rows;
                a.blocks += out.report.blocks;
                if a.q.collect {
                    a.rows_by_seg[seg_idx] = Some(out.rows);
                }
            }
            a.visited += 1;
        }
        // The modeled clock charges per-query CPU serially — the paper's
        // testbed is single-core, and a worker-invariant clock keeps the
        // whole service schedule (attach points, wraparounds, admission)
        // bit-identical across pool sizes. `workers` parallelizes the real
        // wall time of the segment jobs, never the simulated clock.
        let mut cpu_crit = cpu_sum;

        // 3. Completions: full circle ridden. Reassemble in segment order
        // 0..S — table order, independent of attach point.
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
            let rows: Vec<Vec<Value>>;
            let mut nrows = a.nrows;
            let mut blocks = a.blocks;
            let mut cpu_s = a.cpu_s;
            if a.q.plan.agg.is_none() {
                rows = a.rows_by_seg.into_iter().flatten().flatten().collect();
            } else {
                let partials: Vec<AggPartial> = a.partial_by_seg.into_iter().flatten().collect();
                let merged = merge_partials(partials)?;
                // Final merge + emission is a serial tail on one core.
                let ((r, n, b), tail) =
                    a.q.plan
                        .emit(&self.hw, &self.sys, self.row_scale, merged, a.q.collect)?;
                rows = r;
                nrows = n;
                blocks += b;
                cpu_s += tail.total();
                cpu_crit += tail.total();
            }
            done.push(QueryDone {
                token: a.q.token,
                rows,
                nrows,
                blocks,
                attach_seg: a.attach_seg,
                wrapped: a.attach_seg != 0,
                cpu_s,
            });
        }

        // 4. Advance the head.
        self.pos = (self.pos + 1) % nsegs;
        let wrapped = self.pos == 0;
        if wrapped {
            self.cycles += 1;
        }

        let io_s = driver_io.total_s();
        let overlapped = io_s.min(cpu_crit);
        let elapsed_s = io_s.max(cpu_crit) + DEFAULT_OVERLAP_LOSS * overlapped;
        Ok(SegmentStep {
            segment: seg_idx,
            elapsed_s,
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
    use rodb_types::{Column, Schema};

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

    fn cursor(t: &Arc<Table>, layout: ScanLayout, workers: usize) -> SharedCursor {
        SharedCursor::new(
            t.clone(),
            layout,
            SharedCursorConfig {
                segments: 4,
                workers,
            },
            HardwareConfig::default(),
            SystemConfig::default(),
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
        let mut solo_cpu = None;
        for k in [1usize, 3] {
            let mut c = cursor(&t, ScanLayout::Row, 1);
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
            // CPU: a rider is charged the same whoever else rides along (the
            // cursor amortizes the disk, never the tuple loop).
            assert_eq!(done.len(), k);
            let rider0 = done.iter().find(|d| d.token == 0).unwrap().cpu_s;
            assert_eq!(*solo_cpu.get_or_insert(rider0), rider0, "k={k}");
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
        let mut job = QueryJob::new(
            agg_q.plan,
            HardwareConfig::default(),
            SystemConfig::default(),
        );
        job.collect = true;
        let want = TaskScheduler::new(2).run_jobs(&[job]).unwrap().remove(0);
        assert_eq!(d.rows, want.rows);
    }

    #[test]
    fn steps_are_deterministic_across_worker_counts() {
        let t = table(8_000);
        let run = |workers: usize| {
            let mut c = cursor(&t, ScanLayout::Column, workers);
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
        let (e3, r3, io3) = run(3);
        // Rows and I/O are bit-identical; elapsed differs only through the
        // worker count in the critical-path division, so compare at 1
        // worker vs itself and rows across counts.
        assert_eq!(r1.len(), 2);
        assert_eq!(
            r1.iter()
                .map(|(t, r, _)| (*t, r.clone()))
                .collect::<Vec<_>>(),
            r3.iter()
                .map(|(t, r, _)| (*t, r.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(io1, io3);
        assert_eq!(e1.len(), e3.len());
        let (e1b, r1b, io1b) = run(1);
        assert_eq!(e1, e1b);
        assert_eq!(io1, io1b);
        assert_eq!(
            r1.iter().map(|(t, _, c)| (*t, *c)).collect::<Vec<_>>(),
            r1b.iter().map(|(t, _, c)| (*t, *c)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejects_unsupported_layouts_and_empty_steps() {
        let t = table(100);
        let err = SharedCursor::new(
            t.clone(),
            ScanLayout::ColumnSlow,
            SharedCursorConfig {
                segments: 2,
                workers: 1,
            },
            HardwareConfig::default(),
            SystemConfig::default(),
            1.0,
            None,
        )
        .err()
        .unwrap();
        assert!(format!("{err}").contains("Row and Column"));
        let mut c = cursor(&t, ScanLayout::Row, 1);
        assert!(c.step().is_err());
    }
}
