//! The plan layer: the one place a query becomes an operator tree.
//!
//! The paper uses precompiled plans (no parser or optimizer, §2.2.3); this
//! module is the programmatic equivalent. A [`ScanSpec`] describes one
//! table scan and picks its scanner; a [`QueryPlan`] is the whole query —
//! scan, optional WOS tail spliced behind it, optional aggregation on top —
//! and is the only code that assembles scan → [`Chain`]`(`[`MemScan`]`)` →
//! [`Aggregate`] (with their [`TracedOp`] wraps). It is also the one place a
//! plan is run: every executor — the serial engine, the morsel pool
//! ([`crate::sched`]) and the shared cursor's riders
//! ([`crate::shared_cursor`]) — calls [`QueryPlan::run_on`], and the two
//! that cut a plan into row ranges fold the pieces with
//! `QueryPlan::finish`.

use std::sync::Arc;

use rodb_cpu::CpuBreakdown;
use rodb_storage::Table;
use rodb_trace::{QueryTrace, SpanKind};
use rodb_types::{Error, HardwareConfig, Result, SystemConfig, Value};

use crate::agg::{merge_partials, AggPartial, AggSpec, AggStrategy, Aggregate};
use crate::exec::{settle_report, RunReport};
use crate::memscan::{Chain, MemScan};
use crate::op::{drain_rows, Drained, ExecContext, Operator};
use crate::predicate::{scan_schema, Predicate};
use crate::scan_col::ColumnScanner;
use crate::scan_col_single::SingleIteratorColumnScanner;
use crate::scan_row::RowScanner;
use crate::traced::{finish_query_trace, record_block, TracedOp};

/// Which physical access path a scan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanLayout {
    /// Row-store file scan.
    Row,
    /// Pipelined column scanner (the paper's measured design).
    Column,
    /// Pipelined column scanner with serialized disk requests
    /// (Figure 11's "slow" reference variant).
    ColumnSlow,
    /// Single-iterator column scanner (the §4.2 extension).
    ColumnSingleIterator,
}

impl std::fmt::Display for ScanLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ScanLayout::Row => "row",
            ScanLayout::Column => "column",
            ScanLayout::ColumnSlow => "column-slow",
            ScanLayout::ColumnSingleIterator => "column-single",
        };
        write!(f, "{s}")
    }
}

/// A declarative scan description.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    pub table: Arc<Table>,
    pub layout: ScanLayout,
    pub projection: Vec<usize>,
    pub predicates: Vec<Predicate>,
    /// Restrict the scan to row ordinals `[start, end)` — one morsel of a
    /// parallel scan. `None` scans the whole table.
    pub row_range: Option<(u64, u64)>,
}

impl ScanSpec {
    pub fn new(table: Arc<Table>, layout: ScanLayout, projection: Vec<usize>) -> ScanSpec {
        ScanSpec {
            table,
            layout,
            projection,
            predicates: Vec::new(),
            row_range: None,
        }
    }

    pub fn with_predicates(mut self, predicates: Vec<Predicate>) -> ScanSpec {
        self.predicates = predicates;
        self
    }

    /// Restrict the scan to the row-ordinal window `[start, end)`.
    pub fn with_row_range(mut self, start: u64, end: u64) -> ScanSpec {
        self.row_range = Some((start, end));
        self
    }

    /// Build the scan operator — the one way a scanner is opened.
    pub fn build(self, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
        let (table, proj, preds, range) =
            (self.table, self.projection, self.predicates, self.row_range);
        let scan: Box<dyn Operator> = match self.layout {
            ScanLayout::Row => Box::new(RowScanner::new(table, proj, preds, ctx, range)?),
            ScanLayout::Column | ScanLayout::ColumnSlow => {
                let slow = self.layout == ScanLayout::ColumnSlow;
                Box::new(ColumnScanner::new(table, proj, preds, slow, ctx, range)?)
            }
            ScanLayout::ColumnSingleIterator => Box::new(SingleIteratorColumnScanner::new(
                table, proj, preds, ctx, range,
            )?),
        };
        Ok(TracedOp::wrap(scan, SpanKind::Scan, ctx))
    }
}

/// The aggregation half of a plan (group key and inputs are positions in
/// the scan's projected schema, as in [`Aggregate::new`]).
#[derive(Debug, Clone)]
pub struct AggPlan {
    pub group_by: Option<usize>,
    pub specs: Vec<AggSpec>,
    pub strategy: AggStrategy,
}

/// One whole query: a scan, the staged rows that follow it, and what is
/// computed over their union.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub scan: ScanSpec,
    /// In-memory WOS tail (full base-schema rows) spliced behind the scan;
    /// it passes through the scan's predicates and projection, and its row
    /// positions continue the table's ordinals. An empty tail is no tail.
    pub tail: Option<Arc<Vec<Vec<Value>>>>,
    pub agg: Option<AggPlan>,
}

/// What one [`QueryPlan::run_on`] produced and cost on its context.
#[derive(Debug)]
pub struct PlanRun {
    /// Result rows; empty unless collected, and for a ranged aggregating
    /// run (whose answer is `partial`).
    pub rows: Vec<Vec<Value>>,
    /// The context's settled accounting.
    pub report: RunReport,
    /// The unemitted partial of a ranged aggregating run.
    pub partial: Option<AggPartial>,
    /// The span tree, when the context traces.
    pub trace: Option<QueryTrace>,
}

impl QueryPlan {
    pub fn new(scan: ScanSpec) -> QueryPlan {
        QueryPlan {
            scan,
            tail: None,
            agg: None,
        }
    }

    fn live_tail(&self) -> Option<&Arc<Vec<Vec<Value>>>> {
        self.tail.as_ref().filter(|t| !t.is_empty())
    }

    /// The same plan restricted to ROS row ordinals `[start, end)` — one
    /// morsel, or one shared-cursor segment.
    pub fn with_row_range(&self, start: u64, end: u64) -> QueryPlan {
        QueryPlan {
            scan: self.scan.clone().with_row_range(start, end),
            ..self.clone()
        }
    }

    /// Whether the plan can be cut into ROS row ranges and its pieces run
    /// independently (morsels, shared-cursor segments). Every layout scans
    /// a range; a WOS tail is one in-memory stream behind the whole scan, so
    /// a plan carrying one runs serially.
    pub fn partitionable(&self) -> Result<()> {
        match self.live_tail() {
            Some(tail) => Err(Error::InvalidPlan(format!(
                "plan carries a WOS tail of {} staged rows, which cannot be split into \
                 row-range morsels or shared-cursor segments; run it serially",
                tail.len()
            ))),
            None => Ok(()),
        }
    }

    /// What the aggregation (or the caller) consumes: the scan, then the
    /// WOS tail.
    fn source(&self, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
        let scan = self.scan.clone().build(ctx)?;
        let Some(tail) = self.live_tail() else {
            return Ok(scan);
        };
        let table = &self.scan.table;
        let mem = MemScan::new(
            &table.schema,
            tail.clone(),
            self.scan.projection.clone(),
            self.scan.predicates.clone(),
            table.row_count,
            ctx,
        )?;
        let mem = TracedOp::wrap(Box::new(mem), SpanKind::Scan, ctx);
        Ok(Box::new(Chain::new(scan, mem)?))
    }

    /// The aggregation over [`QueryPlan::source`], unwrapped.
    fn aggregate(&self, ctx: &ExecContext) -> Result<Aggregate> {
        let agg = self
            .agg
            .as_ref()
            .ok_or_else(|| Error::InvalidPlan("plan has no aggregation".into()))?;
        Aggregate::new(
            self.source(ctx)?,
            agg.group_by,
            agg.specs.clone(),
            agg.strategy,
            ctx,
        )
    }

    /// Build the operator tree.
    pub fn build(&self, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
        if self.agg.is_none() {
            return self.source(ctx);
        }
        let agg = Box::new(self.aggregate(ctx)?);
        Ok(TracedOp::wrap(agg, SpanKind::Agg, ctx))
    }

    /// Run the plan on `ctx` and settle its accounting into a report and,
    /// when `ctx` traces, a span tree — the one plan-run call behind every
    /// executor. `range: None` runs the whole plan with the WOS tail and the
    /// aggregation emitted in-tree (the serial engine). `Some(range)` runs
    /// only those ROS row ordinals (a morsel, or a shared-cursor segment);
    /// an aggregating plan then hands its partial back unemitted, for
    /// `QueryPlan::finish`.
    pub fn run_on(
        &self,
        ctx: &ExecContext,
        range: Option<(u64, u64)>,
        collect: bool,
    ) -> Result<PlanRun> {
        let ranged;
        let plan = match range {
            Some((start, end)) => {
                self.partitionable()?;
                ranged = self.with_row_range(start, end);
                &ranged
            }
            None => self,
        };
        let ((rows, nrows, blocks), partial) = if range.is_some() && plan.agg.is_some() {
            let op = plan.aggregate(ctx)?;
            let label = op.label();
            let partial = record_block(ctx, &label, SpanKind::Agg, move || op.into_partial())?;
            ((Vec::new(), 0, 0), Some(partial))
        } else {
            (drain_rows(plan.build(ctx)?.as_mut(), collect)?, None)
        };
        let report = settle_report(ctx, nrows, blocks);
        let trace = finish_query_trace(ctx, &report);
        Ok(PlanRun {
            rows,
            report,
            partial,
            trace,
        })
    }

    /// Fold the ranged runs of this plan, in range order, into its answer:
    /// rows concatenate, or the partial aggregates merge and are emitted
    /// on a fresh single-core context, which reads no input. Returns the
    /// rows and that serial tail's CPU (zero when the plan does not
    /// aggregate).
    pub(crate) fn finish(
        &self,
        pieces: Vec<PlanRun>,
        hw: &HardwareConfig,
        sys: &SystemConfig,
        row_scale: f64,
        collect: bool,
    ) -> Result<(Drained, CpuBreakdown)> {
        let Some(agg) = &self.agg else {
            let (mut rows, mut nrows, mut blocks) = (Vec::new(), 0, 0);
            for mut piece in pieces {
                nrows += piece.report.rows;
                blocks += piece.report.blocks;
                rows.append(&mut piece.rows);
            }
            return Ok(((rows, nrows, blocks), CpuBreakdown::default()));
        };
        let merged = merge_partials(pieces.into_iter().filter_map(|p| p.partial).collect())?;
        let ctx = ExecContext::new(*hw, *sys, row_scale)?;
        let scan = &self.scan;
        let input = scan_schema(&scan.table.schema, &scan.projection, &scan.predicates)?;
        let specs = agg.specs.clone();
        let mut emitter = Aggregate::emitting(&input, agg.group_by, specs, merged, &ctx)?;
        let drained = drain_rows(&mut emitter, collect)?;
        let tail = ctx.meter.borrow().breakdown(hw).scaled(row_scale);
        Ok((drained, tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect_rows;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{Column, Schema, Value};

    fn table() -> Arc<Table> {
        let s = Arc::new(Schema::new(vec![Column::int("a"), Column::int("b")]).unwrap());
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..500 {
            b.push_row(&[Value::Int(i % 10), Value::Int(i)]).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn all_layouts_agree() {
        let t = table();
        let mut results = Vec::new();
        for layout in [
            ScanLayout::Row,
            ScanLayout::Column,
            ScanLayout::ColumnSlow,
            ScanLayout::ColumnSingleIterator,
        ] {
            let ctx = ExecContext::default_ctx();
            let mut op = ScanSpec::new(t.clone(), layout, vec![0, 1])
                .with_predicates(vec![Predicate::lt(0, 3)])
                .build(&ctx)
                .unwrap();
            results.push(collect_rows(&mut op).unwrap());
        }
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
        assert_eq!(results[0].len(), 150);
    }

    #[test]
    fn scan_plus_aggregate() {
        let t = table();
        let ctx = ExecContext::default_ctx();
        let mut plan = QueryPlan::new(ScanSpec::new(t, ScanLayout::Column, vec![0, 1]));
        plan.agg = Some(AggPlan {
            group_by: Some(0),
            specs: vec![AggSpec::count()],
            strategy: AggStrategy::Hash,
        });
        let mut op = plan.build(&ctx).unwrap();
        let rows = collect_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert_eq!(r[1], Value::Long(50));
        }
    }
}
