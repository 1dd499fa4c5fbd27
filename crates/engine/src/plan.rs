//! The plan layer: the one place a query becomes an operator tree.
//!
//! The paper uses precompiled plans (no parser or optimizer, §2.2.3); this
//! module is the programmatic equivalent. A [`ScanSpec`] describes one
//! table scan and picks its scanner; a [`QueryPlan`] is the whole query —
//! scan, optional WOS tail spliced behind it, optional aggregation on top —
//! and is the only code that assembles scan → [`Chain`]`(`[`MemScan`]`)` →
//! [`Aggregate`] (with their [`TracedOp`] wraps). The serial executor, the
//! morsel scheduler ([`crate::sched`]) and the shared cursor
//! ([`crate::shared_cursor`]) all carry a `QueryPlan` and build through it,
//! so every execution path sees the same tree.

use std::sync::Arc;

use rodb_cpu::CpuBreakdown;
use rodb_storage::Table;
use rodb_types::{Error, HardwareConfig, Result, SystemConfig, Value};

use crate::agg::{AggPartial, AggSpec, AggStrategy, Aggregate};
use crate::memscan::{Chain, MemScan};
use crate::op::{drain_rows, Drained, ExecContext, Operator};
use crate::predicate::Predicate;
use crate::scan_col::{ColumnScanMode, ColumnScanner};
use crate::scan_col_single::SingleIteratorColumnScanner;
use crate::scan_row::RowScanner;
use crate::traced::record_block;
use crate::traced::TracedOp;
use rodb_trace::SpanKind;

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

impl ScanLayout {
    /// Whether this access path can scan a row-ordinal sub-range (the
    /// research variants always scan whole tables).
    pub fn supports_ranges(self) -> bool {
        matches!(self, ScanLayout::Row | ScanLayout::Column)
    }
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

    /// Restrict the scan to the row-ordinal window `[start, end)`. Only the
    /// [`ScanLayout::Row`] and [`ScanLayout::Column`] paths support ranges.
    pub fn with_row_range(mut self, start: u64, end: u64) -> ScanSpec {
        self.row_range = Some((start, end));
        self
    }

    /// `Ok` when this spec's layout can scan a row range.
    fn ranged(&self) -> Result<()> {
        if self.layout.supports_ranges() {
            return Ok(());
        }
        Err(Error::InvalidPlan(format!(
            "row ranges are not supported by the {} layout",
            self.layout
        )))
    }

    /// Build the scan operator.
    pub fn build(self, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
        if self.row_range.is_some() {
            self.ranged()?;
        }
        let scan: Box<dyn Operator> = match self.layout {
            ScanLayout::Row => Box::new(RowScanner::new_range(
                self.table,
                self.projection,
                self.predicates,
                ctx,
                self.row_range,
            )?),
            ScanLayout::Column => Box::new(ColumnScanner::new_range(
                self.table,
                self.projection,
                self.predicates,
                ColumnScanMode::Pipelined,
                ctx,
                self.row_range,
            )?),
            ScanLayout::ColumnSlow => Box::new(ColumnScanner::new(
                self.table,
                self.projection,
                self.predicates,
                ColumnScanMode::Slow,
                ctx,
            )?),
            ScanLayout::ColumnSingleIterator => Box::new(SingleIteratorColumnScanner::new(
                self.table,
                self.projection,
                self.predicates,
                ctx,
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
    /// independently (morsels, shared-cursor segments). A WOS tail is one
    /// in-memory stream behind the whole scan, and the single-iterator /
    /// slow research scanners take no ranges: such plans run serially.
    pub fn partitionable(&self) -> Result<()> {
        if let Some(tail) = self.live_tail() {
            return Err(Error::InvalidPlan(format!(
                "plan carries a WOS tail of {} staged rows, which cannot be split into \
                 row-range morsels or shared-cursor segments; run it serially",
                tail.len()
            )));
        }
        self.scan.ranged()
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

    /// The worker half of a partial aggregation: run this (range-restricted)
    /// plan to completion and hand back the grouped accumulators unemitted.
    pub fn run_partial(&self, ctx: &ExecContext) -> Result<AggPartial> {
        let op = self.aggregate(ctx)?;
        let label = op.label();
        record_block(ctx, &label, SpanKind::Agg, move || op.into_partial())
    }

    /// The serial tail of a partitioned aggregation: install the merged
    /// partial over an empty scan and emit the final rows on a fresh
    /// single-core context. Returns the rows and the tail's CPU.
    pub fn emit(
        &self,
        hw: &HardwareConfig,
        sys: &SystemConfig,
        row_scale: f64,
        partial: AggPartial,
        collect: bool,
    ) -> Result<(Drained, CpuBreakdown)> {
        let ctx = ExecContext::new(*hw, *sys, row_scale)?;
        let mut emitter = self.with_row_range(0, 0).aggregate(&ctx)?;
        emitter.install_partial(partial);
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
