//! Query builder: the programmatic face of the paper's precompiled queries.
//!
//! ```
//! use rodb_core::Database;
//! use rodb_engine::{CmpOp, ScanLayout};
//! # use rodb_storage::{BuildLayouts, TableBuilder};
//! # use rodb_types::{Column, Schema, Value};
//! # use std::sync::Arc;
//! # let mut db = Database::new();
//! # let s = Arc::new(Schema::new(vec![Column::int("l_partkey"), Column::int("l_qty")]).unwrap());
//! # let mut b = TableBuilder::new("lineitem", s, 4096, BuildLayouts::both()).unwrap();
//! # for i in 0..100 { b.push_row(&[Value::Int(i), Value::Int(i % 50)]).unwrap(); }
//! # db.register(b.finish().unwrap());
//! let result = db
//!     .query("lineitem")?
//!     .layout(ScanLayout::Column)
//!     .select(&["l_partkey", "l_qty"])?
//!     .filter("l_partkey", CmpOp::Lt, 20_000)?
//!     .run()?;
//! println!("{} rows in {:.2} simulated seconds", result.report.rows, result.report.elapsed_s);
//! # Ok::<(), rodb_types::Error>(())
//! ```

use std::sync::{Arc, LazyLock};
use std::time::Instant;

use rodb_engine::{
    run_morsels, AggPlan, AggSpec, AggStrategy, CmpOp, ExecContext, Predicate, QueryPlan, RowBatch,
    RunReport, ScanLayout, ScanSpec,
};
use rodb_io::CacheStats;
use rodb_storage::{Layout, Table};
use rodb_trace::{Keys, MetricsRegistry, QueryTrace};
use rodb_types::{Error, HardwareConfig, Result, SystemConfig, Value};

use crate::design::{recommend_layout, Machine, Query, DEFAULT_SELECTIVITY};

/// The registry counters a cache-mediated run bumps: `query.cache.<field>`,
/// one per [`CacheStats`] field.
static CACHE_KEYS: LazyLock<Keys<CacheStats>> = LazyLock::new(|| Keys::new("query.cache.", ""));

/// What a finished query hands back: the paper-style performance report and
/// (optionally) the result rows.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub report: RunReport,
    /// Result rows, as the blocks the plan emitted; populated by
    /// [`QueryBuilder::run_collect`], empty for the measurement-only
    /// [`QueryBuilder::run`]. Read them with `rows.iter()`.
    pub rows: RowBatch,
    /// Parallel-execution extras; `None` when the query ran serially.
    pub parallel: Option<ParallelInfo>,
    /// Operator span trace; populated when [`QueryBuilder::trace`] is on.
    pub trace: Option<QueryTrace>,
}

impl QueryResult {
    /// The EXPLAIN ANALYZE-style span tree (requires tracing).
    pub fn explain(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.explain())
    }
}

/// What a parallel run knows beyond the merged [`RunReport`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelInfo {
    /// Measured wall-clock seconds of the parallel region.
    pub wall_s: f64,
    /// Modelled CPU critical-path seconds across the worker pool.
    pub cpu_crit_s: f64,
    /// Worker threads requested.
    pub threads: usize,
    /// Morsels the table split into.
    pub morsels: usize,
}

/// Fluent builder over one table.
#[derive(Clone)]
pub struct QueryBuilder {
    table: Arc<Table>,
    hw: HardwareConfig,
    sys: SystemConfig,
    layout: ScanLayout,
    projection: Vec<usize>,
    predicates: Vec<Predicate>,
    group_by: Option<usize>,
    aggs: Vec<AggSpec>,
    agg_strategy: AggStrategy,
    virtual_rows: Option<u64>,
    competing_scans: usize,
    trace: bool,
    wos_tail: Option<Arc<Vec<Vec<Value>>>>,
}

impl QueryBuilder {
    /// Build a query directly against a table handle (the [`crate::Database`]
    /// facade calls this; it is public so harnesses can skip the catalog).
    pub fn new(table: Arc<Table>, hw: HardwareConfig, sys: SystemConfig) -> QueryBuilder {
        QueryBuilder {
            table,
            hw,
            sys,
            layout: ScanLayout::Column,
            projection: Vec::new(),
            predicates: Vec::new(),
            group_by: None,
            aggs: Vec::new(),
            agg_strategy: AggStrategy::Hash,
            virtual_rows: None,
            competing_scans: 0,
            trace: false,
            wos_tail: None,
        }
    }

    /// Choose the physical access path (default: pipelined column scan).
    pub fn layout(mut self, layout: ScanLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Route to whichever stored layout the chooser ([`crate::design`])
    /// prices cheaper for this scan on this builder's machine — the
    /// "fractured mirrors" idea (reference 19 in the paper's related work):
    /// keep both representations, send each query to the better one. Call
    /// after `select`/`filter`. Priced at [`DEFAULT_SELECTIVITY`]; pass an
    /// explicit [`QueryBuilder::layout`] when the workload's selectivity is
    /// known to be extreme.
    pub fn layout_auto(mut self) -> Result<Self> {
        let q = Query::of_scan(&self.scan_spec(), DEFAULT_SELECTIVITY);
        let machine = Machine::new(&self.hw, &self.sys);
        self.layout = match recommend_layout(&self.table, &q.columns, q.selectivity, &machine)? {
            Layout::Row => ScanLayout::Row,
            Layout::Column => ScanLayout::Column,
        };
        Ok(self)
    }

    /// The layout currently selected (useful after [`QueryBuilder::layout_auto`]).
    pub fn selected_layout(&self) -> ScanLayout {
        self.layout
    }

    /// Project the named columns, in the given order.
    pub fn select(mut self, names: &[&str]) -> Result<Self> {
        for n in names {
            self.projection.push(self.table.schema.index_of(n)?);
        }
        Ok(self)
    }

    /// Project columns by index (the paper's "selecting the first k
    /// attributes" sweeps use this).
    pub fn select_indices(mut self, idx: &[usize]) -> Self {
        self.projection.extend_from_slice(idx);
        self
    }

    /// Project the first `k` schema columns.
    pub fn select_first(mut self, k: usize) -> Self {
        self.projection.extend(0..k);
        self
    }

    /// Add a SARGable predicate by column name.
    pub fn filter(mut self, name: &str, op: CmpOp, literal: impl Into<Value>) -> Result<Self> {
        let col = self.table.schema.index_of(name)?;
        let p = Predicate::new(col, op, literal.into());
        p.validate(&self.table.schema)?;
        self.predicates.push(p);
        Ok(self)
    }

    /// Add a prebuilt predicate (by column index).
    pub fn filter_pred(mut self, p: Predicate) -> Result<Self> {
        p.validate(&self.table.schema)?;
        self.predicates.push(p);
        Ok(self)
    }

    /// Group by a column (name) and compute aggregates.
    pub fn group_by(mut self, name: &str) -> Result<Self> {
        self.group_by = Some(self.table.schema.index_of(name)?);
        Ok(self)
    }

    /// Add an aggregate over a named column of the *projection*.
    pub fn aggregate(mut self, spec: AggSpec) -> Self {
        self.aggs.push(spec);
        self
    }

    /// Use sort-based instead of hash-based aggregation.
    pub fn sorted_aggregation(mut self) -> Self {
        self.agg_strategy = AggStrategy::Sorted;
        self
    }

    /// Report times as if the table had `rows` rows (the paper's 60 M-row
    /// scale) while executing on the loaded (smaller) data.
    pub fn scale_to_rows(mut self, rows: u64) -> Self {
        self.virtual_rows = Some(rows);
        self
    }

    /// Add `n` concurrent competing sequential scans (§4.5, Figure 11).
    pub fn competing_scans(mut self, n: usize) -> Self {
        self.competing_scans = n;
        self
    }

    /// Execute with `n` worker threads (morsel-driven parallel scan, with
    /// partial aggregation when the query aggregates). `1` — the default —
    /// is the paper's serial engine. Every layout runs in parallel; only a
    /// plan with a WOS tail ([`QueryBuilder::wos_tail`]) stays serial.
    pub fn threads(mut self, n: usize) -> Self {
        self.sys.threads = n;
        self
    }

    /// Splice an in-memory WOS tail behind the read-optimized scan, so the
    /// query sees the union of the table and the staged rows — the snapshot
    /// read of the durable ingest path ([`crate::IngestSnapshot`]). Tail
    /// rows pass through the same predicates and projection; their row
    /// positions continue the table's ordinals. A plan with a non-empty
    /// tail is not [`QueryPlan::partitionable`], so it executes serially
    /// whatever [`QueryBuilder::threads`] says; an empty tail leaves the
    /// plan untouched.
    pub fn wos_tail(mut self, tail: Arc<Vec<Vec<Value>>>) -> Self {
        self.wos_tail = Some(tail);
        self
    }

    /// Record an operator span tree, with per-phase CPU and disk events, for
    /// this query. Off by default: untraced operators are not wrapped. The
    /// trace lands in [`QueryResult::trace`]; see [`QueryResult::explain`].
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// The factory of this query's execution contexts: row scale,
    /// competing scans and tracing. One factory serves every worker of a
    /// morsel pool.
    fn context(&self) -> impl Fn() -> Result<ExecContext> + Sync {
        let (hw, sys, scale) = (self.hw, self.sys, self.row_scale());
        let (trace, competing_scans) = (self.trace, self.competing_scans);
        move || {
            let mut ctx = ExecContext::new(hw, sys, scale)?;
            if trace {
                ctx = ctx.with_tracing();
            }
            for _ in 0..competing_scans {
                ctx.add_competing_scan();
            }
            Ok(ctx)
        }
    }

    fn scan_spec(&self) -> ScanSpec {
        ScanSpec::new(self.table.clone(), self.layout, self.projection.clone())
            .with_predicates(self.predicates.clone())
    }

    /// Validate this query and translate it into the engine's
    /// [`QueryPlan`] — what the serial executor, the morsel scheduler and
    /// the concurrent query service all run.
    pub fn plan(&self) -> Result<QueryPlan> {
        if self.projection.is_empty() {
            return Err(Error::InvalidPlan("no columns selected".into()));
        }
        let agg = if self.aggs.is_empty() {
            if self.group_by.is_some() {
                return Err(Error::InvalidPlan("group_by without aggregates".into()));
            }
            None
        } else {
            // Group key / agg inputs are positions in the projected schema.
            let group_by = match self.group_by {
                Some(base_col) => Some(
                    self.projection
                        .iter()
                        .position(|&c| c == base_col)
                        .ok_or_else(|| {
                            Error::InvalidPlan("group_by column must be selected".into())
                        })?,
                ),
                None => None,
            };
            Some(AggPlan {
                group_by,
                specs: self.aggs.clone(),
                strategy: self.agg_strategy,
            })
        };
        Ok(QueryPlan {
            scan: self.scan_spec(),
            tail: self.wos_tail.clone(),
            agg,
        })
    }

    pub(crate) fn row_scale(&self) -> f64 {
        match self.virtual_rows {
            Some(v) if self.table.row_count > 0 => {
                (v as f64 / self.table.row_count as f64).max(1.0)
            }
            _ => 1.0,
        }
    }

    /// Bump the process-wide metrics registry once per execution.
    fn register_run(&self, report: &RunReport, parallel: bool) {
        MetricsRegistry::counter_add("query.runs", 1.0);
        if parallel {
            MetricsRegistry::counter_add("query.parallel_runs", 1.0);
        }
        if self.trace {
            MetricsRegistry::counter_add("query.traced_runs", 1.0);
        }
        MetricsRegistry::counter_add(
            &format!("query.kernel_tier.{}", rodb_compress::active_tier().name()),
            1.0,
        );
        MetricsRegistry::counter_add("query.rows_out", report.rows as f64);
        MetricsRegistry::observe("query.elapsed_s", report.elapsed_s);
        MetricsRegistry::observe("query.cpu_s", report.cpu.total());
        MetricsRegistry::observe("query.io_s", report.io_s());
        if report.io.cache.requests() > 0 {
            CACHE_KEYS.write(&report.io.cache, MetricsRegistry::counter_add);
        }
    }

    /// Run the plan: serially, or morsel-parallel on `threads` workers when
    /// there are several and the plan can be cut into row ranges.
    fn execute(&self, collect: bool) -> Result<QueryResult> {
        let plan = self.plan()?;
        let (run, parallel) = if self.sys.threads > 1 && plan.partitionable().is_ok() {
            let start = Instant::now();
            let (run, cpu_crit_s, morsels) = run_morsels(&plan, collect, self.context())?;
            let info = ParallelInfo {
                wall_s: start.elapsed().as_secs_f64(),
                cpu_crit_s,
                threads: self.sys.threads,
                morsels,
            };
            (run, Some(info))
        } else {
            (plan.run_on(&self.context()()?, None, collect)?, None)
        };
        self.register_run(&run.report, parallel.is_some());
        Ok(QueryResult {
            report: run.report,
            rows: run.rows,
            parallel,
            trace: run.trace,
        })
    }

    /// Execute for measurement only (results are produced and discarded,
    /// exactly like the paper's queries).
    pub fn run(&self) -> Result<QueryResult> {
        self.execute(false)
    }

    /// Execute and materialize the result rows (small results only).
    pub fn run_collect(&self) -> Result<QueryResult> {
        self.execute(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{Column, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let s = Arc::new(
            Schema::new(vec![
                Column::int("k"),
                Column::int("v"),
                Column::text("t", 4),
            ])
            .unwrap(),
        );
        let mut b = TableBuilder::new("tab", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..1000 {
            b.push_row(&[
                Value::Int(i % 10),
                Value::Int(i),
                Value::text(["aa", "bb"][i as usize % 2]),
            ])
            .unwrap();
        }
        db.register(b.finish().unwrap());
        db
    }

    /// `run_collect` keeps the plan's blocks: views read them in place, and
    /// only the `Vec<Vec<Value>>` bridge decodes, once, on first use.
    #[test]
    fn collected_rows_stay_blocks_until_dereferenced() {
        let db = db();
        let res = db
            .query("tab")
            .unwrap()
            .layout(ScanLayout::Column)
            .select(&["k", "v", "t"])
            .unwrap()
            .run_collect()
            .unwrap();
        assert_eq!(res.rows.len(), 1000);
        let sum: i64 = res.rows.iter().map(|r| r.int(1) as i64).sum();
        assert_eq!(sum, 999 * 1000 / 2);
        assert!(!res.rows.is_decoded());
        let bridged: &[Vec<Value>] = &res.rows;
        assert!(res.rows.is_decoded());
        assert_eq!(bridged, &res.rows.to_rows()[..]);
        assert_eq!(
            bridged[999],
            vec![Value::Int(9), Value::Int(999), Value::text("bb\0\0")]
        );
    }

    /// Two morsel workers hand back the serial rows, in serial order.
    #[test]
    fn two_threads_collect_the_serial_rows_in_order() {
        let db = db();
        for layout in [ScanLayout::Row, ScanLayout::Column] {
            let q = db
                .query("tab")
                .unwrap()
                .layout(layout)
                .select(&["v", "t"])
                .unwrap()
                .filter("k", CmpOp::Lt, 5)
                .unwrap();
            let serial = q.clone().run_collect().unwrap();
            let par = q.threads(2).run_collect().unwrap();
            assert!(
                par.parallel.as_ref().is_some_and(|p| p.morsels > 1),
                "{layout}"
            );
            assert_eq!(par.rows, serial.rows, "{layout}");
            assert_eq!(par.rows.len(), 500);
            let v: Vec<i32> = par.rows.iter().map(|r| r.int(0)).collect();
            assert!(v.windows(2).all(|w| w[0] < w[1]), "{layout}: out of order");
        }
    }

    #[test]
    fn select_filter_collect() {
        let db = db();
        let res = db
            .query("tab")
            .unwrap()
            .layout(ScanLayout::Row)
            .select(&["v", "t"])
            .unwrap()
            .filter("k", CmpOp::Eq, 3)
            .unwrap()
            .run_collect()
            .unwrap();
        assert_eq!(res.rows.len(), 100);
        assert_eq!(res.report.rows, 100);
        for r in res.rows.iter() {
            assert_eq!(r.int(0) % 10, 3);
        }
    }

    #[test]
    fn layouts_agree_through_builder() {
        let db = db();
        let collect = |layout| {
            db.query("tab")
                .unwrap()
                .layout(layout)
                .select(&["k", "v"])
                .unwrap()
                .filter("v", CmpOp::Lt, 77)
                .unwrap()
                .run_collect()
                .unwrap()
                .rows
        };
        let row = collect(ScanLayout::Row);
        assert_eq!(row.len(), 77);
        assert_eq!(collect(ScanLayout::Column), row);
        assert_eq!(collect(ScanLayout::ColumnSlow), row);
        assert_eq!(collect(ScanLayout::ColumnSingleIterator), row);
    }

    #[test]
    fn grouped_aggregate_through_builder() {
        let db = db();
        let res = db
            .query("tab")
            .unwrap()
            .select(&["k", "v"])
            .unwrap()
            .group_by("k")
            .unwrap()
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(1))
            .run_collect()
            .unwrap();
        assert_eq!(res.rows.len(), 10);
        for r in res.rows.iter() {
            assert_eq!(r.long(1), 100);
        }
    }

    #[test]
    fn layout_auto_routes_by_model() {
        let db = db();
        // Narrow projection of a 12-byte table on the default platform:
        // the model should pick a layout and the query must still run.
        let qb = db
            .query("tab")
            .unwrap()
            .select(&["v"])
            .unwrap()
            .filter("k", CmpOp::Lt, 3)
            .unwrap()
            .layout_auto()
            .unwrap();
        let picked = qb.selected_layout();
        let auto_rows = qb.run_collect().unwrap().rows;
        // Same result as forcing either layout.
        let forced = db
            .query("tab")
            .unwrap()
            .select(&["v"])
            .unwrap()
            .filter("k", CmpOp::Lt, 3)
            .unwrap()
            .layout(ScanLayout::Row)
            .run_collect()
            .unwrap()
            .rows;
        assert_eq!(auto_rows, forced);
        assert!(matches!(picked, ScanLayout::Row | ScanLayout::Column));
        // Column-only table always routes to columns.
        let s = Arc::new(Schema::new(vec![Column::int("x")]).unwrap());
        let mut b = rodb_storage::TableBuilder::new(
            "conly",
            s,
            4096,
            rodb_storage::BuildLayouts::column_only(),
        )
        .unwrap();
        b.push_row(&[Value::Int(1)]).unwrap();
        let mut db2 = Database::new();
        db2.register(b.finish().unwrap());
        let qb = db2
            .query("conly")
            .unwrap()
            .select(&["x"])
            .unwrap()
            .layout_auto()
            .unwrap();
        assert_eq!(qb.selected_layout(), ScanLayout::Column);
    }

    #[test]
    fn plan_validation_errors() {
        let db = db();
        assert!(db.query("tab").unwrap().run().is_err()); // nothing selected
        assert!(db.query("tab").unwrap().select(&["zzz"]).is_err());
        assert!(db
            .query("tab")
            .unwrap()
            .select(&["k"])
            .unwrap()
            .filter("t", CmpOp::Lt, 5)
            .is_err()); // type mismatch
                        // group_by on an unselected column.
        assert!(db
            .query("tab")
            .unwrap()
            .select(&["v"])
            .unwrap()
            .group_by("k")
            .unwrap()
            .aggregate(AggSpec::count())
            .run()
            .is_err());
    }

    #[test]
    fn scaling_and_competition_change_the_report() {
        let db = db();
        let base = db
            .query("tab")
            .unwrap()
            .select(&["k"])
            .unwrap()
            .run()
            .unwrap();
        let scaled = db
            .query("tab")
            .unwrap()
            .select(&["k"])
            .unwrap()
            .scale_to_rows(1_000_000)
            .run()
            .unwrap();
        assert!(scaled.report.io.bytes_read > 100.0 * base.report.io.bytes_read);
        // Competition needs multiple bursts to bite; run at paper-like scale.
        let contested = db
            .query("tab")
            .unwrap()
            .select(&["k"])
            .unwrap()
            .scale_to_rows(100_000_000)
            .competing_scans(1)
            .run()
            .unwrap();
        let base_scaled = db
            .query("tab")
            .unwrap()
            .select(&["k"])
            .unwrap()
            .scale_to_rows(100_000_000)
            .run()
            .unwrap();
        assert!(contested.report.io_s() > base_scaled.report.io_s());
        assert!(contested.report.io.comp_bursts > 0);
    }
}
