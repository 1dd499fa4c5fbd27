//! The operator interface and shared execution context.
//!
//! Every relational operator is a pull-based block iterator (§2.2.3): a call
//! to [`Operator::next`] returns the next [`TupleBlock`] or `None` at end of
//! stream. Operators are agnostic about the database schema and "operate on
//! generic tuple structures".

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rodb_cpu::CpuMeter;
use rodb_io::{DiskArray, SharedDisk};
use rodb_trace::Tracer;
use rodb_types::{HardwareConfig, Result, Schema, SystemConfig};

use crate::block::TupleBlock;

/// Shared per-query state: the simulated disk, the CPU meter, and the
/// platform/system configuration.
#[derive(Clone)]
pub struct ExecContext {
    pub disk: SharedDisk,
    pub meter: Rc<RefCell<CpuMeter>>,
    pub hw: HardwareConfig,
    pub sys: SystemConfig,
    /// virtual rows ÷ actual rows; CPU counters are multiplied by this at
    /// report time (the disk simulator applies it internally).
    pub row_scale: f64,
    /// Span recorder; `None` (the default) keeps execution trace-free with
    /// zero per-block overhead (operators are not even wrapped).
    pub tracer: Option<Tracer>,
    file_counter: Rc<RefCell<u64>>,
    /// Disk traffic already charged as kernel CPU work: (bytes, seeks).
    /// Settlement is idempotent across multiple executions on one context.
    settled_io: Rc<RefCell<(f64, u64)>>,
}

impl ExecContext {
    /// Build a context for one query execution.
    pub fn new(hw: HardwareConfig, sys: SystemConfig, row_scale: f64) -> Result<ExecContext> {
        let disk = DiskArray::new(&hw, &sys, row_scale.max(1.0))?;
        Ok(ExecContext {
            disk: Rc::new(RefCell::new(disk)),
            meter: Rc::new(RefCell::new(CpuMeter::default())),
            hw,
            sys,
            row_scale: row_scale.max(1.0),
            tracer: None,
            file_counter: Rc::new(RefCell::new(0)),
            settled_io: Rc::new(RefCell::new((0.0, 0))),
        })
    }

    /// Turn on span tracing for every operator built on this context:
    /// installs a [`Tracer`] and routes disk-simulator events (bursts, zone
    /// skips, replica retries…) into its sink.
    pub fn with_tracing(mut self) -> ExecContext {
        let tracer = Tracer::new();
        self.disk.borrow_mut().set_trace_sink(tracer.sink());
        self.tracer = Some(tracer);
        self
    }

    /// Default platform, no scaling.
    pub fn default_ctx() -> ExecContext {
        ExecContext::new(HardwareConfig::default(), SystemConfig::default(), 1.0)
            .expect("default config is valid")
    }

    /// Allocate a unique simulated-file id.
    pub fn next_file_id(&self) -> rodb_io::FileId {
        let mut c = self.file_counter.borrow_mut();
        *c += 1;
        rodb_io::FileId(*c)
    }

    /// Charge kernel CPU for disk traffic not yet settled on this context.
    /// Idempotent: only the delta since the last settlement is charged, so
    /// running several executions (or a shared scan plus an operator tree)
    /// on one context never double-counts.
    pub fn settle_io_kernel_work(&self) {
        let (bytes, seeks) = {
            let disk = self.disk.borrow();
            (disk.stats().bytes_read, disk.stats().seeks)
        };
        let mut settled = self.settled_io.borrow_mut();
        let (new_bytes, new_seeks) = (bytes - settled.0, seeks - settled.1);
        *settled = (bytes, seeks);
        if new_bytes > 0.0 || new_seeks > 0 {
            self.meter.borrow_mut().io_kernel_work(
                new_bytes / self.row_scale,
                self.sys.io_unit,
                new_seeks as f64 / self.row_scale,
            );
        }
    }

    /// Register a competing scan (Fig. 11) matched to our prefetch depth.
    pub fn add_competing_scan(&self) {
        self.disk
            .borrow_mut()
            .add_competitor(self.sys.prefetch_depth, self.sys.io_unit);
    }
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("row_scale", &self.row_scale)
            .finish_non_exhaustive()
    }
}

/// A pull-based block iterator.
pub trait Operator {
    /// Output schema of the blocks this operator produces.
    fn schema(&self) -> &Arc<Schema>;

    /// Produce the next block, or `None` at end of stream. Returned blocks
    /// are non-empty.
    fn next(&mut self) -> Result<Option<TupleBlock>>;

    /// Display label for EXPLAIN/trace output (e.g. `scan[column]`).
    fn label(&self) -> String {
        "op".to_string()
    }
}

impl<T: Operator + ?Sized> Operator for Box<T> {
    fn schema(&self) -> &Arc<Schema> {
        (**self).schema()
    }
    fn next(&mut self) -> Result<Option<TupleBlock>> {
        (**self).next()
    }
    fn label(&self) -> String {
        (**self).label()
    }
}

/// Helper: drain an operator, returning row count and block count
/// (used by tests and the executor).
pub fn drain(op: &mut dyn Operator) -> Result<(u64, u64)> {
    let mut rows = 0u64;
    let mut blocks = 0u64;
    while let Some(b) = op.next()? {
        rows += b.count() as u64;
        blocks += 1;
    }
    Ok((rows, blocks))
}

/// Result rows (empty unless collected), row count, block count.
pub type Drained = (Vec<Vec<rodb_types::Value>>, u64, u64);

/// Drain an operator, materializing its rows when `collect` is set.
pub fn drain_rows(op: &mut dyn Operator, collect: bool) -> Result<Drained> {
    if !collect {
        let (rows, blocks) = drain(op)?;
        return Ok((Vec::new(), rows, blocks));
    }
    let mut rows = Vec::new();
    let mut blocks = 0u64;
    while let Some(b) = op.next()? {
        blocks += 1;
        rows.extend(b.rows()?);
    }
    let n = rows.len() as u64;
    Ok((rows, n, blocks))
}

/// Helper: collect all rows as values (tests and small results).
pub fn collect_rows(op: &mut dyn Operator) -> Result<Vec<Vec<rodb_types::Value>>> {
    let mut out = Vec::new();
    while let Some(b) = op.next()? {
        out.extend(b.rows()?);
    }
    Ok(out)
}
