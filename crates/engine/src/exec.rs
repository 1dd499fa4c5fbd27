//! Query execution driver and its report.
//!
//! The paper's systems "overlap I/O with computation" (§2.2.3): total elapsed
//! time is the larger of simulated disk time and modelled CPU time; with the
//! paper's note on Figure 9 that CPU-bound compressed runs show "imperfect
//! overlap", a configurable serialization fraction exposes that effect.

use rodb_cpu::CpuBreakdown;
use rodb_io::IoStats;
use rodb_types::Result;

use crate::op::{drain, ExecContext, Operator};

/// Everything one execution produced and cost.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Output rows (actual, unscaled).
    pub rows: u64,
    /// Output blocks.
    pub blocks: u64,
    /// Disk-side counters (bytes are virtual — paper-scale).
    pub io: IoStats,
    /// Modelled CPU breakdown (virtual — scaled by the context's row scale).
    pub cpu: CpuBreakdown,
    /// End-to-end elapsed seconds with CPU/I/O overlap.
    pub elapsed_s: f64,
}

impl RunReport {
    /// Simulated disk elapsed seconds (virtual). Derived from the I/O
    /// counters — the disk clock advances by exactly the transfer, seek and
    /// competitor time it accounts in [`IoStats`], so a separate stored
    /// copy could only ever agree or drift.
    pub fn io_s(&self) -> f64 {
        self.io.total_s()
    }

    /// True if the disks, not the CPU, bound this execution.
    pub fn io_bound(&self) -> bool {
        self.io_s() >= self.cpu.total()
    }

    /// Tuples per second at paper scale, given the virtual row count scanned.
    pub fn tuple_rate(&self, virtual_rows: f64) -> f64 {
        if self.elapsed_s > 0.0 {
            virtual_rows / self.elapsed_s
        } else {
            f64::INFINITY
        }
    }
}

/// Fraction of the overlapped portion that serializes anyway (Figure 9's
/// "imperfect overlap of CPU and I/O time"). 0 = perfect overlap.
pub const DEFAULT_OVERLAP_LOSS: f64 = 0.05;

/// Elapsed seconds of `io_s` disk time overlapped with `cpu_s` CPU time:
/// the larger of the two, plus [`DEFAULT_OVERLAP_LOSS`] of the overlap.
pub(crate) fn overlapped(io_s: f64, cpu_s: f64) -> f64 {
    io_s.max(cpu_s) + DEFAULT_OVERLAP_LOSS * io_s.min(cpu_s)
}

/// Drain `root`, then settle all accounting into a [`RunReport`].
pub fn run_to_completion(root: &mut dyn Operator, ctx: &ExecContext) -> Result<RunReport> {
    let (rows, blocks) = drain(root)?;
    Ok(settle_report(ctx, rows, blocks))
}

/// Settle the accounting of a plan already drained on `ctx` (it produced
/// `rows` rows in `blocks` blocks) into a [`RunReport`].
pub fn settle_report(ctx: &ExecContext, rows: u64, blocks: u64) -> RunReport {
    let scale = ctx.row_scale;
    let io = *ctx.disk.borrow().stats();
    // Kernel-side CPU work mirrors the disk traffic; settlement is
    // idempotent so repeated executions on one context never double-count.
    ctx.settle_io_kernel_work();
    let cpu = ctx.meter.borrow().breakdown(&ctx.hw).scaled(scale);
    RunReport {
        rows,
        blocks,
        io,
        elapsed_s: overlapped(io.total_s(), cpu.total()),
        cpu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::scan_col::ColumnScanner;
    use crate::scan_row::RowScanner;
    use rodb_storage::{BuildLayouts, Table, TableBuilder};
    use rodb_types::{Column, Schema, SystemConfig, Value};
    use std::sync::Arc;

    fn table(n: usize) -> Arc<Table> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("a"),
                Column::int("b"),
                Column::text("c", 20),
            ])
            .unwrap(),
        );
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..n {
            b.push_row(&[
                Value::Int((i % 1000) as i32),
                Value::Int(i as i32),
                Value::text("some filler text"),
            ])
            .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn report_fields_are_consistent() {
        let t = table(10_000);
        let ctx = ExecContext::default_ctx();
        let mut s = RowScanner::new(
            t.clone(),
            vec![0, 1],
            vec![Predicate::lt(0, 100)],
            &ctx,
            None,
        )
        .unwrap();
        let r = run_to_completion(&mut s, &ctx).unwrap();
        assert_eq!(r.rows, 1000);
        assert!(r.blocks >= r.rows / 100);
        assert!(r.io.bytes_read > 0.0);
        assert!(r.cpu.total() > 0.0);
        assert!(r.cpu.sys > 0.0);
        assert!(r.elapsed_s >= r.io_s().max(r.cpu.total()) - 1e-12);
        assert!(r.tuple_rate(10_000.0) > 0.0);
    }

    #[test]
    fn io_time_has_one_source_of_truth() {
        // The report's disk seconds are *derived* from the I/O counters and
        // must equal the simulator's own clock: the clock advances by
        // exactly the quantities it accounts.
        let t = table(20_000);
        let ctx = ExecContext::default_ctx();
        let mut s =
            RowScanner::new(t, vec![0, 1], vec![Predicate::lt(0, 500)], &ctx, None).unwrap();
        let r = run_to_completion(&mut s, &ctx).unwrap();
        assert_eq!(r.io_s(), r.io.total_s());
        let clock = ctx.disk.borrow().elapsed();
        assert!(
            (r.io_s() - clock).abs() < 1e-9,
            "derived io_s {} vs disk clock {}",
            r.io_s(),
            clock
        );
    }

    #[test]
    fn row_scale_scales_both_meters() {
        let t = table(10_000);
        let run = |scale: f64| {
            let ctx = ExecContext::new(Default::default(), SystemConfig::default(), scale).unwrap();
            let mut s =
                ColumnScanner::new(t.clone(), vec![0, 1], vec![], false, &ctx, None).unwrap();
            run_to_completion(&mut s, &ctx).unwrap()
        };
        let r1 = run(1.0);
        let r10 = run(10.0);
        // Virtual bytes, transfer time and user-mode CPU scale by ~10×;
        // seek time and the per-switch kernel work are scale-invariant
        // (the burst count matches the virtual file's).
        assert!((r10.io.bytes_read / r1.io.bytes_read - 10.0).abs() < 0.2);
        assert!((r10.io.transfer_s / r1.io.transfer_s - 10.0).abs() < 0.2);
        assert!(r10.io_s() > r1.io_s());
        assert!((r10.cpu.user() / r1.cpu.user() - 10.0).abs() < 0.5);
        assert!(r10.cpu.sys >= r1.cpu.sys);
        // Output rows are actual, not scaled.
        assert_eq!(r1.rows, r10.rows);
    }

    #[test]
    fn io_bound_detection() {
        // The default platform on a plain uncompressed scan is I/O-bound
        // (the paper's Figure 6 configuration).
        let t = table(50_000);
        let ctx = ExecContext::default_ctx();
        let mut s = RowScanner::new(t, vec![0], vec![], &ctx, None).unwrap();
        let r = run_to_completion(&mut s, &ctx).unwrap();
        assert!(r.io_bound(), "io={} cpu={}", r.io_s(), r.cpu.total());
    }
}
