//! The worker pool, and the morsel-parallel executor on top of it.
//!
//! `pool` maps a function over a slice on up to `workers` threads and
//! hands the results back in slice order; the morsel executor and the shared
//! cursor's riders ([`crate::shared_cursor`]) both run on it.
//!
//! [`run_morsels`] splits a partitionable [`QueryPlan`] into page-aligned
//! [`rodb_storage::Morsel`]s, runs each through [`QueryPlan::run_on`] on a
//! context of its own, and merges once, deterministically, after the pool
//! joins — all on the *simulated* clock:
//!
//! * **Rows** concatenate in morsel order, which equals serial scan order.
//! * **Aggregates** travel as per-morsel [`crate::AggPartial`]s folded by
//!   `QueryPlan::finish` — exact for COUNT/SUM/MIN/MAX/AVG; sorted-strategy
//!   runs spanning a morsel boundary are stitched.
//! * **I/O** sums element-wise, then — because the workers share the one
//!   simulated disk array — every burst is charged a head-switch seek
//!   ([`rodb_io::merge_parallel`]); disk time serializes across workers.
//! * **CPU** counters sum into one query-wide breakdown; the modelled
//!   *elapsed* time uses the critical path `max(total/workers, largest
//!   morsel)` — the classic makespan lower bound, deterministic under work
//!   stealing.
//!
//! Determinism: results come back in morsel order and an error is the
//! lowest failing morsel's, so which worker ran which morsel never shows in
//! a report, a row or an error.

use std::sync::atomic::{AtomicUsize, Ordering};

use rodb_cpu::CpuBreakdown;
use rodb_io::IoStats;
use rodb_storage::Table;
use rodb_trace::{MetricsRegistry, QueryTrace};
use rodb_types::{Error, Result};

use crate::exec::{overlapped, RunReport};
use crate::op::ExecContext;
use crate::plan::{PlanRun, QueryPlan};
use crate::traced::apply_report;

/// Morsels per worker thread: small enough that the queue load-balances,
/// large enough that per-morsel setup stays negligible.
const MORSELS_PER_THREAD: usize = 4;

/// Lower bound on morsel size. Every morsel pays fixed costs — a fresh
/// sequential run per column file (a seek plus its kernel switch charge)
/// and context setup — so slicing a small table into `threads × 4` crumbs
/// makes the parallel run *more* expensive than the serial one. Below this
/// many rows per morsel we create fewer morsels (never fewer than
/// `threads`, so available cores still all engage).
const MIN_MORSEL_ROWS: u64 = 32_768;

/// Map `f` over `items` on up to `workers` threads; the results come back in
/// item order. Workers pull the next index from one shared counter, so when
/// items fail the error returned is the lowest failing item's: every lower
/// index was pulled, and run to completion, before it. A pool of one is the
/// calling thread — the shared cursor maps its riders once per segment, and
/// a spawn and join per segment costs more than one worker's items.
pub(crate) fn pool<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    if workers == 0 {
        return Err(Error::InvalidPlan(
            "parallel execution with 0 threads".into(),
        ));
    }
    let threads = workers.min(items.len()).max(1);
    MetricsRegistry::counter_add("sched.batches", 1.0);
    MetricsRegistry::counter_add("sched.tasks", items.len() as f64);
    MetricsRegistry::gauge_set("sched.queue_depth", items.len() as f64);
    MetricsRegistry::gauge_set("sched.workers_engaged", threads as f64);
    MetricsRegistry::gauge_set("sched.worker_occupancy", threads as f64 / workers as f64);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let out = f(item);
                        let failed = out.is_err();
                        mine.push((i, out));
                        if failed {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// The page-aligned morsel split of `table` for `workers` threads.
fn morsels(table: &Table, workers: usize) -> Vec<(u64, u64)> {
    let by_size = (table.row_count / MIN_MORSEL_ROWS).max(1) as usize;
    let want = (workers * MORSELS_PER_THREAD).min(by_size.max(workers));
    table
        .morsels(want)
        .iter()
        .map(|m| (m.start, m.end))
        .collect()
}

/// Run a partitionable `plan` morsel-parallel and merge it. Each morsel runs
/// on a fresh context from `context`, which is where row scale, competing
/// scans and tracing are set; the pool is that context's `sys.threads` wide,
/// and that count is also what the merge models (head-switch seek recharge,
/// CPU critical path). Returns the merged run — its report's `cpu` is the
/// *sum* of all morsel CPU, its `elapsed_s` uses the critical path — the
/// modelled CPU critical path in seconds, and the morsel count.
pub fn run_morsels(
    plan: &QueryPlan,
    collect: bool,
    context: impl Fn() -> Result<ExecContext> + Sync,
) -> Result<(PlanRun, f64, usize)> {
    plan.partitionable()?;
    // The configuration every morsel runs under: the pool width, the seek
    // the merge recharges, and the emission tail's platform and scale.
    let base = context()?;
    let workers = base.sys.threads;
    let ranges = morsels(&plan.scan.table, workers);
    let mut pieces = pool(workers, &ranges, |&range| {
        plan.run_on(&context()?, Some(range), collect)
    })?;

    let traces: Vec<QueryTrace> = pieces.iter_mut().filter_map(|p| p.trace.take()).collect();
    let per_io: Vec<IoStats> = pieces.iter().map(|p| p.report.io).collect();
    // Workers share one array: transfer/seek time serializes, plus the
    // head-switch seeks merge_parallel charges on top — both of which the
    // merged counters carry, so disk seconds derive from them.
    let io = rodb_io::merge_parallel(&per_io, workers, base.hw.seek_s);
    let mut cpu = CpuBreakdown::default();
    let mut max_piece_cpu = 0.0f64;
    for p in &pieces {
        cpu.merge(&p.report.cpu);
        max_piece_cpu = max_piece_cpu.max(p.report.cpu.total());
    }
    // Makespan lower bound over any morsel→worker assignment; the final
    // merge and emission is a serial tail on one core.
    let crit = (cpu.total() / workers as f64).max(max_piece_cpu);
    let morsels = pieces.len();
    let ((rows, nrows, blocks), tail) =
        plan.finish(pieces, &base.hw, &base.sys, base.row_scale, collect)?;
    cpu.merge(&tail);
    let cpu_crit_s = crit + tail.total();
    let report = RunReport {
        rows: nrows,
        blocks,
        io,
        cpu,
        elapsed_s: overlapped(io.total_s(), cpu_crit_s),
    };
    // Merge the span trees the same way the accounting merged, then pin the
    // merged root to the final report (which additionally carries the
    // head-switch seek recharge and the serial aggregation tail).
    let trace = QueryTrace::merge_morsels(&traces).map(|mut t| {
        apply_report(&mut t, &report);
        t
    });
    let run = PlanRun {
        rows,
        report,
        partial: None,
        trace,
    };
    Ok((run, cpu_crit_s, morsels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggSpec, AggStrategy};
    use crate::op::collect_rows;
    use crate::plan::{AggPlan, ScanLayout, ScanSpec};
    use crate::predicate::Predicate;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{Column, HardwareConfig, Schema, SystemConfig};
    use std::sync::Arc;

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

    fn plan(t: &Arc<Table>, layout: ScanLayout, pred: Option<Predicate>) -> QueryPlan {
        let spec = ScanSpec::new(t.clone(), layout, vec![0, 1]);
        QueryPlan::new(spec.with_predicates(pred.into_iter().collect()))
    }

    fn contexts(threads: usize) -> impl Fn() -> Result<ExecContext> + Sync {
        move || {
            let sys = SystemConfig::default().with_threads(threads);
            ExecContext::new(HardwareConfig::default(), sys, 1.0)
        }
    }

    #[test]
    fn morsel_runs_match_each_solo_run() {
        let t = table(9_000);
        for p in [
            plan(&t, ScanLayout::Row, Some(Predicate::lt(1, 4))),
            plan(&t, ScanLayout::Column, None),
            plan(&t, ScanLayout::Column, Some(Predicate::eq(0, 7))),
        ] {
            let (run, ..) = run_morsels(&p, true, contexts(3)).unwrap();
            let ctx = ExecContext::default_ctx();
            let mut solo = p.build(&ctx).unwrap();
            assert_eq!(run.rows, collect_rows(&mut solo).unwrap());
        }
    }

    #[test]
    fn outcomes_are_identical_across_worker_counts() {
        let t = table(7_000);
        let mut agg = plan(&t, ScanLayout::Column, Some(Predicate::lt(0, 5_000)));
        agg.agg = Some(AggPlan {
            group_by: Some(1),
            specs: vec![AggSpec::count(), AggSpec::sum(0)],
            strategy: AggStrategy::Hash,
        });
        for p in [plan(&t, ScanLayout::Row, Some(Predicate::lt(1, 4))), agg] {
            let (one, ..) = run_morsels(&p, true, contexts(1)).unwrap();
            let (four, crit, _) = run_morsels(&p, true, contexts(4)).unwrap();
            // Results are identical across worker counts; accounting may
            // differ because the morsel split scales with the pool.
            assert_eq!(one.rows, four.rows);
            assert_eq!(one.report.rows, four.report.rows);
            // At a fixed worker count the whole outcome is bit-identical run
            // to run, regardless of how workers interleaved.
            let (again, crit_again, _) = run_morsels(&p, true, contexts(4)).unwrap();
            assert_eq!(four.rows, again.rows);
            assert_eq!(four.report.io, again.report.io);
            assert_eq!(four.report.elapsed_s, again.report.elapsed_s);
            assert_eq!(crit, crit_again);
        }
    }

    #[test]
    fn unemitted_partials_fold_to_the_emitted_answer() {
        let t = table(6_000);
        let mut p = plan(&t, ScanLayout::Row, None);
        p.agg = Some(AggPlan {
            group_by: Some(1),
            specs: vec![AggSpec::count()],
            strategy: AggStrategy::Hash,
        });
        let (hw, sys) = (HardwareConfig::default(), SystemConfig::default());
        // Two explicit ranges, each run on its own pool thread and left
        // unemitted, then folded.
        let ranges = [(0, 3_000), (3_000, 6_000)];
        let pieces = pool(2, &ranges, |&r| {
            p.run_on(&ExecContext::new(hw, sys, 1.0)?, Some(r), true)
        })
        .unwrap();
        assert!(pieces.iter().all(|piece| piece.partial.is_some()));
        let ((rows, ..), _) = p.finish(pieces, &hw, &sys, 1.0, true).unwrap();
        // Reference: the ordinary single-query parallel path.
        let (want, ..) = run_morsels(&p, true, contexts(2)).unwrap();
        assert_eq!(rows, want.rows);
    }

    #[test]
    fn the_pool_keeps_item_order_and_reports_the_lowest_failure() {
        let items: Vec<u64> = (0..64).collect();
        for workers in [1, 3, 8] {
            let out = pool(workers, &items, |&i| Ok(i * i)).unwrap();
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
            let err = pool(workers, &items, |&i| match i {
                17 | 40 => Err(Error::InvalidPlan(format!("item {i}"))),
                _ => Ok(i),
            })
            .unwrap_err();
            assert!(
                matches!(&err, Error::InvalidPlan(m) if m == "item 17"),
                "{err}"
            );
        }
    }

    #[test]
    fn zero_workers_rejected_empty_slice_ok() {
        assert!(pool(0, &[1], |&i: &i32| Ok(i)).is_err());
        assert!(pool(2, &[], |&i: &i32| Ok(i)).unwrap().is_empty());
    }
}
