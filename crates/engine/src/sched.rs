//! General morsel task scheduler: one worker pool executing tasks from
//! *many* in-flight queries.
//!
//! A parallel query submits one [`QueryJob`]: its table is split into
//! page-aligned [`rodb_storage::Morsel`]s, workers pull morsels from a
//! shared queue and run the job's [`QueryPlan`] over each (as a partial
//! aggregation when the plan has one), and merging is done once,
//! deterministically, after the pool joins. The concurrent query service
//! submits a *batch* of jobs — one per query attached to a shared scan
//! cursor segment — and the same pool interleaves their tasks round-robin,
//! so every worker owns morsels from multiple queries at once.
//!
//! The per-job merge, all on the *simulated* clock:
//!
//! * **Rows** concatenate in morsel order, which equals serial scan order.
//! * **Aggregates** travel as per-morsel [`AggPartial`]s folded by
//!   [`merge_partials`] — exact for COUNT/SUM/MIN/MAX/AVG; sorted-strategy
//!   runs spanning a morsel boundary are stitched.
//! * **I/O** sums element-wise, then — because the workers share the one
//!   simulated disk array — every burst is charged a head-switch seek
//!   ([`rodb_io::merge_parallel`]); disk time serializes across workers.
//! * **CPU** counters sum into one query-wide breakdown; the modelled
//!   *elapsed* time uses the critical path `max(total/workers, largest
//!   morsel)` — the classic makespan lower bound, deterministic under work
//!   stealing.
//!
//! Determinism: each task is tagged with its position in the interleaved
//! task list and outcomes are merged in morsel order. Which worker ran which
//! task never affects any merged result, so reports and rows are identical
//! across worker counts.

use std::sync::atomic::{AtomicUsize, Ordering};

use rodb_cpu::CpuBreakdown;
use rodb_io::IoStats;
use rodb_trace::QueryTrace;
use rodb_types::{Error, HardwareConfig, Result, SystemConfig, Value};

use crate::agg::{merge_partials, AggPartial};
use crate::exec::{RunReport, DEFAULT_OVERLAP_LOSS};
use crate::op::{drain_rows, ExecContext};
use crate::plan::QueryPlan;
use crate::traced::{apply_report, finish_query_trace};

/// Morsels per worker thread: small enough that the queue load-balances,
/// large enough that per-morsel setup stays negligible.
pub(crate) const MORSELS_PER_THREAD: usize = 4;

/// Lower bound on morsel size. Every morsel pays fixed costs — a fresh
/// sequential run per column file (a seek plus its kernel switch charge)
/// and context setup — so slicing a small table into `threads × 4` crumbs
/// makes the parallel run *more* expensive than the serial one. Below this
/// many rows per morsel we create fewer morsels (never fewer than
/// `threads`, so available cores still all engage).
pub(crate) const MIN_MORSEL_ROWS: u64 = 32_768;

/// One query's work order for the scheduler. A job with no `row_range` on
/// its plan's scan is split into page-aligned morsels; a job whose scan
/// carries a range (a shared-cursor segment) is a single task. The plan must
/// be [`QueryPlan::partitionable`].
#[derive(Debug, Clone)]
pub struct QueryJob {
    pub plan: QueryPlan,
    pub hw: HardwareConfig,
    pub sys: SystemConfig,
    pub row_scale: f64,
    pub competing_scans: usize,
    /// Materialize result rows (vs measurement-only drain).
    pub collect: bool,
    /// When aggregating: `true` merges partials and emits final rows (the
    /// single-query path); `false` returns the merged [`AggPartial`]
    /// unemitted, for callers that keep folding across job batches (the
    /// shared-cursor service does, one batch per segment).
    pub emit: bool,
    /// Trace every task and merge the span trees.
    pub trace: bool,
}

impl QueryJob {
    pub fn new(plan: QueryPlan, hw: HardwareConfig, sys: SystemConfig) -> QueryJob {
        QueryJob {
            plan,
            hw,
            sys,
            row_scale: 1.0,
            competing_scans: 0,
            collect: false,
            emit: true,
            trace: false,
        }
    }
}

/// The per-job result of a scheduler batch, merged deterministically in
/// morsel order.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Merged report on the simulated clock. `report.cpu` is the *sum* of
    /// all task CPU (total work); `report.elapsed_s` uses the parallel
    /// critical path.
    pub report: RunReport,
    pub rows: Vec<Vec<Value>>,
    /// The merged unemitted partial (aggregating jobs with `emit: false`).
    pub partial: Option<AggPartial>,
    /// Modelled CPU critical path in seconds across the worker pool.
    pub cpu_crit_s: f64,
    /// Tasks (morsels) this job split into.
    pub tasks: usize,
    /// Merged per-task span trace (only when the job asked for tracing).
    pub trace: Option<QueryTrace>,
}

/// Everything a task execution sends back across the thread boundary
/// (plain data — the `Rc`-based context stays inside the worker).
struct TaskOutcome {
    rows: Vec<Vec<Value>>,
    /// The task's own accounting (no cross-task effects yet).
    report: RunReport,
    partial: Option<AggPartial>,
    trace: Option<QueryTrace>,
}

/// The worker pool. `workers` bounds concurrency *and* is the thread count
/// the merged accounting models (head-switch seek recharge, CPU critical
/// path).
#[derive(Debug, Clone, Copy)]
pub struct TaskScheduler {
    pub workers: usize,
}

impl TaskScheduler {
    pub fn new(workers: usize) -> TaskScheduler {
        TaskScheduler { workers }
    }

    /// Execute a batch of jobs on one worker pool and merge each job's
    /// tasks deterministically. Tasks are interleaved round-robin across
    /// jobs (task 0 of every job, then task 1, …), so whenever the batch
    /// holds more than one query, every worker serves several queries over
    /// the batch's lifetime rather than draining them one at a time.
    pub fn run_jobs(&self, jobs: &[QueryJob]) -> Result<Vec<JobOutcome>> {
        if self.workers == 0 {
            return Err(Error::InvalidPlan(
                "parallel execution with 0 threads".into(),
            ));
        }
        for job in jobs {
            job.plan.partitionable()?;
        }
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Per-job morsel lists, then one interleaved task list.
        let morsel_lists: Vec<Vec<(u64, u64)>> =
            jobs.iter().map(|j| job_tasks(j, self.workers)).collect();
        let mut tasks: Vec<(usize, usize)> = Vec::new(); // (job, morsel)
        let deepest = morsel_lists.iter().map(Vec::len).max().unwrap_or(0);
        for wave in 0..deepest {
            for (j, list) in morsel_lists.iter().enumerate() {
                if wave < list.len() {
                    tasks.push((j, wave));
                }
            }
        }

        // Pool: workers pull task-list indices until the queue drains,
        // tagging every outcome so the merge below restores morsel order
        // regardless of who ran what.
        let queue = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, TaskOutcome)> = Vec::with_capacity(tasks.len());
        let pool = self.workers.min(tasks.len()).max(1);
        rodb_trace::MetricsRegistry::counter_add("sched.batches", 1.0);
        rodb_trace::MetricsRegistry::counter_add("sched.tasks", tasks.len() as f64);
        rodb_trace::MetricsRegistry::gauge_set("sched.queue_depth", tasks.len() as f64);
        rodb_trace::MetricsRegistry::gauge_set("sched.workers_engaged", pool as f64);
        rodb_trace::MetricsRegistry::gauge_set(
            "sched.worker_occupancy",
            pool as f64 / self.workers as f64,
        );
        if pool == 1 {
            // A pool of one is the calling thread: the shared cursor runs a
            // batch per segment visit, and a spawn + join per batch costs
            // more than its one-worker tasks.
            for (idx, &(j, m)) in tasks.iter().enumerate() {
                tagged.push((idx, run_task(&jobs[j], morsel_lists[j][m])?));
            }
        } else {
            std::thread::scope(|scope| -> Result<()> {
                let mut handles = Vec::with_capacity(pool);
                for _ in 0..pool {
                    let queue = &queue;
                    let tasks = &tasks;
                    let morsel_lists = &morsel_lists;
                    handles.push(scope.spawn(move || -> Result<Vec<(usize, TaskOutcome)>> {
                        let mut mine = Vec::new();
                        loop {
                            let idx = queue.fetch_add(1, Ordering::Relaxed);
                            let Some(&(j, m)) = tasks.get(idx) else { break };
                            let out = run_task(&jobs[j], morsel_lists[j][m])?;
                            mine.push((idx, out));
                        }
                        Ok(mine)
                    }));
                }
                for h in handles {
                    let mine = h.join().expect("scheduler worker panicked")?;
                    tagged.extend(mine);
                }
                Ok(())
            })?;
        }
        tagged.sort_by_key(|(idx, _)| *idx);

        // Regroup per job. Tasks of one job appear in morsel order within
        // the interleaved list, so a stable partition preserves it.
        let mut per_job: Vec<Vec<TaskOutcome>> = (0..jobs.len()).map(|_| Vec::new()).collect();
        for ((j, _), (_, out)) in tasks.iter().zip(tagged) {
            per_job[*j].push(out);
        }
        jobs.iter()
            .zip(per_job)
            .map(|(job, outs)| self.merge_job(job, outs))
            .collect()
    }

    /// The deterministic per-job merge.
    fn merge_job(&self, job: &QueryJob, mut outcomes: Vec<TaskOutcome>) -> Result<JobOutcome> {
        let ntasks = outcomes.len();
        // Per-task traces, in morsel order (matching the accounting merge).
        let traces: Vec<QueryTrace> = outcomes.iter_mut().filter_map(|o| o.trace.take()).collect();

        let per_io: Vec<IoStats> = outcomes.iter().map(|o| o.report.io).collect();
        let merged_io = rodb_io::merge_parallel(&per_io, self.workers, job.hw.seek_s);
        // Workers share one array: transfer/seek time serializes, plus the
        // head-switch seeks merge_parallel charged on top — both of which
        // the merged counters carry, so disk seconds derive from them.
        let io_s = merged_io.total_s();

        let mut cpu = CpuBreakdown::default();
        let mut max_task_cpu = 0.0f64;
        for o in &outcomes {
            cpu.merge(&o.report.cpu);
            max_task_cpu = max_task_cpu.max(o.report.cpu.total());
        }
        // Makespan lower bound over any task→worker assignment.
        let mut cpu_crit = (cpu.total() / self.workers as f64).max(max_task_cpu);

        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut nrows = 0u64;
        let mut blocks = 0u64;
        let mut partial = None;
        if job.plan.agg.is_none() {
            for mut o in outcomes {
                nrows += o.report.rows;
                blocks += o.report.blocks;
                rows.append(&mut o.rows);
            }
        } else {
            let partials: Vec<AggPartial> =
                outcomes.into_iter().filter_map(|o| o.partial).collect();
            let merged = merge_partials(partials)?;
            if job.emit {
                // Final merge + emission is a serial tail on one core.
                let ((r, n, b), tail) =
                    job.plan
                        .emit(&job.hw, &job.sys, job.row_scale, merged, job.collect)?;
                rows = r;
                nrows = n;
                blocks += b;
                cpu_crit += tail.total();
                cpu.merge(&tail);
            } else {
                partial = Some(merged);
            }
        }

        let overlapped = io_s.min(cpu_crit);
        let elapsed_s = io_s.max(cpu_crit) + DEFAULT_OVERLAP_LOSS * overlapped;
        let report = RunReport {
            rows: nrows,
            blocks,
            io: merged_io,
            cpu,
            elapsed_s,
        };
        // Merge the span trees the same way the accounting merged, then pin
        // the merged root to the final report (which additionally carries
        // the head-switch seek recharge and the serial aggregation tail).
        let trace = QueryTrace::merge_morsels(&traces).map(|mut t| {
            apply_report(&mut t, &report);
            t
        });
        Ok(JobOutcome {
            report,
            rows,
            partial,
            cpu_crit_s: cpu_crit,
            tasks: ntasks,
            trace,
        })
    }
}

/// The task list of one job: its explicit segment range, or the standard
/// page-aligned morsel split of the whole table.
fn job_tasks(job: &QueryJob, workers: usize) -> Vec<(u64, u64)> {
    let scan = &job.plan.scan;
    if let Some((start, end)) = scan.row_range {
        return if end > start {
            vec![(start, end)]
        } else {
            Vec::new()
        };
    }
    let by_size = (scan.table.row_count / MIN_MORSEL_ROWS).max(1) as usize;
    let want = (workers * MORSELS_PER_THREAD).min(by_size.max(workers));
    scan.table
        .morsels(want)
        .iter()
        .map(|m| (m.start, m.end))
        .collect()
}

/// Run one task (morsel) on its own single-threaded context and detach the
/// `Send`-safe accounting.
fn run_task(job: &QueryJob, range: (u64, u64)) -> Result<TaskOutcome> {
    let mut ctx = ExecContext::new(job.hw, job.sys, job.row_scale)?;
    if job.trace {
        ctx = ctx.with_tracing();
    }
    for _ in 0..job.competing_scans {
        ctx.add_competing_scan();
    }
    let plan = job.plan.with_row_range(range.0, range.1);
    let (mut rows, mut nrows, mut blocks, mut partial) = (Vec::new(), 0, 0, None);
    if plan.agg.is_none() {
        let mut op = plan.build(&ctx)?;
        (rows, nrows, blocks) = drain_rows(op.as_mut(), job.collect)?;
    } else {
        partial = Some(plan.run_partial(&ctx)?);
    }
    ctx.settle_io_kernel_work();
    let io = *ctx.disk.borrow().stats();
    let cpu = ctx.meter.borrow().breakdown(&job.hw).scaled(job.row_scale);
    let report = RunReport {
        rows: nrows,
        blocks,
        io,
        cpu,
        elapsed_s: io.total_s().max(cpu.total()),
    };
    let trace = finish_query_trace(&ctx, &report);
    Ok(TaskOutcome {
        rows,
        report,
        partial,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggSpec, AggStrategy};
    use crate::op::collect_rows;
    use crate::plan::{AggPlan, ScanLayout, ScanSpec};
    use crate::predicate::Predicate;
    use rodb_storage::{BuildLayouts, Table, TableBuilder};
    use rodb_types::{Column, Schema};
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

    fn job(t: &Arc<Table>, layout: ScanLayout, pred: Option<Predicate>, collect: bool) -> QueryJob {
        let mut spec = ScanSpec::new(t.clone(), layout, vec![0, 1]);
        if let Some(p) = pred {
            spec = spec.with_predicates(vec![p]);
        }
        let mut j = QueryJob::new(
            QueryPlan::new(spec),
            HardwareConfig::default(),
            SystemConfig::default(),
        );
        j.collect = collect;
        j
    }

    #[test]
    fn batch_of_jobs_matches_each_solo_run() {
        let t = table(9_000);
        let jobs = vec![
            job(&t, ScanLayout::Row, Some(Predicate::lt(1, 4)), true),
            job(&t, ScanLayout::Column, None, true),
            job(&t, ScanLayout::Column, Some(Predicate::eq(0, 7)), true),
        ];
        let batch = TaskScheduler::new(3).run_jobs(&jobs).unwrap();
        assert_eq!(batch.len(), jobs.len());
        for (j, out) in jobs.iter().zip(&batch) {
            let ctx = ExecContext::default_ctx();
            let mut solo = j.plan.build(&ctx).unwrap();
            assert_eq!(out.rows, collect_rows(&mut solo).unwrap());
        }
    }

    #[test]
    fn outcomes_are_identical_across_worker_counts() {
        let t = table(7_000);
        let mut agg_job = job(&t, ScanLayout::Column, Some(Predicate::lt(0, 5_000)), true);
        agg_job.plan.agg = Some(AggPlan {
            group_by: Some(1),
            specs: vec![AggSpec::count(), AggSpec::sum(0)],
            strategy: AggStrategy::Hash,
        });
        let jobs = vec![
            job(&t, ScanLayout::Row, Some(Predicate::lt(1, 4)), true),
            agg_job,
        ];
        let one = TaskScheduler::new(1).run_jobs(&jobs).unwrap();
        let four = TaskScheduler::new(4).run_jobs(&jobs).unwrap();
        for (a, b) in one.iter().zip(&four) {
            // Results are identical across worker counts; accounting may
            // differ because the morsel split scales with the pool (same
            // convention as the single-query parallel executor).
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.report.rows, b.report.rows);
        }
        // At a fixed worker count the whole outcome is bit-identical run
        // to run, regardless of how workers interleaved.
        let again = TaskScheduler::new(4).run_jobs(&jobs).unwrap();
        for (a, b) in four.iter().zip(&again) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.report.io, b.report.io);
            assert_eq!(a.report.elapsed_s, b.report.elapsed_s);
            assert_eq!(a.cpu_crit_s, b.cpu_crit_s);
        }
    }

    #[test]
    fn unemitted_partials_fold_to_the_emitted_answer() {
        let t = table(6_000);
        let mut plan = QueryPlan::new(ScanSpec::new(t.clone(), ScanLayout::Row, vec![0, 1]));
        plan.agg = Some(AggPlan {
            group_by: Some(1),
            specs: vec![AggSpec::count()],
            strategy: AggStrategy::Hash,
        });
        let hw = HardwareConfig::default();
        let sys = SystemConfig::default();
        // Split the table into two explicit segment jobs, emit: false.
        let mid = 3_000u64;
        let mk = |s: u64, e: u64| {
            let mut j = QueryJob::new(plan.with_row_range(s, e), hw, sys);
            j.emit = false;
            j
        };
        let outs = TaskScheduler::new(2)
            .run_jobs(&[mk(0, mid), mk(mid, 6_000)])
            .unwrap();
        let partials: Vec<AggPartial> = outs.into_iter().map(|o| o.partial.unwrap()).collect();
        let merged = merge_partials(partials).unwrap();
        let ((rows, ..), _) = plan.emit(&hw, &sys, 1.0, merged, true).unwrap();
        // Reference: the ordinary single-query parallel path.
        let mut whole = QueryJob::new(plan, hw, sys);
        whole.collect = true;
        let want = TaskScheduler::new(2).run_jobs(&[whole]).unwrap();
        assert_eq!(rows, want[0].rows);
    }

    #[test]
    fn zero_workers_rejected_empty_batch_ok() {
        let t = table(10);
        assert!(TaskScheduler::new(0)
            .run_jobs(&[job(&t, ScanLayout::Row, None, false)])
            .is_err());
        assert!(TaskScheduler::new(2).run_jobs(&[]).unwrap().is_empty());
    }
}
