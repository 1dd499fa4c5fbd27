//! `service_mix`: 8-rider batches through `QueryService` — one shared
//! driver pass with riders, not eight solo scans.

use std::sync::Arc;
use std::time::Instant;

use rodb::core::{QueryService, ServiceReport, ServiceRequest};
use rodb::storage::{BuildLayouts, Table};
use rodb::types::{CacheSpec, HardwareConfig, ServiceSpec, SplitMix64, SystemConfig};

use crate::cells::{solo_sys, threshold, Cell, Path};
use crate::oracle::{self, same_rows, AggDef, Func, Query};
use crate::probes;
use crate::run::{
    budget_spent, run_mix, timing_metrics, traced_metrics, Args, Check, Op, Outcome, TracedCycle,
};
use crate::scan::Sources;
use crate::spans::Spans;
use crate::stairs::SERVICE;
use crate::stats::{median, median_by};
use crate::tables::{self, TableId};

const RIDERS: usize = 8;
/// Row batches per column batch in one cycle.
const ROW_BATCHES: usize = 3;

/// The eight riders of a batch over ORDERS: four scans at 10 % with
/// collected rows, two hash and two sorted aggregates. The sorted ones group
/// on columns whose load order is grouped (`o_orderkey`, the constant
/// `o_shippriority`), which sort-based grouping requires.
///
/// The aggregates keep few groups (5, 3, ≈ 60 and 1). With tens of
/// thousands of groups a rider is a heap-allocation and cache-miss test that
/// this host's busy periods slow by 50–75 % while scans move by 5 %, and the
/// batch's wall would follow the neighbours, not the service.
fn riders(table: &Arc<Table>, id: TableId, path: Path) -> Vec<Cell> {
    let t10 = threshold(id, 0.10);
    let cell = |name: &str, query: Query| Cell {
        name: format!("{}.{name}", id.name()),
        table: table.clone(),
        path,
        query,
        collect: true,
        tail: None,
    };
    let scan = |k: usize| {
        cell(
            &format!("scan_k{k}"),
            Query {
                projection: (0..k).collect(),
                lt: Some((0, t10)),
                agg: None,
            },
        )
    };
    // o_orderdate 0, o_orderkey 1, o_orderstatus 3, o_orderpriority 4,
    // o_totalprice 5, o_shippriority 6.
    let agg = |name: &str, group_col: usize, lt: Option<(usize, i32)>, sorted: bool| {
        cell(
            name,
            Query {
                projection: vec![group_col, 5],
                lt,
                agg: Some(AggDef {
                    group_col,
                    funcs: vec![(Func::Count, group_col), (Func::Sum, 5), (Func::Max, 5)],
                    sorted,
                }),
            },
        )
    };
    vec![
        scan(1),
        scan(3),
        scan(4),
        scan(7),
        agg("hash_priority", 4, None, false),
        agg("hash_status", 3, None, false),
        agg("sorted_orderkey", 1, Some((0, threshold(id, 0.001))), true),
        agg("sorted_shippriority", 6, None, true),
    ]
}

/// One kind of batch: its riders, their seeded arrival times, and the
/// service configuration they run under.
struct Batch {
    name: &'static str,
    riders: Vec<Cell>,
    arrivals: Vec<f64>,
    sys: SystemConfig,
    /// Result rows of each rider, from the oracle.
    expect_rows: Vec<u64>,
}

impl Batch {
    /// Seeded arrivals inside one estimated pass on the modeled clock, one
    /// per eighth of the pass at a random offset within it; `slice_s =
    /// pass/24`; a shared page cache of half the file's pages so hits and
    /// evictions both occur.
    ///
    /// Arrivals are stratified rather than Poisson: with eight Poisson
    /// draws the number of riders that attach late (and have to ride past
    /// the wraparound) differs from seed to seed, and a batch's work with
    /// it by a quarter. Stratified draws keep the work alike across seeds
    /// while every rider still attaches mid-scan at a seeded point.
    fn new(name: &'static str, riders: Vec<Cell>, rng: &mut SplitMix64) -> Batch {
        let table = &riders[0].table;
        let path = riders[0].path;
        let (bytes, pages) = match path {
            Path::Row => {
                let rs = table.row.as_ref().expect("row layout");
                (rs.byte_len(), rs.pages)
            }
            _ => {
                let cs = table.col.as_ref().expect("column layout");
                (cs.byte_len(), cs.columns.iter().map(|c| c.pages).sum())
            }
        };
        let pass_s = bytes as f64 / HardwareConfig::default().aggregate_disk_bw();
        let stratum_s = pass_s / riders.len() as f64;
        let arrivals = (0..riders.len())
            .map(|i| (i as f64 + rng.f64()) * stratum_s)
            .collect();
        let sys = SystemConfig {
            service: Some(ServiceSpec::new(RIDERS).with_slice(pass_s / 24.0)),
            cache: Some(CacheSpec::lru_k(pages / 2)),
            ..solo_sys(path)
        };
        Batch {
            name,
            riders,
            arrivals,
            sys,
            expect_rows: Vec::new(),
        }
    }

    fn input_rows(&self) -> u64 {
        self.riders.iter().map(Cell::input_rows).sum()
    }

    /// A fresh service, eight submissions, one `run()`.
    fn run(&self) -> rodb::types::Result<ServiceReport> {
        let mut svc = QueryService::new(HardwareConfig::default(), self.sys)?;
        for (i, (rider, &at)) in self.riders.iter().zip(&self.arrivals).enumerate() {
            svc.submit(
                ServiceRequest::new(rider.builder_on(self.sys))
                    .at(at)
                    .tenant(["a", "b"][i % 2]),
            );
        }
        svc.run()
    }

    /// Run once and hold every rider's rows against the oracle.
    fn verify(&mut self, sources: &Sources, check: &mut Check) {
        let report = self.run();
        for (i, rider) in self.riders.iter().enumerate() {
            let expected = oracle::expected(sources.of(rider).iter(), &rider.query);
            self.expect_rows.push(expected.len() as u64);
            check.record(match &report {
                Ok(r) if r.outcomes[i].rejected => Err(format!("{}: rejected", rider.name)),
                Ok(r) if same_rows(&r.outcomes[i].rows, &expected, rider.query.agg.is_none()) => {
                    Ok(())
                }
                Ok(r) => Err(format!(
                    "{} in {}: rows differ from the oracle ({} vs {})",
                    rider.name,
                    self.name,
                    r.outcomes[i].nrows,
                    expected.len()
                )),
                Err(e) => Err(format!("{}: {e}", self.name)),
            });
        }
    }

    /// A timed execution: every rider completed with its row count.
    fn run_checked(&self) -> Result<(u64, ServiceReport), String> {
        let report = self.run().map_err(|e| e.to_string())?;
        for (o, (&want, rider)) in report
            .outcomes
            .iter()
            .zip(self.expect_rows.iter().zip(&self.riders))
        {
            if o.rejected || o.nrows != want {
                return Err(format!("{}: {} rows, expected {want}", rider.name, o.nrows));
            }
        }
        Ok((report.outcomes.iter().map(|o| o.nrows).sum(), report))
    }
}

pub fn run(args: &Args) -> Outcome {
    let wanted = [
        (TableId::Orders, BuildLayouts::row_only()),
        (TableId::OrdersZ, BuildLayouts::column_only()),
    ];
    let mut loaded = tables::load(&wanted, args.rows, args.seed, !args.trace);
    let mut rng = SplitMix64::new(args.seed);
    let mut batches = vec![
        Batch::new(
            "svc_row",
            riders(loaded.get(TableId::Orders), TableId::Orders, Path::Row),
            &mut rng,
        ),
        Batch::new(
            "svc_col",
            riders(
                loaded.get(TableId::OrdersZ),
                TableId::OrdersZ,
                Path::ColFast,
            ),
            &mut rng,
        ),
    ];

    let mut out = Outcome::default();
    let sources = Sources::generate(&loaded, args);
    for b in &mut batches {
        b.verify(&sources, &mut out.check);
    }
    drop(sources);
    let per_cycle = [ROW_BATCHES, 1];

    if args.trace {
        traced(&batches, per_cycle, args, &mut out);
        return out;
    }

    let mut ops: Vec<Op> = batches
        .iter()
        .zip(per_cycle)
        .map(|(b, per_cycle)| Op {
            name: b.name.to_string(),
            per_cycle,
            input_rows: b.input_rows(),
            expect_rows: b.expect_rows.iter().sum(),
            run: Box::new(move || b.run_checked().map(|(rows, _)| rows)),
        })
        .collect();
    let walls = run_mix(&mut ops, args.seconds, &mut out.check);

    let rows_per_cycle = ops.iter().map(|o| o.input_rows * o.per_cycle as u64).sum();
    let per_op: Vec<(String, &[f64], usize)> = ops
        .iter()
        .zip(&walls.op_s)
        .map(|(op, s)| (op.name.clone(), s.as_slice(), op.per_cycle))
        .collect();
    timing_metrics(&mut out, rows_per_cycle, &walls.cycle_s, &per_op);
    let stored = loaded.stored_bytes_per_user_byte;
    out.resource_metrics(&mut loaded, stored);
    out
}

/// Per traced cycle: every batch in a span, then each rider's solo
/// staircase. `core.service` is what a batch costs beyond the solo
/// `run_collect` of its riders.
fn traced(batches: &[Batch], per_cycle: [usize; 2], args: &Args, out: &mut Outcome) {
    let mut spans = Spans::new(true);
    let mut cycles = Vec::new();
    let mut share = [Vec::new(), Vec::new()];
    // The service's modeled clock over one cycle: a count, the same in all.
    let mut modeled = None;
    let started = Instant::now();
    while !budget_spent(started, cycles.len(), args.seconds) {
        let mut cycle = TracedCycle::default();
        let mut makespan_s = 0.0;
        let mut latencies = Vec::new();
        let mut service_io = rodb::io::IoStats::default();
        for (bi, (batch, times)) in batches.iter().zip(per_cycle).enumerate() {
            let mut batch_s = Vec::new();
            for _ in 0..times {
                spans.next_op();
                let open = spans.enter(&format!("batch:{}", batch.name));
                let ran = batch.run_checked();
                if let Ok((rows, report)) = &ran {
                    spans.count("rows_out", *rows as f64);
                    spans.count("modeled_makespan_s", report.makespan_s);
                    makespan_s += report.makespan_s;
                    latencies.extend(report.outcomes.iter().map(|o| o.latency_s));
                    service_io.merge(&report.io);
                }
                batch_s.push(spans.exit(open));
                out.check.record(ran.map(|_| ()));
            }
            let mut solo_collect_s = 0.0;
            for rider in &batch.riders {
                match cycle.add_cell(rider, times, &mut spans) {
                    Ok(s) => solo_collect_s += s.collect_s(),
                    Err(e) => out.check.record(Err(e)),
                }
            }
            let batch_wall: f64 = batch_s.iter().sum();
            cycle.layers[SERVICE] += batch_wall - times as f64 * solo_collect_s;
            share[bi].push(median(&batch_s) / solo_collect_s);
        }
        // The riders' solo reports carry the CPU bars; the I/O and cache
        // counts that matter here are the shared driver passes'.
        cycle.counts.io = service_io;
        modeled.get_or_insert((makespan_s, median(&latencies)));
        cycles.push(cycle);
    }
    traced_metrics(&cycles, &mut out.metrics, &mut out.check);
    let (makespan_s, latency_p50_s) = modeled.expect("at least one traced cycle");
    let m = &mut out.metrics;
    m.set("engine.shared_cursor.share_ratio_row", median(&share[0]));
    m.set("engine.shared_cursor.share_ratio_col", median(&share[1]));
    m.set("core.service.modeled_makespan_s", makespan_s);
    m.set("core.service.modeled_p50_s", latency_p50_s);
    // On this workload the wall to hold against the model is the batches'.
    let batch_wall_s = median_by(&cycles, |c| c.layers.iter().sum());
    m.set("cpu.wall_over_modeled", batch_wall_s / makespan_s);

    let all_riders: Vec<Cell> = batches.iter().flat_map(|b| b.riders.clone()).collect();
    let run_once_s = median_by(&cycles, |c| c.run_once_s);
    probes::finish_traced(out, spans, &mut cycles, &all_riders, run_once_s, args);
}
