//! What the workloads share: arguments, the result of a run, the closed
//! one-client loop over an operation mix, and the per-layer accumulator the
//! traced runs fill from staircases.

use std::time::Instant;

use rodb::cpu::CpuBreakdown;
use rodb::engine::RunReport;
use rodb::io::IoStats;
use rodb::trace::Json;

use crate::cells::{Cell, Path};
use crate::host::peak_rss_mb;
use crate::metrics::Values;
use crate::spans::Spans;
use crate::stairs::{staircase, LayerTimes, Staircase, CORE_QUERY, LAYERS};
use crate::stats::{median, median_by, mix_percentile, quiet_wall};
use crate::tables::{Loaded, PAGE};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Rows per table.
    pub rows: u64,
}

/// Operations attempted and failed. An operation fails when the engine
/// returns `Err`, a wrong row count, or rows that differ from the oracle.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Check {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub check: Check,
    /// The metrics the driver's contract lists for this kind of run.
    pub metrics: Values,
    /// Further named numbers: sample counts, workload-only metrics.
    pub extra: Values,
    /// Human-readable detail lines (per-cell tables).
    pub report: Vec<String>,
    /// Every timed operation's walls in seconds, by operation name.
    pub samples: Vec<(String, Vec<f64>)>,
    /// The span list of a traced run.
    pub spans: Option<Json>,
}

impl Outcome {
    /// The end-to-end metrics that are not timings of operations. Called
    /// when the last operation has returned: it runs the second set-up
    /// window, after reading the memory peak, which must not include that
    /// window's second copy of the tables.
    pub fn resource_metrics(&mut self, loaded: &mut Loaded, stored_bytes_per_user_byte: f64) {
        self.metrics.set("peak_rss_mb", peak_rss_mb());
        loaded.setup_again();
        self.metrics.set("setup_s", quiet_wall(&loaded.setup_walls));
        self.extra
            .set("median.setup_s", median(&loaded.setup_walls));
        self.samples
            .push(("setup".into(), loaded.setup_walls.clone()));
        self.metrics
            .set("stored_bytes_per_user_byte", stored_bytes_per_user_byte);
    }
}

/// One operation of a stateless mix.
pub struct Op<'a> {
    pub name: String,
    /// Consecutive executions per cycle.
    pub per_cycle: usize,
    /// Input rows one execution scans.
    pub input_rows: u64,
    /// Result rows one execution must produce.
    pub expect_rows: u64,
    /// Execute once; `Ok(result rows)`.
    pub run: Box<dyn FnMut() -> Result<u64, String> + 'a>,
}

/// Walls of a timed mix.
pub struct MixWalls {
    pub cycle_s: Vec<f64>,
    /// Per operation (indexed like the mix), every execution's wall.
    pub op_s: Vec<Vec<f64>>,
}

/// True when another unit of work of the current mean size would overshoot
/// `seconds` by more than it undershoots now. Keeps a run's length near the
/// requested one whether a unit takes 50 ms or 5 s.
pub fn budget_spent(started: Instant, units_done: usize, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    let mean = elapsed / units_done.max(1) as f64;
    units_done > 0 && elapsed + 0.5 * mean >= seconds
}

/// Closed loop, one client: run whole cycles of `ops`, each operation
/// started only when the previous one has returned, until the time budget
/// is spent.
pub fn run_mix(ops: &mut [Op], seconds: f64, check: &mut Check) -> MixWalls {
    let mut walls = MixWalls {
        cycle_s: Vec::new(),
        op_s: vec![Vec::new(); ops.len()],
    };
    let started = Instant::now();
    while !budget_spent(started, walls.cycle_s.len(), seconds) {
        let cycle = Instant::now();
        for (i, op) in ops.iter_mut().enumerate() {
            for _ in 0..op.per_cycle {
                let t0 = Instant::now();
                let result = (op.run)();
                walls.op_s[i].push(t0.elapsed().as_secs_f64());
                check.record(match result {
                    Ok(rows) if rows == op.expect_rows => Ok(()),
                    Ok(rows) => Err(format!(
                        "{}: {rows} result rows, expected {}",
                        op.name, op.expect_rows
                    )),
                    Err(e) => Err(format!("{}: {e}", op.name)),
                });
            }
        }
        walls.cycle_s.push(cycle.elapsed().as_secs_f64());
    }
    walls
}

/// The three timing metrics every workload reports, from per-unit walls:
/// `rows_per_unit ÷ quiet unit wall`, and the mix percentiles over each
/// operation's quiet wall (see [`quiet_wall`], [`mix_percentile`]). The same
/// three over medians go to `extra`, so a busy host shows as the distance
/// between the two. `ops` is each operation's name, walls and occurrences
/// per unit.
pub fn timing_metrics(
    out: &mut Outcome,
    rows_per_unit: u64,
    unit_s: &[f64],
    ops: &[(String, &[f64], usize)],
) {
    let summaries: [(&mut Values, &str, fn(&[f64]) -> f64); 2] = [
        (&mut out.metrics, "", quiet_wall),
        (&mut out.extra, "median.", median),
    ];
    for (into, prefix, wall) in summaries {
        let per_op: Vec<(f64, usize)> = ops.iter().map(|(_, s, w)| (wall(s), *w)).collect();
        let name = |metric: &str| format!("{prefix}{metric}");
        into.set(&name("tuples_per_s"), rows_per_unit as f64 / wall(unit_s));
        into.set(&name("op_p50_ms"), mix_percentile(&per_op, 0.50) * 1e3);
        into.set(&name("op_p90_ms"), mix_percentile(&per_op, 0.90) * 1e3);
    }
    out.extra.set("cycles", unit_s.len() as f64);
    out.extra.set(
        "timed_operations",
        ops.iter().map(|(_, s, _)| s.len()).sum::<usize>() as f64,
    );
    out.samples.push(("cycle".into(), unit_s.to_vec()));
    for (name, s, _) in ops {
        out.samples.push((name.clone(), s.to_vec()));
        out.report.push(format!(
            "  {name:<34} quiet {:>9.3} ms  median {:>9.3} ms over {} runs",
            quiet_wall(s) * 1e3,
            median(s) * 1e3,
            s.len()
        ));
    }
}

/// Deterministic work counts of one cycle, from engine reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub io: IoStats,
    pub cpu: CpuBreakdown,
    pub modeled_s: f64,
    pub rows_out: u64,
    pub blocks_out: u64,
}

impl Counts {
    pub fn add_report(&mut self, r: &RunReport) {
        self.io.merge(&r.io);
        self.cpu.add(&r.cpu);
        self.modeled_s += r.elapsed_s;
        self.rows_out += r.rows;
        self.blocks_out += r.blocks;
    }

    pub fn write(&self, m: &mut Values) {
        m.set("io.pages_read", self.io.bytes_read / PAGE as f64);
        m.set("io.bytes_read", self.io.bytes_read);
        m.set("io.pages_skipped", self.io.pages_skipped as f64);
        m.set("io.modeled_io_s", self.io.total_s());
        m.set("io.cache_hit_rate", self.io.cache.hit_ratio());
        m.set("io.cache_evictions", self.io.cache.evictions as f64);
        m.set("cpu.modeled_cpu_s", self.cpu.total());
        m.set("cpu.modeled_sys_s", self.cpu.sys);
        m.set("cpu.modeled_usr_uop_s", self.cpu.usr_uop);
        m.set("cpu.modeled_usr_l2_s", self.cpu.usr_l2);
        m.set("cpu.modeled_usr_l1_s", self.cpu.usr_l1);
        m.set("cpu.modeled_usr_rest_s", self.cpu.usr_rest);
        m.set("engine.rows_out", self.rows_out as f64);
        m.set("engine.blocks_out", self.blocks_out as f64);
    }
}

/// One traced cycle: layer self seconds, the engine's counts, and the scan
/// stairs the per-tuple figures are derived from.
#[derive(Default)]
pub struct TracedCycle {
    pub layers: LayerTimes,
    pub counts: Counts,
    /// Σ wall of `QueryBuilder::run` over the cycle's cells.
    pub run_s: f64,
    /// The same with every distinct cell counted once.
    pub run_once_s: f64,
    /// Scan-operator wall and tuples over Row-path cells.
    row_scan: (f64, f64),
    /// Scan-operator wall and values over column-path base cells.
    col_scan: (f64, f64),
    /// Scan-operator wall and result rows of each of those cells, by name
    /// (for the driven-read figure).
    col_scan_wall: Vec<(String, f64, u64)>,
    /// Per-cell lines of the report.
    pub lines: Vec<String>,
}

impl TracedCycle {
    /// Replay `cell` (`times` occurrences per cycle) and add its stairs.
    pub fn add_cell(
        &mut self,
        cell: &Cell,
        times: usize,
        spans: &mut Spans,
    ) -> Result<Staircase, String> {
        spans.next_op();
        let open = spans.enter(&format!("cell:{}", cell.name));
        let replay = staircase(cell, spans);
        spans.exit(open);
        let s = replay.map_err(|e| format!("{}: staircase: {e}", cell.name))?;
        let own = s.self_times();
        let k = times as f64;
        for (sum, v) in self.layers.iter_mut().zip(own) {
            *sum += k * v;
        }
        for _ in 0..times {
            self.counts.add_report(&s.report);
        }
        self.run_s += k * s.run_s();
        self.run_once_s += s.run_s();
        let scan_s = s.stairs[3];
        if cell.path == Path::Row {
            self.row_scan.0 += k * scan_s;
            self.row_scan.1 += k * cell.input_rows() as f64;
        } else if cell.query.agg.is_none() {
            // Node 0 decodes every value of its column; the other columns
            // are read at qualifying positions only.
            let driven = (cell.needed_columns().len() - 1) as f64;
            self.col_scan.0 += k * scan_s;
            self.col_scan.1 += k * (cell.input_rows() as f64 + driven * s.report.rows as f64);
            self.col_scan_wall
                .push((cell.name.clone(), scan_s, s.report.rows));
        }
        self.lines.push(format!(
            "  {:<34} {}  | run {:>9.3} ms  modeled {:>9.3} ms  wall/modeled {:>6.2}",
            cell.name,
            own[..=CORE_QUERY + 1]
                .iter()
                .map(|v| format!("{:>8.3}", v * 1e3))
                .collect::<Vec<_>>()
                .join(" "),
            s.run_s() * 1e3,
            s.report.elapsed_s * 1e3,
            s.run_s() / s.report.elapsed_s,
        ));
        Ok(s)
    }

    /// `(wall k=4 − wall k=1) ÷ (3 × qualifying rows)` over the 10 %
    /// cells: what one driven position costs. 0 when the cycle has no such
    /// pair of column-path cells.
    fn driven_ns_per_value(&self) -> f64 {
        let find = |name: &str| self.col_scan_wall.iter().find(|(n, _, _)| n == name);
        let (mut wall, mut values) = (0.0, 0.0);
        for (name, k4_s, rows) in &self.col_scan_wall {
            if let Some(table) = name.strip_suffix(".k4.s10") {
                if let Some((_, k1_s, _)) = find(&format!("{table}.k1.s10")) {
                    wall += k4_s - k1_s;
                    values += 3.0 * *rows as f64;
                }
            }
        }
        ratio(wall * 1e9, values)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn header_line() -> String {
    format!(
        "  {:<34} {}  (self ms per layer)",
        "cell",
        LAYERS[..=CORE_QUERY + 1]
            .iter()
            .map(|l| format!("{:>8}", l.rsplit('.').next().unwrap_or(l)))
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// Fold traced cycles into the per-layer metrics they determine. Counts must
/// repeat exactly from cycle to cycle; a cycle that disagrees is a failed
/// operation.
pub fn traced_metrics(cycles: &[TracedCycle], m: &mut Values, check: &mut Check) {
    let first = &cycles[0];
    for c in &cycles[1..] {
        check.record(if c.counts == first.counts {
            Ok(())
        } else {
            Err("work counts differ between two traced cycles".into())
        });
    }
    for (i, layer) in LAYERS.iter().enumerate() {
        m.set(
            &format!("{layer}_self_ms"),
            median_by(cycles, |c| c.layers[i]) * 1e3,
        );
    }
    first.counts.write(m);
    m.set(
        "cpu.wall_over_modeled",
        ratio(median_by(cycles, |c| c.run_s), first.counts.modeled_s),
    );
    m.set(
        "engine.scan_row.ns_per_tuple",
        median_by(cycles, |c| ratio(c.row_scan.0 * 1e9, c.row_scan.1)),
    );
    m.set(
        "engine.scan_col.ns_per_value",
        median_by(cycles, |c| ratio(c.col_scan.0 * 1e9, c.col_scan.1)),
    );
    m.set(
        "engine.scan_col.driven_ns_per_value",
        median_by(cycles, TracedCycle::driven_ns_per_value),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::scan_cells;
    use crate::stairs::MATERIALIZE;
    use crate::tables::{load, TableId};
    use rodb::storage::BuildLayouts;

    #[test]
    fn staircase_of_a_real_cycle_reconciles() {
        let wanted: Vec<_> = TableId::ALL
            .iter()
            .map(|&id| (id, BuildLayouts::column_only()))
            .collect();
        let loaded = load(&wanted, 1_000, 3, false);
        let cells = scan_cells(&loaded, Path::ColFast);
        let mut spans = Spans::new(true);
        let mut cycle = TracedCycle::default();
        let mut collect_s = 0.0;
        for cell in &cells {
            collect_s += cycle.add_cell(cell, 1, &mut spans).unwrap().collect_s();
        }
        // Stairs telescope: layers up to core.query are the wall of `run`,
        // all layers the wall of `run_collect`.
        let upto_core: f64 = cycle.layers[..=CORE_QUERY].iter().sum();
        assert!((upto_core - cycle.run_s).abs() < 1e-9);
        let all: f64 = cycle.layers[..=MATERIALIZE].iter().sum();
        assert!((all - collect_s).abs() < 1e-9);
        // The spans say the same: each cell span covers its seven stairs.
        let own = spans.self_ns();
        for (s, own_ns) in spans.spans().iter().zip(own) {
            if s.parent.is_none() {
                assert!(
                    own_ns <= s.duration_ns() / 10,
                    "{}: uncovered {own_ns} ns",
                    s.name
                );
            }
        }
        // And the engine's counts repeat exactly on a second replay.
        let mut again = TracedCycle::default();
        for cell in &cells {
            again.add_cell(cell, 1, &mut Spans::new(false)).unwrap();
        }
        assert_eq!(again.counts, cycle.counts);
    }

    #[test]
    fn budget_rule_stops_near_the_requested_length() {
        let started = Instant::now() - std::time::Duration::from_secs(8);
        // Two 4 s units done, 10 s wanted: a third would overshoot by more.
        assert!(budget_spent(started, 2, 10.0));
        // Eight 1 s units done: two more fit.
        assert!(!budget_spent(started, 8, 10.0));
        // Nothing done yet: always run at least one unit.
        assert!(!budget_spent(started, 0, 1.0));
    }
}
