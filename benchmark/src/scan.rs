//! `row_scan`, `col_scan_scalar`, `col_scan_fast`: the same 26 cells on the
//! three scan paths.

use std::time::Instant;

use rodb::storage::BuildLayouts;
use rodb::types::Value;

use crate::cells::{scan_cells, Cell, Path};
use crate::oracle::{self, same_rows};
use crate::probes;
use crate::run::{
    budget_spent, run_mix, timing_metrics, traced_metrics, Args, Check, Op, Outcome, TracedCycle,
};
use crate::spans::Spans;
use crate::stats::median_by;
use crate::tables::{self, Loaded, TableId};

/// The oracle's source rows for the tables of `loaded`, generated once per
/// base table (a -Z table holds the same rows as its plain twin).
pub struct Sources {
    lineitem: Vec<Vec<Value>>,
    orders: Vec<Vec<Value>>,
}

impl Sources {
    pub fn generate(loaded: &Loaded, args: &Args) -> Sources {
        let want = |lineitem: bool| {
            loaded
                .tables
                .iter()
                .any(|(id, _)| id.is_lineitem() == lineitem)
        };
        let gen = |id: TableId, wanted: bool| {
            if wanted {
                oracle::generate(id, args.rows, args.seed)
            } else {
                Vec::new()
            }
        };
        Sources {
            lineitem: gen(TableId::Lineitem, want(true)),
            orders: gen(TableId::Orders, want(false)),
        }
    }

    pub fn of(&self, cell: &Cell) -> &[Vec<Value>] {
        if cell.table.name.starts_with("lineitem") {
            &self.lineitem
        } else {
            &self.orders
        }
    }
}

/// Run every cell once with collected rows and compare them with the
/// oracle: the correctness check of each distinct query, and the untimed
/// warm-up cycle. Returns each cell's expected result row count.
pub fn verify(cells: &[Cell], sources: &Sources, check: &mut Check) -> Vec<u64> {
    cells
        .iter()
        .map(|cell| {
            let expected = oracle::expected(sources.of(cell).iter(), &cell.query);
            check.record(match cell.builder().run_collect() {
                Ok(r) if same_rows(&r.rows, &expected, cell.query.agg.is_none()) => Ok(()),
                Ok(r) => Err(format!(
                    "{}: rows differ from the oracle ({} vs {} rows)",
                    cell.name,
                    r.rows.len(),
                    expected.len()
                )),
                Err(e) => Err(format!("{}: {e}", cell.name)),
            });
            expected.len() as u64
        })
        .collect()
}

pub fn run(path: Path, args: &Args) -> Outcome {
    let layouts = if path == Path::Row {
        BuildLayouts::row_only()
    } else {
        BuildLayouts::column_only()
    };
    let wanted: Vec<_> = TableId::ALL.iter().map(|&id| (id, layouts)).collect();
    let mut loaded = tables::load(&wanted, args.rows, args.seed, !args.trace);
    let cells = scan_cells(&loaded, path);

    let mut check = Check::default();
    let expect = verify(&cells, &Sources::generate(&loaded, args), &mut check);

    let mut out = Outcome {
        check,
        ..Outcome::default()
    };
    if args.trace {
        traced(&cells, args, &mut out);
        return out;
    }

    let mut ops: Vec<Op> = cells
        .iter()
        .zip(&expect)
        .map(|(cell, &expect_rows)| {
            let qb = cell.builder();
            let collect = cell.collect;
            Op {
                name: cell.name.clone(),
                per_cycle: 1,
                input_rows: cell.input_rows(),
                expect_rows,
                run: Box::new(move || {
                    let ran = if collect { qb.run_collect() } else { qb.run() };
                    ran.map(|r| r.report.rows).map_err(|e| e.to_string())
                }),
            }
        })
        .collect();
    let walls = run_mix(&mut ops, args.seconds, &mut out.check);

    let rows_per_cycle = ops.iter().map(|o| o.input_rows).sum();
    let per_op: Vec<(String, &[f64], usize)> = ops
        .iter()
        .zip(&walls.op_s)
        .map(|(op, s)| (op.name.clone(), s.as_slice(), 1))
        .collect();
    timing_metrics(&mut out, rows_per_cycle, &walls.cycle_s, &per_op);
    let stored = loaded.stored_bytes_per_user_byte;
    out.resource_metrics(&mut loaded, stored);
    out
}

fn traced(cells: &[Cell], args: &Args, out: &mut Outcome) {
    let mut spans = Spans::new(true);
    let mut cycles = Vec::new();
    let started = Instant::now();
    while !budget_spent(started, cycles.len(), args.seconds) {
        let mut cycle = TracedCycle::default();
        for cell in cells {
            let replay = cycle.add_cell(cell, 1, &mut spans).map(|_| ());
            out.check.record(replay);
        }
        cycles.push(cycle);
    }
    traced_metrics(&cycles, &mut out.metrics, &mut out.check);
    let run_once_s = median_by(&cycles, |c| c.run_once_s);
    probes::finish_traced(out, spans, &mut cycles, cells, run_once_s, args);
}
