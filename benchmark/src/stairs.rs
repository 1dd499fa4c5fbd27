//! The staircase: a query replayed as cumulative stairs, each adding one
//! layer's work to the previous one, all through public functions of the
//! layers. A layer's self time is its stair minus the stair below it, so
//! the self times up to `core.query` add up to the wall of
//! `QueryBuilder::run` by construction.

use std::hint::black_box;

use rodb::engine::{
    run_to_completion, Aggregate, Chain, ExecContext, MemScan, Operator, RunReport, ScanLayout,
    ScanSpec,
};
use rodb::io::FileStream;
use rodb::storage::{ColumnPage, PackedRowPage, RowFormat, RowPage};
use rodb::types::{DataType, HardwareConfig};

use crate::cells::{solo_sys, Cell};
use crate::spans::Spans;

/// Layers in stair order. `core.service` has no stair of its own: it is a
/// batch's wall minus the solo `run_collect` walls of its riders.
pub const LAYERS: [&str; 8] = [
    "io.stream",
    "storage.parse",
    "compress.decode",
    "engine.scan",
    "engine.agg",
    "core.query",
    "engine.materialize",
    "core.service",
];
pub const CORE_QUERY: usize = 5;
pub const MATERIALIZE: usize = 6;
pub const SERVICE: usize = 7;

/// Self seconds per layer, indexed like [`LAYERS`].
pub type LayerTimes = [f64; 8];

/// One replayed cell.
pub struct Staircase {
    /// Cumulative wall seconds of the seven stairs (`core.service` excluded).
    pub stairs: [f64; 7],
    /// What `QueryBuilder::run` reported: the modeled clock and the counts.
    pub report: RunReport,
}

impl Staircase {
    pub fn self_times(&self) -> LayerTimes {
        let mut own = [0.0; 8];
        let mut below = 0.0;
        for (i, &stair) in self.stairs.iter().enumerate() {
            own[i] = stair - below;
            below = stair;
        }
        own
    }

    /// Wall of `QueryBuilder::run`.
    pub fn run_s(&self) -> f64 {
        self.stairs[CORE_QUERY]
    }

    /// Wall of `QueryBuilder::run_collect`.
    pub fn collect_s(&self) -> f64 {
        self.stairs[MATERIALIZE]
    }
}

#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Depth {
    Stream,
    Parse,
    Decode,
}

fn ctx_for(cell: &Cell) -> ExecContext {
    ExecContext::new(HardwareConfig::default(), solo_sys(cell.path), 1.0)
        .expect("benchmark configuration is valid")
}

/// Stairs 1–3: stream the files the query touches; then also open every
/// page (checksum + header); then also decode what the cell's scan path
/// decodes wholesale. That is the predicate column through the cursor on
/// the scalar paths, and on the fast path every needed integer column
/// through the block kernels. Values a scanner fetches one qualifying
/// position at a time are the scanner's own work, not this stair's.
fn page_stair(cell: &Cell, depth: Depth) -> rodb::types::Result<u64> {
    let ctx = ctx_for(cell);
    let table = &cell.table;
    let needed = cell.needed_columns();
    // The column every scan path reads in full: the predicate's.
    let first = cell
        .query
        .lt
        .map_or(cell.query.projection[0], |(col, _)| col);
    let mut acc = 0u64;
    let mut scratch = Vec::new();
    if cell.path.layout() == ScanLayout::Row {
        let rs = table.row_storage()?;
        let mut stream = FileStream::new(
            ctx.disk.clone(),
            ctx.next_file_id(),
            rs.file.clone(),
            rs.page_size,
        )?;
        while let Some(p) = stream.next_page() {
            acc += p.page_index as u64;
            if depth < Depth::Parse {
                continue;
            }
            match &rs.format {
                RowFormat::Plain { stored_width } => {
                    let page = RowPage::new(p.bytes(), *stored_width)?;
                    acc += page.count() as u64;
                    if depth >= Depth::Decode {
                        // Plain tuples are stored decoded; touching each one
                        // is all a scan has to do before its predicate.
                        for raw in page.tuples() {
                            acc += raw[0] as u64;
                        }
                    }
                }
                RowFormat::Packed { comps, .. } => {
                    let page = PackedRowPage::new(p.bytes(), comps)?;
                    acc += page.count() as u64;
                    if depth >= Depth::Decode {
                        let mut cur = page.cursor(&table.schema, comps);
                        while cur.advance()? {
                            scratch.clear();
                            cur.field_raw(first, &mut scratch)?;
                            acc += scratch[0] as u64;
                        }
                    }
                }
                RowFormat::Pax => unreachable!("the benchmark loads no PAX table"),
            }
        }
    } else {
        let cs = table.col_storage()?;
        let mut ints = Vec::new();
        for &c in &needed {
            let col = &cs.columns[c];
            let dtype = table.schema.dtype(c);
            let mut stream = FileStream::new(
                ctx.disk.clone(),
                ctx.next_file_id(),
                col.file.clone(),
                col.page_size,
            )?;
            while let Some(p) = stream.next_page() {
                acc += p.page_index as u64;
                if depth < Depth::Parse {
                    continue;
                }
                let page = ColumnPage::new(p.bytes(), dtype)?;
                acc += page.count() as u64;
                if depth < Depth::Decode {
                    continue;
                }
                let pv = page.values(&col.comp);
                if cell.path.fast() && dtype == DataType::Int {
                    ints.clear();
                    pv.decode_ints_into(&mut ints)?;
                    acc += ints.last().copied().unwrap_or(0) as u64;
                } else if c == first {
                    let mut cur = pv.cursor();
                    for _ in 0..pv.count() {
                        scratch.clear();
                        cur.next_raw(&mut scratch)?;
                        acc += scratch[0] as u64;
                    }
                }
            }
        }
    }
    Ok(acc)
}

/// Stairs 4–5: the scan operator alone, then with the aggregate on top,
/// built exactly as `QueryBuilder` builds them.
fn operator_stair(cell: &Cell, with_agg: bool) -> rodb::types::Result<RunReport> {
    let ctx = ctx_for(cell);
    let mut op: Box<dyn Operator> = ScanSpec::new(
        cell.table.clone(),
        cell.path.layout(),
        cell.query.projection.clone(),
    )
    .with_predicates(cell.predicates())
    .build(&ctx)?;
    if let Some(tail) = cell.tail.as_ref().filter(|t| !t.is_empty()) {
        let mem = MemScan::new(
            &cell.table.schema,
            tail.clone(),
            cell.query.projection.clone(),
            cell.predicates(),
            cell.table.row_count,
            &ctx,
        )?;
        op = Box::new(Chain::new(op, Box::new(mem))?);
    }
    if with_agg {
        let (group, specs, strategy) = cell.agg_plan().expect("with_agg implies an aggregate");
        op = Box::new(Aggregate::new(op, Some(group), specs, strategy, &ctx)?);
    }
    run_to_completion(op.as_mut(), &ctx)
}

/// Replay `cell` as stairs, one span per stair under the open operation.
pub fn staircase(cell: &Cell, spans: &mut Spans) -> rodb::types::Result<Staircase> {
    let mut stairs = [0.0; 7];
    for (i, depth) in [Depth::Stream, Depth::Parse, Depth::Decode]
        .into_iter()
        .enumerate()
    {
        let open = spans.enter(LAYERS[i]);
        let acc = page_stair(cell, depth);
        stairs[i] = spans.exit(open);
        black_box(acc?);
    }

    let open = spans.enter(LAYERS[3]);
    let scanned = operator_stair(cell, false);
    stairs[3] = spans.exit(open);
    black_box(scanned?.rows);

    // Without an aggregate the stair is the scan stair: zero self time.
    stairs[4] = stairs[3];
    if cell.query.agg.is_some() {
        let open = spans.enter(LAYERS[4]);
        let aggregated = operator_stair(cell, true);
        stairs[4] = spans.exit(open);
        black_box(aggregated?.rows);
    }

    let qb = cell.builder();
    let open = spans.enter(LAYERS[CORE_QUERY]);
    let ran = qb.run();
    let report = ran.as_ref().ok().map(|r| r.report.clone());
    if let Some(r) = &report {
        spans.count("rows_out", r.rows as f64);
        spans.count("bytes_read", r.io.bytes_read);
        spans.count("modeled_s", r.elapsed_s);
    }
    stairs[CORE_QUERY] = spans.exit(open);
    ran?;

    let open = spans.enter(LAYERS[MATERIALIZE]);
    let collected = qb.run_collect();
    stairs[MATERIALIZE] = spans.exit(open);
    black_box(collected?.rows.len());

    Ok(Staircase {
        stairs,
        report: report.expect("run succeeded"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_core_stair() {
        let report = rodb::core::QueryBuilder::new(
            std::sync::Arc::new(
                rodb::tpch::load_orders(
                    10,
                    1,
                    4096,
                    rodb::storage::BuildLayouts::row_only(),
                    rodb::tpch::Variant::Plain,
                )
                .unwrap(),
            ),
            HardwareConfig::default(),
            Default::default(),
        )
        .layout(ScanLayout::Row)
        .select_first(1)
        .run()
        .unwrap()
        .report;
        let s = Staircase {
            stairs: [1.0, 3.0, 3.5, 9.0, 9.0, 9.25, 12.0],
            report,
        };
        let own = s.self_times();
        assert_eq!(own, [1.0, 2.0, 0.5, 5.5, 0.0, 0.25, 2.75, 0.0]);
        assert_eq!(own[..=CORE_QUERY].iter().sum::<f64>(), s.run_s());
        assert_eq!(own.iter().sum::<f64>(), s.collect_s());
    }
}
