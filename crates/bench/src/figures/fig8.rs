//! Figure 8 — effect of narrow tuples.
//!
//! `select O1, O2 … from ORDERS where predicate(O1) yields 10% selectivity`
//!
//! Both systems stay I/O-bound on totals; in the CPU view, system time is a
//! smaller share (same tuples, less I/O per tuple) and the memory-transfer
//! components vanish — the bus outruns the CPU on 32-byte tuples. The paper
//! notes that memory-resident, this query favours rows at any projectivity.

use std::fmt::Write;

use rodb_core::{format_breakdowns, format_sweep, projectivity_sweep};
use rodb_engine::{Predicate, ScanLayout};
use rodb_tpch::{orderdate_threshold, Variant};

use crate::{banner, orders, paper_config, Result};

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Figure 8",
        "ORDERS (narrow 32-byte tuples), 10% selectivity",
    );
    let t = orders(Variant::Plain)?;
    let cfg = paper_config();
    let pred = Predicate::lt(0, orderdate_threshold(0.10));

    let rows = projectivity_sweep(&t, ScanLayout::Row, &pred, &cfg)?;
    let cols = projectivity_sweep(&t, ScanLayout::Column, &pred, &cfg)?;

    let sweep = format_sweep(
        "Elapsed seconds vs selected attributes (x spaced by bytes)",
        &[("row", &rows), ("column", &cols)],
    );
    let row_cpu = format_breakdowns(
        "Row store CPU breakdown (1 and 7 attrs)",
        &[rows[0].clone(), rows[6].clone()],
    );
    let col_cpu = format_breakdowns("Column store CPU breakdown (1..7 attrs)", &cols);
    writeln!(o, "\n{sweep}\n{row_cpu}\n{col_cpu}")?;

    let r = &rows[0].report;
    writeln!(
        o,
        "Row store: elapsed {:.1}s (paper ≈ 10.6s: 1.9 GB / 180 MB/s); \
         sys share of CPU {:.0}% (smaller than LINEITEM's)",
        r.elapsed_s,
        100.0 * r.cpu.sys / r.cpu.total()
    )?;
    let mem = cols.last().ok_or("an empty sweep")?.report.cpu.usr_l2;
    writeln!(
        o,
        "Column store usr-L2 at full projection: {:.2}s (paper: \"memory-related \
         delays are no longer visible\")",
        mem
    )?;
    // Memory-resident comparison: pure user CPU, columns vs rows.
    let cu: f64 = cols.last().ok_or("an empty sweep")?.report.cpu.user();
    let ru: f64 = rows.last().ok_or("an empty sweep")?.report.cpu.user();
    writeln!(
        o,
        "User CPU at 7 attrs: column {:.2}s vs row {:.2}s — memory-resident, \
         rows would win (paper §4.3)",
        cu, ru
    )?;
    Ok(o)
}
