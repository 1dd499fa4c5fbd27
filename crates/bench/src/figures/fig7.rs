//! Figure 7 — effect of selectivity (0.1%).
//!
//! `select L1, L2 … from LINEITEM where predicate(L1) yields 0.1% selectivity`
//!
//! I/O is unchanged; the row store's CPU stays the same (it still examines
//! every tuple); the column store's extra scan nodes become almost free —
//! each processes ~1/1000 of the values — and the big-string memory-transfer
//! component disappears.

use std::fmt::Write;

use rodb_core::{format_breakdowns, format_sweep, projectivity_sweep};
use rodb_engine::{Predicate, ScanLayout};
use rodb_tpch::{partkey_threshold, Variant};

use crate::{banner, lineitem, paper_config, Result};

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Figure 7",
        "LINEITEM scan, 0.1% selectivity, CPU breakdowns",
    );
    let t = lineitem(Variant::Plain)?;
    let cfg = paper_config();
    let pred = Predicate::lt(0, partkey_threshold(0.001));

    let rows = projectivity_sweep(&t, ScanLayout::Row, &pred, &cfg)?;
    let cols = projectivity_sweep(&t, ScanLayout::Column, &pred, &cfg)?;

    let sweep = format_sweep(
        "Elapsed seconds (I/O identical to Figure 6)",
        &[("row", &rows), ("column", &cols)],
    );
    let row_cpu = format_breakdowns(
        "Row store CPU breakdown (1 and 16 attrs)",
        &[rows[0].clone(), rows[15].clone()],
    );
    let col_cpu = format_breakdowns("Column store CPU breakdown (1..16 attrs)", &cols);
    writeln!(o, "\n{sweep}\n{row_cpu}\n{col_cpu}")?;

    // The paper's two observations, quantified.
    let col_cpu_1 = cols[0].report.cpu.user();
    let col_cpu_16 = cols[15].report.cpu.user();
    writeln!(
        o,
        "Column user-CPU grows only {:.2}x from 1 to 16 attrs at 0.1% selectivity \
         (paper: \"negligible CPU work\" per extra column)",
        col_cpu_16 / col_cpu_1
    )?;
    let strings_l2 = cols[10].report.cpu.usr_l2 - cols[7].report.cpu.usr_l2;
    writeln!(
        o,
        "Adding the three string columns adds only {:.2}s of usr-L2 \
         (paper: the string transfer cost is \"no longer an issue\")",
        strings_l2
    )?;
    Ok(o)
}
