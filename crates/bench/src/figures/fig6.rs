//! Figure 6 — baseline experiment.
//!
//! `select L1, L2 … from LINEITEM where predicate(L1) yields 10% selectivity`
//!
//! Left graph: total elapsed (I/O-bound) and CPU time vs. number of selected
//! attributes, row and column store, x-axis spaced by selected bytes.
//! Right graph: CPU time breakdowns (sys / usr-uop / usr-L2 / usr-L1 /
//! usr-rest). The column store crosses above the row store around 85% of the
//! tuple width.

use std::fmt::Write;

use rodb_core::{crossover_fraction, format_breakdowns, format_sweep, projectivity_sweep};
use rodb_engine::{Predicate, ScanLayout};
use rodb_tpch::{partkey_threshold, Variant};

use crate::{banner, lineitem, paper_config, Result};

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Figure 6",
        "LINEITEM scan, 10% selectivity, projectivity sweep",
    );
    let t = lineitem(Variant::Plain)?;
    let cfg = paper_config();
    let pred = Predicate::lt(0, partkey_threshold(0.10));

    let rows = projectivity_sweep(&t, ScanLayout::Row, &pred, &cfg)?;
    let cols = projectivity_sweep(&t, ScanLayout::Column, &pred, &cfg)?;

    let sweep = format_sweep(
        "Figure 6 (left): elapsed seconds vs selected attributes",
        &[("row", &rows), ("column", &cols)],
    );
    let row_cpu = format_breakdowns(
        "Figure 6 (right, row store): CPU breakdown, 1 and 16 attrs",
        &[rows[0].clone(), rows[15].clone()],
    );
    let col_cpu = format_breakdowns(
        "Figure 6 (right, column store): CPU breakdown, 1..16 attrs",
        &cols,
    );
    writeln!(o, "\n{sweep}\n{row_cpu}\n{col_cpu}")?;

    match crossover_fraction(&rows, &cols) {
        Some(f) => writeln!(
            o,
            "Crossover: column store loses above ~{:.0}% of tuple bytes (paper: ~85%)",
            f * 100.0
        )?,
        None => writeln!(o, "Crossover: none — columns faster at every projectivity")?,
    }
    let r = &rows[0].report;
    writeln!(
        o,
        "\nRow store elapsed {:.1}s (paper ≈ 53s: 9.5 GB / 180 MB/s); io-bound: {}",
        r.elapsed_s,
        r.io_bound()
    )?;
    Ok(o)
}
