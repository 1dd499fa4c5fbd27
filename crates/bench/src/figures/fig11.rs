//! Figure 11 — prefetch size under a concurrent competing scan.
//!
//! Repeats the Figure 8 experiment at prefetch depths 48, 8 and 2 while a
//! separate process scans LINEITEM with a matched prefetch size. The column
//! system outperforms the row system in every configuration — being one
//! step ahead in its disk-request submissions favours it at the controller —
//! while the "slow" column variant (one request at a time) lands back near
//! the row store.

use std::fmt::Write;

use rodb_core::projectivity_sweep;
use rodb_engine::{Predicate, ScanLayout};
use rodb_tpch::{orderdate_threshold, Variant};

use crate::{banner, orders, paper_config, Result};

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Figure 11",
        "ORDERS scan + competing LINEITEM scan, prefetch 48/8/2",
    );
    let t = orders(Variant::Plain)?;
    let pred = Predicate::lt(0, orderdate_threshold(0.10));

    for depth in [48usize, 8, 2] {
        let cfg = paper_config()
            .with_prefetch_depth(depth)
            .with_competing_scans(1);
        let rows = projectivity_sweep(&t, ScanLayout::Row, &pred, &cfg)?;
        let cols = projectivity_sweep(&t, ScanLayout::Column, &pred, &cfg)?;
        let slow = projectivity_sweep(&t, ScanLayout::ColumnSlow, &pred, &cfg)?;

        writeln!(o, "\nPrefetch depth {depth} (with one competing scan):")?;
        writeln!(
            o,
            "{:>6} {:>6} {:>10} {:>12} {:>14}",
            "attrs", "bytes", "row", "column", "column-slow"
        )?;
        for i in 0..rows.len() {
            writeln!(
                o,
                "{:>6} {:>6} {:>10.2} {:>12.2} {:>14.2}",
                rows[i].attrs,
                rows[i].selected_bytes,
                rows[i].report.elapsed_s,
                cols[i].report.elapsed_s,
                slow[i].report.elapsed_s,
            )?;
        }
        let full = rows.len() - 1;
        let (r, c, s) = (
            rows[full].report.elapsed_s,
            cols[full].report.elapsed_s,
            slow[full].report.elapsed_s,
        );
        writeln!(
            o,
            "  full projection: column {:.2}s < row {:.2}s (paper: column wins \
             even selecting all columns); slow {:.2}s ≈ row",
            c, r, s
        )?;
        ensure!(c < r, "depth {depth}: column {c:.2}s must beat row {r:.2}s");
    }
    writeln!(
        o,
        "\nPaper: \"Being one step ahead allows the column system to be more \
         aggressive in its submission of disk requests, and ... to get \
         favored by the disk controller.\""
    )?;
    Ok(o)
}
