//! Figure 10 — varying the prefetch size when scanning ORDERS.
//!
//! "Since there is only a single scan in the system, prefetch depth does not
//! affect the row system. The column system, however, performs increasingly
//! worse as we reduce prefetching, since it spends more time seeking between
//! columns on disk instead of reading."

use std::fmt::Write;

use rodb_core::projectivity_sweep;
use rodb_engine::{Predicate, ScanLayout};
use rodb_tpch::{orderdate_threshold, Variant};

use crate::{banner, orders, paper_config, Result};

pub(super) fn run() -> Result<String> {
    let mut o = banner("Figure 10", "ORDERS scan, prefetch depth 2/4/8/16/48");
    let t = orders(Variant::Plain)?;
    let pred = Predicate::lt(0, orderdate_threshold(0.10));
    let depths = [2usize, 4, 8, 16, 48];

    // Row store: measure once per depth at full projection (it is flat in
    // projectivity) to show insensitivity.
    writeln!(o, "\nRow store, full projection, per prefetch depth:")?;
    writeln!(o, "{:>7} {:>12} {:>10}", "depth", "elapsed_s", "seeks")?;
    for &d in &depths {
        let cfg = paper_config().with_prefetch_depth(d);
        let rows = projectivity_sweep(&t, ScanLayout::Row, &pred, &cfg)?;
        let r = &rows.last().ok_or("an empty sweep")?.report;
        writeln!(o, "{:>7} {:>12.2} {:>10}", d, r.elapsed_s, r.io.seeks)?;
    }

    // Column store: a full projectivity sweep per depth (the figure's
    // curves), plus the row baseline.
    let cfg48 = paper_config().with_prefetch_depth(48);
    let row48 = projectivity_sweep(&t, ScanLayout::Row, &pred, &cfg48)?;

    writeln!(
        o,
        "\nColumn store elapsed seconds vs selected bytes, per prefetch depth:"
    )?;
    write!(o, "{:>6} {:>6}", "attrs", "bytes")?;
    for &d in &depths {
        write!(o, " {:>9}", format!("col-{d}"))?;
    }
    writeln!(o, " {:>9}", "row")?;
    let mut col_series = Vec::new();
    for &d in &depths {
        let cfg = paper_config().with_prefetch_depth(d);
        col_series.push(projectivity_sweep(&t, ScanLayout::Column, &pred, &cfg)?);
    }
    for i in 0..row48.len() {
        write!(o, "{:>6} {:>6}", row48[i].attrs, row48[i].selected_bytes)?;
        for s in &col_series {
            write!(o, " {:>9.2}", s[i].report.elapsed_s)?;
        }
        writeln!(o, " {:>9.2}", row48[i].report.elapsed_s)?;
    }

    writeln!(o, "\nSeek counts at full projection (7 columns):")?;
    for (d, s) in depths.iter().zip(&col_series) {
        let r = &s.last().ok_or("an empty sweep")?.report;
        writeln!(
            o,
            "  depth {:>2}: {:>7} seeks, {:>6.1}s seeking, {:>6.1}s transferring",
            d, r.io.seeks, r.io.seek_s, r.io.transfer_s
        )?;
    }
    writeln!(
        o,
        "\nPaper: \"It therefore makes sense to aggressively use prefetching in \
         a column system.\""
    )?;
    Ok(o)
}
