//! Ablation (beyond the paper's measurements) — PAX page layout.
//!
//! §6: "PAX proposes a column-based layout for the records within a database
//! page ... However, since PAX does not change the actual contents of the
//! page, I/O performance is identical to that of a row-store."
//!
//! This harness loads LINEITEM three ways — plain rows, PAX rows, columns —
//! and verifies both halves of that sentence: PAX I/O tracks the row store
//! at every projectivity, while its cache behaviour (usr-L1) tracks the
//! column store.

use std::fmt::Write;

use rodb_core::projectivity_sweep;
use rodb_engine::{Predicate, ScanLayout};
use rodb_tpch::{partkey_threshold, Variant};

use crate::{banner, lineitem, paper_config, Result};

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Ablation: PAX",
        "plain rows vs PAX rows vs columns (LINEITEM, 10% selectivity)",
    );
    let cfg = paper_config();
    let pred = Predicate::lt(0, partkey_threshold(0.10));
    let plain = lineitem(Variant::Plain)?;
    let pax = lineitem(Variant::Pax)?;

    let rows = projectivity_sweep(&plain, ScanLayout::Row, &pred, &cfg)?;
    let paxs = projectivity_sweep(&pax, ScanLayout::Row, &pred, &cfg)?;
    let cols = projectivity_sweep(&plain, ScanLayout::Column, &pred, &cfg)?;

    writeln!(
        o,
        "\n{:>6} {:>6} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8}",
        "attrs",
        "bytes",
        "row-io",
        "pax-io",
        "col-io",
        "row-cpu",
        "pax-cpu",
        "col-cpu",
        "row-L1",
        "pax-L1",
        "col-L1"
    )?;
    for i in 0..rows.len() {
        let (r, p, c) = (&rows[i].report, &paxs[i].report, &cols[i].report);
        writeln!(o,
            "{:>6} {:>6} | {:>9.2} {:>9.2} {:>9.2} | {:>9.2} {:>9.2} {:>9.2} | {:>8.3} {:>8.3} {:>8.3}",
            rows[i].attrs,
            rows[i].selected_bytes,
            r.io_s(),
            p.io_s(),
            c.io_s(),
            r.cpu.total(),
            p.cpu.total(),
            c.cpu.total(),
            r.cpu.usr_l1,
            p.cpu.usr_l1,
            c.cpu.usr_l1,
        )?;
    }

    let last = rows.len() - 1;
    writeln!(
        o,
        "\nPAX I/O vs row I/O at full projection: {:.2}s vs {:.2}s \
         (paper: \"I/O performance is identical to that of a row-store\"; \
         PAX packs slightly denser — no per-tuple padding)",
        paxs[last].report.io_s(),
        rows[last].report.io_s()
    )?;
    writeln!(
        o,
        "PAX usr-L1 at 1 attr: {:.3}s vs plain-row {:.3}s, column {:.3}s \
         (the §6 cache-locality benefit)",
        paxs[0].report.cpu.usr_l1, rows[0].report.cpu.usr_l1, cols[0].report.cpu.usr_l1
    )?;
    let (pax_io, row_io) = (paxs[last].report.io_s(), rows[last].report.io_s());
    ensure!(
        paxs[0].report.cpu.usr_l1 < rows[0].report.cpu.usr_l1,
        "PAX usr-L1 >= rows'"
    );
    ensure!(
        (pax_io - row_io).abs() / row_io < 0.05,
        "PAX I/O {pax_io:.2}s vs rows' {row_io:.2}s"
    );
    Ok(o)
}
