//! Figure 2 — average speedup of columns over rows (contour plot).
//!
//! "Each color represents a speedup range achieved by a column system over a
//! row system when performing a simple scan of a relation, selecting 10% of
//! the tuples and projecting 50% of the tuple attributes."
//!
//! Regenerates the surface from the Section-5 analytical model populated
//! with the simulator's calibrated scanner costs, and prints both the raw
//! numbers and the paper's contour buckets.

use std::fmt::Write;

use rodb_model::{bucket, surface, Figure2Config};

use crate::{banner, Result};

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Figure 2",
        "column/row speedup surface (50% projection, 10% selectivity)",
    );
    let cfg = Figure2Config::default();
    let cells = surface(&cfg);

    writeln!(
        o,
        "\nSpeedup values (rows: cpdb, cols: tuple width in bytes)"
    )?;
    write!(o, "{:>6} |", "cpdb")?;
    for w in &cfg.widths {
        write!(o, " {:>6}", w)?;
    }
    writeln!(o, "\n{}", "-".repeat(8 + 7 * cfg.widths.len()))?;
    for (i, cpdb) in cfg.cpdbs.iter().enumerate().rev() {
        write!(o, "{cpdb:>6} |")?;
        for j in 0..cfg.widths.len() {
            write!(o, " {:>6.2}", cells[i * cfg.widths.len() + j].speedup)?;
        }
        writeln!(o)?;
    }

    writeln!(o, "\nContour buckets (paper legend: 0.4-0.8 ... 1.8-2.0)")?;
    write!(o, "{:>6} |", "cpdb")?;
    for w in &cfg.widths {
        write!(o, " {:>8}", w)?;
    }
    writeln!(o)?;
    for (i, cpdb) in cfg.cpdbs.iter().enumerate().rev() {
        write!(o, "{cpdb:>6} |")?;
        for j in 0..cfg.widths.len() {
            write!(o, " {:>8}", bucket(cells[i * cfg.widths.len() + j].speedup))?;
        }
        writeln!(o)?;
    }

    // The paper's two headline claims about this figure.
    let row_wins: Vec<_> = cells.iter().filter(|c| c.speedup < 1.0).collect();
    writeln!(o, "\nCells where the ROW store wins (speedup < 1):")?;
    if row_wins.is_empty() {
        writeln!(o, "  none")?;
    }
    for c in &row_wins {
        writeln!(
            o,
            "  width {:>4}B cpdb {:>5} -> {:.2}",
            c.tuple_width, c.cpdb, c.speedup
        )?;
    }
    let widest = row_wins
        .iter()
        .map(|c| c.tuple_width)
        .fold(0.0f64, f64::max);
    let cpdb = row_wins.iter().map(|c| c.cpdb).fold(0.0f64, f64::max);
    writeln!(
        o,
        "\nPaper: \"row stores have a potential advantage only when a relation \
         is lean (less than 20 bytes), and only for CPU-constrained \
         environments (low cpdb)\"\n\
         Measured: rows win only up to {widest} bytes and only at cpdb <= {cpdb}"
    )?;
    Ok(o)
}
