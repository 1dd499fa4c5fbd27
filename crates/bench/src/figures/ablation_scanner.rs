//! Ablation (beyond the paper's measurements) — pipelined vs
//! single-iterator column scanner.
//!
//! §4.2 attributes the column store's selectivity-dependent CPU behaviour to
//! "the pipelined column scanner architecture used in this paper" and
//! sketches the alternative (PAX/MonetDB-style) single-iterator scanner as
//! out of scope. This harness measures both across the selectivity range,
//! showing where each wins — the crossover the paper predicts.

use std::fmt::Write;

use rodb_core::scan_report;
use rodb_engine::{Predicate, ScanLayout};
use rodb_tpch::{partkey_threshold, Variant};

use crate::{banner, lineitem, paper_config, Result};

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Ablation",
        "pipelined vs single-iterator column scanner (LINEITEM, 8 attrs)",
    );
    let t = lineitem(Variant::Plain)?;
    let cfg = paper_config();
    let proj: Vec<usize> = (0..8).collect();

    writeln!(
        o,
        "\n{:>12} {:>14} {:>14} {:>14} {:>14}",
        "selectivity", "pipelined-cpu", "single-cpu", "pipelined-tot", "single-tot"
    )?;
    let mut crossover = None;
    let sels = [0.0001, 0.001, 0.01, 0.1, 0.3, 0.5, 0.8, 1.0];
    let mut prev_sign = None;
    for &sel in &sels {
        let pred = Predicate::lt(0, partkey_threshold(sel));
        let pipe = scan_report(&t, ScanLayout::Column, &proj, pred.clone(), &cfg)?;
        let single = scan_report(&t, ScanLayout::ColumnSingleIterator, &proj, pred, &cfg)?;
        writeln!(
            o,
            "{:>12} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            sel,
            pipe.cpu.total(),
            single.cpu.total(),
            pipe.elapsed_s,
            single.elapsed_s
        )?;
        let sign = single.cpu.total() < pipe.cpu.total();
        if let Some(p) = prev_sign {
            if p != sign && crossover.is_none() {
                crossover = Some(sel);
            }
        }
        prev_sign = Some(sign);
    }
    match crossover {
        Some(s) => writeln!(
            o,
            "\nCPU crossover near selectivity {s}: below it the pipelined scanner \
             wins (extra columns are ~free), above it the single-iterator wins \
             (no per-position machinery) — §4.2's prediction."
        )?,
        None => writeln!(o, "\nNo crossover in the tested range.")?,
    }
    Ok(o)
}
