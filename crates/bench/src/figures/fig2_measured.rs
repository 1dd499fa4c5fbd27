//! Figure 2, corroborated by measurement.
//!
//! The paper constructs Figure 2 "from the speedup formula, filling up
//! actual CPU rates from our experimental section". This harness closes the
//! same loop in reverse: for each cpdb row of the surface it *runs the
//! engine* (synthetic tables of each width, 50% projection, 10% selectivity)
//! on a platform configured to that cpdb, and compares the measured
//! column/row speedup with the model's prediction.

use std::fmt::Write;
use std::sync::Arc;

use rodb_core::ExperimentConfig;
use rodb_engine::{Predicate, ScanLayout};
use rodb_model::{speedup_at, Figure2Config};
use rodb_storage::{BuildLayouts, Table, TableBuilder};
use rodb_types::{Column, HardwareConfig, Schema, Value};

use crate::{banner, Result, VIRTUAL_ROWS};

fn synthetic_table(width_bytes: usize, rows: u64) -> Result<Arc<Table>> {
    let nattrs = width_bytes / 4;
    let cols: Vec<Column> = (0..nattrs).map(|i| Column::int(format!("a{i}"))).collect();
    let schema = Arc::new(Schema::new(cols)?);
    let mut b = TableBuilder::new("syn", schema, 4096, BuildLayouts::both())?;
    for i in 0..rows {
        let row: Vec<Value> = (0..nattrs)
            .map(|c| Value::Int(((i as i64 * (c as i64 * 7 + 1)) % 1000) as i32))
            .collect();
        b.push_row(&row)?;
    }
    Ok(Arc::new(b.finish()?))
}

/// A platform with the requested cpdb (vary the clock, keep the paper's
/// disks).
fn platform(cpdb: f64) -> HardwareConfig {
    HardwareConfig {
        clock_hz: cpdb * 180.0e6,
        ..HardwareConfig::default()
    }
}

pub(super) fn run() -> Result<String> {
    let mut o = banner(
        "Figure 2 (measured)",
        "engine-measured speedup vs model prediction, 50% proj / 10% sel",
    );
    let rows = 100_000;
    let cfg = Figure2Config::default();
    let widths = [8usize, 16, 24, 32];
    let cpdbs = [9.0, 18.0, 72.0];

    writeln!(
        o,
        "\n{:>6} {:>6} | {:>9} {:>9} {:>7}",
        "cpdb", "width", "measured", "model", "ratio"
    )?;
    let mut worst: f64 = 1.0;
    for &cpdb in &cpdbs {
        for &w in &widths {
            let t = synthetic_table(w, rows)?;
            let nattrs = w / 4;
            let proj: Vec<usize> = (0..nattrs / 2).collect();
            let pred = Predicate::lt(0, 100); // values uniform in [0,1000) → 10%
            let ec = ExperimentConfig {
                hw: platform(cpdb),
                virtual_rows: VIRTUAL_ROWS,
                ..Default::default()
            };
            let row = rodb_core::scan_report(&t, ScanLayout::Row, &proj, pred.clone(), &ec)?;
            let col = rodb_core::scan_report(&t, ScanLayout::Column, &proj, pred, &ec)?;
            let measured = row.elapsed_s / col.elapsed_s;
            let model = speedup_at(&cfg, w as f64, cpdb);
            writeln!(
                o,
                "{:>6} {:>6} | {:>9.2} {:>9.2} {:>7.2}",
                cpdb,
                w,
                measured,
                model,
                measured / model
            )?;
            worst = worst.max((measured / model).max(model / measured));
        }
    }
    writeln!(
        o,
        "\nworst measured/model disagreement: {worst:.2}x \
         (the model ignores seeks — §5: \"for simplicity, we do not model disk \
         seeks\" — so measured speedups run slightly below prediction for \
         multi-column scans)"
    )?;
    Ok(o)
}
