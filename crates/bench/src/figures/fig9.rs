//! Figure 9 — effect of compression (ORDERS-Z, 12-byte packed tuples).
//!
//! `select Oz1, Oz2 … from ORDERS-Z where predicate(Oz1) yields 10% sel.`
//!
//! The column store becomes CPU-bound and its crossover moves left; both
//! systems show reduced system time; the row store shows its first increase
//! in user CPU (decompression); and the FOR-delta codec on O_ORDERKEY shows
//! a CPU jump when attribute 2 joins the selection — plain FOR needs 16 bits
//! instead of 8 but decodes cheaper.

use std::fmt::Write;
use std::sync::Arc;

use rodb_compress::{Codec, ColumnCompression};
use rodb_core::{format_breakdowns, format_sweep, projectivity_sweep};
use rodb_engine::{Predicate, ScanLayout};
use rodb_storage::BuildLayouts;
use rodb_tpch::{load_rows, orderdate_threshold, orders_schema, Variant};

use crate::{banner, lineitem, orders, paper_config, Result, ROWS, SEED};

pub(super) fn run() -> Result<String> {
    let mut o = banner("Figure 9", "ORDERS-Z (compressed), 10% selectivity");
    let cfg = paper_config();
    let pred = Predicate::lt(0, orderdate_threshold(0.10));

    // Default ORDERS-Z: FOR-delta(8 bits) on O_ORDERKEY.
    let t_delta = orders(Variant::Compressed)?;
    // FOR variant: "Plain FOR compression for that attribute ... requires
    // more space (16 bits instead of 8), but is computationally less
    // intensive."
    let mut comps = rodb_tpch::orders_z_compression()?;
    comps[1] = ColumnCompression::new(Codec::For { bits: 16 }, None)?;
    let t_for = Arc::new(load_rows(
        "orders_z_for",
        orders_schema(),
        comps,
        rodb_tpch::OrdersGen::new(ROWS, SEED),
        4096,
        BuildLayouts::both(),
    )?);

    let rows = projectivity_sweep(&t_delta, ScanLayout::Row, &pred, &cfg)?;
    let col_delta = projectivity_sweep(&t_delta, ScanLayout::Column, &pred, &cfg)?;
    let col_for = projectivity_sweep(&t_for, ScanLayout::Column, &pred, &cfg)?;

    let sweep = format_sweep(
        "Figure 9 (left): elapsed seconds (x = uncompressed selected bytes)",
        &[
            ("row", &rows),
            ("col-FORdelta", &col_delta),
            ("col-FOR", &col_for),
        ],
    );
    let row_cpu = format_breakdowns(
        "Row store (packed tuples) CPU: 1 and 7 attrs",
        &[rows[0].clone(), rows[6].clone()],
    );
    let delta_cpu = format_breakdowns(
        "Column store, FOR-delta orderkey: CPU 1..7 attrs",
        &col_delta,
    );
    let for_cpu = format_breakdowns("Column store, plain FOR orderkey: CPU 1..7 attrs", &col_for);
    writeln!(o, "\n{sweep}\n{row_cpu}\n{delta_cpu}\n{for_cpu}")?;

    // Headline effects.
    let jump_delta = col_delta[1].report.cpu.user() - col_delta[0].report.cpu.user();
    let jump_for = col_for[1].report.cpu.user() - col_for[0].report.cpu.user();
    writeln!(
        o,
        "CPU jump when attribute 2 joins the selection: FOR-delta +{jump_delta:.2}s \
         vs FOR +{jump_for:.2}s (paper: delta shows \"a sudden jump\")"
    )?;
    let last = col_delta.last().ok_or("an empty sweep")?;
    writeln!(
        o,
        "Column store at full projection: cpu {:.1}s vs io {:.1}s -> {} \
         (paper: the compressed column store becomes CPU-bound)",
        last.report.cpu.total(),
        last.report.io_s(),
        if last.report.io_bound() {
            "io-bound"
        } else {
            "cpu-bound"
        }
    )?;
    writeln!(
        o,
        "Row store sys time {:.2}s vs uncompressed ORDERS' ≈1.0s \
         (paper: \"Both systems exhibit reduced system times\")",
        rows[0].report.cpu.sys
    )?;

    // §4.4's preamble: "we initially ran a selection query on LINEITEM-Z.
    // However, the results for total time did not offer any new insights
    // (the LINEITEM-Z tuple is 52 bytes, and we already saw the effect of a
    // 32-byte wide tuple)." Verify that non-result.
    let li_z = lineitem(Variant::Compressed)?;
    let li_pred = Predicate::lt(0, rodb_tpch::partkey_threshold(0.10));
    let lz_rows = projectivity_sweep(&li_z, ScanLayout::Row, &li_pred, &cfg)?;
    let lz_cols = projectivity_sweep(&li_z, ScanLayout::Column, &li_pred, &cfg)?;
    let r = &lz_rows[0].report;
    writeln!(
        o,
        "\nLINEITEM-Z check (§4.4 preamble): row scan {:.1}s, io-bound: {} — \
         a 51-byte packed tuple behaves like the mid-width cases of Fig. 6, \
         no new insight (as the paper found); column stays cheaper until \
         {:.0}% of bytes.",
        r.elapsed_s,
        r.io_bound(),
        100.0 * rodb_core::crossover_fraction(&lz_rows, &lz_cols).unwrap_or(1.0)
    )?;
    Ok(o)
}
