//! §3.1 / Figure 5 — workload self-check.
//!
//! Verifies the generated tables against everything the paper states about
//! them: tuple widths (150/152 and 32 bytes), compressed widths (≈52 and 12
//! bytes), per-attribute codec assignment, on-disk sizes at 60 M rows
//! (9.5 GB / 1.9 GB), and the 4:1 LINEITEM:ORDERS line ratio.

use std::fmt::Write;

use rodb_tpch::{
    compressed_bits, lineitem_schema, lineitem_z_compression, orders_schema, orders_z_compression,
    Variant,
};

use crate::{banner, lineitem, orders, Result, ROWS, SEED};

pub(super) fn run() -> Result<String> {
    let mut o = banner("Schema check", "Figure 5 widths, codecs, and table sizes");

    let li = lineitem_schema();
    let or = orders_schema();
    writeln!(
        o,
        "\nLINEITEM: {} attributes, {} bytes ({} stored)",
        li.len(),
        li.logical_width(),
        li.stored_width()
    )?;
    writeln!(
        o,
        "ORDERS:   {} attributes, {} bytes ({} stored)",
        or.len(),
        or.logical_width(),
        or.stored_width()
    )?;
    let lw = (li.logical_width(), li.stored_width());
    let ow = (or.logical_width(), or.stored_width());
    ensure!(lw == (150, 152) && ow == (32, 32), "widths {lw:?} {ow:?}");

    let lz = lineitem_z_compression()?;
    let oz = orders_z_compression()?;
    writeln!(o, "\nPer-attribute codecs (LINEITEM-Z):")?;
    for (i, (c, comp)) in li.columns().iter().zip(&lz).enumerate() {
        writeln!(
            o,
            "  {:>2} {:<16} {:<9} {:>3} bits  {:?}",
            i + 1,
            c.name,
            c.dtype.to_string(),
            comp.bits_per_value(c.dtype),
            comp.codec.kind()
        )?;
    }
    let li_bits = compressed_bits(&li, &lz);
    let or_bits = compressed_bits(&or, &oz);
    writeln!(
        o,
        "\nLINEITEM-Z tuple: {} bits = {:.1} bytes (paper: \"52 bytes\")",
        li_bits,
        li_bits as f64 / 8.0
    )?;
    writeln!(
        o,
        "ORDERS-Z tuple:   {} bits = {:.1} bytes (paper: \"12 bytes\")",
        or_bits,
        or_bits as f64 / 8.0
    )?;
    let bytes = [li_bits.div_ceil(8), or_bits.div_ceil(8)];
    ensure!(matches!(bytes, [51 | 52, 12]), "tuple bytes {bytes:?}");

    // Generated on-disk sizes, extrapolated to the paper's 60 M rows.
    let li_t = lineitem(Variant::Plain)?;
    let or_t = orders(Variant::Plain)?;
    let scale = 60.0e6 / ROWS as f64;
    let li_gb = li_t.row_storage()?.byte_len() as f64 * scale / 1e9;
    let or_gb = or_t.row_storage()?.byte_len() as f64 * scale / 1e9;
    writeln!(o, "\nAt 60 M rows (paper scale):")?;
    writeln!(o, "  LINEITEM row file: {li_gb:.2} GB (paper: 9.5 GB)")?;
    writeln!(o, "  ORDERS row file:   {or_gb:.2} GB (paper: 1.9 GB)")?;
    ensure!((9.2..9.7).contains(&li_gb), "LINEITEM: {li_gb:.2} GB");
    ensure!((1.85..2.0).contains(&or_gb), "ORDERS: {or_gb:.2} GB");

    let li_col_gb = li_t.col_storage()?.byte_len() as f64 * scale / 1e9;
    writeln!(
        o,
        "  LINEITEM column files total: {li_col_gb:.2} GB (dense, no padding)"
    )?;

    // Compressed sizes.
    let li_z = lineitem(Variant::Compressed)?;
    let or_z = orders(Variant::Compressed)?;
    writeln!(
        o,
        "  LINEITEM-Z: row {:.2} GB, columns {:.2} GB",
        li_z.row_storage()?.byte_len() as f64 * scale / 1e9,
        li_z.col_storage()?.byte_len() as f64 * scale / 1e9
    )?;
    writeln!(
        o,
        "  ORDERS-Z:   row {:.2} GB, columns {:.2} GB",
        or_z.row_storage()?.byte_len() as f64 * scale / 1e9,
        or_z.col_storage()?.byte_len() as f64 * scale / 1e9
    )?;

    // TPC-H ratio: ~4 lineitems per order.
    let rows = rodb_tpch::LineitemGen::new(100_000, SEED).collect::<Vec<_>>();
    let orders = rows.last().ok_or("no LINEITEM rows")?[1].as_int()? as f64;
    writeln!(
        o,
        "\nLINEITEM lines per order: {:.2} (TPC-H specifies ~4:1)",
        rows.len() as f64 / orders
    )?;
    writeln!(o, "\nAll schema checks passed.")?;
    Ok(o)
}
