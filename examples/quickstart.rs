//! Quickstart: load a table in both layouts, query it both ways, and see the
//! row/column tradeoff the paper is about.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rodb::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    // 1. A database on the paper's reference platform: Pentium 4 @ 3.2 GHz
    //    over a 3-disk RAID (180 MB/s) — an 18 cycles-per-disk-byte box.
    let mut db = Database::new();
    println!("platform: {:.0} cpdb", db.cpdb());

    // 2. Define a schema and bulk-load a table with BOTH physical layouts
    //    (read-optimized stores are loaded in bulk; no slotted pages).
    let schema = Arc::new(Schema::new(vec![
        Column::int("product_id"),
        Column::int("store_id"),
        Column::int("quantity"),
        Column::int("price_cents"),
        Column::text("promo_code", 12),
    ])?);
    let mut loader = TableBuilder::new("sales", schema, 4096, BuildLayouts::both())?;
    for i in 0..200_000i32 {
        loader.push_row(&[
            Value::Int(i % 5_000),
            Value::Int(i % 37),
            Value::Int(1 + i % 9),
            Value::Int(199 + (i % 400) * 25),
            Value::text(["", "SUMMER", "VIP"][(i % 3) as usize]),
        ])?;
    }
    db.register(loader.finish()?);

    // 3. Query it: SELECT product_id, quantity FROM sales
    //              WHERE store_id < 4  (≈11% selectivity)
    //    The builder mirrors the paper's precompiled plans.
    let query = db
        .query("sales")?
        .select(&["product_id", "quantity"])?
        .filter("store_id", CmpOp::Lt, 4)?
        .scale_to_rows(60_000_000); // report times at the paper's table size

    // 4. Run it through the ROW store and the COLUMN store.
    let cmp = compare_layouts(&query)?;
    println!(
        "\nrow store:    {:>8.2} simulated s  (io {:>6.2}s, cpu {:>6.2}s)",
        cmp.row.elapsed_s,
        cmp.row.io_s(),
        cmp.row.cpu.total()
    );
    println!(
        "column store: {:>8.2} simulated s  (io {:>6.2}s, cpu {:>6.2}s)",
        cmp.column.elapsed_s,
        cmp.column.io_s(),
        cmp.column.cpu.total()
    );
    println!("column-over-row speedup: {:.2}x", cmp.speedup());

    // 5. The paper's CPU-time breakdown (Figure 6 right).
    let b = &cmp.column.cpu;
    println!(
        "\ncolumn CPU breakdown: sys {:.2}s | usr-uop {:.2}s | usr-L2 {:.2}s | \
         usr-L1 {:.2}s | usr-rest {:.2}s",
        b.sys, b.usr_uop, b.usr_l2, b.usr_l1, b.usr_rest
    );

    // 6. Aggregate through the same scanners (results are exact).
    let result = db
        .query("sales")?
        .layout(ScanLayout::Column)
        .select(&["store_id", "price_cents"])?
        .group_by("store_id")?
        .aggregate(AggSpec::count())
        .aggregate(AggSpec::sum(1))
        .run_collect()?;
    println!(
        "\nrevenue by store (first 3 of {} groups):",
        result.rows.len()
    );
    for r in result.rows.iter().take(3) {
        println!("  store {:>2}: {:>6} sales, {:>12} cents", r[0], r[1], r[2]);
    }

    // 7. Ask the chooser (the Section-5 model, priced on this database's
    //    machine) which layout to use *without* running anything.
    let t = db.table("sales")?;
    let machine = Machine::new(db.hardware(), db.system());
    let layout = recommend_layout(&t, &[0, 2], 0.11, &machine)?;
    println!("\nmodel-recommended layout for this query: {layout}");
    Ok(())
}
