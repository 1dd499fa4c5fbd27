//! Figure 1, end to end: the full life of a read-optimized database.
//!
//! The paper's Figure 1 shows writes landing in a *write-optimized store*,
//! a periodic *merge* into the read-optimized store, and a *compression
//! advisor* + *MV advisor* shaping the physical design. This example walks
//! the whole pipeline:
//!
//!   bulk load → queries → WOS inserts → merge → advisor-driven redesign →
//!   queries again, cheaper.
//!
//! ```sh
//! cargo run --release --example figure1_pipeline
//! ```

use rodb::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    let mut db = Database::new();

    // ---- 1. Bulk load the read-optimized store ---------------------------
    let schema = Arc::new(Schema::new(vec![
        Column::int("day"),  // sorted — a natural FOR-delta key
        Column::int("shop"), // low cardinality
        Column::int("sku"),
        Column::int("units"),
        Column::int("cents"),
        Column::text("channel", 10), // {web, store, phone}
    ])?);
    let channels = ["web", "store", "phone"];
    let mut loader = TableBuilder::new("sales", schema.clone(), 4096, BuildLayouts::both())?;
    for i in 0..120_000i32 {
        loader.push_row(&[
            Value::Int(i / 100), // 100 sales/day
            Value::Int(i % 40),
            Value::Int((i * 17) % 9_000),
            Value::Int(1 + i % 7),
            Value::Int(99 + (i % 900) * 10),
            Value::text(channels[(i % 3) as usize]),
        ])?;
    }
    db.register(loader.finish()?);
    println!("loaded 120k rows into 'sales' (row + column layouts)");

    // ---- 2. Run the read workload ----------------------------------------
    let daily = |db: &Database| -> Result<QueryResult> {
        db.query("sales")?
            .layout(ScanLayout::Column)
            .select(&["day", "units", "cents"])?
            .filter("day", CmpOp::Ge, 1_000)?
            .group_by("day")?
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(2))
            .scale_to_rows(60_000_000)
            .run_collect()
    };
    let before = daily(&db)?;
    println!(
        "daily-revenue query: {} groups in {:.2} simulated s",
        before.rows.len(),
        before.report.elapsed_s
    );

    // ---- 3. New facts arrive: stage in the WOS, then merge ---------------
    let mut wos = db.wos_for("sales")?;
    for i in 0..500i32 {
        wos.insert(vec![
            Value::Int(1_200 + i / 100), // new days
            Value::Int(i % 40),
            Value::Int((i * 13) % 9_000),
            Value::Int(1 + i % 7),
            Value::Int(99 + (i % 900) * 10),
            Value::text(channels[(i % 3) as usize]),
        ])?;
    }
    println!(
        "\nstaged {} inserts in the write-optimized store",
        wos.len()
    );
    let comps = vec![ColumnCompression::none(); schema.len()];
    let merged = db.merge_wos("sales", &mut wos, &comps, Some(0))?;
    println!(
        "merged → read store now {} rows (sorted by day)",
        merged.row_count
    );
    let after_merge = daily(&db)?;
    println!(
        "daily-revenue sees the new days: {} groups (was {})",
        after_merge.rows.len(),
        before.rows.len()
    );

    // ---- 4. Compression advisor redesigns the physical layout ------------
    // One chooser prices every design question on this database's machine.
    let machine = Machine::new(db.hardware(), db.system());
    let table = db.table("sales")?;
    let sample = table.read_all(Layout::Row)?;
    let comps = recommend_compression(&table, &sample[..20_000], &machine)?;
    println!("\ncompression advisor picked:");
    for (col, comp) in schema.columns().iter().zip(&comps) {
        println!(
            "  {:<8} → {:?} ({} bits/value)",
            col.name,
            comp.codec.kind(),
            comp.bits_per_value(col.dtype)
        );
    }
    let mut rebuilt =
        TableBuilder::with_compression("sales", schema.clone(), 4096, BuildLayouts::both(), comps)?;
    for row in table.read_all(Layout::Row)? {
        rebuilt.push_row(&row)?;
    }
    let old_bytes = table.col_storage()?.byte_len();
    db.register(rebuilt.finish()?);
    let new_bytes = db.table("sales")?.col_storage()?.byte_len();
    println!(
        "column files {} KB → {} KB ({:.1}x smaller)",
        old_bytes / 1024,
        new_bytes / 1024,
        old_bytes as f64 / new_bytes as f64
    );
    let after_z = daily(&db)?;
    println!(
        "daily-revenue query now {:.2} simulated s (was {:.2})",
        after_z.report.elapsed_s, before.report.elapsed_s
    );

    // ---- 5. MV advisor proposes vertical partitions for the row store ----
    let workload = vec![
        Query::new(vec![0, 3, 4], 0.15, 10.0), // daily revenue
        Query::new(vec![1, 4], 0.05, 3.0),     // per-shop probe
        Query::new(vec![0, 5], 0.30, 1.0),     // channel mix
    ];
    let base = db.table("sales")?;
    let recs = recommend_vertical_partitions(&base, &workload, &machine, 2)?;
    println!("\nMV advisor (row-store physical design):");
    for r in &recs {
        let columns = r.candidate.columns();
        let names: Vec<&str> = columns
            .iter()
            .map(|&c| schema.columns()[c].name.as_str())
            .collect();
        println!(
            "  partition({}) — serves {} queries, saves {:.1} ns/tuple",
            names.join(", "),
            r.serves.len(),
            r.benefit * 1e9
        );
    }
    if let Some(best) = recs.first() {
        let mv = materialize(&base, &best.candidate, "sales_mv1")?;
        println!(
            "materialized 'sales_mv1': {} rows × {} B tuples (base: {} B)",
            mv.row_count,
            mv.schema.logical_width(),
            schema.logical_width()
        );
        db.register(mv);
    }
    println!("\npipeline complete: load → query → WOS → merge → advisors → redesign.");
    Ok(())
}
