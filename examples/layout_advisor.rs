//! Physical-design advisor session: the Figure-1 "advisors" in action.
//!
//! Given a table and a query mix, ask the one chooser (`rodb::core::design`)
//! for (a) a storage layout per query, validating the price with measured
//! runs, and (b) a codec per column from a sample — on a CPU-starved machine
//! and on the database's own — then show what the compression buys.
//!
//! ```sh
//! cargo run --release --example layout_advisor
//! ```

use rodb::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    let mut db = Database::new();

    // An event-log style table: sorted timestamp, low-cardinality columns,
    // one padded text field — lots of compression opportunity.
    let schema = Arc::new(Schema::new(vec![
        Column::int("ts"),
        Column::int("user_id"),
        Column::int("event_type"),
        Column::int("latency_us"),
        Column::text("region", 16),
        Column::text("detail", 48),
    ])?);
    let mut loader = TableBuilder::new("events", schema.clone(), 4096, BuildLayouts::both())?;
    let regions = ["us-east", "us-west", "eu-central", "ap-south"];
    for i in 0..150_000i32 {
        loader.push_row(&[
            Value::Int(1_000_000 + i), // sorted → FOR-delta candidate
            Value::Int((i * 7919) % 40_000),
            Value::Int(i % 12),
            Value::Int(100 + (i * 31) % 5_000),
            Value::text(regions[(i % 4) as usize]),
            Value::text("evt detail"), // content ≪ declared width
        ])?;
    }
    db.register(loader.finish()?);
    let table = db.table("events")?;

    // ---- Layout advisor --------------------------------------------------
    let machine = Machine::new(db.hardware(), db.system());
    println!("platform: {:.0} cpdb\n", db.cpdb());
    println!("query mix → priced speedup and recommendation:");
    let queries: &[(&str, Vec<usize>, f64)] = &[
        ("dashboard tile (2 of 6 cols, 5% sel)", vec![0, 3], 0.05),
        ("full export (all cols, 100% sel)", (0..6).collect(), 1.0),
        ("alert probe (1 col, 0.1% sel)", vec![3], 0.001),
    ];
    for (name, proj, sel) in queries {
        let s = predicted_speedup(&table, proj, *sel, &machine)?;
        let rec = recommend_layout(&table, proj, *sel, &machine)?;
        println!("  {name:<40} {s:>5.2}x → {rec}");
    }

    // Validate the first prediction with a measured comparison.
    let q = db
        .query("events")?
        .select(&["ts", "latency_us"])?
        .filter("event_type", CmpOp::Lt, 1)? // ~8% selectivity
        .scale_to_rows(60_000_000);
    let cmp = compare_layouts(&q)?;
    println!(
        "\nmeasured check (dashboard tile): row {:.2}s vs column {:.2}s → {:.2}x",
        cmp.row.elapsed_s,
        cmp.column.elapsed_s,
        cmp.speedup()
    );

    // ---- Compression advisor ----------------------------------------------
    // §4.4: which codec pays depends on whether the scan is disk- or
    // CPU-constrained — which is what the machine's cpdb and the tuple's
    // width say. The paper's testbed reads this 80-byte tuple disk-bound;
    // the same CPU behind a 60-disk array does not.
    let many_disks = HardwareConfig {
        disks: 60,
        controller_bw: 1.0e10,
        ..*db.hardware()
    };
    let sample = table.read_all(Layout::Row)?;
    let sample = &sample[..10_000.min(sample.len())];
    let advise = |hw: &HardwareConfig| -> Result<Vec<ColumnCompression>> {
        println!("\ncompression advisor at {:.1} cpdb:", hw.cpdb());
        let comps = recommend_compression(&table, sample, &Machine::new(hw, db.system()))?;
        for (col, comp) in schema.columns().iter().zip(&comps) {
            println!(
                "  {:<12} {:<9} → {:?}, {} bits/value (was {})",
                col.name,
                col.dtype.to_string(),
                comp.codec.kind(),
                comp.bits_per_value(col.dtype),
                col.dtype.width() * 8,
            );
        }
        Ok(comps)
    };
    advise(&many_disks)?;
    let comps = advise(db.hardware())?;

    // Rebuild the table with the codecs picked for this machine and measure
    // the win.
    let mut loader = TableBuilder::with_compression(
        "events_z",
        schema.clone(),
        4096,
        BuildLayouts::both(),
        comps,
    )?;
    for row in table.read_all(Layout::Row)? {
        loader.push_row(&row)?;
    }
    db.register(loader.finish()?);
    let plain_bytes = table.col_storage()?.byte_len();
    let z = db.table("events_z")?;
    let z_bytes = z.col_storage()?.byte_len();
    println!(
        "\ncolumn files: {} KB → {} KB ({:.1}x smaller)",
        plain_bytes / 1024,
        z_bytes / 1024,
        plain_bytes as f64 / z_bytes as f64
    );

    let run = |name: &str| -> Result<f64> {
        Ok(db
            .query(name)?
            .layout(ScanLayout::Column)
            .select(&["ts", "user_id", "latency_us"])?
            .filter("event_type", CmpOp::Lt, 1)?
            .scale_to_rows(60_000_000)
            .run()?
            .report
            .elapsed_s)
    };
    println!(
        "3-column scan: plain {:.2}s → compressed {:.2}s (simulated, paper scale)",
        run("events")?,
        run("events_z")?
    );
    Ok(())
}
