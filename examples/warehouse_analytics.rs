//! Warehouse analytics: the paper's motivating workload end to end.
//!
//! Loads the TPC-H-derived LINEITEM and ORDERS tables (§3.1), then runs
//! three warehouse-style queries through the engine: a scan-heavy aggregate
//! over the fact table, a selective drill-down, and an ORDERS ⋈ LINEITEM
//! merge join feeding an aggregation — each on both layouts.
//!
//! ```sh
//! cargo run --release --example warehouse_analytics
//! ```

use rodb::prelude::*;

const ROWS: u64 = 100_000;
const VIRTUAL_ROWS: u64 = 60_000_000;

fn main() -> Result<()> {
    let mut db = Database::new();
    println!("loading LINEITEM + ORDERS ({ROWS} rows each, seed 1)...");
    db.register(load_lineitem(
        ROWS,
        1,
        4096,
        BuildLayouts::both(),
        Variant::Plain,
    )?);
    db.register(load_orders(
        ROWS,
        1,
        4096,
        BuildLayouts::both(),
        Variant::Plain,
    )?);

    // --- Q1: pricing summary over the fact table -------------------------
    // SELECT l_returnflag, count(*), sum(l_quantity), avg(l_extendedprice)
    // FROM lineitem WHERE l_shipdate < τ(90%)
    println!("\nQ1: pricing summary (scan + grouped aggregation)");
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        let q = db
            .query("lineitem")?
            .layout(layout)
            .select(&[
                "l_returnflag",
                "l_quantity",
                "l_extendedprice",
                "l_shipdate",
            ])?
            .filter("l_shipdate", CmpOp::Lt, 2_070)?
            .group_by("l_returnflag")?
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(1))
            .aggregate(AggSpec::avg(2))
            .scale_to_rows(VIRTUAL_ROWS);
        let res = q.run_collect()?;
        println!(
            "  {layout:>6}: {:>7.2} simulated s, {} groups",
            res.report.elapsed_s,
            res.rows.len()
        );
        if layout == ScanLayout::Column {
            for r in res.rows.iter() {
                println!(
                    "    flag {}: {:>8} lines, qty {:>9}, avg price {:>8}",
                    r.value(0),
                    r.long(1),
                    r.long(2),
                    r.long(3)
                );
            }
        }
    }

    // --- Q2: selective drill-down (the column store's best case) ---------
    // SELECT l_orderkey, l_extendedprice FROM lineitem
    // WHERE l_partkey < τ(0.1%)
    println!("\nQ2: needle-in-haystack drill-down (0.1% selectivity)");
    let pk = partkey_threshold(0.001);
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        let res = db
            .query("lineitem")?
            .layout(layout)
            .select(&["l_orderkey", "l_extendedprice"])?
            .filter("l_partkey", CmpOp::Lt, pk)?
            .scale_to_rows(VIRTUAL_ROWS)
            .run()?;
        println!(
            "  {layout:>6}: {:>7.2} simulated s for {} matches",
            res.report.elapsed_s, res.report.rows
        );
    }

    // --- Q3: ORDERS ⋈ LINEITEM merge join + aggregate --------------------
    // SELECT o_orderpriority, count(*) FROM orders JOIN lineitem
    // ON o_orderkey = l_orderkey WHERE o_orderdate < τ(20%)
    // (both tables are bulk-loaded in order-key order → merge join applies)
    println!("\nQ3: ORDERS ⋈ LINEITEM merge join");
    let od = orderdate_threshold(0.20);
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        let ctx = ExecContext::new(
            HardwareConfig::default(),
            SystemConfig::default(),
            VIRTUAL_ROWS as f64 / ROWS as f64,
        )?;
        let orders_scan = ScanSpec::new(
            db.table("orders")?,
            layout,
            vec![1, 4], // o_orderkey, o_orderpriority
        )
        .with_predicates(vec![Predicate::lt(0, od)])
        .build(&ctx)?;
        let lineitem_scan = ScanSpec::new(
            db.table("lineitem")?,
            layout,
            vec![1, 4], // l_orderkey, l_quantity
        )
        .build(&ctx)?;
        let join = MergeJoin::new(orders_scan, 0, lineitem_scan, 0, &ctx)?;
        let agg = Aggregate::new(
            Box::new(join),
            Some(1), // group by o_orderpriority
            vec![AggSpec::count(), AggSpec::sum(3)],
            AggStrategy::Hash,
            &ctx,
        )?;
        let mut root: Box<dyn Operator> = Box::new(agg);
        let (groups, _, _) = rodb_engine::drain_rows(root.as_mut(), true)?;
        let report = rodb_engine::run_to_completion(root.as_mut(), &ctx)?;
        println!(
            "  {layout:>6}: {:>7.2} simulated s, {} priority groups",
            report.elapsed_s.max(report.io_s()),
            groups.len()
        );
        if layout == ScanLayout::Column {
            for g in groups.iter() {
                let priority = g.value(0).to_string();
                println!(
                    "    {priority:<12} {:>8} lineitems, qty {:>9}",
                    g.long(1),
                    g.long(2)
                );
            }
        }
    }
    println!("\ndone.");
    Ok(())
}
