//! Profiling a query: operator span trees, EXPLAIN ANALYZE, trace files,
//! and the process-wide metrics registry.
//!
//! ```sh
//! cargo run --release --example profile_query
//! ```
//!
//! Tracing is off by default and costs nothing until you opt in with
//! `.trace(true)`; a traced run reports exactly the same numbers as an
//! untraced one (the engine asserts this in its test suite) plus a span
//! tree you can print or save.

use rodb::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    // 1. A table with both physical layouts, as in quickstart.
    let mut db = Database::new();
    let schema = Arc::new(Schema::new(vec![
        Column::int("product_id"),
        Column::int("store_id"),
        Column::int("quantity"),
        Column::int("price_cents"),
    ])?);
    let mut loader = TableBuilder::new("sales", schema, 4096, BuildLayouts::both())?;
    for i in 0..200_000i32 {
        loader.push_row(&[
            Value::Int(i % 5_000),
            Value::Int(i % 37),
            Value::Int(1 + i % 9),
            Value::Int(199 + (i % 400) * 25),
        ])?;
    }
    db.register(loader.finish()?);

    // 2. The same grouped aggregation as quickstart, but traced: one span
    //    per plan operator, accumulating simulated I/O, modeled CPU (with
    //    the per-phase split), and real wall time across every next() call.
    let result = db
        .query("sales")?
        .layout(ScanLayout::Column)
        .select(&["store_id", "price_cents"])?
        .filter("store_id", CmpOp::Lt, 30)?
        .group_by("store_id")?
        .aggregate(AggSpec::sum(1))
        .threads(4)
        .trace(true)
        .run()?;

    // 3. EXPLAIN ANALYZE: the span tree, annotated with rows, blocks,
    //    modeled CPU/I-O seconds, and synthesized per-phase child spans
    //    (predicate, decode, aggregation...). The root line equals the
    //    RunReport totals exactly.
    println!("{}", result.explain().expect("tracing was on"));

    // 4. The same tree as machine-readable artifacts: a span JSON and a
    //    Chrome trace-event file you can open at chrome://tracing or
    //    ui.perfetto.dev.
    let trace = result.trace.as_ref().expect("tracing was on");
    let path = trace
        .save("results/traces", "profile_query")
        .expect("write trace");
    println!("saved {} (+ .chrome.json sibling)", path.display());

    // 5. Every run — traced or not — also bumps the process-wide metrics
    //    registry; drain it for a counters/histograms JSON summary, as the
    //    fuzzer's --json artifact does.
    println!("\nmetrics registry:\n{}", MetricsRegistry::drain().pretty());
    Ok(())
}
