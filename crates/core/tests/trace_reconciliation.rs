//! Tracing must not change the numbers it reports: for every execution
//! strategy the repo supports, the root span of a traced run carries
//! exactly the same totals as the untraced `RunReport` the engine's
//! accounting produces.
//!
//! Covers {serial, parallel} x {scalar, fast path} x all four scan
//! layouts, plus a grouped-aggregation parallel run (the `into_partial`
//! closure path) and the tracing-off default.

use std::sync::Arc;

use rodb_core::{QueryBuilder, QueryResult};
use rodb_engine::{AggSpec, CmpOp, ScanLayout};
use rodb_storage::{BuildLayouts, TableBuilder};
use rodb_types::{CacheSpec, Column, HardwareConfig, Schema, SystemConfig, Value};

const PAGE: usize = 1024;
const ROWS: usize = 4000;

fn table() -> Arc<rodb_storage::Table> {
    let schema = Arc::new(
        Schema::new(vec![
            Column::int("id"),
            Column::int("grp"),
            Column::int("val"),
        ])
        .expect("schema"),
    );
    let mut b = TableBuilder::new("recon", schema, PAGE, BuildLayouts::both()).expect("builder");
    for i in 0..ROWS {
        b.push_row(&[
            Value::Int(i as i32),
            Value::Int((i % 7) as i32),
            Value::Int(((i as i64 * 7919) % 1000) as i32),
        ])
        .expect("row");
    }
    Arc::new(b.finish().expect("table"))
}

fn builder(t: &Arc<rodb_storage::Table>, layout: ScanLayout) -> QueryBuilder {
    builder_on(t, layout, SystemConfig::default())
}

fn builder_on(t: &Arc<rodb_storage::Table>, layout: ScanLayout, sys: SystemConfig) -> QueryBuilder {
    QueryBuilder::new(t.clone(), HardwareConfig::default(), sys)
        .layout(layout)
        .select(&["id", "val"])
        .expect("projection")
        .filter("id", CmpOp::Lt, Value::Int((ROWS / 2) as i32))
        .expect("predicate")
}

/// The root span must mirror the report exactly — `apply_report` pins it,
/// so every comparison here is `==`, not approximate.
fn assert_root_matches(res: &QueryResult, what: &str) {
    let t = res
        .trace
        .as_ref()
        .unwrap_or_else(|| panic!("{what}: no trace"));
    let r = &res.report;
    let cases: [(&str, f64); 22] = [
        ("rows", r.rows as f64),
        ("blocks", r.blocks as f64),
        ("elapsed_s", r.elapsed_s),
        ("cpu.total_s", r.cpu.total()),
        ("cpu.sys_s", r.cpu.sys),
        ("cpu.usr_uop_s", r.cpu.usr_uop),
        ("cpu.usr_l2_s", r.cpu.usr_l2),
        ("cpu.usr_l1_s", r.cpu.usr_l1),
        ("cpu.usr_rest_s", r.cpu.usr_rest),
        ("io.elapsed_s", r.io_s()),
        ("io.bytes_read", r.io.bytes_read),
        ("io.seeks", r.io.seeks as f64),
        ("io.bursts", r.io.bursts as f64),
        ("io.transfer_s", r.io.transfer_s),
        ("io.seek_s", r.io.seek_s),
        ("io.comp_s", r.io.comp_s),
        ("io.pages_skipped", r.io.pages_skipped as f64),
        ("io.recovery.retries", r.io.recovery.retries as f64),
        ("io.recovery.repairs", r.io.recovery.repairs as f64),
        ("io.cache.hits", r.io.cache.hits as f64),
        ("io.cache.misses", r.io.cache.misses as f64),
        ("io.cache.evictions", r.io.cache.evictions as f64),
    ];
    for (key, want) in cases {
        let got = t.metric(key);
        assert_eq!(got, want, "{what}: root {key} = {got}, report says {want}");
    }
}

const LAYOUTS: [(ScanLayout, &str); 4] = [
    (ScanLayout::Row, "row"),
    (ScanLayout::Column, "column"),
    (ScanLayout::ColumnSlow, "column-slow"),
    (ScanLayout::ColumnSingleIterator, "column-single"),
];

#[test]
fn root_span_reconciles_across_all_strategies() {
    let t = table();
    for (layout, name) in LAYOUTS {
        for fast in [false, true] {
            for threads in [1, 4] {
                let what = format!("{name} fast={fast} threads={threads}");
                let sys = SystemConfig::default().with_scan_fast_path(fast);
                let res = builder_on(&t, layout, sys)
                    .threads(threads)
                    .trace(true)
                    .run()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_root_matches(&res, &what);
            }
        }
    }
}

#[test]
fn tracing_does_not_change_the_report() {
    let t = table();
    for (layout, name) in LAYOUTS {
        for threads in [1, 4] {
            let plain = builder(&t, layout).threads(threads).run().expect("plain");
            let traced = builder(&t, layout)
                .threads(threads)
                .trace(true)
                .run()
                .expect("traced");
            let what = format!("{name} threads={threads}");
            assert_eq!(plain.report.rows, traced.report.rows, "{what}: rows");
            assert_eq!(
                plain.report.cpu.total(),
                traced.report.cpu.total(),
                "{what}: cpu"
            );
            assert_eq!(plain.report.io_s(), traced.report.io_s(), "{what}: io");
            assert_eq!(
                plain.report.elapsed_s, traced.report.elapsed_s,
                "{what}: elapsed"
            );
        }
    }
}

#[test]
fn grouped_aggregation_reconciles_in_parallel() {
    let t = table();
    let res = QueryBuilder::new(
        t.clone(),
        HardwareConfig::default(),
        SystemConfig::default(),
    )
    .layout(ScanLayout::Column)
    .select(&["grp", "val"])
    .expect("projection")
    .group_by("grp")
    .expect("group")
    .aggregate(AggSpec::sum(1))
    .threads(4)
    .trace(true)
    .run()
    .expect("agg run");
    assert_root_matches(&res, "parallel grouped agg");
    let explain = res.explain().expect("explain text");
    assert!(
        explain.contains("scan"),
        "explain names the scan:\n{explain}"
    );
    assert!(
        explain.contains("aggregate"),
        "explain names the aggregate:\n{explain}"
    );
}

/// With the page-cache tier enabled the root span still carries exactly
/// the report's totals — including the new `io.cache.*` counters, which
/// must be non-trivial here (a small cache over a multi-page scan both
/// misses and evicts).
#[test]
fn root_span_reconciles_with_caching_on() {
    let t = table();
    for spec in [CacheSpec::lru_k(4), CacheSpec::lru_k(1024)] {
        for (layout, name) in LAYOUTS {
            for threads in [1, 4] {
                let what = format!("cache {spec:?} {name} threads={threads}");
                let sys = SystemConfig::default().with_cache(spec);
                let res = builder_on(&t, layout, sys)
                    .threads(threads)
                    .trace(true)
                    .run()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(
                    res.report.io.cache.misses > 0,
                    "{what}: cold scan must miss"
                );
                assert_root_matches(&res, &what);
            }
        }
    }
}

#[test]
fn tracing_defaults_off() {
    let t = table();
    let res = builder(&t, ScanLayout::Column).run().expect("run");
    assert!(res.trace.is_none());
    assert!(res.explain().is_none());
    let res = builder(&t, ScanLayout::Column)
        .threads(4)
        .run()
        .expect("parallel run");
    assert!(res.trace.is_none());
}
