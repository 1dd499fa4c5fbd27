//! Cross-crate correctness: every physical path through the system must
//! produce identical query results — row vs column layout, plain vs
//! compressed storage, pipelined vs single-iterator scanners — on the
//! paper's TPC-H-derived workload. Results are compared as `RowBatch`es,
//! block bytes against block bytes, and against the row oracle value by
//! value; the whole file also runs forced onto the scalar decode tier.

use rodb::prelude::*;
use std::sync::Arc;

const ROWS: u64 = 8_000;

fn all_layouts() -> [ScanLayout; 4] {
    [
        ScanLayout::Row,
        ScanLayout::Column,
        ScanLayout::ColumnSlow,
        ScanLayout::ColumnSingleIterator,
    ]
}

fn collect(t: &Arc<Table>, layout: ScanLayout, proj: &[usize], preds: Vec<Predicate>) -> RowBatch {
    let q = QueryBuilder::new(
        t.clone(),
        HardwareConfig::default(),
        SystemConfig::default(),
    )
    .layout(layout)
    .select_indices(proj);
    let q = preds
        .into_iter()
        .fold(q, |q, p| q.filter_pred(p).expect("valid predicate"));
    q.run_collect().expect("query runs").rows
}

#[test]
fn lineitem_all_layouts_agree_across_selectivities() {
    let t = Arc::new(load_lineitem(ROWS, 7, 4096, BuildLayouts::both(), Variant::Plain).unwrap());
    for sel in [0.0, 0.001, 0.1, 0.5, 1.0] {
        let preds = vec![Predicate::lt(0, partkey_threshold(sel))];
        for proj in [
            vec![0],
            vec![0, 1, 5],
            vec![10, 6, 0],
            (0..16).collect::<Vec<_>>(),
        ] {
            let baseline = collect(&t, ScanLayout::Row, &proj, preds.clone());
            for layout in all_layouts() {
                let got = collect(&t, layout, &proj, preds.clone());
                assert_eq!(got, baseline, "sel {sel} proj {proj:?} layout {layout}");
            }
        }
    }
}

#[test]
fn compressed_tables_agree_with_plain() {
    let plain = Arc::new(load_orders(ROWS, 3, 4096, BuildLayouts::both(), Variant::Plain).unwrap());
    let z =
        Arc::new(load_orders(ROWS, 3, 4096, BuildLayouts::both(), Variant::Compressed).unwrap());
    for sel in [0.01, 0.25, 1.0] {
        let preds = vec![Predicate::lt(0, orderdate_threshold(sel))];
        for proj in [vec![0, 1], vec![3, 4, 0], (0..7).collect::<Vec<_>>()] {
            let baseline = collect(&plain, ScanLayout::Row, &proj, preds.clone());
            for layout in all_layouts() {
                let got = collect(&z, layout, &proj, preds.clone());
                assert_eq!(
                    got, baseline,
                    "sel {sel} proj {proj:?} layout {layout} (-Z)"
                );
            }
        }
    }
}

#[test]
fn pax_rows_agree_with_plain_rows_and_columns() {
    let plain =
        Arc::new(load_lineitem(ROWS, 4, 4096, BuildLayouts::both(), Variant::Plain).unwrap());
    let pax = Arc::new(load_lineitem(ROWS, 4, 4096, BuildLayouts::both(), Variant::Pax).unwrap());
    for sel in [0.01, 0.5] {
        let preds = vec![Predicate::lt(0, partkey_threshold(sel))];
        for proj in [vec![0usize, 5], vec![10, 0], (0..16).collect::<Vec<_>>()] {
            let baseline = collect(&plain, ScanLayout::Row, &proj, preds.clone());
            assert_eq!(
                collect(&pax, ScanLayout::Row, &proj, preds.clone()),
                baseline,
                "pax rows, sel {sel} proj {proj:?}"
            );
            assert_eq!(
                collect(&pax, ScanLayout::Column, &proj, preds.clone()),
                baseline,
                "pax table columns, sel {sel} proj {proj:?}"
            );
        }
    }
}

#[test]
fn lineitem_z_row_and_column_agree() {
    let z =
        Arc::new(load_lineitem(ROWS, 5, 4096, BuildLayouts::both(), Variant::Compressed).unwrap());
    let preds = vec![Predicate::lt(0, partkey_threshold(0.05))];
    let proj: Vec<usize> = (0..16).collect();
    let row = collect(&z, ScanLayout::Row, &proj, preds.clone());
    let col = collect(&z, ScanLayout::Column, &proj, preds);
    assert!(!row.is_empty());
    assert_eq!(row, col);
}

#[test]
fn aggregates_agree_across_layouts_and_strategies() {
    let t = Arc::new(load_lineitem(ROWS, 11, 4096, BuildLayouts::both(), Variant::Plain).unwrap());
    let mut results = Vec::new();
    for layout in all_layouts() {
        let q = QueryBuilder::new(
            t.clone(),
            HardwareConfig::default(),
            SystemConfig::default(),
        )
        .layout(layout)
        // group by l_returnflag; aggregate quantity and price
        .select_indices(&[6, 4, 5])
        .filter_pred(Predicate::lt(0, partkey_threshold(0.5)))
        .unwrap()
        .group_by("l_returnflag")
        .unwrap()
        .aggregate(AggSpec::count())
        .aggregate(AggSpec::sum(1))
        .aggregate(AggSpec::min(2))
        .aggregate(AggSpec::max(2));
        let rows = q.run_collect().expect("agg runs").rows;
        results.push(rows);
    }
    for r in &results[1..] {
        assert_eq!(*r, results[0]);
    }
    // Oracle: recompute from a raw read.
    let all = t.read_all(Layout::Row).unwrap();
    let thr = partkey_threshold(0.5);
    let mut count = 0i64;
    for row in &all {
        if row[0].as_int().unwrap() < thr {
            count += 1;
        }
    }
    let total: i64 = results[0].iter().map(|r| r.long(1)).sum();
    assert_eq!(total, count);
}

#[test]
fn merge_join_agrees_with_nested_loop_oracle() {
    let orders = Arc::new(load_orders(500, 2, 4096, BuildLayouts::both(), Variant::Plain).unwrap());
    let lineitem =
        Arc::new(load_lineitem(2_000, 2, 4096, BuildLayouts::both(), Variant::Plain).unwrap());
    let ctx = ExecContext::default_ctx();
    let o_scan = ScanSpec::new(orders.clone(), ScanLayout::Column, vec![1, 0])
        .build(&ctx)
        .unwrap();
    let l_scan = ScanSpec::new(lineitem.clone(), ScanLayout::Column, vec![1, 4])
        .build(&ctx)
        .unwrap();
    let mut join = MergeJoin::new(o_scan, 0, l_scan, 0, &ctx).unwrap();
    let got = rodb::engine::drain_rows(&mut join, true).unwrap().0;

    // Oracle.
    let o_rows = orders.read_all(Layout::Row).unwrap();
    let l_rows = lineitem.read_all(Layout::Row).unwrap();
    let mut expect = Vec::new();
    for o in &o_rows {
        for l in &l_rows {
            if o[1] == l[1] {
                expect.push(vec![o[1].clone(), o[0].clone(), l[1].clone(), l[4].clone()]);
            }
        }
    }
    assert_eq!(got.len(), expect.len());
    assert_eq!(got, expect);
    assert!(!got.is_empty(), "join should produce matches");
}

#[test]
fn block_positions_point_back_at_source_rows() {
    let t = Arc::new(load_orders(3_000, 9, 4096, BuildLayouts::both(), Variant::Plain).unwrap());
    let all = t.read_all(Layout::Row).unwrap();
    let ctx = ExecContext::default_ctx();
    let mut scan = ScanSpec::new(t.clone(), ScanLayout::Column, vec![2, 5])
        .with_predicates(vec![Predicate::lt(0, orderdate_threshold(0.2))])
        .build(&ctx)
        .unwrap();
    let mut seen = 0;
    while let Some(b) = scan.next().unwrap() {
        for i in 0..b.count() {
            let pos = b.position(i).unwrap() as usize;
            assert_eq!(b.value(i, 0).unwrap(), all[pos][2]);
            assert_eq!(b.value(i, 1).unwrap(), all[pos][5]);
            seen += 1;
        }
    }
    assert!(seen > 0);
}

/// The tests above on the scalar decode tier. `RODB_FORCE_SCALAR=1` pins the
/// tier for the whole process, so run from tier-1's auto dispatch this test
/// re-runs its own binary with it set, filtered to the others and to
/// itself, which in the child asserts the tier.
#[test]
fn the_layout_tests_pass_on_the_scalar_tier() {
    const ME: &str = "the_layout_tests_pass_on_the_scalar_tier";
    const TESTS: [&str; 8] = [
        "lineitem_all_layouts_agree_across_selectivities",
        "compressed_tables_agree_with_plain",
        "pax_rows_agree_with_plain_rows_and_columns",
        "lineitem_z_row_and_column_agree",
        "aggregates_agree_across_layouts_and_strategies",
        "merge_join_agrees_with_nested_loop_oracle",
        "block_positions_point_back_at_source_rows",
        ME,
    ];
    if std::env::var("RODB_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        assert_eq!(
            rodb::compress::active_tier(),
            rodb::compress::KernelTier::Scalar
        );
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let run = std::process::Command::new(exe)
        .args(TESTS)
        .args(["--exact", "--test-threads", "2"])
        .env("RODB_FORCE_SCALAR", "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    let report = format!("{stdout}{}", String::from_utf8_lossy(&run.stderr));
    assert!(run.status.success(), "{report}");
    let summary = format!("test result: ok. {} passed", TESTS.len());
    assert!(stdout.contains(&summary), "{report}");
}
