//! Engine edge cases: degenerate block sizes, page sizes, empty inputs,
//! exotic predicates, and operator-boundary conditions that the main suites
//! don't stress.

use std::sync::Arc;

use rodb_engine::{
    drain_rows, AggSpec, AggStrategy, Aggregate, CmpOp, ExecContext, MergeJoin, Operator,
    Predicate, ScanLayout, ScanSpec,
};
use rodb_storage::{BuildLayouts, Table, TableBuilder};
use rodb_types::{Column, HardwareConfig, Result, Schema, SystemConfig, Value};

/// Every row `op` produces, decoded.
fn collect_rows(op: &mut dyn Operator) -> Result<Vec<Vec<Value>>> {
    Ok(drain_rows(op, true)?.0.to_rows())
}

fn table(n: usize, page_size: usize) -> Arc<Table> {
    table_in(0..n, page_size)
}

/// Row `i` is `(i, ["ab", "cd", ""][i % 3], i² mod 97)`; `order` says which
/// rows, in which order, the table is loaded with.
fn table_in(order: impl Iterator<Item = usize>, page_size: usize) -> Arc<Table> {
    let s = Arc::new(
        Schema::new(vec![
            Column::int("k"),
            Column::text("t", 3),
            Column::int("v"),
        ])
        .unwrap(),
    );
    let mut b = TableBuilder::new("t", s, page_size, BuildLayouts::both()).unwrap();
    for i in order {
        b.push_row(&[
            Value::Int(i as i32),
            Value::text(["ab", "cd", ""][i % 3]),
            Value::Int((i * i) as i32 % 97),
        ])
        .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

fn ctx_with_block(block_tuples: usize) -> ExecContext {
    let sys = SystemConfig {
        block_tuples,
        ..SystemConfig::default()
    };
    ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap()
}

#[test]
fn one_tuple_blocks_still_agree() {
    let t = table(257, 4096);
    let mut results = Vec::new();
    for layout in [
        ScanLayout::Row,
        ScanLayout::Column,
        ScanLayout::ColumnSingleIterator,
    ] {
        let ctx = ctx_with_block(1);
        let mut op = ScanSpec::new(t.clone(), layout, vec![0, 2])
            .with_predicates(vec![Predicate::gt(2, 50)])
            .build(&ctx)
            .unwrap();
        results.push(collect_rows(op.as_mut()).unwrap());
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
    assert!(!results[0].is_empty());
}

#[test]
fn giant_blocks_and_tiny_pages() {
    // Pages of 128 bytes (a handful of tuples each) with oversized blocks.
    let t = table(500, 128);
    let ctx = ctx_with_block(10_000);
    let mut op = ScanSpec::new(t.clone(), ScanLayout::Column, vec![0, 1, 2])
        .build(&ctx)
        .unwrap();
    let rows = collect_rows(op.as_mut()).unwrap();
    assert_eq!(rows.len(), 500);
    assert_eq!(rows[499][0], Value::Int(499));
}

#[test]
fn empty_table_through_every_operator() {
    let s = Arc::new(Schema::new(vec![Column::int("k"), Column::int("v")]).unwrap());
    let t = Arc::new(
        TableBuilder::new("e", s, 4096, BuildLayouts::both())
            .unwrap()
            .finish()
            .unwrap(),
    );
    let ctx = ExecContext::default_ctx();
    for layout in [
        ScanLayout::Row,
        ScanLayout::Column,
        ScanLayout::ColumnSingleIterator,
    ] {
        let scan = ScanSpec::new(t.clone(), layout, vec![0, 1])
            .build(&ctx)
            .unwrap();
        let mut agg = Aggregate::new(
            scan,
            Some(0),
            vec![AggSpec::count()],
            AggStrategy::Hash,
            &ctx,
        )
        .unwrap();
        assert!(agg.next().unwrap().is_none());
    }
    let l = ScanSpec::new(t.clone(), ScanLayout::Row, vec![0])
        .build(&ctx)
        .unwrap();
    let r = ScanSpec::new(t.clone(), ScanLayout::Column, vec![0])
        .build(&ctx)
        .unwrap();
    let mut j = MergeJoin::new(l, 0, r, 0, &ctx).unwrap();
    assert!(j.next().unwrap().is_none());
}

#[test]
fn all_comparison_operators_on_text_and_int() {
    let t = table(300, 4096);
    let oracle = t.read_all(rodb_storage::Layout::Row).unwrap();
    for (op, lit) in [
        (CmpOp::Lt, Value::Int(100)),
        (CmpOp::Le, Value::Int(100)),
        (CmpOp::Eq, Value::Int(100)),
        (CmpOp::Ne, Value::Int(100)),
        (CmpOp::Ge, Value::Int(100)),
        (CmpOp::Gt, Value::Int(100)),
    ] {
        let p = Predicate::new(0, op, lit.clone());
        let expect = oracle.iter().filter(|r| p.eval_value(&r[0])).count();
        let ctx = ExecContext::default_ctx();
        let mut scan = ScanSpec::new(t.clone(), ScanLayout::Column, vec![0])
            .with_predicates(vec![p])
            .build(&ctx)
            .unwrap();
        assert_eq!(
            collect_rows(scan.as_mut()).unwrap().len(),
            expect,
            "{op:?} int"
        );
    }
    for (op, lit) in [
        (CmpOp::Eq, Value::text("cd")),
        (CmpOp::Ne, Value::text("cd")),
        (CmpOp::Lt, Value::text("cd")),
        (CmpOp::Ge, Value::text("ab")),
    ] {
        let p = Predicate::new(1, op, lit);
        let expect = oracle.iter().filter(|r| p.eval_value(&r[1])).count();
        let ctx = ExecContext::default_ctx();
        let mut scan = ScanSpec::new(t.clone(), ScanLayout::Row, vec![1])
            .with_predicates(vec![p])
            .build(&ctx)
            .unwrap();
        assert_eq!(
            collect_rows(scan.as_mut()).unwrap().len(),
            expect,
            "{op:?} text"
        );
    }
}

#[test]
fn contradictory_and_redundant_predicates() {
    let t = table(200, 4096);
    let ctx = ExecContext::default_ctx();
    // k < 50 AND k > 100 → empty.
    let mut scan = ScanSpec::new(t.clone(), ScanLayout::Column, vec![0])
        .with_predicates(vec![Predicate::lt(0, 50), Predicate::gt(0, 100)])
        .build(&ctx)
        .unwrap();
    assert!(collect_rows(scan.as_mut()).unwrap().is_empty());
    // Duplicate predicate on the same column → same as single.
    let ctx = ExecContext::default_ctx();
    let mut scan = ScanSpec::new(t.clone(), ScanLayout::Column, vec![0])
        .with_predicates(vec![Predicate::lt(0, 50), Predicate::lt(0, 50)])
        .build(&ctx)
        .unwrap();
    assert_eq!(collect_rows(scan.as_mut()).unwrap().len(), 50);
}

#[test]
fn sort_then_sorted_aggregation_pipeline() {
    // Group by the text tag over a table loaded in tag order ("", "ab",
    // "cd") → Sorted aggregation.
    let t = table_in(
        [2, 0, 1].into_iter().flat_map(|r| (r..400).step_by(3)),
        4096,
    );
    let ctx = ExecContext::default_ctx();
    let scan = ScanSpec::new(t.clone(), ScanLayout::Column, vec![1, 2])
        .build(&ctx)
        .unwrap();
    let mut agg = Aggregate::new(
        scan,
        Some(0),
        vec![AggSpec::count(), AggSpec::sum(1)],
        AggStrategy::Sorted,
        &ctx,
    )
    .unwrap();
    let rows = collect_rows(&mut agg).unwrap();
    assert_eq!(rows.len(), 3); // "", "ab", "cd"
    let total: i64 = rows.iter().map(|r| r[1].as_num().unwrap()).sum();
    assert_eq!(total, 400);

    // Hash agg over the same input agrees.
    let ctx2 = ExecContext::default_ctx();
    let scan = ScanSpec::new(t, ScanLayout::Column, vec![1, 2])
        .build(&ctx2)
        .unwrap();
    let mut hash = Aggregate::new(
        scan,
        Some(0),
        vec![AggSpec::count(), AggSpec::sum(1)],
        AggStrategy::Hash,
        &ctx2,
    )
    .unwrap();
    assert_eq!(collect_rows(&mut hash).unwrap(), rows);
}

#[test]
fn self_merge_join_is_identity_sized() {
    let t = table(150, 4096);
    let ctx = ExecContext::default_ctx();
    let l = ScanSpec::new(t.clone(), ScanLayout::Row, vec![0, 2])
        .build(&ctx)
        .unwrap();
    let r = ScanSpec::new(t.clone(), ScanLayout::Column, vec![0])
        .build(&ctx)
        .unwrap();
    let mut j = MergeJoin::new(l, 0, r, 0, &ctx).unwrap();
    let rows = collect_rows(&mut j).unwrap();
    // k is unique → exactly one match per row.
    assert_eq!(rows.len(), 150);
    for row in &rows {
        assert_eq!(row[0], row[2]);
    }
}

#[test]
fn projection_with_repeat_free_reordering_across_pages() {
    // A projection ordering that reverses the schema, over many pages.
    let t = table(5_000, 512);
    let ctx = ExecContext::default_ctx();
    let mut scan = ScanSpec::new(t.clone(), ScanLayout::Column, vec![2, 1, 0])
        .with_predicates(vec![Predicate::eq(1, "ab")])
        .build(&ctx)
        .unwrap();
    let rows = collect_rows(scan.as_mut()).unwrap();
    assert!(!rows.is_empty());
    for r in &rows {
        assert_eq!(r[1].to_string(), "ab");
        assert_eq!(r[0].as_int().unwrap(), {
            let k = r[2].as_int().unwrap() as usize;
            ((k * k) % 97) as i32
        });
    }
}
