//! One plan above the scanners: every execution path assembles its operator
//! tree through `QueryPlan`, so (a) the tree `QueryPlan::build` produces
//! costs exactly what the same tree assembled by hand from the public parts
//! costs — that hand assembly is what `benchmark/src/stairs.rs` times, so
//! its staircase keeps telescoping to the wall of `QueryBuilder::run` — and
//! (b) the serial, morsel-parallel and service paths return the same rows.

use rodb::engine::{run_to_completion, Chain, MemScan};
use rodb::prelude::*;
use std::sync::Arc;

const ROWS: usize = 6_000;
const TAIL: usize = 50;

/// `k` is sorted (groups of 40) so the sorted strategy sees grouped input.
fn table() -> Arc<Table> {
    let schema =
        Arc::new(Schema::new(vec![Column::int("k"), Column::int("v"), Column::int("w")]).unwrap());
    let mut b = TableBuilder::new("t", schema, 4096, BuildLayouts::both()).unwrap();
    for i in 0..ROWS as i32 {
        b.push_row(&[Value::Int(i / 40), Value::Int(i), Value::Int(i % 7)])
            .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

/// Staged rows whose keys continue the table's (new groups, still grouped).
fn tail() -> Arc<Vec<Vec<Value>>> {
    Arc::new(
        (0..TAIL as i32)
            .map(|j| {
                vec![
                    Value::Int(1_000 + j / 10),
                    Value::Int(ROWS as i32 + j),
                    Value::Int(j % 7),
                ]
            })
            .collect(),
    )
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Scan,
    HashAgg,
    SortedAgg,
}

const PROJECTION: [usize; 2] = [0, 1];

fn predicate() -> Predicate {
    Predicate::lt(2, 5)
}

fn agg_plan(shape: Shape) -> Option<AggPlan> {
    let strategy = match shape {
        Shape::Scan => return None,
        Shape::HashAgg => AggStrategy::Hash,
        Shape::SortedAgg => AggStrategy::Sorted,
    };
    Some(AggPlan {
        group_by: Some(0),
        specs: vec![AggSpec::count(), AggSpec::sum(1)],
        strategy,
    })
}

fn builder(t: &Arc<Table>, layout: ScanLayout, shape: Shape, with_tail: bool) -> QueryBuilder {
    let sys = SystemConfig::default().with_service(ServiceSpec::new(4));
    let mut q = QueryBuilder::new(t.clone(), HardwareConfig::default(), sys)
        .layout(layout)
        .select_indices(&PROJECTION)
        .filter_pred(predicate())
        .unwrap();
    if let Some(agg) = agg_plan(shape) {
        q = q.group_by("k").unwrap();
        for spec in agg.specs {
            q = q.aggregate(spec);
        }
        if agg.strategy == AggStrategy::Sorted {
            q = q.sorted_aggregation();
        }
    }
    if with_tail {
        q = q.wos_tail(tail());
    }
    q
}

fn cases() -> impl Iterator<Item = (ScanLayout, Shape, bool)> {
    [ScanLayout::Row, ScanLayout::Column]
        .into_iter()
        .flat_map(|layout| {
            [Shape::Scan, Shape::HashAgg, Shape::SortedAgg]
                .into_iter()
                .flat_map(move |shape| [false, true].map(|with_tail| (layout, shape, with_tail)))
        })
}

#[test]
fn the_plan_builds_exactly_the_hand_assembled_tree() {
    let t = table();
    for (layout, shape, with_tail) in cases() {
        let what = format!("{layout} {shape:?} tail={with_tail}");
        let scan = ScanSpec::new(t.clone(), layout, PROJECTION.to_vec())
            .with_predicates(vec![predicate()]);

        let ctx = ExecContext::default_ctx();
        let mut by_hand: Box<dyn Operator> = scan.clone().build(&ctx).unwrap();
        if with_tail {
            let mem = MemScan::new(
                &t.schema,
                tail(),
                PROJECTION.to_vec(),
                vec![predicate()],
                t.row_count,
                &ctx,
            )
            .unwrap();
            by_hand = Box::new(Chain::new(by_hand, Box::new(mem)).unwrap());
        }
        if let Some(agg) = agg_plan(shape) {
            by_hand = Box::new(
                Aggregate::new(by_hand, agg.group_by, agg.specs, agg.strategy, &ctx).unwrap(),
            );
        }
        let want = run_to_completion(by_hand.as_mut(), &ctx).unwrap();

        let plan = QueryPlan {
            scan,
            tail: with_tail.then(tail),
            agg: agg_plan(shape),
        };
        let ctx = ExecContext::default_ctx();
        let mut op = plan.build(&ctx).unwrap();
        let got = run_to_completion(op.as_mut(), &ctx).unwrap();

        assert!(got.rows > 0, "{what}");
        assert_eq!(got.rows, want.rows, "{what}");
        assert_eq!(got.blocks, want.blocks, "{what}");
        assert_eq!(got.io, want.io, "{what}");
        assert_eq!(got.cpu, want.cpu, "{what}");
        assert_eq!(got.elapsed_s, want.elapsed_s, "{what}");

        // And the builder's translation is that plan: same report again.
        let via_builder = builder(&t, layout, shape, with_tail).run().unwrap().report;
        assert_eq!(via_builder.rows, want.rows, "{what}");
        assert_eq!(via_builder.blocks, want.blocks, "{what}");
        assert_eq!(via_builder.io, want.io, "{what}");
        assert_eq!(via_builder.cpu, want.cpu, "{what}");
        assert_eq!(via_builder.elapsed_s, want.elapsed_s, "{what}");
    }
}

#[test]
fn serial_parallel_and_service_paths_return_the_same_rows() {
    let t = table();
    for (layout, shape, with_tail) in cases() {
        let what = format!("{layout} {shape:?} tail={with_tail}");
        let q = builder(&t, layout, shape, with_tail);
        let serial = q.run_collect().unwrap();
        assert!(serial.parallel.is_none(), "{what}");
        if matches!(shape, Shape::Scan) {
            let passing = |n: usize| (0..n).filter(|i| i % 7 < 5).count();
            let staged = if with_tail { passing(TAIL) } else { 0 };
            assert_eq!(serial.rows.len(), passing(ROWS) + staged, "{what}");
        }

        let parallel = q.clone().threads(3).run_collect().unwrap();
        assert_eq!(parallel.rows, serial.rows, "{what}: threads(3)");
        // A tail is not morsel-partitionable: the plan runs serially.
        assert_eq!(parallel.parallel.is_some(), !with_tail, "{what}");

        let mut svc = QueryService::new(HardwareConfig::default(), {
            SystemConfig::default().with_service(ServiceSpec::new(4))
        })
        .unwrap();
        svc.submit(ServiceRequest::new(q));
        match svc.run() {
            Ok(report) => {
                assert!(!with_tail, "{what}: the service dropped a WOS tail");
                assert_eq!(report.outcomes[0].rows, serial.rows, "{what}: service");
            }
            Err(Error::InvalidPlan(msg)) => {
                assert!(with_tail && msg.contains("WOS tail"), "{what}: {msg}");
            }
            Err(e) => panic!("{what}: {e}"),
        }
    }
}
