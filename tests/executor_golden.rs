//! The executors' merged numbers are pinned, cell by cell.
//!
//! `modeled_golden.rs` pins serial scans. Above them sit the two executors
//! that merge pieces of a plan: the morsel-parallel run (per-morsel I/O
//! summed and recharged for head switches, the CPU critical path, partial
//! aggregates merged and emitted on one core) and the shared-cursor service
//! (one driver pass per segment, riders charged in full on a
//! worker-invariant clock). A refactor of either is correct only if every
//! merged number comes out bit-equal, so each cell is one [`Digest`] over
//! values (an accounted table's non-zero leaves by name):
//!
//! * a morsel cell — `QueryBuilder::run_collect` at 2 or 4 threads — covers
//!   the [`RunReport`](rodb::engine::RunReport), `ParallelInfo::{cpu_crit_s,
//!   morsels}` and the rows;
//! * a service cell covers `makespan_s`, the merged driver `io`, and each
//!   outcome's `latency_s`, `attach_seg` and rows.
//!
//! The numbers were first pinned before the serial, morsel and rider
//! executors were folded into one plan-run call. `MORSEL_GOLDEN` and
//! `SERVICE_GOLDEN` were recomputed once when the digest moved from `Debug`
//! text to values, at the commit before the idle cache-prefetch knob and its
//! always-zero counter were deleted. A digest may change only together with
//! the checked-in figures; the failure message names the cell.

use rodb::prelude::*;
use rodb::types::CacheSpec;
use rodb_fuzz::Digest;
use std::sync::{Arc, OnceLock};

const ROWS: u64 = 3_000;
const PAGE: usize = 1024;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Scan,
    HashAgg,
    SortedAgg,
}

fn orders() -> Arc<Table> {
    static T: OnceLock<Arc<Table>> = OnceLock::new();
    T.get_or_init(|| {
        Arc::new(load_orders(ROWS, 7, PAGE, BuildLayouts::both(), Variant::Compressed).unwrap())
    })
    .clone()
}

fn lineitem() -> Arc<Table> {
    static T: OnceLock<Arc<Table>> = OnceLock::new();
    T.get_or_init(|| {
        Arc::new(load_lineitem(ROWS, 7, PAGE, BuildLayouts::both(), Variant::Compressed).unwrap())
    })
    .clone()
}

/// One query of `shape` over ORDERS-Z. Sorted aggregation groups on
/// `o_shippriority`, one run that every morsel boundary splits.
fn orders_query(q: QueryBuilder, shape: Shape) -> QueryBuilder {
    let half = Predicate::lt(0, orderdate_threshold(0.5));
    match shape {
        Shape::Scan => q.select_indices(&[0, 1, 4, 5]).filter_pred(half).unwrap(),
        Shape::HashAgg => q
            .select_indices(&[3, 5])
            .filter_pred(half)
            .unwrap()
            .group_by("o_orderstatus")
            .unwrap()
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(1))
            .aggregate(AggSpec::min(1))
            .aggregate(AggSpec::max(1))
            .aggregate(AggSpec::avg(1)),
        Shape::SortedAgg => q
            .select_indices(&[6, 5])
            .group_by("o_shippriority")
            .unwrap()
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(1))
            .sorted_aggregation(),
    }
}

/// One query of `shape` over LINEITEM-Z. Sorted aggregation groups on
/// `l_orderkey`, whose runs of one to seven lines straddle page and morsel
/// boundaries.
fn lineitem_query(q: QueryBuilder, shape: Shape) -> QueryBuilder {
    match shape {
        Shape::Scan => q
            .select_indices(&[0, 1, 6, 10, 11])
            .filter_pred(Predicate::lt(0, partkey_threshold(0.5)))
            .unwrap(),
        Shape::HashAgg => q
            .select_indices(&[6, 4, 5])
            .group_by("l_returnflag")
            .unwrap()
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(1))
            .aggregate(AggSpec::avg(2)),
        Shape::SortedAgg => q
            .select_indices(&[1, 4])
            .filter_pred(Predicate::lt(4, 25))
            .unwrap()
            .group_by("l_orderkey")
            .unwrap()
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(1))
            .sorted_aggregation(),
    }
}

type Query = fn(QueryBuilder, Shape) -> QueryBuilder;

fn subjects() -> [(&'static str, Arc<Table>, Query); 2] {
    [
        ("orders-z", orders(), orders_query),
        ("lineitem-z", lineitem(), lineitem_query),
    ]
}

fn system() -> SystemConfig {
    SystemConfig {
        page_size: PAGE,
        ..SystemConfig::default()
    }
}

/// One morsel-parallel `run_collect`, digested.
fn morsel_digest(q: QueryBuilder, cell: &str) -> u64 {
    let res = q.run_collect().unwrap_or_else(|e| panic!("{cell}: {e}"));
    let info = res.parallel.expect("a partitionable plan runs in parallel");
    let mut h = Digest::default();
    h.report(&res.report)
        .f64(info.cpu_crit_s)
        .usize(info.morsels);
    h.rows(&res.rows.to_rows()).finish()
}

fn morsel_cells() -> &'static [(String, u64)] {
    static CELLS: OnceLock<Vec<(String, u64)>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let mut out = Vec::new();
        for (name, table, query) in subjects() {
            for layout in [ScanLayout::Row, ScanLayout::Column] {
                for shape in [Shape::Scan, Shape::HashAgg, Shape::SortedAgg] {
                    for (fast, threads) in [(false, 2), (false, 4), (true, 2), (true, 4)] {
                        let cell =
                            format!("{name} {layout} {shape:?} fast={fast} threads={threads}");
                        let sys = system().with_scan_fast_path(fast);
                        let q = QueryBuilder::new(table.clone(), HardwareConfig::default(), sys)
                            .layout(layout)
                            .threads(threads);
                        let digest = morsel_digest(query(q, shape), &cell);
                        out.push((cell, digest));
                    }
                }
            }
        }
        out
    })
}

/// Three service runs: every shape on both tables, arrivals staggered so
/// riders attach mid-scan and wrap, on one, two and four workers, with the
/// fast path and a shared page cache switched on in turn.
fn service_cells() -> Vec<(String, u64)> {
    let hw = HardwareConfig::default();
    let runs = [
        ("column threads=1", ScanLayout::Column, 1, false, None),
        (
            "row threads=2 fast cache",
            ScanLayout::Row,
            2,
            true,
            Some(CacheSpec::lru_k(64)),
        ),
        (
            "column threads=4 fast cache",
            ScanLayout::Column,
            4,
            true,
            Some(CacheSpec::lru_k(64)),
        ),
    ];
    let mut out = Vec::new();
    for (cell, layout, threads, fast, cache) in runs {
        let sys = SystemConfig {
            service: Some(ServiceSpec::new(4).with_slice(0.2)),
            cache,
            ..system().with_threads(threads).with_scan_fast_path(fast)
        };
        let mut svc = QueryService::new(hw, sys).unwrap();
        let mut arrival = 0.0;
        for (_, table, query) in subjects() {
            for shape in [Shape::Scan, Shape::HashAgg, Shape::SortedAgg] {
                let q = QueryBuilder::new(table.clone(), hw, sys)
                    .layout(layout)
                    .scale_to_rows(20_000_000);
                svc.submit(ServiceRequest::new(query(q, shape)).at(arrival));
                arrival += 0.35;
            }
        }
        let report = svc.run().unwrap_or_else(|e| panic!("{cell}: {e}"));
        let mut h = Digest::default();
        h.f64(report.makespan_s).fields("io", &report.io);
        for o in &report.outcomes {
            h.f64(o.latency_s)
                .usize(o.attach_seg)
                .rows(&o.rows.to_rows());
        }
        out.push((cell.to_string(), h.finish()));
    }
    out
}

fn check(cells: &[(String, u64)], golden: &[u64]) {
    assert_eq!(cells.len(), golden.len(), "the matrix changed shape");
    let wrong: Vec<String> = cells
        .iter()
        .zip(golden)
        .filter(|((_, got), want)| got != *want)
        .map(|((name, got), want)| format!("{name}: {got:#018x}, golden {want:#018x}"))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} cells moved; first: {}",
        wrong.len(),
        cells.len(),
        wrong[0]
    );
}

#[test]
fn every_morsel_cell_matches_the_parent() {
    check(morsel_cells(), &MORSEL_GOLDEN);
}

#[test]
fn every_service_cell_matches_the_parent() {
    check(&service_cells(), &SERVICE_GOLDEN);
}

/// The morsel digests see what they claim to: the worker count, the fast
/// path and the aggregation strategy each change the cell.
#[test]
fn the_morsel_axes_are_live() {
    let cells = morsel_cells();
    let digest = |needle: &str| {
        cells
            .iter()
            .find(|(name, _)| name == needle)
            .unwrap_or_else(|| panic!("no cell {needle}"))
            .1
    };
    let base = "orders-z column HashAgg fast=false threads=2";
    for other in [
        "orders-z column HashAgg fast=false threads=4",
        "orders-z column HashAgg fast=true threads=2",
        "orders-z column SortedAgg fast=false threads=2",
        "orders-z row HashAgg fast=false threads=2",
    ] {
        assert_ne!(digest(base), digest(other), "{other}");
    }
}

#[rustfmt::skip]
const MORSEL_GOLDEN: [u64; 48] = [
    0xc58bd85960b44238, 0xcc71f361744d388b, 0xf02ffe7fc8d29e4c, 0xca46eef78b413131,
    0x6b8063f7473e6c86, 0xf4f61abb97299eb3, 0x58f918dfe0f9d80c, 0xc842a9cc2393bf65,
    0x1c9c23df8b366aaa, 0xdf4cabef47b99e08, 0x1c9c23df8b366aaa, 0xdf4cabef47b99e08,
    0x05f7720cd2297b13, 0xc50008fb6db6a918, 0x15e0e6f5dc0e6139, 0xbbf07561df5883ff,
    0x1a182f02ba535c08, 0x22d602230acfb3b6, 0x1667b80b131c21f7, 0x89d28c0691cd41df,
    0xff45cfd36625084e, 0xd1e125830581a05a, 0xe8187ad4d4494d7c, 0x0a500446ac5c2c1d,
    0xd3818064b7c4a26c, 0xcea0e4cbd2f00dca, 0xd3818064b7c4a26c, 0xcea0e4cbd2f00dca,
    0x38877a89e5a66d19, 0xa340e977e1f70453, 0x38877a89e5a66d19, 0xa340e977e1f70453,
    0x1559c4e13d3ac5bf, 0xeadac6e7d6400d71, 0x69019ef50c61ffaa, 0x19ef6700b44d12ae,
    0x79c4cc0dcc37ad12, 0x52c12738770e6c9f, 0xeaa9a778ab5654ab, 0x6793adc93925c1da,
    0x2da98c48db01742c, 0xc08cca895ac4cfa3, 0xd3224725741a5443, 0xf1c52b493c2ccf86,
    0x5ceec089500ec45d, 0x8af78c8f01a5294e, 0x97a62263ab3bb9f1, 0xedb3b7caab8061dd,
];

#[rustfmt::skip]
const SERVICE_GOLDEN: [u64; 3] = [
    0x4042831bb75da1e2, 0x8db5b74252444c9b, 0xff91699e89a0f56c,
];
