//! The executors' merged numbers are pinned, cell by cell.
//!
//! `modeled_golden.rs` pins serial scans. Above them sit the two executors
//! that merge pieces of a plan: the morsel-parallel run (per-morsel I/O
//! summed and recharged for head switches, the CPU critical path, partial
//! aggregates merged and emitted on one core) and the shared-cursor service
//! (one driver pass per segment, riders charged in full on a
//! worker-invariant clock). A refactor of either is correct only if every
//! merged number comes out bit-equal, so each cell is one FNV-1a digest over
//! `Debug` text:
//!
//! * a morsel cell — `QueryBuilder::run_collect` at 2 or 4 threads — covers
//!   the [`RunReport`](rodb::engine::RunReport), `ParallelInfo::{cpu_crit_s,
//!   morsels}` and the rows;
//! * a service cell covers `makespan_s`, the merged driver `io`, and each
//!   outcome's `latency_s`, `attach_seg` and rows.
//!
//! `MORSEL_GOLDEN` and `SERVICE_GOLDEN` were computed at the commit before
//! the serial, morsel and rider executors were folded into one plan-run
//! call. A digest may change only together with the checked-in figures; the
//! failure message names the cell.

use rodb::prelude::*;
use rodb::types::CacheSpec;
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

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
    let text = format!(
        "{:?}\n{:?} {}\n{:?}\n",
        res.report, info.cpu_crit_s, info.morsels, res.rows
    );
    fnv1a(&text)
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
        let mut text = format!("{:?}\n{:?}\n", report.makespan_s, report.io);
        for o in &report.outcomes {
            text += &format!("{:?} {} {:?}\n", o.latency_s, o.attach_seg, o.rows);
        }
        out.push((cell.to_string(), fnv1a(&text)));
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
    0x58c128df38d809ff, 0x077a767d28076a6a, 0x3947e4241bc64471, 0xe48a6a7aae0ec4d0,
    0x72c08a6b7b13454f, 0xfd9bcd2b3e58dc0b, 0x74564ea188f4e18a, 0xad98c2aee471bd8b,
    0x714d2441e15243a0, 0x7b11d8f38cdd1ec6, 0x714d2441e15243a0, 0x7b11d8f38cdd1ec6,
    0xa6675d0ac1f71bc1, 0x099d98346268e18e, 0xf88a7b8d39bace93, 0x9263b478f6218b1c,
    0x6dcb6273163912f9, 0x910ed2aeaaacd591, 0x782361378e299672, 0xeb53a5e24447c40d,
    0xb03350ce501ed641, 0x059eab68a9218d9d, 0xa6cee4e42f2cec5c, 0x50cf32a1b6dc507b,
    0x824eb25b959a81d5, 0xcb3d380c85d1da40, 0x824eb25b959a81d5, 0xcb3d380c85d1da40,
    0xe46c13a79b98e3f8, 0x6126375399a3def6, 0xe46c13a79b98e3f8, 0x6126375399a3def6,
    0x5e282a9560b43226, 0xa519dfd0c5d3f101, 0x7a309037073fac7b, 0x11174e551139ed52,
    0xa0b51541187405c4, 0x76b8741e7c7788d1, 0x71368264099b18a8, 0x0fa21ff5e8f3e0fb,
    0x8513232bbddf1110, 0x36d1b0fa0163fcdd, 0x32e95a4daa96d3ff, 0xd45021115501cb18,
    0x77e0e21fc89f68dc, 0x69d31dcab6e124e6, 0x88ef7e81646c1882, 0x97ab70adac50e20e,
];

#[rustfmt::skip]
const SERVICE_GOLDEN: [u64; 3] = [
    0xb7b8fb153257f4ba, 0x12a8dd23079559d3, 0x06021a4725ba8b26,
];
