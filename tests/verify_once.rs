//! A page is checksummed once per scanner that receives it, not once per
//! position read from it — and a page that *fails* its checksum keeps
//! failing, for every position, with the same typed error (the one pass
//! that found the damage is the only one it costs).
//!
//! The pipelined column scanner drives its later scan nodes from a position
//! list; before this invariant was enforced each driven position re-ran the
//! CRC over its whole 4 KB page. The invariant holds for every scanner, on
//! the scalar and the fast path. `storage::page::verified_pages()` counts
//! checksum passes on the calling thread, `IoStats` counts what the streams
//! transferred; the first may never exceed the second.

use rodb::engine::run_to_completion;
use rodb::prelude::*;
use rodb::storage::page::verified_pages;
use rodb::storage::QuarantinedPage;
use rodb::types::{CorruptKind, OnCorrupt};
use std::sync::Arc;

const ROWS: u64 = 8_000;
const PAGE: usize = 4096;

/// Every scanner × `scan_fast_path` held to the invariant.
const PATHS: [(ScanLayout, bool); 4] = [
    (ScanLayout::Row, false),
    (ScanLayout::Column, false),
    (ScanLayout::Column, true),
    (ScanLayout::ColumnSingleIterator, false),
];

/// Run one serial scan and return (checksum passes, pages transferred, rows).
fn passes_and_pages(
    t: &Arc<Table>,
    layout: ScanLayout,
    fast: bool,
    k: usize,
    pred: Predicate,
) -> (u64, f64, u64) {
    let q = QueryBuilder::new(
        t.clone(),
        HardwareConfig::default(),
        SystemConfig::default().with_scan_fast_path(fast),
    )
    .layout(layout)
    .select_first(k)
    .filter_pred(pred)
    .expect("valid predicate");
    let before = verified_pages();
    let res = q.run().expect("scan runs");
    let passes = verified_pages() - before;
    (
        passes,
        res.report.io.bytes_read / PAGE as f64,
        res.report.rows,
    )
}

#[test]
fn a_scan_verifies_no_more_pages_than_it_reads() {
    let lineitem =
        Arc::new(load_lineitem(ROWS, 7, PAGE, BuildLayouts::both(), Variant::Compressed).unwrap());
    let orders =
        Arc::new(load_orders(ROWS, 7, PAGE, BuildLayouts::both(), Variant::Compressed).unwrap());
    for (t, threshold) in [
        (&lineitem, partkey_threshold as fn(f64) -> i32),
        (&orders, orderdate_threshold as fn(f64) -> i32),
    ] {
        let all = t.schema.len();
        for sel in [0.001, 0.1] {
            for k in [1, 4, all] {
                for (layout, fast) in PATHS {
                    let pred = Predicate::lt(0, threshold(sel));
                    let (passes, pages, rows) = passes_and_pages(t, layout, fast, k, pred);
                    let what = format!("{} {layout} fast={fast} k={k} sel={sel}", t.name);
                    assert!(passes > 0, "{what}: the counter must see the scan");
                    assert!(
                        passes as f64 <= pages,
                        "{what}: {passes} checksum passes for {pages} pages read ({rows} rows)"
                    );
                }
            }
        }
    }
}

/// A morsel's boundary pages are shared with its neighbours; each scanner
/// still verifies only what its own clamped streams delivered.
#[test]
fn a_ranged_scan_verifies_no_more_pages_than_it_reads() {
    let t =
        Arc::new(load_orders(ROWS, 7, PAGE, BuildLayouts::both(), Variant::Compressed).unwrap());
    let all = t.schema.len();
    // Mid-page starts and ends, a range inside one page, the table's tail.
    let ranges = [(100, 3_000), (2_999, 3_001), (7_500, ROWS)];
    for (layout, fast) in PATHS {
        for (start, end) in ranges {
            for k in [1, 4, all] {
                let what = format!("{layout} fast={fast} [{start}, {end}) k={k}");
                let sys = SystemConfig::default().with_scan_fast_path(fast);
                let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
                let mut scan = ScanSpec::new(t.clone(), layout, (0..k).collect())
                    .with_predicates(vec![Predicate::lt(0, orderdate_threshold(0.1))])
                    .with_row_range(start, end)
                    .build(&ctx)
                    .unwrap();
                let before = verified_pages();
                let report = run_to_completion(scan.as_mut(), &ctx).unwrap();
                let passes = verified_pages() - before;
                let pages = report.io.bytes_read / PAGE as f64;
                assert!(passes > 0, "{what}: the counter must see the scan");
                assert!(
                    passes as f64 <= pages,
                    "{what}: {passes} checksum passes for {pages} pages read"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Damage semantics of the position-driven column scanners
// ---------------------------------------------------------------------------

const SMALL_ROWS: usize = 4000;
const SMALL_PAGE: usize = 1024;
const BAD_COL: usize = 1;
const BAD_PAGE: usize = 3;

/// What column `val` stores. An int column is block-decoded on the fast
/// path; fixed-width text has no block kernel, so its reads fall back to
/// per-position re-opens of the held page — the path PR 19 changed.
#[derive(Debug, Clone, Copy)]
enum Val {
    Int,
    Text,
}

impl Val {
    /// Values per 1 KiB page of the uncompressed column: (1024 − 28) / width.
    fn per_page(self) -> usize {
        match self {
            Val::Int => 249,
            Val::Text => 124,
        }
    }
}

fn row(i: usize, val: Val) -> Vec<Value> {
    vec![
        Value::Int(i as i32),
        match val {
            Val::Int => Value::Int((i % 997) as i32),
            Val::Text => Value::text(&format!("t{i:07}")),
        },
        Value::Int(-(i as i32)),
    ]
}

/// `id`, `val`, `neg`, uncompressed; one bit flipped in page 3 of `val`,
/// which every scan below reaches as a *driven* node (the scan starts at
/// `id`).
fn damaged_table(val: Val) -> Table {
    let val_col = match val {
        Val::Int => Column::int("val"),
        Val::Text => Column::text("val", 8),
    };
    let schema =
        Arc::new(Schema::new(vec![Column::int("id"), val_col, Column::int("neg")]).unwrap());
    let mut b = TableBuilder::new("t", schema, SMALL_PAGE, BuildLayouts::both()).unwrap();
    for i in 0..SMALL_ROWS {
        b.push_row(&row(i, val)).unwrap();
    }
    let mut t = b.finish().unwrap();
    let col = &mut t.col.as_mut().unwrap().columns[BAD_COL];
    assert_eq!(col.values_per_page, val.per_page());
    Arc::make_mut(&mut col.file)[BAD_PAGE * SMALL_PAGE + 100] ^= 0x10;
    t
}

fn small_sys(on_corrupt: OnCorrupt) -> SystemConfig {
    SystemConfig {
        page_size: SMALL_PAGE,
        on_corrupt,
        ..SystemConfig::default()
    }
}

#[test]
fn under_fail_every_position_on_a_damaged_page_gets_the_same_error() {
    let cases = [
        (ScanLayout::Column, false, Val::Int),
        (ScanLayout::ColumnSingleIterator, false, Val::Int),
        (ScanLayout::Column, true, Val::Text),
    ];
    for (layout, fast, val) in cases {
        let what = format!("{layout} fast={fast} {val:?}");
        // One-tuple blocks: each `next()` drives exactly one position, so the
        // scan can be resumed past each failure and every position observed.
        let sys = SystemConfig {
            block_tuples: 1,
            ..small_sys(OnCorrupt::Fail).with_scan_fast_path(fast)
        };
        let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
        let mut scan = ScanSpec::new(Arc::new(damaged_table(val)), layout, vec![0, 1, 2])
            .build(&ctx)
            .unwrap();
        let before = verified_pages();
        let mut errors = Vec::new();
        let mut rows = 0usize;
        loop {
            match scan.next() {
                Ok(Some(b)) => rows += b.count(),
                Ok(None) => break,
                Err(e) => errors.push(e),
            }
        }
        let vpp = val.per_page();
        assert_eq!(errors.len(), vpp, "{what}: one failure per position");
        assert_eq!(rows, SMALL_ROWS - vpp, "{what}");
        for e in &errors {
            assert_eq!(e, &errors[0], "{what}: positions on one page disagree");
        }
        match &errors[0] {
            Error::Corrupt(c) => {
                assert_eq!(c.kind, CorruptKind::Checksum, "{what}");
                assert_eq!(c.page_id, Some(BAD_PAGE as u64), "{what}");
                assert!(c.file_id.is_some(), "{what}");
                assert!(c.msg.contains("checksum mismatch"), "{what}: {c:?}");
            }
            other => panic!("{what}: expected a checksum error, got {other}"),
        }
        // Every page costs one pass — the damaged one included: its error is
        // held for the page's span, not recomputed per position.
        let pages = 2 * SMALL_ROWS.div_ceil(Val::Int.per_page()) + SMALL_ROWS.div_ceil(vpp);
        assert_eq!(verified_pages() - before, pages as u64, "{what}");
    }
}

#[test]
fn under_skip_the_damaged_page_is_quarantined_and_exactly_its_rows_dropped() {
    for val in [Val::Int, Val::Text] {
        let vpp = val.per_page();
        let bad = (BAD_PAGE * vpp)..((BAD_PAGE + 1) * vpp);
        let expected: Vec<Vec<Value>> = (0..SMALL_ROWS)
            .filter(|i| !bad.contains(i))
            .map(|i| row(i, val))
            .collect();
        for threads in [1usize, 4] {
            for fast in [false, true] {
                // Fresh table per run: the quarantine is shared by clones.
                let table = Arc::new(damaged_table(val));
                let res = QueryBuilder::new(
                    table.clone(),
                    HardwareConfig::default(),
                    small_sys(OnCorrupt::Skip).with_scan_fast_path(fast),
                )
                .layout(ScanLayout::Column)
                .threads(threads)
                .select_first(3)
                .run_collect()
                .unwrap();
                let what = format!("{val:?}, {threads} threads, fast={fast}");
                assert_eq!(res.rows, expected, "{what}");
                let rec = res.report.io.recovery;
                assert_eq!(rec.dropped_rows, vpp as u64, "{what}");
                assert_eq!(rec.quarantined_pages, 1, "{what}");
                assert_eq!(
                    table.quarantine.snapshot(),
                    vec![QuarantinedPage::Col {
                        col: BAD_COL,
                        page: BAD_PAGE as u64
                    }],
                    "{what}"
                );
            }
        }
    }
}
