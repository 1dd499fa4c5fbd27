//! A page is checksummed once per scanner that receives it, not once per
//! position read from it — and a page that *fails* its checksum keeps
//! failing, for every position, with the same typed error (the one pass
//! that found the damage is the only one it costs).
//!
//! The pipelined column scanner drives its later scan nodes from a position
//! list; before this invariant was enforced each driven position re-ran the
//! CRC over its whole 4 KB page. `storage::page::verified_pages()` counts
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
    // `(Column, fast)` is not held to this yet: the fast path's fallback
    // reads of text columns still re-open their page per position.
    let paths = [
        (ScanLayout::Row, false),
        (ScanLayout::Column, false),
        (ScanLayout::ColumnSingleIterator, false),
    ];
    for (t, threshold) in [
        (&lineitem, partkey_threshold as fn(f64) -> i32),
        (&orders, orderdate_threshold as fn(f64) -> i32),
    ] {
        let all = t.schema.len();
        for sel in [0.001, 0.1] {
            for k in [1, 4, all] {
                for (layout, fast) in paths {
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
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        for (start, end) in ranges {
            for k in [1, 4, all] {
                let what = format!("{layout} [{start}, {end}) k={k}");
                let ctx = ExecContext::default_ctx();
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
/// Values per 1 KiB page of an uncompressed int column: (1024 − 28) / 4.
const VPP: usize = 249;
const BAD_COL: usize = 1;
const BAD_PAGE: usize = 3;

/// Three plain int columns; one bit flipped in page 3 of column `val`, which
/// every scan below reaches as a *driven* node (the scan starts at `id`).
fn damaged_table() -> Table {
    let schema = Arc::new(
        Schema::new(vec![
            Column::int("id"),
            Column::int("val"),
            Column::int("neg"),
        ])
        .unwrap(),
    );
    let mut b = TableBuilder::new("t", schema, SMALL_PAGE, BuildLayouts::both()).unwrap();
    for i in 0..SMALL_ROWS {
        b.push_row(&[
            Value::Int(i as i32),
            Value::Int((i % 997) as i32),
            Value::Int(-(i as i32)),
        ])
        .unwrap();
    }
    let mut t = b.finish().unwrap();
    let col = &mut t.col.as_mut().unwrap().columns[BAD_COL];
    assert_eq!(col.values_per_page, VPP);
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
    // One-tuple blocks: each `next()` drives exactly one position, so the
    // scan can be resumed past each failure and every position observed.
    let sys = SystemConfig {
        block_tuples: 1,
        ..small_sys(OnCorrupt::Fail)
    };
    for layout in [ScanLayout::Column, ScanLayout::ColumnSingleIterator] {
        let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
        let mut scan = ScanSpec::new(Arc::new(damaged_table()), layout, vec![0, 1, 2])
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
        assert_eq!(errors.len(), VPP, "{layout}: one failure per position");
        assert_eq!(rows, SMALL_ROWS - VPP, "{layout}");
        for e in &errors {
            assert_eq!(e, &errors[0], "{layout}: positions on one page disagree");
        }
        match &errors[0] {
            Error::Corrupt(c) => {
                assert_eq!(c.kind, CorruptKind::Checksum, "{layout}");
                assert_eq!(c.page_id, Some(BAD_PAGE as u64), "{layout}");
                assert!(c.file_id.is_some(), "{layout}");
                assert!(c.msg.contains("checksum mismatch"), "{layout}: {c:?}");
            }
            other => panic!("{layout}: expected a checksum error, got {other}"),
        }
        // Every page costs one pass — the damaged one included: its error is
        // held for the page's span, not recomputed per position.
        let pages = 3 * SMALL_ROWS.div_ceil(VPP);
        assert_eq!(verified_pages() - before, pages as u64, "{layout}");
    }
}

#[test]
fn under_skip_the_damaged_page_is_quarantined_and_exactly_its_rows_dropped() {
    let bad = (BAD_PAGE * VPP)..((BAD_PAGE + 1) * VPP);
    let expected: Vec<Vec<Value>> = (0..SMALL_ROWS)
        .filter(|i| !bad.contains(i))
        .map(|i| {
            vec![
                Value::Int(i as i32),
                Value::Int((i % 997) as i32),
                Value::Int(-(i as i32)),
            ]
        })
        .collect();
    for threads in [1usize, 4] {
        for fast in [false, true] {
            // Fresh table per run: the quarantine is shared by clones.
            let table = Arc::new(damaged_table());
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
            let what = format!("{threads} threads, fast={fast}");
            assert_eq!(res.rows, expected, "{what}");
            let rec = res.report.io.recovery;
            assert_eq!(rec.dropped_rows, VPP as u64, "{what}");
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
