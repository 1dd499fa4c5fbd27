//! A page is checksummed once per scanner that receives it, not once per
//! position read from it — and a page that *fails* its checksum keeps
//! failing, for every position, with the same typed error.
//!
//! The pipelined column scanner drives its later scan nodes from a position
//! list; before this invariant was enforced each driven position re-ran the
//! CRC over its whole 4 KB page. `storage::page::verified_pages()` counts
//! checksum passes on the calling thread, `IoStats` counts what the streams
//! transferred; the first may never exceed the second.

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
        SystemConfig::default(),
    )
    .layout(layout)
    .scan_fast_path(fast)
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

// ---------------------------------------------------------------------------
// Damage semantics of the pipelined column scanner
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
    let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
    let mut scan = ColumnScanner::new(
        Arc::new(damaged_table()),
        vec![0, 1, 2],
        vec![],
        ColumnScanMode::Pipelined,
        &ctx,
    )
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
    assert_eq!(errors.len(), VPP, "one failure per position on the page");
    assert_eq!(rows, SMALL_ROWS - VPP);
    for e in &errors {
        assert_eq!(e, &errors[0], "positions on one page disagree");
    }
    match &errors[0] {
        Error::Corrupt(c) => {
            assert_eq!(c.kind, CorruptKind::Checksum);
            assert_eq!(c.page_id, Some(BAD_PAGE as u64));
            assert!(c.file_id.is_some());
        }
        other => panic!("expected a checksum error, got {other}"),
    }
    // Clean pages cost one pass each; only the damaged page, which must
    // stay unverified, is re-checked per position.
    let clean_pages: usize = 3 * SMALL_ROWS.div_ceil(VPP) - 1;
    assert_eq!(verified_pages() - before, (clean_pages + VPP) as u64);
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
                small_sys(OnCorrupt::Skip),
            )
            .layout(ScanLayout::Column)
            .threads(threads)
            .scan_fast_path(fast)
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
