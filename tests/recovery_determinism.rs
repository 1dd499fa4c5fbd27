//! Fault recovery must be *replayable*: with a positional fault injector,
//! the same configuration always damages the same page sites, so every
//! execution strategy — serial or parallel, scalar or vectorized — must
//! quarantine the identical page set, drop the identical rows, and produce
//! the identical degraded result. Mirrored reads must repair those same
//! sites back to the clean answer.

use rodb::prelude::{CmpOp, Database, ExecContext, QueryResult, ScanLayout, ScanSpec};
use rodb::storage::{BuildLayouts, QuarantinedPage, Table, TableBuilder};
use rodb::types::{Column, FaultSpec, HardwareConfig, OnCorrupt, Schema, SystemConfig, Value};
use std::sync::Arc;

const ROWS: usize = 4000;
const PAGE: usize = 1024;
const FAULT_SEED: u64 = 7;
/// Every access path: each scans row ranges, so each meets every strategy.
const LAYOUTS: [ScanLayout; 4] = [
    ScanLayout::Row,
    ScanLayout::Column,
    ScanLayout::ColumnSlow,
    ScanLayout::ColumnSingleIterator,
];

/// Three int columns, many 1 KiB pages in both representations. Values are
/// chosen so the `id >= 0` predicate matches every row: zone maps can never
/// skip a page, so all strategies demand every position and the quarantine
/// comparison is exact.
fn build() -> Table {
    let schema = Arc::new(
        Schema::new(vec![
            Column::int("id"),
            Column::int("val"),
            Column::int("neg"),
        ])
        .unwrap(),
    );
    let mut b = TableBuilder::new("t", schema, PAGE, BuildLayouts::both()).unwrap();
    for i in 0..ROWS {
        b.push_row(&[
            Value::Int(i as i32),
            Value::Int((i % 997) as i32),
            Value::Int(-(i as i32)),
        ])
        .unwrap();
    }
    b.finish().unwrap()
}

/// Run the full-match scan on a freshly built table and return the result
/// plus the table's quarantine snapshot (fresh table per run: the
/// quarantine is shared across clones of a handle, and replay determinism
/// is about independent executions).
fn run(
    layout: ScanLayout,
    threads: usize,
    fast: bool,
    mirror: usize,
    on_corrupt: OnCorrupt,
    rate_ppm: u32,
) -> (QueryResult, Vec<QuarantinedPage>) {
    let table = build();
    let quarantine = table.quarantine.clone();
    let sys = SystemConfig {
        page_size: PAGE,
        threads,
        scan_fast_path: fast,
        faults: Some(FaultSpec::at_rate(FAULT_SEED, rate_ppm)),
        mirror,
        on_corrupt,
        ..SystemConfig::default()
    };
    let mut db = Database::with_config(HardwareConfig::default(), sys).unwrap();
    db.register(table);
    let res = db
        .query("t")
        .unwrap()
        .layout(layout)
        .select(&["id", "val", "neg"])
        .unwrap()
        .filter("id", CmpOp::Ge, 0)
        .unwrap()
        .run_collect()
        .unwrap();
    (res, quarantine.snapshot())
}

#[test]
fn degraded_scan_is_identical_across_all_strategies() {
    for layout in LAYOUTS {
        let (base, base_q) = run(layout, 1, false, 1, OnCorrupt::Skip, 250_000);
        assert!(
            !base_q.is_empty(),
            "{layout:?}: the fault rate must quarantine something for this test to bite"
        );
        assert!(
            !base.rows.is_empty(),
            "{layout:?}: some pages must survive for this test to bite"
        );
        let rec = base.report.io.recovery;
        assert_eq!(rec.quarantined_pages, base_q.len() as u64);
        assert!(rec.dropped_rows > 0);
        assert_eq!(
            base.rows.len() as u64 + rec.dropped_rows,
            ROWS as u64,
            "{layout:?}: a full-match scan returns exactly the non-dropped rows"
        );
        // Every strategy must replay to the same rows, quarantine set, and
        // recovery counters (full-match predicates mean every position is
        // demanded, so even parallel drop accounting covers whole pages).
        for threads in [1usize, 4] {
            for fast in [false, true] {
                let (got, got_q) = run(layout, threads, fast, 1, OnCorrupt::Skip, 250_000);
                assert_eq!(
                    got.rows, base.rows,
                    "{layout:?}: rows diverged ({threads} threads, fast={fast})"
                );
                assert_eq!(
                    got_q, base_q,
                    "{layout:?}: quarantine diverged ({threads} threads, fast={fast})"
                );
                assert_eq!(
                    got.report.io.recovery, rec,
                    "{layout:?}: recovery counters diverged ({threads} threads, fast={fast})"
                );
            }
        }
    }
}

/// Which pages a degraded scan quarantines is a function of its window, not
/// of its schedule. `tag` (24 values a 1 KiB page) is scanned before `id`
/// (249 a page); `id`'s damaged page 2 holds rows 498..747 and `tag`'s
/// damaged page 22 rows 528..552, inside it. A whole-table scan meets the
/// `id` page first and drops its rows before `tag` is asked for them, while
/// a range starting at row 540 asks `tag` first: both must quarantine both
/// pages and return the same rows.
#[test]
fn the_quarantine_does_not_depend_on_where_a_range_begins() {
    let build = || {
        let schema = Schema::new(vec![
            Column::int("val"),
            Column::text("tag", 40),
            Column::int("id"),
        ]);
        let mut b = TableBuilder::new(
            "t",
            Arc::new(schema.unwrap()),
            PAGE,
            BuildLayouts::column_only(),
        )
        .unwrap();
        for i in 0..1_000 {
            let tag = Value::text(&format!("t{i}"));
            b.push_row(&[Value::Int(i), tag, Value::Int(-i)]).unwrap();
        }
        let mut t = b.finish().unwrap();
        let cols = &mut t.col.as_mut().unwrap().columns;
        assert_eq!(
            (cols[1].values_per_page, cols[2].values_per_page),
            (24, 249)
        );
        for (col, page) in [(1, 22), (2, 2)] {
            Arc::make_mut(&mut cols[col].file)[page * PAGE + 100] ^= 0x10;
        }
        Arc::new(t)
    };
    let sys = SystemConfig {
        page_size: PAGE,
        on_corrupt: OnCorrupt::Skip,
        ..SystemConfig::default()
    };
    let scan = |layout, ranges: &[Option<(u64, u64)>]| {
        let t = build();
        let (mut rows, mut dropped) = (Vec::new(), 0);
        for &range in ranges {
            let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
            let mut spec = ScanSpec::new(t.clone(), layout, vec![0, 1, 2]);
            spec.row_range = range;
            let mut op = spec.build(&ctx).unwrap();
            while let Some(b) = op.next().unwrap() {
                rows.extend(b.rows().unwrap());
            }
            dropped += ctx.disk.borrow().stats().recovery.dropped_rows;
        }
        (rows, dropped, t.quarantine.snapshot())
    };
    for layout in &LAYOUTS[1..] {
        let whole = scan(*layout, &[None]);
        let pieces = scan(*layout, &[Some((0, 540)), Some((540, 1_000))]);
        assert_eq!(whole.2.len(), 2, "{layout}: {:?}", whole.2);
        assert_eq!((whole.1, whole.0.len()), (249, 751), "{layout}");
        assert_eq!(pieces, whole, "{layout}");
    }
}

#[test]
fn mirrored_reads_repair_the_same_sites_to_the_clean_answer() {
    for layout in LAYOUTS {
        // Clean baseline: no faults at all.
        let (clean, _) = run(layout, 1, false, 1, OnCorrupt::Fail, 0);
        assert_eq!(clean.rows.len(), ROWS);
        for threads in [1usize, 4] {
            for fast in [false, true] {
                let (got, q) = run(layout, threads, fast, 2, OnCorrupt::Retry, 1_000_000);
                assert_eq!(
                    got.rows, clean.rows,
                    "{layout:?}: mirrored repair changed the answer \
                     ({threads} threads, fast={fast})"
                );
                assert!(
                    q.is_empty(),
                    "{layout:?}: repaired pages must not be quarantined"
                );
                let rec = got.report.io.recovery;
                assert!(
                    rec.retries > 0,
                    "{layout:?}: every primary read was damaged"
                );
                assert_eq!(
                    rec.repairs, rec.retries,
                    "{layout:?}: replica 1 is always clean"
                );
                assert_eq!(rec.quarantined_pages, 0);
                assert_eq!(rec.dropped_rows, 0);
            }
        }
    }
}

/// What the mirror costs and what it saves, on the modeled clock. Clean,
/// `mirror = 2` may cost at most 2 % over `mirror = 1` (replicas are read
/// only after a checksum fails). Damaged, one mirrored pass must beat the
/// analytic fail-and-restart alternative: with per-page fault probability
/// `p` over `P` pages a restarting scan expects `1 / (1 - p)^P` attempts,
/// each failed one costing half a clean scan. 100 ppm is the rate the
/// claim is stated at; at 100 000 ppm this table's few dozen pages
/// actually take damage.
#[test]
fn mirror_is_free_when_clean_and_beats_fail_restart_when_not() {
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        let (m1, _) = run(layout, 1, false, 1, OnCorrupt::Fail, 0);
        let (m2, _) = run(layout, 1, false, 2, OnCorrupt::Fail, 0);
        assert_eq!(m2.rows, m1.rows);
        let clean_s = m1.report.elapsed_s;
        let overhead = (m2.report.elapsed_s - clean_s) / clean_s;
        assert!(overhead <= 0.02, "{layout:?}: clean overhead {overhead}");

        let pages = (m1.report.io.bytes_read / PAGE as f64).round();
        let retries_beating_restart = |rate_ppm: u32| {
            let (rec, q) = run(layout, 1, false, 2, OnCorrupt::Retry, rate_ppm);
            assert_eq!(rec.rows, m1.rows, "{layout:?} at {rate_ppm} ppm");
            assert!(q.is_empty());
            let attempts = 1.0 / (1.0 - rate_ppm as f64 / 1e6).powf(pages);
            let restart_s = clean_s * (1.0 + 0.5 * (attempts - 1.0));
            assert!(
                rec.report.elapsed_s < restart_s,
                "{layout:?} at {rate_ppm} ppm: recovery {} s, fail-restart {restart_s} s",
                rec.report.elapsed_s
            );
            rec.report.io.recovery.retries
        };
        retries_beating_restart(100);
        assert!(
            retries_beating_restart(100_000) > 0,
            "{layout:?}: 100 000 ppm must damage a page"
        );
    }
}
