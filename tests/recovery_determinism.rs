//! Fault recovery must be *replayable*: with a positional fault injector,
//! the same configuration always damages the same page sites, so every
//! execution strategy — serial or parallel, scalar or vectorized — must
//! quarantine the identical page set, drop the identical rows, and produce
//! the identical degraded result. Mirrored reads must repair those same
//! sites back to the clean answer.

use rodb::prelude::{CmpOp, Database, QueryResult, ScanLayout};
use rodb::storage::{BuildLayouts, QuarantinedPage, Table, TableBuilder};
use rodb::types::{Column, FaultSpec, HardwareConfig, OnCorrupt, Schema, SystemConfig, Value};
use std::sync::Arc;

const ROWS: usize = 4000;
const PAGE: usize = 1024;
const FAULT_SEED: u64 = 7;

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
    for layout in [ScanLayout::Row, ScanLayout::Column] {
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

#[test]
fn degraded_single_iterator_layouts_replay_identically() {
    // ColumnSlow and ColumnSingleIterator execute serially; determinism here
    // is run-to-run replay of the same configuration.
    for layout in [ScanLayout::ColumnSlow, ScanLayout::ColumnSingleIterator] {
        let (a, a_q) = run(layout, 1, false, 1, OnCorrupt::Skip, 250_000);
        let (b, b_q) = run(layout, 1, false, 1, OnCorrupt::Skip, 250_000);
        assert!(!a_q.is_empty(), "{layout:?}: nothing quarantined");
        assert_eq!(a.rows, b.rows, "{layout:?}: replay rows diverged");
        assert_eq!(a_q, b_q, "{layout:?}: replay quarantine diverged");
        assert_eq!(a.report.io.recovery, b.report.io.recovery);
        assert_eq!(
            a.rows.len() as u64 + a.report.io.recovery.dropped_rows,
            ROWS as u64
        );
    }
}

#[test]
fn mirrored_reads_repair_the_same_sites_to_the_clean_answer() {
    for layout in [ScanLayout::Row, ScanLayout::Column] {
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
