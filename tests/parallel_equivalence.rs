//! Morsel-driven parallel execution must be indistinguishable from the
//! serial engine in its *results* — for every layout, predicate shape,
//! aggregation strategy and thread count — and its merged accounting must
//! equal the sum of its parts.

use rodb::cpu::CpuMeter;
use rodb::io::{merge_parallel, CacheStats, IoStats, RecoveryStats};
use rodb::prelude::*;
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Every access path; each one scans a row range, so each runs in parallel.
const LAYOUTS: [ScanLayout; 4] = [
    ScanLayout::Row,
    ScanLayout::Column,
    ScanLayout::ColumnSlow,
    ScanLayout::ColumnSingleIterator,
];

fn db(n: usize) -> Database {
    let schema = Arc::new(
        Schema::new(vec![
            Column::int("id"),
            Column::int("grp"),
            Column::int("val"),
            Column::text("tag", 6),
        ])
        .unwrap(),
    );
    let mut b = TableBuilder::new("t", schema, 4096, BuildLayouts::both()).unwrap();
    for i in 0..n {
        b.push_row(&[
            Value::Int(i as i32),
            // Nondecreasing in row order, so sorted aggregation over a plain
            // scan is legal both serially and per morsel.
            Value::Int((i / 512) as i32),
            Value::Int((i % 997) as i32),
            Value::text(["aa", "bb", "cc"][i % 3]),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.register(b.finish().unwrap());
    db
}

fn scan_query(db: &Database, layout: ScanLayout) -> QueryBuilder {
    db.query("t")
        .unwrap()
        .layout(layout)
        .select(&["id", "val", "tag"])
        .unwrap()
        .filter("val", CmpOp::Lt, 400)
        .unwrap()
        .filter("tag", CmpOp::Ne, "bb")
        .unwrap()
}

#[test]
fn parallel_row_scan_equals_serial() {
    let db = db(20_000);
    let serial = scan_query(&db, ScanLayout::Row).run_collect().unwrap();
    assert!(serial.parallel.is_none());
    for t in THREADS {
        let par = scan_query(&db, ScanLayout::Row)
            .threads(t)
            .run_collect()
            .unwrap();
        assert_eq!(par.rows, serial.rows, "row scan, {t} threads");
        assert_eq!(par.report.rows, serial.report.rows);
        assert_eq!(par.parallel.is_some(), t > 1);
    }
}

#[test]
fn parallel_column_scan_equals_serial() {
    let db = db(20_000);
    for layout in &LAYOUTS[1..] {
        let serial = scan_query(&db, *layout).run_collect().unwrap();
        for t in THREADS {
            let par = scan_query(&db, *layout).threads(t).run_collect().unwrap();
            assert_eq!(par.rows, serial.rows, "{layout} scan, {t} threads");
            assert_eq!(par.parallel.is_some(), t > 1, "{layout}, {t} threads");
        }
    }
}

#[test]
fn parallel_hash_aggregation_equals_serial() {
    let db = db(30_000);
    let q = |layout: ScanLayout, threads: usize| {
        db.query("t")
            .unwrap()
            .layout(layout)
            .select(&["grp", "val"])
            .unwrap()
            .group_by("grp")
            .unwrap()
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(1))
            .aggregate(AggSpec::min(1))
            .aggregate(AggSpec::max(1))
            .aggregate(AggSpec::avg(1))
            .threads(threads)
            .run_collect()
            .unwrap()
    };
    for layout in LAYOUTS {
        let serial = q(layout, 1);
        assert!(!serial.rows.is_empty());
        for t in THREADS {
            let par = q(layout, t);
            assert_eq!(par.rows, serial.rows, "hash agg, {layout}, {t} threads");
        }
    }
}

#[test]
fn parallel_sorted_aggregation_equals_serial() {
    let db = db(30_000);
    // grp is nondecreasing in row order, so the sorted strategy accepts a
    // plain scan; morsel boundaries split group runs, which the partial
    // merge must stitch back together.
    let q = |layout: ScanLayout, threads: usize| {
        db.query("t")
            .unwrap()
            .layout(layout)
            .select(&["grp", "val"])
            .unwrap()
            .group_by("grp")
            .unwrap()
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(1))
            .sorted_aggregation()
            .threads(threads)
            .run_collect()
            .unwrap()
    };
    for layout in LAYOUTS {
        let serial = q(layout, 1);
        assert_eq!(serial.rows.len(), 30_000 / 512 + 1);
        for t in THREADS {
            let par = q(layout, t);
            assert_eq!(par.rows, serial.rows, "sorted agg, {layout}, {t} threads");
        }
    }
}

#[test]
fn parallel_report_is_coherent() {
    let db = db(100_000);
    let serial = scan_query(&db, ScanLayout::Column).run().unwrap();
    let par = scan_query(&db, ScanLayout::Column)
        .threads(4)
        .run()
        .unwrap();
    let info = par.parallel.expect("parallel run");
    assert_eq!(info.threads, 4);
    assert!(info.morsels >= 4);
    assert!(info.wall_s > 0.0);
    assert!(info.cpu_crit_s > 0.0);
    // User-mode CPU work is parallelism-invariant up to re-decoding the
    // boundary page each morsel window shares with its neighbour.
    let (a, b) = (par.report.cpu.user(), serial.report.cpu.user());
    assert!(a >= b - 1e-12, "parallel lost work: {a} vs {b}");
    assert!((a - b) / b < 0.15, "cpu user {a} vs {b}");
    // Same data is read, plus at most those boundary pages.
    assert!(par.report.io.bytes_read >= serial.report.io.bytes_read - 1.0);
    assert!(par.report.io.bytes_read < serial.report.io.bytes_read * 1.25);
    // Interleaved workers pay extra head switches (and the kernel work that
    // goes with them): the parallel run never reports fewer seeks or less
    // sys time than the serial one.
    assert!(par.report.io.seeks >= serial.report.io.seeks);
    assert!(par.report.cpu.sys >= serial.report.cpu.sys);
    assert!(par.report.elapsed_s > 0.0);
}

/// The scaling claim itself: on a wide fast array (12 spindles, 0.1 ms
/// seeks, so cpdb ≈ 4.4 and the compressed scan is decode-bound, not
/// I/O-bound) four workers finish a half-selective ORDERS-Z projection at
/// least twice as fast as one on the modeled clock.
#[test]
fn four_threads_at_least_halve_a_decode_bound_modeled_scan() {
    let hw = HardwareConfig {
        disks: 12,
        seek_s: 0.1e-3,
        ..HardwareConfig::default()
    };
    let orders =
        Arc::new(load_orders(60_000, 1, 4096, BuildLayouts::both(), Variant::Compressed).unwrap());
    let modeled_s = |threads: usize| {
        QueryBuilder::new(orders.clone(), hw, SystemConfig::default())
            .layout(ScanLayout::Column)
            .select(&["o_orderdate", "o_orderkey", "o_custkey", "o_totalprice"])
            .unwrap()
            .filter("o_orderdate", CmpOp::Lt, orderdate_threshold(0.5))
            .unwrap()
            .threads(threads)
            .run()
            .unwrap()
            .report
            .elapsed_s
    };
    let speedup = modeled_s(1) / modeled_s(4);
    assert!(speedup >= 2.0, "modeled speedup at 4 threads {speedup:.2}x");
}

// ---- degenerate shapes -------------------------------------------------

#[test]
fn parallel_scan_of_empty_table() {
    let db = db(0);
    for layout in LAYOUTS {
        for t in THREADS {
            let res = scan_query(&db, layout).threads(t).run_collect().unwrap();
            assert!(res.rows.is_empty(), "{layout}, {t} threads");
        }
        // Grouped aggregation over zero rows yields zero groups.
        let agg = db
            .query("t")
            .unwrap()
            .layout(layout)
            .select(&["grp", "val"])
            .unwrap()
            .group_by("grp")
            .unwrap()
            .aggregate(AggSpec::count())
            .threads(4)
            .run_collect()
            .unwrap();
        assert!(agg.rows.is_empty(), "{layout} empty agg");
    }
}

#[test]
fn parallel_scan_of_single_row_table() {
    let db = db(1);
    for layout in LAYOUTS {
        let serial = scan_query(&db, layout).run_collect().unwrap();
        assert_eq!(serial.rows.len(), 1);
        for t in THREADS {
            let par = scan_query(&db, layout).threads(t).run_collect().unwrap();
            assert_eq!(par.rows, serial.rows, "{layout}, {t} threads");
        }
    }
}

#[test]
fn more_threads_than_morsels_is_harmless() {
    // 100 rows fit in a handful of pages, so 16 workers outnumber the
    // morsels; the spare workers must idle, not misbehave.
    let db = db(100);
    for layout in LAYOUTS {
        let serial = scan_query(&db, layout).run_collect().unwrap();
        let par = scan_query(&db, layout).threads(16).run_collect().unwrap();
        assert_eq!(par.rows, serial.rows, "{layout}, 16 threads");
        if let Some(info) = par.parallel {
            assert!(info.morsels <= 16);
        }
    }
}

#[test]
fn zero_threads_is_rejected() {
    let db = db(100);
    let err = scan_query(&db, ScanLayout::Row)
        .threads(0)
        .run_collect()
        .unwrap_err();
    assert!(
        matches!(err, Error::InvalidConfig(_)),
        "expected InvalidConfig, got {err:?}"
    );
}

/// Two morsels fail under `OnCorrupt::Fail`: the lower one's last page and
/// the higher one's first page are damaged. Whichever worker runs which
/// morsel, and whichever finishes first, the query reports the error of the
/// lowest failing morsel — every lower morsel was handed out before it.
#[test]
fn the_lowest_failing_morsel_names_the_error() {
    const PAGE: usize = 1024;
    let mut t = load_orders(3_000, 7, PAGE, BuildLayouts::both(), Variant::Plain).unwrap();
    let morsels = t.morsels(4);
    assert_eq!(morsels.len(), 4);
    let rs = t.row.as_mut().unwrap();
    let per_page = rs.tuples_per_page as u64;
    let (low, high) = ((morsels[1].end - 1) / per_page, morsels[3].start / per_page);
    for page in [low, high] {
        Arc::make_mut(&mut rs.file)[page as usize * PAGE + 100] ^= 0x10;
    }
    let t = Arc::new(t);
    let sys = SystemConfig {
        page_size: PAGE,
        ..SystemConfig::default().with_on_corrupt(rodb::types::OnCorrupt::Fail)
    };
    for run in 0..20 {
        let err = QueryBuilder::new(t.clone(), HardwareConfig::default(), sys)
            .layout(ScanLayout::Row)
            .select_indices(&[0, 1])
            .threads(4)
            .run()
            .unwrap_err();
        match err {
            Error::Corrupt(c) => assert_eq!(c.page_id, Some(low), "run {run}: {c:?}"),
            other => panic!("run {run}: expected Corrupt, got {other}"),
        }
    }
}

// ---- accounting-merge units -------------------------------------------

#[test]
fn cpu_meter_merge_equals_single_meter() {
    let hw = HardwareConfig::default();
    // Split the same event stream across three meters.
    let mut parts = [
        CpuMeter::default(),
        CpuMeter::default(),
        CpuMeter::default(),
    ];
    let mut whole = CpuMeter::default();
    let events: [&dyn Fn(&mut CpuMeter); 5] = [
        &|m| m.row_iter(10_000.0),
        &|m| m.predicate(10_000.0, 700.0),
        &|m| m.io_kernel_work(5.0e8, 128 * 1024, 12.0),
        &|m| m.memory_access(&HardwareConfig::default(), 4.0e6, 1.0e6, 4.0),
        &|m| m.project(700.0, 3.0, 8_400.0),
    ];
    for (i, ev) in events.iter().enumerate() {
        ev(&mut parts[i % parts.len()]);
        ev(&mut whole);
    }
    let mut merged = CpuMeter::default();
    for p in &parts {
        merged.merge(p);
    }
    assert_eq!(merged.counters(), whole.counters());
    let (m, w) = (merged.breakdown(&hw), whole.breakdown(&hw));
    assert!((m.total() - w.total()).abs() < 1e-12);
    assert!((m.sys - w.sys).abs() < 1e-12);
}

#[test]
fn io_stats_merge_sums_every_field() {
    let a = IoStats {
        bytes_read: 1.0e6,
        seeks: 3,
        bursts: 5,
        comp_bursts: 1,
        transfer_s: 0.5,
        seek_s: 0.015,
        comp_s: 0.1,
        pages_skipped: 11,
        recovery: RecoveryStats {
            retries: 2,
            repairs: 1,
            quarantined_pages: 1,
            dropped_rows: 100,
            wal_replayed: 3,
            wal_discarded: 1,
        },
        cache: CacheStats {
            hits: 8,
            misses: 2,
            evictions: 1,
        },
    };
    let b = IoStats {
        bytes_read: 2.0e6,
        seeks: 4,
        bursts: 7,
        comp_bursts: 2,
        transfer_s: 1.0,
        seek_s: 0.020,
        comp_s: 0.2,
        pages_skipped: 6,
        recovery: RecoveryStats {
            retries: 5,
            repairs: 3,
            quarantined_pages: 0,
            dropped_rows: 20,
            wal_replayed: 2,
            wal_discarded: 0,
        },
        cache: CacheStats {
            hits: 1,
            misses: 9,
            evictions: 2,
        },
    };
    let mut m = a;
    m.merge(&b);
    assert_eq!(m.bytes_read, 3.0e6);
    assert_eq!(m.seeks, 7);
    assert_eq!(m.bursts, 12);
    assert_eq!(m.comp_bursts, 3);
    assert_eq!(m.pages_skipped, 17);
    assert_eq!(m.recovery.retries, 7);
    assert_eq!(m.recovery.repairs, 4);
    assert_eq!(m.recovery.quarantined_pages, 1);
    assert_eq!(m.recovery.dropped_rows, 120);
    assert_eq!(m.recovery.wal_replayed, 5);
    assert_eq!(m.recovery.wal_discarded, 1);
    assert_eq!(m.cache.hits, 9);
    assert_eq!(m.cache.misses, 11);
    assert_eq!(m.cache.evictions, 3);
    assert!((m.transfer_s - 1.5).abs() < 1e-12);
    assert!((m.seek_s - 0.035).abs() < 1e-12);
    assert!((m.comp_s - 0.3).abs() < 1e-12);
    assert!((m.total_s() - (a.total_s() + b.total_s())).abs() < 1e-12);
}

#[test]
fn merge_parallel_charges_switch_seeks_only_with_real_parallelism() {
    let seek_s = 0.005;
    let w = IoStats {
        bytes_read: 1.0e6,
        seeks: 2,
        bursts: 10,
        transfer_s: 0.5,
        seek_s: 2.0 * seek_s,
        ..Default::default()
    };
    // One worker: a plain sum, nothing recharged.
    let solo = merge_parallel(&[w], 1, seek_s);
    assert_eq!(solo.seeks, 2);
    assert!((solo.seek_s - w.seek_s).abs() < 1e-12);
    // Two workers sharing the array: every burst pays a head switch.
    let duo = merge_parallel(&[w, w], 2, seek_s);
    assert_eq!(duo.seeks, 20); // max(bursts, seeks) of the summed stats
    let expected = 2.0 * w.seek_s + (20 - 4) as f64 * seek_s;
    assert!((duo.seek_s - expected).abs() < 1e-12, "{}", duo.seek_s);
    assert_eq!(duo.bytes_read, 2.0e6);
}

#[test]
fn settle_io_kernel_work_is_idempotent() {
    let db = db(10_000);
    let t = db.table("t").unwrap();
    let ctx = ExecContext::default_ctx();
    let mut scan = ScanSpec::new(t, ScanLayout::Row, vec![0, 1])
        .build(&ctx)
        .unwrap();
    while scan.next().unwrap().is_some() {}
    ctx.settle_io_kernel_work();
    let after_first = ctx.meter.borrow().counters();
    assert!(after_first.io_bytes > 0.0);
    // Settling again without new disk traffic must change nothing.
    ctx.settle_io_kernel_work();
    ctx.settle_io_kernel_work();
    assert_eq!(ctx.meter.borrow().counters(), after_first);
}
