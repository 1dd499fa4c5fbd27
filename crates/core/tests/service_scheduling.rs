//! Integration locks for the concurrent query service: per-query results
//! bit-identical to solo runs, scheduler determinism across worker counts,
//! admission/deadline/fairness behavior, and a shared-vs-naive clock win.

use std::sync::Arc;

use rodb_core::{IngestStore, QueryBuilder, QueryService, ServiceRequest};
use rodb_engine::{AggSpec, CmpOp, RowBatch, ScanLayout};
use rodb_storage::page::verified_pages;
use rodb_storage::{BuildLayouts, Table, TableBuilder};
use rodb_trace::{monitor_handle, MetricsHandle, Registry};
use rodb_types::{
    CacheSpec, Column, CorruptKind, Error, FaultSpec, HardwareConfig, IngestSpec, OnCorrupt,
    Schema, ServiceSpec, SystemConfig, Value,
};

// A wide lineitem-style hot table: row-store scans of it are strongly
// I/O-bound (full 32-byte tuples move from disk, per-query CPU touches a
// couple of columns), which is the regime where scan sharing pays.
fn table(n: usize) -> Arc<Table> {
    let s = Arc::new(
        Schema::new(vec![
            Column::int("k"),
            Column::int("v"),
            Column::int("w"),
            Column::int("f3"),
            Column::int("f4"),
            Column::int("f5"),
            Column::int("f6"),
            Column::int("f7"),
        ])
        .unwrap(),
    );
    let mut b = TableBuilder::new("hot", s, 4096, BuildLayouts::both()).unwrap();
    for i in 0..n {
        let i32v = i as i32;
        b.push_row(&[
            Value::Int(i32v % 100),
            Value::Int(i32v),
            Value::Int(i32v % 7),
            Value::Int(i32v % 13),
            Value::Int(i32v % 17),
            Value::Int(i32v % 19),
            Value::Int(i32v % 23),
            Value::Int(i32v % 29),
        ])
        .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

fn sys(spec: ServiceSpec) -> SystemConfig {
    SystemConfig {
        service: Some(spec),
        ..SystemConfig::default()
    }
}

/// A small mixed workload over one hot table: plain scans, filters, an
/// aggregate — different projections so the driver's union matters.
/// Queries run at paper scale so a pass takes modeled seconds and the
/// late arrivals (0.6 s, 0.9 s) attach mid-scan.
fn workload(t: &Arc<Table>, hw: HardwareConfig, s: SystemConfig) -> Vec<ServiceRequest> {
    let q = |f: &dyn Fn(QueryBuilder) -> QueryBuilder| {
        f(QueryBuilder::new(t.clone(), hw, s)
            .layout(ScanLayout::Column)
            .scale_to_rows(20_000_000))
    };
    vec![
        ServiceRequest::new(q(&|b| b.select_indices(&[0, 1])))
            .at(0.0)
            .tenant("a"),
        ServiceRequest::new(q(&|b| {
            b.select_indices(&[1])
                .filter("v", CmpOp::Lt, 2_000)
                .unwrap()
        }))
        .at(0.0)
        .tenant("b"),
        ServiceRequest::new(q(&|b| {
            b.select_indices(&[2, 1]).filter("w", CmpOp::Eq, 3).unwrap()
        }))
        .at(0.6)
        .tenant("a"),
        ServiceRequest::new(q(&|b| {
            b.select_indices(&[0, 1])
                .group_by("k")
                .unwrap()
                .aggregate(AggSpec::count())
                .aggregate(AggSpec::sum(1))
        }))
        .at(0.9)
        .tenant("c"),
    ]
}

fn solo_rows(req: &ServiceRequest) -> RowBatch {
    req.query.run_collect().unwrap().rows
}

#[test]
fn service_rows_are_bit_identical_to_solo_runs() {
    let t = table(8_000);
    let hw = HardwareConfig::default();
    let s = sys(ServiceSpec::new(4));
    let reqs = workload(&t, hw, s);
    let mut svc = QueryService::new(hw, s).unwrap();
    for r in &reqs {
        svc.submit(r.clone());
    }
    let report = svc.run().unwrap();
    assert_eq!(report.outcomes.len(), reqs.len());
    for (req, out) in reqs.iter().zip(&report.outcomes) {
        assert!(!out.rejected);
        assert_eq!(out.rows, solo_rows(req), "tenant {}", out.tenant);
    }
    // Late arrivals attached mid-scan and wrapped.
    assert!(report.outcomes[2].wrapped || report.outcomes[3].wrapped);
    assert!(report.wraparounds >= 1);
    assert!(report.makespan_s > 0.0);
}

/// Riders hand their rows back as the blocks their plans emitted, through
/// the shared cursor and query-at-a-time alike: nothing decodes them until
/// a caller reads them through the `Vec<Vec<Value>>` bridge.
#[test]
fn service_outcomes_stay_blocks_until_dereferenced() {
    let t = table(8_000);
    let hw = HardwareConfig::default();
    let s = sys(ServiceSpec::new(4));
    let reqs = workload(&t, hw, s);
    for shared in [true, false] {
        let mut svc = QueryService::new(hw, s).unwrap();
        for r in &reqs {
            svc.submit(r.clone());
        }
        let report = if shared {
            svc.run()
        } else {
            svc.run_query_at_a_time()
        }
        .unwrap();
        for out in &report.outcomes {
            assert_eq!(out.rows.len() as u64, out.nrows);
            assert!(!out.rows.is_empty());
            assert!(!out.rows.is_decoded(), "shared={shared}: decoded unread");
        }
        let first = &report.outcomes[0].rows;
        let bridged: &[Vec<Value>] = first;
        assert!(first.is_decoded());
        assert_eq!(bridged, &first.to_rows()[..]);
    }
}

#[test]
fn same_schedule_is_deterministic_across_worker_counts() {
    let t = table(8_000);
    let hw = HardwareConfig::default();
    let run = |threads: usize| {
        let mut s = sys(ServiceSpec::new(3).with_slice(0.2));
        s.threads = threads;
        let mut svc = QueryService::new(hw, s).unwrap();
        for r in workload(&t, hw, s) {
            svc.submit(r);
        }
        svc.run().unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    // Attach points, wraparound flags, per-query rows, the merged driver
    // IoStats (including CacheStats) and the modeled clock itself are
    // identical whether the riders ran on 1 worker or 4: rider CPU is
    // charged serially, so the pool width never reaches the clock.
    assert_eq!(serial.makespan_s, parallel.makespan_s);
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.attach_seg, b.attach_seg);
        assert_eq!(a.wrapped, b.wrapped);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.queue_wait_s, b.queue_wait_s);
        assert_eq!(a.latency_s, b.latency_s);
    }
    assert_eq!(serial.io, parallel.io);
    assert_eq!(serial.segments, parallel.segments);
    assert_eq!(serial.wraparounds, parallel.wraparounds);
}

#[test]
fn admission_bounds_inflight_and_deadline_rejects() {
    let t = table(6_000);
    let hw = HardwareConfig::default();
    // max_inflight 1 serializes admissions; a tight deadline rejects
    // whoever queues too long.
    let s = sys(ServiceSpec::new(1).with_deadline(0.05));
    let q = QueryBuilder::new(t.clone(), hw, s)
        .layout(ScanLayout::Row)
        .select_indices(&[0, 1, 2])
        .scale_to_rows(20_000_000);
    let mut svc = QueryService::new(hw, s).unwrap();
    for i in 0..3 {
        svc.submit(ServiceRequest::new(q.clone()).at(i as f64 * 1e-3));
    }
    let report = svc.run().unwrap();
    let rejected = report.outcomes.iter().filter(|o| o.rejected).count();
    assert!(rejected >= 1, "queued queries past the deadline reject");
    // The first query was admitted immediately and ran.
    assert!(!report.outcomes[0].rejected);
    assert_eq!(report.outcomes[0].queue_wait_s, 0.0);
}

#[test]
fn shared_cursor_beats_query_at_a_time_on_the_clock() {
    let t = table(10_000);
    let hw = HardwareConfig::default();
    let s = sys(ServiceSpec::new(8));
    // 6 concurrent narrow row-store scans of the hot table at paper scale
    // — the ablation's scan-sharing scenario: the row scan's I/O (full
    // tuples) dwarfs its per-query CPU (one projected column), so sharing
    // the single pass wins even with CPU charged in full per query.
    let mk = |i: usize| {
        ServiceRequest::new(
            QueryBuilder::new(t.clone(), hw, s)
                .layout(ScanLayout::Row)
                .select_indices(&[i % 3])
                .scale_to_rows(20_000_000),
        )
        .at(0.0)
        .measure_only()
    };
    let mut shared = QueryService::new(hw, s).unwrap();
    let mut naive = QueryService::new(hw, s).unwrap();
    for i in 0..6 {
        shared.submit(mk(i));
        naive.submit(mk(i));
    }
    let sh = shared.run().unwrap();
    let na = naive.run_query_at_a_time().unwrap();
    assert!(
        sh.makespan_s * 2.0 < na.makespan_s,
        "shared {:.2}s vs naive {:.2}s",
        sh.makespan_s,
        na.makespan_s
    );
    // Shared I/O is one driver pass per wraparound cycle, not 6 passes.
    assert!(sh.io.bytes_read * 4.0 < na.io.bytes_read);
}

#[test]
fn service_requires_spec_and_uniform_scale() {
    let t = table(100);
    let hw = HardwareConfig::default();
    assert!(QueryService::new(hw, SystemConfig::default()).is_err());
    // A spec that could admit nothing, or window nothing, is refused before
    // any request is submitted.
    for bad in [ServiceSpec::new(0), ServiceSpec::new(2).with_window(0.0)] {
        assert!(QueryService::new(hw, sys(bad)).is_err(), "{bad:?}");
    }
    let s = sys(ServiceSpec::new(2));
    let mut svc = QueryService::new(hw, s).unwrap();
    svc.submit(ServiceRequest::new(
        QueryBuilder::new(t.clone(), hw, s).select_indices(&[0]),
    ));
    svc.submit(ServiceRequest::new(
        QueryBuilder::new(t.clone(), hw, s)
            .select_indices(&[0])
            .scale_to_rows(1_000_000),
    ));
    assert!(svc.run().is_err());
}

#[test]
fn shared_page_cache_serves_later_cycles() {
    let t = table(8_000);
    let hw = HardwareConfig::default();
    let mut s = sys(ServiceSpec::new(4).with_slice(0.2));
    s.cache = Some(CacheSpec::lru_k(2_048));
    let mut svc = QueryService::new(hw, s).unwrap();
    let q = QueryBuilder::new(t.clone(), hw, s)
        .layout(ScanLayout::Column)
        .select_indices(&[0, 1]);
    // Staggered arrivals force more than one wraparound cycle over the
    // same pages; the shared cache turns later driver passes into hits.
    svc.submit(ServiceRequest::new(q.clone()).at(0.0));
    svc.submit(ServiceRequest::new(q.clone()).at(3.0));
    svc.submit(ServiceRequest::new(q.clone()).at(6.0));
    let report = svc.run().unwrap();
    assert!(
        report.io.cache.hits > 0,
        "cache stats: {:?}",
        report.io.cache
    );
    for out in &report.outcomes {
        assert_eq!(out.nrows, 8_000);
    }
}

/// A run that fails leaves the monitor unhealthy, with the status so far and
/// the error — not the last healthy snapshot forever — and counts no phantom
/// completion; the next successful run on the same handle flips it back.
/// The batch is the damaged one of
/// `a_corrupt_page_fails_the_whole_batch_with_page_context`.
#[test]
fn a_failed_run_publishes_unhealthy_with_the_error() {
    let t = table(4_000);
    let hw = HardwareConfig::default();
    let mut healthy = sys(ServiceSpec::new(4).with_slice(0.2));
    healthy.cache = Some(CacheSpec::lru_k(64));
    let damaged = healthy
        .with_faults(FaultSpec::always(7))
        .with_on_corrupt(OnCorrupt::Fail);
    let monitor = monitor_handle();
    let submit = |s: SystemConfig, reg: &MetricsHandle| {
        let mut svc = QueryService::new(hw, s)
            .unwrap()
            .metrics(reg.clone())
            .publish(monitor.clone());
        for req in workload(&t, hw, s) {
            svc.submit(req);
        }
        svc
    };

    submit(healthy, &Registry::handle()).run().unwrap();
    assert!(monitor.lock().unwrap().healthy);

    let reg = Registry::handle();
    let err = submit(damaged, &reg).run().expect_err("damaged batch");
    assert!(matches!(err, Error::Corrupt(_)), "{err}");
    {
        let state = monitor.lock().unwrap();
        assert!(!state.healthy, "a failed run must read 503");
        let error = state.status.get("error").and_then(|e| e.as_str());
        assert_eq!(error, Some(err.to_string().as_str()));
        let svc = state.status.get("service").expect("status so far");
        assert_eq!(svc.get("completed").and_then(|c| c.as_f64()), Some(0.0));
    }
    assert_eq!(reg.counter("query.sched.submitted"), 4.0);
    assert_eq!(reg.counter("query.sched.completed"), 0.0);

    let reg = Registry::handle();
    let report = submit(healthy, &reg).run().unwrap();
    let state = monitor.lock().unwrap();
    assert!(state.healthy, "a later successful run flips it back");
    assert!(state.status.get("error").is_none());
    assert_eq!(state.status.pretty(), report.to_status_json().pretty());
    assert_eq!(reg.counter("query.sched.completed"), 4.0);
}

/// A snapshot query (1 000-row ROS + 50 staged rows) answers all 1 050 rows
/// solo and under `threads(3)` — the plan knows a tail is not
/// morsel-partitionable and runs serially — and the service, whose riders
/// scan ROS row ranges only, refuses it with a typed error before any
/// segment is scanned rather than returning the 1 000 ROS rows.
#[test]
fn wos_tail_is_answered_serially_and_refused_by_the_service() {
    let ros = table(1_000);
    let hw = HardwareConfig::default();
    let s = sys(ServiceSpec::new(4).with_slice(0.2));
    let mut store = IngestStore::new(ros, Vec::new(), None, IngestSpec::manual()).unwrap();
    store
        .insert((0..50).map(|i| vec![Value::Int(1_000 + i); 8]).collect())
        .unwrap();
    let snap = store.snapshot();
    let q = QueryBuilder::new(snap.ros.clone(), hw, s)
        .wos_tail(snap.tail.clone())
        .layout(ScanLayout::Row)
        .select_indices(&[1, 0]);

    let solo = q.run_collect().unwrap();
    assert_eq!(solo.rows.len(), 1_050);
    let last = solo.rows.iter().last().unwrap().values();
    assert_eq!(last, vec![Value::Int(1_049), Value::Int(1_049)]);
    for threads in [1, 3] {
        let res = q.clone().threads(threads).run_collect().unwrap();
        assert_eq!(res.rows, solo.rows, "threads={threads}");
        assert!(res.parallel.is_none(), "a tail forces the serial path");
    }

    let mut svc = QueryService::new(hw, s).unwrap();
    // A tail-free rider first: validation must not depend on arrival order.
    svc.submit(ServiceRequest::new(
        QueryBuilder::new(snap.ros.clone(), hw, s).select_indices(&[0]),
    ));
    svc.submit(ServiceRequest::new(q).at(0.5));
    match svc.run() {
        Err(Error::InvalidPlan(msg)) => {
            assert!(msg.contains("WOS tail of 50 staged rows"), "{msg}")
        }
        Ok(r) => panic!(
            "service answered a tailed plan with {} rows",
            r.outcomes[1].nrows
        ),
        Err(e) => panic!("expected InvalidPlan, got {e}"),
    }
}

/// Today's error propagation, pinned: the service does **not** isolate
/// riders. One damaged page under `OnCorrupt::Fail` fails the whole batch
/// with the scanner's own typed error — page context attached, no panic, no
/// partial report — and leaves nothing behind: the shared cache lives for
/// one `run()`, so a fresh service with the same cache spec answers the
/// same (healthy) table exactly.
#[test]
fn a_corrupt_page_fails_the_whole_batch_with_page_context() {
    let t = table(4_000);
    let hw = HardwareConfig::default();
    let mut healthy = sys(ServiceSpec::new(4).with_slice(0.2));
    healthy.cache = Some(CacheSpec::lru_k(64));
    let damaged = healthy
        .with_faults(FaultSpec::always(7))
        .with_on_corrupt(OnCorrupt::Fail);
    let submit = |s: SystemConfig| {
        let mut svc = QueryService::new(hw, s).unwrap();
        for req in workload(&t, hw, s) {
            svc.submit(req);
        }
        svc
    };

    match submit(damaged).run() {
        Err(Error::Corrupt(c)) => {
            assert!(
                c.file_id.is_some() && c.page_id.is_some(),
                "no page context: {c:?}"
            )
        }
        Ok(r) => panic!("{} riders answered over damaged pages", r.outcomes.len()),
        Err(e) => panic!("expected Corrupt, got {e}"),
    }
    assert!(t.quarantine.is_empty(), "Fail never quarantines");

    let report = submit(healthy).run().unwrap();
    for (out, req) in report.outcomes.iter().zip(workload(&t, hw, healthy)) {
        assert_eq!(out.rows, solo_rows(&req));
    }

    // Damage only the driver pass meets: one flipped bit in the last page of
    // `tag` (rows 3 556..). The rider that reads `tag` filters `v < 2 000`
    // first, so its own scan drives `tag` through the first 2 000 positions
    // and reads past the rest of the file unverified — solo, it answers. The
    // driver decodes nothing but still checksums every page of every union
    // column, so the batch fails on that page: `tag` is the third file the
    // driver opens (union columns in index order).
    let tagged = || {
        let schema = vec![Column::int("k"), Column::int("v"), Column::text("tag", 8)];
        let schema = Arc::new(Schema::new(schema).unwrap());
        let mut b = TableBuilder::new("tagged", schema, 4096, BuildLayouts::both()).unwrap();
        for i in 0..4_000 {
            let tag = Value::text(["aa", "bb", "cc"][i as usize % 3]);
            b.push_row(&[Value::Int(i % 100), Value::Int(i), tag])
                .unwrap();
        }
        b.finish().unwrap()
    };
    let mut flipped = tagged();
    let tag = &mut flipped.col.as_mut().unwrap().columns[2];
    assert_eq!((tag.values_per_page, tag.pages), (508, 8));
    Arc::make_mut(&mut tag.file)[7 * 4_096 + 100] ^= 0x10;
    let (clean, flipped) = (Arc::new(tagged()), Arc::new(flipped));
    // The fast path is where a full-scan driver paid a checksum pass per
    // position of every text column.
    let s = sys(ServiceSpec::new(4))
        .with_threads(2)
        .with_scan_fast_path(true);
    let riders = |t: &Arc<Table>| {
        let q = || QueryBuilder::new(t.clone(), hw, s).layout(ScanLayout::Column);
        vec![
            ServiceRequest::new(q().select_indices(&[0, 1])),
            ServiceRequest::new(
                q().select_indices(&[2])
                    .filter("v", CmpOp::Lt, 2_000)
                    .unwrap(),
            ),
        ]
    };
    assert_eq!(solo_rows(&riders(&flipped)[1]).len(), 2_000);
    let service = |t: &Arc<Table>| {
        let mut svc = QueryService::new(hw, s).unwrap();
        for r in riders(t) {
            svc.submit(r);
        }
        svc
    };
    match service(&flipped).run() {
        Err(Error::Corrupt(c)) => {
            assert_eq!(c.kind, CorruptKind::Checksum, "{c:?}");
            assert_eq!((c.file_id, c.page_id), (Some(3), Some(7)), "{c:?}");
        }
        Ok(_) => panic!("the driver pass missed the flipped bit"),
        Err(e) => panic!("expected Corrupt, got {e}"),
    }

    // Verify-once for the driver: over the healthy table it spends one
    // checksum pass per page it moves, however many rows and text columns
    // the riders read. `verified_pages` counts the calling thread only, and
    // with two riders on a two-worker pool every rider runs on a spawned
    // thread — what is left on this one is the driver.
    let before = verified_pages();
    let report = service(&clean).run().unwrap();
    let pages_read = report.io.bytes_read / 4_096.0;
    assert!(pages_read > 0.0);
    assert_eq!((verified_pages() - before) as f64, pages_read);

    // The same holds for a rider: one rider on a one-worker pool runs inline
    // on this thread, so the count is the driver's pages plus the pages the
    // rider's own streams pulled — what its solo run transfers, and at most
    // one boundary page per column and segment more — although it reads
    // every row of `tag` through the fast path's per-position fallback.
    let s = s.with_threads(1);
    let rider = QueryBuilder::new(clean.clone(), hw, s)
        .layout(ScanLayout::Column)
        .select_indices(&[0, 1, 2]);
    let solo_pages = rider.run().unwrap().report.io.bytes_read / 4_096.0;
    let mut svc = QueryService::new(hw, s).unwrap();
    svc.submit(ServiceRequest::new(rider));
    let before = verified_pages();
    let report = svc.run().unwrap();
    let passes = (verified_pages() - before) as f64;
    let driver_pages = report.io.bytes_read / 4_096.0;
    assert_eq!(report.outcomes[0].rows.len(), 4_000);
    assert!(passes > driver_pages, "the rider must run inline");
    let bound = driver_pages + solo_pages + (3 * report.segments) as f64;
    assert!(
        passes <= bound,
        "{passes} passes for {driver_pages} driver + {solo_pages} rider pages, {} segments",
        report.segments
    );
}
