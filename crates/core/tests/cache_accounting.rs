//! The page-cache tier must reconcile with the rest of the accounting:
//! every page read a query issues is classified as exactly one hit or one
//! miss, hits charge no simulated disk time (so `IoStats::total_s()` with
//! caching on is the disk time of the misses alone), and a cache-off run
//! is bit-identical to a run built before the cache tier existed.

use std::sync::Arc;

use rodb_core::{QueryBuilder, QueryResult};
use rodb_engine::{CmpOp, ExecContext, RunReport, ScanLayout};
use rodb_io::{PageCache, SharedPageCache};
use rodb_storage::{BuildLayouts, TableBuilder};
use rodb_types::{CacheSpec, Column, HardwareConfig, Schema, SystemConfig, Value};

const PAGE: usize = 1024;
const ROWS: usize = 6000;

fn table() -> Arc<rodb_storage::Table> {
    let schema = Arc::new(
        Schema::new(vec![
            Column::int("id"),
            Column::int("val"),
            Column::int("pad"),
        ])
        .expect("schema"),
    );
    let mut b = TableBuilder::new("acct", schema, PAGE, BuildLayouts::both()).expect("builder");
    for i in 0..ROWS {
        b.push_row(&[
            Value::Int(i as i32),
            Value::Int(((i as i64 * 7919) % 1000) as i32),
            Value::Int((i % 100) as i32),
        ])
        .expect("row");
    }
    Arc::new(b.finish().expect("table"))
}

fn builder(
    t: &Arc<rodb_storage::Table>,
    layout: ScanLayout,
    cache: Option<CacheSpec>,
) -> QueryBuilder {
    QueryBuilder::new(
        t.clone(),
        HardwareConfig::default(),
        SystemConfig {
            cache,
            ..SystemConfig::default()
        },
    )
    .layout(layout)
    .select(&["id", "val"])
    .expect("projection")
    .filter("id", CmpOp::Lt, Value::Int((ROWS / 2) as i32))
    .expect("predicate")
}

fn cache_requests(res: &QueryResult) -> u64 {
    res.report.io.cache.hits + res.report.io.cache.misses
}

/// Run `q`'s plan serially on a context whose disk reads through `cache`,
/// a page cache that outlives the run — how a shared cursor installs its
/// cache on every rider.
fn run_through(q: &QueryBuilder, spec: CacheSpec, cache: &SharedPageCache) -> RunReport {
    let sys = SystemConfig {
        cache: Some(spec),
        ..SystemConfig::default()
    };
    let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).expect("context");
    ctx.disk.borrow_mut().set_page_cache(cache.clone());
    q.plan()
        .expect("plan")
        .run_on(&ctx, None, false)
        .expect("run")
        .report
}

/// `hits + misses` counts page reads requested, so it is a property of the
/// plan alone: the same query issues the same page requests whatever the
/// cache geometry — empty, tiny, huge, or shared across runs.
#[test]
fn hits_plus_misses_is_invariant_across_cache_geometry() {
    let t = table();
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        let specs = [
            CacheSpec::lru_k(0),
            CacheSpec::lru_k(1),
            CacheSpec::lru_k(4),
            CacheSpec::lru_k(1 << 16),
        ];
        let runs: Vec<QueryResult> = specs
            .iter()
            .map(|&s| builder(&t, layout, Some(s)).run().expect("run"))
            .collect();
        let requested = cache_requests(&runs[0]);
        assert!(requested > 4, "multi-page scan expected, got {requested}");
        for (spec, res) in specs.iter().zip(&runs) {
            assert_eq!(
                cache_requests(res),
                requested,
                "{layout:?} {spec:?}: hits + misses must equal page reads requested"
            );
        }
        // Zero-frame cache: every request misses, nothing is ever evicted.
        assert_eq!(runs[0].report.io.cache.misses, requested);
        assert_eq!(runs[0].report.io.cache.evictions, 0);
    }
}

/// A second scan through a shared cache that holds the whole working set
/// hits every frame and charges zero disk time: `total_s()` with caching
/// on is the disk time of the misses only, and a fully-warm run has none.
#[test]
fn warm_rescan_charges_no_disk_time() {
    let t = table();
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        let spec = CacheSpec::lru_k(1 << 16);
        let handle: SharedPageCache =
            std::rc::Rc::new(std::cell::RefCell::new(PageCache::new(&spec)));
        let q = builder(&t, layout, Some(spec));
        let cold = run_through(&q, spec, &handle);
        let warm = run_through(&q, spec, &handle);
        let what = format!("{layout:?}");
        assert_eq!(cold.io.cache.hits, 0, "{what}: cold scan");
        assert!(cold.io.total_s() > 0.0, "{what}: cold pays the disk");
        assert_eq!(warm.io.cache.misses, 0, "{what}: warm scan");
        assert_eq!(
            warm.io.cache.hits, cold.io.cache.misses,
            "{what}: every cold miss is a warm hit"
        );
        assert_eq!(warm.io.cache.hit_ratio(), 1.0, "{what}");
        assert_eq!(
            warm.io.total_s(),
            0.0,
            "{what}: all hits, so zero modeled disk time"
        );
        assert!(warm.elapsed_s < cold.elapsed_s, "{what}");
        // Same rows either way.
        assert_eq!(warm.rows, cold.rows, "{what}");
    }
}

/// With a cache that holds part of the working set, a re-scan's disk time
/// is exactly a cold scan shrunk by the hit fraction — time is charged by
/// the misses only, never smeared across hits.
#[test]
fn partially_warm_rescan_charges_misses_only() {
    let t = table();
    // 8 frames against a scan dozens of pages long: the re-scan still
    // misses most pages, but every page it does hit costs nothing.
    let spec = CacheSpec::lru_k(8);
    let handle: SharedPageCache = std::rc::Rc::new(std::cell::RefCell::new(PageCache::new(&spec)));
    let q = builder(&t, ScanLayout::Column, Some(spec));
    let cold = run_through(&q, spec, &handle);
    let rescan = run_through(&q, spec, &handle);
    assert_eq!(rescan.io.cache.requests(), cold.io.cache.requests());
    assert!(cold.io.cache.evictions > 0, "cache churns");
    // The sequential one-pass re-scan cannot beat the frame count in hits
    // (LRU-K keeps at most `frames` pages resident at its tail).
    assert!(rescan.io.cache.hits <= 8);
    assert!(rescan.io.total_s() <= cold.io.total_s());
}

/// Caching off (the default) leaves the report byte-identical to the
/// pre-cache engine: zero cache counters and the exact same modeled times.
/// A cold cache-on run charges the identical disk clock too — residency
/// only changes the numbers once something is actually resident.
#[test]
fn cache_off_and_cold_runs_report_identical_disk_time() {
    let t = table();
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        let what = format!("{layout:?}");
        let off = builder(&t, layout, None).run().expect("cache off");
        assert_eq!(cache_requests(&off), 0, "{what}: off means no counters");
        assert_eq!(off.report.io.cache.evictions, 0, "{what}");
        let cold = builder(&t, layout, Some(CacheSpec::lru_k(4)))
            .run()
            .expect("cache on, cold");
        assert_eq!(
            off.report.io.bytes_read, cold.report.io.bytes_read,
            "{what}"
        );
        assert_eq!(off.report.io.seeks, cold.report.io.seeks, "{what}");
        assert_eq!(off.report.io.bursts, cold.report.io.bursts, "{what}");
        assert_eq!(off.report.io.total_s(), cold.report.io.total_s(), "{what}");
        assert_eq!(off.report.elapsed_s, cold.report.elapsed_s, "{what}");
        assert_eq!(off.report.rows, cold.report.rows, "{what}");
    }
}

/// The parallel morsel path folds per-worker cache counters through the
/// same merge as the rest of `IoStats`: the merged totals still satisfy
/// the hit/miss reconciliation and rows match the serial run.
#[test]
fn parallel_morsels_merge_cache_counters() {
    let t = table();
    let spec = CacheSpec::lru_k(1 << 16);
    let serial = builder(&t, ScanLayout::Column, Some(spec))
        .run()
        .expect("serial");
    let parallel = builder(&t, ScanLayout::Column, Some(spec))
        .threads(4)
        .run()
        .expect("parallel");
    assert_eq!(parallel.report.rows, serial.report.rows);
    let c = &parallel.report.io.cache;
    assert!(c.hits + c.misses > 0, "workers report through the merge");
    // Workers scan disjoint morsels of the same pages a serial scan reads;
    // page-granularity overlap at morsel boundaries can only add requests.
    assert!(c.hits + c.misses >= cache_requests(&serial));
}
