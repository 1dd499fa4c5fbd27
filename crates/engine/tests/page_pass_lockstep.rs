//! The shared cursor's driver pass moves pages exactly as the scan it stands
//! in for.
//!
//! [`page_pass`] replaces a full predicate-free `RowScanner` run, or a
//! `ColumnScanner` run over the riders' union columns: the
//! pass decodes nothing, but everything the simulated disk and the page
//! cache can observe — which pages, from which file id, in which order,
//! with which retries, quarantines and drops — must be what that scanner
//! would have produced. Here the scanner, built from a `ScanSpec` the way
//! the old driver built it, is the reference for the schedule: both walk the
//! same segments for two wraparound cycles on a fresh context per segment
//! (as the cursor does) and are compared segment by segment.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rodb_engine::{page_pass, ExecContext, ScanLayout, ScanSpec};
use rodb_io::{shared_page_cache, IoStats, SharedPageCache};
use rodb_storage::page::verified_pages;
use rodb_storage::{BuildLayouts, QuarantinedPage, Table};
use rodb_tpch::{load_lineitem, load_orders, Variant};
use rodb_trace::EventBuf;
use rodb_types::{CacheSpec, Error, FaultSpec, HardwareConfig, OnCorrupt, Result, SystemConfig};

const ROWS: u64 = 3_000;
const PAGE: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    Clean,
    /// 30 % of primary reads damaged, clean mirror: every one repaired.
    MirroredRetry,
    /// 5 % of pages bad on their only replica, quarantined and dropped.
    Skip,
    /// The same damage, fail-fast: both must stop on the same page.
    Fail,
}

impl Damage {
    fn apply(self, sys: SystemConfig) -> SystemConfig {
        match self {
            Damage::Clean => sys,
            Damage::MirroredRetry => sys
                .with_faults(FaultSpec::at_rate(11, 300_000))
                .with_mirror(2)
                .with_on_corrupt(OnCorrupt::Retry),
            Damage::Skip => sys
                .with_faults(FaultSpec::at_rate(11, 50_000))
                .with_on_corrupt(OnCorrupt::Skip),
            Damage::Fail => sys
                .with_faults(FaultSpec::at_rate(11, 50_000))
                .with_on_corrupt(OnCorrupt::Fail),
        }
    }
}

/// `(file bytes, pages, rows per page)` of every file a cell touches.
fn files(t: &Table, layout: ScanLayout, cols: &[usize]) -> Vec<(Arc<Vec<u8>>, usize, u64)> {
    if layout == ScanLayout::Row {
        let rs = t.row_storage().unwrap();
        return vec![(rs.file.clone(), rs.pages, rs.tuples_per_page as u64)];
    }
    let cs = t.col_storage().unwrap();
    cols.iter()
        .map(|&c| {
            let col = &cs.columns[c];
            (col.file.clone(), col.pages, col.values_per_page as u64)
        })
        .collect()
}

/// Everything one segment visit leaves observable outside the pass.
#[derive(Debug, PartialEq)]
struct Visit {
    outcome: Result<()>,
    io: IoStats,
    /// `(clock bits, kind, file, page, count)` per disk event.
    events: Vec<(u64, &'static str, u64, u64, u64)>,
    verified: u64,
}

struct Walk {
    visits: Vec<Visit>,
    resident: Vec<bool>,
    quarantined: Vec<QuarantinedPage>,
}

/// Two cycles over `segments`, one fresh context per visit, stopping at the
/// first error (the cursor fails the batch there).
fn walk(
    t: &Arc<Table>,
    touched: &[(Arc<Vec<u8>>, usize, u64)],
    sys: SystemConfig,
    cache: Option<SharedPageCache>,
    segments: &[(u64, u64)],
    pass: impl Fn(&ExecContext, (u64, u64)) -> Result<()>,
) -> Walk {
    t.quarantine.clear();
    let mut visits = Vec::new();
    for &range in segments.iter().chain(segments) {
        let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
        if let Some(cache) = &cache {
            ctx.disk.borrow_mut().set_page_cache(cache.clone());
        }
        // A competing scan makes the array's service order depend on the
        // submission interleave, which nothing else would observe.
        ctx.add_competing_scan();
        let sink = Rc::new(RefCell::new(EventBuf::default()));
        ctx.disk.borrow_mut().set_trace_sink(sink.clone());
        let before = verified_pages();
        let outcome = pass(&ctx, range);
        let verified = verified_pages() - before;
        let failed = outcome.is_err();
        let events = sink
            .borrow()
            .events
            .iter()
            .map(|e| (e.ts_s.to_bits(), e.kind.name(), e.file, e.page, e.count))
            .collect();
        visits.push(Visit {
            outcome,
            io: *ctx.disk.borrow().stats(),
            events,
            verified,
        });
        if failed {
            break;
        }
    }
    let resident = cache.map_or(Vec::new(), |cache| {
        let cache = cache.borrow();
        touched
            .iter()
            .flat_map(|(file, pages, _)| {
                (0..*pages).map(|p| cache.contains((file.as_ptr() as u64, p as u64)))
            })
            .collect()
    });
    Walk {
        visits,
        resident,
        quarantined: t.quarantine.snapshot(),
    }
}

/// Run one cell both ways and hold the pass to the scanner; returns the
/// pass's visits so the sweep can show what it reached.
fn lockstep(
    t: &Arc<Table>,
    layout: ScanLayout,
    cols: &[usize],
    segments: &[(u64, u64)],
    sys: SystemConfig,
    damage: Damage,
) -> Vec<Visit> {
    let what = format!(
        "{} {layout} cols {cols:?} segs {} block {} cache {:?} {damage:?}",
        t.name,
        segments.len(),
        sys.block_tuples,
        sys.cache.map(|c| c.frames),
    );
    let touched = files(t, layout, cols);
    let cache = || sys.cache.map(|spec| shared_page_cache(&spec));
    let scan = walk(t, &touched, sys, cache(), segments, |ctx, r| {
        let mut op = ScanSpec::new(t.clone(), layout, cols.to_vec())
            .with_row_range(r.0, r.1)
            .build(ctx)?;
        rodb_engine::op::drain(op.as_mut()).map(|_| ())
    });
    let pass = walk(t, &touched, sys, cache(), segments, |ctx, r| {
        page_pass(t, (layout == ScanLayout::Column).then_some(cols), ctx, r)
    });
    assert_eq!(pass.visits.len(), scan.visits.len(), "{what}");
    for (i, (p, s)) in pass.visits.iter().zip(&scan.visits).enumerate() {
        assert_eq!(p.outcome, s.outcome, "{what}: visit {i}");
        assert_eq!(p.io, s.io, "{what}: visit {i}");
        assert_eq!(p.events, s.events, "{what}: visit {i}");
    }
    assert_eq!(pass.resident, scan.resident, "{what}");
    assert_eq!(pass.quarantined, scan.quarantined, "{what}");

    // One checksum pass per page the segment's windows hold — cache hit or
    // transfer, repaired or not.
    if matches!(damage, Damage::Clean | Damage::MirroredRetry) {
        for (p, &(start, end)) in pass.visits.iter().zip(segments.iter().chain(segments)) {
            let window: u64 = touched
                .iter()
                .map(|(_, _, upp)| end.div_ceil(*upp) - start / upp)
                .sum();
            assert_eq!(p.verified, window, "{what}");
        }
    }
    pass.visits
}

#[test]
fn the_page_pass_moves_pages_exactly_as_the_scan_it_replaces() {
    let layouts = BuildLayouts::both();
    let tables = [
        load_orders(ROWS, 5, PAGE, layouts, Variant::Plain).unwrap(),
        load_orders(ROWS, 5, PAGE, layouts, Variant::Compressed).unwrap(),
        load_lineitem(ROWS, 5, PAGE, layouts, Variant::Compressed).unwrap(),
    ]
    .map(Arc::new);
    let damages = [
        Damage::Clean,
        Damage::MirroredRetry,
        Damage::Skip,
        Damage::Fail,
    ];
    let (mut cells, mut retries, mut quarantined, mut failures, mut hits) = (0, 0, 0, 0, 0);
    for t in &tables {
        let ncols = t.schema.len();
        let unions = [vec![1], vec![0, ncols / 2, ncols - 1], (0..ncols).collect()];
        for layout in [ScanLayout::Row, ScanLayout::Column] {
            for cols in &unions {
                let pages: usize = files(t, layout, cols).iter().map(|f| f.1).sum();
                let caches = [None, Some(CacheSpec::lru_k(pages / 2))];
                for nsegs in [1, 4, 128] {
                    let segments: Vec<(u64, u64)> =
                        t.morsels(nsegs).iter().map(|m| (m.start, m.end)).collect();
                    for block_tuples in [1, 100, 1000] {
                        for (cache, damage) in caches
                            .iter()
                            .flat_map(|c| damages.iter().map(move |d| (*c, *d)))
                        {
                            let sys = damage.apply(SystemConfig {
                                page_size: PAGE,
                                block_tuples,
                                cache,
                                ..SystemConfig::default()
                            });
                            cells += 1;
                            for v in lockstep(t, layout, cols, &segments, sys, damage) {
                                retries += v.io.recovery.retries;
                                quarantined += v.io.recovery.quarantined_pages;
                                hits += v.io.cache.hits;
                                failures += matches!(v.outcome, Err(Error::Corrupt(_))) as u64;
                            }
                        }
                    }
                }
            }
        }
    }
    // The sweep reached what it claims to cover.
    assert_eq!(cells, 3 * 2 * 3 * 3 * 3 * 2 * 4);
    assert!(retries > 0 && quarantined > 0 && failures > 0 && hits > 0);
}
