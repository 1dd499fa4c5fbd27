//! One differential harness for every plane of the engine.
//!
//! A case is a seed's [`gen::CasePlan`] (random schema, data, physical
//! design, query) plus an [`Axes`] value saying *how* it is run — see
//! [`axes`]. [`run`] is one pipeline: build the table → (drive the ingest
//! schedule) → expected rows from the [`oracle`], a naive `Vec`-of-tuples
//! evaluator sharing no scan, page or codec code with the engine → execute
//! every cell through the one plan-to-`QueryBuilder` helper → apply
//! [`INVARIANTS`], a flat table of named checks, each guarded by a
//! precondition on the axes. DESIGN.md ("Model oracle") lists what each
//! name asserts.
//!
//! Failures are reproducible from the mode and seed alone:
//! `cargo run -p rodb-fuzz -- --mode <mode> --seed <n>`.

pub mod axes;
mod digest;
pub mod gen;
mod ingest;
mod join;
pub mod oracle;

use std::rc::Rc;
use std::sync::Arc;

use rodb_core::{QueryBuilder, QueryResult, QueryService, ServiceReport, ServiceRequest};
use rodb_io::{CacheStats, IoStats};
use rodb_storage::page::verified_pages;
use rodb_storage::{BuildLayouts, QuarantinedPage, Table, TableBuilder};
use rodb_trace::{MetricsRegistry, Registry};
use rodb_types::{Error, HardwareConfig, SystemConfig, Value};

pub use axes::{Axes, Damage, Mode, Rider, Runner, ServiceDraw, Source};
pub use digest::Digest;
use gen::{CasePlan, StorageKind};
use ingest::IngestRun;

type Rows = Vec<Vec<Value>>;
pub(crate) type Verdict = Result<(), String>;

/// `ensure!(cond, "message {}", args)`: fail the check unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}
pub(crate) use ensure;

/// One seed under one mode: the plan, how it is run, and the seed's own
/// query as rider 0.
pub struct Case {
    pub mode: Mode,
    pub seed: u64,
    pub plan: CasePlan,
    pub axes: Axes,
    query: Rider,
}

/// One execution configuration of a case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub threads: usize,
    pub fast: bool,
    pub cache: bool,
    pub damage: Damage,
}

const fn cell(threads: usize, fast: bool, cache: bool, damage: Damage) -> Cell {
    Cell {
        threads,
        fast,
        cache,
        damage,
    }
}

/// What the cells read: a table, the staged tail spliced behind it (ingest
/// sources only), and the rows a full healthy scan of the table sees.
struct View {
    table: Arc<Table>,
    tail: Option<Arc<Rows>>,
    ros: Rows,
}

/// A solo `QueryBuilder` run of one cell and what it left behind.
struct SoloRun {
    table: Arc<Table>,
    got: rodb_types::Result<QueryResult>,
    /// Oracle rows over the visible rows minus the quarantined spans.
    want: Arc<Rows>,
    quarantine: Vec<QuarantinedPage>,
    /// Row ordinals covered by the quarantined pages.
    union: u64,
    /// Checksum passes the run spent on this thread.
    passes: u64,
    has_tail: bool,
    /// The serial run of the same `fast × cache × damage` group.
    serial: Option<Rc<SoloRun>>,
}

/// A `QueryService` run of one cell.
struct ServiceRun {
    table: Arc<Table>,
    /// Each rider's solo rows.
    want: Rc<Vec<Rows>>,
    has_tail: bool,
    report: rodb_types::Result<ServiceReport>,
}

enum Evidence<'a> {
    Case,
    Ingest(&'a axes::IngestDraw, &'a IngestRun),
    Solo(&'a SoloRun),
    Service(&'a ServiceRun),
}

/// How an invariant is checked, i.e. which evidence it reads.
enum Check {
    /// Enforced by [`Case::engine`] around every engine call.
    Engine,
    Case(fn(&Case) -> Verdict),
    Ingest(fn(&Case, &axes::IngestDraw, &IngestRun) -> Verdict),
    Solo(fn(&Cell, &SoloRun) -> Verdict),
    Service(fn(&ServiceDraw, &ServiceRun) -> Verdict),
    /// The I/O accounting of a successful solo or service run.
    Io(fn(&Case, &IoStats, &Table) -> Verdict),
    /// The report of a successful service run, books included.
    Observed(fn(&ServiceReport) -> Verdict),
}

/// A named check and the axis precondition under which it applies.
pub struct Invariant {
    pub name: &'static str,
    when: fn(&Axes, &Cell) -> bool,
    check: Check,
}

const fn inv(name: &'static str, when: fn(&Axes, &Cell) -> bool, check: Check) -> Invariant {
    Invariant { name, when, check }
}

fn ingested(a: &Axes, _: &Cell) -> bool {
    matches!(a.source, Source::Ingest(_))
}

fn service(a: &Axes, _: &Cell) -> bool {
    a.is_service()
}

/// Every behaviour the harness checks. A row applies to a run when its
/// precondition holds for the case's axes and the cell being run.
pub const INVARIANTS: &[Invariant] = &[
    inv("P0", |_, _| true, Check::Engine),
    inv("J1", join::applies, Check::Case(join::j1)),
    inv("W1", ingested, Check::Ingest(ingest::w1)),
    inv("W2", ingested, Check::Ingest(ingest::w2)),
    inv("W3", ingested, Check::Ingest(ingest::w3)),
    inv("W4", ingested, Check::Ingest(ingest::w4)),
    inv("W5", ingested, Check::Ingest(ingest::w5)),
    inv("R1", |_, c| c.damage != Damage::Fail, Check::Solo(r1)),
    inv("W6", ingested, Check::Solo(w6)),
    inv(
        "V1",
        |_, c| c.threads == 1 && !c.cache && c.damage == Damage::None,
        Check::Solo(v1),
    ),
    inv("F1", |_, c| c.damage == Damage::Fail, Check::Solo(f1)),
    inv("M1", |_, c| c.damage == Damage::Retry, Check::Io(m1)),
    inv(
        "S1",
        |_, c| matches!(c.damage, Damage::Skip(_)),
        Check::Solo(s1),
    ),
    inv("C1", |_, c| !c.cache, Check::Io(c1)),
    inv("C2", |_, c| c.cache, Check::Io(c2)),
    inv("C3", |_, c| c.cache && c.threads == 1, Check::Solo(c3)),
    inv(
        "C4",
        |_, c| c.cache && c.damage == Damage::Retry,
        Check::Io(c4),
    ),
    inv("Q1", service, Check::Service(q1)),
    inv(
        "Q2",
        |a, c| service(a, c) && ingested(a, c),
        Check::Service(q2),
    ),
    inv("O2", service, Check::Observed(o2)),
    inv("O3", service, Check::Observed(o3)),
    inv("O4", service, Check::Observed(o4)),
];

/// Build the case's table through the real loader.
fn build_table(plan: &CasePlan) -> rodb_types::Result<Table> {
    let (schema, page, both) = (plan.schema.clone(), plan.page_size, BuildLayouts::both());
    let mut b = match plan.storage {
        StorageKind::Plain => TableBuilder::new("t", schema, page, both)?,
        StorageKind::Pax => TableBuilder::new_pax("t", schema, page, both)?,
        StorageKind::Compressed => {
            TableBuilder::with_compression("t", schema, page, both, plan.comps.clone())?
        }
    };
    for r in &plan.rows {
        b.push_row(r)?;
    }
    b.finish()
}

/// Global row ordinals covered by a quarantined page, derived from file
/// geometry the same way the scanners rebase (page index × full-page
/// capacity, clamped to the table's row count).
fn mark_quarantined_span(table: &Table, q: QuarantinedPage, dropped: &mut [bool]) {
    let (page, cap) = match q {
        QuarantinedPage::Row { page } => {
            (page, table.row.as_ref().map_or(0, |r| r.tuples_per_page))
        }
        QuarantinedPage::Col { col, page } => {
            let vpp = |c: &rodb_storage::ColStorage| c.columns[col].values_per_page;
            (page, table.col.as_ref().map_or(0, vpp))
        }
    };
    let end = ((page + 1) * cap as u64).min(dropped.len() as u64);
    for p in page * cap as u64..end {
        dropped[p as usize] = true;
    }
}

impl Case {
    pub fn new(mode: Mode, seed: u64) -> Case {
        let mut plan = gen::generate(seed);
        let axes = Axes::for_mode(mode, &mut plan);
        let query = Rider::of(&plan);
        Case {
            mode,
            seed,
            plan,
            axes,
            query,
        }
    }

    fn fail(&self, name: &str, what: &str, msg: &str) -> String {
        let (seed, mode, case) = (self.seed, self.mode.name(), self.plan.describe());
        format!("seed {seed} [{mode}] {name} ({what}): {msg}\n  case: {case}")
    }

    /// Run one engine call. A panic is a `P0` failure, an `Err` an engine
    /// failure; a caller for whom `Err` is a legal outcome wraps it in `Ok`.
    pub(crate) fn engine<T>(
        &self,
        what: &str,
        f: impl FnOnce() -> rodb_types::Result<T>,
    ) -> Result<T, String> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(self.fail("engine error", what, &format!("{e:?}"))),
            Err(p) => {
                let msg = (p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(self.fail("P0", what, &format!("panic: {msg}")))
            }
        }
    }

    /// Apply every invariant whose precondition holds and whose check reads
    /// this kind of evidence.
    fn apply(&self, cell: &Cell, ev: Evidence) -> Verdict {
        let io = match &ev {
            Evidence::Solo(r) => r.got.as_ref().ok().map(|q| (&q.report.io, &r.table)),
            Evidence::Service(r) => r.report.as_ref().ok().map(|q| (&q.io, &r.table)),
            _ => None,
        };
        let what = || match ev {
            Evidence::Case => "case".to_string(),
            Evidence::Ingest(..) => "ingest schedule".to_string(),
            _ => format!("{cell:?}"),
        };
        for inv in INVARIANTS.iter().filter(|i| (i.when)(&self.axes, cell)) {
            let verdict = match (&inv.check, &ev, &self.axes.runner) {
                (Check::Case(f), Evidence::Case, _) => f(self),
                (Check::Ingest(f), Evidence::Ingest(d, run), _) => f(self, d, run),
                (Check::Solo(f), Evidence::Solo(run), _) => f(cell, run),
                (Check::Service(f), Evidence::Service(run), Runner::Service(draw)) => f(draw, run),
                (Check::Io(f), _, _) => match io {
                    Some((io, table)) => f(self, io, table),
                    None => continue,
                },
                (Check::Observed(f), Evidence::Service(run), _) => match &run.report {
                    Ok(report) => f(report),
                    Err(_) => continue,
                },
                _ => continue,
            };
            // How often each invariant was really checked lands in `--json`.
            MetricsRegistry::counter_add(&format!("fuzz.checked.{}", inv.name), 1.0);
            verdict.map_err(|m| self.fail(inv.name, &what(), &m))?;
        }
        Ok(())
    }

    fn sys(&self, cell: &Cell) -> SystemConfig {
        let (faults, mirror, on_corrupt) = cell.damage.config(self.seed);
        SystemConfig {
            page_size: self.plan.page_size,
            threads: cell.threads,
            scan_fast_path: cell.fast,
            faults,
            mirror,
            on_corrupt,
            cache: cell.cache.then_some(self.plan.cache),
            ..SystemConfig::default()
        }
    }

    /// The one translation of a rider into a `QueryBuilder`. A `shared`
    /// query is one the service runs (or the solo baseline it is compared
    /// with): every rider scales to the same virtual row count — the service
    /// requires one clock scale, and a multi-second modeled pass is what
    /// makes late arrivals attach mid-scan instead of finding an idle cursor.
    fn query(
        &self,
        (table, tail): (&Arc<Table>, &Option<Arc<Rows>>),
        r: &Rider,
        sys: SystemConfig,
        shared: bool,
    ) -> rodb_types::Result<QueryBuilder> {
        let mut q = QueryBuilder::new(table.clone(), HardwareConfig::default(), sys)
            .layout(self.plan.layout)
            .select_indices(&r.projection);
        if shared {
            q = q.scale_to_rows(10_000_000);
        }
        if let Some(tail) = tail {
            q = q.wos_tail(tail.clone());
        }
        for p in &r.predicates {
            q = q.filter_pred(p.clone())?;
        }
        if let Some(g) = r.group_by {
            q = q.group_by(&format!("c{g}"))?;
        }
        for a in &r.aggs {
            q = q.aggregate(*a);
        }
        if r.sorted_agg {
            q = q.sorted_aggregation();
        }
        Ok(q)
    }

    /// Oracle rows for the case's query over what a scan of `view` may
    /// see: the table rows not `dropped`, then the staged tail.
    fn expected(&self, view: &View, dropped: &[bool]) -> Rows {
        let kept = |&(i, _): &(usize, &Vec<Value>)| !dropped.get(i).copied().unwrap_or(false);
        let survivors = view.ros.iter().enumerate().filter(kept).map(|(_, r)| r);
        let rows = survivors.chain(view.tail.iter().flat_map(|t| t.iter()));
        oracle::expected(&CasePlan {
            rows: rows.cloned().collect(),
            ..self.plan.clone()
        })
    }

    /// The case's cells, grouped by `damage × cache × fast`; a group is its
    /// thread sweep, serial first.
    fn groups(&self) -> Vec<Vec<Cell>> {
        let a = &self.axes;
        let mut out = Vec::new();
        for &damage in &a.damage {
            for &cache in &a.cache {
                for &fast in &a.fast {
                    out.push(
                        a.threads
                            .iter()
                            .map(|&t| cell(t, fast, cache, damage))
                            .collect(),
                    );
                }
            }
        }
        out
    }

    fn run(&self) -> Verdict {
        let table = Arc::new(self.engine("build", || build_table(&self.plan))?);
        let first = self.groups()[0][0];
        self.apply(&first, Evidence::Case)?;
        let view = match &self.axes.source {
            Source::Built => View {
                table,
                tail: None,
                ros: self.plan.rows.clone(),
            },
            Source::Ingest(d) => {
                let run = ingest::drive(self, table, d)?;
                self.apply(&first, Evidence::Ingest(d, &run))?;
                let store = if d.recovered {
                    &run.recovered
                } else {
                    &run.store
                };
                let snap = store.snapshot();
                View {
                    table: snap.ros,
                    tail: Some(snap.tail),
                    ros: run.model.ros,
                }
            }
        };
        let has_tail = view.tail.as_ref().is_some_and(|t| !t.is_empty());
        match &self.axes.runner {
            Runner::Solo => self.solo_cells(&view, has_tail),
            Runner::Service(draw) => self.service_cells(&view, has_tail, draw),
        }
    }

    /// Solo runner: each group runs serial first, so its parallel runs can
    /// be compared with it.
    fn solo_cells(&self, view: &View, has_tail: bool) -> Verdict {
        let healthy = Arc::new(self.expected(view, &[]));
        for group in self.groups() {
            let mut serial: Option<Rc<SoloRun>> = None;
            for cell in group {
                // The quarantine is shared across clones of a table handle,
                // so a run that may quarantine pages reads through a fresh one.
                let table = match cell.damage {
                    Damage::Skip(_) => Arc::new(Table {
                        quarantine: Default::default(),
                        ..(*view.table).clone()
                    }),
                    _ => view.table.clone(),
                };
                let before = verified_pages();
                let got = self.engine(&format!("{cell:?}"), || {
                    let q =
                        self.query((&table, &view.tail), &self.query, self.sys(&cell), false)?;
                    Ok(q.run_collect())
                })?;
                let passes = verified_pages() - before;
                let quarantine = table.quarantine.snapshot();
                let mut dropped = vec![false; view.ros.len()];
                for &q in &quarantine {
                    mark_quarantined_span(&table, q, &mut dropped);
                }
                let union = dropped.iter().filter(|&&d| d).count() as u64;
                let want = match union {
                    0 => healthy.clone(),
                    _ => Arc::new(self.expected(view, &dropped)),
                };
                let run = SoloRun {
                    table,
                    got,
                    want,
                    quarantine,
                    union,
                    passes,
                    has_tail,
                    serial: serial.clone(),
                };
                self.apply(&cell, Evidence::Solo(&run))?;
                if cell.threads == 1 {
                    serial = Some(Rc::new(run));
                }
            }
        }
        Ok(())
    }

    /// Service runner: the drawn riders go through `QueryService` once per
    /// cell and are compared with their own solo runs — the ordinary
    /// bypassed engine on the plan's pool, healthy, no cache.
    fn service_cells(&self, view: &View, has_tail: bool, draw: &ServiceDraw) -> Verdict {
        let source = (&view.table, &view.tail);
        let solo = cell(
            self.plan.threads,
            self.plan.scan_fast_path,
            false,
            Damage::None,
        );
        let mut want = Vec::with_capacity(draw.riders.len());
        for (i, r) in draw.riders.iter().enumerate() {
            let q = || self.query(source, r, self.sys(&solo), true)?.run_collect();
            want.push(self.engine(&format!("solo rider {i}"), q)?.rows);
        }
        let want = Rc::new(want);
        let spec = self
            .axes
            .window
            .map_or(draw.spec, |w| draw.spec.with_window(w));
        for cell in self.groups().into_iter().flatten() {
            let sys = SystemConfig {
                service: Some(spec),
                ..self.sys(&cell)
            };
            // The inner `Err` is the service's own verdict on the batch
            // (legal for a tailed plan, see `Q2`).
            let report = self.engine(&format!("service, {cell:?}"), || {
                // Each run owns its registry: sweeps never pollute the
                // process-wide one.
                let mut svc =
                    QueryService::new(HardwareConfig::default(), sys)?.metrics(Registry::handle());
                for (i, r) in draw.riders.iter().enumerate() {
                    let req = ServiceRequest::new(self.query(source, r, sys, true)?);
                    svc.submit(req.at(draw.arrivals[i]).tenant(draw.tenants[i]));
                }
                Ok(svc.run())
            })?;
            let (table, want) = (view.table.clone(), want.clone());
            let run = ServiceRun {
                table,
                want,
                has_tail,
                report,
            };
            self.apply(&cell, Evidence::Service(&run))?;
        }
        Ok(())
    }
}

/// R1: rows == oracle(visible − dropped) in every exec × cache cell.
fn r1(_: &Cell, run: &SoloRun) -> Verdict {
    let res = (run.got.as_ref()).map_err(|e| format!("engine error {e:?}"))?;
    let (got, want) = (&res.rows, &*run.want);
    ensure!(
        got == want,
        "MISMATCH: engine {} rows, oracle {} rows ({} positions dropped)\n  engine: {got:?}\n  \
         oracle: {want:?}",
        got.len(),
        want.len(),
        run.union
    );
    Ok(())
}

/// V1: a serial, uncached, healthy scan spends no more checksum passes than
/// it transferred pages, whatever the layout or path.
fn v1(_: &Cell, run: &SoloRun) -> Verdict {
    let res = (run.got.as_ref()).map_err(|e| format!("engine error {e:?}"))?;
    // Every table the harness builds carries both layouts at one page size.
    let storage = run.table.row_storage().map_err(|e| format!("{e:?}"))?;
    let pages = (res.report.io.bytes_read / storage.page_size as f64) as u64;
    ensure!(
        run.passes <= pages,
        "{} checksum passes for {pages} pages read",
        run.passes
    );
    Ok(())
}

/// W6: a snapshot read with a non-empty tail never runs in parallel.
fn w6(_: &Cell, run: &SoloRun) -> Verdict {
    let parallel = run.got.as_ref().is_ok_and(|r| r.parallel.is_some());
    ensure!(
        !(run.has_tail && parallel),
        "a query with a staged tail took the parallel path"
    );
    Ok(())
}

/// F1: every read damaged + `Fail` ⇒ `Err(Corrupt)`, with one legal `Ok`:
/// the fast path's zone maps live in clean in-memory
/// table metadata and can prove every driver page irrelevant, so no page is
/// ever *parsed* — remaining bytes are only drained for I/O accounting.
/// Corrupt data that is actually decoded always fails its checksum.
fn f1(_: &Cell, run: &SoloRun) -> Verdict {
    match &run.got {
        Err(Error::Corrupt(_)) => Ok(()),
        Err(other) => Err(format!("expected Corrupt under faults, got {other:?}")),
        Ok(res) if res.report.io.pages_skipped > 0 && res.rows == *run.want => Ok(()),
        Ok(res) => Err(format!(
            "fault-injected run returned {} rows without error (skipped {} pages)",
            res.rows.len(),
            res.report.io.pages_skipped
        )),
    }
}

/// M1: a mirrored `Retry` repairs everything and quarantines nothing.
fn m1(_: &Case, io: &IoStats, table: &Table) -> Verdict {
    let (rec, held) = (io.recovery, table.quarantine.len());
    ensure!(
        rec.quarantined_pages == 0 && rec.dropped_rows == 0 && held == 0,
        "a clean replica was available, yet {rec:?} and {held} pages in the table quarantine"
    );
    ensure!(
        rec.repairs == rec.retries,
        "the clean replica must repair every retry: {rec:?}"
    );
    Ok(())
}

/// S1: `Skip` accounting matches the quarantine the run left behind. A
/// parallel run's `dropped_rows` may undercount the union (a straddling
/// page demanded by only one morsel charges only that morsel's window) but
/// never exceeds it, and is non-zero whenever anything was quarantined.
fn s1(cell: &Cell, run: &SoloRun) -> Verdict {
    let Ok(res) = &run.got else { return Ok(()) };
    let (rec, union, held) = (
        res.report.io.recovery,
        run.union,
        run.quarantine.len() as u64,
    );
    let (counted, dropped) = (rec.quarantined_pages, rec.dropped_rows);
    ensure!(
        counted == held,
        "counted {counted} quarantined pages but the table quarantine holds {held}"
    );
    if cell.threads == 1 {
        ensure!(
            dropped == union,
            "serial dropped_rows {dropped} != quarantined span union {union}"
        );
    } else {
        ensure!(
            dropped <= union && (union == 0 || dropped > 0),
            "parallel dropped_rows {dropped} outside (0, {union}]"
        );
    }
    if let Some(serial) = &run.serial {
        let (par, ser) = (&run.quarantine, &serial.quarantine);
        ensure!(
            par == ser,
            "parallel quarantined {par:?}, serial quarantined {ser:?}"
        );
        let same_rows = !serial.got.as_ref().is_ok_and(|s| s.rows != res.rows);
        ensure!(same_rows, "parallel degraded rows differ from serial");
    }
    Ok(())
}

/// C1: a cache-off run reports no cache activity.
fn c1(_: &Case, io: &IoStats, _: &Table) -> Verdict {
    ensure!(
        io.cache == CacheStats::default(),
        "cache-off run reported {:?}",
        io.cache
    );
    Ok(())
}

/// C2: a zero-frame cache never hits or evicts.
fn c2(case: &Case, io: &IoStats, _: &Table) -> Verdict {
    let idle = io.cache.hits + io.cache.evictions == 0;
    ensure!(
        case.plan.cache.frames > 0 || idle,
        "zero-frame cache hit or evicted: {:?}",
        io.cache
    );
    Ok(())
}

/// C3: a serial cache-on scan of a non-empty table is seen by the cache.
/// Zone-rejected pages bypass the cache entirely (neither fetched nor
/// cached), so a fully skipped scan legally requests no pages — but then
/// the skip counter must say so.
fn c3(_: &Cell, run: &SoloRun) -> Verdict {
    let Ok(res) = &run.got else { return Ok(()) };
    let (c, skipped) = (res.report.io.cache, res.report.io.pages_skipped);
    ensure!(
        run.table.row_count == 0 || c.hits + c.misses > 0 || skipped > 0,
        "cache-on scan of a non-empty table neither requested nor skipped a page"
    );
    Ok(())
}

/// C4: repairs == retries ≤ misses under a mirrored, cached run. Hits
/// never roll faults, so a repaired read is always accounted a miss:
/// a repaired page is re-read from disk, never served stale.
fn c4(_: &Case, io: &IoStats, _: &Table) -> Verdict {
    let (rec, misses) = (io.recovery, io.cache.misses);
    ensure!(
        rec.repairs == rec.retries && rec.repairs <= misses,
        "{rec:?} with only {misses} cache misses"
    );
    Ok(())
}

/// Q1: one outcome per request, no rejection without a deadline, each
/// rider's rows == its solo rows.
fn q1(draw: &ServiceDraw, run: &ServiceRun) -> Verdict {
    let report = match &run.report {
        Ok(report) => report,
        Err(_) if run.has_tail => return Ok(()), // Q2's case
        Err(e) => return Err(format!("service run failed: {e:?}")),
    };
    let (got, k) = (&report.outcomes, run.want.len());
    ensure!(got.len() == k, "{} outcomes for {k} requests", got.len());
    for (i, (out, want)) in got.iter().zip(run.want.iter()).enumerate() {
        let deadline = draw.spec.deadline_s.is_some();
        ensure!(
            !out.rejected || deadline,
            "rider {i} rejected with no deadline configured"
        );
        ensure!(
            out.rejected || out.rows == *want,
            "rider {i} MISMATCH through the scheduler: service {} rows, solo {} rows\n  \
             service: {:?}\n  solo: {want:?}",
            out.rows.len(),
            want.len(),
            out.rows
        );
    }
    Ok(())
}

/// Q2: non-empty tail ⇔ typed `InvalidPlan`. Riders see ROS row ranges
/// only, so a tail would be silently dropped; the service must refuse.
fn q2(_: &ServiceDraw, run: &ServiceRun) -> Verdict {
    let refused = matches!(&run.report, Err(Error::InvalidPlan(_)));
    let got = run.report.as_ref().map(|r| r.outcomes.len());
    ensure!(
        refused == run.has_tail && (refused || got.is_ok()),
        "staged tail: {}, but the service returned {got:?}",
        run.has_tail
    );
    Ok(())
}

/// O2: timeline totals == outcome counts.
fn o2(report: &ServiceReport) -> Verdict {
    let rejected = report.outcomes.iter().filter(|o| o.rejected).count();
    let want = ((report.outcomes.len() - rejected) as f64, rejected as f64);
    let total = |name| report.observed.timeline.counter_total(name);
    let got = (total("service.completed"), total("service.rejected"));
    ensure!(
        got == want,
        "timeline (completed, rejected) {got:?} vs outcomes {want:?}"
    );
    Ok(())
}

/// O3: every deadline-missed completion is retained by the flight
/// recorder in its completion window.
fn o3(report: &ServiceReport) -> Verdict {
    let flight = &report.observed.flight;
    let missed = |o: &&rodb_core::QueryOutcome| o.deadline_missed && !o.rejected;
    for (i, o) in report
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| missed(o))
    {
        let w = flight.window_of(o.arrival_s + o.latency_s);
        let kept = flight.anomalies(w);
        ensure!(
            kept.iter().any(|e| e.seq == i as u64 && e.deadline_missed),
            "deadline-missed query {i} not retained by the flight recorder in window {w}"
        );
    }
    Ok(())
}

/// O4: per-tenant SLO counts and p50/p95/p99 == a sorted-Vec oracle
/// (populations here are far below the histogram's exact-sample cap).
fn o4(report: &ServiceReport) -> Verdict {
    for slo in &report.observed.slo.tenants {
        let outs = report.outcomes.iter().filter(|o| o.tenant == slo.tenant);
        let done = outs.clone().filter(|o| !o.rejected);
        let mut lats: Vec<f64> = done.map(|o| o.latency_s).collect();
        lats.sort_by(f64::total_cmp);
        let (tenant, got) = (&slo.tenant, (slo.completed, slo.rejected));
        let counts = (lats.len() as u64, (outs.count() - lats.len()) as u64);
        ensure!(
            got == counts,
            "tenant {tenant} SLO (completed, rejected) {got:?} vs outcomes {counts:?}"
        );
        for q in [0.5, 0.95, 0.99] {
            let want = match lats.len() {
                0 => 0.0,
                n => lats[((n - 1) as f64 * q).round() as usize],
            };
            let got = slo.latency.quantile(q);
            ensure!(
                got.to_bits() == want.to_bits(),
                "tenant {tenant} p{} {got} != oracle {want}",
                q * 100.0
            );
        }
    }
    Ok(())
}

/// Run one seed under one mode; `Err` names the violated invariant, the
/// cell, and the case.
pub fn run(mode: Mode, seed: u64) -> Result<(), String> {
    let case = Case::new(mode, seed);
    if case.plan.rows.is_empty() && case.axes.needs_rows() {
        return Ok(());
    }
    case.run()
}

/// Re-run one seed with span tracing on and save both trace formats
/// (`<dir>/fuzz_<mode>_seed_<n>.{trace,chrome}.json`) — the CI artifact
/// path. The traced cell is the plan's own pool with the mode's cache
/// setting; a mode that only runs damaged (recovery) traces the
/// mirrored-repair configuration so the trace carries retry/repair events,
/// every other mode runs healthy.
pub fn save_case_trace(seed: u64, mode: Mode, dir: &str) -> Result<std::path::PathBuf, String> {
    let case = Case::new(mode, seed);
    let (axes, plan) = (&case.axes, &case.plan);
    let table = Arc::new(case.engine("build", || build_table(plan))?);
    let healthy = axes.damage.contains(&Damage::None) || !axes.damage.contains(&Damage::Retry);
    let damage = if healthy { Damage::None } else { Damage::Retry };
    let cache = *axes.cache.last().expect("every axis has a value");
    let sys = case.sys(&cell(plan.threads, plan.scan_fast_path, cache, damage));
    let res = case.engine("traced run", || {
        let q = case.query((&table, &None), &case.query, sys, false)?;
        q.trace(true).run_collect()
    })?;
    let trace = (res.trace).ok_or_else(|| format!("seed {seed}: traced run produced no trace"))?;
    trace
        .save(dir, &format!("fuzz_{}_seed_{seed}", mode.name()))
        .map_err(|e| format!("seed {seed}: could not save trace: {e}"))
}

/// A [`Digest`] of everything `mode` draws for `seed` that the case
/// executes: the table and its design, the query and its exec knobs, the
/// riders and their schedule, the drawn window, the ingest knobs, op list
/// and crash points. Pins that old seeds replay unchanged.
pub fn replay_digest(mode: Mode, seed: u64) -> u64 {
    case_digest(&Case::new(mode, seed))
}

fn case_digest(case: &Case) -> u64 {
    let (p, a) = (&case.plan, &case.axes);
    let mut h = Digest::default();
    h.usize(p.schema.len());
    for (c, tag) in p.dist_tags.iter().enumerate() {
        h.dtype(p.schema.dtype(c)).str(tag);
    }
    h.rows(&p.rows).usize(p.page_size).u64(p.storage as u64);
    h.u64s(p.comps.iter().map(|c| c.codec.kind() as u64));
    h.u64(p.layout as u64);
    rider_digest(&mut h, &Rider::of(p));
    h.usize(p.threads).bool(p.scan_fast_path);
    h.usize(p.cache.frames).usize(p.cache.k);
    if p.rows.is_empty() {
        return h.finish();
    }
    if let Runner::Service(d) = &a.runner {
        h.usize(d.riders.len());
        for ((r, &arrival), tenant) in d.riders.iter().zip(&d.arrivals).zip(&d.tenants) {
            rider_digest(&mut h, r);
            h.f64(arrival).str(tenant);
        }
        let s = &d.spec;
        h.usize(s.max_inflight).f64(s.slice_s);
        h.opt(s.deadline_s.map(f64::to_bits));
        if let Some(window_s) = a.window {
            h.f64(window_s).u64s(a.cache.iter().map(|&c| c as u64));
        }
    }
    if let Source::Ingest(d) = &a.source {
        let base = Arc::new(build_table(p).expect("generated table builds"));
        let run = ingest::drive(case, base, d).expect("drawn schedule is valid");
        h.opt(d.sort_by.map(|k| k as u64))
            .usize(d.spec.auto_merge_rows);
        h.u64s(run.sampled.iter().map(|&at| at as u64));
        h.u64s(
            run.flips
                .iter()
                .map(|&(at, bit)| (at as u64) << 8 | bit as u64),
        );
        h.usize(run.ops.len());
        for op in &run.ops {
            match op {
                ingest::IngestOp::Insert(rows) => h.u64(0).rows(rows),
                ingest::IngestOp::MergeBegin => h.u64(1),
                ingest::IngestOp::MergeCommit(n) => h.u64(2).usize(*n),
            };
        }
    }
    h.finish()
}

fn rider_digest(h: &mut Digest, r: &Rider) {
    h.u64s(r.projection.iter().map(|&c| c as u64));
    h.predicates(&r.predicates)
        .opt(r.group_by.map(|g| g as u64));
    h.u64s(r.aggs.iter().map(|g| (g.func as u64) << 32 | g.col as u64));
    h.bool(r.sorted_agg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A slice of the seed space stays green in-tree so `cargo test` keeps
    /// exercising every mode end to end; CI and local runs sweep far more.
    #[test]
    fn every_mode_is_clean_and_legal_on_a_seed_window() {
        for mode in Mode::ALL {
            for seed in 0..60 {
                assert_eq!(
                    Case::new(mode, seed).axes.legal(),
                    Ok(()),
                    "{mode:?} {seed}"
                );
                run(mode, seed).unwrap();
            }
        }
    }

    #[test]
    fn ingest_schedules_cover_the_design_space() {
        // Over a small window the drawn schedules must hit the shapes the
        // protocol distinguishes: auto-merge specs, multi-epoch histories,
        // a log ending in an uncommitted begin, and inserts landing behind
        // a frozen prefix — otherwise the ingest sweep's claim is hollow.
        let (mut auto, mut multi_epoch, mut uncommitted_tail) = (false, false, false);
        let (mut sorted_key, mut unsorted) = (false, false);
        for seed in 0..200 {
            let case = Case::new(Mode::Ingest, seed);
            let Source::Ingest(d) = &case.axes.source else {
                panic!("ingest mode reads an ingest source");
            };
            if case.plan.rows.is_empty() {
                continue;
            }
            auto |= d.spec.auto_merge_rows > 0;
            sorted_key |= d.sort_by.is_some();
            unsorted |= d.sort_by.is_none();
            let base = Arc::new(build_table(&case.plan).unwrap());
            let run = ingest::drive(&case, base, d).unwrap();
            multi_epoch |= run.model.epoch >= 2;
            uncommitted_tail |= matches!(run.ops.last(), Some(ingest::IngestOp::MergeBegin))
                || (run.store.wos_len() > 0 && run.model.epoch > 0);
        }
        assert!(auto, "no schedule drew an auto-merge spec");
        assert!(multi_epoch, "no schedule committed two merges");
        assert!(uncommitted_tail, "no schedule left staged rows behind");
        assert!(sorted_key && unsorted, "sort-key draw never varied");
    }

    /// The replay digest moves when any one fact a case executes moves —
    /// down to one bit of one arrival time.
    #[test]
    fn the_replay_digest_moves_with_every_executed_fact() {
        fn service(c: &mut Case) -> Option<&mut ServiceDraw> {
            match &mut c.axes.runner {
                Runner::Service(d) => Some(d),
                Runner::Solo => None,
            }
        }
        /// What is edited, in which mode's cases; `false` when a case has
        /// no such fact.
        type Edit = (&'static str, Mode, fn(&mut Case) -> bool);
        let edits: [Edit; 6] = [
            ("a predicate literal", Mode::Plain, |c| {
                let lit = c.plan.predicates.first_mut().map(|p| &mut p.literal);
                let Some(Value::Int(i)) = lit else {
                    return false;
                };
                *i ^= 1;
                true
            }),
            ("the cache frame count", Mode::Cache, |c| {
                c.plan.cache.frames += 1;
                true
            }),
            ("one arrival's bits", Mode::Concurrent, |c| {
                service(c).is_some_and(|d| {
                    d.arrivals[1] = f64::from_bits(d.arrivals[1].to_bits() ^ 1);
                    true
                })
            }),
            ("the slice", Mode::Concurrent, |c| {
                service(c).is_some_and(|d| {
                    d.spec.slice_s *= 2.0;
                    true
                })
            }),
            ("the deadline", Mode::Observe, |c| {
                service(c).is_some_and(|d| {
                    d.spec.deadline_s = Some(d.spec.deadline_s.map_or(1.0, |s| s * 2.0));
                    true
                })
            }),
            ("the ingest sort key", Mode::Ingest, |c| {
                match &mut c.axes.source {
                    Source::Ingest(d) if d.sort_by.is_none() => {
                        d.sort_by = Some(0);
                        true
                    }
                    _ => false,
                }
            }),
        ];
        for (what, mode, edit) in edits {
            let mut edited = 0;
            for seed in 0..16 {
                let mut case = Case::new(mode, seed);
                if case.plan.rows.is_empty() {
                    continue;
                }
                let before = case_digest(&case);
                if edit(&mut case) {
                    edited += 1;
                    assert_ne!(case_digest(&case), before, "{what}, {mode:?} seed {seed}");
                }
            }
            assert!(edited > 0, "no {mode:?} case has {what}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen::generate(42);
        let b = gen::generate(42);
        assert_eq!(a.describe(), b.describe());
        assert_eq!(a.rows, b.rows);
        assert_eq!(oracle::expected(&a), oracle::expected(&b));
    }

    #[test]
    fn seeds_cover_the_design_space() {
        // The generator should hit every storage kind, several codecs, all
        // four layouts, and both empty and multi-page tables within a small
        // window — otherwise the fuzzer's coverage claim is hollow.
        let mut storages = HashSet::new();
        let mut layouts = HashSet::new();
        let mut codecs = HashSet::new();
        let mut empty = false;
        let mut large = false;
        let mut cache_frames = HashSet::new();
        for seed in 0..400 {
            let p = gen::generate(seed);
            storages.insert(format!("{:?}", p.storage));
            layouts.insert(format!("{:?}", p.layout));
            for c in &p.comps {
                codecs.insert(format!("{:?}", c.codec.kind()));
            }
            empty |= p.rows.is_empty();
            large |= p.rows.len() > 300;
            cache_frames.insert(p.cache.frames);
        }
        assert_eq!(storages.len(), 3, "storage kinds: {storages:?}");
        assert_eq!(layouts.len(), 4, "layouts: {layouts:?}");
        // All ten codec kinds (incl. the RLE/PFOR family) must appear.
        assert!(codecs.len() >= 10, "codecs: {codecs:?}");
        assert!(empty && large);
        // Cache draws must hit the degenerate geometries: disabled-size
        // zero, a single frame, and larger than any generated table.
        for frames in [0usize, 1, 1 << 16] {
            assert!(
                cache_frames.contains(&frames),
                "cache sizes: {cache_frames:?}"
            );
        }
    }

    #[test]
    fn composed_draws_every_legal_pair_of_axis_values() {
        // (axis, non-default value, does the case take it?)
        type Tag = (u8, &'static str, fn(&Axes) -> bool);
        let tags: [Tag; 10] = [
            (0, "parallel", |a| a.threads.iter().any(|&n| n > 1)),
            (1, "fast", |a| a.fast.contains(&true)),
            (2, "cache", |a| a.cache.contains(&true)),
            (3, "retry", |a| a.damage.contains(&Damage::Retry)),
            (3, "skip", |a| matches!(a.damage[0], Damage::Skip(_))),
            (3, "fail", |a| a.damage.contains(&Damage::Fail)),
            (
                4,
                "snapshot",
                |a| matches!(&a.source, Source::Ingest(d) if !d.recovered),
            ),
            (
                4,
                "recovered",
                |a| matches!(&a.source, Source::Ingest(d) if d.recovered),
            ),
            (5, "service", |a| a.is_service()),
            (6, "window", |a| a.window.is_some()),
        ];
        let drawn: Vec<Axes> = (0..400)
            .map(|s| Case::new(Mode::Composed, s).axes)
            .collect();
        // What `Axes::legal` excludes: lossy damage under the service, which
        // a windowed case needs. Narrowing `legal` must show up here.
        let excluded =
            |a: &str, b: &str| matches!(a, "skip" | "fail") && matches!(b, "service" | "window");
        for a in &tags {
            for b in tags.iter().filter(|b| a.0 < b.0 && !excluded(a.1, b.1)) {
                let both = drawn.iter().any(|x| a.2(x) && b.2(x));
                assert!(both, "{} x {} never drawn in 400 seeds", a.1, b.1);
            }
        }
    }
}
