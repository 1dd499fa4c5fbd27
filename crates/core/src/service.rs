//! The concurrent query service: many in-flight queries over shared
//! cooperative scans, with admission control, deadlines, and tenant-fair
//! scheduling — the serving layer the ROADMAP's "millions of users" north
//! star calls for, built on [`rodb_engine::SharedCursor`].
//!
//! The service is a discrete-event simulator on the same modeled clock as
//! everything else in this repo. Time advances in *segments*: each shared
//! cursor's table is cut into slices of roughly
//! [`ServiceSpec::slice_s`](rodb_types::ServiceSpec) modeled seconds of
//! disk time, and the event loop repeatedly (1) ingests arrivals that have
//! happened by the current clock, (2) admits queued queries up to
//! `max_inflight`, the least-served tenant first, then in submission order,
//! (3) runs one segment of the least-served cursor and advances the clock
//! by its modeled cost.
//! Late-arriving queries attach to a cursor mid-scan and complete their
//! missed prefix after the cursor wraps around; results are reassembled in
//! table order, so every query's rows are bit-identical to its solo run.
//!
//! When [`SystemConfig::service`](rodb_types::SystemConfig) is `None` the
//! service layer does not exist: [`crate::QueryBuilder::run`] takes the
//! ordinary single-query engine paths untouched.

use std::collections::{BTreeMap, HashMap};
use std::sync::PoisonError;

use rodb_engine::{
    CursorQuery, QueryDone, RowBatch, ScanLayout, ScanSpec, SegmentStep, SharedCursor,
};
use rodb_io::{shared_page_cache, IoStats, SharedPageCache};
use rodb_storage::Layout;
use rodb_trace::{
    FlightEntry, FlightRecorder, Histogram, Json, MetricsHandle, MonitorHandle, Registry, Timeline,
};
use rodb_types::{Error, HardwareConfig, Result, ServiceSpec, SystemConfig};

use crate::query::QueryBuilder;

/// Upper bound on segments per cursor cycle: keeps the event loop bounded
/// when `slice_s` is tiny relative to the pass time.
const MAX_SEGMENTS: usize = 128;

/// One query submitted to the service, with its open-loop arrival time and
/// scheduling attributes.
#[derive(Clone)]
pub struct ServiceRequest {
    pub query: QueryBuilder,
    /// Modeled arrival time in seconds from the start of the run.
    pub arrival_s: f64,
    /// Tenant label for fair scheduling (accumulated service time is
    /// balanced across tenants at admission).
    pub tenant: String,
    /// Materialize result rows in the outcome (on by default).
    pub collect: bool,
}

impl ServiceRequest {
    pub fn new(query: QueryBuilder) -> ServiceRequest {
        ServiceRequest {
            query,
            arrival_s: 0.0,
            tenant: "default".to_string(),
            collect: true,
        }
    }

    /// Arrive at `t` modeled seconds.
    pub fn at(mut self, t: f64) -> ServiceRequest {
        self.arrival_s = t;
        self
    }

    pub fn tenant(mut self, tenant: impl Into<String>) -> ServiceRequest {
        self.tenant = tenant.into();
        self
    }

    /// Measurement only: outcome carries counts but no rows.
    pub fn measure_only(mut self) -> ServiceRequest {
        self.collect = false;
        self
    }
}

/// Per-query outcome of a service run, in submission order.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub tenant: String,
    pub arrival_s: f64,
    /// Seconds spent in the admission queue (0 for rejected queries —
    /// their whole life was queue wait; see `rejected`).
    pub queue_wait_s: f64,
    /// Arrival → completion on the modeled clock (for rejected queries:
    /// arrival → rejection).
    pub latency_s: f64,
    /// The collected rows, as blocks (empty unless collected).
    pub rows: RowBatch,
    pub nrows: u64,
    /// Segment index the query attached to its cursor at.
    pub attach_seg: usize,
    /// Whether completion required riding past the cursor's wraparound.
    pub wrapped: bool,
    /// Finished after its deadline (deadline configured and exceeded).
    pub deadline_missed: bool,
    /// Rejected at admission because its deadline expired while queued.
    pub rejected: bool,
}

impl QueryOutcome {
    /// The one place an outcome is built: the request's own attributes and
    /// its two clock readings, no rows yet. A rejection reads
    /// `deadline_missed` too — its whole life was queue wait.
    fn new(
        req: &ServiceRequest,
        queue_wait_s: f64,
        latency_s: f64,
        rejected: bool,
    ) -> QueryOutcome {
        QueryOutcome {
            tenant: req.tenant.clone(),
            arrival_s: req.arrival_s,
            queue_wait_s,
            latency_s,
            rows: RowBatch::default(),
            nrows: 0,
            attach_seg: 0,
            wrapped: false,
            deadline_missed: rejected,
            rejected,
        }
    }
}

/// What a whole service run produced.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Modeled seconds from the first arrival to the last completion.
    pub makespan_s: f64,
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Merged driver-pass I/O across all shared cursors — the total I/O
    /// the run charged (per-query re-evaluation I/O is never charged).
    pub io: IoStats,
    /// Segment steps executed and cursor wraparounds completed.
    pub segments: u64,
    pub wraparounds: u64,
    /// The run's books: timeline, flight recorder and SLO table.
    pub observed: Observed,
}

/// Per-tenant SLO accounting for one service run: windowed-latency
/// quantiles (exact against a sorted-Vec oracle below
/// [`Histogram::SAMPLE_CAP`] observations), deadline-miss and
/// admission-rejection rates, and this tenant's share of all charged
/// modeled service time.
#[derive(Debug, Clone, Default)]
pub struct TenantSlo {
    pub tenant: String,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub deadline_missed: u64,
    /// Modeled service seconds charged to this tenant (slice cost split
    /// evenly across a segment's riders — the admission fair-share key).
    pub service_s: f64,
    /// `service_s` as a fraction of all tenants' charged time.
    pub share: f64,
    /// Completed-query latency population.
    pub latency: Histogram,
    /// Completed-query admission-queue wait population.
    pub queue_wait: Histogram,
}

impl TenantSlo {
    /// Deadline misses per completed query.
    pub fn miss_rate(&self) -> f64 {
        if self.completed > 0 {
            self.deadline_missed as f64 / self.completed as f64
        } else {
            0.0
        }
    }

    /// Rejections at admission per submitted query.
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted > 0 {
            self.rejected as f64 / self.submitted as f64
        } else {
            0.0
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("tenant", self.tenant.as_str())
            .set("submitted", self.submitted)
            .set("completed", self.completed)
            .set("rejected", self.rejected)
            .set("deadline_missed", self.deadline_missed)
            .set("miss_rate", self.miss_rate())
            .set("rejection_rate", self.rejection_rate())
            .set("latency_p50_s", self.latency.quantile(0.50))
            .set("latency_p95_s", self.latency.quantile(0.95))
            .set("latency_p99_s", self.latency.quantile(0.99))
            .set("queue_wait_p95_s", self.queue_wait.quantile(0.95))
            .set("service_s", self.service_s)
            .set("share", self.share)
    }
}

/// Tenant SLO table plus the cross-tenant fairness index.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Per-tenant accounting, sorted by tenant name.
    pub tenants: Vec<TenantSlo>,
    /// Jain's fairness index `(Σx)² / (n·Σx²)` over the tenants' charged
    /// service time: 1.0 = perfectly even shares, `1/n` = one tenant
    /// monopolized the service.
    pub fairness: f64,
}

impl SloReport {
    pub fn tenant(&self, name: &str) -> Option<&TenantSlo> {
        self.tenants.iter().find(|t| t.tenant == name)
    }

    pub fn to_json(&self) -> Json {
        Json::obj().set("fairness", self.fairness).set(
            "tenants",
            self.tenants
                .iter()
                .map(TenantSlo::to_json)
                .collect::<Vec<_>>(),
        )
    }
}

/// The books one service run keeps beside its outcomes, windowed by
/// [`ServiceSpec::window_s`].
#[derive(Debug, Clone)]
pub struct Observed {
    /// Windowed throughput / latency / I/O / cache curves.
    pub timeline: Timeline,
    /// Tail-based retention: 4 slowest + all anomalous queries per window.
    pub flight: FlightRecorder,
    /// Per-tenant SLO accounting and the fairness index.
    pub slo: SloReport,
}

impl Observed {
    /// The books of a run that keeps none: no window, flight record or
    /// tenant. [`QueryService::run_query_at_a_time`] returns these, since
    /// it models no admission and no segments.
    fn empty(window_s: f64) -> Observed {
        Observed {
            timeline: Timeline::new(window_s),
            flight: FlightRecorder::new(window_s),
            slo: SloReport {
                tenants: Vec::new(),
                fairness: jain_fairness(&[]),
            },
        }
    }
}

fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 <= 0.0 {
        1.0
    } else {
        s * s / (xs.len() as f64 * s2)
    }
}

/// `done` per modeled second of `clock` (0 before the clock moves).
fn per_second(done: u64, clock: f64) -> f64 {
    if clock > 0.0 {
        done as f64 / clock
    } else {
        0.0
    }
}

/// The `/status` document: a service summary counted off the settled
/// outcomes, the SLO table, the timeline and the flight-recorder dump. The
/// one builder behind the live publisher and
/// [`ServiceReport::to_status_json`].
fn status_doc<'a>(
    clock: f64,
    (queued, inflight): (usize, usize),
    (segments, wraparounds): (u64, u64),
    outcomes: impl Iterator<Item = &'a QueryOutcome>,
    (slo, timeline, flight): (&SloReport, &Timeline, &FlightRecorder),
) -> Json {
    let (mut completed, mut rejected, mut missed) = (0u64, 0u64, 0u64);
    for o in outcomes {
        if o.rejected {
            rejected += 1;
        } else {
            completed += 1;
            missed += u64::from(o.deadline_missed);
        }
    }
    let tenants: Vec<Json> = slo.tenants.iter().map(TenantSlo::to_json).collect();
    Json::obj()
        .set(
            "service",
            Json::obj()
                .set("clock_s", clock)
                .set("completed", completed)
                .set("inflight", inflight as u64)
                .set("queued", queued as u64)
                .set("rejected", rejected)
                .set("deadline_missed", missed)
                .set("segments", segments)
                .set("wraparounds", wraparounds)
                .set("throughput_per_s", per_second(completed, clock)),
        )
        .set("fairness", slo.fairness)
        .set("tenants", tenants)
        .set("timeline", timeline.to_json())
        .set("flight", flight.to_json())
}

/// The books of one `run()`, and the only writer of a request's fate. A
/// request is *submitted*, maybe *admitted*, and finally *settled*:
/// completed, or rejected at admission. Cursors run *segments*. Each of
/// those four facts passes through the one method named after it, which
/// alone knows what the fact is called in the registry, the timeline and the
/// flight recorder. The event loop decides; the ledger records, and every
/// count the service reports, the SLO table included, is read back off its
/// outcome slots.
struct Ledger<'a> {
    requests: &'a [ServiceRequest],
    reg: &'a Registry,
    deadline_s: Option<f64>,
    /// The modeled clock. The event loop advances it; every fact is stamped
    /// with its reading.
    clock: f64,
    /// Requests submitted so far: a prefix of `requests`.
    submitted: usize,
    admitted_at: Vec<f64>,
    /// One slot per request, filled when its fate is settled.
    outcomes: Vec<Option<QueryOutcome>>,
    /// The filled slots in settle order, so the SLO histograms observe
    /// latencies in the order the run settled them.
    settled: Vec<usize>,
    /// Charged modeled service seconds per tenant — the admission
    /// fair-share key. Ordered, so `slo_report` sums it in tenant-name
    /// order: a hash map's iteration order moves `share` in the last ulp
    /// run to run.
    tenant_service: BTreeMap<String, f64>,
    segments: u64,
    wraparounds: u64,
    /// Queue and in-flight depth at the last segment boundary.
    depth: (usize, usize),
    timeline: Timeline,
    flight: FlightRecorder,
    /// Cursor quarantine totals at each query's attach, to tag flight
    /// records that rode a cursor while it quarantined pages.
    quarantined_at_attach: HashMap<usize, u64>,
}

impl<'a> Ledger<'a> {
    /// Empty books for `requests`, every fact counted into `reg`.
    fn new(requests: &'a [ServiceRequest], reg: &'a Registry, spec: &ServiceSpec) -> Ledger<'a> {
        Ledger {
            requests,
            reg,
            deadline_s: spec.deadline_s,
            clock: 0.0,
            submitted: 0,
            admitted_at: vec![0.0; requests.len()],
            outcomes: requests.iter().map(|_| None).collect(),
            settled: Vec::new(),
            tenant_service: BTreeMap::new(),
            segments: 0,
            wraparounds: 0,
            depth: (0, 0),
            timeline: Timeline::new(spec.window_s),
            flight: FlightRecorder::new(spec.window_s),
            quarantined_at_attach: HashMap::new(),
        }
    }

    fn submitted(&mut self, seq: usize) {
        self.submitted = seq + 1;
        self.reg.counter_add("query.sched.submitted", 1.0);
    }

    /// Attached to a cursor whose I/O totals read `cursor_io`; `mid_scan`
    /// when the cursor was already moving.
    fn admitted(&mut self, seq: usize, mid_scan: bool, cursor_io: &IoStats) {
        self.admitted_at[seq] = self.clock;
        let wait = self.clock - self.requests[seq].arrival_s;
        self.reg.counter_add("query.sched.admitted", 1.0);
        self.reg.observe("query.sched.queue_wait_s", wait);
        if mid_scan {
            self.reg.counter_add("query.sched.attach_mid_scan", 1.0);
        }
        self.timeline
            .counter_add(self.clock, "service.admitted", 1.0);
        self.timeline
            .observe(self.clock, "service.queue_wait_s", wait);
        self.quarantined_at_attach
            .insert(seq, cursor_io.recovery.quarantined_pages);
    }

    /// A cursor ran `step` for `riders`. Charges each rider's tenant its
    /// even share of the slice, then records the step's driver I/O and the
    /// depth gauges.
    fn segment(
        &mut self,
        step: &SegmentStep,
        riders: &[usize],
        depth: (usize, usize),
        cache: Option<&SharedPageCache>,
    ) {
        self.segments += 1;
        self.reg.counter_add("query.sched.segments", 1.0);
        if step.wrapped {
            self.wraparounds += 1;
            self.reg.counter_add("query.sched.wraparounds", 1.0);
        }
        let share = step.elapsed_s / riders.len() as f64;
        for &seq in riders {
            let tenant = &self.requests[seq].tenant;
            *self.tenant_service.entry(tenant.clone()).or_insert(0.0) += share;
        }
        self.depth = depth;
        let (t, clock) = (&mut self.timeline, self.clock);
        t.counter_add(clock, "service.segments", 1.0);
        if step.wrapped {
            t.counter_add(clock, "service.wraparounds", 1.0);
        }
        let d = &step.driver_io;
        t.counter_add(clock, "service.io.bytes_read", d.bytes_read);
        t.counter_add(clock, "service.io.seeks", d.seeks as f64);
        t.counter_add(clock, "service.cache.hits", d.cache.hits as f64);
        t.counter_add(clock, "service.cache.misses", d.cache.misses as f64);
        t.counter_add(clock, "service.cache.evictions", d.cache.evictions as f64);
        t.gauge_set(clock, "service.queue_depth", depth.0 as f64);
        t.gauge_set(clock, "service.inflight", depth.1 as f64);
        if let Some(c) = cache {
            let c = c.borrow();
            t.gauge_set(clock, "service.cache.resident_pages", c.len() as f64);
            t.gauge_set(clock, "service.cache.occupancy", c.occupancy());
        }
    }

    /// `seq`'s fate: `done` on a cursor whose I/O totals now read the given
    /// stats, or (`None`) refused at admission because its deadline expired
    /// while it was queued.
    fn settle(&mut self, seq: usize, done: Option<(QueryDone, &IoStats)>) {
        let (req, clock, reg) = (&self.requests[seq], self.clock, self.reg);
        let latency = clock - req.arrival_s;
        let (done, cursor_io) = done.unzip();
        let mut o = QueryOutcome::new(req, latency, latency, done.is_none());
        if let Some(done) = done {
            o.queue_wait_s = self.admitted_at[seq] - req.arrival_s;
            o.rows = done.rows;
            o.nrows = done.nrows;
            o.attach_seg = done.attach_seg;
            o.wrapped = done.wrapped;
            o.deadline_missed = self.deadline_s.is_some_and(|dl| latency > dl);
        }
        let t = &mut self.timeline;
        if o.rejected {
            reg.counter_add("query.sched.rejected_deadline", 1.0);
            t.counter_add(clock, "service.rejected", 1.0);
        } else {
            reg.counter_add("query.sched.completed", 1.0);
            reg.observe("query.sched.latency_s", latency);
            t.counter_add(clock, "service.completed", 1.0);
            t.observe(clock, "service.latency_s", latency);
            t.counter_add(clock, "service.rows", o.nrows as f64);
        }
        if o.deadline_missed && !o.rejected {
            reg.counter_add("query.sched.deadline_missed", 1.0);
            t.counter_add(clock, "service.deadline_missed", 1.0);
        }
        let at = self.quarantined_at_attach.remove(&seq);
        let touched = at
            .zip(cursor_io)
            .is_some_and(|(at, io)| io.recovery.quarantined_pages > at);
        self.flight.record(clock, flight_entry(seq, &o, touched));
        self.outcomes[seq] = Some(o);
        self.settled.push(seq);
    }

    /// The SLO table: per tenant, the requests submitted so far and the
    /// settled outcomes, walked in settle order, plus its share of the
    /// charged service time.
    fn slo_report(&self) -> SloReport {
        let mut tenants: BTreeMap<&str, TenantSlo> = BTreeMap::new();
        for req in &self.requests[..self.submitted] {
            tenants.entry(&req.tenant).or_default().submitted += 1;
        }
        for &seq in &self.settled {
            let Some(o) = &self.outcomes[seq] else {
                continue;
            };
            let slo = tenants.entry(&o.tenant).or_default();
            if o.rejected {
                slo.rejected += 1;
                continue;
            }
            slo.completed += 1;
            slo.latency.observe(o.latency_s);
            slo.queue_wait.observe(o.queue_wait_s);
            slo.deadline_missed += u64::from(o.deadline_missed);
        }
        let total: f64 = self.tenant_service.values().sum();
        let tenants: Vec<TenantSlo> = tenants
            .into_iter()
            .map(|(name, slo)| {
                let service_s = self.tenant_service.get(name).copied().unwrap_or(0.0);
                let share = if total > 0.0 { service_s / total } else { 0.0 };
                let tenant = name.to_string();
                TenantSlo {
                    tenant,
                    service_s,
                    share,
                    ..slo
                }
            })
            .collect();
        let xs: Vec<f64> = tenants.iter().map(|t| t.service_s).collect();
        SloReport {
            fairness: jain_fairness(&xs),
            tenants,
        }
    }

    /// Publish the status-so-far and a registry snapshot for scrapers.
    /// Copies already-computed values; never touches the clock. A run that
    /// failed with `error` says so and reads unhealthy until a later run on
    /// the same handle publishes again.
    fn publish(&self, monitor: Option<&MonitorHandle>, error: Option<&Error>) {
        let Some(monitor) = monitor else {
            return;
        };
        let mut status = status_doc(
            self.clock,
            self.depth,
            (self.segments, self.wraparounds),
            self.outcomes.iter().flatten(),
            (&self.slo_report(), &self.timeline, &self.flight),
        );
        if let Some(e) = error {
            status = status.set("error", e.to_string());
        }
        // Every write below replaces a whole field, so a guard poisoned by
        // a panicking reader still holds a consistent state.
        let mut state = monitor.lock().unwrap_or_else(PoisonError::into_inner);
        state.healthy = error.is_none();
        state.metrics = self.reg.snapshot();
        state.status = status;
    }

    /// Close the books on a run that charged `io`. The event loop stops
    /// only once no request is pending, queued or riding a cursor, so every
    /// slot is filled; one that is not fails the run.
    fn close(mut self, monitor: Option<&MonitorHandle>, io: IoStats) -> Result<ServiceReport> {
        if let Some(seq) = self.outcomes.iter().position(Option::is_none) {
            let e = Error::InvalidPlan(format!("service run ended with request {seq} unsettled"));
            self.publish(monitor, Some(&e));
            return Err(e);
        }
        self.depth = (0, 0);
        self.publish(monitor, None);
        let slo = self.slo_report();
        Ok(ServiceReport {
            makespan_s: self.clock,
            outcomes: self.outcomes.into_iter().flatten().collect(),
            io,
            segments: self.segments,
            wraparounds: self.wraparounds,
            observed: Observed {
                timeline: self.timeline,
                flight: self.flight,
                slo,
            },
        })
    }
}

/// The flight record of a settled outcome. A rejection is its own anomaly
/// class, so its record does not also read as a deadline miss.
fn flight_entry(seq: usize, o: &QueryOutcome, quarantine_touched: bool) -> FlightEntry {
    FlightEntry {
        seq: seq as u64,
        tenant: o.tenant.clone(),
        arrival_s: o.arrival_s,
        queue_wait_s: o.queue_wait_s,
        latency_s: o.latency_s,
        rows: o.nrows,
        deadline_missed: o.deadline_missed && !o.rejected,
        rejected: o.rejected,
        quarantine_touched,
    }
}

impl ServiceReport {
    /// Completed queries per modeled second.
    pub fn throughput(&self) -> f64 {
        let done = self.outcomes.iter().filter(|o| !o.rejected).count();
        per_second(done as u64, self.makespan_s)
    }

    /// The `q`-quantile (0..=1) of completed-query latency.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut lats: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| !o.rejected)
            .map(|o| o.latency_s)
            .collect();
        if lats.is_empty() {
            return 0.0;
        }
        lats.sort_by(f64::total_cmp);
        let idx = ((lats.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        lats[idx]
    }

    /// The final `/status`-shaped document for this report — what
    /// `rodb-top` renders offline — with the SLO table, timeline and flight
    /// dump.
    pub fn to_status_json(&self) -> Json {
        let o = &self.observed;
        status_doc(
            self.makespan_s,
            (0, 0),
            (self.segments, self.wraparounds),
            self.outcomes.iter(),
            (&o.slo, &o.timeline, &o.flight),
        )
    }
}

struct CursorState {
    cursor: SharedCursor,
    /// Accumulated modeled service seconds (fair-share key across cursors).
    service_s: f64,
}

/// The service entry point: submit requests, then [`QueryService::run`].
pub struct QueryService {
    hw: HardwareConfig,
    sys: SystemConfig,
    spec: ServiceSpec,
    requests: Vec<ServiceRequest>,
    reg: MetricsHandle,
    monitor: Option<MonitorHandle>,
}

impl QueryService {
    /// Build a service on a valid system configuration that carries a
    /// [`ServiceSpec`] (errors otherwise — an unset spec means the caller
    /// wants the bypassed single-query engine).
    pub fn new(hw: HardwareConfig, sys: SystemConfig) -> Result<QueryService> {
        sys.validate()?;
        let spec = sys.service.ok_or_else(|| {
            Error::InvalidConfig(
                "QueryService requires SystemConfig::service (ServiceSpec); without it, \
                 run queries directly — the service layer is bypassed"
                    .into(),
            )
        })?;
        Ok(QueryService {
            hw,
            sys,
            spec,
            requests: Vec::new(),
            reg: Registry::global().clone(),
            monitor: None,
        })
    }

    /// Route this service's metric emission through an owned [`Registry`]
    /// instead of the process-wide default — drivers that reconcile
    /// counters against reports (bench, fuzz) use this so parallel runs
    /// can never interleave drains.
    pub fn metrics(mut self, reg: MetricsHandle) -> QueryService {
        self.reg = reg;
        self
    }

    /// Publish rolling status + metrics snapshots into a monitor handle
    /// after every segment — what the `monitor`-feature HTTP endpoint and
    /// the `rodb-top` renderer read. Publishing copies already-computed
    /// values; it never touches the modeled clock.
    pub fn publish(mut self, monitor: MonitorHandle) -> QueryService {
        self.monitor = Some(monitor);
        self
    }

    /// Enqueue a request (order of submission breaks arrival-time ties).
    pub fn submit(&mut self, req: ServiceRequest) -> &mut QueryService {
        self.requests.push(req);
        self
    }

    /// Segment count for one cursor: the estimated full-pass disk time cut
    /// into `slice_s` quanta, clamped to `[1, MAX_SEGMENTS]`.
    fn segment_count(&self, spec: &ScanSpec, scale: f64) -> usize {
        let layout = match spec.layout {
            ScanLayout::Row => Layout::Row,
            _ => Layout::Column,
        };
        let bytes = spec.table.scan_bytes(layout, None).unwrap_or(0) as f64 * scale;
        let est_pass_s = bytes / self.hw.aggregate_disk_bw();
        ((est_pass_s / self.spec.slice_s).ceil() as usize).clamp(1, MAX_SEGMENTS)
    }

    /// Run every submitted request through shared cursors on the modeled
    /// clock. Results per query are bit-identical to each query's solo
    /// [`QueryBuilder::run_collect`]; the clock reflects shared I/O (one
    /// driver pass per cursor cycle) and per-query CPU. On `Err`, a
    /// published monitor reads unhealthy and its status carries the error.
    pub fn run(&mut self) -> Result<ServiceReport> {
        let requests = std::mem::take(&mut self.requests);
        let mut ledger = Ledger::new(&requests, &self.reg, &self.spec);
        match self.schedule(&mut ledger) {
            Ok(io) => ledger.close(self.monitor.as_ref(), io),
            Err(e) => {
                ledger.publish(self.monitor.as_ref(), Some(&e));
                Err(e)
            }
        }
    }

    /// The event loop: arrivals, admission, cursor choice and the clock.
    /// Every fact it establishes is handed to `ledger`; it returns the
    /// merged driver-pass I/O of all cursors.
    fn schedule(&self, ledger: &mut Ledger<'_>) -> Result<IoStats> {
        let requests = ledger.requests;
        if requests.is_empty() {
            return Err(Error::InvalidPlan("service run with no requests".into()));
        }
        // One shared page cache for all cursors when the config asks for
        // caching: residency persists across segments and queries.
        let cache: Option<SharedPageCache> = self.sys.cache.as_ref().map(shared_page_cache);
        // All riders of one clock must agree on the virtual-rows scale, and
        // every plan must be one a shared cursor answers exactly — checked
        // before any segment is scanned (a WOS tail would otherwise be
        // silently dropped: riders see ROS row ranges only).
        let scale = requests[0].query.row_scale();
        let mut plans = Vec::with_capacity(requests.len());
        for (seq, r) in requests.iter().enumerate() {
            if (r.query.row_scale() - scale).abs() > f64::EPSILON {
                return Err(Error::InvalidPlan(
                    "service requests must share one scale_to_rows setting".into(),
                ));
            }
            let plan = r.query.plan()?;
            plan.partitionable()?;
            plans.push(plan);
            ledger.submitted(seq);
        }

        // Arrival stream: (arrival, seq) ascending; pop() yields the
        // earliest.
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        pending.sort_by(|&a, &b| {
            let (ta, tb) = (requests[a].arrival_s, requests[b].arrival_s);
            tb.total_cmp(&ta).then(b.cmp(&a))
        });

        let mut cursors: Vec<CursorState> = Vec::new();
        let mut cursor_key: HashMap<(usize, u8), usize> = HashMap::new();
        let mut queue: Vec<usize> = Vec::new();
        // Queries riding a cursor: the service's in-flight count.
        let inflight = |cursors: &[CursorState]| -> usize {
            cursors.iter().map(|c| c.cursor.active_count()).sum()
        };

        loop {
            // 1. Ingest arrivals that have happened by now.
            while let Some(seq) = pending.pop_if(|&mut s| requests[s].arrival_s <= ledger.clock) {
                queue.push(seq);
            }

            // 2. Admit: fill free slots from the queue, the least-served
            // tenant first, then submission order. Expired-deadline
            // candidates are rejected (they do not consume a slot).
            while inflight(&cursors) < self.spec.max_inflight {
                let key = |&seq: &usize| {
                    let tsvc = ledger.tenant_service.get(&requests[seq].tenant);
                    (tsvc.copied().unwrap_or(0.0), seq)
                };
                let Some(best) = (0..queue.len()).min_by(|&a, &b| {
                    let ((ta, sa), (tb, sb)) = (key(&queue[a]), key(&queue[b]));
                    ta.total_cmp(&tb).then(sa.cmp(&sb))
                }) else {
                    break;
                };
                let seq = queue.remove(best);
                let req = &requests[seq];
                if self
                    .spec
                    .deadline_s
                    .is_some_and(|dl| ledger.clock - req.arrival_s > dl)
                {
                    ledger.settle(seq, None);
                    continue;
                }
                // Attach to (or create) the query's shared cursor.
                let plan = plans[seq].clone();
                let spec = &plan.scan;
                let key = (
                    std::sync::Arc::as_ptr(&spec.table) as usize,
                    spec.layout as u8,
                );
                let cidx = match cursor_key.get(&key) {
                    Some(&i) => i,
                    None => {
                        let segs = self.segment_count(spec, scale);
                        let cursor = SharedCursor::new(
                            spec.table.clone(),
                            spec.layout,
                            segs,
                            self.hw,
                            self.sys,
                            scale,
                            cache.clone(),
                        )?;
                        cursors.push(CursorState {
                            cursor,
                            service_s: 0.0,
                        });
                        cursor_key.insert(key, cursors.len() - 1);
                        cursors.len() - 1
                    }
                };
                let cursor = &mut cursors[cidx].cursor;
                let mid_scan = cursor.active_count() > 0 || cursor.pos() != 0;
                cursor.attach(CursorQuery {
                    token: seq,
                    plan,
                    collect: req.collect,
                })?;
                ledger.admitted(seq, mid_scan, &cursor.io_stats());
            }

            // 3. Run one segment of the least-served cursor that has work
            // (the fairness quantum across concurrently hot tables); with
            // nothing running, jump to the next arrival or finish.
            let Some(cidx) = (0..cursors.len())
                .filter(|&i| cursors[i].cursor.active_count() > 0)
                .min_by(|&a, &b| cursors[a].service_s.total_cmp(&cursors[b].service_s))
            else {
                match pending.last() {
                    Some(&seq) => {
                        ledger.clock = ledger.clock.max(requests[seq].arrival_s);
                        continue;
                    }
                    None => break,
                }
            };
            let riders: Vec<usize> = cursors[cidx].cursor.tokens().collect();
            let mut step = cursors[cidx].cursor.step()?;
            ledger.clock += step.elapsed_s;
            cursors[cidx].service_s += step.elapsed_s;
            let io = cursors[cidx].cursor.io_stats();

            // 4. Completions, then the segment itself (its depth gauges
            // read the queue and the pool after the finished riders left).
            for done in std::mem::take(&mut step.done) {
                ledger.settle(done.token, Some((done, &io)));
            }
            let depth = (queue.len(), inflight(&cursors));
            ledger.segment(&step, &riders, depth, cache.as_ref());
            ledger.publish(self.monitor.as_ref(), None);
        }

        let mut total_io = IoStats::default();
        for c in &cursors {
            total_io.merge(&c.cursor.io_stats());
        }
        Ok(total_io)
    }

    /// The naive comparator: the same requests executed query-at-a-time in
    /// arrival order on the single-query engine — each query pays its own
    /// full scan. The admission queue, deadlines and fairness are not
    /// modeled, so it keeps no books ([`Observed`] is empty); this is the
    /// baseline `bench_service` compares shared cursors against.
    pub fn run_query_at_a_time(&mut self) -> Result<ServiceReport> {
        let requests = std::mem::take(&mut self.requests);
        if requests.is_empty() {
            return Err(Error::InvalidPlan("service run with no requests".into()));
        }
        let mut order: Vec<(usize, &ServiceRequest)> = requests.iter().enumerate().collect();
        order.sort_by(|a, b| a.1.arrival_s.total_cmp(&b.1.arrival_s).then(a.0.cmp(&b.0)));
        let mut clock = 0.0f64;
        let mut total_io = IoStats::default();
        let mut outcomes: Vec<QueryOutcome> = (requests.iter())
            .map(|req| QueryOutcome::new(req, 0.0, 0.0, false))
            .collect();
        for (seq, req) in order {
            clock = clock.max(req.arrival_s);
            let res = if req.collect {
                req.query.run_collect()?
            } else {
                req.query.run()?
            };
            clock += res.report.elapsed_s;
            total_io.merge(&res.report.io);
            let o = &mut outcomes[seq];
            o.latency_s = clock - req.arrival_s;
            o.rows = res.rows;
            o.nrows = res.report.rows;
        }
        Ok(ServiceReport {
            makespan_s: clock,
            outcomes,
            observed: Observed::empty(self.spec.window_s),
            io: total_io,
            segments: 0,
            wraparounds: 0,
        })
    }
}
