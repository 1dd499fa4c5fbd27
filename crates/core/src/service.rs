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
//! `max_inflight` under the configured [`rodb_types::Admission`]
//! discipline with tenant fairness, (3) runs one segment of the
//! least-served cursor and advances the clock by its modeled cost.
//! Late-arriving queries attach to a cursor mid-scan and complete their
//! missed prefix after the cursor wraps around; results are reassembled in
//! table order, so every query's rows are bit-identical to its solo run.
//!
//! When [`SystemConfig::service`](rodb_types::SystemConfig) is `None` the
//! service layer does not exist: [`crate::QueryBuilder::run`] takes the
//! ordinary single-query engine paths untouched.

use std::collections::{BTreeMap, HashMap};

use rodb_engine::{
    CursorQuery, QueryDone, ScanLayout, ScanSpec, SegmentStep, SharedCursor, SharedCursorConfig,
};
use rodb_io::{shared_page_cache, IoStats, SharedPageCache};
use rodb_storage::Layout;
use rodb_trace::{
    FlightEntry, FlightRecorder, Histogram, Json, MetricsHandle, MonitorHandle, Registry, Timeline,
};
use rodb_types::{
    Admission, Error, HardwareConfig, ObserveSpec, Result, ServiceSpec, SystemConfig, Value,
};

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
    /// Priority class, lower = more urgent (only consulted under
    /// [`Admission::Priority`]).
    pub priority: u8,
    /// Materialize result rows in the outcome (on by default).
    pub collect: bool,
}

impl ServiceRequest {
    pub fn new(query: QueryBuilder) -> ServiceRequest {
        ServiceRequest {
            query,
            arrival_s: 0.0,
            tenant: "default".to_string(),
            priority: 0,
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

    pub fn priority(mut self, p: u8) -> ServiceRequest {
        self.priority = p;
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
    pub priority: u8,
    pub arrival_s: f64,
    /// Seconds spent in the admission queue (0 for rejected queries —
    /// their whole life was queue wait; see `rejected`).
    pub queue_wait_s: f64,
    /// Arrival → completion on the modeled clock (for rejected queries:
    /// arrival → rejection).
    pub latency_s: f64,
    pub rows: Vec<Vec<Value>>,
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
            priority: req.priority,
            arrival_s: req.arrival_s,
            queue_wait_s,
            latency_s,
            rows: Vec::new(),
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
    /// What the observability plane captured (when
    /// [`SystemConfig::observe`](rodb_types::SystemConfig) was set; `None`
    /// — the default — leaves every other field bit-identical to a
    /// plane-less run).
    pub observed: Option<Observed>,
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

    /// Admission rejections per submitted query.
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

/// Everything the observability plane captured in one service run.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Windowed throughput / latency / I/O / cache curves.
    pub timeline: Timeline,
    /// Tail-based retention: K slowest + all anomalous queries per window.
    pub flight: FlightRecorder,
    /// Per-tenant SLO accounting and the fairness index.
    pub slo: SloReport,
}

impl Observed {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("timeline", self.timeline.to_json())
            .set("flight", self.flight.to_json())
            .set("slo", self.slo.to_json())
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

/// The live observability plane of one `run()`: created only when
/// `SystemConfig::observe` is set, and fed purely from values the event
/// loop already computes — it reads the modeled clock but never charges
/// it, so the simulation is bit-identical with the plane on or off.
struct Plane {
    timeline: Timeline,
    flight: FlightRecorder,
    /// Cursor quarantine totals at each query's attach, to tag flight
    /// records that rode a cursor while it quarantined pages.
    quarantined_at_attach: HashMap<usize, u64>,
}

impl Plane {
    fn new(spec: ObserveSpec) -> Plane {
        Plane {
            timeline: Timeline::new(spec.window_s),
            flight: FlightRecorder::new(spec.window_s, spec.flight_k, spec.flight_reservoir),
            quarantined_at_attach: HashMap::new(),
        }
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
/// outcomes plus — when the run is observed — the SLO table, timeline and
/// flight-recorder dump. The one builder behind the live publisher and
/// [`ServiceReport::to_status_json`].
fn status_doc<'a>(
    clock: f64,
    (queued, inflight): (usize, usize),
    (segments, wraparounds): (u64, u64),
    outcomes: impl Iterator<Item = &'a QueryOutcome>,
    observed: Option<(&SloReport, &Timeline, &FlightRecorder)>,
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
    let mut doc = Json::obj().set(
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
    );
    if let Some((slo, timeline, flight)) = observed {
        let tenants: Vec<Json> = slo.tenants.iter().map(TenantSlo::to_json).collect();
        doc = doc
            .set("fairness", slo.fairness)
            .set("tenants", tenants)
            .set("timeline", timeline.to_json())
            .set("flight", flight.to_json());
    }
    doc
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
    /// Exists only when configured; with `observe: None` (the default)
    /// nothing reads or writes it and the run is bit-identical.
    plane: Option<Plane>,
}

impl Ledger<'_> {
    fn submitted(&mut self, seq: usize) {
        self.submitted = seq + 1;
        self.reg.counter_add("query.sched.submitted", 1.0);
        if self.plane.is_some() {
            let tenant = &self.requests[seq].tenant;
            self.reg.counter_add(&tenant_key(tenant, "submitted"), 1.0);
        }
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
        if let Some(p) = &mut self.plane {
            p.timeline.counter_add(self.clock, "service.admitted", 1.0);
            p.timeline.observe(self.clock, "service.queue_wait_s", wait);
            p.quarantined_at_attach
                .insert(seq, cursor_io.recovery.quarantined_pages);
        }
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
        let Some(p) = &mut self.plane else {
            return;
        };
        let (t, clock) = (&mut p.timeline, self.clock);
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
        let (tenant, missed) = (o.tenant.as_str(), o.deadline_missed && !o.rejected);
        if o.rejected {
            reg.counter_add("query.sched.rejected_deadline", 1.0);
        } else {
            reg.counter_add("query.sched.completed", 1.0);
            reg.observe("query.sched.latency_s", latency);
        }
        if missed {
            reg.counter_add("query.sched.deadline_missed", 1.0);
        }
        if let Some(p) = &mut self.plane {
            let t = &mut p.timeline;
            if o.rejected {
                t.counter_add(clock, "service.rejected", 1.0);
                reg.counter_add(&tenant_key(tenant, "rejected"), 1.0);
            } else {
                t.counter_add(clock, "service.completed", 1.0);
                t.observe(clock, "service.latency_s", latency);
                t.counter_add(clock, "service.rows", o.nrows as f64);
                reg.counter_add(&tenant_key(tenant, "completed"), 1.0);
                reg.observe(&tenant_key(tenant, "latency_s"), latency);
            }
            if missed {
                t.counter_add(clock, "service.deadline_missed", 1.0);
                reg.counter_add(&tenant_key(tenant, "deadline_missed"), 1.0);
            }
            let at = p.quarantined_at_attach.remove(&seq);
            let touched = at
                .zip(cursor_io)
                .is_some_and(|(at, io)| io.recovery.quarantined_pages > at);
            p.flight.record(clock, flight_entry(seq, &o, touched));
        }
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
        let plane = self.plane.as_ref();
        let observed = plane.map(|p| (self.slo_report(), p));
        let mut status = status_doc(
            self.clock,
            self.depth,
            (self.segments, self.wraparounds),
            self.outcomes.iter().flatten(),
            observed
                .as_ref()
                .map(|(slo, p)| (slo, &p.timeline, &p.flight)),
        );
        if let Some(e) = error {
            status = status.set("error", e.to_string());
        }
        let mut state = monitor
            .lock()
            .expect("no monitor reader panics holding the lock");
        state.healthy = error.is_none();
        state.metrics = self.reg.snapshot();
        state.status = status;
    }

    /// Close the books on a run that charged `io`.
    fn close(mut self, monitor: Option<&MonitorHandle>, io: IoStats) -> ServiceReport {
        self.depth = (0, 0);
        self.publish(monitor, None);
        let slo = self.plane.is_some().then(|| self.slo_report());
        let observed = self.plane.zip(slo).map(|(p, slo)| Observed {
            slo,
            timeline: p.timeline,
            flight: p.flight,
        });
        ServiceReport {
            makespan_s: self.clock,
            outcomes: self
                .outcomes
                .into_iter()
                .map(|o| o.expect("every request resolves to an outcome"))
                .collect(),
            io,
            segments: self.segments,
            wraparounds: self.wraparounds,
            observed,
        }
    }
}

/// Registry name of a per-tenant fact (kept only while the run is observed).
fn tenant_key(tenant: &str, fact: &str) -> String {
    format!("query.tenant.{tenant}.{fact}")
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
    /// `rodb-top` renders offline and the bench bins write alongside their
    /// summaries. Includes the SLO table / timeline / flight dump when the
    /// run was observed.
    pub fn to_status_json(&self) -> Json {
        status_doc(
            self.makespan_s,
            (0, 0),
            (self.segments, self.wraparounds),
            self.outcomes.iter(),
            self.observed
                .as_ref()
                .map(|o| (&o.slo, &o.timeline, &o.flight)),
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
    /// Build a service on a system configuration that carries a
    /// [`ServiceSpec`] (errors otherwise — an unset spec means the caller
    /// wants the bypassed single-query engine).
    pub fn new(hw: HardwareConfig, sys: SystemConfig) -> Result<QueryService> {
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
        let mut ledger = Ledger {
            requests: &requests,
            reg: &self.reg,
            deadline_s: self.spec.deadline_s,
            clock: 0.0,
            submitted: 0,
            admitted_at: vec![0.0; requests.len()],
            outcomes: requests.iter().map(|_| None).collect(),
            settled: Vec::new(),
            tenant_service: BTreeMap::new(),
            segments: 0,
            wraparounds: 0,
            depth: (0, 0),
            plane: self.sys.observe.map(Plane::new),
        };
        match self.schedule(&mut ledger) {
            Ok(io) => Ok(ledger.close(self.monitor.as_ref(), io)),
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
        let workers = self.sys.threads.max(1);
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

            // 2. Admission: fill free slots from the queue, best candidate
            // first. Expired-deadline candidates are rejected (they do not
            // consume a slot).
            while inflight(&cursors) < self.spec.max_inflight && !queue.is_empty() {
                let key = |&seq: &usize| {
                    let req = &requests[seq];
                    let tsvc = ledger.tenant_service.get(&req.tenant).copied();
                    let prio = match self.spec.admission {
                        Admission::Fifo => 0u8,
                        Admission::Priority => req.priority,
                    };
                    (prio, tsvc.unwrap_or(0.0), seq)
                };
                let best = (0..queue.len())
                    .min_by(|&a, &b| {
                        let ((pa, ta, sa), (pb, tb, sb)) = (key(&queue[a]), key(&queue[b]));
                        pa.cmp(&pb).then(ta.total_cmp(&tb)).then(sa.cmp(&sb))
                    })
                    .expect("queue is non-empty");
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
                            SharedCursorConfig {
                                segments: segs,
                                workers,
                            },
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
    /// full scan. Admission, deadlines and fairness are not modeled; this
    /// is the baseline `bench_service` compares shared cursors against.
    pub fn run_query_at_a_time(&mut self) -> Result<ServiceReport> {
        let requests = std::mem::take(&mut self.requests);
        if requests.is_empty() {
            return Err(Error::InvalidPlan("service run with no requests".into()));
        }
        let mut order: Vec<(usize, &ServiceRequest)> = requests.iter().enumerate().collect();
        order.sort_by(|a, b| a.1.arrival_s.total_cmp(&b.1.arrival_s).then(a.0.cmp(&b.0)));
        let mut clock = 0.0f64;
        let mut total_io = IoStats::default();
        let mut outcomes: Vec<Option<QueryOutcome>> = requests.iter().map(|_| None).collect();
        for (seq, req) in order {
            clock = clock.max(req.arrival_s);
            let res = if req.collect {
                req.query.run_collect()?
            } else {
                req.query.run()?
            };
            clock += res.report.elapsed_s;
            total_io.merge(&res.report.io);
            let mut o = QueryOutcome::new(req, 0.0, clock - req.arrival_s, false);
            o.rows = res.rows;
            o.nrows = res.report.rows;
            outcomes[seq] = Some(o);
        }
        Ok(ServiceReport {
            makespan_s: clock,
            outcomes: outcomes.into_iter().map(|o| o.unwrap()).collect(),
            observed: None,
            io: total_io,
            segments: 0,
            wraparounds: 0,
        })
    }
}
