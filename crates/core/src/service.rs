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

use rodb_engine::{CursorQuery, ScanLayout, SharedCursor, SharedCursorConfig};
use rodb_io::{shared_page_cache, IoStats, SharedPageCache};
use rodb_trace::{
    FlightEntry, FlightRecorder, Histogram, Json, MetricsHandle, MonitorHandle, QueryTrace,
    Registry, SpanKind, Timeline, Tracer, ROOT,
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
    /// Root span with one `sched` child per query (when tracing was on).
    pub trace: Option<QueryTrace>,
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
#[derive(Debug, Clone)]
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
    /// Windowed throughput / latency / cache / WAL-lag curves.
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

/// Per-tenant accumulators while the run is in motion.
#[derive(Debug, Default, Clone)]
struct TenantAcc {
    submitted: u64,
    completed: u64,
    rejected: u64,
    deadline_missed: u64,
    latency: Histogram,
    queue_wait: Histogram,
}

/// The live observability plane of one `run()`: created only when
/// `SystemConfig::observe` is set, and fed purely from values the event
/// loop already computes — it reads the modeled clock but never charges
/// it, so the simulation is bit-identical with the plane on or off.
struct Plane {
    timeline: Timeline,
    flight: FlightRecorder,
    tenants: BTreeMap<String, TenantAcc>,
    /// Per-cursor I/O totals at the previous segment boundary, for
    /// windowed deltas (bytes, cache hits) per segment.
    last_io: Vec<IoStats>,
    /// Cursor quarantine totals at each query's attach, to tag flight
    /// records that rode a cursor while it quarantined pages.
    quarantined_at_attach: HashMap<usize, u64>,
}

impl Plane {
    fn new(spec: ObserveSpec) -> Plane {
        Plane {
            timeline: Timeline::new(spec.window_s),
            flight: FlightRecorder::new(spec.window_s, spec.flight_k, spec.flight_reservoir),
            tenants: BTreeMap::new(),
            last_io: Vec::new(),
            quarantined_at_attach: HashMap::new(),
        }
    }

    fn tenant_mut(&mut self, tenant: &str) -> &mut TenantAcc {
        if !self.tenants.contains_key(tenant) {
            self.tenants
                .insert(tenant.to_string(), TenantAcc::default());
        }
        self.tenants.get_mut(tenant).unwrap()
    }

    /// Windowed per-segment deltas and depth gauges.
    #[allow(clippy::too_many_arguments)]
    fn on_segment(
        &mut self,
        clock: f64,
        cidx: usize,
        io: IoStats,
        wrapped: bool,
        queued: usize,
        inflight: usize,
        cache: Option<&SharedPageCache>,
        reg: &Registry,
    ) {
        self.timeline.counter_add(clock, "service.segments", 1.0);
        if wrapped {
            self.timeline.counter_add(clock, "service.wraparounds", 1.0);
        }
        if self.last_io.len() <= cidx {
            self.last_io.resize(cidx + 1, IoStats::default());
        }
        let prev = self.last_io[cidx];
        self.timeline.counter_add(
            clock,
            "service.io.bytes_read",
            io.bytes_read - prev.bytes_read,
        );
        self.timeline
            .counter_add(clock, "service.io.seeks", (io.seeks - prev.seeks) as f64);
        self.timeline.counter_add(
            clock,
            "service.cache.hits",
            (io.cache.hits - prev.cache.hits) as f64,
        );
        self.timeline.counter_add(
            clock,
            "service.cache.misses",
            (io.cache.misses - prev.cache.misses) as f64,
        );
        self.timeline.counter_add(
            clock,
            "service.cache.evictions",
            (io.cache.evictions - prev.cache.evictions) as f64,
        );
        self.last_io[cidx] = io;
        self.timeline
            .gauge_set(clock, "service.queue_depth", queued as f64);
        self.timeline
            .gauge_set(clock, "service.inflight", inflight as f64);
        if let Some(c) = cache {
            let c = c.borrow();
            self.timeline
                .gauge_set(clock, "service.cache.resident_pages", c.len() as f64);
            self.timeline
                .gauge_set(clock, "service.cache.occupancy", c.occupancy());
        }
        // Sample engine/ingest gauges (WAL lag, WOS size, scheduler depth)
        // into the timeline so their curves line up with the service's.
        for (name, v) in reg.gauges() {
            if name.starts_with("ingest.") || name.starts_with("sched.") {
                self.timeline.gauge_set(clock, &name, v);
            }
        }
    }

    /// The SLO table from the accumulated per-tenant facts plus the run's
    /// charged service-time shares.
    fn slo_report(&self, tenant_service: &BTreeMap<String, f64>) -> SloReport {
        let total: f64 = tenant_service.values().sum();
        let tenants: Vec<TenantSlo> = self
            .tenants
            .iter()
            .map(|(name, acc)| {
                let service_s = tenant_service.get(name).copied().unwrap_or(0.0);
                TenantSlo {
                    tenant: name.clone(),
                    submitted: acc.submitted,
                    completed: acc.completed,
                    rejected: acc.rejected,
                    deadline_missed: acc.deadline_missed,
                    service_s,
                    share: if total > 0.0 { service_s / total } else { 0.0 },
                    latency: acc.latency.clone(),
                    queue_wait: acc.queue_wait.clone(),
                }
            })
            .collect();
        let xs: Vec<f64> = tenants.iter().map(|t| t.service_s).collect();
        SloReport {
            fairness: jain_fairness(&xs),
            tenants,
        }
    }
}

/// The `/status` document: a service summary plus — when the plane is on —
/// the SLO table, timeline, and flight-recorder dump. Shared by the live
/// publisher and [`ServiceReport::to_status_json`].
#[allow(clippy::too_many_arguments)]
fn build_status(
    clock: f64,
    queued: usize,
    inflight: usize,
    completed: u64,
    rejected: u64,
    deadline_missed: u64,
    segments: u64,
    wraparounds: u64,
    plane: Option<&Plane>,
    tenant_service: &BTreeMap<String, f64>,
) -> Json {
    let mut doc = Json::obj().set(
        "service",
        Json::obj()
            .set("clock_s", clock)
            .set("completed", completed)
            .set("inflight", inflight as u64)
            .set("queued", queued as u64)
            .set("rejected", rejected)
            .set("deadline_missed", deadline_missed)
            .set("segments", segments)
            .set("wraparounds", wraparounds)
            .set(
                "throughput_per_s",
                if clock > 0.0 {
                    completed as f64 / clock
                } else {
                    0.0
                },
            ),
    );
    if let Some(p) = plane {
        let slo = p.slo_report(tenant_service);
        doc = doc
            .set("fairness", slo.fairness)
            .set(
                "tenants",
                slo.tenants
                    .iter()
                    .map(TenantSlo::to_json)
                    .collect::<Vec<_>>(),
            )
            .set("timeline", p.timeline.to_json())
            .set("flight", p.flight.to_json());
    }
    doc
}

impl ServiceReport {
    /// Completed queries per modeled second.
    pub fn throughput(&self) -> f64 {
        let done = self.outcomes.iter().filter(|o| !o.rejected).count();
        if self.makespan_s > 0.0 {
            done as f64 / self.makespan_s
        } else {
            0.0
        }
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
        let completed = self.outcomes.iter().filter(|o| !o.rejected).count() as u64;
        let rejected = self.outcomes.iter().filter(|o| o.rejected).count() as u64;
        let missed = self
            .outcomes
            .iter()
            .filter(|o| o.deadline_missed && !o.rejected)
            .count() as u64;
        let mut doc = Json::obj().set(
            "service",
            Json::obj()
                .set("clock_s", self.makespan_s)
                .set("completed", completed)
                .set("inflight", 0u64)
                .set("queued", 0u64)
                .set("rejected", rejected)
                .set("deadline_missed", missed)
                .set("segments", self.segments)
                .set("wraparounds", self.wraparounds)
                .set("throughput_per_s", self.throughput()),
        );
        if let Some(obs) = &self.observed {
            doc = doc
                .set("fairness", obs.slo.fairness)
                .set(
                    "tenants",
                    obs.slo
                        .tenants
                        .iter()
                        .map(TenantSlo::to_json)
                        .collect::<Vec<_>>(),
                )
                .set("timeline", obs.timeline.to_json())
                .set("flight", obs.flight.to_json());
        }
        doc
    }
}

struct Waiting {
    seq: usize,
    req: ServiceRequest,
}

struct Inflight {
    seq: usize,
    cursor: usize,
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
    trace: bool,
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
            trace: false,
            reg: Registry::global().clone(),
            monitor: None,
        })
    }

    /// Record per-query `sched` spans in a service-wide trace.
    pub fn trace(mut self, on: bool) -> QueryService {
        self.trace = on;
        self
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
    fn segment_count(&self, table: &rodb_storage::Table, layout: ScanLayout, scale: f64) -> usize {
        let bytes = match layout {
            ScanLayout::Row => table.row.as_ref().map(|r| r.byte_len()).unwrap_or(0),
            _ => table.col.as_ref().map(|c| c.byte_len()).unwrap_or(0),
        } as f64
            * scale;
        let est_pass_s = bytes / self.hw.aggregate_disk_bw();
        ((est_pass_s / self.spec.slice_s).ceil() as usize).clamp(1, MAX_SEGMENTS)
    }

    /// Run every submitted request through shared cursors on the modeled
    /// clock. Results per query are bit-identical to each query's solo
    /// [`QueryBuilder::run_collect`]; the clock reflects shared I/O (one
    /// driver pass per cursor cycle) and per-query CPU.
    pub fn run(&mut self) -> Result<ServiceReport> {
        let requests = std::mem::take(&mut self.requests);
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
        for r in &requests {
            if (r.query.row_scale() - scale).abs() > f64::EPSILON {
                return Err(Error::InvalidPlan(
                    "service requests must share one scale_to_rows setting".into(),
                ));
            }
            let plan = r.query.plan()?;
            plan.partitionable()?;
            plans.push(plan);
            self.reg.counter_add("query.sched.submitted", 1.0);
        }
        let tracer = self.trace.then(Tracer::new);
        // The observability plane exists only when configured; with
        // `observe: None` (the default) nothing below reads or writes it
        // and the run is bit-identical to a plane-less build.
        let mut plane = self.sys.observe.map(Plane::new);
        if let Some(p) = &mut plane {
            for r in &requests {
                p.tenant_mut(&r.tenant).submitted += 1;
                self.reg
                    .counter_add(&format!("query.tenant.{}.submitted", r.tenant), 1.0);
            }
        }
        // Live totals for status publishing (plain locals; never fed back
        // into scheduling decisions).
        let (mut completed_n, mut rejected_n, mut missed_n) = (0u64, 0u64, 0u64);

        // Arrival stream: (arrival, seq) ascending.
        let mut pending: Vec<Waiting> = requests
            .iter()
            .cloned()
            .enumerate()
            .map(|(seq, req)| Waiting { seq, req })
            .collect();
        pending.sort_by(|a, b| {
            a.req
                .arrival_s
                .total_cmp(&b.req.arrival_s)
                .then(a.seq.cmp(&b.seq))
        });
        pending.reverse(); // pop() yields earliest arrival

        let mut cursors: Vec<CursorState> = Vec::new();
        let mut cursor_key: HashMap<(usize, u8), usize> = HashMap::new();
        let mut queue: Vec<Waiting> = Vec::new();
        let mut inflight: Vec<Inflight> = Vec::new();
        // Ordered, so `slo_report` sums it in tenant-name order: a hash
        // map's iteration order moves `share` in the last ulp run to run.
        let mut tenant_service: BTreeMap<String, f64> = BTreeMap::new();
        let mut outcomes: Vec<Option<QueryOutcome>> = requests.iter().map(|_| None).collect();
        let mut admitted_at: Vec<f64> = vec![0.0; requests.len()];
        let mut clock = 0.0f64;
        let mut segments = 0u64;
        let mut wraparounds = 0u64;
        let mut total_io = IoStats::default();

        loop {
            // 1. Ingest arrivals that have happened by now.
            while pending.last().is_some_and(|w| w.req.arrival_s <= clock) {
                queue.push(pending.pop().unwrap());
            }

            // 2. Admission: fill free slots from the queue, best candidate
            // first. Expired-deadline candidates are rejected (they do not
            // consume a slot).
            while inflight.len() < self.spec.max_inflight && !queue.is_empty() {
                let best = (0..queue.len())
                    .min_by(|&a, &b| {
                        let key = |w: &Waiting| {
                            let tsvc = tenant_service.get(&w.req.tenant).copied().unwrap_or(0.0);
                            let prio = match self.spec.admission {
                                Admission::Fifo => 0u8,
                                Admission::Priority => w.req.priority,
                            };
                            (prio, tsvc, w.seq)
                        };
                        let (pa, ta, sa) = key(&queue[a]);
                        let (pb, tb, sb) = key(&queue[b]);
                        pa.cmp(&pb).then(ta.total_cmp(&tb)).then(sa.cmp(&sb))
                    })
                    .expect("queue is non-empty");
                let w = queue.remove(best);
                if let Some(deadline) = self.spec.deadline_s {
                    if clock - w.req.arrival_s > deadline {
                        self.reg.counter_add("query.sched.rejected_deadline", 1.0);
                        rejected_n += 1;
                        if let Some(p) = &mut plane {
                            p.tenant_mut(&w.req.tenant).rejected += 1;
                            p.timeline.counter_add(clock, "service.rejected", 1.0);
                            p.flight.record(
                                clock,
                                FlightEntry {
                                    seq: w.seq as u64,
                                    tenant: w.req.tenant.clone(),
                                    arrival_s: w.req.arrival_s,
                                    queue_wait_s: clock - w.req.arrival_s,
                                    latency_s: clock - w.req.arrival_s,
                                    rows: 0,
                                    deadline_missed: false,
                                    rejected: true,
                                    quarantine_touched: false,
                                },
                            );
                            self.reg.counter_add(
                                &format!("query.tenant.{}.rejected", w.req.tenant),
                                1.0,
                            );
                        }
                        outcomes[w.seq] = Some(QueryOutcome {
                            tenant: w.req.tenant.clone(),
                            priority: w.req.priority,
                            arrival_s: w.req.arrival_s,
                            queue_wait_s: clock - w.req.arrival_s,
                            latency_s: clock - w.req.arrival_s,
                            rows: Vec::new(),
                            nrows: 0,
                            attach_seg: 0,
                            wrapped: false,
                            deadline_missed: true,
                            rejected: true,
                        });
                        continue;
                    }
                }
                // Attach to (or create) the query's shared cursor.
                let plan = plans[w.seq].clone();
                let spec = &plan.scan;
                let key = (
                    std::sync::Arc::as_ptr(&spec.table) as usize,
                    spec.layout as u8,
                );
                let cidx = match cursor_key.get(&key) {
                    Some(&i) => i,
                    None => {
                        let segs = self.segment_count(&spec.table, spec.layout, scale);
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
                let mid_scan =
                    cursors[cidx].cursor.active_count() > 0 || cursors[cidx].cursor.pos() != 0;
                cursors[cidx].cursor.attach(CursorQuery {
                    token: w.seq,
                    plan,
                    collect: w.req.collect,
                })?;
                admitted_at[w.seq] = clock;
                let wait = clock - w.req.arrival_s;
                self.reg.counter_add("query.sched.admitted", 1.0);
                self.reg.observe("query.sched.queue_wait_s", wait);
                if mid_scan {
                    self.reg.counter_add("query.sched.attach_mid_scan", 1.0);
                }
                if let Some(p) = &mut plane {
                    p.timeline.counter_add(clock, "service.admitted", 1.0);
                    p.timeline.observe(clock, "service.queue_wait_s", wait);
                    p.quarantined_at_attach.insert(
                        w.seq,
                        cursors[cidx].cursor.io_stats().recovery.quarantined_pages,
                    );
                }
                inflight.push(Inflight {
                    seq: w.seq,
                    cursor: cidx,
                });
                // Keep the request's metadata for completion time.
                outcomes[w.seq] = Some(QueryOutcome {
                    tenant: w.req.tenant.clone(),
                    priority: w.req.priority,
                    arrival_s: w.req.arrival_s,
                    queue_wait_s: wait,
                    latency_s: 0.0,
                    rows: Vec::new(),
                    nrows: 0,
                    attach_seg: 0,
                    wrapped: false,
                    deadline_missed: false,
                    rejected: false,
                });
            }

            // 3. Nothing running: jump to the next arrival or finish.
            if inflight.is_empty() {
                match pending.last() {
                    Some(w) => {
                        clock = clock.max(w.req.arrival_s);
                        continue;
                    }
                    None => break,
                }
            }

            // 4. Run one segment of the least-served cursor that has work
            // (the fairness quantum across concurrently hot tables).
            let cidx = (0..cursors.len())
                .filter(|&i| cursors[i].cursor.active_count() > 0)
                .min_by(|&a, &b| cursors[a].service_s.total_cmp(&cursors[b].service_s))
                .expect("inflight implies an active cursor");
            let riders = cursors[cidx].cursor.active_count();
            let step = cursors[cidx].cursor.step()?;
            segments += 1;
            self.reg.counter_add("query.sched.segments", 1.0);
            if step.wrapped {
                wraparounds += 1;
                self.reg.counter_add("query.sched.wraparounds", 1.0);
            }
            clock += step.elapsed_s;
            cursors[cidx].service_s += step.elapsed_s;
            // Charge tenants their fair share of the slice.
            let share = step.elapsed_s / riders as f64;
            for f in inflight.iter().filter(|f| f.cursor == cidx) {
                if let Some(o) = &outcomes[f.seq] {
                    *tenant_service.entry(o.tenant.clone()).or_insert(0.0) += share;
                }
            }
            let cursor_quarantined = if plane.is_some() {
                cursors[cidx].cursor.io_stats().recovery.quarantined_pages
            } else {
                0
            };

            // 5. Completions.
            for d in step.done {
                inflight.retain(|f| f.seq != d.token);
                let o = outcomes[d.token]
                    .as_mut()
                    .expect("completed query was admitted");
                o.latency_s = clock - o.arrival_s;
                o.rows = d.rows;
                o.nrows = d.nrows;
                o.attach_seg = d.attach_seg;
                o.wrapped = d.wrapped;
                o.deadline_missed = self.spec.deadline_s.is_some_and(|dl| o.latency_s > dl);
                self.reg.counter_add("query.sched.completed", 1.0);
                self.reg.observe("query.sched.latency_s", o.latency_s);
                completed_n += 1;
                if o.deadline_missed {
                    self.reg.counter_add("query.sched.deadline_missed", 1.0);
                    missed_n += 1;
                }
                if let Some(p) = &mut plane {
                    let acc = p.tenant_mut(&o.tenant);
                    acc.completed += 1;
                    acc.latency.observe(o.latency_s);
                    acc.queue_wait.observe(o.queue_wait_s);
                    if o.deadline_missed {
                        acc.deadline_missed += 1;
                    }
                    p.timeline.counter_add(clock, "service.completed", 1.0);
                    p.timeline.observe(clock, "service.latency_s", o.latency_s);
                    p.timeline
                        .counter_add(clock, "service.rows", o.nrows as f64);
                    if o.deadline_missed {
                        p.timeline
                            .counter_add(clock, "service.deadline_missed", 1.0);
                    }
                    let touched = p
                        .quarantined_at_attach
                        .remove(&d.token)
                        .is_some_and(|at| cursor_quarantined > at);
                    p.flight.record(
                        clock,
                        FlightEntry {
                            seq: d.token as u64,
                            tenant: o.tenant.clone(),
                            arrival_s: o.arrival_s,
                            queue_wait_s: o.queue_wait_s,
                            latency_s: o.latency_s,
                            rows: o.nrows,
                            deadline_missed: o.deadline_missed,
                            rejected: false,
                            quarantine_touched: touched,
                        },
                    );
                    self.reg
                        .counter_add(&format!("query.tenant.{}.completed", o.tenant), 1.0);
                    self.reg
                        .observe(&format!("query.tenant.{}.latency_s", o.tenant), o.latency_s);
                    if o.deadline_missed {
                        self.reg.counter_add(
                            &format!("query.tenant.{}.deadline_missed", o.tenant),
                            1.0,
                        );
                    }
                }
                if let Some(tr) = &tracer {
                    let span = tr.span(ROOT, &format!("query[{}]", d.token), SpanKind::Sched);
                    tr.set(span, "queue_wait_s", o.queue_wait_s);
                    tr.set(span, "attach_seg", o.attach_seg as f64);
                    tr.set(span, "wrapped", if o.wrapped { 1.0 } else { 0.0 });
                    tr.set(span, "latency_s", o.latency_s);
                    tr.set(span, rodb_trace::keys::ROWS, o.nrows as f64);
                }
            }

            // 6. Observe the segment just run (windowed I/O deltas, depth
            // gauges) and publish a live snapshot for scrapers.
            if let Some(p) = &mut plane {
                p.on_segment(
                    clock,
                    cidx,
                    cursors[cidx].cursor.io_stats(),
                    step.wrapped,
                    queue.len(),
                    inflight.len(),
                    cache.as_ref(),
                    &self.reg,
                );
            }
            if let Some(m) = &self.monitor {
                let status = build_status(
                    clock,
                    queue.len(),
                    inflight.len(),
                    completed_n,
                    rejected_n,
                    missed_n,
                    segments,
                    wraparounds,
                    plane.as_ref(),
                    &tenant_service,
                );
                let mut state = m.lock().unwrap();
                state.healthy = true;
                state.metrics = self.reg.snapshot();
                state.status = status;
            }
        }

        for c in &cursors {
            total_io.merge(&c.cursor.io_stats());
        }
        let trace = tracer.map(|tr| {
            tr.set(ROOT, rodb_trace::keys::WALL_S, clock);
            tr.set(ROOT, "segments", segments as f64);
            tr.set(ROOT, "wraparounds", wraparounds as f64);
            tr.finish()
        });
        if let Some(m) = &self.monitor {
            let status = build_status(
                clock,
                0,
                0,
                completed_n,
                rejected_n,
                missed_n,
                segments,
                wraparounds,
                plane.as_ref(),
                &tenant_service,
            );
            let mut state = m.lock().unwrap();
            state.healthy = true;
            state.metrics = self.reg.snapshot();
            state.status = status;
        }
        let observed = plane.map(|p| {
            let slo = p.slo_report(&tenant_service);
            Observed {
                timeline: p.timeline,
                flight: p.flight,
                slo,
            }
        });
        Ok(ServiceReport {
            makespan_s: clock,
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every request resolves to an outcome"))
                .collect(),
            io: total_io,
            segments,
            wraparounds,
            trace,
            observed,
        })
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
            outcomes[seq] = Some(QueryOutcome {
                tenant: req.tenant.clone(),
                priority: req.priority,
                arrival_s: req.arrival_s,
                queue_wait_s: 0.0,
                latency_s: clock - req.arrival_s,
                rows: res.rows,
                nrows: res.report.rows,
                attach_seg: 0,
                wrapped: false,
                deadline_missed: false,
                rejected: false,
            });
        }
        Ok(ServiceReport {
            makespan_s: clock,
            outcomes: outcomes.into_iter().map(|o| o.unwrap()).collect(),
            observed: None,
            io: total_io,
            segments: 0,
            wraparounds: 0,
            trace: None,
        })
    }
}
