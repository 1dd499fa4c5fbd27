//! Integration locks for the service's books: every run keeps them,
//! timelines reconcile exactly with the final [`ServiceReport`], the flight
//! recorder provably retains the 4 slowest plus every deadline-missed query
//! per window, tenant SLO quantiles match a sorted-Vec oracle, the SLO
//! report is a pure function of the schedule, and the Prometheus exposition
//! of a service-owned registry validates and agrees with the outcome counts.

use std::sync::Arc;

use rodb_core::{QueryBuilder, QueryService, ServiceRequest};
use rodb_engine::{CmpOp, ScanLayout};
use rodb_storage::{BuildLayouts, Table, TableBuilder};
use rodb_trace::{check_exposition, prometheus, render_top, Registry};
use rodb_types::{Column, HardwareConfig, Schema, ServiceSpec, SystemConfig, Value};

fn table(n: usize) -> Arc<Table> {
    let s = Arc::new(
        Schema::new(vec![
            Column::int("k"),
            Column::int("v"),
            Column::int("w"),
            Column::int("f3"),
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
        ])
        .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

/// A staggered multi-tenant workload: enough queries across enough arrival
/// spread that the timeline spans several windows.
fn workload(t: &Arc<Table>, hw: HardwareConfig, s: SystemConfig) -> Vec<ServiceRequest> {
    let q = |sel: &[usize]| {
        QueryBuilder::new(t.clone(), hw, s)
            .layout(ScanLayout::Column)
            .scale_to_rows(20_000_000)
            .select_indices(sel)
    };
    let tenants = ["a", "b", "a", "c", "b", "a", "c", "b"];
    (0..8)
        .map(|i| {
            let mut b = q(&[i % 3, (i + 1) % 3]);
            if i % 2 == 0 {
                b = b.filter("v", CmpOp::Lt, 2_000 + 500 * i as i32).unwrap();
            }
            ServiceRequest::new(b).at(0.4 * i as f64).tenant(tenants[i])
        })
        .collect()
}

fn sys(spec: ServiceSpec) -> SystemConfig {
    SystemConfig {
        service: Some(spec),
        ..SystemConfig::default()
    }
}

fn run(t: &Arc<Table>, spec: ServiceSpec) -> rodb_core::ServiceReport {
    let hw = HardwareConfig::default();
    let s = sys(spec);
    let mut svc = QueryService::new(hw, s)
        .unwrap()
        .metrics(Registry::handle());
    for r in workload(t, hw, s) {
        svc.submit(r);
    }
    svc.run().unwrap()
}

/// Exact nearest-rank quantile over a value list — the oracle the plane's
/// exact-mode histograms must reproduce bit-for-bit.
fn oracle_q(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx]
}

/// A service spec that never mentions a window still keeps the books: the
/// SLO table counts its outcomes, and `/status` carries the tenants, the
/// timeline and the flight recorder.
#[test]
fn every_run_keeps_its_books() {
    let t = table(6_000);
    let report = run(&t, ServiceSpec::new(3).with_slice(0.05));
    let slo = &report.observed.slo;
    let submitted: u64 = slo.tenants.iter().map(|ts| ts.submitted).sum();
    let completed: u64 = slo.tenants.iter().map(|ts| ts.completed).sum();
    let rejected: u64 = slo.tenants.iter().map(|ts| ts.rejected).sum();
    let done = report.outcomes.iter().filter(|o| !o.rejected).count() as u64;
    assert_eq!(submitted, report.outcomes.len() as u64);
    assert_eq!((completed, rejected), (done, submitted - done));
    assert!(report.observed.timeline.len() > 1, "one window per 0.5 s");

    let status = report.to_status_json();
    for key in ["tenants", "timeline", "flight"] {
        assert!(status.get(key).is_some(), "/status lacks {key}");
    }
}

#[test]
fn timeline_reconciles_with_final_report() {
    let t = table(6_000);
    let report = run(&t, ServiceSpec::new(2).with_slice(0.05));
    let obs = &report.observed;

    let completed = report.outcomes.iter().filter(|o| !o.rejected).count();
    let rejected = report.outcomes.len() - completed;
    assert_eq!(
        obs.timeline.counter_total("service.completed") as usize,
        completed
    );
    assert_eq!(
        obs.timeline.counter_total("service.rejected") as usize,
        rejected
    );
    assert_eq!(
        obs.timeline.counter_total("service.segments") as u64,
        report.segments
    );

    // The latency histogram aggregated across windows holds exactly the
    // completed latencies; exact-mode quantiles match the Vec oracle.
    let lat = obs.timeline.histogram_total("service.latency_s");
    assert_eq!(lat.count(), completed as u64);
    let latencies: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| !o.rejected)
        .map(|o| o.latency_s)
        .collect();
    assert!(lat.is_exact());
    for q in [0.5, 0.9, 0.95, 0.99] {
        assert_eq!(
            lat.quantile(q).to_bits(),
            oracle_q(&latencies, q).to_bits(),
            "latency p{q}"
        );
    }
    let sum: f64 = latencies.iter().sum();
    assert!((lat.sum() - sum).abs() <= 1e-9 * sum.abs());

    // Every completion landed in the window of its completion time.
    for o in report.outcomes.iter().filter(|o| !o.rejected) {
        let w = obs.timeline.window_of(o.arrival_s + o.latency_s);
        let win = obs.timeline.window(w).expect("completion window exists");
        assert!(win.counter("service.completed") >= 1.0);
    }

    // Timelines serialize with per-window bounds.
    let json = obs.timeline.to_json();
    let windows = json.get("windows").and_then(|w| w.as_arr()).unwrap();
    assert_eq!(windows.len(), obs.timeline.len());
}

#[test]
fn flight_recorder_keeps_slowest_and_every_miss() {
    let t = table(6_000);
    // All eight ride one cursor, finishing 26–31 modeled seconds after
    // arrival: the deadline falls among those latencies, so three miss it
    // and five do not, and one window holds every completion — more
    // ordinary ones than the 4 the recorder keeps, so "slowest" is a real
    // subset.
    let spec = ServiceSpec::new(8)
        .with_slice(0.05)
        .with_deadline(30.5)
        .with_window(40.0);
    let report = run(&t, spec);
    let obs = &report.observed;
    let flight = &obs.flight;

    let missed: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.deadline_missed && !o.rejected)
        .collect();
    assert!(
        !missed.is_empty(),
        "workload must produce deadline misses to test retention"
    );
    // Every deadline-missed query is retained as an anomaly in its
    // completion window, regardless of how slow it was.
    for o in &missed {
        let w = flight.window_of(o.arrival_s + o.latency_s);
        assert!(
            flight
                .anomalies(w)
                .iter()
                .any(|e| e.latency_s.to_bits() == o.latency_s.to_bits()
                    && e.tenant == o.tenant
                    && e.deadline_missed),
            "missed query (tenant {}, latency {:.3}) absent from window {}",
            o.tenant,
            o.latency_s,
            w
        );
    }

    // Per window, the retained "slowest" list is exactly the top 4 of the
    // non-anomalous completions that landed there.
    let mut crowded = false;
    for w in flight.window_indices() {
        let slow = flight.slowest(w);
        let mut normal: Vec<f64> = report
            .outcomes
            .iter()
            .filter(|o| !o.rejected && !o.deadline_missed)
            .filter(|o| flight.window_of(o.arrival_s + o.latency_s) == w)
            .map(|o| o.latency_s)
            .collect();
        crowded |= normal.len() > 4;
        normal.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let expect: Vec<u64> = normal.iter().take(4).map(|l| l.to_bits()).collect();
        let got: Vec<u64> = slow.iter().map(|e| e.latency_s.to_bits()).collect();
        assert_eq!(got, expect, "window {w} slowest set mismatch");
    }
    assert!(crowded, "no window held more than 4 ordinary completions");

    // `recorded` counts every terminal query; `retained` is deduplicated.
    assert_eq!(flight.recorded(), report.outcomes.len() as u64);
    assert!(flight.retained().len() <= report.outcomes.len());
}

#[test]
fn tenant_slo_counts_and_quantiles_match_oracle() {
    let t = table(6_000);
    let report = run(&t, ServiceSpec::new(2).with_slice(0.05));
    let obs = &report.observed;
    let slo = &obs.slo;

    let mut tenants: Vec<&str> = report.outcomes.iter().map(|o| o.tenant.as_str()).collect();
    tenants.sort_unstable();
    tenants.dedup();
    assert_eq!(
        slo.tenants
            .iter()
            .map(|t| t.tenant.as_str())
            .collect::<Vec<_>>(),
        tenants,
        "SLO report covers exactly the observed tenants, sorted"
    );

    let mut share_sum = 0.0;
    for ts in &slo.tenants {
        let theirs: Vec<&rodb_core::QueryOutcome> = report
            .outcomes
            .iter()
            .filter(|o| o.tenant == ts.tenant)
            .collect();
        let completed: Vec<f64> = theirs
            .iter()
            .filter(|o| !o.rejected)
            .map(|o| o.latency_s)
            .collect();
        assert_eq!(ts.submitted, theirs.len() as u64);
        assert_eq!(ts.completed, completed.len() as u64);
        assert_eq!(
            ts.rejected,
            theirs.iter().filter(|o| o.rejected).count() as u64
        );
        assert_eq!(
            ts.deadline_missed,
            theirs
                .iter()
                .filter(|o| o.deadline_missed && !o.rejected)
                .count() as u64
        );
        assert_eq!(ts.latency.count(), completed.len() as u64);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                ts.latency.quantile(q).to_bits(),
                oracle_q(&completed, q).to_bits(),
                "tenant {} latency p{q}",
                ts.tenant
            );
        }
        share_sum += ts.share;
    }
    // Shares partition total service time; Jain's index lands in (0, 1].
    assert!((share_sum - 1.0).abs() < 1e-9);
    assert!(slo.fairness > 0.0 && slo.fairness <= 1.0 + 1e-12);

    // The status document surfaces the same numbers.
    let status = report.to_status_json();
    let svc = status.get("service").unwrap();
    assert_eq!(
        svc.get("completed").and_then(|j| j.as_f64()).unwrap() as usize,
        report.outcomes.iter().filter(|o| !o.rejected).count()
    );
    assert!(status.get("fairness").and_then(|j| j.as_f64()).is_some());
    assert!(status.get("tenants").is_some());
    // And the offline renderer accepts it.
    let top = render_top(&status);
    assert!(top.contains("rodb-top"));
    assert!(top.contains("TENANT"));
    assert!(top.contains("fairness"));
}

/// Every value in the SLO report is on the modeled clock, so the same
/// schedule must serialize to the same bytes on every run. `share` divides
/// by the sum of the per-tenant service times; eight tenants make a sum
/// taken in hash-map iteration order move in the last ulp run to run.
#[test]
fn slo_report_is_byte_identical_across_runs() {
    let t = table(6_000);
    let hw = HardwareConfig::default();
    let s = sys(ServiceSpec::new(2).with_slice(0.05));
    let slo_bytes = || {
        let mut svc = QueryService::new(hw, s)
            .unwrap()
            .metrics(Registry::handle());
        for (i, r) in workload(&t, hw, s).into_iter().enumerate() {
            svc.submit(r.tenant(format!("t{i}")));
        }
        let report = svc.run().unwrap();
        report.observed.slo.to_json().compact()
    };
    let first = slo_bytes();
    assert_eq!(first.matches("\"share\"").count(), 8);
    let differing = (1..16).filter(|_| slo_bytes() != first).count();
    assert_eq!(differing, 0, "of 15 re-runs of one schedule");
}

#[test]
fn owned_registry_exposition_validates_and_reconciles() {
    let t = table(6_000);
    let hw = HardwareConfig::default();
    let s = sys(ServiceSpec::new(2).with_slice(0.05));
    let reg = Registry::handle();
    let mut svc = QueryService::new(hw, s).unwrap().metrics(reg.clone());
    for r in workload(&t, hw, s) {
        svc.submit(r);
    }
    let report = svc.run().unwrap();

    let snap = reg.snapshot();
    let text = prometheus(&snap);
    check_exposition(&text).unwrap_or_else(|e| panic!("bad exposition: {e}\n{text}"));

    // The scheduler-completions counter in the registry agrees with the
    // final report, and the SLO table's per-tenant counts sum to the same
    // total.
    let completed = report.outcomes.iter().filter(|o| !o.rejected).count() as f64;
    assert_eq!(reg.counter("query.sched.completed"), completed);
    let tenants = &report.observed.slo.tenants;
    let names: Vec<&str> = tenants.iter().map(|ts| ts.tenant.as_str()).collect();
    assert_eq!(names, ["a", "b", "c"]);
    let tenant_sum: u64 = tenants.iter().map(|ts| ts.completed).sum();
    assert_eq!(tenant_sum as f64, completed);
    assert!(text.contains("rodb_query_sched_completed"));

    // Draining zeroes the registry without disturbing the report.
    let drained = reg.drain();
    assert!(drained.get("counters").is_some());
    assert_eq!(reg.counter("query.sched.completed"), 0.0);
    assert_eq!(report.outcomes.len(), 8);
}

/// A run's timeline holds what the run observed, whichever registry its
/// counters go to. The process-wide default registry also carries gauges
/// that other code writes (the worker pool's `sched.*`, an ingest store's
/// `ingest.*`), and none of them belongs in the timeline.
#[test]
fn the_timeline_is_the_same_under_the_default_and_an_owned_registry() {
    let t = table(6_000);
    let hw = HardwareConfig::default();
    let s = sys(ServiceSpec::new(2).with_slice(0.05));
    let timeline = |owned: bool| {
        let mut svc = QueryService::new(hw, s).unwrap();
        if owned {
            svc = svc.metrics(Registry::handle());
        }
        for r in workload(&t, hw, s) {
            svc.submit(r);
        }
        let report = svc.run().unwrap();
        report.observed.timeline.to_json().compact()
    };
    assert_eq!(timeline(false), timeline(true));
}
