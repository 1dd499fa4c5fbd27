//! One accounting spine: every counter is named once, every service fact is
//! recorded once.
//!
//! (i) The five accounted structs are declared through one field table each;
//! the table round-trips, its names are unique, `merge` and `delta` invert
//! each other and `to_json` carries exactly the table's names. (ii) A traced
//! query's root span carries every table field of `report.io` and
//! `report.cpu`, bit for bit — the key list is *looped from the table*, so a
//! field added to a struct is covered here with no edit
//! (`crates/core/tests/trace_reconciliation.rs` keeps the hand-written list
//! as the independent oracle). (iii) Everything the service reports — the
//! published `/status`, the registry, the timeline — agrees with
//! `report.outcomes`, the one ledger they are all read off.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::Arc;

use rodb::cpu::{CpuBreakdown, CpuCounters};
use rodb::io::{CacheStats, IoStats, RecoveryStats};
use rodb::prelude::*;
use rodb::trace::{monitor_handle, Field, Keys, Registry};
use rodb::types::CacheSpec;

/// A sample with a distinct integer in every leaf, starting after `base`.
fn sample<T: Field>(base: u32) -> T {
    let mut i = base;
    T::from_values(|| {
        i += 1;
        f64::from(i)
    })
}

/// The field-table laws for one struct. `total` is the derived JSON key the
/// struct adds beside its fields, if any.
fn table_laws<T: Field + Debug>(what: &str, total: Option<&str>) {
    let keys = Keys::<T>::new("", "");
    let names: BTreeSet<&str> = keys.names().iter().map(String::as_str).collect();
    assert!(!names.is_empty(), "{what}: empty table");
    assert_eq!(names.len(), keys.names().len(), "{what}: duplicate name");

    // build-from-names ∘ visit is the identity.
    let a: T = sample(0);
    let mut by_name = BTreeMap::new();
    keys.write(&a, |k, v| {
        by_name.insert(k.to_string(), v);
    });
    let distinct: BTreeSet<u64> = by_name.values().map(|v| v.to_bits()).collect();
    assert_eq!(distinct.len(), names.len(), "{what}: sample not distinct");
    assert_eq!(keys.read(|k| by_name[k]), a, "{what}: read ∘ write");

    // merge and delta invert each other.
    let b: T = sample(100);
    let mut sum = a;
    sum.merge(&b);
    assert_eq!(sum.delta(&a), b, "{what}: (a + b) - a");
    assert_eq!(sum.delta(&b), a, "{what}: (a + b) - b");
    assert_eq!(a.delta(&a), T::default(), "{what}: a - a");

    // to_json carries the table's names, plus the derived total.
    let mut json = BTreeSet::new();
    leaf_paths(&a.to_json(), "", &mut json);
    let mut want: BTreeSet<String> = names.iter().map(|n| n.to_string()).collect();
    want.extend(total.map(str::to_string));
    assert_eq!(json, want, "{what}: to_json keys");
}

/// The dotted path of every leaf under nested objects.
fn leaf_paths(json: &Json, path: &str, out: &mut BTreeSet<String>) {
    let Json::Obj(fields) = json else {
        out.insert(path.to_string());
        return;
    };
    for (k, v) in fields {
        match path {
            "" => leaf_paths(v, k, out),
            _ => leaf_paths(v, &format!("{path}.{k}"), out),
        }
    }
}

#[test]
fn every_accounted_struct_obeys_the_field_table_laws() {
    table_laws::<CpuCounters>("CpuCounters", None);
    table_laws::<CpuBreakdown>("CpuBreakdown", Some("total"));
    table_laws::<RecoveryStats>("RecoveryStats", None);
    table_laws::<CacheStats>("CacheStats", None);
    table_laws::<IoStats>("IoStats", Some("total_s"));
    // Nested tables surface under the outer field's name.
    let io = Keys::<IoStats>::new("io.", "");
    for key in ["io.bytes_read", "io.recovery.retries", "io.cache.hits"] {
        assert!(io.names().iter().any(|k| k == key), "no {key}");
    }
}

fn table(rows: i32) -> Arc<Table> {
    let schema = Arc::new(
        Schema::new(vec![
            Column::int("k"),
            Column::int("v"),
            Column::int("w"),
            Column::int("f3"),
        ])
        .unwrap(),
    );
    let mut b = TableBuilder::new("hot", schema, 4096, BuildLayouts::both()).unwrap();
    for i in 0..rows {
        b.push_row(&[
            Value::Int(i % 100),
            Value::Int(i),
            Value::Int(i % 7),
            Value::Int(i % 13),
        ])
        .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

#[test]
fn a_traced_root_carries_every_table_field_of_the_report() {
    let t = table(6_000);
    let io_keys = Keys::<IoStats>::new("io.", "");
    let cpu_keys = Keys::<CpuBreakdown>::new("cpu.", "_s");
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        for fast in [false, true] {
            for threads in [1, 3] {
                for cache in [None, Some(CacheSpec::lru_k(8))] {
                    let what = format!("{layout:?} fast={fast} threads={threads} cache={cache:?}");
                    let mut sys = SystemConfig::default().with_scan_fast_path(fast);
                    sys.cache = cache;
                    let res = QueryBuilder::new(t.clone(), HardwareConfig::default(), sys)
                        .layout(layout)
                        .select(&["k", "v"])
                        .unwrap()
                        .filter("v", CmpOp::Lt, 4_000)
                        .unwrap()
                        .group_by("k")
                        .unwrap()
                        .aggregate(AggSpec::count())
                        .threads(threads)
                        .trace(true)
                        .run()
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let trace = res.trace.as_ref().expect("tracing was on");
                    let same = |key: &str, want: f64| {
                        let got = trace.metric(key);
                        assert_eq!(got.to_bits(), want.to_bits(), "{what}: root {key}");
                    };
                    io_keys.write(&res.report.io, same);
                    cpu_keys.write(&res.report.cpu, same);
                    same("cpu.total_s", res.report.cpu.total());
                    same("io.elapsed_s", res.report.io_s());
                    assert!(res.report.io.bytes_read > 0.0, "{what}: vacuous");
                    if cache.is_some() {
                        assert!(res.report.io.cache.requests() > 0, "{what}: cache idle");
                    }
                }
            }
        }
    }
}

#[test]
fn status_registry_and_timeline_are_read_off_the_outcomes() {
    let t = table(6_000);
    let hw = HardwareConfig::default();
    // Two slots, eight staggered riders and a deadline tight enough that the
    // late ones miss it or are refused at admission.
    let sys = SystemConfig::default()
        .with_service(ServiceSpec::new(2).with_slice(0.05).with_deadline(12.0));
    let reg = Registry::handle();
    let monitor = monitor_handle();
    let mut svc = QueryService::new(hw, sys)
        .unwrap()
        .metrics(reg.clone())
        .publish(monitor.clone());
    for i in 0..8usize {
        let q = QueryBuilder::new(t.clone(), hw, sys)
            .layout(ScanLayout::Column)
            .scale_to_rows(20_000_000)
            .select_indices(&[i % 3, (i + 1) % 3]);
        svc.submit(
            ServiceRequest::new(q)
                .at(0.4 * i as f64)
                .tenant(["a", "b", "c"][i % 3]),
        );
    }
    let report = svc.run().unwrap();

    // The last published status is the report's own, byte for byte.
    let published = monitor.lock().unwrap();
    assert!(published.healthy);
    assert_eq!(
        published.status.pretty(),
        report.to_status_json().pretty(),
        "published /status differs from the report's"
    );

    let count =
        |f: &dyn Fn(&QueryOutcome) -> bool| report.outcomes.iter().filter(|o| f(o)).count() as f64;
    let rejected = count(&|o| o.rejected);
    let completed = count(&|o| !o.rejected);
    let missed = count(&|o| o.deadline_missed && !o.rejected);
    let rows: u64 = report.outcomes.iter().map(|o| o.nrows).sum();
    assert!(
        rejected > 0.0 && missed > 0.0 && completed > missed,
        "workload must reject, miss and meet: {rejected} {missed} {completed}"
    );

    let registry = [
        ("query.sched.submitted", report.outcomes.len() as f64),
        ("query.sched.admitted", completed),
        ("query.sched.completed", completed),
        ("query.sched.rejected_deadline", rejected),
        ("query.sched.deadline_missed", missed),
        ("query.sched.segments", report.segments as f64),
        ("query.sched.wraparounds", report.wraparounds as f64),
    ];
    for (name, want) in registry {
        assert_eq!(reg.counter(name), want, "registry {name}");
    }
    assert!(reg.counter("query.sched.attach_mid_scan") >= count(&|o| o.attach_seg > 0));
    for name in ["query.sched.latency_s", "query.sched.queue_wait_s"] {
        let h = reg.histogram(name).unwrap_or_else(|| panic!("no {name}"));
        assert_eq!(h.count() as f64, completed, "registry {name}");
    }

    let timeline = &report.observed.timeline;
    let totals = [
        ("service.admitted", completed),
        ("service.completed", completed),
        ("service.rejected", rejected),
        ("service.deadline_missed", missed),
        ("service.rows", rows as f64),
        ("service.segments", report.segments as f64),
        ("service.wraparounds", report.wraparounds as f64),
        ("service.io.bytes_read", report.io.bytes_read),
        ("service.io.seeks", report.io.seeks as f64),
        ("service.cache.hits", report.io.cache.hits as f64),
        ("service.cache.misses", report.io.cache.misses as f64),
        ("service.cache.evictions", report.io.cache.evictions as f64),
    ];
    for (name, want) in totals {
        let got = timeline.counter_total(name);
        let close = (got - want).abs() <= 1e-9 * want.abs();
        assert!(close, "timeline {name}: {got}, outcomes say {want}");
    }
    for name in ["service.latency_s", "service.queue_wait_s"] {
        let got = timeline.histogram_total(name).count() as f64;
        assert_eq!(got, completed, "timeline {name}");
    }
}
