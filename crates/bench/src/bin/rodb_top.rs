//! `rodb-top` — offline/console renderer for the service's `/status`
//! document, plus a demo mode that serves a live monitoring endpoint.
//!
//! Modes:
//! - `rodb_top` (default) / `rodb_top --snapshot`: run a small
//!   service workload and print the text dashboard for its final status.
//! - `rodb_top --check FILE`: parse a saved `/status` JSON document and
//!   render it (exit 1 on malformed input) — lets CI and humans inspect
//!   status snapshots captured from a live endpoint.
//! - `rodb_top --serve ADDR --hold-secs N`: run the demo workload while
//!   publishing to a monitoring endpoint on ADDR, then keep serving the
//!   final state for N seconds so `/metrics`, `/healthz`, and `/status`
//!   can be curled.

use std::sync::Arc;

use rodb_core::{QueryBuilder, QueryService, ServiceRequest};
use rodb_engine::ScanLayout;
use rodb_storage::{BuildLayouts, Table, TableBuilder};
use rodb_trace::{monitor_handle, render_top, Json, MonitorServer, Registry};
use rodb_types::{Column, HardwareConfig, Schema, ServiceSpec, SystemConfig, Value};

fn demo_table() -> Arc<Table> {
    let schema = Arc::new(
        Schema::new((0..4).map(|i| Column::int(format!("f{i}"))).collect()).expect("schema"),
    );
    let mut b = TableBuilder::new("demo", schema, 4096, BuildLayouts::both()).expect("builder");
    for v in 0..20_000i32 {
        b.push_row(&[
            Value::Int(v % 100),
            Value::Int(v),
            Value::Int(v % 7),
            Value::Int(v % 13),
        ])
        .expect("row");
    }
    Arc::new(b.finish().expect("table"))
}

/// Run the demo workload (multi-tenant) and return its final
/// status document; publishes live state when a monitor handle is given.
fn demo_status(monitor: Option<rodb_trace::MonitorHandle>) -> Json {
    let table = demo_table();
    let hw = HardwareConfig::default();
    let sys = SystemConfig {
        service: Some(ServiceSpec::new(4).with_slice(0.05)),
        ..SystemConfig::default()
    };
    let mut svc = QueryService::new(hw, sys)
        .expect("service")
        .metrics(Registry::handle());
    if let Some(h) = monitor {
        svc = svc.publish(h);
    }
    for i in 0..8 {
        svc.submit(
            ServiceRequest::new(
                QueryBuilder::new(table.clone(), hw, sys)
                    .layout(ScanLayout::Column)
                    .select_indices(&[i % 4, (i + 1) % 4])
                    .scale_to_rows(20_000_000),
            )
            .at(0.4 * i as f64)
            .tenant(["a", "b", "c"][i % 3])
            .measure_only(),
        );
    }
    svc.run().expect("run").to_status_json()
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = arg_value(&args, "--check") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("rodb-top: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match Json::parse(&text) {
            Ok(status) => print!("{}", render_top(&status)),
            Err(e) => {
                eprintln!("rodb-top: {path} is not valid status JSON: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(addr) = arg_value(&args, "--serve") {
        let hold: u64 = arg_value(&args, "--hold-secs")
            .and_then(|s| s.parse().ok())
            .unwrap_or(30);
        let handle = monitor_handle();
        let server = MonitorServer::start(&addr, handle.clone()).expect("bind monitor endpoint");
        eprintln!(
            "rodb-top: serving /metrics /healthz /status on http://{} for {hold}s",
            server.local_addr()
        );
        let status = demo_status(Some(handle));
        print!("{}", render_top(&status));
        std::thread::sleep(std::time::Duration::from_secs(hold));
        server.stop();
        return;
    }

    // Default / --snapshot: run the demo workload and print the dashboard.
    print!("{}", render_top(&demo_status(None)));
}
