//! Concurrent query service: shared scan cursors vs query-at-a-time.
//!
//! §2.1.1 sets scan sharing aside as orthogonal to data placement; the
//! query service makes it a serving-layer feature. This harness drives the
//! service with a seeded open-loop Poisson arrival process over one hot
//! row-store table — the regime the paper's LINEITEM numbers live in,
//! where a scan's I/O (full tuples off disk) dwarfs each query's CPU (a
//! couple of projected columns) — and compares the shared-cursor schedule
//! against the naive baseline that runs the same requests query-at-a-time,
//! each paying its own full pass.
//!
//! Gates (an `Err` on failure):
//! 1. **Throughput** — at 8 concurrent queries the shared schedule must
//!    finish the batch >= 2x faster on the modeled clock.
//! 2. **Single-pass I/O** — the shared run's bytes read must be one file
//!    pass per wraparound cycle (within 5%), not one pass per query.
//!
//! Results (throughput, latency p50/p95/p99, I/O, schedule counters) are
//! `results/bench_service.json`.

use std::sync::Arc;

use rodb_core::{QueryBuilder, QueryService, ServiceReport, ServiceRequest};
use rodb_engine::{CmpOp, ScanLayout};
use rodb_storage::{BuildLayouts, Table, TableBuilder};
use rodb_trace::Json;
use rodb_types::{Column, HardwareConfig, Schema, ServiceSpec, SplitMix64, SystemConfig, Value};

use super::{fresh_metrics, metrics_snapshot};
use crate::{Result, ROWS, SEED, VIRTUAL_ROWS};

const PAGE: usize = 4096;
const QUERIES: usize = 8;

/// Wide lineitem-style hot table: 8 int columns, so a row scan moves
/// 32-byte tuples while each query touches one or two of them.
fn build_table() -> Result<Arc<Table>> {
    let schema = Arc::new(Schema::new(
        (0..8).map(|i| Column::int(format!("f{i}"))).collect(),
    )?);
    let mut b = TableBuilder::new("hot", schema, PAGE, BuildLayouts::both())?;
    for i in 0..ROWS {
        let v = i as i32;
        b.push_row(&[
            Value::Int(v % 100),
            Value::Int(v),
            Value::Int(v % 7),
            Value::Int(v % 13),
            Value::Int(v % 17),
            Value::Int(v % 19),
            Value::Int(v % 23),
            Value::Int(v % 29),
        ])?;
    }
    Ok(Arc::new(b.finish()?))
}

/// The i-th narrow row-store query of the workload.
fn query(table: &Arc<Table>, i: usize, sys: SystemConfig) -> Result<QueryBuilder> {
    let q = QueryBuilder::new(table.clone(), HardwareConfig::default(), sys)
        .layout(ScanLayout::Row)
        .select_indices(&[i % 8, (i + 3) % 8])
        .scale_to_rows(VIRTUAL_ROWS);
    Ok(if i % 2 == 1 {
        q.filter("f1", CmpOp::Lt, Value::Int((1_000 * i) as i32))?
    } else {
        q
    })
}

fn summarize(r: &ServiceReport) -> Json {
    Json::obj()
        .set("makespan_s", r.makespan_s)
        .set("throughput_per_s", r.throughput())
        .set("latency_p50_s", r.latency_quantile(0.50))
        .set("latency_p95_s", r.latency_quantile(0.95))
        .set("latency_p99_s", r.latency_quantile(0.99))
        .set("bytes_read", r.io.bytes_read)
        .set("segments", r.segments)
        .set("wraparounds", r.wraparounds)
}

pub(super) fn run() -> Result<String> {
    fresh_metrics();
    let table = build_table()?;
    let scale = VIRTUAL_ROWS as f64 / ROWS as f64;
    let hw = HardwareConfig::default();

    // Estimated single-pass disk time sets the arrival rate (all QUERIES
    // arrivals land within ~one pass, so the cursor actually gets riders)
    // and the slice width (~24 segments per cycle).
    let pass_bytes = table.row_storage()?.byte_len() as f64 * scale;
    let est_pass_s = pass_bytes / hw.aggregate_disk_bw();
    let lambda = QUERIES as f64 / est_pass_s;
    let spec = ServiceSpec::new(QUERIES).with_slice(est_pass_s / 24.0);
    let sys = SystemConfig {
        page_size: PAGE,
        service: Some(spec),
        ..SystemConfig::default()
    };

    // Seeded open-loop Poisson arrivals: exponential inter-arrival times
    // via inverse transform, -ln(u)/lambda.
    let mut rng = SplitMix64::new(SEED);
    let mut arrivals = Vec::with_capacity(QUERIES);
    let mut t = 0.0f64;
    for _ in 0..QUERIES {
        arrivals.push(t);
        t += -rng.f64().max(1e-12).ln() / lambda;
    }

    let service = || -> Result<QueryService> {
        let mut svc = QueryService::new(hw, sys)?;
        for (i, &at) in arrivals.iter().enumerate() {
            svc.submit(
                ServiceRequest::new(query(&table, i, sys)?)
                    .at(at)
                    .tenant(["a", "b", "c"][i % 3])
                    .measure_only(),
            );
        }
        Ok(svc)
    };
    let shared = service()?.run()?;
    let naive = service()?.run_query_at_a_time()?;
    let ratio = naive.makespan_s / shared.makespan_s.max(1e-12);

    // Gate 1: >= 2x aggregate throughput from sharing at 8 riders.
    ensure!(ratio >= 2.0, "shared/naive makespan ratio {ratio:.2}x < 2x");

    // Gate 2: the shared run reads one file pass per wraparound cycle —
    // a solo query's pass is the unit (row scans read full tuples).
    let solo_bytes = query(&table, 0, SystemConfig::default())?
        .run()?
        .report
        .io
        .bytes_read;
    let cycles = (shared.wraparounds + 1) as f64;
    let passes = shared.io.bytes_read / solo_bytes;
    ensure!(
        shared.io.bytes_read <= cycles * solo_bytes * 1.05,
        "shared run read {passes:.2} passes worth of bytes over {cycles} cycle(s)"
    );

    let doc = Json::obj()
        .set("bench", "service")
        .set("rows", ROWS)
        .set("virtual_rows", VIRTUAL_ROWS)
        .set("queries", QUERIES)
        .set("lambda_per_s", lambda)
        .set("est_pass_s", est_pass_s)
        .set("seed", SEED)
        .set("shared", summarize(&shared))
        .set("naive", summarize(&naive))
        .set("throughput_ratio", ratio)
        .set("metrics", metrics_snapshot());
    Ok(doc.pretty())
}
