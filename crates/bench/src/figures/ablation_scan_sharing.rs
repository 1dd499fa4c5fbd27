//! Ablation (beyond the paper's measurements) — scan sharing.
//!
//! §2.1.1 notes that commercial systems serve multiple concurrent queries
//! "off a single reading stream (scan sharing)" and sets it aside as
//! orthogonal to data placement. This harness quantifies what sharing buys
//! on the row store: k concurrent LINEITEM queries riding one
//! [`SharedCursor`] pass vs k independent scans (which additionally
//! interfere with each other on disk, like Figure 11's competitors). The
//! cursor shares the disk, not the tuple loop: every rider is charged its
//! full solo CPU, so shared CPU grows with k while shared I/O stays one
//! file pass.

use std::fmt::Write;

use rodb_core::ExperimentConfig;
use rodb_engine::{CursorQuery, Predicate, QueryPlan, ScanLayout, ScanSpec, SharedCursor};
use rodb_tpch::{partkey_threshold, Variant};
use rodb_trace::Json;

use super::{fresh_metrics, metrics_snapshot};
use crate::{banner, lineitem, Result, ROWS, VIRTUAL_ROWS};

/// `results/ablation_scan_sharing.txt`.
pub(super) fn text() -> Result<String> {
    Ok(run()?.0)
}

/// `results/ablation_scan_sharing.json`: the points and the metrics
/// registry after the run.
pub(super) fn json() -> Result<String> {
    Ok(run()?.1)
}

fn run() -> Result<(String, String)> {
    fresh_metrics();
    let mut o = banner(
        "Ablation: scan sharing",
        "k queries off one stream vs k independent scans (LINEITEM rows)",
    );
    let t = lineitem(Variant::Plain)?;
    let cfg = ExperimentConfig {
        virtual_rows: VIRTUAL_ROWS,
        ..Default::default()
    };
    let scale = VIRTUAL_ROWS as f64 / t.row_count as f64;

    writeln!(
        o,
        "\n{:>3} | {:>12} {:>12} | {:>14} {:>14}",
        "k", "shared-io", "shared-cpu", "independent-io", "independent-cpu"
    )?;
    let mut points: Vec<Json> = Vec::new();
    for k in [1usize, 2, 4, 8] {
        let queries: Vec<ScanSpec> = (0..k)
            .map(|i| {
                ScanSpec::new(t.clone(), ScanLayout::Row, vec![i % 16, (i + 5) % 16])
                    .with_predicates(vec![Predicate::lt(
                        0,
                        partkey_threshold(0.02 * (i + 1) as f64),
                    )])
            })
            .collect();

        // Shared: one cursor, one driver pass over the whole file.
        let mut cursor =
            SharedCursor::new(t.clone(), ScanLayout::Row, 1, cfg.hw, cfg.sys, scale, None)?;
        for (token, q) in queries.iter().enumerate() {
            cursor.attach(CursorQuery {
                token,
                plan: QueryPlan::new(q.clone()),
                collect: false,
            })?;
        }
        let mut shared_cpu = 0.0f64;
        while cursor.active_count() > 0 {
            let step = cursor.step()?;
            shared_cpu += step.done.iter().map(|d| d.cpu_s).sum::<f64>();
        }
        let shared_io = cursor.io_stats().total_s();

        // Independent: each query is a separate scan that sees the other
        // k-1 scans as competing traffic (§4.5's situation).
        let mut indep_io = 0.0f64;
        let mut indep_cpu = 0.0f64;
        for q in &queries {
            let ec = ExperimentConfig {
                competing_scans: k - 1,
                virtual_rows: VIRTUAL_ROWS,
                ..Default::default()
            };
            let r = rodb_core::scan_report(
                &t,
                ScanLayout::Row,
                &q.projection,
                q.predicates[0].clone(),
                &ec,
            )?;
            // Concurrent queries: wall time is the slowest, CPU adds up.
            indep_io = indep_io.max(r.io_s());
            indep_cpu += r.cpu.total();
        }

        writeln!(
            o,
            "{:>3} | {:>12.2} {:>12.2} | {:>14.2} {:>14.2}",
            k, shared_io, shared_cpu, indep_io, indep_cpu
        )?;
        let shared_total = shared_io.max(shared_cpu);
        let indep_total = indep_io.max(indep_cpu);
        points.push(
            Json::obj()
                .set("name", format!("k{k}"))
                .set("k", k as u64)
                .set("shared_io_s", shared_io)
                .set("shared_cpu_s", shared_cpu)
                .set("independent_io_s", indep_io)
                .set("independent_cpu_s", indep_cpu)
                .set("sharing_speedup", indep_total / shared_total.max(1e-12)),
        );
    }
    writeln!(
        o,
        "\nShared I/O stays one file pass (~53 s at paper scale) for any k; \
         independent scans contend like Figure 11's competitors. CPU is \
         charged per query on both sides (riders keep their solo scan costs)."
    )?;

    let doc = Json::obj()
        .set("bench", "ablation_scan_sharing")
        .set("actual_rows", ROWS)
        .set("virtual_rows", VIRTUAL_ROWS)
        .set("points", points)
        .set("metrics", metrics_snapshot());
    // The `figures` bin writes both files of this run.
    writeln!(o, "wrote results/ablation_scan_sharing.json")?;
    Ok((o, doc.pretty()))
}
