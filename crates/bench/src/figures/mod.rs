//! One entry per `results/` file: its name and the function that makes its
//! bytes. `cargo run --release -p rodb-bench --bin figures` writes them all;
//! `crates/bench/tests/figures.rs` regenerates each in tier-1 and compares it
//! with `results/` byte for byte, and fails on a file no entry names.

use rodb_trace::{Json, MetricsRegistry};

use crate::Result;

mod ablation_pax;
mod ablation_scan_sharing;
mod ablation_scanner;
mod bench_service;
mod crossover_map;
mod fig10;
mod fig11;
mod fig2;
mod fig2_measured;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod schema_check;
mod table1;

/// A `results/` file's name and the function that makes its bytes.
pub type Figure = (&'static str, fn() -> Result<String>);

/// Every `results/` file, each named once.
pub const FIGURES: [Figure; 16] = [
    ("fig2.txt", fig2::run),
    ("fig6.txt", fig6::run),
    ("fig7.txt", fig7::run),
    ("fig8.txt", fig8::run),
    ("fig9.txt", fig9::run),
    ("fig10.txt", fig10::run),
    ("fig11.txt", fig11::run),
    ("table1.txt", table1::run),
    ("schema_check.txt", schema_check::run),
    ("crossover_map.txt", crossover_map::run),
    ("ablation_scanner.txt", ablation_scanner::run),
    ("ablation_pax.txt", ablation_pax::run),
    ("ablation_scan_sharing.txt", ablation_scan_sharing::text),
    ("fig2_measured.txt", fig2_measured::run),
    ("ablation_scan_sharing.json", ablation_scan_sharing::json),
    ("bench_service.json", bench_service::run),
];

/// Empties the process-wide metrics registry, so a JSON figure's snapshot
/// holds its own run only, whatever ran before it in the process.
fn fresh_metrics() {
    MetricsRegistry::drain();
}

/// The registry's metrics since [`fresh_metrics`], less the
/// `query.kernel_tier.*` counter: it names the host's decode tier (`avx2`,
/// or `scalar` under `RODB_FORCE_SCALAR=1`), and `results/` is the same on
/// every host.
fn metrics_snapshot() -> Json {
    let mut metrics = MetricsRegistry::drain();
    if let Json::Obj(kinds) = &mut metrics {
        if let Some((_, Json::Obj(counters))) = kinds.iter_mut().find(|(k, _)| k == "counters") {
            counters.retain(|(name, _)| !name.starts_with("query.kernel_tier."));
        }
    }
    metrics
}
