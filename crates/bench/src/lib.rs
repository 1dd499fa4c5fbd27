//! Shared plumbing for the experiment harnesses (one binary per figure and
//! table of the paper — see DESIGN.md's per-experiment index). Every bin
//! prints modeled-clock numbers only, so its output regenerates byte for
//! byte; host wall time is measured by the `benchmark/` package alone.
//!
//! Environment knobs:
//! * `RODB_ROWS` — actual rows generated per table (default 200 000).
//!   Bigger is slower but smoother; results are reported at the virtual
//!   (paper) scale either way.
//! * `RODB_VROWS` — virtual row count reported (default 60 000 000, the
//!   paper's LINEITEM scale-10 / ORDERS scale-40 cardinality).
//! * `RODB_SEED` — generator seed (default 1).

use std::sync::Arc;

use rodb_core::ExperimentConfig;
use rodb_storage::{BuildLayouts, Table};
use rodb_tpch::{load_lineitem, load_orders, Variant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Actual rows generated per table.
pub fn actual_rows() -> u64 {
    env_u64("RODB_ROWS", 200_000)
}

/// Virtual rows reported (the paper's 60 M).
pub fn virtual_rows() -> u64 {
    env_u64("RODB_VROWS", 60_000_000)
}

/// Generator seed.
pub fn seed() -> u64 {
    env_u64("RODB_SEED", 1)
}

/// Experiment config at paper scale.
pub fn paper_config() -> ExperimentConfig {
    ExperimentConfig {
        virtual_rows: virtual_rows(),
        ..Default::default()
    }
}

/// LINEITEM (or LINEITEM-Z) with both layouts, at the harness row count.
pub fn lineitem(variant: Variant) -> Arc<Table> {
    Arc::new(
        load_lineitem(actual_rows(), seed(), 4096, BuildLayouts::both(), variant)
            .expect("lineitem loads"),
    )
}

/// ORDERS (or ORDERS-Z) with both layouts, at the harness row count.
pub fn orders(variant: Variant) -> Arc<Table> {
    Arc::new(
        load_orders(actual_rows(), seed(), 4096, BuildLayouts::both(), variant)
            .expect("orders loads"),
    )
}

/// Standard banner so harness outputs are self-describing.
pub fn banner(figure: &str, what: &str) {
    println!("==========================================================");
    println!("{figure}: {what}");
    println!(
        "actual rows {} | virtual rows {} | seed {}",
        actual_rows(),
        virtual_rows(),
        seed()
    );
    println!("==========================================================");
}
