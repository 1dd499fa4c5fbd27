//! The paper's figures, Table 1, the ablations and the service schedule as
//! functions: [`figures::FIGURES`] names one per `results/` file, and the
//! `figures` bin writes them all. Every figure prints modeled-clock numbers
//! only, so its text regenerates byte for byte, and
//! `crates/bench/tests/figures.rs` holds `results/` to it in tier-1; host
//! wall time is measured by the `benchmark/` package alone.
//!
//! The scale is fixed: [`ROWS`] rows generated per table, reported at the
//! paper's [`VIRTUAL_ROWS`], from generator seed [`SEED`].

use std::sync::Arc;

use rodb_core::ExperimentConfig;
use rodb_storage::{BuildLayouts, Table};
use rodb_tpch::{load_lineitem, load_orders, Variant};

/// Fails the figure with a claim its numbers do not bear out: returns
/// `Err(format!($claim..))` unless `$holds`.
macro_rules! ensure {
    ($holds:expr, $($claim:tt)+) => {
        let holds: bool = $holds;
        if !holds {
            return Err(format!($($claim)+).into());
        }
    };
}

pub mod figures;

/// A figure's text, or why it could not be made (a load or scan error, or
/// a claim of the figure that the numbers do not bear out).
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Rows generated per table.
pub const ROWS: u64 = 200_000;

/// Rows reported: the paper's LINEITEM scale-10 / ORDERS scale-40
/// cardinality.
pub const VIRTUAL_ROWS: u64 = 60_000_000;

/// Generator seed.
pub const SEED: u64 = 1;

/// Experiment config at paper scale.
fn paper_config() -> ExperimentConfig {
    ExperimentConfig {
        virtual_rows: VIRTUAL_ROWS,
        ..Default::default()
    }
}

/// LINEITEM (or a variant) with both layouts, at [`ROWS`].
fn lineitem(variant: Variant) -> Result<Arc<Table>> {
    let t = load_lineitem(ROWS, SEED, 4096, BuildLayouts::both(), variant)?;
    Ok(Arc::new(t))
}

/// ORDERS (or a variant) with both layouts, at [`ROWS`].
fn orders(variant: Variant) -> Result<Arc<Table>> {
    let t = load_orders(ROWS, SEED, 4096, BuildLayouts::both(), variant)?;
    Ok(Arc::new(t))
}

/// Standard banner, so every figure's text says what and at which scale.
fn banner(figure: &str, what: &str) -> String {
    let rule = "==========================================================";
    format!("{rule}\n{figure}: {what}\nactual rows {ROWS} | virtual rows {VIRTUAL_ROWS} | seed {SEED}\n{rule}\n")
}
