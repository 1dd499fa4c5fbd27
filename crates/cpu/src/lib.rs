//! CPU and memory-hierarchy cost model (§2.1.2 and §4.1 of the paper).
//!
//! Replaces the paper's PAPI measurement stack with deterministic event
//! accounting: the engine reports semantic work to a [`CpuMeter`], which
//! produces the exact stacked breakdown the paper plots — *sys*, *usr-uop*
//! (uops ÷ 3/cycle), *usr-L2* (prefetcher-aware memory stalls), *usr-L1*, and
//! *usr-rest* — via [`CpuBreakdown::from_counters`].

pub mod breakdown;
pub mod costs;
pub mod counters;
pub mod meter;
pub mod phase;

pub use breakdown::CpuBreakdown;
pub use costs::{CostParams, OpCosts};
pub use counters::CpuCounters;
pub use meter::CpuMeter;
pub use phase::{CpuPhase, PhaseProfile};
