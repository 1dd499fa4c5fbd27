//! High-level API of **rodb**: the read-optimized database of the paper as a
//! library a downstream user can adopt.
//!
//! * [`Database`] — catalog + simulated platform; register bulk-loaded
//!   tables, stage inserts in a WOS, merge.
//! * [`QueryBuilder`] — precompiled-plan queries: projection, SARGable
//!   predicates, aggregation, layout choice, paper-scale reporting.
//! * [`design`] — the physical-design chooser: one `price` and one `choose`
//!   behind the layout, compression and vertical-partition advisors.
//! * [`compare`] — measured row-vs-column comparison.
//! * [`experiment`] — the §4 projectivity-sweep harness the figure
//!   binaries are built on.

pub mod compare;
pub mod db;
pub mod design;
pub mod experiment;
pub mod ingest;
pub mod query;
pub mod service;

pub use compare::{compare_layouts, LayoutComparison};
pub use db::Database;
pub use design::{
    choose, materialize, predicted_speedup, price, recommend_compression, recommend_layout,
    recommend_vertical_partitions, Candidate, Choice, Machine, Query, DEFAULT_SELECTIVITY,
};
pub use experiment::{
    crossover_fraction, format_breakdowns, format_sweep, projectivity_sweep, scan_report,
    ExperimentConfig, SweepPoint,
};
pub use ingest::{IngestSnapshot, IngestStats, IngestStore};
pub use query::{ParallelInfo, QueryBuilder, QueryResult};
pub use service::{
    Observed, QueryOutcome, QueryService, ServiceReport, ServiceRequest, SloReport, TenantSlo,
};
