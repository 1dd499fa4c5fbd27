//! # rodb — a read-optimized row/column database engine
//!
//! A from-scratch Rust reproduction of *"Performance Tradeoffs in
//! Read-Optimized Databases"* (Harizopoulos, Liang, Abadi, Madden —
//! VLDB 2006): a dense-paged storage manager with row **and** column
//! layouts, the paper's three lightweight compression schemes, a pull-based
//! block-iterator query engine whose row and pipelined-column scanners are
//! interchangeable, a simulated disk array + CPU cost model that regenerate
//! the paper's measurements, and the Section-5 analytical model (cpdb,
//! speedup surface).
//!
//! Start with [`Database`](crate::prelude::Database) and the
//! [`prelude`]; see `examples/quickstart.rs` for a tour and DESIGN.md /
//! EXPERIMENTS.md for the paper-reproduction map.

pub use rodb_compress as compress;
pub use rodb_core as core;
pub use rodb_cpu as cpu;
pub use rodb_engine as engine;
pub use rodb_io as io;
pub use rodb_model as model;
pub use rodb_storage as storage;
pub use rodb_tpch as tpch;
pub use rodb_trace as trace;
pub use rodb_types as types;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use rodb_compress::{Codec, ColumnCompression, Dictionary};
    pub use rodb_core::{
        choose, compare_layouts, materialize, predicted_speedup, price, projectivity_sweep,
        recommend_compression, recommend_layout, recommend_vertical_partitions, Candidate, Choice,
        Database, ExperimentConfig, IngestSnapshot, IngestStats, IngestStore, LayoutComparison,
        Machine, ParallelInfo, Query, QueryBuilder, QueryOutcome, QueryResult, QueryService,
        ServiceReport, ServiceRequest, DEFAULT_SELECTIVITY,
    };
    pub use rodb_engine::{
        AggFunc, AggPlan, AggSpec, AggStrategy, Aggregate, CmpOp, CursorQuery, ExecContext,
        MergeJoin, Operator, Predicate, QueryPlan, RunReport, ScanLayout, ScanSpec, SharedCursor,
        TupleBlock,
    };
    pub use rodb_model::{speedup_at, surface, Figure2Config, Platform, Workload};
    pub use rodb_storage::{
        BuildLayouts, Catalog, Layout, Morsel, Table, TableBuilder, WriteOptimizedStore,
    };
    pub use rodb_tpch::{
        load_lineitem, load_orders, orderdate_threshold, partkey_threshold, Variant,
    };
    pub use rodb_trace::{Json, MetricsRegistry, QueryTrace};
    pub use rodb_types::{
        Column, DataType, Error, HardwareConfig, IngestSpec, Result, Schema, ServiceSpec,
        SystemConfig, Value,
    };
}
