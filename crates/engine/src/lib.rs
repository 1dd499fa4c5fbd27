//! The read-optimized relational query engine (§2.2 of the paper).
//!
//! A pull-based block-iterator engine whose row and column table scanners
//! produce identical block formats (Figure 4), making them interchangeable
//! under the shared relational operators: selection/projection in the
//! scanners, aggregation (hash and sort based), and merge join.

pub mod agg;
pub mod block;
pub mod codepred;
pub mod degraded;
pub mod exec;
pub mod join;
pub mod memscan;
pub mod op;
pub mod page_cursor;
pub mod plan;
pub mod predicate;
mod scan_col;
mod scan_col_single;
mod scan_core;
mod scan_row;
pub mod sched;
pub mod shared_cursor;
pub mod traced;

pub use agg::{merge_partials, AggFunc, AggPartial, AggSpec, AggStrategy, Aggregate};
pub use block::{RowBatch, RowView, TupleBlock};
pub use codepred::{rewrite, rewrite_all, zone_rejects, CodePred};
pub use degraded::DropSet;
pub use exec::{run_to_completion, settle_report, RunReport};
pub use join::MergeJoin;
pub use memscan::{Chain, MemScan};
pub use op::{drain_rows, ExecContext, Operator};
pub use page_cursor::PageCursor;
pub use plan::{AggPlan, PlanRun, QueryPlan, ScanLayout, ScanSpec};
pub use predicate::{CmpOp, Predicate};
pub use scan_col::page_pass;
pub use sched::run_morsels;
pub use shared_cursor::{CursorQuery, QueryDone, SegmentStep, SharedCursor};
pub use traced::{apply_report, finish_query_trace, record_block, TracedOp};
