//! rodb-trace — query tracing, metrics, and live observability for the
//! read-optimized DB repro.
//!
//! Std-only (zero external crates). Pieces:
//!
//! - [`span`]: a per-execution-context [`Tracer`] building hierarchical
//!   operator spans (one per plan node per morsel) whose metrics are the
//!   same simulated-clock seconds and raw counters the engine's
//!   accounting reports, merged across morsels identically — so a
//!   trace's root totals reconcile *exactly* with the query report.
//!   Finished traces render as an `EXPLAIN ANALYZE` tree or export as
//!   Chrome trace-event JSON under `results/traces/`.
//! - [`mod@fields`]: the field table — [`fields!`] declares an accounted
//!   struct once and derives merge, delta, JSON and its span keys.
//! - [`metrics`]: named counters, gauges, and log2-bucket [`Histogram`]s —
//!   instantiable [`Registry`] handles for drivers that own their metrics,
//!   plus the process-wide [`MetricsRegistry`] static facade; one
//!   [`MetricSet`] type holds a registry's metrics or one window's.
//! - [`timeline`]: [`Timeline`] buckets those metrics by simulated-clock
//!   windows, turning a service run into curves over time.
//! - [`recorder`]: [`FlightRecorder`] — bounded tail-based retention of the
//!   4 slowest / all anomalous query flight records per window.
//! - [`expo`]: Prometheus text exposition + validator, the `rodb-top`
//!   text renderer, and the [`MonitorHandle`] publishers update.
//! - `http` (feature `monitor`, off by default): a std-only blocking
//!   `TcpListener` endpoint serving `/metrics`, `/healthz`, `/status`.
//! - [`json`]: the std-only [`Json`] build/render/parse value
//!   used by every JSON writer in the workspace (traces, fuzz `--json`,
//!   bench outputs).
//!
//! Tracing defaults off: the engine holds `Option<Tracer>` and the disk sim
//! `Option<TraceSink>`, so the measured paper paths pay one predictable
//! branch per block at most. The service always keeps its timeline and
//! flight recorder, once per segment and per settled query.

pub mod expo;
pub mod fields;
#[cfg(feature = "monitor")]
pub mod http;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod span;
pub mod timeline;

pub use expo::{
    check_exposition, monitor_handle, prometheus, render_top, MonitorHandle, MonitorState,
};
pub use fields::{Field, Keys};
#[cfg(feature = "monitor")]
pub use http::MonitorServer;
pub use json::Json;
pub use metrics::{Histogram, MetricSet, MetricsHandle, MetricsRegistry, Registry};
pub use recorder::{FlightEntry, FlightRecorder};
pub use sink::{EventBuf, EventKind, TraceEvent, TraceSink};
pub use span::{keys, Metrics, QueryTrace, SpanId, SpanKind, SpanNode, Tracer, ROOT};
pub use timeline::Timeline;
