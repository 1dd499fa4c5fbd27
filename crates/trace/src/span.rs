//! Hierarchical operator spans and the finished query trace.
//!
//! A [`Tracer`] rides inside one execution context (one morsel of a
//! parallel query, or the whole of a serial one) and accumulates *spans*:
//! one per plan node, each holding a named-metric map of simulated-clock
//! seconds, raw `CpuMeter`/`IoStats` counter deltas, and measured wall
//! time. Spans are **accumulating**, not contiguous intervals — a scan
//! span's totals grow across every `next()` call — which is exactly the
//! shape the paper's per-operator attribution needs (§4.1 charges events,
//! not timestamps).
//!
//! Per-morsel traces merge into one [`QueryTrace`] the same way the
//! engine's accounting merges: spans are matched by path (kind + label)
//! and their metrics sum element-wise, **in morsel order**, so the merged
//! root reproduces the parallel executor's own summation bit for bit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::json::Json;
use crate::sink::{EventBuf, TraceEvent, TraceSink};

/// What a span represents (drives EXPLAIN rendering and merge matching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The query root (one per execution context).
    Query,
    /// A table scan plan node (any of the four scanners).
    Scan,
    /// Aggregation.
    Agg,
    /// A synthesized sub-phase of a plan node (decode, predicate, gather…)
    /// attributed from the CPU meter's phase profile.
    Phase,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Scan => "scan",
            SpanKind::Agg => "agg",
            SpanKind::Phase => "phase",
        }
    }
}

/// Well-known metric keys (spans accept any key; these are the ones the
/// engine emits and the reconciliation tests assert on).
pub mod keys {
    /// Measured wall seconds inside this span (inclusive of children).
    pub const WALL_S: &str = "wall_s";
    /// Output rows / blocks / `next()` calls of the plan node.
    pub const ROWS: &str = "rows";
    pub const BLOCKS: &str = "blocks";
    pub const CALLS: &str = "calls";
    /// Modelled CPU seconds of the whole breakdown (scaled, paper clock).
    /// The components sit beside it as `cpu.<field>_s`, and the simulated
    /// disk's counters as `io.<field>`, raw CPU events (unscaled — the PAPI
    /// stand-ins of §3.2) as `cnt.<field>`: those keys are derived from the
    /// structs' field tables ([`mod@crate::fields`]), not listed here. The few
    /// named below are the ones `explain()` renders.
    pub const CPU_TOTAL_S: &str = "cpu.total_s";
    pub const CPU_USR_UOP_S: &str = "cpu.usr_uop_s";
    pub const CPU_USR_L2_S: &str = "cpu.usr_l2_s";
    /// Simulated disk seconds.
    pub const IO_S: &str = "io.elapsed_s";
    pub const IO_BYTES: &str = "io.bytes_read";
    /// Decode-kernel dispatch tier ordinal active while the span ran
    /// (0 scalar, 1 SSE2, 2 AVX2, 3 NEON).
    pub const KERNEL_TIER: &str = "kernel.tier";
    /// How many per-morsel instances were folded into a merged span.
    pub const MORSELS: &str = "morsels";
    /// End-to-end elapsed seconds with CPU/I/O overlap (root span only).
    pub const ELAPSED_S: &str = "elapsed_s";
}

/// An insertion-stable named-metric map. Merging sums matching keys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn add(&mut self, key: &str, delta: f64) {
        if delta == 0.0 {
            return;
        }
        // Look up before inserting: only a key's first hit pays a `String`.
        match self.0.get_mut(key) {
            Some(v) => *v += delta,
            None => {
                self.0.insert(key.to_string(), delta);
            }
        }
    }

    /// Overwrite (used when a merged total must equal an externally
    /// computed value exactly, e.g. the parallel executor's merged stats).
    pub fn set(&mut self, key: &str, value: f64) {
        self.0.insert(key.to_string(), value);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Remove every key starting with `prefix`, returning the removed
    /// pairs (used when raw per-phase counters are folded into synthesized
    /// phase child spans).
    pub fn remove_prefix(&mut self, prefix: &str) -> Vec<(String, f64)> {
        let keys: Vec<String> = self
            .0
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.into_iter()
            .map(|k| {
                let v = self.0.remove(&k).unwrap_or(0.0);
                (k, v)
            })
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (k, v) in self.iter() {
            obj = obj.set(k, v);
        }
        obj
    }
}

#[derive(Debug)]
struct SpanData {
    label: String,
    kind: SpanKind,
    parent: Option<usize>,
    metrics: Metrics,
}

/// Handle to one span of a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The query root span every tracer starts with.
pub const ROOT: SpanId = SpanId(0);

/// Per-execution-context span recorder. `Rc`-based and single-threaded,
/// exactly like the engine's `ExecContext`; parallel morsels each carry
/// their own tracer and merge after the pool joins.
#[derive(Debug, Clone)]
pub struct Tracer {
    state: Rc<RefCell<Vec<SpanData>>>,
    sink: TraceSink,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            state: Rc::new(RefCell::new(vec![SpanData {
                label: "query".to_string(),
                kind: SpanKind::Query,
                parent: None,
                metrics: Metrics::default(),
            }])),
            sink: Rc::new(RefCell::new(EventBuf::default())),
        }
    }

    /// The event sink to hand to the disk simulator (page reads, zone
    /// skips, replica retries land here with simulated-clock timestamps).
    pub fn sink(&self) -> TraceSink {
        self.sink.clone()
    }

    /// Open a span under `parent`. Spans accumulate until the tracer is
    /// finished; there is no explicit close.
    pub fn span(&self, parent: SpanId, label: &str, kind: SpanKind) -> SpanId {
        let mut spans = self.state.borrow_mut();
        let id = spans.len();
        spans.push(SpanData {
            label: label.to_string(),
            kind,
            parent: Some(parent.0),
            metrics: Metrics::default(),
        });
        SpanId(id)
    }

    /// Open an *operator* span and adopt every currently root-level
    /// operator span as its child. Plans build bottom-up (scan first, then
    /// the aggregate wrapping it), so at wrap time the new operator's
    /// inputs are exactly the spans still parked at the root — adopting
    /// them reproduces the plan tree without any caller bookkeeping.
    pub fn op_span(&self, label: &str, kind: SpanKind) -> SpanId {
        let mut spans = self.state.borrow_mut();
        let id = spans.len();
        for s in spans.iter_mut().skip(1) {
            if s.parent == Some(ROOT.0) && s.kind != SpanKind::Phase {
                s.parent = Some(id);
            }
        }
        spans.push(SpanData {
            label: label.to_string(),
            kind,
            parent: Some(ROOT.0),
            metrics: Metrics::default(),
        });
        SpanId(id)
    }

    /// Accumulate `delta` on a span metric.
    pub fn add(&self, span: SpanId, key: &str, delta: f64) {
        self.state.borrow_mut()[span.0].metrics.add(key, delta);
    }

    /// Every write of one record under a single borrow of the span's map.
    pub fn with<R>(&self, span: SpanId, f: impl FnOnce(&mut Metrics) -> R) -> R {
        f(&mut self.state.borrow_mut()[span.0].metrics)
    }

    /// Overwrite a span metric with an exact value.
    pub fn set(&self, span: SpanId, key: &str, value: f64) {
        self.state.borrow_mut()[span.0].metrics.set(key, value);
    }

    /// Current value of a span metric.
    pub fn get(&self, span: SpanId, key: &str) -> f64 {
        self.state.borrow()[span.0].metrics.get(key)
    }

    /// Assemble the finished trace (the tracer can keep accumulating; this
    /// snapshots the current state).
    pub fn finish(&self) -> QueryTrace {
        let spans = self.state.borrow();
        // Rebuild the tree: children attach in creation order, which is
        // plan order.
        fn build(spans: &[SpanData], idx: usize) -> SpanNode {
            let children = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.parent == Some(idx))
                .map(|(i, _)| build(spans, i))
                .collect();
            SpanNode {
                label: spans[idx].label.clone(),
                kind: spans[idx].kind,
                metrics: spans[idx].metrics.clone(),
                children,
            }
        }
        let mut root = build(&spans, 0);
        if root.metrics.get(keys::MORSELS) == 0.0 {
            root.metrics.set(keys::MORSELS, 1.0);
        }
        let sink = self.sink.borrow();
        QueryTrace {
            root,
            events: sink.events.clone(),
            dropped_events: sink.dropped,
        }
    }
}

/// One node of a finished span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub label: String,
    pub kind: SpanKind,
    pub metrics: Metrics,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Fold `other` into `self`: metrics sum; children match by
    /// (kind, label) and merge recursively, unmatched children append.
    /// This mirrors how the engine merges per-morsel accounting.
    pub fn merge(&mut self, other: &SpanNode) {
        self.metrics.merge(&other.metrics);
        for oc in &other.children {
            match self
                .children
                .iter_mut()
                .find(|c| c.kind == oc.kind && c.label == oc.label)
            {
                Some(mine) => mine.merge(oc),
                None => self.children.push(oc.clone()),
            }
        }
    }

    /// Depth-first search by label.
    pub fn find(&self, label: &str) -> Option<&SpanNode> {
        if self.label == label {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(label))
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("label", self.label.as_str())
            .set("kind", self.kind.name())
            .set("metrics", self.metrics.to_json())
            .set(
                "children",
                self.children
                    .iter()
                    .map(|c| c.to_json())
                    .collect::<Vec<_>>(),
            )
    }
}

/// A finished query trace: the span tree plus the disk simulator's event
/// stream.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub root: SpanNode,
    pub events: Vec<TraceEvent>,
    /// Events beyond the sink's cap (counted, not stored).
    pub dropped_events: u64,
}

impl QueryTrace {
    /// Merge per-morsel traces in morsel order — the parallel analogue of
    /// the accounting merge. Returns `None` for an empty slice.
    pub fn merge_morsels(traces: &[QueryTrace]) -> Option<QueryTrace> {
        let mut iter = traces.iter();
        let mut merged = iter.next()?.clone();
        for t in iter {
            merged.root.merge(&t.root);
            merged.events.extend(t.events.iter().cloned());
            merged.dropped_events += t.dropped_events;
        }
        Some(merged)
    }

    /// Convenience: a root metric.
    pub fn metric(&self, key: &str) -> f64 {
        self.root.metrics.get(key)
    }

    /// Human-readable `EXPLAIN ANALYZE`-style tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, "", true, true, &mut out);
        out
    }

    /// The repo's own trace schema (span tree + event buffer size).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", "rodb-trace-v1")
            .set("root", self.root.to_json())
            .set("events_recorded", self.events.len())
            .set("events_dropped", self.dropped_events)
    }

    /// Chrome trace-event format (`chrome://tracing`, Perfetto, or
    /// `flamegraph.pl`-style folding on the `name` nesting). Spans become
    /// complete (`"ph": "X"`) events laid out on the modelled-CPU
    /// timeline — children stack sequentially inside their parent — and
    /// disk-simulator events become instant events on a second track at
    /// their simulated timestamps.
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::new();
        fn span_events(node: &SpanNode, start_us: f64, tid: u64, out: &mut Vec<Json>) {
            let dur_us = (node.metrics.get(keys::CPU_TOTAL_S) * 1e6).max(0.0);
            let mut args = Json::obj();
            for (k, v) in node.metrics.iter() {
                args = args.set(k, v);
            }
            out.push(
                Json::obj()
                    .set("name", node.label.as_str())
                    .set("cat", node.kind.name())
                    .set("ph", "X")
                    .set("ts", start_us)
                    .set("dur", dur_us)
                    .set("pid", 1u64)
                    .set("tid", tid)
                    .set("args", args),
            );
            let mut child_start = start_us;
            for c in &node.children {
                span_events(c, child_start, tid, out);
                child_start += (c.metrics.get(keys::CPU_TOTAL_S) * 1e6).max(0.0);
            }
        }
        span_events(&self.root, 0.0, 1, &mut events);
        for e in &self.events {
            events.push(
                Json::obj()
                    .set("name", e.kind.name())
                    .set("cat", "io")
                    .set("ph", "i")
                    .set("s", "t")
                    .set("ts", e.ts_s * 1e6)
                    .set("pid", 1u64)
                    .set("tid", 2u64)
                    .set(
                        "args",
                        Json::obj()
                            .set("file", e.file)
                            .set("page", e.page)
                            .set("count", e.count),
                    ),
            );
        }
        Json::obj()
            .set("traceEvents", events)
            .set("displayTimeUnit", "ms")
    }

    /// Write both trace formats under `dir` (default `results/traces/`):
    /// `<name>.trace.json` (span schema) and `<name>.chrome.json`.
    pub fn save(&self, dir: &str, name: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let base = std::path::Path::new(dir);
        let span_path = base.join(format!("{name}.trace.json"));
        std::fs::write(&span_path, self.to_json().pretty())?;
        std::fs::write(
            base.join(format!("{name}.chrome.json")),
            self.to_chrome_json().pretty(),
        )?;
        Ok(span_path)
    }
}

fn fmt_metric(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1.0e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 0.001 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// The disk counts `explain()` prints beside a span's I/O, each read from
/// the span's `io.*` key and shown when non-zero.
const IO_COUNTS: [(&str, &str); 8] = [
    ("bursts", "io.bursts"),
    ("zone_skips", "io.pages_skipped"),
    ("retries", "io.recovery.retries"),
    ("repairs", "io.recovery.repairs"),
    ("quarantined", "io.recovery.quarantined_pages"),
    ("dropped_rows", "io.recovery.dropped_rows"),
    ("cache_hits", "io.cache.hits"),
    ("cache_evictions", "io.cache.evictions"),
];

fn render_node(node: &SpanNode, prefix: &str, last: bool, is_root: bool, out: &mut String) {
    let connector = if is_root {
        String::new()
    } else if last {
        format!("{prefix}└─ ")
    } else {
        format!("{prefix}├─ ")
    };
    let m = &node.metrics;
    let mut line = format!("{connector}{}", node.label);
    let mut push = |text: String| {
        line.push_str("  ");
        line.push_str(&text);
    };
    if m.get(keys::MORSELS) > 1.0 {
        push(format!("[{} morsels]", m.get(keys::MORSELS) as u64));
    }
    if m.get(keys::ROWS) > 0.0 || node.kind != SpanKind::Phase {
        push(format!("rows={}", m.get(keys::ROWS) as u64));
    }
    let cpu = m.get(keys::CPU_TOTAL_S);
    if cpu > 0.0 {
        push(format!("cpu={}s", fmt_metric(cpu)));
    }
    let io = m.get(keys::IO_S);
    if io > 0.0 {
        push(format!(
            "io={}s ({} MB)",
            fmt_metric(io),
            fmt_metric(m.get(keys::IO_BYTES) / 1.0e6)
        ));
    }
    for (label, key) in IO_COUNTS {
        let n = m.get(key);
        if n > 0.0 {
            push(format!("{label}={}", n as u64));
        }
    }
    let wall = m.get(keys::WALL_S);
    if wall > 0.0 {
        push(format!("wall={}s", fmt_metric(wall)));
    }
    out.push_str(&line);
    out.push('\n');
    let child_prefix = if is_root {
        String::new()
    } else if last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}│  ")
    };
    for (i, c) in node.children.iter().enumerate() {
        render_node(c, &child_prefix, i + 1 == node.children.len(), false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_build_a_tree() {
        let t = Tracer::new();
        let scan = t.span(ROOT, "scan", SpanKind::Scan);
        let phase = t.span(scan, "decode", SpanKind::Phase);
        t.add(scan, keys::ROWS, 100.0);
        t.add(scan, keys::ROWS, 50.0);
        t.add(phase, keys::CPU_TOTAL_S, 0.25);
        t.add(ROOT, keys::CPU_TOTAL_S, 1.0);
        let trace = t.finish();
        assert_eq!(trace.root.kind, SpanKind::Query);
        assert_eq!(trace.root.children.len(), 1);
        let s = &trace.root.children[0];
        assert_eq!(s.metrics.get(keys::ROWS), 150.0);
        assert_eq!(s.children[0].metrics.get(keys::CPU_TOTAL_S), 0.25);
        assert_eq!(trace.metric(keys::MORSELS), 1.0);
    }

    #[test]
    fn morsel_merge_sums_matched_paths() {
        let make = |rows: f64| {
            let t = Tracer::new();
            let scan = t.span(ROOT, "scan", SpanKind::Scan);
            t.add(scan, keys::ROWS, rows);
            t.add(ROOT, keys::CPU_TOTAL_S, rows / 100.0);
            t.finish()
        };
        let merged = QueryTrace::merge_morsels(&[make(100.0), make(200.0), make(4.0)]).unwrap();
        assert_eq!(merged.metric(keys::MORSELS), 3.0);
        assert_eq!(merged.root.children[0].metrics.get(keys::ROWS), 304.0);
        assert!((merged.metric(keys::CPU_TOTAL_S) - 3.04).abs() < 1e-12);
        assert!(QueryTrace::merge_morsels(&[]).is_none());
    }

    #[test]
    fn op_span_adopts_pending_inputs() {
        // Bottom-up construction: scan wrapped first, then the aggregate.
        let t = Tracer::new();
        let scan = t.span(ROOT, "scan", SpanKind::Scan);
        let decode = t.span(scan, "decode", SpanKind::Phase);
        t.add(decode, "cnt.uops", 5.0);
        let agg = t.op_span("aggregate[hash]", SpanKind::Agg);
        t.add(agg, keys::ROWS, 10.0);
        let trace = t.finish();
        // The aggregate sits under the root, the scan under the aggregate.
        assert_eq!(trace.root.children.len(), 1);
        let a = &trace.root.children[0];
        assert_eq!(a.label, "aggregate[hash]");
        assert_eq!(a.children.len(), 1);
        assert_eq!(a.children[0].label, "scan");
        assert_eq!(a.children[0].children[0].label, "decode");
    }

    #[test]
    fn explain_renders_every_span() {
        let t = Tracer::new();
        let agg = t.span(ROOT, "aggregate[hash]", SpanKind::Agg);
        let scan = t.span(agg, "scan[column]", SpanKind::Scan);
        t.add(scan, keys::ROWS, 42.0);
        t.add(scan, keys::IO_S, 1.5);
        t.add(scan, keys::IO_BYTES, 3.0e6);
        let text = t.finish().explain();
        assert!(text.contains("query"));
        assert!(text.contains("aggregate[hash]"));
        assert!(text.contains("scan[column]"));
        assert!(text.contains("rows=42"));
        assert!(text.contains("io=1.5"));
    }

    #[test]
    fn chrome_export_nests_children_on_the_cpu_timeline() {
        let t = Tracer::new();
        let scan = t.span(ROOT, "scan", SpanKind::Scan);
        t.add(ROOT, keys::CPU_TOTAL_S, 2.0);
        t.add(scan, keys::CPU_TOTAL_S, 1.5);
        let j = t.finish().to_chrome_json();
        let events = j.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.5e6));
        // Round-trips through the parser.
        assert!(Json::parse(&j.pretty()).is_ok());
    }
}
