//! Span-recording operator wrapper and trace finalization.
//!
//! When an [`ExecContext`] carries a tracer (see
//! [`ExecContext::with_tracing`]), every plan node built through
//! [`crate::plan::ScanSpec`] or the query builder is wrapped in a
//! [`TracedOp`]. The wrapper snapshots the context's accounting — the
//! meter's per-phase [`CpuCounters`], [`IoStats`] and the simulated disk
//! clock — around each `next()` call and accumulates the
//! deltas on the node's span. Deltas are *inclusive*: a parent's span
//! includes the work of the children pulled inside its `next()`, which is
//! the EXPLAIN ANALYZE convention.
//!
//! [`finish_query_trace`] then converts raw counter deltas into the
//! paper's modelled CPU seconds per span, synthesizes [`SpanKind::Phase`]
//! children (decode, predicate, gather…) from each node's *self* share of
//! the phase profile, and overwrites the root span with the final
//! [`RunReport`] numbers so the trace reconciles with the engine's own
//! accounting exactly — including the nonlinear prefetch-overlap term and
//! the parallel executor's head-switch seek recharge, neither of which
//! distributes over per-span summation.

use std::sync::{Arc, LazyLock};
use std::time::Instant;

use rodb_cpu::{CpuBreakdown, CpuCounters, CpuPhase, PhaseProfile};
use rodb_io::IoStats;
use rodb_trace::{keys, Field, Keys, Metrics, QueryTrace, SpanId, SpanKind, SpanNode, Tracer};
use rodb_types::Result;

use crate::block::TupleBlock;
use crate::exec::RunReport;
use crate::op::{ExecContext, Operator};

/// Where each accounted struct lands on a span. The key lists come from the
/// structs' field tables, so a field added to one of them reaches every
/// span, the root and the phase children with no edit here.
struct SpanKeys {
    /// Raw event counters: `cnt.<field>`.
    cnt: Keys<CpuCounters>,
    /// Modelled seconds: `cpu.<field>_s`, beside [`keys::CPU_TOTAL_S`].
    cpu: Keys<CpuBreakdown>,
    /// Disk counters: `io.<field>`, beside [`keys::IO_S`].
    io: Keys<IoStats>,
    /// Per-phase counter deltas, `phase.<name>.<field>` in
    /// [`CpuPhase::ALL`] order; [`annotate`] folds them into phase child
    /// spans and removes the raw keys.
    phase: Vec<Keys<CpuCounters>>,
}

static KEYS: LazyLock<SpanKeys> = LazyLock::new(|| SpanKeys {
    cnt: Keys::new("cnt.", ""),
    cpu: Keys::new("cpu.", "_s"),
    io: Keys::new("io.", ""),
    phase: CpuPhase::ALL
        .iter()
        .map(|p| Keys::new(&format!("phase.{}.", p.name()), ""))
        .collect(),
});

/// The part of the breakdown a synthesized phase span carries.
const PHASE_CPU: [&str; 3] = [keys::CPU_TOTAL_S, keys::CPU_USR_UOP_S, keys::CPU_USR_L2_S];

/// A breakdown as span metrics: its total, then every component.
fn write_cpu(b: &CpuBreakdown, mut put: impl FnMut(&str, f64)) {
    put(keys::CPU_TOTAL_S, b.total());
    KEYS.cpu.write(b, put);
}

/// An operator wrapped with span recording. Built only when the context
/// traces; untraced plans never see this type.
pub struct TracedOp {
    inner: Box<dyn Operator>,
    ctx: ExecContext,
    tracer: Tracer,
    span: SpanId,
}

impl TracedOp {
    /// Wrap `inner` in a span of `kind` — or return it untouched when the
    /// context does not trace (the zero-overhead default).
    pub fn wrap(inner: Box<dyn Operator>, kind: SpanKind, ctx: &ExecContext) -> Box<dyn Operator> {
        let Some(tracer) = &ctx.tracer else {
            return inner;
        };
        let span = tracer.op_span(&inner.label(), kind);
        Box::new(TracedOp {
            inner,
            ctx: ctx.clone(),
            tracer: tracer.clone(),
            span,
        })
    }
}

impl Operator for TracedOp {
    fn schema(&self) -> &Arc<rodb_types::Schema> {
        self.inner.schema()
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        let before = Snapshot::take(&self.ctx);
        let out = self.inner.next();
        let block = out.as_ref().ok().and_then(|b| b.as_ref());
        before.record(&self.ctx, &self.tracer, self.span, block.map(|b| b.count()));
        out
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Record a span around an arbitrary piece of traced work (used where an
/// operator is consumed by value — e.g. the parallel executor folding an
/// [`crate::agg::Aggregate`] into a partial — and cannot be wrapped).
pub fn record_block<T>(
    ctx: &ExecContext,
    label: &str,
    kind: SpanKind,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let Some(tracer) = ctx.tracer.clone() else {
        return f();
    };
    let span = tracer.op_span(label, kind);
    let before = Snapshot::take(ctx);
    let out = f();
    before.record(ctx, &tracer, span, None);
    out
}

/// Accounting state captured before an operator call; [`Snapshot::record`]
/// charges the difference to a span.
struct Snapshot {
    phases: PhaseProfile,
    io: IoStats,
    io_elapsed: f64,
    wall: Instant,
}

impl Snapshot {
    fn take(ctx: &ExecContext) -> Snapshot {
        let meter = ctx.meter.borrow();
        let disk = ctx.disk.borrow();
        Snapshot {
            phases: meter.phases().clone(),
            io: *disk.stats(),
            io_elapsed: disk.elapsed(),
            wall: Instant::now(),
        }
    }

    /// Charge one call to `span` — and the block it produced, if any — under
    /// a single borrow of the tracer.
    fn record(&self, ctx: &ExecContext, tracer: &Tracer, span: SpanId, block_rows: Option<usize>) {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let meter = ctx.meter.borrow();
        let disk = ctx.disk.borrow();
        tracer.with(span, |m| {
            m.add(keys::WALL_S, wall_s);
            KEYS.cnt
                .write(&meter.counters().delta(&self.phases.total()), |k, v| {
                    m.add(k, v)
                });
            for ((phase, after), pk) in meter.phases().iter().zip(&KEYS.phase) {
                pk.write(&after.delta(self.phases.get(phase)), |k, v| m.add(k, v));
            }
            m.add(keys::IO_S, disk.elapsed() - self.io_elapsed);
            KEYS.io
                .write(&disk.stats().delta(&self.io), |k, v| m.add(k, v));
            m.add(keys::CALLS, 1.0);
            if let Some(rows) = block_rows {
                m.add(keys::ROWS, rows as f64);
                m.add(keys::BLOCKS, 1.0);
            }
        });
    }
}

/// Assemble the finished trace from a traced context: convert raw counter
/// deltas to modelled CPU seconds, synthesize phase child spans, and pin
/// the root to the report's exact totals. Returns `None` when the context
/// does not trace.
pub fn finish_query_trace(ctx: &ExecContext, report: &RunReport) -> Option<QueryTrace> {
    let tracer = ctx.tracer.as_ref()?;
    let mut trace = tracer.finish();
    annotate(&mut trace.root, ctx);
    apply_report(&mut trace, report);
    Some(trace)
}

/// Overwrite the root span with the report's totals (the single source of
/// truth). Used both per morsel and — through the parallel merge — on the
/// final merged trace, so span totals reconcile with the engine exactly.
pub fn apply_report(trace: &mut QueryTrace, report: &RunReport) {
    let m = &mut trace.root.metrics;
    // `set`, not `add`: the tier is an ordinal (0 scalar, 1 SSE2, 2 AVX2,
    // 3 NEON), so it must survive morsel merges unsummed.
    m.set(
        keys::KERNEL_TIER,
        rodb_compress::simd::active_tier() as u8 as f64,
    );
    m.set(keys::ROWS, report.rows as f64);
    m.set(keys::BLOCKS, report.blocks as f64);
    write_cpu(&report.cpu, |k, v| m.set(k, v));
    m.set(keys::IO_S, report.io_s());
    KEYS.io.write(&report.io, |k, v| m.set(k, v));
    m.set(keys::ELAPSED_S, report.elapsed_s);
}

/// Top-down annotation: each node's inclusive raw counters become modelled
/// CPU seconds, and its *self* share of the phase profile (inclusive minus
/// direct children, whose keys are still raw at this point) becomes
/// synthesized [`SpanKind::Phase`] children.
fn annotate(node: &mut SpanNode, ctx: &ExecContext) {
    let params = *ctx.meter.borrow().params();
    let modelled =
        |c: &CpuCounters| CpuBreakdown::from_counters(c, &ctx.hw, &params).scaled(ctx.row_scale);
    let c = KEYS.cnt.read(|k| node.metrics.get(k));
    if c != CpuCounters::default() {
        write_cpu(&modelled(&c), |k, v| node.metrics.set(k, v));
    }

    let mut phases = Vec::new();
    for (phase, pk) in CpuPhase::ALL.iter().zip(&KEYS.phase) {
        // Self share: the inclusive deltas minus the direct children's
        // (their phase keys are still raw — they have not recursed yet).
        let mut own = pk.read(|k| node.metrics.get(k));
        for child in &node.children {
            own = own.delta(&pk.read(|k| child.metrics.get(k)));
        }
        let own = own.map(&mut |v| v.max(0.0));
        if own == CpuCounters::default() {
            continue;
        }
        let mut metrics = Metrics::default();
        write_cpu(&modelled(&own), |k, v| {
            if PHASE_CPU.contains(&k) {
                metrics.set(k, v);
            }
        });
        KEYS.cnt.write(&own, |k, v| metrics.add(k, v));
        phases.push(SpanNode {
            label: format!("phase:{}", phase.name()),
            kind: SpanKind::Phase,
            metrics,
            children: Vec::new(),
        });
    }
    node.metrics.remove_prefix("phase.");
    node.children.append(&mut phases);

    for child in &mut node.children {
        if child.kind != SpanKind::Phase {
            annotate(child, ctx);
        } else {
            // Synthesized above (or merged in); raw keys already folded.
            child.metrics.remove_prefix("phase.");
        }
    }
}
