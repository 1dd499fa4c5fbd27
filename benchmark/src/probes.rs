//! Per-layer probes of the traced run: each times one public function of one
//! layer on a small probe data set, so a layer's figure can move only when
//! that layer changes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rodb::compress::KernelTier;
use rodb::core::QueryBuilder;
use rodb::engine::{
    run_to_completion, AggSpec, AggStrategy, Aggregate, ExecContext, MemScan, Operator, ScanLayout,
};
use rodb::storage::page::crc32;
use rodb::storage::wal::replay;
use rodb::storage::{BuildLayouts, ColumnPage, Table, Wal, WalRecord, WriteOptimizedStore};
use rodb::tpch::{
    load_lineitem, load_orders, load_rows, orders_schema, orders_z_compression, LineitemGen,
    OrdersGen, Variant,
};
use rodb::trace::MetricsRegistry;
use rodb::types::{DataType, HardwareConfig, SystemConfig, Value};

use crate::cells::{solo_sys, threshold, Cell, Path};
use crate::metrics::Values;
use crate::oracle::pad;
use crate::run::{header_line, Args, Outcome, TracedCycle};
use crate::spans::Spans;
use crate::stats::median;
use crate::tables::{TableId, PAGE};

/// Rows of the probe tables: large enough to time, small enough that every
/// traced run can afford all probes.
const PROBE_ROWS: u64 = 20_000;
const REPS: usize = 5;

/// Median wall seconds of `REPS` executions of `f`.
fn timed(mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// What every traced run ends with: the per-cell table, the two overhead
/// figures, the workload-independent probes, and the span list.
///
/// `trace.overhead_frac` is one pass over `cells` with
/// `QueryBuilder::trace(true)` against `untraced_run_s`, the wall of the
/// same pass without it.
pub fn finish_traced(
    out: &mut Outcome,
    spans: Spans,
    cycles: &mut [TracedCycle],
    cells: &[Cell],
    untraced_run_s: f64,
    args: &Args,
) {
    out.report.push(header_line());
    out.report.append(&mut cycles[0].lines);
    out.extra.set("traced_cycles", cycles.len() as f64);

    let t0 = Instant::now();
    for cell in cells {
        black_box(cell.builder().trace(true).run().map(|r| r.report.rows).ok());
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let m = &mut out.metrics;
    m.set("trace.overhead_frac", traced_s / untraced_run_s - 1.0);

    // `bench.probe_overhead_frac`: the share of the traced operations' wall
    // that no layer span covers — the benchmark's own recording and glue.
    let (mut roots, mut uncovered) = (0u64, 0u64);
    for (s, own_ns) in spans.spans().iter().zip(spans.self_ns()) {
        if s.parent.is_none() && s.name.starts_with("cell:") {
            roots += s.duration_ns();
            uncovered += own_ns;
        }
    }
    m.set(
        "bench.probe_overhead_frac",
        uncovered as f64 / roots.max(1) as f64,
    );

    layer_probes(args, m);
    out.spans = Some(spans.to_json());
}

fn kernel_tier_number(tier: KernelTier) -> f64 {
    match tier {
        KernelTier::Scalar => 0.0,
        KernelTier::Sse2 => 1.0,
        KernelTier::Avx2 => 2.0,
        KernelTier::Neon => 3.0,
    }
}

/// Decode throughput of one stored column: `block` is what the fast path
/// calls per page (the integer kernels; text has no kernel and falls back
/// to the cursor), `scalar` what the pipelined scanner calls (the cursor).
fn decode_probe(table: &Table, col: usize, block: bool) -> f64 {
    let storage = &table
        .col
        .as_ref()
        .expect("probe tables have columns")
        .columns[col];
    let dtype = table.schema.dtype(col);
    let pages: Vec<ColumnPage> = (0..storage.pages)
        .map(|i| storage.page(i, dtype).expect("probe page parses"))
        .collect();
    // Enough passes over the column for a timing of a few milliseconds.
    let kernel = block && dtype == DataType::Int;
    let values = if kernel { 2_000_000 } else { 200_000 };
    let passes = (values / table.row_count.max(1)).max(1);
    let mut ints = Vec::new();
    let mut raw = Vec::new();
    let s = timed(|| {
        for _ in 0..passes {
            for page in &pages {
                let pv = page.values(&storage.comp);
                if kernel {
                    ints.clear();
                    pv.decode_ints_into(&mut ints).expect("decode");
                    black_box(ints.last());
                } else {
                    let mut cur = pv.cursor();
                    for _ in 0..pv.count() {
                        raw.clear();
                        cur.next_raw(&mut raw).expect("decode");
                    }
                    black_box(raw.first());
                }
            }
        }
    });
    (passes * table.row_count) as f64 / s / 1e6
}

/// Everything that does not depend on the workload.
fn layer_probes(args: &Args, m: &mut Values) {
    let rows = PROBE_ROWS.min(args.rows);
    let both = BuildLayouts::both();
    let orders_z = load_orders(rows, args.seed, PAGE, both, Variant::Compressed).expect("probe");
    let lineitem_z =
        load_lineitem(rows, args.seed, PAGE, both, Variant::Compressed).expect("probe");
    let schema = orders_schema();
    let comps = orders_z_compression().expect("static codecs");
    let order_rows: Vec<Vec<Value>> = OrdersGen::new(rows, args.seed).collect();

    // --- storage + tpch ---
    let file = &lineitem_z.row.as_ref().expect("row layout").file;
    let s = timed(|| {
        black_box(crc32(black_box(file)));
    });
    m.set("storage.crc32_gbps", file.len() as f64 / s / 1e9);

    let cols = &lineitem_z.col.as_ref().expect("column layout").columns;
    let pages: usize = cols.iter().map(|c| c.pages).sum();
    let s = timed(|| {
        for (c, col) in cols.iter().enumerate() {
            for i in 0..col.pages {
                black_box(
                    col.page(i, lineitem_z.schema.dtype(c))
                        .expect("parse")
                        .count(),
                );
            }
        }
    });
    m.set("storage.page_parse_ns", s * 1e9 / pages as f64);

    let s = timed(|| {
        let input = order_rows.clone();
        let t = load_rows(
            "probe",
            schema.clone(),
            comps.clone(),
            input.into_iter(),
            PAGE,
            both,
        );
        black_box(t.expect("load").row_count);
    });
    let clone_s = timed(|| {
        black_box(order_rows.clone().len());
    });
    m.set("storage.load_rows_per_s", rows as f64 / (s - clone_s));

    let s = timed(|| {
        black_box(LineitemGen::new(rows, args.seed).fold(0, |n, r| n + r.len()));
    });
    m.set("tpch.gen_rows_per_s", rows as f64 / s);

    let records: Vec<WalRecord> = order_rows
        .chunks(50)
        .map(|c| WalRecord::Insert { rows: c.to_vec() })
        .collect();
    let mut image = Vec::new();
    let s = timed(|| {
        let mut wal = Wal::new(schema.clone());
        for r in &records {
            wal.append(r).expect("append");
        }
        image = wal.image().to_vec();
    });
    m.set("storage.wal_append_mb_per_s", image.len() as f64 / s / 1e6);
    let s = timed(|| {
        black_box(replay(&schema, &image).replayed);
    });
    m.set("storage.wal_replay_mb_per_s", image.len() as f64 / s / 1e6);

    let staged = (rows as usize / 20).max(1);
    let mut wos = WriteOptimizedStore::new(orders_z.schema.clone());
    for r in order_rows.iter().take(staged) {
        wos.insert(r.clone()).expect("stage");
    }
    let s = timed(|| {
        let merged = wos.merge_prefix_into(staged, &orders_z, &comps, Some(1));
        black_box(merged.expect("merge").row_count);
    });
    m.set(
        "storage.wos_merge_rows_per_s",
        (rows as usize + staged) as f64 / s,
    );

    // --- compress ---
    // Columns by codec: o_custkey plain, o_orderdate pack-14, l_discount
    // dict-4, o_orderkey delta-8, l_comment pack-28-bytes.
    for (codec, table, col) in [
        ("plain", &orders_z, 2),
        ("bitpack", &orders_z, 0),
        ("dict", &lineitem_z, 11),
        ("fordelta", &orders_z, 1),
        ("textpack", &lineitem_z, 10),
    ] {
        for (kind, block) in [("block", true), ("scalar", false)] {
            m.set(
                &format!("compress.decode_{kind}.{codec}_mvals_per_s"),
                decode_probe(table, col, block),
            );
        }
    }
    let dates = &orders_z.col.as_ref().expect("column layout").columns[0];
    let page = dates.page(0, DataType::Int).expect("parse");
    let pv = page.values(&dates.comp);
    let gets = 200_000;
    let mut raw = Vec::new();
    let s = timed(|| {
        let mut slot = 0usize;
        for _ in 0..gets {
            raw.clear();
            pv.write_raw(slot, &mut raw).expect("get");
            // A stride coprime with any page count visits slots in
            // scattered order.
            slot = (slot + 7919) % pv.count();
        }
        black_box(raw.first());
    });
    m.set("compress.get_ns", s * 1e9 / gets as f64);
    m.set(
        "compress.kernel_tier",
        kernel_tier_number(rodb::compress::active_tier()),
    );

    // --- engine: operators over pre-materialized rows (no page, no decode) ---
    // Keys in runs of ten, so both grouping strategies see the same groups.
    let mem_rows: Arc<Vec<Vec<Value>>> = Arc::new(
        order_rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut r = pad(&schema, r.clone());
                r[6] = Value::Int(i as i32 / 10);
                r
            })
            .collect(),
    );
    let over_mem = |agg: Option<AggStrategy>| {
        timed(|| {
            let ctx = ExecContext::default_ctx();
            let scan = MemScan::new(&schema, mem_rows.clone(), vec![6, 5], vec![], 0, &ctx);
            let mut op: Box<dyn Operator> = Box::new(scan.expect("memscan"));
            if let Some(strategy) = agg {
                let specs = vec![AggSpec::count(), AggSpec::sum(1)];
                op = Box::new(Aggregate::new(op, Some(0), specs, strategy, &ctx).expect("agg"));
            }
            black_box(run_to_completion(op.as_mut(), &ctx).expect("run").rows);
        })
    };
    let mem_s = over_mem(None);
    let per_tuple = |s: f64| s * 1e9 / rows as f64;
    m.set("engine.memscan.ns_per_tuple", per_tuple(mem_s));
    m.set(
        "engine.agg.hash_ns_per_tuple",
        per_tuple(over_mem(Some(AggStrategy::Hash)) - mem_s),
    );
    m.set(
        "engine.agg.sorted_ns_per_tuple",
        per_tuple(over_mem(Some(AggStrategy::Sorted)) - mem_s),
    );

    let ctx = ExecContext::default_ctx();
    let mut scan = MemScan::new(&schema, mem_rows.clone(), (0..7).collect(), vec![], 0, &ctx)
        .expect("memscan");
    let mut blocks = Vec::new();
    while let Some(b) = scan.next().expect("memscan") {
        blocks.push(b);
    }
    let s = timed(|| {
        for b in &blocks {
            black_box(b.rows().expect("rows").len());
        }
    });
    m.set("engine.block.rows_ns_per_row", per_tuple(s));

    let lineitem_z = Arc::new(lineitem_z);
    let scan = |threads: usize| {
        let qb = QueryBuilder::new(
            lineitem_z.clone(),
            HardwareConfig::default(),
            solo_sys(Path::ColScalar),
        )
        .layout(ScanLayout::Column)
        .select_first(4)
        .filter_pred(rodb::engine::Predicate::lt(
            0,
            threshold(TableId::LineitemZ, 0.10),
        ))
        .expect("predicate")
        .threads(threads);
        timed(|| {
            black_box(qb.run().expect("probe scan").report.rows);
        })
    };
    m.set("engine.sched.speedup_2t", scan(1) / scan(2));

    // --- core + trace ---
    let tiny = load_orders(
        100,
        args.seed,
        PAGE,
        BuildLayouts::row_only(),
        Variant::Plain,
    );
    let qb = QueryBuilder::new(
        Arc::new(tiny.expect("one-page table")),
        HardwareConfig::default(),
        SystemConfig::default(),
    )
    .layout(ScanLayout::Row)
    .select_first(1);
    let runs = 200;
    let s = timed(|| {
        for _ in 0..runs {
            black_box(qb.run().expect("one-page query").report.rows);
        }
    });
    m.set("core.query_fixed_us", s * 1e6 / runs as f64);

    let calls = 100_000;
    let s = timed(|| {
        for _ in 0..calls {
            MetricsRegistry::counter_add("bench.probe", 1.0);
        }
    });
    m.set("trace.registry_ns_per_call", s * 1e9 / calls as f64);
}
