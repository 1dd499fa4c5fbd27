//! `ingest_snapshot`: writes beside reads. Acknowledged insert batches go
//! through the WAL into the WOS, snapshot queries read ROS + WOS tail on all
//! three scan paths, every fourth cycle merges with a query on the pinned
//! snapshot in between, and each epoch ends with a recovery from the WAL
//! image.
//!
//! The table grows, so the unit of repetition is the *epoch*: a fresh
//! `IngestStore` over the same base table fed the same seeded batches.
//! Every epoch does identical work, which lets the run measure for a
//! requested time and still compare like with like.

use std::sync::Arc;
use std::time::Instant;

use rodb::compress::ColumnCompression;
use rodb::core::{IngestSnapshot, IngestStore};
use rodb::storage::{BuildLayouts, Table};
use rodb::tpch::{orders_schema, orders_z_compression, OrdersGen};
use rodb::types::{IngestSpec, SplitMix64, Value};

use crate::cells::{threshold, Cell, Path};
use crate::oracle::{self, pad, same_rows, AggDef, Func, Query};
use crate::probes;
use crate::run::{budget_spent, timing_metrics, traced_metrics, Args, Check, Outcome, TracedCycle};
use crate::spans::Spans;
use crate::stats::{median, median_by, quiet_wall};
use crate::tables::{self, file_bytes, TableId};

const EPOCH_CYCLES: usize = 8;
const BATCHES_PER_CYCLE: usize = 20;
const BATCH_ROWS: usize = 50;
const MERGE_EVERY: usize = 4;
/// `o_orderkey`: the base table is sorted on it and every merge re-sorts.
const KEY_COL: usize = 1;

const PATHS: [Path; 3] = [Path::Row, Path::ColScalar, Path::ColFast];
/// Query kinds: {scan, hash-agg} on each path, then the pinned-snapshot scan.
const KINDS: usize = 7;
const PINNED: usize = 6;

struct Plan {
    base: Arc<Table>,
    comps: Vec<ColumnCompression>,
    /// One epoch's insert batches. Rows come from the seeded generator with
    /// keys drawn inside the base table's key span, so the FOR-delta key
    /// column stays encodable after every merge.
    batches: Vec<Vec<Vec<Value>>>,
    t10: i32,
}

impl Plan {
    fn new(base: Arc<Table>, args: &Args) -> Plan {
        let mut rng = SplitMix64::new(args.seed);
        let fresh = OrdersGen::new(
            (EPOCH_CYCLES * BATCHES_PER_CYCLE * BATCH_ROWS) as u64,
            args.seed ^ 0x1469_7E57,
        );
        let rows: Vec<Vec<Value>> = fresh
            .map(|mut r| {
                r[KEY_COL] = Value::Int(rng.range_i32(1, args.rows as i32 + 1));
                r
            })
            .collect();
        Plan {
            base,
            comps: orders_z_compression().expect("static codecs"),
            batches: rows.chunks(BATCH_ROWS).map(<[_]>::to_vec).collect(),
            t10: threshold(TableId::OrdersZ, 0.10),
        }
    }

    fn store(&self) -> IngestStore {
        IngestStore::new(
            self.base.clone(),
            self.comps.clone(),
            Some(KEY_COL),
            IngestSpec::manual(),
        )
        .expect("ingest store over the base table")
    }

    /// Snapshot query `kind` (0..6: path-major, scan then aggregate).
    fn cell(&self, snap: &IngestSnapshot, path: Path, aggregate: bool, name: &str) -> Cell {
        // o_orderdate 0, o_orderpriority 4, o_totalprice 5.
        let query = if aggregate {
            Query {
                projection: vec![4, 5],
                lt: Some((0, self.t10)),
                agg: Some(AggDef {
                    group_col: 4,
                    funcs: vec![(Func::Count, 4), (Func::Sum, 5), (Func::Max, 5)],
                    sorted: false,
                }),
            }
        } else {
            Query {
                projection: (0..4).collect(),
                lt: Some((0, self.t10)),
                agg: None,
            }
        };
        Cell {
            name: name.to_string(),
            table: snap.ros.clone(),
            path,
            query,
            collect: true,
            tail: Some(snap.tail.clone()),
        }
    }
}

fn kind_name(kind: usize) -> String {
    if kind == PINNED {
        return "snap.pinned.col_fast.scan".into();
    }
    let what = if kind % 2 == 1 { "hash_agg" } else { "scan" };
    format!("snap.{}.{what}", PATHS[kind / 2].name())
}

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    /// Untimed first epoch: every query's rows against the oracle.
    Verify,
    /// Timed: row counts against the verified epoch's.
    Timed,
    /// Spans on, every query replayed as a staircase.
    Traced,
}

#[derive(Default)]
struct Epoch {
    wall_s: f64,
    query_s: [Vec<f64>; KINDS],
    insert_s: f64,
    merge_s: Vec<f64>,
    recover_s: f64,
    inserted_rows: u64,
    scanned_rows: u64,
    /// Deterministic byte counts: WAL, Σ rebuilt ROS, final ROS, final rows.
    wal_bytes: u64,
    rebuilt_bytes: u64,
    final_bytes: u64,
    final_rows: u64,
    traced: TracedCycle,
}

struct Runner<'a> {
    plan: &'a Plan,
    mode: Mode,
    spans: &'a mut Spans,
    check: &'a mut Check,
    /// Result row count of every query of an epoch, in execution order.
    expect: &'a mut Vec<u64>,
    next_query: usize,
    /// Verify mode: the oracle's view of all acknowledged rows.
    acknowledged: Vec<Vec<Value>>,
    epoch: Epoch,
}

impl Runner<'_> {
    fn query(&mut self, cell: &Cell, kind: usize) {
        self.epoch.scanned_rows += cell.input_rows();
        let slot = self.next_query;
        self.next_query += 1;
        if self.mode == Mode::Traced {
            let replay = self.epoch.traced.add_cell(cell, 1, self.spans);
            self.check.record(replay.map(|_| ()));
            return;
        }
        self.spans.next_op();
        let open = self.spans.enter(&cell.name);
        let ran = cell.builder().run_collect();
        self.epoch.query_s[kind].push(self.spans.exit(open));
        let outcome = match (ran, self.mode) {
            (Err(e), _) => Err(format!("{}: {e}", cell.name)),
            (Ok(r), Mode::Verify) => {
                let expected = oracle::expected(self.acknowledged.iter(), &cell.query);
                self.expect.push(expected.len() as u64);
                // A merge re-sorts the store, so scans compare as multisets.
                if same_rows(&r.rows, &expected, false) {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: rows differ from the oracle ({} vs {})",
                        cell.name,
                        r.rows.len(),
                        expected.len()
                    ))
                }
            }
            (Ok(r), _) if self.expect.get(slot) == Some(&(r.rows.len() as u64)) => Ok(()),
            (Ok(r), _) => Err(format!("{}: {} result rows", cell.name, r.rows.len())),
        };
        self.check.record(outcome);
    }

    /// Time one write-path call under a span.
    fn write<T>(&mut self, name: &str, f: impl FnOnce() -> rodb::types::Result<T>) -> (f64, T) {
        let open = self.spans.enter(name);
        let done = f();
        let s = self.spans.exit(open);
        (s, done.unwrap_or_else(|e| panic!("{name} failed: {e}")))
    }

    fn run(mut self) -> Epoch {
        let plan = self.plan;
        let schema = orders_schema();
        let started = Instant::now();
        let mut st = plan.store();
        let mut batches = plan.batches.iter();
        for cycle in 0..EPOCH_CYCLES {
            for batch in batches.by_ref().take(BATCHES_PER_CYCLE) {
                let (s, ()) = self.write("core.ingest.insert", || st.insert(batch.clone()));
                self.epoch.insert_s += s;
                self.epoch.inserted_rows += batch.len() as u64;
                if self.mode == Mode::Verify {
                    self.acknowledged
                        .extend(batch.iter().map(|r| pad(&schema, r.clone())));
                }
            }
            let open = self.spans.enter("core.ingest.snapshot");
            let snap = st.snapshot();
            self.spans.exit(open);
            for kind in 0..PINNED {
                let cell = plan.cell(&snap, PATHS[kind / 2], kind % 2 == 1, &kind_name(kind));
                self.query(&cell, kind);
            }
            if cycle % MERGE_EVERY == MERGE_EVERY - 1 {
                let (begin_s, ()) = self.write("core.ingest.begin_merge", || st.begin_merge());
                // The pinned snapshot must still read its own epoch.
                let cell = plan.cell(&snap, Path::ColFast, false, &kind_name(PINNED));
                self.query(&cell, PINNED);
                let (commit_s, ros) = self.write("core.ingest.commit_merge", || st.commit_merge());
                self.epoch.merge_s.push(begin_s + commit_s);
                self.epoch.rebuilt_bytes += file_bytes(&ros).0;
            }
        }

        let image = st.wal_image().to_vec();
        let (recover_s, (recovered, _)) = self.write("core.ingest.recover", || {
            IngestStore::recover(
                plan.base.clone(),
                plan.comps.clone(),
                Some(KEY_COL),
                IngestSpec::manual(),
                &image,
                None,
            )
        });
        self.epoch.recover_s = recover_s;
        let (live, rec) = (st.ros(), recovered.ros());
        let same_pages = match (&live.row, &rec.row) {
            (Some(a), Some(b)) => a.file == b.file,
            _ => false,
        };
        let acknowledged = plan.base.row_count + self.epoch.inserted_rows;
        let recovered_rows = rec.row_count + recovered.wos_len() as u64;
        self.check.record(if !same_pages {
            Err("recovery rebuilt different row pages than the live store".into())
        } else if recovered_rows != acknowledged {
            Err(format!(
                "recovered store holds {recovered_rows} of {acknowledged} acknowledged rows"
            ))
        } else {
            Ok(())
        });

        self.epoch.wall_s = started.elapsed().as_secs_f64();
        self.epoch.wal_bytes = st.stats().wal_bytes;
        self.epoch.final_bytes = file_bytes(&live).0;
        self.epoch.final_rows = live.row_count + st.wos_len() as u64;
        self.epoch
    }
}

/// One epoch. `acknowledged` is the oracle's copy of the base rows in
/// `Mode::Verify` and empty otherwise.
fn run_epoch(
    plan: &Plan,
    mode: Mode,
    acknowledged: Vec<Vec<Value>>,
    spans: &mut Spans,
    check: &mut Check,
    expect: &mut Vec<u64>,
) -> Epoch {
    Runner {
        plan,
        mode,
        spans,
        check,
        expect,
        next_query: 0,
        acknowledged,
        epoch: Epoch::default(),
    }
    .run()
}

pub fn run(args: &Args) -> Outcome {
    let wanted = [(TableId::OrdersZ, BuildLayouts::both())];
    let mut loaded = tables::load(&wanted, args.rows, args.seed, !args.trace);
    let plan = Plan::new(loaded.get(TableId::OrdersZ).clone(), args);

    let mut out = Outcome::default();
    let mut expect = Vec::new();
    let mut untraced = Spans::new(false);
    let first = run_epoch(
        &plan,
        Mode::Verify,
        oracle::generate(TableId::OrdersZ, args.rows, args.seed),
        &mut untraced,
        &mut out.check,
        &mut expect,
    );

    if args.trace {
        traced(&plan, first, &mut expect, args, &mut out);
        return out;
    }

    let mut epochs = Vec::new();
    let started = Instant::now();
    while !budget_spent(started, epochs.len(), args.seconds) {
        epochs.push(run_epoch(
            &plan,
            Mode::Timed,
            Vec::new(),
            &mut untraced,
            &mut out.check,
            &mut expect,
        ));
    }

    let walls: Vec<f64> = epochs.iter().map(|e| e.wall_s).collect();
    let per_kind: Vec<Vec<f64>> = (0..KINDS)
        .map(|k| epochs.iter().flat_map(|e| e.query_s[k].clone()).collect())
        .collect();
    let per_op: Vec<(String, &[f64], usize)> = per_kind
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let per_epoch = if k == PINNED {
                EPOCH_CYCLES / MERGE_EVERY
            } else {
                EPOCH_CYCLES
            };
            (kind_name(k), s.as_slice(), per_epoch)
        })
        .collect();
    // Rows served by snapshot queries over the whole epoch's wall: inserts,
    // merges and the recovery are inside, so cost moved to the write side
    // shows here.
    timing_metrics(&mut out, epochs[0].scanned_rows, &walls, &per_op);
    let counts = &epochs[0];
    let width = plan.base.schema.logical_width() as u64;
    out.resource_metrics(
        &mut loaded,
        (counts.final_bytes + counts.wal_bytes) as f64 / (counts.final_rows * width * 2) as f64,
    );
    // Every epoch writes and recovers the same rows: quiet walls, as above.
    let write_s: Vec<f64> = epochs
        .iter()
        .map(|e| e.insert_s + e.merge_s.iter().sum::<f64>())
        .collect();
    let recover_s: Vec<f64> = epochs.iter().map(|e| e.recover_s).collect();
    out.extra.set(
        "ingest_rows_per_s",
        counts.inserted_rows as f64 / quiet_wall(&write_s),
    );
    out.extra.set("recover_s", quiet_wall(&recover_s));
    out.extra.set("recover_samples", epochs.len() as f64);
    out
}

/// Traced epochs: spans around every write-path call, a staircase per
/// snapshot query. Self times are per epoch here.
fn traced(plan: &Plan, first: Epoch, expect: &mut Vec<u64>, args: &Args, out: &mut Outcome) {
    let mut spans = Spans::new(true);
    let mut epochs = Vec::new();
    let started = Instant::now();
    while !budget_spent(started, epochs.len(), args.seconds) {
        epochs.push(run_epoch(
            plan,
            Mode::Traced,
            Vec::new(),
            &mut spans,
            &mut out.check,
            expect,
        ));
    }
    let mut cycles: Vec<TracedCycle> = epochs
        .iter_mut()
        .map(|e| std::mem::take(&mut e.traced))
        .collect();
    traced_metrics(&cycles, &mut out.metrics, &mut out.check);
    // One report line per query kind: the first cycle's six and the first
    // pinned.
    let mut seen = std::collections::BTreeSet::new();
    cycles[0]
        .lines
        .retain(|l| seen.insert(l.split_whitespace().next().map(str::to_string)));

    // The write path of the untraced first epoch is as good a sample as any.
    epochs.push(first);
    let m = &mut out.metrics;
    m.set(
        "core.ingest.insert_us_per_row",
        median_by(&epochs, |e| e.insert_s * 1e6 / e.inserted_rows as f64),
    );
    m.set(
        "core.ingest.merge_ms",
        median_by(&epochs, |e| median(&e.merge_s) * 1e3),
    );
    m.set(
        "core.ingest.recover_ms",
        median_by(&epochs, |e| e.recover_s * 1e3),
    );
    let e = &epochs[0];
    let ingested = e.inserted_rows * plan.base.schema.logical_width() as u64;
    m.set(
        "core.ingest.write_amplification",
        (e.wal_bytes + e.rebuilt_bytes) as f64 / ingested as f64,
    );

    // The six queries over the base table alone stand for the epoch in the
    // engine-tracing comparison.
    let snap = plan.store().snapshot();
    let cells: Vec<Cell> = (0..PINNED)
        .map(|k| plan.cell(&snap, PATHS[k / 2], k % 2 == 1, &kind_name(k)))
        .collect();
    let untraced_s: f64 = cells
        .iter()
        .map(|c| {
            let t0 = Instant::now();
            std::hint::black_box(c.builder().run().map(|r| r.report.rows).ok());
            t0.elapsed().as_secs_f64()
        })
        .sum();
    probes::finish_traced(out, spans, &mut cycles, &cells, untraced_s, args);
}
