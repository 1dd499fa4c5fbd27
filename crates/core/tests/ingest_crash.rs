//! Deterministic crash-point sweep over the durable ingest path.
//!
//! A scripted workload of inserts and merges runs against an [`IngestStore`]
//! while a *model* tracks the same state as plain `Vec`s of tuples. The test
//! then "crashes" at **every byte offset** of the final WAL image, recovers,
//! and checks the recovered store against the model's prediction of which
//! records survived.
//!
//! The model computes record byte extents from the documented frame
//! arithmetic alone — `len(4) + seq(8) + kind(1) + payload + crc(4)`, insert
//! payload `4 + n × logical_width`, merge markers `16` — sharing no framing
//! code with the engine, so an encoding bug cannot cancel itself out.

use std::sync::Arc;

use rodb_compress::{bits_for, Codec, ColumnCompression};
use rodb_core::{Database, IngestStore};
use rodb_engine::{AggSpec, CmpOp, ScanLayout};
use rodb_storage::{BuildLayouts, Layout, Table, TableBuilder};
use rodb_types::{Column, IngestSpec, Schema, SystemConfig, Value};

const WAL_HEADER: usize = 4 + 8 + 1;
const WAL_CRC: usize = 4;
/// Two int columns.
const LOGICAL_WIDTH: usize = 8;

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![Column::int("k"), Column::int("v")]).unwrap())
}

fn base(rows: i32) -> Arc<Table> {
    let mut b = TableBuilder::new("t", schema(), 512, BuildLayouts::both()).unwrap();
    for i in 0..rows {
        b.push_row(&[Value::Int((i * 7) % 50), Value::Int(i)])
            .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

fn comps() -> Vec<ColumnCompression> {
    vec![ColumnCompression::none(), ColumnCompression::none()]
}

/// One logged operation, with the byte extent the model predicts for it.
enum ModelOp {
    Insert(Vec<Vec<Value>>),
    MergeBegin,
    MergeCommit(usize),
}

impl ModelOp {
    fn frame_len(&self) -> usize {
        let payload = match self {
            ModelOp::Insert(rows) => 4 + rows.len() * LOGICAL_WIDTH,
            ModelOp::MergeBegin | ModelOp::MergeCommit(_) => 16,
        };
        WAL_HEADER + payload + WAL_CRC
    }
}

/// Vec-of-tuples model of the store: fold the ops whose frames fit inside
/// the first `k` bytes, exactly as recovery must.
fn model_state(
    base_rows: &[Vec<Value>],
    ops: &[ModelOp],
    k: usize,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>, u64) {
    let mut ros = base_rows.to_vec();
    let mut wos: Vec<Vec<Value>> = Vec::new();
    let mut epoch = 0u64;
    let mut off = 0usize;
    for op in ops {
        off += op.frame_len();
        if off > k {
            break;
        }
        match op {
            ModelOp::Insert(rows) => wos.extend(rows.iter().cloned()),
            ModelOp::MergeBegin => {}
            ModelOp::MergeCommit(n) => {
                ros.extend(wos.drain(..*n));
                // The engine merge stable-sorts on the key column.
                ros.sort_by(|a, b| a[0].cmp(&b[0]));
                epoch += 1;
            }
        }
    }
    (ros, wos, epoch)
}

/// Run the scripted workload, recording each op for the model.
fn scripted_store() -> (IngestStore, Vec<ModelOp>) {
    let mut st = IngestStore::new(base(20), comps(), Some(0), IngestSpec::manual()).unwrap();
    let mut ops = Vec::new();
    let mut next = 1000i32;
    let mut insert = |st: &mut IngestStore, ops: &mut Vec<ModelOp>, n: usize| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                next += 1;
                vec![Value::Int(next % 50), Value::Int(next)]
            })
            .collect();
        st.insert(rows.clone()).unwrap();
        ops.push(ModelOp::Insert(rows));
    };
    insert(&mut st, &mut ops, 3);
    insert(&mut st, &mut ops, 1);
    // First merge: full WOS (4 rows).
    ops.push(ModelOp::MergeBegin);
    ops.push(ModelOp::MergeCommit(st.wos_len()));
    st.merge().unwrap();
    insert(&mut st, &mut ops, 2);
    // Second merge with an insert landing behind the frozen prefix.
    let frozen = st.wos_len();
    st.begin_merge().unwrap();
    ops.push(ModelOp::MergeBegin);
    insert(&mut st, &mut ops, 2);
    // NB: ops order must match the *log* order: begin, insert, commit.
    st.commit_merge().unwrap();
    ops.push(ModelOp::MergeCommit(frozen));
    insert(&mut st, &mut ops, 1);
    (st, ops)
}

#[test]
fn every_crash_offset_recovers_to_the_model_state() {
    let (st, ops) = scripted_store();
    // The model's framing arithmetic must agree with the real image length —
    // this is the cross-check that the documented format is the real format.
    let image = st.wal_image().to_vec();
    let model_len: usize = ops.iter().map(|o| o.frame_len()).sum();
    assert_eq!(
        image.len(),
        model_len,
        "documented frame arithmetic drifted"
    );

    let base_rows = base(20).read_all(Layout::Row).unwrap();
    for k in 0..=image.len() {
        let (rec, _) = IngestStore::recover(
            base(20),
            comps(),
            Some(0),
            IngestSpec::manual(),
            &image[..k],
            None,
        )
        .unwrap_or_else(|e| panic!("recovery must never fail on a clean prefix; offset {k}: {e}"));
        let (model_ros, model_wos, model_epoch) = model_state(&base_rows, &ops, k);
        let snap = rec.snapshot();
        assert_eq!(
            snap.ros.read_all(Layout::Row).unwrap(),
            model_ros,
            "ROS rows diverge from model at crash offset {k}"
        );
        assert_eq!(
            *snap.tail, model_wos,
            "WOS tail diverges from model at crash offset {k}"
        );
        assert_eq!(
            snap.epoch, model_epoch,
            "epoch diverges at crash offset {k}"
        );
        // Column layout agrees with row layout after recovery (re-derived
        // pages are internally consistent).
        assert_eq!(
            snap.ros.read_all(Layout::Column).unwrap(),
            model_ros,
            "column layout diverges at crash offset {k}"
        );
    }
}

#[test]
fn snapshot_queries_match_the_model_through_the_builder() {
    let (st, _) = scripted_store();
    let sys = SystemConfig::default().with_ingest(IngestSpec::manual());
    let mut db = Database::with_config(Default::default(), sys).unwrap();
    db.adopt_ingest(&st);
    let snap = st.snapshot();

    // Expected: filter + project over ROS-order ++ tail-order.
    let mut expected: Vec<Vec<Value>> = snap
        .ros
        .read_all(Layout::Row)
        .unwrap()
        .into_iter()
        .chain(snap.tail.iter().cloned())
        .filter(|r| r[0] < Value::Int(25))
        .map(|r| vec![r[1].clone(), r[0].clone()])
        .collect();

    for layout in [ScanLayout::Row, ScanLayout::Column] {
        let res = db
            .query_snapshot(&snap)
            .layout(layout)
            .select(&["v", "k"])
            .unwrap()
            .filter("k", CmpOp::Lt, 25)
            .unwrap()
            .run_collect()
            .unwrap();
        assert_eq!(res.rows, expected, "snapshot scan ({layout:?}) diverges");
        assert!(res.parallel.is_none());
    }

    // Aggregation folds ROS and tail together; a non-empty tail forces the
    // serial path even when threads are requested.
    let agg = db
        .query_snapshot(&snap)
        .select(&["k", "v"])
        .unwrap()
        .threads(4)
        .aggregate(AggSpec::count())
        .run_collect()
        .unwrap();
    assert!(agg.parallel.is_none(), "tail queries must run serially");
    assert_eq!(
        agg.rows[0][0],
        Value::Long(snap.row_count() as i64),
        "count must cover ROS + tail"
    );

    // An empty tail leaves the plan untouched: identical rows to a plain
    // table query, and parallel eligibility is restored.
    let mut st2 = st;
    st2.merge().unwrap();
    let clean = st2.snapshot();
    assert!(clean.tail.is_empty());
    let via_snapshot = db
        .query_snapshot(&clean)
        .select(&["k", "v"])
        .unwrap()
        .threads(4)
        .run_collect()
        .unwrap();
    assert!(via_snapshot.parallel.is_some());
    expected.clear();
    expected.extend(clean.ros.read_all(Layout::Row).unwrap());
    assert_eq!(via_snapshot.rows, expected);
}

/// Merge and replay under data-dependent codecs: a key-sorted base with a
/// FOR-delta key and a FOR value, so each merge — and each replayed merge —
/// re-derives its page encodings from the merged data. A snapshot pinned
/// before the merge reads the same rows before it begins, while it is
/// pending and after it commits; the committed store holds every
/// acknowledged row; and replaying the whole WAL rebuilds the live row
/// pages byte for byte.
#[test]
fn a_pinned_snapshot_outlives_the_merge_and_replay_rebuilds_the_same_pages() {
    const BASE: i32 = 2_000;
    let comps = || {
        vec![
            ColumnCompression::new(Codec::ForDelta { bits: bits_for(4) }, None).unwrap(),
            ColumnCompression::new(
                Codec::For {
                    bits: bits_for(999),
                },
                None,
            )
            .unwrap(),
        ]
    };
    let mut b =
        TableBuilder::with_compression("t", schema(), 512, BuildLayouts::both(), comps()).unwrap();
    for i in 0..BASE {
        b.push_row(&[Value::Int(i * 4), Value::Int(i % 1000)])
            .unwrap();
    }
    let base = Arc::new(b.finish().unwrap());
    let mut st = IngestStore::new(base.clone(), comps(), Some(0), IngestSpec::manual()).unwrap();
    // Keys land inside the base's key span (they split FOR-delta gaps and
    // never widen one) and come in equal pairs, so page bytes also depend
    // on the order a replayed batch is staged in.
    let mut next = 0i32;
    let mut insert_round = |st: &mut IngestStore| {
        for _ in 0..20 {
            let rows = (0..25)
                .map(|_| {
                    next += 1;
                    vec![
                        Value::Int(next / 2 * 7919 % (BASE * 4)),
                        Value::Int(next % 1000),
                    ]
                })
                .collect();
            st.insert(rows).unwrap();
        }
    };
    insert_round(&mut st);
    st.merge().unwrap();
    insert_round(&mut st);

    let pinned = st.snapshot();
    assert!(!pinned.tail.is_empty());
    let db = Database::new();
    let read = || {
        db.query_snapshot(&pinned)
            .layout(ScanLayout::Column)
            .select(&["k", "v"])
            .unwrap()
            .filter("k", CmpOp::Lt, BASE * 4 / 10)
            .unwrap()
            .run_collect()
            .unwrap()
            .rows
    };
    let before = read();
    let visible: Vec<Vec<Value>> = pinned
        .ros
        .read_all(Layout::Row)
        .unwrap()
        .into_iter()
        .chain(pinned.tail.iter().cloned())
        .filter(|r| r[0] < Value::Int(BASE * 4 / 10))
        .collect();
    assert_eq!(
        before, visible,
        "the pinned epoch's ROS rows, then its tail"
    );
    st.begin_merge().unwrap();
    assert_eq!(read(), before, "while the merge is pending");
    st.commit_merge().unwrap();
    assert_eq!(read(), before, "after the commit");
    assert_eq!(
        st.ros().row_count,
        BASE as u64 + st.stats().inserted_rows,
        "every acknowledged row is in the committed store"
    );

    let (rec, rep) = IngestStore::recover(
        base,
        comps(),
        Some(0),
        IngestSpec::manual(),
        st.wal_image(),
        None,
    )
    .unwrap();
    assert_eq!(rep.replayed, st.stats().wal_appends);
    let (live, redone) = (st.ros(), rec.ros());
    assert!(
        live.row.as_ref().unwrap().file == redone.row.as_ref().unwrap().file,
        "replay rebuilt different row pages than the live store holds"
    );
}
