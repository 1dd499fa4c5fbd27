//! The ingest source: a drawn insert/merge/crash schedule driven through the
//! real [`IngestStore`] beside a Vec-of-tuples model, and the `W` invariants
//! that compare the two.

use std::collections::BTreeSet;
use std::sync::Arc;

use rodb_core::IngestStore;
use rodb_storage::{Layout, Table};
use rodb_types::Value;

use crate::axes::IngestDraw;
use crate::gen::CasePlan;
use crate::{ensure, Case, Verdict};

/// One logged ingest operation. [`IngestOp::frame_len`] predicts its WAL
/// frame extent from the *documented* arithmetic alone — header
/// `len(4) + seq(8) + kind(1)`, insert payload `4 + n × logical_width`,
/// merge markers `16`, trailing `crc(4)` — sharing no framing code with the
/// engine, so an encoding bug cannot cancel itself out of the crash model.
#[derive(Debug)]
pub enum IngestOp {
    Insert(Vec<Vec<Value>>),
    MergeBegin,
    MergeCommit(usize),
}

const WAL_HEADER: usize = 4 + 8 + 1;
const WAL_CRC: usize = 4;

impl IngestOp {
    fn frame_len(&self, logical_width: usize) -> usize {
        let payload = match self {
            IngestOp::Insert(rows) => 4 + rows.len() * logical_width,
            IngestOp::MergeBegin | IngestOp::MergeCommit(_) => 16,
        };
        WAL_HEADER + payload + WAL_CRC
    }
}

/// Vec-of-tuples model of the durable store: the read-optimized rows in
/// engine scan order, the staged tail in arrival order, and the epoch.
#[derive(Clone, PartialEq)]
pub struct IngestModel {
    pub ros: Vec<Vec<Value>>,
    pub wos: Vec<Vec<Value>>,
    pub epoch: u64,
}

impl IngestModel {
    fn new(base: &[Vec<Value>]) -> IngestModel {
        IngestModel {
            ros: base.to_vec(),
            wos: Vec::new(),
            epoch: 0,
        }
    }

    /// A committed merge moves the frozen prefix of `n` staged rows into the
    /// read-optimized set and (when a sort key is configured) re-sorts it —
    /// a stable sort, exactly like the engine's rebuild.
    fn commit(&mut self, n: usize, sort_by: Option<usize>) {
        let moved: Vec<Vec<Value>> = self.wos.drain(..n).collect();
        self.ros.extend(moved);
        if let Some(k) = sort_by {
            self.ros.sort_by(|a, b| a[k].cmp(&b[k]));
        }
        self.epoch += 1;
    }
}

/// Everything the schedule left behind: the live store, the logged ops (in
/// *log* order), the live model, the WAL image with its predicted record
/// boundaries, the drawn crash points, and the full-image recovery.
pub struct IngestRun {
    pub base: Arc<Table>,
    pub store: IngestStore,
    pub ops: Vec<IngestOp>,
    pub model: IngestModel,
    pub image: Vec<u8>,
    ends: Vec<usize>,
    pub sampled: Vec<usize>,
    pub flips: Vec<(usize, u8)>,
    pub recovered: IngestStore,
}

impl IngestRun {
    /// Fold the ops whose predicted frames fit inside the first `k` log
    /// bytes — the model's prediction of what recovery from a crash at byte
    /// `k` must rebuild.
    fn fold(&self, plan: &CasePlan, k: usize, sort_by: Option<usize>) -> IngestModel {
        let mut m = IngestModel::new(&plan.rows);
        for (op, &end) in self.ops.iter().zip(&self.ends) {
            if end > k {
                break;
            }
            match op {
                IngestOp::Insert(rows) => m.wos.extend(rows.iter().cloned()),
                // A begin without its commit is an aborted merge: nothing to redo.
                IngestOp::MergeBegin => {}
                IngestOp::MergeCommit(n) => m.commit(*n, sort_by),
            }
        }
        m
    }
}

fn recover(
    case: &Case,
    base: &Arc<Table>,
    d: &IngestDraw,
    image: &[u8],
    what: &str,
) -> Result<(IngestStore, rodb_storage::WalReplay), String> {
    let comps = case.plan.comps.clone();
    case.engine(what, || {
        IngestStore::recover(base.clone(), comps, d.sort_by, d.spec, image, None)
    })
}

/// The ops logged so far, in *log* order, beside the model they produced.
struct Log {
    ops: Vec<IngestOp>,
    model: IngestModel,
    sort_by: Option<usize>,
}

impl Log {
    fn commit(&mut self, n: usize) {
        self.ops.push(IngestOp::MergeCommit(n));
        self.model.commit(n, self.sort_by);
    }

    /// A full merge; a no-op on an empty WOS leaves no WAL record.
    fn merge_all(&mut self) {
        let full = self.model.wos.len();
        if full > 0 {
            self.ops.push(IngestOp::MergeBegin);
            self.commit(full);
        }
    }
}

/// Drive the drawn schedule through the real store while recording every op
/// and maintaining the live model. Inserted rows are sampled from the
/// plan's own rows so every data-dependent codec domain (BitPack range, FOR
/// span, dictionaries, FOR-delta adjacent gaps, TextPack content width)
/// stays valid across merges.
pub fn drive(case: &Case, base: Arc<Table>, d: &IngestDraw) -> Result<IngestRun, String> {
    let plan = &case.plan;
    let (sort_by, spec) = (d.sort_by, d.spec);
    let mut rng = d.rng.clone();
    let mut log = Log {
        ops: Vec::new(),
        model: IngestModel::new(&plan.rows),
        sort_by,
    };
    let store = case.engine("ingest schedule", || {
        let mut st = IngestStore::new(base.clone(), plan.comps.clone(), sort_by, spec)?;
        // The frozen row count of a begun-but-uncommitted merge.
        let mut pending: Option<usize> = None;
        for _ in 0..3 + rng.below(6) {
            let r = rng.below(100);
            if r < if pending.is_some() { 60 } else { 55 } {
                let n = 1 + rng.below(8) as usize;
                let rows: Vec<Vec<Value>> = (0..n)
                    .map(|_| plan.rows[rng.below(plan.rows.len() as u64) as usize].clone())
                    .collect();
                st.insert(rows.clone())?;
                log.model.wos.extend(rows.iter().cloned());
                log.ops.push(IngestOp::Insert(rows));
                // Mirror the auto-merge: threshold reached, no pending merge.
                let auto = spec.auto_merge_rows;
                if auto > 0 && pending.is_none() && log.model.wos.len() >= auto {
                    log.merge_all();
                }
            } else if let Some(frozen) = pending.take() {
                st.commit_merge()?;
                log.commit(frozen);
            } else if r < 80 {
                st.merge()?;
                log.merge_all();
            } else {
                st.begin_merge()?;
                log.ops.push(IngestOp::MergeBegin);
                pending = Some(log.model.wos.len());
            }
        }
        // A still-pending merge either commits or leaves the log ending in
        // an uncommitted begin, which recovery must treat as aborted.
        if let Some(frozen) = pending {
            if rng.bool() {
                st.commit_merge()?;
                log.commit(frozen);
            }
        }
        Ok(st)
    })?;
    let Log { ops, model, .. } = log;

    let width = plan.schema.logical_width();
    let ends: Vec<usize> = ops
        .iter()
        .scan(0, |off, op| {
            *off += op.frame_len(width);
            Some(*off)
        })
        .collect();
    let image = store.wal_image().to_vec();
    let sampled = (0..8)
        .map(|_| rng.below(image.len() as u64 + 1) as usize)
        .collect();
    let flips = (0..6)
        .filter(|_| !image.is_empty())
        .map(|_| (rng.below(image.len() as u64) as usize, 1u8 << rng.below(8)))
        .collect();
    let (recovered, _) = recover(case, &base, d, &image, "full-image recovery")?;
    Ok(IngestRun {
        base,
        store,
        ops,
        model,
        image,
        ends,
        sampled,
        flips,
        recovered,
    })
}

/// The store must match the model exactly: same epoch, same staged tail in
/// arrival order, same read-optimized rows in scan order.
fn matches_model(st: &IngestStore, m: &IngestModel, what: &str) -> Verdict {
    let snap = st.snapshot();
    ensure!(
        snap.epoch == m.epoch,
        "epoch {} != model {} ({what})",
        snap.epoch,
        m.epoch
    );
    ensure!(
        *snap.tail == m.wos,
        "staged tail diverges from model ({what}): {} vs {} rows",
        snap.tail.len(),
        m.wos.len()
    );
    let ros =
        (snap.ros.read_all(Layout::Row)).map_err(|e| format!("ROS unreadable ({what}): {e:?}"))?;
    ensure!(
        ros == m.ros,
        "ROS rows diverge from model ({what}): {} vs {} rows",
        ros.len(),
        m.ros.len()
    );
    Ok(())
}

/// W1: the WAL image is as long as the documented frame arithmetic says.
pub fn w1(_: &Case, _: &IngestDraw, run: &IngestRun) -> Verdict {
    let (len, predicted) = (run.image.len(), run.ends.last().copied().unwrap_or(0));
    ensure!(
        len == predicted,
        "WAL image {len} bytes, frame arithmetic predicts {predicted}"
    );
    Ok(())
}

/// W2: the live store equals the live model.
pub fn w2(_: &Case, _: &IngestDraw, run: &IngestRun) -> Verdict {
    matches_model(&run.store, &run.model, "live store")
}

/// W3: recovery from a clean truncation at byte 0, every record boundary,
/// every boundary − 1 and the sampled interior offsets rebuilds the fold of
/// the surviving records and replays exactly the durable ones.
pub fn w3(case: &Case, d: &IngestDraw, run: &IngestRun) -> Verdict {
    let mut offsets: BTreeSet<usize> = run.sampled.iter().copied().collect();
    offsets.insert(0);
    for &e in &run.ends {
        offsets.extend([e - 1, e]);
    }
    for k in offsets {
        let what = format!("crash at byte {k}");
        let (rec, rep) = recover(case, &run.base, d, &run.image[..k], &what)?;
        matches_model(&rec, &run.fold(&case.plan, k, d.sort_by), &what)?;
        let durable = run.ends.iter().filter(|&&e| e <= k).count() as u64;
        ensure!(
            rep.replayed == durable,
            "{what} replayed {} records, model says {durable}",
            rep.replayed
        );
    }
    Ok(())
}

/// W4: full-image recovery rebuilds byte-identical row pages.
pub fn w4(_: &Case, _: &IngestDraw, run: &IngestRun) -> Verdict {
    let (live, redo) = (run.store.ros(), run.recovered.ros());
    let file = |t: &Table| t.row.as_ref().map(|r| r.file.clone());
    ensure!(
        file(&live) == file(&redo),
        "full-image recovery rebuilt different row pages"
    );
    Ok(())
}

/// W5: a flipped bit degrades recovery to the longest valid prefix; the
/// engine wrapper turns a panic or an error into the failure.
pub fn w5(case: &Case, d: &IngestDraw, run: &IngestRun) -> Verdict {
    for &(i, bit) in &run.flips {
        let what = format!("flip at byte {i}");
        let mut dmg = run.image.clone();
        dmg[i] ^= bit;
        let (rec, rep) = recover(case, &run.base, d, &dmg, &what)?;
        matches_model(&rec, &run.fold(&case.plan, rep.valid_len, d.sort_by), &what)?;
    }
    Ok(())
}
