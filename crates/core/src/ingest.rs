//! Durable WOS→ROS ingest: the dashed box of the paper's Figure 1, made
//! crash-safe.
//!
//! [`IngestStore`] owns one table's write path: every acknowledged insert
//! batch is framed into a [`Wal`] *before* it lands in the in-memory WOS, and
//! the WOS→ROS merge is an epoch-based two-phase protocol:
//!
//! 1. **merge-begin** — a `MergeBegin` record freezes the first *n* staged
//!    rows and the read-optimized pages for epoch *e+1* are rebuilt from
//!    scratch (zones, CRCs, and mirrors are re-derived by the ordinary
//!    [`TableBuilder`] path — nothing is patched in place). Inserts arriving
//!    during the rebuild land behind the frozen prefix.
//! 2. **merge-commit** — a `MergeCommit` record is the atomic switch: the
//!    rebuilt table becomes the live ROS, the frozen prefix is dropped from
//!    the WOS, and the epoch advances.
//!
//! Crash anywhere before the commit record recovers to the pre-merge state;
//! crash after it recovers to the post-merge state; no interleaving produces
//! a hybrid. Recovery ([`IngestStore::recover`]) replays the longest valid
//! log prefix: inserts refill the WOS, and each surviving `MergeCommit`
//! re-runs the *same deterministic rebuild* against the same frozen prefix,
//! so the recovered ROS is bit-identical to the one the crash destroyed.
//!
//! Reads never block on a merge: [`IngestStore::snapshot`] pins the current
//! epoch — the live ROS plus a frozen copy of the WOS tail — and
//! [`crate::QueryBuilder::wos_tail`] splices that tail behind the scan, so a
//! query admitted before a merge commits sees exactly the pre-merge data
//! even if the merge lands mid-scan.
//!
//! [`TableBuilder`]: rodb_storage::TableBuilder

use std::sync::Arc;

use rodb_compress::ColumnCompression;
use rodb_io::SharedDisk;
use rodb_storage::{Table, Wal, WalRecord, WalReplay, WriteOptimizedStore};
use rodb_trace::MetricsRegistry;
use rodb_types::{Error, IngestSpec, Result, Value};

/// A read snapshot pinned at one ingest epoch: the read-optimized table plus
/// the staged tail as of the pin. Queries built from it are unaffected by
/// later inserts and merges (the `Arc`s keep both alive).
#[derive(Debug, Clone)]
pub struct IngestSnapshot {
    /// The live read-optimized table at the pinned epoch.
    pub ros: Arc<Table>,
    /// The staged rows at the pinned epoch, in arrival order.
    pub tail: Arc<Vec<Vec<Value>>>,
    /// The epoch number (0 = the bulk-loaded base, +1 per committed merge).
    pub epoch: u64,
}

impl IngestSnapshot {
    /// Rows visible to this snapshot (ROS + tail).
    pub fn row_count(&self) -> u64 {
        self.ros.row_count + self.tail.len() as u64
    }
}

/// Lifetime counters of one ingest store (monotonic; recovery counters only
/// move when [`IngestStore::recover`] built the store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Rows acknowledged through [`IngestStore::insert`].
    pub inserted_rows: u64,
    /// WAL records appended (inserts + merge markers).
    pub wal_appends: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Merges committed.
    pub merges: u64,
    /// Rows moved WOS→ROS by committed merges.
    pub merged_rows: u64,
    /// Log records replayed at recovery.
    pub replayed: u64,
    /// Log records (or residual torn blobs) discarded at recovery.
    pub discarded: u64,
}

/// A merge that has begun (its `MergeBegin` record is durable and its pages
/// are rebuilt) but has not committed.
struct PendingMerge {
    epoch: u64,
    rows: usize,
    table: Table,
}

/// The durable write path of one table. See the module docs for the
/// protocol.
pub struct IngestStore {
    name: String,
    comps: Vec<ColumnCompression>,
    sort_by: Option<usize>,
    spec: IngestSpec,
    wal: Wal,
    wos: WriteOptimizedStore,
    ros: Arc<Table>,
    epoch: u64,
    pending: Option<PendingMerge>,
    stats: IngestStats,
}

impl IngestStore {
    /// Start a fresh ingest store (empty WAL, empty WOS) over a bulk-loaded
    /// base table. `comps`/`sort_by` are the rebuild parameters every merge
    /// (and every recovery re-derivation) uses.
    pub fn new(
        base: Arc<Table>,
        comps: Vec<ColumnCompression>,
        sort_by: Option<usize>,
        spec: IngestSpec,
    ) -> Result<IngestStore> {
        if let Some(key) = sort_by {
            if key >= base.schema.len() {
                return Err(Error::UnknownColumn(format!("sort key index {key}")));
            }
        }
        Ok(IngestStore {
            name: base.name.clone(),
            wal: Wal::new(base.schema.clone()),
            wos: WriteOptimizedStore::new(base.schema.clone()),
            ros: base,
            comps,
            sort_by,
            spec,
            epoch: 0,
            pending: None,
            stats: IngestStats::default(),
        })
    }

    /// Rebuild a store from a WAL image left by a crash. Replays the longest
    /// valid prefix of `image` over the epoch-0 `base` table: inserts refill
    /// the WOS and each surviving merge-commit re-derives its rebuild
    /// deterministically, so the result is bit-identical to the pre-crash
    /// state at the last durable record. Torn or corrupt tails are
    /// discarded, never replayed ([`WalReplay::discarded`]).
    ///
    /// When `disk` is given, the replay is charged to the simulated clock as
    /// one sequential read of the log image, and the replayed/discarded
    /// counts land in the disk's [`RecoveryStats`].
    ///
    /// [`RecoveryStats`]: rodb_io::RecoveryStats
    pub fn recover(
        base: Arc<Table>,
        comps: Vec<ColumnCompression>,
        sort_by: Option<usize>,
        spec: IngestSpec,
        image: &[u8],
        disk: Option<&SharedDisk>,
    ) -> Result<(IngestStore, WalReplay)> {
        let (wal, replay) = Wal::open(base.schema.clone(), image);
        let mut store = IngestStore::new(base, comps, sort_by, spec)?;
        store.wal = wal;
        for (_, rec) in &replay.records {
            match rec {
                WalRecord::Insert { rows } => {
                    for r in rows {
                        store.wos.insert(r.clone())?;
                    }
                }
                // A begin without a commit is a merge the crash aborted; the
                // rebuild never became visible, so there is nothing to redo.
                WalRecord::MergeBegin { .. } => {}
                WalRecord::MergeCommit { epoch, rows } => {
                    let n = *rows as usize;
                    if n > store.wos.len() {
                        return Err(Error::corrupt(format!(
                            "merge-commit for {n} rows with only {} staged",
                            store.wos.len()
                        )));
                    }
                    let merged =
                        store
                            .wos
                            .merge_prefix_into(n, &store.ros, &store.comps, store.sort_by)?;
                    store.wos.drain_prefix(n);
                    store.ros = Arc::new(merged);
                    store.epoch = *epoch;
                }
            }
        }
        store.stats.replayed = replay.replayed;
        store.stats.discarded = replay.discarded;
        if let Some(disk) = disk {
            let mut d = disk.borrow_mut();
            // The log is read end to end, sequentially, before service
            // resumes.
            d.read(WAL_REPLAY_FILE, 0.0, image.len() as f64);
            d.note_wal_replay(replay.replayed, replay.discarded);
        }
        MetricsRegistry::counter_add("query.ingest.recoveries", 1.0);
        MetricsRegistry::counter_add("query.ingest.wal_replayed", replay.replayed as f64);
        MetricsRegistry::counter_add("query.ingest.wal_discarded", replay.discarded as f64);
        store.publish_gauges();
        Ok((store, replay))
    }

    /// Refresh the process-wide registry's ingest gauges (what `/metrics`
    /// exports): WOS staging depth (the WAL lag — rows durable but not yet merged
    /// into read-optimized pages), WAL image size, and the live epoch.
    fn publish_gauges(&self) {
        MetricsRegistry::gauge_set("ingest.wos_rows", self.wos.len() as f64);
        MetricsRegistry::gauge_set("ingest.wal_bytes", self.wal.len() as f64);
        MetricsRegistry::gauge_set("ingest.epoch", self.epoch as f64);
        MetricsRegistry::gauge_set(
            "ingest.merge_pending",
            if self.pending.is_some() { 1.0 } else { 0.0 },
        );
    }

    /// Acknowledge a batch of rows: validated, framed into the WAL, then
    /// staged in the WOS. The batch is durable when this returns. Triggers
    /// an auto-merge when the spec's threshold is reached.
    pub fn insert(&mut self, rows: Vec<Vec<Value>>) -> Result<()> {
        // Validate *before* logging — a rejected batch must leave no record.
        for r in &rows {
            self.wos.validate(r)?;
        }
        let batch = rows.len() as u64;
        let before = self.wal.len();
        self.wal.append(&WalRecord::Insert { rows: rows.clone() })?;
        let frame = (self.wal.len() - before) as u64;
        for r in rows {
            self.wos.insert(r)?;
        }
        self.stats.inserted_rows += batch;
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += frame;
        MetricsRegistry::counter_add("query.ingest.inserted_rows", batch as f64);
        MetricsRegistry::counter_add("query.ingest.wal_bytes", frame as f64);
        self.publish_gauges();
        if self.spec.auto_merge_rows > 0
            && self.pending.is_none()
            && self.wos.len() >= self.spec.auto_merge_rows
        {
            self.merge()?;
        }
        Ok(())
    }

    /// Freeze the current WOS and rebuild the next epoch's pages. Readers
    /// and writers are not blocked: snapshots keep serving the old epoch and
    /// inserts land behind the frozen prefix. Fails if a merge is already
    /// pending.
    pub fn begin_merge(&mut self) -> Result<()> {
        if self.pending.is_some() {
            return Err(Error::InvalidConfig("merge already pending".into()));
        }
        let rows = self.wos.len();
        let epoch = self.epoch + 1;
        self.log_marker(WalRecord::MergeBegin {
            epoch,
            rows: rows as u64,
        })?;
        let table = self
            .wos
            .merge_prefix_into(rows, &self.ros, &self.comps, self.sort_by)?;
        self.pending = Some(PendingMerge { epoch, rows, table });
        self.publish_gauges();
        Ok(())
    }

    /// Commit the pending merge: the commit record is the atomic switch.
    /// Once it is durable the rebuilt table is the live ROS, the frozen
    /// prefix leaves the WOS, and the epoch advances.
    pub fn commit_merge(&mut self) -> Result<Arc<Table>> {
        let pending = self
            .pending
            .take()
            .ok_or_else(|| Error::InvalidConfig("no pending merge".into()))?;
        self.log_marker(WalRecord::MergeCommit {
            epoch: pending.epoch,
            rows: pending.rows as u64,
        })?;
        self.wos.drain_prefix(pending.rows);
        self.ros = Arc::new(pending.table);
        self.epoch = pending.epoch;
        self.stats.merges += 1;
        self.stats.merged_rows += pending.rows as u64;
        MetricsRegistry::counter_add("query.ingest.merges", 1.0);
        MetricsRegistry::counter_add("query.ingest.merged_rows", pending.rows as f64);
        self.publish_gauges();
        Ok(self.ros.clone())
    }

    /// Run a full merge (begin + commit). A no-op returning the current ROS
    /// when nothing is staged.
    pub fn merge(&mut self) -> Result<Arc<Table>> {
        if self.wos.is_empty() && self.pending.is_none() {
            return Ok(self.ros.clone());
        }
        if self.pending.is_none() {
            self.begin_merge()?;
        }
        self.commit_merge()
    }

    /// Pin the current epoch for reading: the live ROS plus a frozen copy of
    /// the staged tail. Pair with [`crate::Database::query_snapshot`].
    pub fn snapshot(&self) -> IngestSnapshot {
        IngestSnapshot {
            ros: self.ros.clone(),
            tail: Arc::new(self.wos.rows().to_vec()),
            epoch: self.epoch,
        }
    }

    /// The live read-optimized table (the newest committed epoch).
    pub fn ros(&self) -> Arc<Table> {
        self.ros.clone()
    }

    /// Rows currently staged in the WOS.
    pub fn wos_len(&self) -> usize {
        self.wos.len()
    }

    /// The current epoch (0 = base table, +1 per committed merge).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The WAL image a crash at this instant would leave behind. Feed a
    /// prefix of it (a clean crash) — or a [`rodb_storage::wal::damage_image`]
    /// transform of it (a corrupting crash) — to [`IngestStore::recover`].
    pub fn wal_image(&self) -> &[u8] {
        self.wal.image()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Table name this store ingests into.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn log_marker(&mut self, rec: WalRecord) -> Result<()> {
        let before = self.wal.len();
        self.wal.append(&rec)?;
        let frame = (self.wal.len() - before) as u64;
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += frame;
        MetricsRegistry::counter_add("query.ingest.wal_bytes", frame as f64);
        Ok(())
    }
}

/// Reserved simulated-file id the recovery replay charges its sequential
/// log read against (never collides with table files, which count up from
/// 1).
const WAL_REPLAY_FILE: rodb_io::FileId = rodb_io::FileId(u64::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_storage::{BuildLayouts, Layout, TableBuilder};
    use rodb_types::{Column, Schema};

    fn base(rows: i32) -> Arc<Table> {
        let s = Arc::new(Schema::new(vec![Column::int("k"), Column::int("v")]).unwrap());
        let mut b = TableBuilder::new("t", s, 1024, BuildLayouts::both()).unwrap();
        for i in 0..rows {
            b.push_row(&[Value::Int(i * 2), Value::Int(i)]).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn comps() -> Vec<ColumnCompression> {
        vec![ColumnCompression::none(), ColumnCompression::none()]
    }

    fn store(rows: i32) -> IngestStore {
        IngestStore::new(base(rows), comps(), Some(0), IngestSpec::manual()).unwrap()
    }

    fn visible_rows(s: &IngestSnapshot) -> Vec<Vec<Value>> {
        let mut all = s.ros.read_all(Layout::Row).unwrap();
        all.extend(s.tail.iter().cloned());
        all
    }

    #[test]
    fn insert_merge_epoch_lifecycle() {
        let mut st = store(10);
        st.insert(vec![vec![Value::Int(5), Value::Int(100)]])
            .unwrap();
        st.insert(vec![
            vec![Value::Int(1), Value::Int(101)],
            vec![Value::Int(99), Value::Int(102)],
        ])
        .unwrap();
        assert_eq!(st.wos_len(), 3);
        assert_eq!(st.epoch(), 0);
        let merged = st.merge().unwrap();
        assert_eq!(st.epoch(), 1);
        assert_eq!(st.wos_len(), 0);
        assert_eq!(merged.row_count, 13);
        // Sorted on the key after the merge.
        let rows = merged.read_all(Layout::Row).unwrap();
        assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]));
        let stats = st.stats();
        assert_eq!(stats.inserted_rows, 3);
        assert_eq!(stats.merges, 1);
        assert_eq!(stats.merged_rows, 3);
        // 2 inserts + begin + commit.
        assert_eq!(stats.wal_appends, 4);
        // Empty merge is a no-op: no new epoch, no new WAL bytes.
        let bytes = st.stats().wal_bytes;
        st.merge().unwrap();
        assert_eq!(st.epoch(), 1);
        assert_eq!(st.stats().wal_bytes, bytes);
    }

    #[test]
    fn snapshot_pins_the_epoch_across_a_merge() {
        let mut st = store(10);
        st.insert(vec![vec![Value::Int(7), Value::Int(200)]])
            .unwrap();
        let snap = st.snapshot();
        let before = visible_rows(&snap);
        // Merge + more inserts after the pin.
        st.merge().unwrap();
        st.insert(vec![vec![Value::Int(3), Value::Int(300)]])
            .unwrap();
        // The pinned snapshot still sees exactly the pre-merge state.
        assert_eq!(visible_rows(&snap), before);
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.row_count(), 11);
        // A fresh snapshot sees the new epoch and the new tail.
        let now = st.snapshot();
        assert_eq!(now.epoch, 1);
        assert_eq!(now.ros.row_count, 11);
        assert_eq!(now.tail.len(), 1);
    }

    #[test]
    fn crash_before_commit_recovers_premerge_after_commit_postmerge() {
        let mut st = store(5);
        st.insert(vec![vec![Value::Int(1), Value::Int(10)]])
            .unwrap();
        st.insert(vec![vec![Value::Int(3), Value::Int(11)]])
            .unwrap();
        st.begin_merge().unwrap();
        let image_before_commit = st.wal_image().to_vec();
        st.commit_merge().unwrap();
        let image_after_commit = st.wal_image().to_vec();
        // The merge re-sorts, so visibility is a multiset property: compare
        // canonically ordered.
        let canon = |mut v: Vec<Vec<Value>>| {
            v.sort();
            v
        };
        let live = canon(visible_rows(&st.snapshot()));

        // Crash after begin, before commit: pre-merge state — ROS is the
        // base table, both inserts back in the WOS.
        let (rec, rep) = IngestStore::recover(
            base(5),
            comps(),
            Some(0),
            IngestSpec::manual(),
            &image_before_commit,
            None,
        )
        .unwrap();
        assert_eq!(rep.replayed, 3); // two inserts + merge-begin
        assert_eq!(rec.epoch(), 0);
        assert_eq!(rec.wos_len(), 2);
        assert_eq!(rec.ros().row_count, 5);
        assert_eq!(
            canon(visible_rows(&rec.snapshot())),
            live,
            "same visible rows either side"
        );

        // Crash after commit: post-merge state, bit-identical pages.
        let (rec, rep) = IngestStore::recover(
            base(5),
            comps(),
            Some(0),
            IngestSpec::manual(),
            &image_after_commit,
            None,
        )
        .unwrap();
        assert_eq!(rep.replayed, 4);
        assert_eq!(rec.epoch(), 1);
        assert_eq!(rec.wos_len(), 0);
        assert_eq!(rec.ros().row_count, 7);
        assert_eq!(canon(visible_rows(&rec.snapshot())), live);
        // The re-derived rebuild is deterministic down to the page images.
        let orig = st.ros();
        let redo = rec.ros();
        let (a, b) = (orig.row.as_ref().unwrap(), redo.row.as_ref().unwrap());
        assert_eq!(a.file, b.file, "row pages bit-identical");
    }

    #[test]
    fn torn_tail_loses_only_unacknowledged_bytes() {
        let mut st = store(3);
        st.insert(vec![vec![Value::Int(0), Value::Int(1)]]).unwrap();
        let ack = st.wal_image().len();
        st.insert(vec![vec![Value::Int(2), Value::Int(3)]]).unwrap();
        // Tear mid-way through the second record.
        let torn = &st.wal_image()[..ack + 5];
        let (rec, rep) =
            IngestStore::recover(base(3), comps(), Some(0), IngestSpec::manual(), torn, None)
                .unwrap();
        assert_eq!(rep.replayed, 1);
        assert_eq!(rep.discarded, 1);
        assert_eq!(rec.wos_len(), 1);
        assert_eq!(rec.stats().replayed, 1);
        assert_eq!(rec.stats().discarded, 1);
    }

    #[test]
    fn recovery_charges_the_disk_and_recovery_stats() {
        let mut st = store(3);
        for i in 0..50 {
            st.insert(vec![vec![Value::Int(i), Value::Int(i)]]).unwrap();
        }
        let image = st.wal_image().to_vec();
        let ctx = rodb_engine::ExecContext::default_ctx();
        let (_, _) = IngestStore::recover(
            base(3),
            comps(),
            Some(0),
            IngestSpec::manual(),
            &image,
            Some(&ctx.disk),
        )
        .unwrap();
        let disk = ctx.disk.borrow();
        assert!(disk.stats().bytes_read >= image.len() as f64);
        assert_eq!(disk.stats().recovery.wal_replayed, 50);
        assert_eq!(disk.stats().recovery.wal_discarded, 0);
    }

    #[test]
    fn auto_merge_fires_at_threshold() {
        let mut st = IngestStore::new(
            base(4),
            comps(),
            Some(0),
            IngestSpec::manual().with_auto_merge(3),
        )
        .unwrap();
        st.insert(vec![vec![Value::Int(1), Value::Int(0)]]).unwrap();
        st.insert(vec![vec![Value::Int(2), Value::Int(0)]]).unwrap();
        assert_eq!(st.epoch(), 0);
        st.insert(vec![vec![Value::Int(3), Value::Int(0)]]).unwrap();
        assert_eq!(st.epoch(), 1, "threshold reached → auto-merge");
        assert_eq!(st.wos_len(), 0);
        assert_eq!(st.ros().row_count, 7);
    }

    #[test]
    fn rejected_batch_leaves_no_wal_record() {
        let mut st = store(2);
        let len = st.wal_image().len();
        assert!(st
            .insert(vec![vec![Value::Int(1)]]) // arity mismatch
            .is_err());
        assert!(st
            .insert(vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::text("x"), Value::Int(2)], // type mismatch mid-batch
            ])
            .is_err());
        assert_eq!(st.wal_image().len(), len, "no partial batch logged");
        assert_eq!(st.wos_len(), 0);
    }

    #[test]
    fn double_begin_and_commit_without_begin_rejected() {
        let mut st = store(2);
        st.insert(vec![vec![Value::Int(1), Value::Int(1)]]).unwrap();
        st.begin_merge().unwrap();
        assert!(st.begin_merge().is_err());
        st.commit_merge().unwrap();
        assert!(st.commit_merge().is_err());
    }

    #[test]
    fn inserts_during_pending_merge_survive_the_commit() {
        let mut st = store(2);
        st.insert(vec![vec![Value::Int(1), Value::Int(1)]]).unwrap();
        st.begin_merge().unwrap();
        // Lands behind the frozen prefix.
        st.insert(vec![vec![Value::Int(9), Value::Int(9)]]).unwrap();
        st.commit_merge().unwrap();
        assert_eq!(st.ros().row_count, 3);
        assert_eq!(st.wos_len(), 1);
        let snap = st.snapshot();
        assert!(visible_rows(&snap).contains(&vec![Value::Int(9), Value::Int(9)]));
    }
}
