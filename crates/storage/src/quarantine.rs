//! Page quarantine: the per-table record of pages that are bad on **every**
//! replica.
//!
//! A page lands here when a scan (or a [`scrub`] pass) read it, found the
//! checksum wrong, retried every configured mirror replica, and never saw a
//! clean copy. Quarantined pages are the unit of degraded reads: an
//! `on_corrupt = Skip` scan drops exactly their rows — the same position
//! ranges across every column of a projection — and reports the drop in
//! `RecoveryStats::dropped_rows`.
//!
//! The set is shared (`Arc<Mutex<..>>`) so parallel morsel workers observing
//! the same bad page record it once, and so clones of a [`Table`] handle
//! (catalog `Arc`s, per-worker copies) see one quarantine, like a real
//! catalog would.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rodb_types::Result;

use crate::page::PageView;
use crate::table::Table;

/// One quarantined page, identified the way scans address pages: the row
/// file's page index, or a (column, page index) pair of the column
/// representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuarantinedPage {
    Row { page: u64 },
    Col { col: usize, page: u64 },
}

/// Thread-safe set of quarantined pages. Cloning shares the underlying set.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    inner: Arc<Mutex<HashSet<QuarantinedPage>>>,
}

impl Quarantine {
    /// The set, even after a thread panicked holding it: every update is
    /// one `HashSet` call on `Copy` page ids, so a poisoned guard's data is
    /// still whole.
    fn set(&self) -> MutexGuard<'_, HashSet<QuarantinedPage>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a page; returns `true` when it was not already quarantined
    /// (callers count `quarantined_pages` only on fresh inserts so parallel
    /// workers never double-count).
    pub fn insert(&self, page: QuarantinedPage) -> bool {
        self.set().insert(page)
    }

    pub fn contains(&self, page: QuarantinedPage) -> bool {
        self.set().contains(&page)
    }

    pub fn len(&self) -> usize {
        self.set().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted copy of the set (deterministic for tests and reports).
    pub fn snapshot(&self) -> Vec<QuarantinedPage> {
        let mut v: Vec<QuarantinedPage> = self.set().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Empty the set (e.g. after the pages were rebuilt from a clean source).
    pub fn clear(&self) {
        self.set().clear();
    }
}

/// What a [`scrub`] pass found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages whose checksum was verified (across all files walked).
    pub pages_checked: u64,
    /// Pages whose primary copy was bad but a clean replica repaired it.
    pub repaired: u64,
    /// Pages newly quarantined (bad on every replica).
    pub quarantined: u64,
}

/// Walk every page of every loaded representation of `table`, verify
/// checksums replica-by-replica through `disk`'s mirrored-read path, and
/// repair or quarantine. I/O (including replica backoffs) is charged to the
/// simulated clock.
///
/// File ids are assigned the way the engine's scanners do — in file-open
/// order starting at `first_file_id`: the row file first (when loaded), then
/// one id per column file. Callers that want scrub to observe the same
/// deterministic fault sites as a particular scan must align ids the same
/// way.
pub fn scrub(
    table: &Table,
    disk: &mut rodb_io::DiskArray,
    first_file_id: u64,
) -> Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let mut fid = first_file_id;
    if let Some(rs) = &table.row {
        scrub_file(
            disk,
            rodb_io::FileId(fid),
            &rs.file,
            rs.page_size,
            |page| QuarantinedPage::Row { page },
            &table.quarantine,
            &mut report,
        );
        fid += 1;
    }
    if let Some(cs) = &table.col {
        for (ci, col) in cs.columns.iter().enumerate() {
            scrub_file(
                disk,
                rodb_io::FileId(fid + ci as u64),
                &col.file,
                col.page_size,
                |page| QuarantinedPage::Col { col: ci, page },
                &table.quarantine,
                &mut report,
            );
        }
    }
    Ok(report)
}

fn scrub_file(
    disk: &mut rodb_io::DiskArray,
    file: rodb_io::FileId,
    data: &Arc<Vec<u8>>,
    page_size: usize,
    site: impl Fn(u64) -> QuarantinedPage,
    quarantine: &Quarantine,
    report: &mut ScrubReport,
) {
    if page_size == 0 {
        return;
    }
    let pages = data.len() / page_size;
    // Charge the sequential sweep in burst-sized reads, like a scan would.
    let len = (pages * page_size) as f64;
    let mut fetched = 0.0;
    while fetched < len {
        let take = disk.burst_bytes().max(1.0).min(len - fetched);
        disk.read(file, fetched, take);
        fetched += take;
    }
    for p in 0..pages {
        let bytes = &data[p * page_size..(p + 1) * page_size];
        let repairs_before = disk.stats().recovery.repairs;
        let verdict = match disk.read_page(file, p as u64, bytes) {
            // Clean read (possibly repaired from a replica): verify the
            // stored bytes themselves.
            None => PageView::new(bytes).is_ok(),
            // Every replica bad.
            Some(_) => false,
        };
        report.pages_checked += 1;
        report.repaired += disk.stats().recovery.repairs - repairs_before;
        if !verdict && quarantine.insert(site(p as u64)) {
            disk.note_quarantined(1);
            report.quarantined += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{BuildLayouts, TableBuilder};
    use rodb_io::DiskArray;
    use rodb_types::{Column, FaultSpec, HardwareConfig, OnCorrupt, Schema, SystemConfig, Value};

    fn table(rows: usize) -> Table {
        let schema = Arc::new(Schema::new(vec![Column::int("a"), Column::int("b")]).unwrap());
        let mut b = TableBuilder::new("t", schema, 1024, BuildLayouts::both()).unwrap();
        for i in 0..rows {
            b.push_row(&[Value::Int(i as i32), Value::Int(-(i as i32))])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn quarantine_set_semantics() {
        let q = Quarantine::default();
        assert!(q.is_empty());
        assert!(q.insert(QuarantinedPage::Row { page: 3 }));
        assert!(!q.insert(QuarantinedPage::Row { page: 3 }), "dedup");
        assert!(q.insert(QuarantinedPage::Col { col: 1, page: 3 }));
        assert!(q.contains(QuarantinedPage::Row { page: 3 }));
        assert!(!q.contains(QuarantinedPage::Col { col: 0, page: 3 }));
        assert_eq!(q.len(), 2);
        // Clones share the set.
        let q2 = q.clone();
        q2.insert(QuarantinedPage::Row { page: 9 });
        assert_eq!(q.len(), 3);
        assert_eq!(
            q.snapshot(),
            vec![
                QuarantinedPage::Row { page: 3 },
                QuarantinedPage::Row { page: 9 },
                QuarantinedPage::Col { col: 1, page: 3 },
            ]
        );
        q.clear();
        assert!(q2.is_empty());
    }

    #[test]
    fn a_poisoned_lock_keeps_the_set() {
        let q = Quarantine::default();
        q.insert(QuarantinedPage::Row { page: 1 });
        let held = q.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = held.inner.lock().unwrap();
            panic!("a worker dies holding the quarantine");
        })
        .join();
        assert!(panicked.is_err() && q.inner.is_poisoned());
        assert!(q.insert(QuarantinedPage::Col { col: 0, page: 2 }));
        assert!(q.contains(QuarantinedPage::Row { page: 1 }));
        assert_eq!(
            q.snapshot(),
            vec![
                QuarantinedPage::Row { page: 1 },
                QuarantinedPage::Col { col: 0, page: 2 },
            ]
        );
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn scrub_clean_table_finds_nothing() {
        let t = table(500);
        let mut disk =
            DiskArray::new(&HardwareConfig::default(), &SystemConfig::default(), 1.0).unwrap();
        let r = scrub(&t, &mut disk, 1).unwrap();
        assert!(r.pages_checked > 2);
        assert_eq!(r.repaired, 0);
        assert_eq!(r.quarantined, 0);
        assert!(t.quarantine.is_empty());
        assert!(disk.elapsed() > 0.0, "scrub charges I/O");
    }

    #[test]
    fn scrub_with_mirror_repairs_every_page() {
        let t = table(500);
        let sys = SystemConfig {
            page_size: 1024,
            faults: Some(FaultSpec::always(11)),
            mirror: 2,
            ..SystemConfig::default()
        };
        let mut disk = DiskArray::new(&HardwareConfig::default(), &sys, 1.0).unwrap();
        let r = scrub(&t, &mut disk, 1).unwrap();
        assert_eq!(r.repaired, r.pages_checked, "every page repaired");
        assert_eq!(r.quarantined, 0);
        assert!(t.quarantine.is_empty());
        assert_eq!(disk.stats().recovery.repairs, r.pages_checked);
    }

    #[test]
    fn scrub_without_mirror_quarantines_under_skip_policy() {
        let t = table(500);
        let sys = SystemConfig {
            page_size: 1024,
            faults: Some(FaultSpec::always(11)),
            on_corrupt: OnCorrupt::Skip,
            ..SystemConfig::default()
        };
        let mut disk = DiskArray::new(&HardwareConfig::default(), &sys, 1.0).unwrap();
        let r = scrub(&t, &mut disk, 1).unwrap();
        assert_eq!(
            r.quarantined, r.pages_checked,
            "no replica to save any page"
        );
        assert_eq!(r.repaired, 0);
        assert_eq!(t.quarantine.len() as u64, r.quarantined);
        assert_eq!(disk.stats().recovery.quarantined_pages, r.quarantined);
        // A second pass re-checks but quarantines nothing new.
        let r2 = scrub(&t, &mut disk, 1).unwrap();
        assert_eq!(r2.quarantined, 0);
    }
}
