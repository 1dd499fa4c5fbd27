//! Prefetching file streams.
//!
//! A [`FileStream`] plays the role of the paper's AIO interface: the scanner
//! asks for database pages; the stream issues burst-sized reads (prefetch
//! depth × I/O unit) against the shared [`DiskArray`] and hands back
//! zero-copy page references into the file's backing buffer. No buffer pool
//! exists — "it does not make a difference for sequential accesses" (§2.2.3).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rodb_types::{Error, Result};

use crate::cache::PageKey;
use crate::disk::{CacheLookup, DiskArray, FileId};

/// A zero-copy reference to one page of a backing file.
#[derive(Debug, Clone)]
pub struct PageRef {
    data: Arc<Vec<u8>>,
    offset: usize,
    len: usize,
    /// Index of this page within its file.
    pub page_index: usize,
}

impl PageRef {
    /// The page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data[self.offset..self.offset + self.len]
    }
}

/// Shared handle to the per-query disk array.
pub type SharedDisk = Rc<RefCell<DiskArray>>;

/// Sequentially streams the pages of one file, charging simulated I/O time.
#[derive(Debug)]
pub struct FileStream {
    disk: SharedDisk,
    file_id: FileId,
    data: Arc<Vec<u8>>,
    page_size: usize,
    pages: usize,
    next_page: usize,
    /// Bytes already covered by issued bursts.
    fetched: f64,
}

impl FileStream {
    /// Open a stream over `data` (page-aligned file contents).
    pub fn new(
        disk: SharedDisk,
        file_id: FileId,
        data: Arc<Vec<u8>>,
        page_size: usize,
    ) -> Result<FileStream> {
        if page_size == 0 || !data.len().is_multiple_of(page_size) {
            return Err(Error::corrupt(format!(
                "file of {} bytes is not page aligned ({page_size})",
                data.len()
            )));
        }
        let pages = data.len() / page_size;
        Ok(FileStream {
            disk,
            file_id,
            data,
            page_size,
            pages,
            next_page: 0,
            fetched: 0.0,
        })
    }

    /// Cache key of page `idx`: the backing buffer's address plus the page
    /// index. Buffer identity is stable for as long as the table is alive —
    /// unlike the transient per-query [`FileId`] — so a shared cache keyed
    /// this way survives across queries with different file-id assignments.
    #[inline]
    fn cache_key(&self, idx: usize) -> PageKey {
        (self.data.as_ptr() as u64, idx as u64)
    }

    /// Total pages in the file.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Pages not yet returned.
    pub fn remaining(&self) -> usize {
        self.pages - self.next_page
    }

    /// Fetch the next page, issuing burst reads as needed. `None` at EOF.
    ///
    /// With a page cache installed on the array, a resident page skips
    /// transfer entirely (the next miss fetches from its own offset) and a
    /// missing page pays the usual bursts and is inserted after a clean
    /// read — damaged pages are never cached. Without a cache the code path
    /// below is byte-for-byte the paper's cold scan.
    pub fn next_page(&mut self) -> Option<PageRef> {
        if self.next_page >= self.pages {
            return None;
        }
        let idx = self.next_page;
        let start = idx * self.page_size;
        let page_end = ((idx + 1) * self.page_size) as f64;
        let key = self.cache_key(idx);
        let lookup = self
            .disk
            .borrow_mut()
            .cache_lookup(key, self.file_id, idx as u64);
        if lookup == CacheLookup::Hit {
            // Served from the resident frame: no burst, no fault roll.
            self.next_page += 1;
            self.fetched = self.fetched.max(page_end);
            return Some(PageRef {
                data: self.data.clone(),
                offset: start,
                len: self.page_size,
                page_index: idx,
            });
        }
        // Never fetch past the stream's window (== file end when unwindowed).
        let limit = (self.pages * self.page_size) as f64;
        while self.fetched < page_end {
            let mut disk = self.disk.borrow_mut();
            let burst = disk.burst_bytes().max(1.0);
            let take = burst.min(limit - self.fetched);
            disk.read(self.file_id, self.fetched, take);
            self.fetched += take;
        }
        self.next_page += 1;
        // Fault injection (testing only): the read may hand back a damaged
        // copy of the page after exhausting any configured mirror replicas —
        // the scanner's checksum verification is what must catch it. A
        // successful replica retry returns `None` (clean) after charging the
        // modeled backoff.
        if let Some(damaged) = self.disk.borrow_mut().read_page(
            self.file_id,
            idx as u64,
            &self.data[start..start + self.page_size],
        ) {
            let len = damaged.len();
            return Some(PageRef {
                data: Arc::new(damaged),
                offset: 0,
                len,
                page_index: idx,
            });
        }
        if lookup == CacheLookup::Miss {
            self.disk
                .borrow_mut()
                .cache_fill(key, self.file_id, idx as u64);
        }
        Some(PageRef {
            data: self.data.clone(),
            offset: start,
            len: self.page_size,
            page_index: idx,
        })
    }

    /// Restrict the stream to the page window `[first, end)`: pages before
    /// `first` are skipped without I/O (a worker's window starts mid-file —
    /// the bytes before it belong to another worker), and pages at or past
    /// `end` read as EOF. Morsel-driven parallel scans give each worker a
    /// disjoint window so together they read the file exactly once.
    pub fn set_window(&mut self, first: usize, end: usize) {
        self.pages = end.min(self.pages);
        self.skip_pages(first.min(self.pages));
    }

    /// Skip ahead without reading (used by position-driven scan nodes when a
    /// whole page has no qualifying positions — note the paper's column
    /// scanner never does this for sequential scans; provided for the
    /// index-style access paths).
    pub fn skip_pages(&mut self, n: usize) {
        self.next_page = (self.next_page + n).min(self.pages);
        // Skipping still requires the head to pass over or seek past the
        // region; we model skip-without-read as repositioning only (the next
        // read will pay the seek because the head no longer matches).
        self.fetched = self.fetched.max((self.next_page * self.page_size) as f64);
    }

    /// Index of the page the next [`FileStream::next_page`] call would
    /// return (== [`FileStream::pages`] at EOF). Scanners peek this to
    /// consult zone maps before deciding whether to read or skip.
    pub fn peek_index(&self) -> usize {
        self.next_page
    }

    /// Skip `n` pages that a zone map proved free of qualifying values:
    /// no transfer is charged (the burst covering them is never issued) and
    /// the skip is recorded in the array's [`IoStats::pages_skipped`]
    /// counter. The head reposition is paid by the next actual read, which
    /// no longer continues a sequential run.
    ///
    /// [`IoStats::pages_skipped`]: crate::stats::IoStats
    pub fn skip_pages_zoned(&mut self, n: usize) {
        let before = self.next_page;
        self.skip_pages(n);
        let skipped = (self.next_page - before) as u64;
        if skipped > 0 {
            self.disk.borrow_mut().note_pages_skipped(skipped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::{CacheSpec, FaultSpec, HardwareConfig, SystemConfig};

    fn disk(depth: usize) -> SharedDisk {
        let sys = SystemConfig::default().with_prefetch_depth(depth);
        Rc::new(RefCell::new(
            DiskArray::new(&HardwareConfig::default(), &sys, 1.0).unwrap(),
        ))
    }

    fn disk_with(sys: &SystemConfig) -> SharedDisk {
        Rc::new(RefCell::new(
            DiskArray::new(&HardwareConfig::default(), sys, 1.0).unwrap(),
        ))
    }

    fn file(pages: usize, page_size: usize) -> Arc<Vec<u8>> {
        let mut v = vec![0u8; pages * page_size];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (i / page_size) as u8;
        }
        Arc::new(v)
    }

    #[test]
    fn yields_every_page_in_order() {
        let d = disk(48);
        let f = file(10, 4096);
        let mut s = FileStream::new(d.clone(), FileId(1), f, 4096).unwrap();
        assert_eq!(s.pages(), 10);
        for i in 0..10 {
            let p = s.next_page().unwrap();
            assert_eq!(p.page_index, i);
            assert_eq!(p.bytes().len(), 4096);
            assert!(p.bytes().iter().all(|&b| b == i as u8));
        }
        assert!(s.next_page().is_none());
        assert_eq!(s.remaining(), 0);
        // One seek (initial), whole file transferred.
        assert_eq!(d.borrow().stats().seeks, 1);
        assert!((d.borrow().stats().bytes_read - 40960.0).abs() < 0.5);
    }

    #[test]
    fn bursts_amortize_page_fetches() {
        let d = disk(48); // burst = 6 MB >> 10-page file
        let f = file(10, 4096);
        let mut s = FileStream::new(d.clone(), FileId(1), f, 4096).unwrap();
        while s.next_page().is_some() {}
        assert_eq!(d.borrow().stats().bursts, 1);

        let d2 = disk(48);
        // Force tiny bursts via a large scale: each page needs many reads.
        let sys = SystemConfig::default().with_prefetch_depth(1);
        let tiny = Rc::new(RefCell::new(
            DiskArray::new(&HardwareConfig::default(), &sys, 1000.0).unwrap(),
        ));
        let f = file(4, 4096);
        let mut s = FileStream::new(tiny.clone(), FileId(1), f, 4096).unwrap();
        while s.next_page().is_some() {}
        // 16384 bytes / (131072/1000) ≈ 125 bursts.
        assert!(tiny.borrow().stats().bursts > 100);
        drop(d2);
    }

    #[test]
    fn two_streams_interleave_with_seeks() {
        let d = disk(1); // burst = 128 KB = 32 pages
        let fa = file(64, 4096);
        let fb = file(64, 4096);
        let mut a = FileStream::new(d.clone(), FileId(1), fa, 4096).unwrap();
        let mut b = FileStream::new(d.clone(), FileId(2), fb, 4096).unwrap();
        loop {
            let pa = a.next_page();
            let pb = b.next_page();
            if pa.is_none() && pb.is_none() {
                break;
            }
        }
        // 2 files × 256 KB ÷ 128 KB bursts = 4 bursts, alternating files → 4 seeks.
        assert_eq!(d.borrow().stats().bursts, 4);
        assert_eq!(d.borrow().stats().seeks, 4);
    }

    #[test]
    fn misaligned_file_rejected() {
        let d = disk(48);
        let f = Arc::new(vec![0u8; 4097]);
        assert!(FileStream::new(d, FileId(0), f, 4096).is_err());
    }

    #[test]
    fn skip_pages_repositions() {
        let d = disk(1);
        let f = file(100, 4096);
        let mut s = FileStream::new(d.clone(), FileId(1), f, 4096).unwrap();
        s.skip_pages(50);
        let p = s.next_page().unwrap();
        assert_eq!(p.page_index, 50);
        s.skip_pages(1000);
        assert!(s.next_page().is_none());
    }

    #[test]
    fn rescan_hits_resident_frames_and_skips_transfer() {
        let sys = SystemConfig::default().with_cache(CacheSpec::lru_k(64));
        let d = disk_with(&sys);
        let f = file(10, 4096);
        let mut s = FileStream::new(d.clone(), FileId(1), f.clone(), 4096).unwrap();
        while let Some(p) = s.next_page() {
            assert_eq!(p.bytes().len(), 4096);
        }
        let cold = *d.borrow().stats();
        assert_eq!(cold.cache.misses, 10, "cold scan misses every page");
        assert_eq!(cold.cache.hits, 0);
        // Re-scan the same buffer: every page is resident, so no bursts, no
        // bytes, no seeks — the modeled I/O time of the re-scan is zero.
        let mut s2 = FileStream::new(d.clone(), FileId(2), f, 4096).unwrap();
        for i in 0..10 {
            let p = s2.next_page().unwrap();
            assert_eq!(p.page_index, i);
            assert!(p.bytes().iter().all(|&b| b == i as u8));
        }
        let hot = *d.borrow().stats();
        assert_eq!(hot.cache.hits, 10);
        assert_eq!(hot.cache.misses, 10);
        assert_eq!(hot.bytes_read, cold.bytes_read);
        assert_eq!(hot.bursts, cold.bursts);
        assert_eq!(hot.seeks, cold.seeks);
        assert_eq!(hot.total_s(), cold.total_s(), "hits charge no disk time");
    }

    #[test]
    fn cold_scan_accounting_is_identical_with_cache_on() {
        // Enabling the cache must not perturb the paper's cold-scan clock:
        // the first pass over a file charges byte-for-byte the same
        // transfer, seeks and bursts as the cache-off engine.
        let run = |sys: &SystemConfig| {
            let d = disk_with(sys);
            let f = file(30, 4096);
            let mut s = FileStream::new(d.clone(), FileId(1), f, 4096).unwrap();
            while s.next_page().is_some() {}
            let stats = *d.borrow().stats();
            stats
        };
        let off = run(&SystemConfig::default());
        let on = run(&SystemConfig::default().with_cache(CacheSpec::lru_k(8)));
        assert_eq!(on.bytes_read, off.bytes_read);
        assert_eq!(on.bursts, off.bursts);
        assert_eq!(on.seeks, off.seeks);
        assert_eq!(on.transfer_s, off.transfer_s);
        assert_eq!(on.seek_s, off.seek_s);
        assert_eq!(off.cache, crate::stats::CacheStats::default());
        assert_eq!(on.cache.misses, 30);
        assert_eq!(on.cache.hits, 0);
        // 8 frames over 30 pages: 22 insertions had to evict.
        assert_eq!(on.cache.evictions, 22);
    }

    #[test]
    fn zoned_skips_bypass_the_cache() {
        // A zone-rejected page is neither fetched nor cached: skipping must
        // record no hit, no miss, and leave no resident frame behind.
        let sys = SystemConfig::default().with_cache(CacheSpec::lru_k(64));
        let d = disk_with(&sys);
        let f = file(50, 4096);
        let mut s = FileStream::new(d.clone(), FileId(1), f, 4096).unwrap();
        s.skip_pages_zoned(40);
        while s.next_page().is_some() {}
        let st = *d.borrow().stats();
        assert_eq!(st.pages_skipped, 40);
        assert_eq!(st.cache.hits + st.cache.misses, 10);
        assert_eq!(st.cache.misses, 10);
    }

    #[test]
    fn damaged_pages_stay_out_and_repaired_pages_enter_clean() {
        // Every primary read is damaged. With one replica the damage comes
        // back and is never cached, so a re-scan misses again; with two the
        // replica repairs the page, which is then cached and hit.
        for (mirror, rescan_hits) in [(1, 0), (2, 10)] {
            let sys = SystemConfig::default()
                .with_faults(FaultSpec::always(11))
                .with_mirror(mirror)
                .with_cache(CacheSpec::lru_k(64));
            let d = disk_with(&sys);
            let f = file(10, 4096);
            for _ in 0..2 {
                let mut s = FileStream::new(d.clone(), FileId(1), f.clone(), 4096).unwrap();
                for i in 0..10 {
                    let p = s.next_page().unwrap();
                    let clean = p.bytes() == &f[i * 4096..(i + 1) * 4096];
                    assert_eq!(clean, mirror == 2, "mirror {mirror} page {i}");
                }
            }
            let st = *d.borrow().stats();
            assert_eq!(st.cache.hits, rescan_hits, "mirror {mirror}");
            assert_eq!(st.cache.misses, 20 - rescan_hits, "mirror {mirror}");
        }
    }

    #[test]
    fn zoned_skips_charge_no_transfer_and_are_counted() {
        let d = disk(1); // burst = 128 KB = 32 pages
        let f = file(100, 4096);
        let mut s = FileStream::new(d.clone(), FileId(1), f, 4096).unwrap();
        assert_eq!(s.peek_index(), 0);
        s.skip_pages_zoned(40);
        assert_eq!(s.peek_index(), 40);
        let p = s.next_page().unwrap();
        assert_eq!(p.page_index, 40);
        // Pages 0..40 were never transferred: bytes cover the burst(s) that
        // start at page 40, not the skipped prefix.
        assert!(d.borrow().stats().bytes_read < (100 - 40) as f64 * 4096.0 + 0.5);
        assert_eq!(d.borrow().stats().pages_skipped, 40);
        // Skipping past EOF only counts real pages.
        s.skip_pages_zoned(1_000);
        assert_eq!(d.borrow().stats().pages_skipped, 99);
        assert!(s.next_page().is_none());
        // Clamped skip at EOF adds nothing.
        s.skip_pages_zoned(1);
        assert_eq!(d.borrow().stats().pages_skipped, 99);
    }
}
