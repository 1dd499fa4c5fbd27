//! Buffer-pool page cache with scan-resistant LRU-K eviction.
//!
//! The paper's storage manager deliberately has no buffer pool ("it does not
//! make a difference for sequential accesses", §2.2.3) — correct for one cold
//! scan, wrong for hot working sets. [`PageCache`] sits between the
//! [`FileStream`] prefetcher and the [`DiskArray`] clock: a resident page
//! skips transfer entirely, a missing page pays the usual burst reads and is
//! then inserted.
//!
//! **Eviction** is classic LRU-K (O'Neil et al.): each resident frame keeps
//! its last `k` reference timestamps, and the victim is the frame whose
//! K-th-most-recent reference is oldest. Frames with *fewer* than `k`
//! references have infinite backward-K distance, so they are evicted — LRU
//! among themselves — before any frame referenced `k`+ times. That is the
//! scan-resistance property: a one-pass table scan touches every page once,
//! so its pages can only displace each other, never the re-referenced hot
//! set. History is kept for resident frames only (no ghost entries), which
//! keeps the policy a pure function of the resident set and makes it cheap
//! to model exactly (see `tests/cache_prop.rs`).
//!
//! **Determinism.** Timestamps come from a logical clock bumped on every
//! access/insert, so they are globally unique and the victim total order
//! `(history < k, timestamp)` never needs a tie-break. Hit/miss decisions
//! and the eviction sequence are therefore reproducible regardless of
//! `HashMap` iteration order — the ordered index below is a `BTreeSet`
//! consulted only through its minimum.
//!
//! **Frames carry no data.** The simulator's file bytes already live in
//! memory (`FileStream::data`); the cache tracks *residency* (what a real
//! buffer pool would hold) and the accounting consequences: skipped
//! transfers, evictions, prefetch insertions. The one data-path effect is
//! fault injection: a damaged page is never cached, and an unverified
//! (prefetch-inserted) frame defers its fault roll to first access.
//!
//! [`FileStream`]: crate::stream::FileStream
//! [`DiskArray`]: crate::disk::DiskArray

use std::collections::{BTreeSet, HashMap, VecDeque};

use rodb_types::CacheSpec;

/// Cache key: `(file, page)`. Streams key on a stable identity of the file's
/// backing buffer so a shared cache survives across queries whose transient
/// [`FileId`](crate::disk::FileId) assignments differ.
pub type PageKey = (u64, u64);

#[derive(Debug)]
struct Frame {
    /// Last `k` reference timestamps, oldest first.
    hist: VecDeque<u64>,
    /// False for prefetch-inserted frames whose CRC/fault roll is deferred
    /// to first demand access.
    verified: bool,
}

/// Victim-order key for one frame: class 0 (fewer than `k` references,
/// infinite backward-K distance) sorts — and therefore evicts — before
/// class 1; within a class the frame with the oldest relevant timestamp
/// (last reference for class 0, K-th-most-recent for class 1) goes first.
fn order_key(k: usize, key: PageKey, hist: &VecDeque<u64>) -> (u8, u64, PageKey) {
    if hist.len() < k {
        (
            0,
            *hist.back().expect("frame has at least one reference"),
            key,
        )
    } else {
        (1, *hist.front().expect("k >= 1"), key)
    }
}

/// Outcome of a [`PageCache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// Resident and verified: serve from memory, charge nothing.
    Verified,
    /// Resident but inserted by prefetch: the fault roll is still owed.
    Unverified,
}

/// A sized page cache with deterministic LRU-K eviction. One per
/// [`DiskArray`](crate::disk::DiskArray) by default; wrap it in
/// [`SharedPageCache`](crate::SharedPageCache) to persist residency across
/// query executions (the hot-table scenario
/// `crates/core/tests/cache_accounting.rs` pins).
#[derive(Debug)]
pub struct PageCache {
    frames: HashMap<PageKey, Frame>,
    order: BTreeSet<(u8, u64, PageKey)>,
    capacity: usize,
    k: usize,
    clock: u64,
}

impl PageCache {
    pub fn new(spec: &CacheSpec) -> PageCache {
        PageCache {
            frames: HashMap::new(),
            order: BTreeSet::new(),
            capacity: spec.frames,
            k: spec.k.clamp(1, 8),
            clock: 0,
        }
    }

    /// Capacity in page frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident frame count.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Resident fraction of capacity (0.0 for a zero-frame cache) — the
    /// occupancy gauge the observability timeline samples.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.frames.len() as f64 / self.capacity as f64
        }
    }

    /// Look `key` up, recording a reference on hit. `None` is a miss (the
    /// caller reads from disk and then [`PageCache::insert`]s).
    pub fn lookup(&mut self, key: PageKey) -> Option<CacheHit> {
        let frame = self.frames.get_mut(&key)?;
        self.order.remove(&order_key(self.k, key, &frame.hist));
        self.clock += 1;
        if frame.hist.len() == self.k {
            frame.hist.pop_front();
        }
        frame.hist.push_back(self.clock);
        self.order.insert(order_key(self.k, key, &frame.hist));
        Some(if frame.verified {
            CacheHit::Verified
        } else {
            CacheHit::Unverified
        })
    }

    /// Insert `key` with one reference recorded, evicting the LRU-K victim
    /// if the cache is full. Returns the evicted key, if any. With zero
    /// capacity nothing is inserted; re-inserting a resident key only
    /// upgrades its verified flag (never downgrades — the page was read
    /// clean at least once).
    pub fn insert(&mut self, key: PageKey, verified: bool) -> Option<PageKey> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(frame) = self.frames.get_mut(&key) {
            frame.verified |= verified;
            return None;
        }
        let evicted = if self.frames.len() >= self.capacity {
            let victim = self.order.first().copied().expect("full cache is nonempty");
            self.order.remove(&victim);
            self.frames.remove(&victim.2);
            Some(victim.2)
        } else {
            None
        };
        self.clock += 1;
        let hist = VecDeque::from([self.clock]);
        self.order.insert(order_key(self.k, key, &hist));
        self.frames.insert(key, Frame { hist, verified });
        evicted
    }

    /// Mark a resident frame as verified (its deferred fault roll came back
    /// clean).
    pub fn mark_verified(&mut self, key: PageKey) {
        if let Some(frame) = self.frames.get_mut(&key) {
            frame.verified = true;
        }
    }

    /// Drop `key` if resident (repair/quarantine invalidation). Returns
    /// whether a frame was removed.
    pub fn invalidate(&mut self, key: PageKey) -> bool {
        match self.frames.remove(&key) {
            Some(frame) => {
                self.order.remove(&order_key(self.k, key, &frame.hist));
                true
            }
            None => false,
        }
    }

    /// Whether `key` is resident (no reference is recorded).
    pub fn contains(&self, key: PageKey) -> bool {
        self.frames.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(frames: usize, k: usize) -> PageCache {
        PageCache::new(&CacheSpec {
            frames,
            k,
            prefetch: false,
        })
    }

    #[test]
    fn hits_after_insert_and_capacity_bound() {
        let mut c = cache(2, 2);
        assert!(c.lookup((1, 0)).is_none());
        assert_eq!(c.insert((1, 0), true), None);
        assert_eq!(c.lookup((1, 0)), Some(CacheHit::Verified));
        assert_eq!(c.insert((1, 1), true), None);
        assert_eq!(c.len(), 2);
        // Third insert evicts; capacity never exceeded.
        assert!(c.insert((1, 2), true).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut c = cache(0, 2);
        assert_eq!(c.insert((1, 0), true), None);
        assert!(c.lookup((1, 0)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn single_frame_cache_churns() {
        let mut c = cache(1, 2);
        assert_eq!(c.insert((1, 0), true), None);
        assert_eq!(c.insert((1, 1), true), Some((1, 0)));
        assert!(c.lookup((1, 0)).is_none());
        assert_eq!(c.lookup((1, 1)), Some(CacheHit::Verified));
    }

    #[test]
    fn scan_cannot_flush_rereferenced_frames() {
        let mut c = cache(4, 2);
        // Hot pages referenced twice → class 1.
        for p in 0..2u64 {
            c.insert((1, p), true);
            c.lookup((1, p));
        }
        // A long one-pass scan: each page seen exactly once.
        for p in 100..200u64 {
            assert!(c.lookup((2, p)).is_none());
            let evicted = c.insert((2, p), true);
            if let Some((file, _)) = evicted {
                assert_eq!(file, 2, "scan evicted a hot frame");
            }
        }
        assert_eq!(c.lookup((1, 0)), Some(CacheHit::Verified));
        assert_eq!(c.lookup((1, 1)), Some(CacheHit::Verified));
    }

    #[test]
    fn unverified_frames_verify_once() {
        let mut c = cache(2, 2);
        c.insert((1, 0), false);
        assert_eq!(c.lookup((1, 0)), Some(CacheHit::Unverified));
        c.mark_verified((1, 0));
        assert_eq!(c.lookup((1, 0)), Some(CacheHit::Verified));
        // Re-insert never downgrades.
        c.insert((1, 0), false);
        assert_eq!(c.lookup((1, 0)), Some(CacheHit::Verified));
    }

    #[test]
    fn invalidate_removes_frames() {
        let mut c = cache(2, 2);
        c.insert((1, 0), true);
        assert!(c.contains((1, 0)));
        assert!(c.invalidate((1, 0)));
        assert!(!c.invalidate((1, 0)));
        assert!(c.lookup((1, 0)).is_none());
        assert_eq!(c.len(), 0);
        // The order index stayed consistent: filling up works again.
        c.insert((1, 1), true);
        c.insert((1, 2), true);
        assert_eq!(c.len(), 2);
        assert!(c.insert((1, 3), true).is_some());
    }

    #[test]
    fn k1_degenerates_to_lru() {
        let mut c = cache(2, 1);
        c.insert((1, 0), true);
        c.insert((1, 1), true);
        c.lookup((1, 0)); // 0 now more recent than 1
        assert_eq!(c.insert((1, 2), true), Some((1, 1)));
    }
}
