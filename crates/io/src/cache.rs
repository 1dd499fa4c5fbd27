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
//! transfers and evictions. The one data-path effect is fault injection: a
//! damaged page is never cached.
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
    /// Timestamp of the newest reference.
    last: u64,
    /// Up to `k - 1` earlier reference timestamps, oldest first.
    older: VecDeque<u64>,
}

impl Frame {
    /// Victim-order key: class 0 (fewer than `k` references, infinite
    /// backward-K distance) sorts — and therefore evicts — before class 1;
    /// within a class the frame with the oldest relevant timestamp (last
    /// reference for class 0, K-th-most-recent for class 1) goes first.
    fn order_key(&self, k: usize, key: PageKey) -> (u8, u64, PageKey) {
        if self.older.len() + 1 < k {
            (0, self.last, key)
        } else {
            (1, *self.older.front().unwrap_or(&self.last), key)
        }
    }
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

    /// Look `key` up, recording a reference on hit. `false` is a miss (the
    /// caller reads from disk and then [`PageCache::insert`]s).
    pub fn lookup(&mut self, key: PageKey) -> bool {
        let Some(frame) = self.frames.get_mut(&key) else {
            return false;
        };
        self.order.remove(&frame.order_key(self.k, key));
        self.clock += 1;
        frame.older.push_back(frame.last);
        if frame.older.len() >= self.k {
            frame.older.pop_front();
        }
        frame.last = self.clock;
        self.order.insert(frame.order_key(self.k, key));
        true
    }

    /// Insert `key` with one reference recorded, evicting the LRU-K victim
    /// if the cache is full. Returns the evicted key, if any. With zero
    /// capacity, or when `key` is already resident, nothing changes.
    pub fn insert(&mut self, key: PageKey) -> Option<PageKey> {
        if self.capacity == 0 || self.frames.contains_key(&key) {
            return None;
        }
        let evicted = if self.frames.len() >= self.capacity {
            self.order.pop_first().map(|(_, _, victim)| {
                self.frames.remove(&victim);
                victim
            })
        } else {
            None
        };
        self.clock += 1;
        let frame = Frame {
            last: self.clock,
            older: VecDeque::new(),
        };
        self.order.insert(frame.order_key(self.k, key));
        self.frames.insert(key, frame);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(frames: usize, k: usize) -> PageCache {
        PageCache::new(&CacheSpec { frames, k })
    }

    #[test]
    fn hits_after_insert_and_capacity_bound() {
        let mut c = cache(2, 2);
        assert!(!c.lookup((1, 0)));
        assert_eq!(c.insert((1, 0)), None);
        assert!(c.lookup((1, 0)));
        assert_eq!(c.insert((1, 1)), None);
        assert_eq!(c.len(), 2);
        // Third insert evicts; capacity never exceeded.
        assert!(c.insert((1, 2)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut c = cache(0, 2);
        assert_eq!(c.insert((1, 0)), None);
        assert!(!c.lookup((1, 0)));
        assert!(c.is_empty());
    }

    #[test]
    fn single_frame_cache_churns() {
        let mut c = cache(1, 2);
        assert_eq!(c.insert((1, 0)), None);
        assert_eq!(c.insert((1, 1)), Some((1, 0)));
        assert!(!c.lookup((1, 0)));
        assert!(c.lookup((1, 1)));
    }

    #[test]
    fn scan_cannot_flush_rereferenced_frames() {
        let mut c = cache(4, 2);
        // Hot pages referenced twice → class 1.
        for p in 0..2u64 {
            c.insert((1, p));
            c.lookup((1, p));
        }
        // A long one-pass scan: each page seen exactly once.
        for p in 100..200u64 {
            assert!(!c.lookup((2, p)));
            let evicted = c.insert((2, p));
            if let Some((file, _)) = evicted {
                assert_eq!(file, 2, "scan evicted a hot frame");
            }
        }
        assert!(c.lookup((1, 0)));
        assert!(c.lookup((1, 1)));
    }

    #[test]
    fn k1_degenerates_to_lru() {
        let mut c = cache(2, 1);
        c.insert((1, 0));
        c.insert((1, 1));
        c.lookup((1, 0)); // 0 now more recent than 1
        assert_eq!(c.insert((1, 2)), Some((1, 1)));
    }
}
