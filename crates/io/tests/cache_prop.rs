//! Property tests for the LRU-K page cache in isolation.
//!
//! A pure-`Vec` reference model re-implements the documented policy with
//! nothing but linear scans — no `BTreeSet` order index, no `HashMap` — and
//! is diffed against [`PageCache`] over randomized access traces: every
//! hit/miss decision and the exact evicted-frame sequence must match. The
//! scan-resistance invariant gets its own direct test: a one-pass scan of
//! N ≫ capacity pages never evicts a frame referenced K or more times.

use rodb_io::cache::{PageCache, PageKey};
use rodb_types::{CacheSpec, SplitMix64};

/// The reference model: frames as a flat `Vec`, victim chosen by a linear
/// minimum over the spec's total order — frames with fewer than `k`
/// recorded references (infinite backward-K distance) evict first, LRU by
/// last reference among themselves; frames with `k` references evict by
/// oldest K-th-most-recent reference. Timestamps are unique, so the order
/// is total and no tie-break is needed.
struct ModelCache {
    frames: Vec<(PageKey, Vec<u64>)>,
    capacity: usize,
    k: usize,
    clock: u64,
}

impl ModelCache {
    fn new(capacity: usize, k: usize) -> ModelCache {
        ModelCache {
            frames: Vec::new(),
            capacity,
            k,
            clock: 0,
        }
    }

    fn lookup(&mut self, key: PageKey) -> bool {
        self.clock += 1;
        let k = self.k;
        let clock = self.clock;
        let Some(frame) = self.frames.iter_mut().find(|(f, _)| *f == key) else {
            return false;
        };
        frame.1.push(clock);
        if frame.1.len() > k {
            frame.1.remove(0);
        }
        true
    }

    fn insert(&mut self, key: PageKey) -> Option<PageKey> {
        if self.capacity == 0 || self.frames.iter().any(|(f, _)| *f == key) {
            return None;
        }
        let evicted = if self.frames.len() >= self.capacity {
            let victim = self
                .frames
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, hist))| {
                    if hist.len() < self.k {
                        (0u8, *hist.last().unwrap())
                    } else {
                        (1u8, hist[0])
                    }
                })
                .map(|(i, _)| i)
                .unwrap();
            Some(self.frames.remove(victim).0)
        } else {
            None
        };
        self.clock += 1;
        self.frames.push((key, vec![self.clock]));
        evicted
    }
}

/// Drive both implementations through the same randomized trace of
/// lookup/insert operations and require identical observable behavior at
/// every step.
fn diff_trace(seed: u64, capacity: usize, k: usize, steps: usize, keyspace: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut real = PageCache::new(&CacheSpec {
        frames: capacity,
        k,
    });
    let mut model = ModelCache::new(capacity, k);
    for step in 0..steps {
        let key: PageKey = (1 + rng.below(3), rng.below(keyspace));
        let ctx = format!("seed {seed} cap {capacity} k {k} step {step} key {key:?}");
        if rng.below(10) < 9 {
            // Mostly: the stream protocol — look up, insert on miss.
            let hit = real.lookup(key);
            assert_eq!(hit, model.lookup(key), "hit/miss diverged: {ctx}");
            if !hit {
                assert_eq!(real.insert(key), model.insert(key), "eviction: {ctx}");
            }
        } else {
            // A blind insert (may already be resident).
            assert_eq!(
                real.insert(key),
                model.insert(key),
                "blind insert eviction: {ctx}"
            );
        }
        assert_eq!(real.len(), model.frames.len(), "resident count: {ctx}");
        assert!(real.len() <= capacity, "capacity exceeded: {ctx}");
    }
}

#[test]
fn model_diff_over_randomized_traces() {
    // Capacities around and below the keyspace, K from plain LRU to 4.
    for (capacity, k, keyspace) in [
        (1, 2, 8),
        (2, 1, 8),
        (4, 2, 16),
        (8, 2, 8), // larger than per-file keyspace: few evictions
        (7, 3, 64),
        (16, 4, 48),
        (0, 2, 8), // zero-capacity: every lookup misses, nothing resident
    ] {
        for seed in 0..20u64 {
            diff_trace(seed ^ (capacity as u64) << 32, capacity, k, 600, keyspace);
        }
    }
}

#[test]
fn one_pass_scan_evicts_no_rereferenced_frame() {
    for k in [2usize, 3] {
        let capacity = 32;
        let mut cache = PageCache::new(&CacheSpec {
            frames: capacity,
            k,
        });
        // Hot set: 8 pages referenced k times each (resident history only,
        // so the reuse distance of each is < K by construction).
        let hot: Vec<PageKey> = (0..8).map(|p| (1, p)).collect();
        for &key in &hot {
            cache.insert(key);
            for _ in 1..k {
                assert!(cache.lookup(key));
            }
        }
        // One-pass scan of N >> capacity pages: every page seen exactly once.
        for p in 0..2048u64 {
            let key = (2, p);
            assert!(!cache.lookup(key), "scan pages are cold");
            if let Some(evicted) = cache.insert(key) {
                assert_eq!(evicted.0, 2, "scan evicted hot frame {evicted:?} (k = {k})");
            }
        }
        // The whole hot set survived and still hits.
        for &key in &hot {
            assert!(cache.lookup(key), "k = {k}");
        }
    }
}
