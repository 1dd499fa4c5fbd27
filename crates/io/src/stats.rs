//! I/O accounting. Each struct is declared once through
//! [`rodb_trace::fields!`]; `merge`, `delta`, `to_json` and the `io.*` span
//! keys all derive from that declaration.

use rodb_trace::fields;

fields! {
    /// Fault-recovery counters for one query execution, carried inside
    /// [`IoStats`] so they merge across parallel morsels exactly like the rest
    /// of the I/O accounting.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RecoveryStats {
        /// Replica reads attempted after a CRC-failing primary read.
        pub retries: u64,
        /// Pages recovered from a clean replica (and written back).
        pub repairs: u64,
        /// Pages newly quarantined because every replica was bad.
        pub quarantined_pages: u64,
        /// Rows dropped by degraded (`on_corrupt = Skip`) scans.
        pub dropped_rows: u64,
        /// WAL records replayed by an ingest-store recovery.
        pub wal_replayed: u64,
        /// WAL records (or residual torn blobs) discarded past the valid prefix.
        pub wal_discarded: u64,
    }
}

fields! {
    /// Page-cache counters for one query execution, carried inside [`IoStats`]
    /// so they merge across parallel morsels exactly like the rest of the I/O
    /// accounting. All zero when [`SystemConfig::cache`] is off.
    ///
    /// The reconciliation invariant (locked by `crates/core/tests`): with the
    /// cache enabled, `hits + misses` equals the number of page reads the
    /// scanners requested, and — because a hit charges neither transfer nor
    /// seek — [`IoStats::total_s`] is the disk time of the misses alone.
    ///
    /// [`SystemConfig::cache`]: rodb_types::SystemConfig
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Page requests served from a resident frame (no transfer charged).
        pub hits: u64,
        /// Page requests that went to the disk array.
        pub misses: u64,
        /// Frames evicted to make room (LRU-K victims).
        pub evictions: u64,
    }
}

impl CacheStats {
    /// Cache-mediated page requests: every one is a hit or a miss.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction of all cache-mediated page requests (0 when none).
    pub fn hit_ratio(&self) -> f64 {
        match self.requests() {
            0 => 0.0,
            total => self.hits as f64 / total as f64,
        }
    }
}

fields! {
    /// Counters accumulated by the disk-array simulator for one query execution.
    ///
    /// `bytes_read` / `seeks` / `bursts` cover the *foreground* query only;
    /// competitor service shows up in `comp_bursts` and in the clock.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct IoStats {
        /// Foreground bytes transferred (virtual bytes — already scale-adjusted).
        pub bytes_read: f64,
        /// Foreground seeks performed (head moved between sequential runs).
        pub seeks: u64,
        /// Foreground burst requests issued (one per prefetch-depth read).
        pub bursts: u64,
        /// Bursts served to competing scans while this query ran.
        pub comp_bursts: u64,
        /// Seconds the disks spent transferring foreground data.
        pub transfer_s: f64,
        /// Seconds the disks spent seeking for the foreground.
        pub seek_s: f64,
        /// Seconds the disks spent serving competitors (their seeks + transfers).
        pub comp_s: f64,
        /// Pages skipped without transfer because a zone map proved them
        /// irrelevant (the fast scan path's page-skipping evidence).
        pub pages_skipped: u64,
        /// Fault-recovery counters (mirrored-read retries, repairs, quarantine,
        /// degraded-scan drops).
        pub recovery: RecoveryStats,
        /// Page-cache counters (hits, misses, evictions).
        pub cache: CacheStats,
    }
    total "total_s" = total_s;
}

impl IoStats {
    /// Total disk-busy seconds attributable to this query's elapsed time.
    pub fn total_s(&self) -> f64 {
        self.transfer_s + self.seek_s + self.comp_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_trace::Json;

    #[test]
    fn totals_add_up() {
        let s = IoStats {
            transfer_s: 1.0,
            seek_s: 0.25,
            comp_s: 0.5,
            ..Default::default()
        };
        assert!((s.total_s() - 1.75).abs() < 1e-12);
        assert_eq!(IoStats::default().total_s(), 0.0);
    }

    #[test]
    fn json_carries_every_field() {
        let s = IoStats {
            bytes_read: 1.0e6,
            seeks: 3,
            bursts: 5,
            transfer_s: 0.5,
            seek_s: 0.012,
            pages_skipped: 7,
            recovery: RecoveryStats {
                retries: 2,
                repairs: 1,
                ..Default::default()
            },
            cache: CacheStats {
                hits: 9,
                misses: 4,
                evictions: 2,
            },
            ..Default::default()
        };
        let j = s.to_json();
        assert_eq!(j.get("seeks").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("total_s").unwrap().as_f64(), Some(s.total_s()));
        let rec = j.get("recovery").unwrap();
        assert_eq!(rec.get("retries").unwrap().as_f64(), Some(2.0));
        let cache = j.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(9.0));
        assert_eq!(cache.get("evictions").unwrap().as_f64(), Some(2.0));
        // Round-trips through the shared parser.
        assert!(Json::parse(&j.pretty()).is_ok());
    }

    #[test]
    fn cache_hit_ratio() {
        let mut c = CacheStats::default();
        assert_eq!(c.hit_ratio(), 0.0);
        c.hits = 3;
        c.misses = 1;
        assert!((c.hit_ratio() - 0.75).abs() < 1e-12);
        let mut other = CacheStats {
            hits: 1,
            misses: 3,
            evictions: 5,
        };
        other.merge(&c);
        assert_eq!(other.hits, 4);
        assert_eq!(other.misses, 4);
        assert_eq!(other.evictions, 5);
    }
}
