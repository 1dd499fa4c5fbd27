//! System and hardware configuration.
//!
//! [`SystemConfig`] carries the storage-manager knobs of §2.2/§3.2 (page
//! size, I/O unit, prefetch depth, tuple-block size). [`HardwareConfig`]
//! describes the simulated platform; its default is the paper's testbed — a
//! Pentium 4 at 3.2 GHz over a 3-disk software RAID delivering 180 MB/s —
//! which rates at **18 cycles per disk byte (cpdb)**, exactly as §5 states.

use crate::error::{Error, Result};

/// Deterministic fault-injection parameters for the simulated disk array.
///
/// When installed on a [`SystemConfig`], every page the I/O layer hands to a
/// scan has a `rate_ppm`-in-a-million chance of arriving damaged — a few
/// flipped bits, a truncated page, or a short (tail-zeroed) read. Which pages
/// are hit and how is a pure function of `seed` and the page bytes, so a
/// failing run is replayable from the seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for the fault-site RNG.
    pub seed: u64,
    /// Faults per million page reads of the *primary* replica
    /// (1_000_000 = every page).
    pub rate_ppm: u32,
    /// Fault rate for mirror replicas (replica index >= 1). Defaults to 0 so
    /// a mirrored read always finds a clean copy; raise it to model
    /// correlated media failure across the stripe.
    pub replica_rate_ppm: u32,
}

impl FaultSpec {
    /// Faults on `rate_ppm` of primary reads, mirrors clean.
    pub fn at_rate(seed: u64, rate_ppm: u32) -> FaultSpec {
        FaultSpec {
            seed,
            rate_ppm,
            replica_rate_ppm: 0,
        }
    }

    /// Corrupt every primary page read (the fuzzer's corruption mode).
    pub fn always(seed: u64) -> FaultSpec {
        FaultSpec::at_rate(seed, 1_000_000)
    }
}

/// Sizing of the optional buffer-pool page-cache tier between the stream
/// prefetcher and the simulated disk array.
///
/// The paper's I/O model is a single cold scan with zero reuse, so the cache
/// defaults to **off** ([`SystemConfig::cache`] is `None`) and every paper
/// curve still measures the cold-scan engine. When enabled, frames are keyed
/// by `(file, page)` and evicted LRU-K style: one large table scan (every
/// frame touched once) can never flush pages that have been referenced `k`
/// or more times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Cache capacity in page frames. `0` is legal and means "enabled but
    /// always misses" (useful to measure pure bookkeeping overhead).
    pub frames: usize,
    /// The K of LRU-K: frames with fewer than `k` recorded references are
    /// evicted (LRU among themselves) before any frame with `k` references.
    /// Must be in `1..=8`; `k == 1` degenerates to plain LRU.
    pub k: usize,
}

impl CacheSpec {
    /// A scan-resistant LRU-2 cache of `frames` page frames.
    pub fn lru_k(frames: usize) -> CacheSpec {
        CacheSpec { frames, k: 2 }
    }
}

/// Knobs of the concurrent query service (shared cooperative scans with
/// admission control). `None` on [`SystemConfig::service`] — the default —
/// means the service layer is bypassed entirely and single-query execution
/// is the bit-identical PR-7 engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSpec {
    /// Upper bound on queries executing concurrently; arrivals beyond it
    /// wait in the admission queue.
    pub max_inflight: usize,
    /// Scheduling slice in *modeled* seconds: the service cuts every shared
    /// scan cursor into segments of roughly this much disk time, so this is
    /// both the late-attach granularity and the fairness quantum between
    /// concurrently active cursors.
    pub slice_s: f64,
    /// Optional per-query deadline in modeled seconds from arrival. A query
    /// whose queue wait alone exceeds it is rejected at admission; one that
    /// finishes past it completes but is flagged `deadline_missed`.
    pub deadline_s: Option<f64>,
    /// Width in *modeled* seconds of the windows the service's books use:
    /// counters and histograms recorded at clock `t` land in timeline
    /// window `floor(t / window_s)`, and the flight recorder keeps its
    /// per-window records on the same rule. Reading the clock never
    /// charges it, so no modeled number depends on this.
    pub window_s: f64,
}

impl ServiceSpec {
    /// A service with the given in-flight bound, a 0.5 s slice, no
    /// deadline, and 0.5 s windows.
    pub fn new(max_inflight: usize) -> ServiceSpec {
        ServiceSpec {
            max_inflight,
            slice_s: 0.5,
            deadline_s: None,
            window_s: 0.5,
        }
    }

    /// The same spec with a different scheduling slice.
    pub fn with_slice(mut self, slice_s: f64) -> ServiceSpec {
        self.slice_s = slice_s;
        self
    }

    /// The same spec with a per-query deadline.
    pub fn with_deadline(mut self, deadline_s: f64) -> ServiceSpec {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// The same spec with a different timeline / flight-recorder window.
    pub fn with_window(mut self, window_s: f64) -> ServiceSpec {
        self.window_s = window_s;
        self
    }
}

/// Knobs of one table's durable write path (WAL-backed WOS→ROS ingest),
/// passed to the store when the path is opened. A database that opens no
/// ingest store has no WAL and behaves exactly like the read-only engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestSpec {
    /// Auto-merge threshold: once the WOS holds at least this many
    /// acknowledged rows, the next insert triggers a WOS→ROS merge.
    /// `0` means merges are manual only.
    pub auto_merge_rows: usize,
}

impl IngestSpec {
    /// Manual merges.
    pub fn manual() -> IngestSpec {
        IngestSpec { auto_merge_rows: 0 }
    }

    /// The same spec with an auto-merge threshold.
    pub fn with_auto_merge(mut self, rows: usize) -> IngestSpec {
        self.auto_merge_rows = rows;
        self
    }
}

/// What a scan does when a page fails its checksum after all configured
/// replicas have been tried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OnCorrupt {
    /// Abort the query with `Err(Corrupt)` (PR 2's fail-fast behavior).
    Fail,
    /// Retry against mirror replicas; fail only when every replica is bad.
    /// With `mirror == 1` there is nothing to retry against, so this behaves
    /// exactly like `Fail`.
    #[default]
    Retry,
    /// Retry like [`OnCorrupt::Retry`], but when every replica is bad,
    /// quarantine the page and drop exactly its rows from the scan instead
    /// of aborting (degraded read; `dropped_rows` is reported).
    Skip,
}

impl std::fmt::Display for OnCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnCorrupt::Fail => write!(f, "fail"),
            OnCorrupt::Retry => write!(f, "retry"),
            OnCorrupt::Skip => write!(f, "skip"),
        }
    }
}

/// Storage-manager parameters (defaults are the paper's §3.2 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Database page size in bytes (paper: 4 KB).
    pub page_size: usize,
    /// I/O unit per disk in bytes (paper: 128 KB).
    pub io_unit: usize,
    /// Prefetch depth: how many I/O units are issued at once per file
    /// (paper default: 48).
    pub prefetch_depth: usize,
    /// Tuples per engine block — sized so a block fits in L1 (paper: 100).
    pub block_tuples: usize,
    /// Worker threads for morsel-driven parallel execution (1 = the paper's
    /// serial engine; the paper's testbed CPU is single-core, so >1 models a
    /// multi-core variant of the platform).
    pub threads: usize,
    /// Optional deterministic fault injection on page reads (testing only;
    /// `None` = a healthy array).
    pub faults: Option<FaultSpec>,
    /// Vectorized scan fast path: block decode kernels, predicate evaluation
    /// in code space, and zone-map page skipping. Defaults to **off** — the
    /// paper's engine is a scalar tuple-at-a-time interpreter and the shape
    /// of its CPU curves (Figures 8/9) depends on that; the fast path is the
    /// opt-in modern variant for A/B comparison. Results are bit-identical
    /// either way.
    pub scan_fast_path: bool,
    /// R-way page replication on the simulated array (1 = no redundancy).
    /// A CRC-failing read is retried against the next replica, charging a
    /// modeled backoff (seek + re-transfer) to the simulated clock.
    pub mirror: usize,
    /// Degraded-scan policy when a page is bad on every replica.
    pub on_corrupt: OnCorrupt,
    /// Optional buffer-pool page cache between the stream prefetcher and the
    /// disk array. Defaults to **off** (`None`): the paper's curves measure
    /// the cold-scan engine with zero reuse. A cached page skips transfer
    /// entirely; a zone-rejected page is neither fetched nor cached.
    pub cache: Option<CacheSpec>,
    /// Optional concurrent query service (shared cooperative scans with
    /// admission control). Defaults to **off** (`None`): queries execute
    /// one at a time through the unchanged single-query engine.
    pub service: Option<ServiceSpec>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            page_size: 4096,
            io_unit: 128 * 1024,
            prefetch_depth: 48,
            block_tuples: 100,
            threads: 1,
            faults: None,
            scan_fast_path: false,
            mirror: 1,
            on_corrupt: OnCorrupt::Retry,
            cache: None,
            service: None,
        }
    }
}

impl SystemConfig {
    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<()> {
        if self.page_size < 64 {
            return Err(Error::InvalidConfig("page_size < 64".into()));
        }
        if self.io_unit < self.page_size || !self.io_unit.is_multiple_of(self.page_size) {
            return Err(Error::InvalidConfig(
                "io_unit must be a positive multiple of page_size".into(),
            ));
        }
        if self.prefetch_depth == 0 {
            return Err(Error::InvalidConfig("prefetch_depth == 0".into()));
        }
        if self.block_tuples == 0 {
            return Err(Error::InvalidConfig("block_tuples == 0".into()));
        }
        if self.threads == 0 {
            return Err(Error::InvalidConfig("threads == 0".into()));
        }
        if let Some(f) = &self.faults {
            if f.rate_ppm > 1_000_000 || f.replica_rate_ppm > 1_000_000 {
                return Err(Error::InvalidConfig("fault rate_ppm > 1_000_000".into()));
            }
        }
        if self.mirror == 0 {
            return Err(Error::InvalidConfig("mirror == 0".into()));
        }
        if let Some(c) = &self.cache {
            if !(1..=8).contains(&c.k) {
                return Err(Error::InvalidConfig("cache k must be in 1..=8".into()));
            }
        }
        if let Some(s) = &self.service {
            if s.max_inflight == 0 {
                return Err(Error::InvalidConfig("service max_inflight == 0".into()));
            }
            for (name, v) in [("slice_s", s.slice_s), ("window_s", s.window_s)] {
                if !(v > 0.0 && v.is_finite()) {
                    return Err(Error::InvalidConfig(format!(
                        "service {name} must be finite and > 0"
                    )));
                }
            }
            if let Some(d) = s.deadline_s {
                if !(d > 0.0 && d.is_finite()) {
                    return Err(Error::InvalidConfig(
                        "service deadline_s must be finite and > 0".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Convenience: a config identical to the default but with a different
    /// prefetch depth (Figures 10 and 11 sweep this).
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Convenience: the same config with a different worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Convenience: the same config with fault injection installed.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Convenience: the same config with the vectorized scan fast path
    /// toggled (block decode + code-space predicates + zone-map skipping).
    pub fn with_scan_fast_path(mut self, on: bool) -> Self {
        self.scan_fast_path = on;
        self
    }

    /// Convenience: the same config with `mirror`-way page replication.
    pub fn with_mirror(mut self, mirror: usize) -> Self {
        self.mirror = mirror;
        self
    }

    /// Convenience: the same config with a different degraded-scan policy.
    pub fn with_on_corrupt(mut self, policy: OnCorrupt) -> Self {
        self.on_corrupt = policy;
        self
    }

    /// Convenience: the same config with the page-cache tier enabled.
    pub fn with_cache(mut self, cache: CacheSpec) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Convenience: the same config with the concurrent query service on.
    pub fn with_service(mut self, service: ServiceSpec) -> Self {
        self.service = Some(service);
        self
    }
}

/// Simulated hardware platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareConfig {
    /// CPU clock in cycles/second (paper: 3.2 GHz Pentium 4).
    pub clock_hz: f64,
    /// Number of disks in the software-RAID stripe (paper: 3).
    pub disks: usize,
    /// Sequential bandwidth of one disk, bytes/second (paper: 60 MB/s).
    pub disk_bw: f64,
    /// Disk-controller aggregate bandwidth cap, bytes/second. §5 notes disk
    /// bandwidth "is limited by the maximum bandwidth of the disk
    /// controllers".
    pub controller_bw: f64,
    /// Average seek penalty in seconds when a head leaves a sequential run
    /// (paper: "5-10 msec"; the §2.1.1 worked example assumes 5 ms).
    pub seek_s: f64,
    /// Fractional sequential-bandwidth loss once a scan interleaves two or
    /// more files on the array (track-buffer misses and rotational
    /// repositioning beyond the average seek). Calibrated so the Figure 6
    /// column-store crossover lands near the paper's ~85% of tuple width.
    pub multi_stream_penalty: f64,
    /// Bytes the memory bus delivers per CPU cycle for sequential traffic.
    /// Paper §4.1: one 128-byte L2 line every 128 cycles → 1.0.
    pub mem_bytes_per_cycle: f64,
    /// Stall cycles for a random (non-prefetched) memory access (paper: 380).
    pub random_miss_cycles: f64,
    /// L2 cache line size in bytes (Pentium 4: 128).
    pub line_bytes: f64,
    /// Maximum micro-operations retired per cycle (Pentium 4: 3).
    pub uops_per_cycle: f64,
}

impl Default for HardwareConfig {
    fn default() -> Self {
        HardwareConfig {
            clock_hz: 3.2e9,
            disks: 3,
            disk_bw: 60.0e6,
            controller_bw: 1.0e9,
            seek_s: 5.0e-3,
            multi_stream_penalty: 0.05,
            mem_bytes_per_cycle: 1.0,
            random_miss_cycles: 380.0,
            line_bytes: 128.0,
            uops_per_cycle: 3.0,
        }
    }
}

impl HardwareConfig {
    /// Aggregate sequential disk bandwidth in bytes/second (capped by the
    /// controller).
    pub fn aggregate_disk_bw(&self) -> f64 {
        (self.disks as f64 * self.disk_bw).min(self.controller_bw)
    }

    /// The paper's single summary parameter: **cycles per disk byte** —
    /// aggregate CPU cycles that elapse while the disks deliver one byte
    /// sequentially (§5). The default platform rates at 18 cpdb; a single
    /// disk would rate at 54.
    ///
    /// ```
    /// use rodb_types::HardwareConfig;
    /// let hw = HardwareConfig::default(); // the paper's testbed
    /// assert_eq!(hw.cpdb().round() as i64, 18);
    /// assert_eq!(hw.single_disk().cpdb().round() as i64, 53); // paper says "54" (rounds 53.3 up)
    /// ```
    pub fn cpdb(&self) -> f64 {
        self.clock_hz / self.aggregate_disk_bw()
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<()> {
        if self.disks == 0 {
            return Err(Error::InvalidConfig("zero disks".into()));
        }
        for (name, v) in [
            ("clock_hz", self.clock_hz),
            ("disk_bw", self.disk_bw),
            ("controller_bw", self.controller_bw),
            ("mem_bytes_per_cycle", self.mem_bytes_per_cycle),
            ("line_bytes", self.line_bytes),
            ("uops_per_cycle", self.uops_per_cycle),
        ] {
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
            if !(v > 0.0) {
                return Err(Error::InvalidConfig(format!("{name} must be > 0")));
            }
        }
        if self.seek_s < 0.0 || self.random_miss_cycles < 0.0 {
            return Err(Error::InvalidConfig("negative latency".into()));
        }
        if !(0.0..1.0).contains(&self.multi_stream_penalty) {
            return Err(Error::InvalidConfig(
                "multi_stream_penalty must be in [0, 1)".into(),
            ));
        }
        Ok(())
    }

    /// The paper's single-disk variant of the testbed ("by operating on a
    /// single disk, cpdb rating jumps to 54").
    pub fn single_disk(mut self) -> Self {
        self.disks = 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_platform_matches_paper_cpdb() {
        let hw = HardwareConfig::default();
        assert!((hw.cpdb() - 17.78).abs() < 0.1, "got {}", hw.cpdb());
        // Paper rounds to 18.
        assert_eq!(hw.cpdb().round() as i64, 18);
        // Paper: "by operating on a single disk, cpdb rating jumps to 54"
        // (3.2e9 / 60e6 = 53.3, which the paper rounds up).
        let one = hw.single_disk();
        assert!((one.cpdb() - 53.33).abs() < 0.1, "got {}", one.cpdb());
    }

    #[test]
    fn aggregate_bw_is_capped_by_controller() {
        let mut hw = HardwareConfig::default();
        assert!((hw.aggregate_disk_bw() - 180.0e6).abs() < 1.0);
        hw.controller_bw = 100.0e6;
        assert!((hw.aggregate_disk_bw() - 100.0e6).abs() < 1.0);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut hw = HardwareConfig::default();
        assert!(hw.validate().is_ok());
        hw.disks = 0;
        assert!(hw.validate().is_err());
        let hw = HardwareConfig {
            disk_bw: 0.0,
            ..HardwareConfig::default()
        };
        assert!(hw.validate().is_err());

        let mut sc = SystemConfig::default();
        assert!(sc.validate().is_ok());
        sc.io_unit = 1000; // not a multiple of page size
        assert!(sc.validate().is_err());
        let sc = SystemConfig::default().with_prefetch_depth(0);
        assert!(sc.validate().is_err());
        let sc = SystemConfig::default().with_threads(0);
        assert!(sc.validate().is_err());
        assert!(SystemConfig::default().with_threads(8).validate().is_ok());
        let sc = SystemConfig::default().with_mirror(0);
        assert!(sc.validate().is_err());
        assert!(SystemConfig::default().with_mirror(3).validate().is_ok());
        let sc = SystemConfig::default().with_faults(FaultSpec {
            seed: 1,
            rate_ppm: 0,
            replica_rate_ppm: 2_000_000,
        });
        assert!(sc.validate().is_err());
    }

    #[test]
    fn cache_defaults_off_and_k_is_bounded() {
        assert!(SystemConfig::default().cache.is_none());
        let spec = CacheSpec::lru_k(64);
        assert_eq!((spec.frames, spec.k), (64, 2));
        let sc = SystemConfig::default().with_cache(CacheSpec::lru_k(0));
        assert!(
            sc.validate().is_ok(),
            "0 frames is a legal (miss-only) cache"
        );
        let sc = SystemConfig::default().with_cache(CacheSpec { frames: 4, k: 0 });
        assert!(sc.validate().is_err());
        let sc = SystemConfig::default().with_cache(CacheSpec { frames: 4, k: 9 });
        assert!(sc.validate().is_err());
    }

    #[test]
    fn service_defaults_off_and_validates() {
        assert!(SystemConfig::default().service.is_none());
        let s = ServiceSpec::new(8);
        assert_eq!(s.max_inflight, 8);
        assert!(s.slice_s > 0.0);
        assert_eq!(s.deadline_s, None);
        let s = s.with_slice(0.25).with_deadline(30.0);
        assert_eq!((s.slice_s, s.deadline_s), (0.25, Some(30.0)));
        assert!(SystemConfig::default().with_service(s).validate().is_ok());
        let bad = SystemConfig::default().with_service(ServiceSpec::new(0));
        assert!(bad.validate().is_err());
        let bad = SystemConfig::default().with_service(ServiceSpec::new(1).with_slice(0.0));
        assert!(bad.validate().is_err());
        let bad = SystemConfig::default().with_service(ServiceSpec::new(1).with_deadline(-1.0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn ingest_spec_defaults_to_manual_merges() {
        assert_eq!(IngestSpec::manual().auto_merge_rows, 0);
        let spec = IngestSpec::manual().with_auto_merge(500);
        assert_eq!(spec.auto_merge_rows, 500);
    }

    #[test]
    fn service_window_defaults_to_half_a_second_and_validates() {
        let s = ServiceSpec::new(2);
        assert_eq!(s.window_s, 0.5);
        assert_eq!(s.with_window(40.0).window_s, 40.0);
        assert!(SystemConfig::default().with_service(s).validate().is_ok());
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = SystemConfig::default().with_service(s.with_window(w));
            assert!(bad.validate().is_err(), "window {w}");
        }
    }

    #[test]
    fn recovery_defaults_are_off() {
        let sc = SystemConfig::default();
        assert_eq!(sc.mirror, 1);
        assert_eq!(sc.on_corrupt, OnCorrupt::Retry);
        let f = FaultSpec::always(9);
        assert_eq!(f.rate_ppm, 1_000_000);
        assert_eq!(f.replica_rate_ppm, 0);
    }

    #[test]
    fn defaults_match_paper_section_3_2() {
        let sc = SystemConfig::default();
        assert_eq!(sc.page_size, 4096);
        assert_eq!(sc.io_unit, 131072);
        assert_eq!(sc.prefetch_depth, 48);
        assert_eq!(sc.block_tuples, 100);
    }
}
