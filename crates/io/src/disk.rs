//! Discrete simulator of the paper's disk subsystem.
//!
//! **What it models and why.** The paper's testbed is a 3-disk software
//! RAID-0 read through Linux AIO with DMA transfers and a configurable
//! prefetch depth (§2.2.3, §3.2). Files are striped across all disks, so the
//! array behaves as one logical device: its aggregate sequential bandwidth is
//! `disks × disk_bw` (capped by the controller), and all heads move together —
//! continuing a sequential run is free, while switching to a different file
//! (another column, or a competitor's file) costs one seek. Those two
//! quantities — aggregate bandwidth and per-switch seeks — are what every
//! disk-related effect in the paper reduces to: prefetch-depth amortization
//! (Fig. 10), column-switch seeking (Fig. 6's crossover), and competing-scan
//! interference (Fig. 11).
//!
//! **Scale factor.** Experiments run on generated tables much smaller than
//! the paper's 60 M-row files. Passing `scale = virtual_rows / actual_rows`
//! divides the simulated bandwidth *and* the burst size by `scale`, which
//! makes the simulated clock read out *virtual* (paper-sized) seconds exactly:
//! transfer time and the number of seeks both match what the full-size file
//! would produce.
//!
//! **Competing traffic.** A competitor is a concurrent sequential scan on a
//! different file, matched in prefetch size (as in §4.5). The disk grants the
//! competitor one burst every `interleave` foreground bursts. A row scan or a
//! "slow" column scan keeps one request outstanding (`interleave = 1`); the
//! normal pipelined column scanner is "one step ahead" in its submissions
//! (§4.5) and is favoured with `interleave = 2`.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use rodb_trace::{EventKind, TraceEvent, TraceSink};
use rodb_types::{Error, FaultSpec, HardwareConfig, OnCorrupt, Result, SplitMix64, SystemConfig};

use crate::cache::{CacheHit, PageCache, PageKey};
use crate::stats::IoStats;

/// Shared handle to a [`PageCache`]. Each [`DiskArray`] gets its own (cold)
/// cache from [`SystemConfig::cache`]; install one handle into several
/// arrays (serial executions only — `Rc` does not cross threads) to model a
/// buffer pool whose residency persists across queries. The cache holds no
/// page bytes, so the handle must simply not outlive the tables whose
/// buffers key its frames.
pub type SharedPageCache = Rc<RefCell<PageCache>>;

/// Build a [`SharedPageCache`] handle from a spec — the persistent buffer
/// pool a caller installs on successive execution contexts (or hands to the
/// concurrent query service's shared scan cursors) so residency survives
/// across queries.
pub fn shared_page_cache(spec: &rodb_types::CacheSpec) -> SharedPageCache {
    Rc::new(RefCell::new(PageCache::new(spec)))
}

/// Identifies one file on the simulated array. Callers assign ids;
/// competitors use reserved high ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u64);

/// Outcome of [`DiskArray::cache_lookup`] for one page request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// No cache installed — the caller runs the plain cold-scan path.
    Disabled,
    /// Resident and verified: transfer and fault roll are both skipped.
    Hit,
    /// Resident via prefetch insertion: transfer is skipped, but the fault
    /// roll is still owed; the caller must call
    /// [`DiskArray::cache_resolve_unverified`] with the roll's outcome.
    Unverified,
    /// Not resident: the caller reads from disk and fills on a clean read.
    Miss,
}

#[derive(Debug, Clone)]
struct Competitor {
    file: FileId,
    burst_bytes: f64,
    offset: f64,
}

/// Deterministic page-read fault injector (testing only).
///
/// Damage is a pure function of the [`FaultSpec`] seed and the read's
/// *position* — `(file, page index, replica)` — so any read order (serial
/// morsels, parallel morsels, scalar or fast path) observes the same damage
/// at the same site, and a failing run replays exactly from its seed. Three
/// fault kinds model the classic storage failure modes: a few flipped bits
/// (media/bus damage), a truncated page (partial sector) and a short read
/// whose missing tail arrives as zeros. Every kind alters at least one byte,
/// so the page CRC is guaranteed to see it.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rate_ppm: u32,
    replica_rate_ppm: u32,
    /// Sites whose primary copy was rewritten from a clean replica; their
    /// later primary reads come back clean (write-back repair).
    repaired: HashSet<(u64, u64)>,
}

/// Apply one fault kind to a copy of `page`. `rng` supplies the damage
/// positions; the result always differs from the input in at least one byte
/// (or in length), even for one-byte pages.
fn apply_fault(rng: &mut SplitMix64, page: &[u8], kind: u64) -> Vec<u8> {
    let mut bytes = page.to_vec();
    match kind {
        0 => {
            // Flip 1..=8 random bits.
            let flips = 1 + rng.below(8) as usize;
            for _ in 0..flips {
                let byte = rng.below(bytes.len() as u64) as usize;
                let bit = rng.below(8) as u32;
                bytes[byte] ^= 1u8 << bit;
            }
            if bytes == page {
                // An even number of flips landed on the same bit (likely on
                // tiny pages) — force a visible flip.
                bytes[0] ^= 1;
            }
        }
        1 => {
            // Truncated page: the device returned fewer bytes. Clamp the
            // kept prefix to 0..len-1 so at least one byte is always lost.
            let keep = (rng.below(bytes.len() as u64) as usize).min(bytes.len() - 1);
            bytes.truncate(keep);
        }
        _ => {
            // Short read: the tail never arrived and reads as zeros.
            let from = rng.below(bytes.len() as u64) as usize;
            bytes[from..].fill(0);
            if bytes == page {
                // The tail was already zero — damage the checksum field
                // instead so the fault is never a silent no-op.
                let last = bytes.len() - 1;
                bytes[last] ^= 0xFF;
            }
        }
    }
    bytes
}

impl FaultInjector {
    pub fn new(spec: FaultSpec) -> FaultInjector {
        FaultInjector {
            seed: spec.seed,
            rate_ppm: spec.rate_ppm,
            replica_rate_ppm: spec.replica_rate_ppm,
            repaired: HashSet::new(),
        }
    }

    /// The per-site RNG: a SplitMix64 stream keyed on (seed, file, page,
    /// replica) via golden-ratio mixing, so each site draws independent,
    /// order-free randomness.
    fn site_rng(&self, file: u64, page_index: u64, replica: u32) -> SplitMix64 {
        let mut h = self.seed;
        h ^= 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(file.wrapping_add(0x243F_6A88_85A3_08D3));
        h ^= 0xBF58_476D_1CE4_E5B9u64.wrapping_mul(page_index.wrapping_add(0x1319_8A2E_0370_7344));
        h ^= 0x94D0_49BB_1331_11EBu64.wrapping_mul(replica as u64 + 0xA409_3822_299F_31D0);
        SplitMix64::new(h)
    }

    /// Roll for one read of replica `replica` of page `page_index` of `file`:
    /// `Some(damaged bytes)` when the fault fires (possibly shorter than the
    /// input), `None` when this read survives.
    pub fn corrupt(
        &mut self,
        file: u64,
        page_index: u64,
        replica: u32,
        page: &[u8],
    ) -> Option<Vec<u8>> {
        if page.is_empty() {
            return None;
        }
        if replica == 0 && self.repaired.contains(&(file, page_index)) {
            return None;
        }
        let rate = if replica == 0 {
            self.rate_ppm
        } else {
            self.replica_rate_ppm
        };
        let mut rng = self.site_rng(file, page_index, replica);
        if rng.below(1_000_000) >= rate as u64 {
            return None;
        }
        let kind = rng.below(3);
        Some(apply_fault(&mut rng, page, kind))
    }

    /// Record that the primary copy of a site was rewritten from a clean
    /// replica; its later primary reads are clean.
    pub fn mark_repaired(&mut self, file: u64, page_index: u64) {
        self.repaired.insert((file, page_index));
    }
}

/// The simulated disk array (one per query execution).
#[derive(Debug)]
pub struct DiskArray {
    /// Effective bandwidth in actual bytes/second (aggregate ÷ scale).
    bw_eff: f64,
    /// Seek penalty in seconds.
    seek_s: f64,
    /// Bandwidth fraction lost once ≥2 files interleave on the array.
    multi_penalty: f64,
    /// First file observed; used to detect multi-file interleaving.
    first_file: Option<FileId>,
    /// True once two distinct files have been read (streaming broken).
    multi: bool,
    /// Foreground bytes served since the last seek (burst-window tracking).
    bytes_since_seek: f64,
    /// Effective burst size in actual bytes (prefetch_depth × io_unit ÷ scale).
    burst_bytes: f64,
    /// Virtual-byte multiplier (for reporting `bytes_read` at paper scale).
    scale: f64,
    clock: f64,
    /// Last position served: (file, end offset in actual bytes).
    head: Option<(FileId, f64)>,
    competitors: Vec<Competitor>,
    fg_since_comp: u64,
    interleave: u64,
    stats: IoStats,
    /// Installed from [`SystemConfig::faults`]; `None` = healthy array.
    faults: Option<FaultInjector>,
    /// R-way page replication ([`SystemConfig::mirror`]).
    mirror: usize,
    /// Degraded-scan policy ([`SystemConfig::on_corrupt`]); `Fail` disables
    /// replica retries entirely.
    on_corrupt: OnCorrupt,
    /// Trace event sink; `None` (the default) keeps the hot path at one
    /// branch per burst.
    sink: Option<TraceSink>,
    /// Page-cache tier ([`SystemConfig::cache`]); `None` = the paper's
    /// bufferless cold-scan engine.
    cache: Option<SharedPageCache>,
    /// Whether prefetch-covered pages are inserted into the cache.
    cache_prefetch: bool,
}

impl DiskArray {
    /// Create an array for the given platform. `scale ≥ 1` makes the clock
    /// report times as if every file were `scale×` larger.
    pub fn new(hw: &HardwareConfig, sys: &SystemConfig, scale: f64) -> Result<DiskArray> {
        hw.validate()?;
        sys.validate()?;
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
        if !(scale >= 1.0) {
            return Err(Error::InvalidConfig(format!("scale {scale} must be >= 1")));
        }
        Ok(DiskArray {
            bw_eff: hw.aggregate_disk_bw() / scale,
            seek_s: hw.seek_s,
            multi_penalty: hw.multi_stream_penalty,
            first_file: None,
            multi: false,
            bytes_since_seek: 0.0,
            burst_bytes: (sys.prefetch_depth * sys.io_unit) as f64 / scale,
            scale,
            clock: 0.0,
            head: None,
            competitors: Vec::new(),
            fg_since_comp: 0,
            interleave: 1,
            stats: IoStats::default(),
            faults: sys.faults.map(FaultInjector::new),
            mirror: sys.mirror,
            on_corrupt: sys.on_corrupt,
            sink: None,
            cache: sys
                .cache
                .map(|spec| Rc::new(RefCell::new(PageCache::new(&spec)))),
            cache_prefetch: sys.cache.map(|spec| spec.prefetch).unwrap_or(false),
        })
    }

    /// Install a trace event sink: bursts, zone skips, replica retries,
    /// repairs, quarantines and row drops are emitted with their
    /// simulated-clock timestamps from here on.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = Some(sink);
    }

    #[inline]
    fn emit(&self, kind: EventKind, file: u64, page: u64, count: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().push(TraceEvent {
                ts_s: self.clock,
                kind,
                file,
                page,
                count,
            });
        }
    }

    /// Roll the installed fault injector for one read of page `page_index`
    /// of `file`, retrying CRC-failing reads against mirror replicas when
    /// configured. Returns `None` when the read is clean (either the primary
    /// copy survived, or a replica did and the site was repaired), or
    /// `Some(damaged bytes)` when every tried replica came back bad.
    ///
    /// Each replica retry charges a modeled backoff to the simulated clock:
    /// the head repositions to the replica (one seek) and re-transfers the
    /// page. With `mirror == 1` or `on_corrupt == Fail` no retries happen and
    /// the behavior is exactly the fail-fast path.
    pub fn read_page(&mut self, file: FileId, page_index: u64, page: &[u8]) -> Option<Vec<u8>> {
        self.faults.as_ref()?;
        let mut last = self
            .faults
            .as_mut()
            .unwrap()
            .corrupt(file.0, page_index, 0, page)?;
        if self.mirror < 2 || self.on_corrupt == OnCorrupt::Fail {
            return Some(last);
        }
        for replica in 1..self.mirror as u32 {
            // Backoff: reposition to the replica, then re-transfer the page.
            let transfer = page.len() as f64 / self.bandwidth();
            self.clock += self.seek_s + transfer;
            self.stats.seeks += 1;
            self.stats.seek_s += self.seek_s;
            self.stats.transfer_s += transfer;
            self.stats.bytes_read += page.len() as f64 * self.scale;
            self.stats.recovery.retries += 1;
            self.emit(EventKind::Retry, file.0, page_index, replica as u64);
            // The head moved away from the sequential run.
            self.bytes_since_seek = page.len() as f64;
            match self
                .faults
                .as_mut()
                .unwrap()
                .corrupt(file.0, page_index, replica, page)
            {
                None => {
                    // Clean copy found: rewrite the primary (write-back
                    // repair) so later reads of this site are clean.
                    self.faults
                        .as_mut()
                        .unwrap()
                        .mark_repaired(file.0, page_index);
                    self.stats.recovery.repairs += 1;
                    self.emit(EventKind::Repair, file.0, page_index, 1);
                    return None;
                }
                Some(d) => last = d,
            }
        }
        Some(last)
    }

    /// Install an externally owned page cache, replacing the per-execution
    /// one built from [`SystemConfig::cache`]. This is how residency
    /// persists across queries (serial executions only — the handle is an
    /// `Rc`). The prefetch-insertion knob still comes from the config the
    /// array was built with, so callers enable it via
    /// [`CacheSpec::prefetch`](rodb_types::CacheSpec) as usual.
    pub fn set_page_cache(&mut self, cache: SharedPageCache) {
        self.cache = Some(cache);
    }

    /// Look up `key` in the page cache, recording hit/miss accounting.
    /// `Disabled` when no cache is installed; an `Unverified` outcome counts
    /// as neither hit nor miss until [`DiskArray::cache_resolve_unverified`]
    /// settles which one it was.
    pub fn cache_lookup(&mut self, key: PageKey, file: FileId, page: u64) -> CacheLookup {
        let Some(cache) = &self.cache else {
            return CacheLookup::Disabled;
        };
        match cache.borrow_mut().lookup(key) {
            Some(CacheHit::Verified) => {
                self.stats.cache.hits += 1;
                self.emit(EventKind::CacheHit, file.0, page, 1);
                CacheLookup::Hit
            }
            Some(CacheHit::Unverified) => CacheLookup::Unverified,
            None => {
                self.stats.cache.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Settle an `Unverified` lookup after its deferred fault roll. When the
    /// roll stayed off the disk (`served_from_disk == false`) the prefetched
    /// frame verifies and the request was a hit. When the roll touched the
    /// disk — the page came back damaged, or a replica retry repaired it —
    /// the frame is invalidated and the request counts as a miss: a repaired
    /// page is always re-read, never served stale from cache.
    pub fn cache_resolve_unverified(
        &mut self,
        key: PageKey,
        file: FileId,
        page: u64,
        served_from_disk: bool,
    ) {
        let Some(cache) = &self.cache else { return };
        if served_from_disk {
            cache.borrow_mut().invalidate(key);
            self.stats.cache.misses += 1;
        } else {
            cache.borrow_mut().mark_verified(key);
            self.stats.cache.hits += 1;
            self.emit(EventKind::CacheHit, file.0, page, 1);
        }
    }

    /// Insert a page read clean from disk, evicting an LRU-K victim if full.
    pub fn cache_fill(&mut self, key: PageKey, file: FileId, page: u64) {
        let Some(cache) = &self.cache else { return };
        if cache.borrow_mut().insert(key, true).is_some() {
            self.stats.cache.evictions += 1;
            self.emit(EventKind::CacheEvict, file.0, page, 1);
        }
    }

    /// Insert a page whose transfer a prefetch burst already covered. Only
    /// active when [`CacheSpec::prefetch`](rodb_types::CacheSpec) is on; the
    /// frame enters unverified (its CRC/fault roll is owed at first access).
    pub fn cache_fill_prefetched(&mut self, key: PageKey, file: FileId, page: u64) {
        if !self.cache_prefetch {
            return;
        }
        let Some(cache) = &self.cache else { return };
        {
            let c = cache.borrow();
            if c.capacity() == 0 || c.contains(key) {
                return;
            }
        }
        let evicted = cache.borrow_mut().insert(key, false).is_some();
        self.stats.cache.prefetched += 1;
        self.emit(EventKind::CachePrefetch, file.0, page, 1);
        if evicted {
            self.stats.cache.evictions += 1;
            self.emit(EventKind::CacheEvict, file.0, page, 1);
        }
    }

    /// Record `n` freshly quarantined pages (every replica bad).
    pub fn note_quarantined(&mut self, n: u64) {
        self.stats.recovery.quarantined_pages += n;
        self.emit(EventKind::Quarantine, 0, 0, n);
    }

    /// Record `n` rows dropped by a degraded (`Skip`) scan.
    pub fn note_dropped_rows(&mut self, n: u64) {
        self.stats.recovery.dropped_rows += n;
        self.emit(EventKind::DropRows, 0, 0, n);
    }

    /// Record a WAL recovery replay: `replayed` records reconstructed from
    /// the valid prefix, `discarded` frames/blobs dropped beyond it.
    pub fn note_wal_replay(&mut self, replayed: u64, discarded: u64) {
        self.stats.recovery.wal_replayed += replayed;
        self.stats.recovery.wal_discarded += discarded;
    }

    /// Burst size in actual bytes (what a stream should request per fetch).
    pub fn burst_bytes(&self) -> f64 {
        self.burst_bytes
    }

    /// Register a competing sequential scan matched to prefetch `depth`
    /// I/O units (Fig. 11's setup). `io_unit` must match the system config
    /// used at construction; the competitor's burst is scaled like ours.
    pub fn add_competitor(&mut self, depth: usize, io_unit: usize) {
        let id = FileId(u64::MAX - self.competitors.len() as u64);
        self.competitors.push(Competitor {
            file: id,
            burst_bytes: (depth * io_unit) as f64 / self.scale,
            offset: 0.0,
        });
    }

    /// How many foreground bursts are served between competitor slots.
    /// 1 = strict alternation (row scan, "slow" column scan);
    /// 2 = the pipelined column scanner's one-step-ahead advantage.
    pub fn set_interleave(&mut self, group: u64) {
        self.interleave = group.max(1);
    }

    /// Current effective bandwidth: full sequential speed for a single
    /// stream, degraded once two or more files interleave (short inter-file
    /// seeks break the drive's streaming — the calibration behind the
    /// paper's ~85% Figure 6 crossover).
    fn bandwidth(&self) -> f64 {
        if self.multi {
            self.bw_eff * (1.0 - self.multi_penalty)
        } else {
            self.bw_eff
        }
    }

    fn note_file(&mut self, file: FileId) {
        match self.first_file {
            None => self.first_file = Some(file),
            Some(f) if f != file => self.multi = true,
            Some(_) => {}
        }
    }

    /// Serve one foreground read of `len` actual bytes at `offset` of `file`.
    /// Returns the clock after completion.
    pub fn read(&mut self, file: FileId, offset: f64, len: f64) -> f64 {
        if len <= 0.0 {
            return self.clock;
        }
        self.note_file(file);
        self.maybe_serve_competitors();
        // Once several files interleave, every burst-sized revisit of a file
        // pays a seek: in the real system the other streams' requests are
        // served in between, so the head has always moved away. A contiguous
        // continuation within the same burst window stays free.
        let contiguous = matches!(
            self.head,
            Some((f, end)) if f == file && (end - offset).abs() < 0.5
        );
        let burst_boundary = self.bytes_since_seek >= self.burst_bytes - 0.5;
        let seek = if contiguous && !(self.multi && burst_boundary) {
            0.0
        } else {
            self.seek_s
        };
        let transfer = len / self.bandwidth();
        self.clock += seek + transfer;
        self.head = Some((file, offset + len));
        self.stats.bytes_read += len * self.scale;
        self.stats.bursts += 1;
        self.fg_since_comp += 1;
        if seek > 0.0 {
            self.stats.seeks += 1;
            self.stats.seek_s += seek;
            self.bytes_since_seek = len;
        } else {
            self.bytes_since_seek += len;
        }
        self.stats.transfer_s += transfer;
        self.emit(EventKind::Burst, file.0, offset as u64, 1);
        self.clock
    }

    fn maybe_serve_competitors(&mut self) {
        if self.competitors.is_empty() || self.fg_since_comp < self.interleave {
            return;
        }
        self.fg_since_comp = 0;
        for i in 0..self.competitors.len() {
            let cfile = self.competitors[i].file;
            self.note_file(cfile);
            let (file, burst, offset) = {
                let c = &self.competitors[i];
                (c.file, c.burst_bytes, c.offset)
            };
            // The competitor's head was displaced by our reads, so it seeks
            // back, then transfers one burst.
            let seek = match self.head {
                Some((f, end)) if f == file && (end - offset).abs() < 0.5 => 0.0,
                _ => self.seek_s,
            };
            let transfer = burst / self.bandwidth();
            self.clock += seek + transfer;
            self.head = Some((file, offset + burst));
            self.competitors[i].offset += burst;
            self.stats.comp_bursts += 1;
            self.stats.comp_s += seek + transfer;
        }
    }

    /// Record `n` pages skipped via zone maps (no transfer was charged;
    /// bookkeeping only, so benchmarks can report skip rates).
    pub fn note_pages_skipped(&mut self, n: u64) {
        self.stats.pages_skipped += n;
        self.emit(EventKind::ZoneSkip, 0, 0, n);
    }

    /// Simulated seconds elapsed since construction.
    pub fn elapsed(&self) -> f64 {
        self.clock
    }

    pub fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// The merged disk view of a morsel-driven parallel scan, where `workers`
/// per-worker streams shared one physical array.
///
/// The array is a single head assembly: it serves one stream at a time, so
/// per-worker transfer (and competitor) seconds **sum** — parallel workers
/// never add disk bandwidth. Seeks are where sharing costs: with two or
/// more concurrent streams the head interleaves their burst requests, so
/// *every* foreground burst re-positions the head and pays the paper's
/// per-switch seek penalty (the same rule [`DiskArray`] applies when one
/// query interleaves several column files). A single worker keeps the
/// serial accounting untouched.
pub fn merge_parallel(per_worker: &[IoStats], workers: usize, seek_s: f64) -> IoStats {
    let mut merged = IoStats::default();
    for s in per_worker {
        merged.merge(s);
    }
    if workers >= 2 {
        // Each burst ends with the head moving to another worker's stream;
        // re-charge so every burst pays one switch seek.
        let switch_seeks = merged.bursts.max(merged.seeks);
        merged.seek_s += (switch_seeks - merged.seeks) as f64 * seek_s;
        merged.seeks = switch_seeks;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareConfig {
        HardwareConfig::default() // 180 MB/s aggregate, 5 ms seek default? (4 ms set below)
    }

    fn sys() -> SystemConfig {
        SystemConfig::default() // 128 KB unit, depth 48
    }

    #[test]
    fn sequential_single_file_pays_one_seek() {
        let mut d = DiskArray::new(&hw(), &sys(), 1.0).unwrap();
        let f = FileId(0);
        let burst = d.burst_bytes();
        let total = 10.0 * burst;
        let mut off = 0.0;
        while off < total {
            d.read(f, off, burst);
            off += burst;
        }
        assert_eq!(d.stats().seeks, 1); // only the initial positioning
        let expect = hw().seek_s + total / hw().aggregate_disk_bw();
        assert!((d.elapsed() - expect).abs() < 1e-9);
    }

    #[test]
    fn alternating_files_seek_every_burst() {
        let mut d = DiskArray::new(&hw(), &sys(), 1.0).unwrap();
        let burst = d.burst_bytes();
        for i in 0..10 {
            let f = FileId(i % 2);
            d.read(f, (i / 2) as f64 * burst, burst);
        }
        assert_eq!(d.stats().seeks, 10);
    }

    #[test]
    fn scale_preserves_virtual_time_and_burst_count() {
        // A 10 MB file at scale 60 must behave exactly like a 600 MB file.
        let file_small = 10.0e6;
        let mut small = DiskArray::new(&hw(), &sys(), 60.0).unwrap();
        let mut big = DiskArray::new(&hw(), &sys(), 1.0).unwrap();
        for (d, len) in [(&mut small, file_small), (&mut big, file_small * 60.0)] {
            let burst = d.burst_bytes();
            let mut off = 0.0;
            while off < len {
                let take = burst.min(len - off);
                d.read(FileId(0), off, take);
                off += take;
            }
        }
        assert_eq!(small.stats().bursts, big.stats().bursts);
        assert!((small.elapsed() - big.elapsed()).abs() / big.elapsed() < 1e-9);
        assert!((small.stats().bytes_read - big.stats().bytes_read).abs() < 1.0);
    }

    #[test]
    fn smaller_prefetch_means_more_bursts_for_multi_file() {
        let run = |depth: usize| {
            let s = SystemConfig::default().with_prefetch_depth(depth);
            let mut d = DiskArray::new(&hw(), &s, 1.0).unwrap();
            let burst = d.burst_bytes();
            let per_file = 20.0e6;
            // Round-robin two files, like a two-column scan.
            let mut off = [0.0; 2];
            loop {
                let mut progressed = false;
                for (f, o) in off.iter_mut().enumerate() {
                    if *o < per_file {
                        let take = burst.min(per_file - *o);
                        d.read(FileId(f as u64), *o, take);
                        *o += take;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            (d.stats().seeks, d.elapsed())
        };
        let (seeks48, t48) = run(48);
        let (seeks2, t2) = run(2);
        assert!(seeks2 > 10 * seeks48);
        assert!(t2 > t48);
    }

    #[test]
    fn competitor_slows_foreground_and_interleave_helps() {
        let total = 200.0e6;
        let run = |interleave: u64, competitors: usize| {
            let mut d = DiskArray::new(&hw(), &sys(), 1.0).unwrap();
            for _ in 0..competitors {
                d.add_competitor(48, sys().io_unit);
            }
            d.set_interleave(interleave);
            let burst = d.burst_bytes();
            let mut off = 0.0;
            while off < total {
                let take = burst.min(total - off);
                d.read(FileId(0), off, take);
                off += take;
            }
            d.elapsed()
        };
        let alone = run(1, 0);
        let contested = run(1, 1);
        let aggressive = run(2, 1);
        assert!(contested > 1.5 * alone);
        assert!(aggressive < contested);
        assert!(aggressive > alone);
    }

    #[test]
    fn competitor_consumes_seeks_from_foreground_too() {
        // With a competitor, even a single-file scan seeks back every round.
        let mut d = DiskArray::new(&hw(), &sys(), 1.0).unwrap();
        d.add_competitor(48, sys().io_unit);
        let burst = d.burst_bytes();
        for i in 0..10 {
            d.read(FileId(0), i as f64 * burst, burst);
        }
        assert!(d.stats().seeks > 5);
        assert!(d.stats().comp_bursts >= 9);
        assert!(d.stats().comp_s > 0.0);
    }

    #[test]
    fn zero_len_read_is_free() {
        let mut d = DiskArray::new(&hw(), &sys(), 1.0).unwrap();
        d.read(FileId(0), 0.0, 0.0);
        assert_eq!(d.elapsed(), 0.0);
        assert_eq!(d.stats().bursts, 0);
    }

    #[test]
    fn invalid_scale_rejected() {
        assert!(DiskArray::new(&hw(), &sys(), 0.5).is_err());
        assert!(DiskArray::new(&hw(), &sys(), f64::NAN).is_err());
    }

    #[test]
    fn fault_injector_is_deterministic_and_positional() {
        let spec = FaultSpec::always(7);
        let page: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut a = FaultInjector::new(spec);
        let mut b = FaultInjector::new(spec);
        let mut seen = std::collections::HashSet::new();
        for p in 0..200u64 {
            let x = a.corrupt(1, p, 0, &page).expect("rate = 100%");
            let y = b.corrupt(1, p, 0, &page).expect("same site, same damage");
            assert_eq!(x, y);
            assert_ne!(x, page, "a fault must alter the page");
            seen.insert(x);
        }
        assert!(seen.len() > 150, "sites draw independent damage");
        // Damage is a function of the site, not the read order.
        let mut c = FaultInjector::new(spec);
        let late = c.corrupt(1, 150, 0, &page).unwrap();
        let mut d = FaultInjector::new(spec);
        for p in 0..=150u64 {
            d.corrupt(1, p, 0, &page);
        }
        assert_eq!(late, d.corrupt(1, 150, 0, &page).unwrap());
        let mut quiet = FaultInjector::new(FaultSpec::at_rate(7, 0));
        assert!(quiet.corrupt(1, 0, 0, &page).is_none());
        // Replicas default to clean even at 100% primary rate.
        let mut m = FaultInjector::new(spec);
        assert!(m.corrupt(1, 0, 1, &page).is_none());
    }

    #[test]
    fn repaired_sites_read_clean() {
        let mut inj = FaultInjector::new(FaultSpec::always(5));
        let page = vec![9u8; 256];
        assert!(inj.corrupt(2, 4, 0, &page).is_some());
        inj.mark_repaired(2, 4);
        assert!(inj.corrupt(2, 4, 0, &page).is_none());
        assert!(
            inj.corrupt(2, 5, 0, &page).is_some(),
            "other sites still bad"
        );
    }

    #[test]
    fn zero_tail_short_read_still_corrupts() {
        // A page whose tail is already zero: short-read faults must not
        // degenerate into silent no-ops.
        let mut page = vec![0u8; 4096];
        page[0] = 1;
        let mut inj = FaultInjector::new(FaultSpec::always(1));
        for p in 0..500u64 {
            assert_ne!(inj.corrupt(0, p, 0, &page).unwrap(), page);
        }
    }

    #[test]
    fn every_fault_kind_alters_tiny_pages() {
        // 1- and 2-byte pages: each kind must still change at least one byte
        // (or the length) — the truncation arm in particular must never keep
        // the whole page.
        for page in [vec![0x5Au8], vec![0u8], vec![0xA5u8, 0x5A], vec![0u8, 0]] {
            for kind in 0..3u64 {
                for seed in 0..50u64 {
                    let mut rng = SplitMix64::new(seed);
                    let out = apply_fault(&mut rng, &page, kind);
                    assert_ne!(out, page, "kind {kind} no-op on {page:?} (seed {seed})");
                    if kind == 1 {
                        assert!(out.len() < page.len(), "truncation kept every byte");
                    }
                }
            }
        }
    }

    #[test]
    fn disk_array_installs_injector_from_sys_config() {
        let faulty = sys().with_faults(FaultSpec::always(3));
        let mut d = DiskArray::new(&hw(), &faulty, 1.0).unwrap();
        assert!(d.read_page(FileId(0), 0, &[7u8; 64]).is_some());
        let mut healthy = DiskArray::new(&hw(), &sys(), 1.0).unwrap();
        assert!(healthy.read_page(FileId(0), 0, &[7u8; 64]).is_none());
    }

    #[test]
    fn mirrored_read_repairs_and_charges_backoff() {
        let faulty = sys().with_faults(FaultSpec::always(3)).with_mirror(2);
        let mut d = DiskArray::new(&hw(), &faulty, 1.0).unwrap();
        let page = [7u8; 4096];
        let before = d.elapsed();
        assert!(
            d.read_page(FileId(0), 0, &page).is_none(),
            "replica copy is clean, read recovers"
        );
        let backoff = d.elapsed() - before;
        let expect = hw().seek_s + page.len() as f64 / hw().aggregate_disk_bw();
        assert!((backoff - expect).abs() < 1e-12, "backoff {backoff}");
        assert_eq!(d.stats().recovery.retries, 1);
        assert_eq!(d.stats().recovery.repairs, 1);
        // The site was repaired: reading it again is clean and free.
        let t = d.elapsed();
        assert!(d.read_page(FileId(0), 0, &page).is_none());
        assert_eq!(d.elapsed(), t);
        assert_eq!(d.stats().recovery.retries, 1);
    }

    #[test]
    fn mirror_fail_policy_and_bad_replicas_skip_retries() {
        // on_corrupt = Fail: no retries even with a mirror.
        let faulty = sys()
            .with_faults(FaultSpec::always(3))
            .with_mirror(2)
            .with_on_corrupt(OnCorrupt::Fail);
        let mut d = DiskArray::new(&hw(), &faulty, 1.0).unwrap();
        assert!(d.read_page(FileId(0), 0, &[7u8; 64]).is_some());
        assert_eq!(d.stats().recovery.retries, 0);
        // Every replica bad: damage is returned after mirror-1 retries.
        let allbad = sys()
            .with_faults(FaultSpec {
                seed: 3,
                rate_ppm: 1_000_000,
                replica_rate_ppm: 1_000_000,
            })
            .with_mirror(3);
        let mut d = DiskArray::new(&hw(), &allbad, 1.0).unwrap();
        assert!(d.read_page(FileId(0), 0, &[7u8; 64]).is_some());
        assert_eq!(d.stats().recovery.retries, 2);
        assert_eq!(d.stats().recovery.repairs, 0);
    }

    #[test]
    fn trace_sink_sees_bursts_skips_and_retries() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let faulty = sys().with_faults(FaultSpec::always(3)).with_mirror(2);
        let mut d = DiskArray::new(&hw(), &faulty, 1.0).unwrap();
        let sink: TraceSink = Rc::new(RefCell::new(rodb_trace::EventBuf::default()));
        d.set_trace_sink(sink.clone());
        let burst = d.burst_bytes();
        d.read(FileId(0), 0.0, burst);
        d.note_pages_skipped(4);
        assert!(d.read_page(FileId(0), 0, &[7u8; 512]).is_none());
        let buf = sink.borrow();
        let kinds: Vec<EventKind> = buf.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Burst,
                EventKind::ZoneSkip,
                EventKind::Retry,
                EventKind::Repair
            ]
        );
        // Timestamps are the simulated clock, monotone along the stream.
        for pair in buf.events.windows(2) {
            assert!(pair[1].ts_s >= pair[0].ts_s);
        }
        assert_eq!(buf.events[1].count, 4);
    }

    #[test]
    fn mirror_is_free_without_faults() {
        // The clean path charges nothing for redundancy: mirror=2 with no
        // injector is byte-for-byte the mirror=1 clock.
        let mut plain = DiskArray::new(&hw(), &sys(), 1.0).unwrap();
        let mut mirrored = DiskArray::new(&hw(), &sys().with_mirror(2), 1.0).unwrap();
        for d in [&mut plain, &mut mirrored] {
            let burst = d.burst_bytes();
            for i in 0..20 {
                d.read(FileId(0), i as f64 * burst, burst);
                assert!(d.read_page(FileId(0), i, &[1u8; 4096]).is_none());
            }
        }
        assert_eq!(plain.elapsed(), mirrored.elapsed());
        assert_eq!(plain.stats(), mirrored.stats());
    }
}
