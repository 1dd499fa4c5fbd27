//! Tail-based flight recorder for the query service.
//!
//! Per modeled-clock window, the [`FlightRecorder`] retains:
//!
//! 1. **every anomalous query** — deadline-missed, admission-rejected, or
//!    quarantine-touching — unconditionally (up to a generous per-window
//!    cap, with an overflow count so drops are never silent);
//! 2. **the K slowest** non-anomalous queries by latency (ties keep the
//!    earlier completion);
//! 3. a deterministic **reservoir sample** of everything else, so normal
//!    behavior is represented without unbounded memory.
//!
//! Retention is tail-based on *completed* facts (latency, outcome), not a
//! head-based coin flip at admission — the interesting queries are by
//! definition the ones you only recognize at the end. The reservoir PRNG is
//! seeded from the window index alone, so a run's retained set is a pure
//! function of the workload: re-running a seed reproduces the same dump.

use std::collections::BTreeMap;

use rodb_types::SplitMix64;

use crate::json::Json;
use crate::timeline::Windows;

/// Hard per-window cap on unconditionally-retained anomalies. Far above
/// anything the simulated service produces per window; exists only so a
/// pathological workload cannot grow memory without bound.
const ANOMALY_CAP: usize = 4096;

/// One completed (or rejected) query's flight record.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Submission sequence number (unique per service run).
    pub seq: u64,
    /// Tenant the query was billed to.
    pub tenant: String,
    /// Modeled arrival time.
    pub arrival_s: f64,
    /// Time spent queued before first service (0 for rejected queries).
    pub queue_wait_s: f64,
    /// Arrival-to-completion latency (0 for rejected queries).
    pub latency_s: f64,
    /// Rows the query returned.
    pub rows: u64,
    /// Completed after its deadline.
    pub deadline_missed: bool,
    /// Refused admission (deadline infeasible at submit time).
    pub rejected: bool,
    /// Rode a scan cursor while it quarantined corrupt pages.
    pub quarantine_touched: bool,
}

impl FlightEntry {
    /// Anomalous entries are always retained (never sampled away).
    pub fn anomalous(&self) -> bool {
        self.deadline_missed || self.rejected || self.quarantine_touched
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("seq", self.seq)
            .set("tenant", self.tenant.as_str())
            .set("arrival_s", self.arrival_s)
            .set("queue_wait_s", self.queue_wait_s)
            .set("latency_s", self.latency_s)
            .set("rows", self.rows)
            .set("deadline_missed", self.deadline_missed)
            .set("rejected", self.rejected)
            .set("quarantine_touched", self.quarantine_touched)
    }
}

#[derive(Debug, Clone)]
struct FlightWindow {
    /// Deadline-missed / rejected / quarantine-touching queries, in
    /// completion order, capped at [`ANOMALY_CAP`].
    anomalies: Vec<FlightEntry>,
    anomalies_dropped: u64,
    /// K slowest non-anomalous queries, descending latency.
    slowest: Vec<FlightEntry>,
    /// Deterministic reservoir over the remaining (ordinary) queries.
    reservoir: Vec<FlightEntry>,
    /// Ordinary queries offered to the reservoir so far.
    offered: u64,
    rng: SplitMix64,
}

impl FlightWindow {
    fn new(window: u64) -> FlightWindow {
        FlightWindow {
            anomalies: Vec::new(),
            anomalies_dropped: 0,
            slowest: Vec::new(),
            reservoir: Vec::new(),
            offered: 0,
            // Seeded from the window index alone: retention is a pure
            // function of the workload, independent of wall time.
            rng: SplitMix64::new(0xf119_47ec_u64 ^ window),
        }
    }
}

/// Bounded tail-based retention of query flight records, windowed by the
/// modeled clock (the [`Timeline`](crate::Timeline)'s bucketing rule:
/// completion — or rejection — time `t` lands in window `floor(t /
/// window_s)`).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    rule: Windows,
    k: usize,
    reservoir_size: usize,
    windows: BTreeMap<u64, FlightWindow>,
    recorded: u64,
}

impl FlightRecorder {
    /// `k` slowest kept per window; `reservoir_size` ordinary queries
    /// sampled per window on top of that.
    pub fn new(window_s: f64, k: usize, reservoir_size: usize) -> FlightRecorder {
        FlightRecorder {
            rule: Windows::new(window_s),
            k,
            reservoir_size,
            windows: BTreeMap::new(),
            recorded: 0,
        }
    }

    /// The window index an event at modeled time `t` lands in.
    pub fn window_of(&self, t: f64) -> u64 {
        self.rule.of(t)
    }

    /// Total entries offered (retained or not).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Record one finished/rejected query at modeled time `t` (its
    /// completion or rejection instant).
    pub fn record(&mut self, t: f64, entry: FlightEntry) {
        self.recorded += 1;
        let idx = self.window_of(t);
        let (k, size) = (self.k, self.reservoir_size);
        let w = self
            .windows
            .entry(idx)
            .or_insert_with(|| FlightWindow::new(idx));
        if entry.anomalous() {
            if w.anomalies.len() < ANOMALY_CAP {
                w.anomalies.push(entry);
            } else {
                w.anomalies_dropped += 1;
            }
            return;
        }
        // Keep the K slowest; a displaced (or never-admitted) entry falls
        // through to the reservoir so it still has a chance of retention.
        let displaced = insert_slowest(&mut w.slowest, entry, k);
        if let Some(e) = displaced {
            w.offered += 1;
            if size == 0 {
                return;
            }
            if w.reservoir.len() < size {
                w.reservoir.push(e);
            } else {
                let j = w.rng.below(w.offered) as usize;
                if j < size {
                    w.reservoir[j] = e;
                }
            }
        }
    }

    /// Materialized window indices, ascending.
    pub fn window_indices(&self) -> Vec<u64> {
        self.windows.keys().copied().collect()
    }

    /// A window's unconditionally-retained anomalies, in completion order.
    pub fn anomalies(&self, window: u64) -> &[FlightEntry] {
        self.windows
            .get(&window)
            .map(|w| w.anomalies.as_slice())
            .unwrap_or(&[])
    }

    /// A window's K slowest non-anomalous queries, descending latency.
    pub fn slowest(&self, window: u64) -> &[FlightEntry] {
        self.windows
            .get(&window)
            .map(|w| w.slowest.as_slice())
            .unwrap_or(&[])
    }

    /// A window's reservoir of ordinary queries (unordered).
    pub fn sampled(&self, window: u64) -> &[FlightEntry] {
        self.windows
            .get(&window)
            .map(|w| w.reservoir.as_slice())
            .unwrap_or(&[])
    }

    /// Every retained entry across all windows.
    pub fn retained(&self) -> Vec<&FlightEntry> {
        self.windows
            .values()
            .flat_map(|w| {
                w.anomalies
                    .iter()
                    .chain(w.slowest.iter())
                    .chain(w.reservoir.iter())
            })
            .collect()
    }

    /// The dumpable form: per window, anomalies + slowest + sample, with
    /// offered/dropped counts so truncation is visible.
    pub fn to_json(&self) -> Json {
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|(idx, w)| {
                self.rule
                    .stamp(*idx, Json::obj())
                    .set(
                        "anomalies",
                        w.anomalies
                            .iter()
                            .map(FlightEntry::to_json)
                            .collect::<Vec<_>>(),
                    )
                    .set("anomalies_dropped", w.anomalies_dropped)
                    .set(
                        "slowest",
                        w.slowest
                            .iter()
                            .map(FlightEntry::to_json)
                            .collect::<Vec<_>>(),
                    )
                    .set(
                        "sampled",
                        w.reservoir
                            .iter()
                            .map(FlightEntry::to_json)
                            .collect::<Vec<_>>(),
                    )
                    .set("ordinary_offered", w.offered)
            })
            .collect();
        Json::obj()
            .set("window_s", self.rule.width_s())
            .set("k", self.k as u64)
            .set("reservoir", self.reservoir_size as u64)
            .set("recorded", self.recorded)
            .set("windows", windows)
    }
}

/// Insert into a descending-latency top-K list; returns the entry that did
/// NOT make the cut (the displaced minimum, or `entry` itself). Ties keep
/// the earlier completion (stable insert after equal latencies).
fn insert_slowest(
    slowest: &mut Vec<FlightEntry>,
    entry: FlightEntry,
    k: usize,
) -> Option<FlightEntry> {
    if k == 0 {
        return Some(entry);
    }
    let full = slowest.len() >= k;
    if full && entry.latency_s <= slowest[slowest.len() - 1].latency_s {
        return Some(entry);
    }
    let pos = slowest
        .iter()
        .position(|e| e.latency_s < entry.latency_s)
        .unwrap_or(slowest.len());
    slowest.insert(pos, entry);
    if slowest.len() > k {
        slowest.pop()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, latency_s: f64) -> FlightEntry {
        FlightEntry {
            seq,
            tenant: "t".to_string(),
            arrival_s: 0.0,
            queue_wait_s: 0.0,
            latency_s,
            rows: 1,
            deadline_missed: false,
            rejected: false,
            quarantine_touched: false,
        }
    }

    #[test]
    fn keeps_exactly_the_k_slowest_per_window() {
        let mut fr = FlightRecorder::new(10.0, 3, 2);
        // All in window 0; latencies 1..=8 in scrambled order.
        for (seq, lat) in [
            (0, 4.0),
            (1, 8.0),
            (2, 1.0),
            (3, 6.0),
            (4, 2.0),
            (5, 7.0),
            (6, 3.0),
            (7, 5.0),
        ] {
            fr.record(5.0, entry(seq, lat));
        }
        let slow: Vec<f64> = fr.slowest(0).iter().map(|e| e.latency_s).collect();
        assert_eq!(slow, vec![8.0, 7.0, 6.0]);
        // Reservoir holds only non-top-K entries, bounded by its size.
        assert_eq!(fr.sampled(0).len(), 2);
        for e in fr.sampled(0) {
            assert!(e.latency_s < 6.0);
        }
        assert_eq!(fr.recorded(), 8);
    }

    #[test]
    fn latency_ties_keep_the_earlier_completion() {
        let mut fr = FlightRecorder::new(10.0, 2, 0);
        fr.record(0.0, entry(0, 5.0));
        fr.record(0.0, entry(1, 5.0));
        fr.record(0.0, entry(2, 5.0));
        let seqs: Vec<u64> = fr.slowest(0).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn anomalies_are_always_retained() {
        let mut fr = FlightRecorder::new(10.0, 1, 1);
        // Flood with fast ordinary queries, then one slow-path anomaly each.
        for seq in 0..100 {
            fr.record(1.0, entry(seq, 0.001));
        }
        let mut missed = entry(100, 0.0005); // faster than everything
        missed.deadline_missed = true;
        let mut quarantined = entry(101, 0.0006);
        quarantined.quarantine_touched = true;
        let mut rejected = entry(102, 0.0);
        rejected.rejected = true;
        fr.record(1.0, missed);
        fr.record(1.0, quarantined);
        fr.record(1.0, rejected);
        let seqs: Vec<u64> = fr.anomalies(0).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![100, 101, 102]);
        // They never displace or occupy the slowest/reservoir slots.
        assert_eq!(fr.slowest(0).len(), 1);
        assert_eq!(fr.sampled(0).len(), 1);
    }

    #[test]
    fn windows_are_independent_and_retention_is_deterministic() {
        let run = || {
            let mut fr = FlightRecorder::new(2.0, 1, 2);
            for seq in 0..50 {
                let t = seq as f64 * 0.1; // spans windows 0..=2
                fr.record(t, entry(seq, (seq % 7) as f64 * 0.01));
            }
            fr
        };
        let a = run();
        let b = run();
        assert_eq!(a.window_indices(), vec![0, 1, 2]);
        for w in a.window_indices() {
            assert_eq!(a.slowest(w), b.slowest(w));
            assert_eq!(a.sampled(w), b.sampled(w));
            assert!(a.sampled(w).len() <= 2);
        }
    }

    #[test]
    fn json_dump_counts_everything_offered() {
        let mut fr = FlightRecorder::new(1.0, 1, 1);
        for seq in 0..10 {
            fr.record(0.5, entry(seq, seq as f64));
        }
        let j = fr.to_json();
        assert_eq!(j.get("recorded").unwrap().as_f64(), Some(10.0));
        let w = &j.get("windows").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("ordinary_offered").unwrap().as_f64(), Some(9.0));
        assert_eq!(w.get("slowest").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(w.get("anomalies_dropped").unwrap().as_f64(), Some(0.0));
    }
}
