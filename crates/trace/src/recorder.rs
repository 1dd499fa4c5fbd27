//! Tail-based flight recorder for the query service.
//!
//! Per modeled-clock window, the [`FlightRecorder`] retains:
//!
//! 1. **every anomalous query** — deadline-missed, admission-rejected, or
//!    quarantine-touching — unconditionally (up to a generous per-window
//!    cap, with an overflow count so drops are never silent);
//! 2. **the 4 slowest** non-anomalous queries by latency (ties keep the
//!    earlier completion).
//!
//! Retention is tail-based on *completed* facts (latency, outcome), not a
//! head-based coin flip at admission — the interesting queries are by
//! definition the ones you only recognize at the end. The retained set is a
//! pure function of the workload: re-running a seed reproduces the same
//! dump.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::timeline::Windows;

/// Hard per-window cap on unconditionally-retained anomalies. Far above
/// anything the simulated service produces per window; exists only so a
/// pathological workload cannot grow memory without bound.
const ANOMALY_CAP: usize = 4096;

/// Non-anomalous queries kept per window, slowest first.
const SLOWEST: usize = 4;

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
    /// Anomalous entries are always retained.
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

#[derive(Debug, Clone, Default)]
struct FlightWindow {
    /// Deadline-missed / rejected / quarantine-touching queries, in
    /// completion order, capped at [`ANOMALY_CAP`].
    anomalies: Vec<FlightEntry>,
    anomalies_dropped: u64,
    /// [`SLOWEST`] slowest non-anomalous queries, descending latency.
    slowest: Vec<FlightEntry>,
}

/// Bounded tail-based retention of query flight records, windowed by the
/// modeled clock (the [`Timeline`](crate::Timeline)'s bucketing rule:
/// completion — or rejection — time `t` lands in window `floor(t /
/// window_s)`).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    rule: Windows,
    windows: BTreeMap<u64, FlightWindow>,
    recorded: u64,
}

impl FlightRecorder {
    pub fn new(window_s: f64) -> FlightRecorder {
        FlightRecorder {
            rule: Windows::new(window_s),
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
        let w = self.windows.entry(self.rule.of(t)).or_default();
        if !entry.anomalous() {
            insert_slowest(&mut w.slowest, entry);
        } else if w.anomalies.len() < ANOMALY_CAP {
            w.anomalies.push(entry);
        } else {
            w.anomalies_dropped += 1;
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

    /// A window's 4 slowest non-anomalous queries, descending latency.
    pub fn slowest(&self, window: u64) -> &[FlightEntry] {
        self.windows
            .get(&window)
            .map(|w| w.slowest.as_slice())
            .unwrap_or(&[])
    }

    /// Every retained entry across all windows.
    pub fn retained(&self) -> Vec<&FlightEntry> {
        self.windows
            .values()
            .flat_map(|w| w.anomalies.iter().chain(w.slowest.iter()))
            .collect()
    }

    /// The dumpable form: per window, anomalies + slowest, with the dropped
    /// count so truncation is visible.
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
            })
            .collect();
        Json::obj()
            .set("window_s", self.rule.width_s())
            .set("k", SLOWEST as u64)
            .set("recorded", self.recorded)
            .set("windows", windows)
    }
}

/// Insert into a descending-latency top-[`SLOWEST`] list, dropping whatever
/// falls off its end. Ties keep the earlier completion (stable insert after
/// equal latencies).
fn insert_slowest(slowest: &mut Vec<FlightEntry>, entry: FlightEntry) {
    let pos = slowest
        .iter()
        .position(|e| e.latency_s < entry.latency_s)
        .unwrap_or(slowest.len());
    slowest.insert(pos, entry);
    slowest.truncate(SLOWEST);
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
    fn keeps_exactly_the_4_slowest_per_window() {
        let mut fr = FlightRecorder::new(10.0);
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
        assert_eq!(slow, vec![8.0, 7.0, 6.0, 5.0]);
        assert_eq!(fr.retained().len(), 4);
        assert_eq!(fr.recorded(), 8);
    }

    #[test]
    fn latency_ties_keep_the_earlier_completion() {
        let mut fr = FlightRecorder::new(10.0);
        for seq in 0..6 {
            fr.record(0.0, entry(seq, 5.0));
        }
        let seqs: Vec<u64> = fr.slowest(0).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn anomalies_are_always_retained() {
        let mut fr = FlightRecorder::new(10.0);
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
        // They never displace or occupy the slowest slots.
        let slow: Vec<u64> = fr.slowest(0).iter().map(|e| e.seq).collect();
        assert_eq!(slow, vec![0, 1, 2, 3]);
    }

    #[test]
    fn windows_are_independent() {
        let mut fr = FlightRecorder::new(2.0);
        for seq in 0..50 {
            let t = seq as f64 * 0.1; // spans windows 0..=2
            fr.record(t, entry(seq, (seq % 7) as f64 * 0.01));
        }
        assert_eq!(fr.window_indices(), vec![0, 1, 2]);
        for w in fr.window_indices() {
            for e in fr.slowest(w) {
                assert_eq!(fr.window_of(e.seq as f64 * 0.1), w);
            }
        }
    }

    #[test]
    fn json_dump_counts_everything_recorded() {
        let mut fr = FlightRecorder::new(1.0);
        for seq in 0..10 {
            fr.record(0.5, entry(seq, seq as f64));
        }
        let j = fr.to_json();
        assert_eq!(j.get("recorded").unwrap().as_f64(), Some(10.0));
        assert_eq!(j.get("k").unwrap().as_f64(), Some(4.0));
        let w = &j.get("windows").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("slowest").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(w.get("anomalies_dropped").unwrap().as_f64(), Some(0.0));
    }
}
