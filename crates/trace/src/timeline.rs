//! Windowed metric timelines over the simulated clock.
//!
//! A [`Timeline`] keeps one [`MetricSet`] — counters, gauges, and
//! [`Histogram`]s — per fixed-width window of *modeled* time, so a [`QueryService`] run yields
//! throughput / latency / I/O / cache-hit **curves over time** instead
//! of one end-of-run blob. Every recording call takes the modeled timestamp
//! explicitly — the timeline never consults a wall clock and never advances
//! the simulation.
//!
//! Bucketing rule (`Windows`, which the flight recorder shares): an event
//! at modeled time `t` lands in window `floor(t / window_s)`; window `i`
//! therefore covers `[i·window_s, (i+1)·window_s)`. Windows are materialized
//! lazily, so a quiet stretch of simulated time produces no entries
//! (renderers treat missing windows as zero).
//!
//! [`QueryService`]: ../../rodb_core/struct.QueryService.html

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Histogram, MetricSet};

/// The one modeled-time window rule: width `window_s`, and the window an
/// instant lands in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Windows {
    width_s: f64,
}

impl Windows {
    /// Non-finite or non-positive widths are rejected upstream by
    /// `SystemConfig::validate` (`ServiceSpec::window_s`); this clamps
    /// defensively to one second.
    pub(crate) fn new(window_s: f64) -> Windows {
        let ok = window_s.is_finite() && window_s > 0.0;
        Windows {
            width_s: if ok { window_s } else { 1.0 },
        }
    }

    pub(crate) fn width_s(self) -> f64 {
        self.width_s
    }

    /// The window index an event at modeled time `t` lands in (times at or
    /// before zero land in window 0).
    pub(crate) fn of(self, t: f64) -> u64 {
        if t <= 0.0 {
            return 0;
        }
        (t / self.width_s).floor() as u64
    }

    /// `json` with window `idx`'s index and bounds appended.
    pub(crate) fn stamp(self, idx: u64, json: Json) -> Json {
        json.set("window", idx)
            .set("t0_s", idx as f64 * self.width_s)
            .set("t1_s", (idx + 1) as f64 * self.width_s)
    }
}

/// Metrics bucketed by fixed-width windows of modeled time.
#[derive(Debug, Clone)]
pub struct Timeline {
    rule: Windows,
    windows: BTreeMap<u64, MetricSet>,
}

impl Timeline {
    /// A timeline with the given window width in modeled seconds.
    pub fn new(window_s: f64) -> Timeline {
        Timeline {
            rule: Windows::new(window_s),
            windows: BTreeMap::new(),
        }
    }

    /// The configured window width in modeled seconds.
    pub fn window_s(&self) -> f64 {
        self.rule.width_s()
    }

    /// The window index an event at modeled time `t` lands in.
    pub fn window_of(&self, t: f64) -> u64 {
        self.rule.of(t)
    }

    fn window_mut(&mut self, t: f64) -> &mut MetricSet {
        let idx = self.window_of(t);
        self.windows.entry(idx).or_default()
    }

    /// Add `delta` to a named counter in the window covering modeled time `t`.
    pub fn counter_add(&mut self, t: f64, name: &str, delta: f64) {
        self.window_mut(t).counter_add(name, delta);
    }

    /// Record a gauge sample in the window covering modeled time `t`
    /// (last sample per window wins).
    pub fn gauge_set(&mut self, t: f64, name: &str, value: f64) {
        self.window_mut(t).gauge_set(name, value);
    }

    /// Record a histogram observation in the window covering modeled time `t`.
    pub fn observe(&mut self, t: f64, name: &str, value: f64) {
        self.window_mut(t).observe(name, value);
    }

    /// Number of materialized (non-empty) windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Materialized window indices, ascending.
    pub fn window_indices(&self) -> Vec<u64> {
        self.windows.keys().copied().collect()
    }

    /// A materialized window by index.
    pub fn window(&self, idx: u64) -> Option<&MetricSet> {
        self.windows.get(&idx)
    }

    /// Sum of a counter across all windows — what reconciliation checks
    /// compare against end-of-run report aggregates.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.windows.values().map(|w| w.counter(name)).sum()
    }

    /// Fold every window's histogram for `name` into one population.
    pub fn histogram_total(&self, name: &str) -> Histogram {
        let mut total = Histogram::new();
        for w in self.windows.values() {
            if let Some(h) = w.histogram(name) {
                total.merge(h);
            }
        }
        total
    }

    /// `(window index, counter value)` per materialized window — a
    /// ready-to-plot series (missing windows are zero by convention).
    pub fn series(&self, name: &str) -> Vec<(u64, f64)> {
        self.windows
            .iter()
            .map(|(idx, w)| (*idx, w.counter(name)))
            .collect()
    }

    /// The whole timeline as JSON: window width plus one entry per
    /// materialized window with its bounds and metrics.
    pub fn to_json(&self) -> Json {
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|(idx, w)| self.rule.stamp(*idx, w.to_json()))
            .collect();
        Json::obj()
            .set("window_s", self.window_s())
            .set("windows", windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_their_modeled_window() {
        let mut tl = Timeline::new(10.0);
        tl.counter_add(0.0, "done", 1.0);
        tl.counter_add(9.999, "done", 1.0);
        tl.counter_add(10.0, "done", 1.0); // window 1 starts exactly at t=10
        tl.counter_add(35.0, "done", 1.0);
        assert_eq!(tl.window_indices(), vec![0, 1, 3]);
        assert_eq!(tl.window(0).unwrap().counter("done"), 2.0);
        assert_eq!(tl.window(1).unwrap().counter("done"), 1.0);
        assert!(tl.window(2).is_none()); // quiet windows stay unmaterialized
        assert_eq!(tl.window(3).unwrap().counter("done"), 1.0);
        assert_eq!(tl.counter_total("done"), 4.0);
        assert_eq!(tl.series("done"), vec![(0, 2.0), (1, 1.0), (3, 1.0)]);
    }

    #[test]
    fn gauges_keep_last_sample_per_window() {
        let mut tl = Timeline::new(5.0);
        tl.gauge_set(1.0, "depth", 3.0);
        tl.gauge_set(4.0, "depth", 7.0);
        tl.gauge_set(6.0, "depth", 2.0);
        assert_eq!(tl.window(0).unwrap().gauge("depth"), Some(7.0));
        assert_eq!(tl.window(1).unwrap().gauge("depth"), Some(2.0));
        assert_eq!(tl.window(0).unwrap().gauge("missing"), None);
    }

    #[test]
    fn histograms_bucket_and_fold_across_windows() {
        let mut tl = Timeline::new(1.0);
        tl.observe(0.5, "lat", 1.0);
        tl.observe(0.6, "lat", 3.0);
        tl.observe(2.5, "lat", 5.0);
        let w0 = tl.window(0).unwrap().histogram("lat").unwrap();
        assert_eq!(w0.count(), 2);
        let total = tl.histogram_total("lat");
        assert_eq!(total.count(), 3);
        assert_eq!(total.sum(), 9.0);
        assert_eq!(total.max(), 5.0);
    }

    #[test]
    fn json_shape_has_window_bounds() {
        let mut tl = Timeline::new(2.0);
        tl.counter_add(3.0, "x", 1.0);
        let j = tl.to_json();
        assert_eq!(j.get("window_s").unwrap().as_f64(), Some(2.0));
        let w = &j.get("windows").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("window").unwrap().as_f64(), Some(1.0));
        assert_eq!(w.get("t0_s").unwrap().as_f64(), Some(2.0));
        assert_eq!(w.get("t1_s").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            w.get("counters").unwrap().get("x").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn degenerate_widths_clamp_and_negative_times_floor_to_zero() {
        let mut tl = Timeline::new(0.0);
        assert_eq!(tl.window_s(), 1.0);
        tl.counter_add(-3.0, "x", 1.0);
        assert_eq!(tl.window_indices(), vec![0]);
    }
}
