//! Named counters, gauges, and histograms — instantiable and process-wide.
//!
//! [`Registry`] is an owned, thread-safe metrics instance: the query
//! service, bench bins, and fuzz drivers each create their own (so parallel
//! test binaries and in-process tests can never interleave drains), while
//! [`MetricsRegistry`] keeps the historical static API as a facade over one
//! process-wide default instance ([`Registry::global`]).
//!
//! Queries bump a handful of registry entries once per run (cheap and
//! unconditional — a mutex lock per *query*, not per row); long-running
//! drivers drain their registry into JSON output so sweep-level aggregates
//! ride along for free. [`Histogram`] is the one shared quantile path: log2
//! buckets plus an exact sample buffer for small populations, used by the
//! service's SLO accounting, the windowed timelines, and the bench gates.
//! [`MetricSet`] is the one container of named metrics: a registry holds one,
//! a timeline one per window, and `/metrics` renders a registry's copy of
//! its set ([`crate::expo::prometheus`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::json::Json;

/// A log2-bucket histogram with exact small-population quantiles.
///
/// Every observation updates `count`/`sum`/`min`/`max` and a log2 bucket;
/// the first [`Histogram::SAMPLE_CAP`] raw values are additionally retained
/// verbatim. [`Histogram::quantile`] is therefore *exact* (equal to the
/// sorted-`Vec` nearest-rank oracle) until the population exceeds the cap,
/// after which it returns the **upper bound** of the log2 bucket holding the
/// ranked observation, clamped to the observed `[min, max]` — an estimate
/// that never under-reports a latency quantile by more than nothing and
/// never over-reports it by more than 2x.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// log2 buckets: index `i` counts observations in `[2^i, 2^(i+1))`.
    buckets: BTreeMap<i32, u64>,
    /// First `SAMPLE_CAP` raw observations (exact-quantile fast path).
    samples: Vec<f64>,
}

/// Sentinel bucket index for zero and negative observations.
const UNDERFLOW: i32 = -65;

impl Histogram {
    /// Raw observations retained for exact quantiles. Beyond this many,
    /// `quantile` degrades to log2-bucket upper bounds.
    pub const SAMPLE_CAP: usize = 512;

    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        if self.samples.len() < Self::SAMPLE_CAP {
            self.samples.push(v);
        }
    }

    /// Fold `other` into `self` (counts and buckets sum; min/max widen).
    /// The merged histogram stays exact only while the combined population
    /// fits the sample cap.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (idx, n) in &other.buckets {
            *self.buckets.entry(*idx).or_insert(0) += n;
        }
        for v in &other.samples {
            if self.samples.len() >= Self::SAMPLE_CAP {
                break;
            }
            self.samples.push(*v);
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> f64 {
        if self.count > 0 {
            self.min
        } else {
            0.0
        }
    }

    pub fn max(&self) -> f64 {
        if self.count > 0 {
            self.max
        } else {
            0.0
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }

    /// Whether `quantile` currently answers from raw samples (every
    /// observation retained) rather than bucket upper bounds.
    pub fn is_exact(&self) -> bool {
        self.samples.len() as u64 == self.count
    }

    /// The `q`-quantile (`0..=1`), nearest-rank on the 0-indexed sorted
    /// population: rank `round((count − 1) · q)`.
    ///
    /// **Semantics:** exact while the population is within
    /// [`Histogram::SAMPLE_CAP`]; otherwise the *upper bound* `2^(i+1)` of
    /// the log2 bucket holding the ranked observation, clamped into the
    /// observed `[min, max]` — so the estimate never falls below the true
    /// quantile and never exceeds twice it (or `max`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        if self.is_exact() {
            let mut sorted = self.samples.clone();
            sorted.sort_by(f64::total_cmp);
            return sorted[rank as usize];
        }
        let mut seen = 0u64;
        for (upper, n) in self.bucket_bounds() {
            seen += n;
            if rank < seen {
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// `(upper bound, count)` per non-empty log2 bucket, ascending: the
    /// underflow bucket's bound is 0, bucket `i`'s is `2^(i+1)`.
    pub(crate) fn bucket_bounds(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets.iter().map(|(idx, n)| {
            let upper = if *idx == UNDERFLOW {
                0.0
            } else {
                2.0f64.powi(idx + 1)
            };
            (upper, *n)
        })
    }

    pub fn to_json(&self) -> Json {
        let mut buckets = Json::obj();
        for (idx, n) in &self.buckets {
            let label = if *idx == UNDERFLOW {
                "le_0".to_string()
            } else {
                format!("p2_{idx}")
            };
            buckets = buckets.set(&label, *n);
        }
        Json::obj()
            .set("count", self.count)
            .set("sum", self.sum)
            .set("min", self.min())
            .set("max", self.max())
            .set("mean", self.mean())
            .set("p50", self.quantile(0.50))
            .set("p95", self.quantile(0.95))
            .set("p99", self.quantile(0.99))
            .set("exact", self.is_exact())
            .set("buckets", buckets)
    }
}

fn bucket_of(v: f64) -> i32 {
    if v > 0.0 {
        (v.log2().floor() as i32).clamp(-64, 64)
    } else {
        UNDERFLOW
    }
}

/// Named counters, last-value gauges and [`Histogram`]s, each kind kept in
/// name order — what a [`Registry`] holds and what one
/// [`Timeline`](crate::Timeline) window holds.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    pub(crate) counters: BTreeMap<String, f64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
}

impl MetricSet {
    /// Add `delta` to a named counter (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, delta: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Overwrite a named last-value gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record one observation in a named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Counter total (0 if never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Last gauge value set, if any.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A named histogram, if any observation landed in it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// `{"counters", "gauges", "histograms"}`, each object in name order.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters = counters.set(k, *v);
        }
        let mut gauges = Json::obj();
        for (k, v) in &self.gauges {
            gauges = gauges.set(k, *v);
        }
        let mut histograms = Json::obj();
        for (k, h) in &self.histograms {
            histograms = histograms.set(k, h.to_json());
        }
        Json::obj()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", histograms)
    }
}

/// An owned metrics instance: one [`MetricSet`] behind a mutex. Cheap to
/// create; share via [`MetricsHandle`]. [`Registry::snapshot`] copies the
/// set out (publishers hand that copy to `/metrics`); [`Registry::drain`]
/// takes it as JSON. The process-wide default instance backing the static
/// [`MetricsRegistry`] facade is [`Registry::global`].
#[derive(Debug, Default)]
pub struct Registry {
    state: Mutex<MetricSet>,
}

/// Shared handle to a [`Registry`] (the service, bench, and fuzz drivers
/// each own one; `Registry::global().clone()` is the default instance).
pub type MetricsHandle = Arc<Registry>;

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A fresh private instance behind a shareable handle.
    pub fn handle() -> MetricsHandle {
        Arc::new(Registry::new())
    }

    /// The process-wide default instance (what [`MetricsRegistry`] fronts).
    pub fn global() -> &'static MetricsHandle {
        static GLOBAL: OnceLock<MetricsHandle> = OnceLock::new();
        GLOBAL.get_or_init(Registry::handle)
    }

    /// The registry's state. A thread that panicked while holding the lock
    /// cannot have left the set half-updated — every update is one
    /// `MetricSet` call — so a poisoned lock is taken over, not re-raised
    /// in every later caller.
    fn lock(&self) -> std::sync::MutexGuard<'_, MetricSet> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `delta` to a named counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, delta: f64) {
        self.lock().counter_add(name, delta);
    }

    /// Overwrite a named last-value gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauge_set(name, value);
    }

    /// Record one observation in a named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        self.lock().observe(name, value);
    }

    /// Current counter value (0 if never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        self.lock().counter(name)
    }

    /// Current gauge value (0 if never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.lock().gauge(name).unwrap_or(0.0)
    }

    /// Clone of a named histogram, if any observation landed in it.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histogram(name).cloned()
    }

    /// A copy of every metric, without resetting the registry.
    pub fn snapshot(&self) -> MetricSet {
        self.lock().clone()
    }

    /// Snapshot and reset — what sweep drivers call when writing output.
    pub fn drain(&self) -> Json {
        std::mem::take(&mut *self.lock()).to_json()
    }
}

/// Namespace struct over the process-wide default [`Registry`] — the
/// historical static API, kept as a shim so existing call sites (and casual
/// instrumentation) need no handle plumbing.
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// Add `delta` to a named counter (created at zero on first use).
    pub fn counter_add(name: &str, delta: f64) {
        Registry::global().counter_add(name, delta);
    }

    /// Overwrite a named last-value gauge.
    pub fn gauge_set(name: &str, value: f64) {
        Registry::global().gauge_set(name, value);
    }

    /// Record one observation in a named log2-bucket histogram.
    pub fn observe(name: &str, value: f64) {
        Registry::global().observe(name, value);
    }

    /// Current counter value (0 if never bumped).
    pub fn counter(name: &str) -> f64 {
        Registry::global().counter(name)
    }

    /// Current gauge value (0 if never set).
    pub fn gauge(name: &str) -> f64 {
        Registry::global().gauge(name)
    }

    /// A copy of every metric, without resetting the registry.
    pub fn snapshot() -> MetricSet {
        Registry::global().snapshot()
    }

    /// Snapshot and reset — what sweep drivers call when writing output.
    pub fn drain() -> Json {
        Registry::global().drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_under_the_lock_leaves_the_registry_usable() {
        let reg = Registry::handle();
        reg.counter_add("held", 1.0);
        let holder = reg.clone();
        let died = std::thread::spawn(move || {
            let _state = holder.lock();
            panic!("a metrics caller panics holding the registry lock");
        })
        .join();
        assert!(died.is_err());
        assert!(reg.state.is_poisoned());
        reg.counter_add("held", 2.0);
        reg.observe("after", 5.0);
        assert_eq!(reg.counter("held"), 3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("held"), 3.0);
        assert_eq!(snap.histogram("after").map(|h| h.count), Some(1));
        assert!(reg.drain().get("counters").is_some());
    }

    #[test]
    fn counters_and_histograms_accumulate_and_drain() {
        // The facade is process-global; use test-unique names.
        MetricsRegistry::counter_add("test.metrics.queries", 1.0);
        MetricsRegistry::counter_add("test.metrics.queries", 2.0);
        MetricsRegistry::observe("test.metrics.io_s", 0.5);
        MetricsRegistry::observe("test.metrics.io_s", 3.0);
        MetricsRegistry::observe("test.metrics.io_s", 0.0);
        MetricsRegistry::gauge_set("test.metrics.depth", 7.0);
        MetricsRegistry::gauge_set("test.metrics.depth", 4.0);
        assert_eq!(MetricsRegistry::counter("test.metrics.queries"), 3.0);
        assert_eq!(MetricsRegistry::gauge("test.metrics.depth"), 4.0);
        let snap = MetricsRegistry::snapshot().to_json();
        let h = snap
            .get("histograms")
            .and_then(|h| h.get("test.metrics.io_s"))
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(h.get("sum").unwrap().as_f64(), Some(3.5));
        assert_eq!(h.get("max").unwrap().as_f64(), Some(3.0));
        let buckets = h.get("buckets").unwrap();
        assert_eq!(buckets.get("le_0").unwrap().as_f64(), Some(1.0));
        assert_eq!(buckets.get("p2_-1").unwrap().as_f64(), Some(1.0));
        assert_eq!(buckets.get("p2_1").unwrap().as_f64(), Some(1.0));
        let drained = MetricsRegistry::drain();
        assert!(drained
            .get("counters")
            .unwrap()
            .get("test.metrics.queries")
            .is_some());
        assert_eq!(MetricsRegistry::counter("test.metrics.queries"), 0.0);
        assert_eq!(MetricsRegistry::gauge("test.metrics.depth"), 0.0);
    }

    #[test]
    fn instances_are_isolated_from_the_global_facade() {
        let a = Registry::handle();
        let b = Registry::handle();
        a.counter_add("x", 1.0);
        b.counter_add("x", 10.0);
        MetricsRegistry::counter_add("test.metrics.isolated", 100.0);
        assert_eq!(a.counter("x"), 1.0);
        assert_eq!(b.counter("x"), 10.0);
        assert_eq!(a.counter("test.metrics.isolated"), 0.0);
        // Draining an instance leaves the others (and the global) alone.
        a.drain();
        assert_eq!(a.counter("x"), 0.0);
        assert_eq!(b.counter("x"), 10.0);
        assert_eq!(MetricsRegistry::counter("test.metrics.isolated"), 100.0);
        MetricsRegistry::drain();
    }

    /// Sorted-Vec nearest-rank oracle the quantile path is pinned against.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    #[test]
    fn small_population_quantiles_are_exact() {
        // Deterministic pseudo-random values via SplitMix64.
        let mut rng = rodb_types::SplitMix64::new(0x51ab);
        let mut h = Histogram::new();
        let mut values = Vec::new();
        for _ in 0..Histogram::SAMPLE_CAP {
            let v = rng.f64() * 100.0 - 10.0; // negatives included
            h.observe(v);
            values.push(v);
        }
        assert!(h.is_exact());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), oracle(&values, q), "q={q}");
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min(), oracle(&values, 0.0));
        assert_eq!(h.max(), oracle(&values, 1.0));
    }

    #[test]
    fn saturated_quantiles_upper_bound_the_oracle() {
        let mut rng = rodb_types::SplitMix64::new(99);
        let mut h = Histogram::new();
        let mut values = Vec::new();
        for _ in 0..(Histogram::SAMPLE_CAP * 4) {
            let v = rng.f64() * 1000.0 + 0.001;
            h.observe(v);
            values.push(v);
        }
        assert!(!h.is_exact());
        for q in [0.5, 0.95, 0.99] {
            let want = oracle(&values, q);
            let got = h.quantile(q);
            assert!(got >= want, "q={q}: bucket bound {got} < oracle {want}");
            assert!(
                got <= (want * 2.0).min(h.max()).max(want),
                "q={q}: bucket bound {got} > 2x oracle {want}"
            );
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn degenerate_histograms() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!((h.min(), h.max(), h.mean()), (0.0, 0.0, 0.0));
        let mut h = Histogram::new();
        h.observe(7.25);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 7.25);
        }
        // All-equal saturated population: bucket bound still clamps to max.
        let mut h = Histogram::new();
        for _ in 0..(Histogram::SAMPLE_CAP + 10) {
            h.observe(3.0);
        }
        assert_eq!(h.quantile(0.5), 3.0);
    }

    #[test]
    fn merge_matches_interleaved_observation() {
        let mut rng = rodb_types::SplitMix64::new(5);
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        let mut values = Vec::new();
        for i in 0..200 {
            let v = rng.f64() * 50.0;
            if i % 2 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
            all.observe(v);
            values.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        // Summation order differs between merge and interleave; allow ulps.
        assert!((a.sum() - all.sum()).abs() < 1e-9 * all.sum().abs());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert!(a.is_exact());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), oracle(&values, q));
        }
        // Merging into an empty histogram is a plain copy.
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }
}
