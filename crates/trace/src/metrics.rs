//! In-memory metrics: counters, gauges, histograms, and span aggregates.
//!
//! The registry is thread-safe and cheap: counters are lock-free atomics
//! handed out as [`Counter`] handles; gauges, histogram observations and
//! span folds take one short mutex. Call sites on hot paths should guard
//! recording behind [`crate::metrics_enabled`], which is a single relaxed
//! atomic load when metrics are off.
//!
//! A span aggregate is a histogram of one span name's wall times in
//! microseconds, fed by every closing [`crate::Span`] while metrics are
//! on: the `--metrics` span table, OpenMetrics and registered snapshots
//! all read it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Histograms keep at most this many raw observations; beyond it new
/// samples overwrite pseudo-random slots so percentiles stay meaningful
/// without unbounded growth.
const HISTOGRAM_CAPACITY: usize = 1 << 16;

/// A lock-free counter handle (cloneable; all clones share the count).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct Histogram {
    values: Vec<f64>,
    /// Total observations ever, including ones evicted past capacity.
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram { values: Vec::new(), count: 0, min: f64::MAX, max: f64::MIN, sum: 0.0 }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        if self.values.len() < HISTOGRAM_CAPACITY {
            self.values.push(v);
        } else {
            // Cheap deterministic slot selection; keeps a representative
            // window without a RNG dependency.
            let slot = (self.count.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16) as usize
                % HISTOGRAM_CAPACITY;
            self.values[slot] = v;
        }
    }

    fn stats(&self) -> HistogramStats {
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |p: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = (p * (sorted.len() - 1) as f64).round() as usize;
            sorted[rank.min(sorted.len() - 1)]
        };
        HistogramStats {
            count: self.count,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: if self.count == 0 { 0.0 } else { self.sum / self.count as f64 },
            sum: self.sum,
            p50: pct(0.50),
            p95: pct(0.95),
        }
    }
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramStats {
    /// Total observations.
    pub count: u64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean over all observations.
    pub mean: f64,
    /// Sum of all observations.
    pub sum: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// A point-in-time copy of the whole registry, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → count.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last set value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → stats.
    pub histograms: Vec<(String, HistogramStats)>,
    /// Span name → stats of its wall times in microseconds.
    pub spans: Vec<(String, HistogramStats)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks up a span aggregate by name (wall times in microseconds).
    pub fn span(&self, name: &str) -> Option<&HistogramStats> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

/// The registry: named counters, gauges, histograms, and span aggregates.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The named counter, created on first use. The returned handle is
    /// lock-free; hold on to it on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock().expect("metrics poisoned");
        with_entry(&mut counters, name, Arc::default, |c| Counter(Arc::clone(c)))
    }

    /// The current values of the named counters (0 for one never ticked),
    /// read under one lock without copying the rest of the registry.
    pub fn counts<const N: usize>(&self, names: [&str; N]) -> [u64; N] {
        let counters = self.counters.lock().expect("metrics poisoned");
        names.map(|name| counters.get(name).map_or(0, |c| c.load(Ordering::Relaxed)))
    }

    /// Adds `n` to the named counter (convenience for cold paths).
    pub fn inc(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut gauges = self.gauges.lock().expect("metrics poisoned");
        with_entry(&mut gauges, name, || value, |g| *g = value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let mut histograms = self.histograms.lock().expect("metrics poisoned");
        with_entry(&mut histograms, name, Histogram::new, |h| h.observe(value));
    }

    /// Folds one closed span's wall time into its name's aggregate.
    pub fn observe_span(&self, name: &str, micros: u64) {
        let mut spans = self.spans.lock().expect("metrics poisoned");
        with_entry(&mut spans, name, Histogram::new, |h| h.observe(micros as f64));
    }

    /// Copies the current state, sorted by metric name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: stats_of(&self.histograms),
            spans: stats_of(&self.spans),
        }
    }

    /// Clears every metric (tests, repeated CLI invocations).
    pub fn reset(&self) {
        self.counters.lock().expect("metrics poisoned").clear();
        self.gauges.lock().expect("metrics poisoned").clear();
        self.histograms.lock().expect("metrics poisoned").clear();
        self.spans.lock().expect("metrics poisoned").clear();
    }
}

fn stats_of(histograms: &Mutex<BTreeMap<String, Histogram>>) -> Vec<(String, HistogramStats)> {
    let histograms = histograms.lock().expect("metrics poisoned");
    histograms.iter().map(|(k, v)| (k.clone(), v.stats())).collect()
}

/// Applies `f` to the entry for `name`, created with `make` on first use.
/// The lookup is by `&str`, so only a new name allocates its key.
fn with_entry<V, R>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    make: impl FnOnce() -> V,
    f: impl FnOnce(&mut V) -> R,
) -> R {
    if let Some(value) = map.get_mut(name) {
        return f(value);
    }
    f(map.entry(name.to_owned()).or_insert_with(make))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_counter_increments_from_multiple_threads() {
        let registry = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let counter = registry.counter("hits");
                    for _ in 0..per_thread {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(registry.snapshot().counter("hits"), Some(threads * per_thread));
    }

    #[test]
    fn counter_handles_share_state() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("n");
        let b = registry.counter("n");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(registry.snapshot().counter("n"), Some(4));
    }

    #[test]
    fn counts_read_named_counters_without_creating_any() {
        let registry = MetricsRegistry::new();
        registry.inc("a", 2);
        registry.inc("b", 5);
        registry.inc("b", 1);
        assert_eq!(registry.counts(["b", "missing", "a"]), [6, 0, 2]);
        assert_eq!(registry.snapshot().counter("missing"), None);
    }

    #[test]
    fn histogram_percentiles() {
        let registry = MetricsRegistry::new();
        for v in 1..=100 {
            registry.observe("latency", f64::from(v));
        }
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("latency").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert!((h.p50 - 50.0).abs() <= 1.0, "p50 {}", h.p50);
        assert!((h.p95 - 95.0).abs() <= 1.0, "p95 {}", h.p95);
    }

    #[test]
    fn histogram_capacity_keeps_totals_exact() {
        let registry = MetricsRegistry::new();
        let n = (HISTOGRAM_CAPACITY + 1000) as u64;
        for v in 0..n {
            registry.observe("big", v as f64);
        }
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("big").unwrap();
        assert_eq!(h.count, n);
        assert_eq!(h.max, (n - 1) as f64);
        assert_eq!(h.min, 0.0);
    }

    #[test]
    fn span_aggregates_keep_count_total_and_percentiles_apart_from_histograms() {
        let registry = MetricsRegistry::new();
        for micros in [100, 300, 200] {
            registry.observe_span("launcher.run", micros);
        }
        let snapshot = registry.snapshot();
        let run = snapshot.span("launcher.run").expect("aggregate");
        assert_eq!((run.count, run.sum, run.p50, run.max), (3, 600.0, 200.0, 300.0));
        assert!(snapshot.histograms.is_empty(), "{snapshot:?}");
    }

    #[test]
    fn gauges_keep_last_value() {
        let registry = MetricsRegistry::new();
        registry.gauge_set("ghz", 2.67);
        registry.gauge_set("ghz", 1.60);
        assert_eq!(registry.snapshot().gauge("ghz"), Some(1.60));
    }

    #[test]
    fn empty_histogram_stats_are_zero() {
        let h = Histogram::new();
        let s = h.stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.p95, 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let registry = MetricsRegistry::new();
        registry.inc("c", 1);
        registry.gauge_set("g", 1.0);
        registry.observe("h", 1.0);
        registry.observe_span("s", 1);
        registry.reset();
        assert!(registry.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let registry = MetricsRegistry::new();
        registry.inc("zebra", 1);
        registry.inc("alpha", 1);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zebra"]);
    }
}
