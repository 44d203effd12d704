//! Typed metric instruments and the global registry.
//!
//! Counters, gauges, and fixed-bucket histograms, all lock-free on the
//! record path (plain atomics; floats via compare-exchange on the bit
//! pattern). Instruments are registered once by name in a process-global
//! registry and shared as `Arc`s; hot loops should look an instrument up
//! once and keep the `Arc`.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{JsonValue, ToJson};
use crate::ring::Ring;

/// A monotonically increasing integer.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float value.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` (atomic read-modify-write).
    pub fn add(&self, v: f64) {
        atomic_f64_update(&self.bits, |cur| cur + v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

fn atomic_f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Default histogram buckets: half-decade exponential from 1 µs-ish
/// quantities up to 10⁴, suitable for both seconds and losses.
pub const DEFAULT_BUCKETS: [f64; 22] = [
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 1e1, 5e1,
    1e2, 5e2, 1e3, 5e3, 1e4, 5e4,
];

/// A fixed-bucket histogram with count/sum/min/max tracking.
///
/// Bucket `i` counts samples `v <= bounds[i]` (first matching bound); one
/// implicit overflow bucket counts samples above the last bound.
/// Cumulative stats cover the histogram's whole lifetime; a histogram
/// built via [`Histogram::with_buckets_windowed`] additionally retains
/// the most recent samples in a ring for exact *rolling* quantiles
/// ([`Histogram::window_quantile`]) — the SLO tracker's view of "lately".
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// The most recent samples, for the sliding-window quantiles.
    window: Option<Mutex<Ring<f64>>>,
}

impl Histogram {
    /// A histogram over strictly increasing `bounds`.
    pub fn with_buckets(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            window: None,
        }
    }

    /// A histogram with [`DEFAULT_BUCKETS`].
    pub fn with_default_buckets() -> Self {
        Histogram::with_buckets(&DEFAULT_BUCKETS)
    }

    /// A histogram that also keeps the most recent `window` samples for
    /// exact sliding-window quantiles. The ring is reserved here;
    /// recording stays allocation-free (one short uncontended lock).
    pub fn with_buckets_windowed(bounds: &[f64], window: usize) -> Self {
        let mut h = Histogram::with_buckets(bounds);
        h.window = Some(Mutex::new(Ring::with_capacity(window)));
        h
    }

    /// Records one sample.
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |cur| cur + v);
        atomic_f64_update(&self.min_bits, |cur| cur.min(v));
        atomic_f64_update(&self.max_bits, |cur| cur.max(v));
        if let Some(window) = &self.window {
            window.lock().unwrap_or_else(|e| e.into_inner()).push(v);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of recorded samples (0.0 when empty, matching
    /// [`Histogram::summarize`]'s zeroed-summary convention).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum() / count as f64
    }

    /// Estimate of the `q`-quantile from the bucket counts: linearly
    /// interpolated within the bucket holding the `⌈q · count⌉`-th
    /// sample, with the bucket's range tightened to (and the result
    /// clamped to) the tracked exact min/max. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let count = self.count();
        if count == 0 {
            return f64::NAN;
        }
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Bucket i spans (bounds[i-1], bounds[i]]; every sample in
                // it also lies in [min, max], so intersect the two ranges
                // before interpolating on the rank within the bucket.
                let lo = if i == 0 {
                    self.min()
                } else {
                    self.bounds[i - 1].max(self.min())
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i].min(self.max())
                } else {
                    self.max()
                };
                let frac = (rank - seen) as f64 / n as f64;
                // frac == 1 must hit hi exactly (lo + (hi-lo)·1 can round
                // past it), so quantile(1.0) equals the observed max.
                let v = if frac >= 1.0 {
                    hi
                } else {
                    lo + (hi - lo) * frac
                };
                return v.clamp(self.min(), self.max());
            }
            seen += n;
        }
        self.max()
    }

    /// Exact `q`-quantile over the sliding window of recent samples
    /// (nearest-rank, matching [`Histogram::quantile`]'s `⌈q · n⌉`
    /// convention). NaN when no window was configured
    /// ([`Histogram::with_buckets_windowed`]) or no sample has been
    /// recorded yet. Samples older than the window capacity have been
    /// evicted and no longer influence the result.
    pub fn window_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let Some(window) = &self.window else {
            return f64::NAN;
        };
        let window = window.lock().unwrap_or_else(|e| e.into_inner());
        if window.is_empty() {
            return f64::NAN;
        }
        let mut sorted: Vec<f64> = window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// Samples currently retained in the sliding window (0 without one).
    pub fn window_len(&self) -> usize {
        self.window
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()).len())
            .unwrap_or(0)
    }

    /// Capacity of the sliding window, if one was configured.
    pub fn window_capacity(&self) -> Option<usize> {
        self.window
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()).capacity())
    }

    /// Smallest recorded sample (infinity when empty).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest recorded sample (-infinity when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Point-in-time summary.
    pub fn summarize(&self) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            count,
            sum: self.sum(),
            min: if count == 0 { 0.0 } else { self.min() },
            max: if count == 0 { 0.0 } else { self.max() },
            p50: if count == 0 { 0.0 } else { self.quantile(0.5) },
            p90: if count == 0 { 0.0 } else { self.quantile(0.9) },
            p99: if count == 0 { 0.0 } else { self.quantile(0.99) },
        }
    }
}

/// Serializable snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Median estimate (interpolated within the bucket).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// Point-in-time snapshot of every registered instrument.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl ToJson for HistogramSummary {
    fn to_json_value(&self) -> JsonValue {
        crate::json_object!(self; count, sum, min, max, p50, p90, p99)
    }
}

/// `{counters, gauges, histograms}`, each keyed by instrument name.
impl ToJson for MetricsSnapshot {
    fn to_json_value(&self) -> JsonValue {
        crate::json_object!(self; counters, gauges, histograms)
    }
}

impl MetricsSnapshot {
    /// True if no instrument recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// The instrument named `name` in `map`, made by `make` on first use.
/// Looking up an existing name allocates nothing, so hot loops may call
/// it per item.
fn instrument<T>(
    map: &Mutex<HashMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock().expect("metrics registry poisoned");
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

/// The thread-safe instrument registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        instrument(&self.counters, name, Counter::default)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        instrument(&self.gauges, name, Gauge::default)
    }

    /// The histogram named `name`, created with [`DEFAULT_BUCKETS`] on
    /// first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &DEFAULT_BUCKETS)
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (an existing histogram keeps its original buckets).
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        instrument(&self.histograms, name, || Histogram::with_buckets(bounds))
    }

    /// Snapshot of all instruments. Untouched instruments (zero counters,
    /// empty histograms) are included so dashboards see them exist.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.summarize()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Drops every instrument (used by tests and between bench runs).
    pub fn clear(&self) {
        self.counters
            .lock()
            .expect("counter registry poisoned")
            .clear();
        self.gauges.lock().expect("gauge registry poisoned").clear();
        self.histograms
            .lock()
            .expect("histogram registry poisoned")
            .clear();
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry.
pub fn global_registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("a");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a").get(), 5);
        let g = r.gauge("g");
        g.set(2.5);
        g.add(-1.0);
        assert!((r.gauge("g").get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_counter_increments_do_not_lose_updates() {
        let r = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    let c = r.counter("shared");
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), threads as u64 * per_thread);
    }

    #[test]
    fn concurrent_histogram_records_are_all_counted() {
        let h = Arc::new(Histogram::with_buckets(&[1.0, 2.0, 4.0]));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..5_000 {
                        h.record((t * 5_000 + i) as f64 / 10_000.0);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 20_000);
        let total: f64 = (0..20_000).map(|i| i as f64 / 10_000.0).sum();
        assert!((h.sum() - total).abs() < 1e-6, "{} vs {total}", h.sum());
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::with_buckets(&[1.0, 2.0, 4.0]);
        // On the boundary → that bucket; just above → next bucket.
        h.record(1.0); // bucket 0 (<= 1)
        h.record(1.000001); // bucket 1
        h.record(2.0); // bucket 1
        h.record(4.0); // bucket 2
        h.record(100.0); // overflow
        let counts: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        assert_eq!(counts, vec![1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn quantiles_interpolate_and_clamp_to_observed_range() {
        let h = Histogram::with_buckets(&[1.0, 10.0, 100.0]);
        for _ in 0..90 {
            h.record(0.5); // bucket 0
        }
        for _ in 0..10 {
            h.record(50.0); // bucket 2
        }
        // Bucket 0 tightens to [min, bounds[0]] = [0.5, 1.0]; ranks
        // interpolate within it instead of reporting the upper bound.
        assert!((h.quantile(0.5) - (0.5 + 0.5 * (50.0 / 90.0))).abs() < 1e-12);
        assert!((h.quantile(0.89) - (0.5 + 0.5 * (89.0 / 90.0))).abs() < 1e-12);
        // Bucket 2 tightens to [bounds[1], max] = [10, 50] (not 100).
        assert_eq!(h.quantile(0.95), 30.0);
        assert_eq!(h.quantile(1.0), 50.0);
        // NaN samples are ignored, not counted.
        h.record(f64::NAN);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn overflow_quantile_reports_observed_max() {
        let h = Histogram::with_buckets(&[1.0]);
        h.record(7.0);
        h.record(9.0);
        assert_eq!(h.quantile(1.0), 9.0);
        let s = h.summarize();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.p99, 9.0);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::with_default_buckets();
        let s = h.summarize();
        assert_eq!(s, HistogramSummary::default());
        assert!(h.quantile(0.5).is_nan());
        assert_eq!(h.mean(), 0.0, "empty mean must be 0, not 0/0");
    }

    #[test]
    fn concurrent_gauge_and_counter_adds_do_not_lose_updates() {
        let r = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 5_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    let g = r.gauge("stress_gauge");
                    let c = r.counter("stress_counter");
                    for i in 0..per_thread {
                        // Mix signs and magnitudes so torn CAS updates
                        // would show up as a wrong final sum.
                        let v = ((t * per_thread + i) % 7) as f64 - 3.0;
                        g.add(v);
                        c.add(2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected: f64 = (0..threads * per_thread)
            .map(|k| ((k % 7) as f64) - 3.0)
            .sum();
        assert!((r.gauge("stress_gauge").get() - expected).abs() < 1e-9);
        assert_eq!(
            r.counter("stress_counter").get(),
            (threads * per_thread) as u64 * 2
        );
    }

    #[test]
    fn quantile_is_monotone_in_q_and_bounded_by_min_max() {
        // Property test over a deterministic LCG sample stream.
        let h = Histogram::with_default_buckets();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 // uniform in [0, 1)
        };
        for _ in 0..2_000 {
            // Log-uniform-ish spread across several bucket decades.
            let v = 10f64.powf(lcg() * 6.0 - 3.0);
            h.record(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let v = h.quantile(q);
            assert!(
                v >= h.min() - 1e-12,
                "quantile({q}) = {v} below min {}",
                h.min()
            );
            assert!(
                v <= h.max() + 1e-12,
                "quantile({q}) = {v} above max {}",
                h.max()
            );
            assert!(
                v >= prev - 1e-12,
                "quantile not monotone at q={q}: {v} < {prev}"
            );
            prev = v;
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn snapshot_collects_everything_and_clear_resets() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(1.25);
        r.histogram("h").record(0.5);
        let s = r.snapshot();
        assert_eq!(s.counters.get("c"), Some(&3));
        assert_eq!(s.gauges.get("g"), Some(&1.25));
        assert_eq!(s.histograms.get("h").unwrap().count, 1);
        assert!(!s.is_empty());
        r.clear();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_buckets() {
        Histogram::with_buckets(&[1.0, 1.0]);
    }

    #[test]
    fn window_quantile_is_exact_and_expires_old_samples() {
        let h = Histogram::with_buckets_windowed(&DEFAULT_BUCKETS, 4);
        assert!(h.window_quantile(0.99).is_nan(), "empty window");
        assert_eq!(h.window_capacity(), Some(4));

        // Fill with slow samples…
        for _ in 0..4 {
            h.record(100.0);
        }
        assert_eq!(h.window_len(), 4);
        assert_eq!(h.window_quantile(0.99), 100.0);

        // …then four fast ones: the slow era must be fully evicted.
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.window_len(), 4, "window stays bounded");
        assert_eq!(h.window_quantile(0.99), 4.0, "old samples expired");
        assert_eq!(h.window_quantile(0.5), 2.0, "nearest rank: ⌈0.5·4⌉ = 2nd");
        assert_eq!(h.window_quantile(0.0), 1.0);
        assert_eq!(h.window_quantile(1.0), 4.0);
        // Cumulative stats still cover the whole lifetime.
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn window_quantile_is_monotone_in_q() {
        let h = Histogram::with_buckets_windowed(&DEFAULT_BUCKETS, 64);
        // Deterministic LCG stream, including values beyond the window.
        let mut x = 0x2545f491_4f6cdd1du64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record((x >> 40) as f64 / 100.0);
        }
        assert_eq!(h.window_len(), 64);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.window_quantile(q);
            assert!(v >= prev, "window quantile not monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    fn unwindowed_histogram_reports_no_window() {
        let h = Histogram::with_default_buckets();
        h.record(1.0);
        assert_eq!(h.window_len(), 0);
        assert_eq!(h.window_capacity(), None);
        assert!(h.window_quantile(0.5).is_nan());
    }
}
