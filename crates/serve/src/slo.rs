//! Rolling-window SLO tracking for the serve path.
//!
//! The tracker watches two error budgets at once: a latency SLO (windowed
//! p99 against an operator-set target) and an availability SLO (the
//! fraction of recent requests that errored or were shed against an
//! allowed error budget). Both are computed over the *last N requests*,
//! not process lifetime, so a recovered server stops alerting once the
//! bad window ages out.
//!
//! Everything is published three ways from one source of truth:
//! `GET /slo` renders a deterministic JSON snapshot, the metrics
//! registry exports `serve.slo.*` gauges for Prometheus scrapes, and
//! every [`WATCH_FEED_EVERY`]-th request feeds the global
//! [`privim_obs::watch`] rule engine so burn-rate alert rules fire
//! mid-flight. When no tracker is installed the per-request cost is one
//! `OnceLock` load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use privim_obs::{Histogram, Ring, DEFAULT_BUCKETS};

/// Requests between watchdog feeds (power of two for a cheap mask).
pub const WATCH_FEED_EVERY: u64 = 32;

/// Operator-facing SLO targets.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Windowed p99 latency target, in milliseconds.
    pub target_p99_ms: f64,
    /// Window size in requests (latency quantiles and rates).
    pub window: usize,
    /// Allowed fraction of windowed requests that may error or shed
    /// before the error budget counts as fully burned.
    pub error_budget: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            target_p99_ms: 250.0,
            window: 512,
            error_budget: 0.01,
        }
    }
}

/// Outcome codes in the rolling window.
const OUTCOME_OK: u8 = 0;
const OUTCOME_ERROR: u8 = 1;
const OUTCOME_SHED: u8 = 2;

/// Fraction of the window's outcomes equal to `code` (0 when empty).
fn rate_of(outcomes: &Ring<u8>, code: u8) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let hits = outcomes.iter().filter(|&&c| c == code).count();
    hits as f64 / outcomes.len() as f64
}

/// Point-in-time view of the SLO state (all windowed values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSnapshot {
    /// Configured p99 target (ms).
    pub target_p99_ms: f64,
    /// Configured window (requests).
    pub window: usize,
    /// Configured error budget (fraction).
    pub error_budget: f64,
    /// Requests currently in the window (served + shed).
    pub requests_windowed: usize,
    /// Windowed p99 latency in ms (NaN until a request was served).
    pub p99_ms: f64,
    /// Windowed p999 latency in ms (NaN until a request was served).
    pub p999_ms: f64,
    /// Fraction of windowed requests answered with 5xx.
    pub error_rate: f64,
    /// Fraction of windowed arrivals shed (queue full / expired).
    pub shed_rate: f64,
    /// `(error_rate + shed_rate) / error_budget`: 1.0 means the whole
    /// windowed budget is burned.
    pub budget_burn: f64,
    /// `p99_ms <= target_p99_ms` (true while the window is empty).
    pub latency_ok: bool,
}

/// The tracker: a windowed latency histogram plus an outcome ring.
pub struct SloTracker {
    config: SloConfig,
    latency: Histogram,
    outcomes: Mutex<Ring<u8>>,
    total: AtomicU64,
}

impl SloTracker {
    /// A tracker over `config`'s window. Panics on a zero window or an
    /// error budget outside `(0, 1)`.
    pub fn new(config: SloConfig) -> SloTracker {
        assert!(config.window > 0, "SLO window must be positive");
        assert!(
            config.error_budget > 0.0 && config.error_budget < 1.0,
            "SLO error budget must be in (0, 1)"
        );
        SloTracker {
            config,
            latency: Histogram::with_buckets_windowed(&DEFAULT_BUCKETS, config.window),
            outcomes: Mutex::new(Ring::with_capacity(config.window)),
            total: AtomicU64::new(0),
        }
    }

    /// The configured targets.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Records one served request (any response written to the client).
    pub fn record_request(&self, latency_secs: f64, status: u16) {
        self.latency.record(latency_secs);
        let code = if status >= 500 {
            OUTCOME_ERROR
        } else {
            OUTCOME_OK
        };
        self.push_outcome(code);
    }

    /// Records one shed arrival (queue full, expired in queue, or
    /// draining): it consumed availability budget without being served,
    /// so it enters the window with no latency sample.
    pub fn record_shed(&self) {
        self.push_outcome(OUTCOME_SHED);
    }

    fn push_outcome(&self, code: u8) {
        {
            let mut ring = self
                .outcomes
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            ring.push(code);
        }
        let n = self.total.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(WATCH_FEED_EVERY) {
            self.publish(n);
        }
    }

    /// Total requests (served + shed) ever recorded.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The current windowed snapshot.
    pub fn snapshot(&self) -> SloSnapshot {
        let (error_rate, shed_rate, windowed) = {
            let ring = self
                .outcomes
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            (
                rate_of(&ring, OUTCOME_ERROR),
                rate_of(&ring, OUTCOME_SHED),
                ring.len(),
            )
        };
        let p99_ms = self.latency.window_quantile(0.99) * 1e3;
        let p999_ms = self.latency.window_quantile(0.999) * 1e3;
        SloSnapshot {
            target_p99_ms: self.config.target_p99_ms,
            window: self.config.window,
            error_budget: self.config.error_budget,
            requests_windowed: windowed,
            p99_ms,
            p999_ms,
            error_rate,
            shed_rate,
            budget_burn: (error_rate + shed_rate) / self.config.error_budget,
            latency_ok: p99_ms.is_nan() || p99_ms <= self.config.target_p99_ms,
        }
    }

    /// Publishes the snapshot as `serve.slo.*` gauges (Prometheus) and
    /// feeds the watchdog rule engine, using `tick` (the running request
    /// count) as the deterministic time axis.
    pub fn publish(&self, tick: u64) {
        let snap = self.snapshot();
        privim_obs::gauge("serve.slo.target_p99_ms").set(snap.target_p99_ms);
        if snap.p99_ms.is_finite() {
            privim_obs::gauge("serve.slo.p99_ms").set(snap.p99_ms);
            privim_obs::gauge("serve.slo.p999_ms").set(snap.p999_ms);
            privim_obs::watch::observe("serve.slo.p99_ms", tick, snap.p99_ms);
        }
        privim_obs::gauge("serve.slo.error_rate").set(snap.error_rate);
        privim_obs::gauge("serve.slo.shed_rate").set(snap.shed_rate);
        privim_obs::gauge("serve.slo.budget_burn").set(snap.budget_burn);
        privim_obs::watch::observe("serve.slo.budget_burn", tick, snap.budget_burn);
    }

    /// Deterministic JSON for `GET /slo` (sorted keys). NaN quantiles
    /// render as `null`.
    pub fn render_json(&self) -> String {
        let s = self.snapshot();
        privim_obs::json_object!(s; target_p99_ms, window, error_budget, requests_windowed, p99_ms,
            p999_ms, error_rate, shed_rate, budget_burn, latency_ok)
        .to_json()
    }
}

static SLO: OnceLock<Arc<SloTracker>> = OnceLock::new();

/// Installs the process-global tracker (first install wins). Returns
/// `false` when one was already installed.
pub fn install(tracker: Arc<SloTracker>) -> bool {
    SLO.set(tracker).is_ok()
}

/// The installed tracker, if any. One atomic load when disabled.
pub fn global() -> Option<&'static Arc<SloTracker>> {
    SLO.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(window: usize, budget: f64) -> SloTracker {
        SloTracker::new(SloConfig {
            target_p99_ms: 100.0,
            window,
            error_budget: budget,
        })
    }

    #[test]
    fn quantiles_and_rates_are_windowed() {
        let t = tracker(8, 0.25);
        // Fill the window with slow errors, then replace it entirely with
        // fast successes: the snapshot must forget the bad epoch.
        for _ in 0..8 {
            t.record_request(1.0, 500);
        }
        let bad = t.snapshot();
        assert_eq!(bad.requests_windowed, 8);
        assert_eq!(bad.error_rate, 1.0);
        assert!(bad.p99_ms >= 999.0, "{bad:?}");
        assert!(!bad.latency_ok);
        assert_eq!(bad.budget_burn, 4.0, "1.0 error rate / 0.25 budget");
        for _ in 0..8 {
            t.record_request(0.010, 200);
        }
        let good = t.snapshot();
        assert_eq!(good.error_rate, 0.0);
        assert_eq!(good.budget_burn, 0.0);
        assert!((good.p99_ms - 10.0).abs() < 1e-9, "{good:?}");
        assert!(good.latency_ok);
    }

    #[test]
    fn sheds_burn_the_availability_budget_without_latency_samples() {
        let t = tracker(4, 0.5);
        t.record_request(0.001, 200);
        t.record_shed();
        t.record_shed();
        t.record_request(0.001, 200);
        let s = t.snapshot();
        assert_eq!(s.requests_windowed, 4);
        assert_eq!(s.shed_rate, 0.5);
        assert_eq!(s.error_rate, 0.0);
        assert_eq!(s.budget_burn, 1.0);
        assert_eq!(t.total(), 4);
    }

    #[test]
    fn empty_tracker_renders_null_quantiles() {
        let t = tracker(4, 0.01);
        let s = t.snapshot();
        assert!(s.p99_ms.is_nan());
        assert!(s.latency_ok, "no data is not a latency violation");
        let json = t.render_json();
        assert!(json.contains("\"p99_ms\":null"), "{json}");
        assert!(json.contains("\"latency_ok\":true"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    #[test]
    fn render_json_is_deterministic() {
        let t = tracker(8, 0.125);
        for i in 0..6 {
            t.record_request(0.002 * (i + 1) as f64, 200);
        }
        assert_eq!(t.render_json(), t.render_json());
        assert!(t.render_json().contains("\"window\":8"));
    }
}
