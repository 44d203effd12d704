//! The watchdog: declarative alert rules over live time-series.
//!
//! A [`Watchdog`] owns a [`SeriesBoard`] and a set of [`AlertRule`]s.
//! Instrumented sites feed it `(metric, tick, value)` observations —
//! epoch numbers during training, request counts while serving — and
//! every observation deterministically re-evaluates the rules watching
//! that metric. Rule transitions are structured obs events (stamped
//! with the active trace like any other event), and the current
//! rule states are exported as `privim_alert_active{rule=…}` Prometheus
//! series and an Alerts section in the HTML report.
//!
//! The process-global instance follows the profiler's arming contract:
//! when disarmed, [`observe`] is one relaxed atomic load and an
//! immediate return, so always-on instrumentation sites cost nothing.
//! Evaluation never reads wall clocks or RNG, so a seeded run is
//! bit-identical with the watchdog armed — only the caller-provided
//! tick/value stream decides what fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::timeseries::{SeriesBoard, TimeSeries, TimeSeriesSnapshot};

/// Capacity of each watchdog series ring.
pub const WATCH_SERIES_CAPACITY: usize = 256;

/// What makes a rule breach.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Breaches while the observed value is beyond `limit`
    /// (`above = true` → breach when `value > limit`, else when
    /// `value < limit`).
    Threshold { limit: f64, above: bool },
    /// Breaches when the observed value deviates from the series'
    /// EWMA (as it stood *before* this observation) by more than
    /// `tolerance`, relative to the EWMA's magnitude.
    Drift { tolerance: f64 },
    /// Budget burn for a cumulative signal: breaches once the value
    /// reaches `warn_fraction · budget`; the alert detail carries the
    /// projected ticks-to-exhaustion from the windowed burn rate.
    BurnRate { budget: f64, warn_fraction: f64 },
}

/// One declarative rule: watch `metric`, breach per `kind`, fire after
/// `sustain` consecutive breaching observations.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Unique rule name (the `rule` label in exports).
    pub name: String,
    /// Series the rule watches.
    pub metric: String,
    /// Breach condition.
    pub kind: RuleKind,
    /// Consecutive breaching observations required before the alert
    /// activates (≥ 1; debounces flapping signals).
    pub sustain: u32,
}

impl AlertRule {
    /// A rule firing on the first breaching observation.
    pub fn new(name: &str, metric: &str, kind: RuleKind) -> AlertRule {
        AlertRule {
            name: name.to_string(),
            metric: metric.to_string(),
            kind,
            sustain: 1,
        }
    }

    /// Requires `sustain` consecutive breaches before firing.
    pub fn sustained(mut self, sustain: u32) -> AlertRule {
        assert!(sustain >= 1, "sustain must be at least 1");
        self.sustain = sustain;
        self
    }
}

/// Exported state of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertState {
    /// Rule name.
    pub rule: String,
    /// Watched metric.
    pub metric: String,
    /// True while firing.
    pub active: bool,
    /// Most recent observed value (NaN before the first observation).
    pub value: f64,
    /// Tick of the observation that activated the alert (0 if never
    /// activated).
    pub since_tick: u64,
    /// Human-readable breach description, stable across renders.
    pub detail: String,
}

struct RuleSlot {
    rule: AlertRule,
    breaching: u32,
    active: bool,
    value: f64,
    since_tick: u64,
    detail: String,
}

/// Rules plus the series they watch. Most callers use the process
/// global ([`arm`]/[`observe`]); tests can own one directly.
pub struct Watchdog {
    board: SeriesBoard,
    slots: Vec<RuleSlot>,
}

impl Watchdog {
    /// A watchdog evaluating `rules` over fresh series rings.
    pub fn new(rules: Vec<AlertRule>) -> Watchdog {
        let mut seen: Vec<&str> = Vec::new();
        for r in &rules {
            assert!(
                !seen.contains(&r.name.as_str()),
                "duplicate alert rule name {:?}",
                r.name
            );
            seen.push(&r.name);
        }
        Watchdog {
            board: SeriesBoard::new(WATCH_SERIES_CAPACITY),
            slots: rules
                .into_iter()
                .map(|rule| RuleSlot {
                    rule,
                    breaching: 0,
                    active: false,
                    value: f64::NAN,
                    since_tick: 0,
                    detail: String::new(),
                })
                .collect(),
        }
    }

    /// Feeds one observation and re-evaluates every rule watching
    /// `metric`. Returns the number of rule transitions (activations +
    /// resolutions) it caused.
    pub fn observe(&mut self, metric: &str, tick: u64, value: f64) -> usize {
        if !value.is_finite() {
            return 0;
        }
        // Drift compares against the EWMA as of *before* this point.
        let prior_ewma = self.board.with_series(metric, |s| s.ewma()).flatten();
        self.board.observe(metric, tick, value);
        let mut transitions = 0;
        for slot in self.slots.iter_mut().filter(|s| s.rule.metric == metric) {
            let (breach, detail) =
                evaluate(&slot.rule.kind, &self.board, metric, value, prior_ewma);
            slot.value = value;
            slot.breaching = if breach { slot.breaching + 1 } else { 0 };
            let fire = slot.breaching >= slot.rule.sustain;
            if fire {
                slot.detail = detail;
            }
            if fire && !slot.active {
                slot.active = true;
                slot.since_tick = tick;
                transitions += 1;
                crate::warn!(
                    "watch",
                    "alert",
                    rule = slot.rule.name.as_str(),
                    metric = metric,
                    tick = tick,
                    value = value,
                    detail = slot.detail.as_str(),
                );
            } else if !fire && slot.active {
                slot.active = false;
                transitions += 1;
                crate::info!(
                    "watch",
                    "alert_resolved",
                    rule = slot.rule.name.as_str(),
                    metric = metric,
                    tick = tick,
                    value = value,
                );
            }
        }
        transitions
    }

    /// Every rule's current state, sorted by rule name.
    pub fn alert_states(&self) -> Vec<AlertState> {
        let mut out: Vec<AlertState> = self
            .slots
            .iter()
            .map(|s| AlertState {
                rule: s.rule.name.clone(),
                metric: s.rule.metric.clone(),
                active: s.active,
                value: s.value,
                since_tick: s.since_tick,
                detail: s.detail.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.rule.cmp(&b.rule));
        out
    }

    /// Snapshot of every watched series, sorted by name.
    pub fn series(&self) -> Vec<(String, TimeSeriesSnapshot)> {
        self.board.snapshot()
    }
}

fn evaluate(
    kind: &RuleKind,
    board: &SeriesBoard,
    metric: &str,
    value: f64,
    prior_ewma: Option<f64>,
) -> (bool, String) {
    match kind {
        RuleKind::Threshold { limit, above } => {
            let breach = if *above {
                value > *limit
            } else {
                value < *limit
            };
            let dir = if *above { ">" } else { "<" };
            (breach, format!("value {value:.6} {dir} limit {limit:.6}"))
        }
        RuleKind::Drift { tolerance } => match prior_ewma {
            Some(ewma) => {
                let scale = ewma.abs().max(1e-12);
                let drift = (value - ewma).abs() / scale;
                (
                    drift > *tolerance,
                    format!("drift {drift:.6} vs ewma {ewma:.6} (tolerance {tolerance:.6})"),
                )
            }
            None => (false, String::new()),
        },
        RuleKind::BurnRate {
            budget,
            warn_fraction,
        } => {
            let breach = value >= warn_fraction * budget;
            let left = (budget - value).max(0.0);
            let ticks_left = board
                .with_series(metric, |s: &TimeSeries| s.rate(WATCH_SERIES_CAPACITY))
                .flatten()
                .filter(|r| *r > 0.0)
                .map(|r| left / r);
            let projection = match ticks_left {
                Some(t) => format!("projected exhaustion in {t:.1} ticks"),
                None => "burn rate unknown".to_string(),
            };
            (
                breach,
                format!(
                    "spent {value:.6} of budget {budget:.6} (warn at {:.6}); {projection}",
                    warn_fraction * budget
                ),
            )
        }
    }
}

static WATCH_ARMED: AtomicBool = AtomicBool::new(false);
static WATCHDOG: Mutex<Option<Watchdog>> = Mutex::new(None);

/// Installs `rules` as the process watchdog and arms it.
pub fn arm(rules: Vec<AlertRule>) {
    let dog = Watchdog::new(rules);
    *WATCHDOG.lock().unwrap_or_else(|e| e.into_inner()) = Some(dog);
    WATCH_ARMED.store(true, Ordering::Relaxed);
}

/// Disarms and drops the process watchdog.
pub fn disarm() {
    WATCH_ARMED.store(false, Ordering::Relaxed);
    *WATCHDOG.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Feeds the process watchdog, if armed. Disarmed cost: one relaxed
/// atomic load.
pub fn observe(metric: &str, tick: u64, value: f64) {
    if !WATCH_ARMED.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = WATCHDOG.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(dog) = guard.as_mut() {
        dog.observe(metric, tick, value);
    }
}

/// Every rule state of the process watchdog (empty when disarmed),
/// sorted by rule name. Read by the Prometheus exporter
/// (`privim_alert_active{rule=…}`) and the HTML report.
pub fn alert_states() -> Vec<AlertState> {
    let guard = WATCHDOG.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|d| d.alert_states()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn states(dog: &Watchdog) -> Vec<(String, bool)> {
        dog.alert_states()
            .into_iter()
            .map(|a| (a.rule, a.active))
            .collect()
    }

    #[test]
    fn threshold_rule_fires_and_resolves() {
        let mut dog = Watchdog::new(vec![AlertRule::new(
            "high_loss",
            "train.loss",
            RuleKind::Threshold {
                limit: 1.0,
                above: true,
            },
        )]);
        assert_eq!(dog.observe("train.loss", 0, 0.5), 0);
        assert_eq!(states(&dog), vec![("high_loss".to_string(), false)]);
        assert_eq!(dog.observe("train.loss", 1, 1.5), 1, "activation");
        assert!(dog.alert_states()[0].active);
        assert_eq!(dog.alert_states()[0].since_tick, 1);
        assert!(dog.alert_states()[0].detail.contains("limit 1.0"));
        assert_eq!(dog.observe("train.loss", 2, 1.7), 0, "still active");
        assert_eq!(dog.observe("train.loss", 3, 0.9), 1, "resolution");
        assert!(!dog.alert_states()[0].active);
    }

    #[test]
    fn sustain_debounces_single_spikes() {
        let mut dog = Watchdog::new(vec![AlertRule::new(
            "spiky",
            "m",
            RuleKind::Threshold {
                limit: 10.0,
                above: true,
            },
        )
        .sustained(3)]);
        dog.observe("m", 0, 11.0);
        dog.observe("m", 1, 12.0);
        assert!(!dog.alert_states()[0].active, "two breaches < sustain 3");
        dog.observe("m", 2, 5.0);
        dog.observe("m", 3, 11.0);
        dog.observe("m", 4, 11.0);
        assert!(!dog.alert_states()[0].active, "reset on recovery");
        dog.observe("m", 5, 11.0);
        assert!(dog.alert_states()[0].active, "three in a row fires");
    }

    #[test]
    fn drift_rule_compares_against_prior_ewma() {
        let mut dog = Watchdog::new(vec![AlertRule::new(
            "loss_drift",
            "loss",
            RuleKind::Drift { tolerance: 0.5 },
        )]);
        // First point: no prior EWMA, cannot drift.
        assert_eq!(dog.observe("loss", 0, 1.0), 0);
        // Within 50% of EWMA(=1.0): fine.
        assert_eq!(dog.observe("loss", 1, 1.3), 0);
        // Far beyond the smoothed level: fires.
        assert_eq!(dog.observe("loss", 2, 5.0), 1);
        assert!(dog.alert_states()[0].active);
    }

    #[test]
    fn burn_rate_rule_projects_exhaustion() {
        let mut dog = Watchdog::new(vec![AlertRule::new(
            "eps_budget",
            "dp.epsilon",
            RuleKind::BurnRate {
                budget: 4.0,
                warn_fraction: 0.5,
            },
        )]);
        dog.observe("dp.epsilon", 1, 1.0);
        assert!(!dog.alert_states()[0].active);
        dog.observe("dp.epsilon", 2, 2.1);
        let a = &dog.alert_states()[0];
        assert!(a.active, "2.1 >= 0.5 * 4.0");
        // Burn rate ≈ 1.1/tick, 1.9 left → ≈ 1.7 ticks.
        assert!(
            a.detail.contains("projected exhaustion in 1.7 ticks"),
            "{}",
            a.detail
        );
    }

    #[test]
    fn observations_only_touch_matching_rules() {
        let mut dog = Watchdog::new(vec![
            AlertRule::new(
                "a",
                "x",
                RuleKind::Threshold {
                    limit: 0.0,
                    above: true,
                },
            ),
            AlertRule::new(
                "b",
                "y",
                RuleKind::Threshold {
                    limit: 0.0,
                    above: true,
                },
            ),
        ]);
        assert_eq!(dog.observe("x", 0, 1.0), 1);
        assert_eq!(
            states(&dog),
            vec![("a".to_string(), true), ("b".to_string(), false)]
        );
        assert_eq!(dog.observe("unwatched", 0, 99.0), 0);
        assert_eq!(dog.series().len(), 2, "unmatched metrics are still kept");
    }

    #[test]
    #[should_panic(expected = "duplicate alert rule name")]
    fn duplicate_rule_names_are_rejected() {
        Watchdog::new(vec![
            AlertRule::new("dup", "x", RuleKind::Drift { tolerance: 1.0 }),
            AlertRule::new("dup", "y", RuleKind::Drift { tolerance: 1.0 }),
        ]);
    }
}
