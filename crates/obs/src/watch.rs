//! The watchdog: declarative alert rules over live observations.
//!
//! A [`Watchdog`] holds a set of [`AlertRule`]s. Instrumented sites feed
//! it `(metric, tick, value)` observations — epoch numbers during
//! training, request counts while serving — and every observation
//! deterministically re-evaluates the rules watching that metric; an
//! observation of a metric no rule watches is dropped. Each rule keeps
//! its metric's last [`WATCH_SERIES_CAPACITY`] points in a [`Ring`], the
//! window a [`RuleKind::BurnRate`] rule takes its burn rate over. Rule
//! transitions are structured obs events (stamped with the active trace
//! like any other event), and the current rule states are exported as
//! `privim_alert_active{rule=…}` Prometheus series and an Alerts
//! section in the HTML report.
//!
//! The process-global instance follows the profiler's arming contract:
//! when disarmed, [`observe`] is one relaxed atomic load and an
//! immediate return, so always-on instrumentation sites cost nothing.
//! Evaluation never reads wall clocks or RNG, so a seeded run is
//! bit-identical with the watchdog armed — only the caller-provided
//! tick/value stream decides what fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::ring::Ring;

/// Points each rule keeps of its metric.
pub const WATCH_SERIES_CAPACITY: usize = 256;

/// What makes a rule breach.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Breaches while the observed value is beyond `limit`
    /// (`above = true` → breach when `value > limit`, else when
    /// `value < limit`).
    Threshold { limit: f64, above: bool },
    /// Budget burn for a cumulative signal: breaches once the value
    /// reaches `warn_fraction · budget`; the alert detail carries the
    /// projected ticks-to-exhaustion from the burn rate between the
    /// oldest and newest retained points.
    BurnRate { budget: f64, warn_fraction: f64 },
}

/// One declarative rule: watch `metric`, breach per `kind`, fire after
/// `sustain` consecutive breaching observations.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Unique rule name (the `rule` label in exports).
    pub name: String,
    /// Metric the rule watches.
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
    /// The watched metric's recent `(tick, value)` points.
    points: Ring<(u64, f64)>,
    breaching: u32,
    active: bool,
    value: f64,
    since_tick: u64,
    detail: String,
}

/// Rules plus the recent points they watch. Most callers use the
/// process global ([`arm`]/[`observe`]); tests can own one directly.
pub struct Watchdog {
    slots: Vec<RuleSlot>,
}

impl Watchdog {
    /// A watchdog evaluating `rules`, each over a fresh ring.
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
            slots: rules
                .into_iter()
                .map(|rule| RuleSlot {
                    rule,
                    points: Ring::with_capacity(WATCH_SERIES_CAPACITY),
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
    /// resolutions) it caused. A non-finite value, or a metric no rule
    /// watches, is dropped.
    pub fn observe(&mut self, metric: &str, tick: u64, value: f64) -> usize {
        if !value.is_finite() {
            return 0;
        }
        let mut transitions = 0;
        for slot in self.slots.iter_mut().filter(|s| s.rule.metric == metric) {
            slot.points.push((tick, value));
            let (breach, detail) = evaluate(&slot.rule.kind, &slot.points, value);
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
}

fn evaluate(kind: &RuleKind, points: &Ring<(u64, f64)>, value: f64) -> (bool, String) {
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
        RuleKind::BurnRate {
            budget,
            warn_fraction,
        } => {
            let breach = value >= warn_fraction * budget;
            let left = (budget - value).max(0.0);
            // Δvalue/Δtick from the oldest to the newest point.
            let rate = match (points.iter().next(), points.iter().next_back()) {
                (Some(&(t0, v0)), Some(&(t1, v1))) if t1 > t0 => Some((v1 - v0) / (t1 - t0) as f64),
                _ => None,
            };
            let ticks_left = rate.filter(|r| *r > 0.0).map(|r| left / r);
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
        let kept: Vec<usize> = dog.slots.iter().map(|s| s.points.len()).collect();
        assert_eq!(kept, vec![1, 0], "an unwatched metric stores nothing");
    }

    fn eps_budget() -> Watchdog {
        Watchdog::new(vec![AlertRule::new(
            "eps_budget",
            "dp.epsilon",
            RuleKind::BurnRate {
                budget: 4.0,
                warn_fraction: 0.5,
            },
        )])
    }

    #[test]
    fn a_non_finite_observation_leaves_the_burn_rate_window_unchanged() {
        let mut dog = eps_budget();
        assert_eq!(dog.observe("dp.epsilon", 0, f64::NAN), 0);
        dog.observe("dp.epsilon", 1, 1.0);
        assert_eq!(dog.observe("dp.epsilon", 2, f64::INFINITY), 0);
        assert_eq!(
            dog.slots[0].points.iter().copied().collect::<Vec<_>>(),
            vec![(1, 1.0)]
        );
        dog.observe("dp.epsilon", 3, 2.1);
        let a = &dog.alert_states()[0];
        assert!(
            a.detail.contains("projected exhaustion in 3.5 ticks"),
            "{}",
            a.detail
        );
    }

    #[test]
    fn two_points_on_one_tick_leave_the_burn_rate_unknown() {
        let mut dog = eps_budget();
        dog.observe("dp.epsilon", 5, 2.0);
        dog.observe("dp.epsilon", 5, 2.5);
        let a = &dog.alert_states()[0];
        assert!(a.active);
        assert!(a.detail.ends_with("; burn rate unknown"), "{}", a.detail);
    }

    #[test]
    #[should_panic(expected = "duplicate alert rule name")]
    fn duplicate_rule_names_are_rejected() {
        Watchdog::new(vec![
            AlertRule::new(
                "dup",
                "x",
                RuleKind::Threshold {
                    limit: 1.0,
                    above: true,
                },
            ),
            AlertRule::new(
                "dup",
                "y",
                RuleKind::Threshold {
                    limit: 1.0,
                    above: true,
                },
            ),
        ]);
    }
}
