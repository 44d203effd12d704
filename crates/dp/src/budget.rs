//! The live ε budget guard over the [`PrivacyLedger`].
//!
//! The ledger is append-only forensics: it proves, after the fact, what
//! a run spent. [`BudgetGuard`] turns the same accountant arithmetic
//! into a *pre-step* gate: before every noisy step it projects the
//! cumulative ε the step would commit — by cloning the ledger's
//! accountant state and composing exactly one more iteration, which is
//! bit-for-bit the number [`PrivacyLedger::record_step`] would record
//! (`γ += 1.0 · γ_step` is exact in IEEE 754) — and refuses the step if
//! that projection exceeds the budget. The refusal is therefore
//! deterministic and exact: a run halts at the same step with the same
//! logged ε on every replay, and a resumed run under the same budget
//! refuses before taking any further step.
//!
//! The guard itself never mutates the ledger and never draws
//! randomness, so arming it leaves seeded runs bit-identical.

use crate::ledger::PrivacyLedger;
use crate::rdp::SubsampledConfig;

/// Default fraction of the budget at which [`BudgetGuard`] emits its
/// one-shot warning.
pub const DEFAULT_WARN_FRACTION: f64 = 0.8;

/// Upper bound on the steps-to-exhaustion projection (beyond this the
/// budget is effectively unconstrained for the run at hand).
const MAX_PROJECTED_STEPS: u64 = 100_000;

/// Verdict for the next prospective noisy step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetDecision {
    /// The step fits: taking it reaches `projected ≤ budget`.
    Proceed {
        /// Cumulative ε after the prospective step.
        projected: f64,
    },
    /// The step fits but crosses the warning fraction. Returned at most
    /// once per guard; subsequent fitting steps are `Proceed`.
    Warn {
        /// Cumulative ε after the prospective step.
        projected: f64,
        /// Exact further steps (beyond this one) before the guard halts.
        steps_remaining: u64,
    },
    /// Taking the step would overspend: the run must halt *now*, with
    /// `spent` (the accountant-exact ε already committed) untouched.
    Halt {
        /// Cumulative ε committed so far (exact; 0.0 for an empty ledger).
        spent: f64,
        /// Cumulative ε the refused step would have reached.
        projected: f64,
    },
}

/// A hard ε ceiling enforced before every noisy step.
#[derive(Debug, Clone)]
pub struct BudgetGuard {
    budget: f64,
    warn_fraction: f64,
    warned: bool,
}

impl BudgetGuard {
    /// A guard halting any step that would push the cumulative ε above
    /// `budget`, warning once past [`DEFAULT_WARN_FRACTION`] of it.
    pub fn new(budget: f64) -> BudgetGuard {
        BudgetGuard::with_warn_fraction(budget, DEFAULT_WARN_FRACTION)
    }

    /// A guard with an explicit warning fraction in `(0, 1]`.
    pub fn with_warn_fraction(budget: f64, warn_fraction: f64) -> BudgetGuard {
        assert!(
            budget.is_finite() && budget > 0.0,
            "epsilon budget must be positive and finite"
        );
        assert!(
            warn_fraction > 0.0 && warn_fraction <= 1.0,
            "warn fraction must be in (0, 1]"
        );
        BudgetGuard {
            budget,
            warn_fraction,
            warned: false,
        }
    }

    /// The enforced ceiling.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The one-shot warning fraction.
    pub fn warn_fraction(&self) -> f64 {
        self.warn_fraction
    }

    /// The cumulative ε the ledger would report after one more
    /// subsampled-Gaussian step at `(sigma, config)` — exactly the value
    /// [`PrivacyLedger::record_step`] would append. Does not mutate the
    /// ledger.
    pub fn project_next(ledger: &PrivacyLedger, sigma: f64, config: &SubsampledConfig) -> f64 {
        let mut acct = ledger.accountant().clone();
        acct.compose_subsampled_gaussian(sigma, config, 1);
        acct.epsilon(ledger.delta()).0
    }

    /// Exact number of further steps at `(sigma, config)` the budget
    /// still admits, by simulating composition forward (capped at
    /// `MAX_PROJECTED_STEPS`). 0 means the very next step must halt.
    pub fn steps_remaining(
        &self,
        ledger: &PrivacyLedger,
        sigma: f64,
        config: &SubsampledConfig,
    ) -> u64 {
        let mut acct = ledger.accountant().clone();
        let delta = ledger.delta();
        for taken in 0..MAX_PROJECTED_STEPS {
            acct.compose_subsampled_gaussian(sigma, config, 1);
            if acct.epsilon(delta).0 > self.budget {
                return taken;
            }
        }
        MAX_PROJECTED_STEPS
    }

    /// Gate for the next prospective noisy step. Call *before* sampling
    /// noise or mutating any state; on [`BudgetDecision::Halt`] the step
    /// must not be taken.
    pub fn check_next_step(
        &mut self,
        ledger: &PrivacyLedger,
        sigma: f64,
        config: &SubsampledConfig,
    ) -> BudgetDecision {
        let projected = BudgetGuard::project_next(ledger, sigma, config);
        if projected > self.budget {
            return BudgetDecision::Halt {
                spent: ledger.cumulative_epsilon().unwrap_or(0.0),
                projected,
            };
        }
        if !self.warned && projected >= self.warn_fraction * self.budget {
            self.warned = true;
            // steps_remaining counts from the current ledger state, which
            // still includes the step being approved here — exclude it.
            return BudgetDecision::Warn {
                projected,
                steps_remaining: self
                    .steps_remaining(ledger, sigma, config)
                    .saturating_sub(1),
            };
        }
        BudgetDecision::Proceed { projected }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SubsampledConfig {
        SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        }
    }

    const SIGMA: f64 = 1.5;
    const DELTA: f64 = 1e-5;

    /// ε after each of `steps` recorded steps on a fresh ledger.
    fn epsilon_trace(steps: usize) -> Vec<f64> {
        let mut ledger = PrivacyLedger::new(DELTA);
        (0..steps)
            .map(|_| ledger.record_step(SIGMA, 1.0, &config()).0)
            .collect()
    }

    #[test]
    fn projection_is_bit_identical_to_recording_the_step() {
        let mut ledger = PrivacyLedger::new(DELTA);
        for _ in 0..7 {
            let projected = BudgetGuard::project_next(&ledger, SIGMA, &config());
            let (recorded, _) = ledger.record_step(SIGMA, 1.0, &config());
            assert_eq!(
                projected.to_bits(),
                recorded.to_bits(),
                "projection must equal the recorded ε bit-for-bit"
            );
        }
    }

    #[test]
    fn guard_halts_exactly_before_the_first_overspending_step() {
        let trace = epsilon_trace(10);
        // Budget strictly between ε after 6 and ε after 7 steps.
        let budget = 0.5 * (trace[5] + trace[6]);
        let mut guard = BudgetGuard::new(budget);
        let mut ledger = PrivacyLedger::new(DELTA);
        let mut steps_taken = 0usize;
        loop {
            match guard.check_next_step(&ledger, SIGMA, &config()) {
                BudgetDecision::Halt { spent, projected } => {
                    assert_eq!(steps_taken, 6, "halt before the 7th step");
                    assert_eq!(spent.to_bits(), trace[5].to_bits(), "spent ε is exact");
                    assert_eq!(
                        projected.to_bits(),
                        trace[6].to_bits(),
                        "refused step's ε is exact"
                    );
                    break;
                }
                BudgetDecision::Proceed { projected } | BudgetDecision::Warn { projected, .. } => {
                    let (eps, _) = ledger.record_step(SIGMA, 1.0, &config());
                    assert_eq!(projected.to_bits(), eps.to_bits());
                    steps_taken += 1;
                    assert!(steps_taken <= 10, "guard never halted");
                }
            }
        }
        // The same budget against the same ledger keeps refusing: a
        // resumed run takes zero further steps.
        let mut resumed = BudgetGuard::new(budget);
        assert!(matches!(
            resumed.check_next_step(&ledger, SIGMA, &config()),
            BudgetDecision::Halt { .. }
        ));
    }

    #[test]
    fn budget_at_or_above_final_epsilon_never_halts() {
        let trace = epsilon_trace(5);
        let mut guard = BudgetGuard::new(*trace.last().unwrap());
        let mut ledger = PrivacyLedger::new(DELTA);
        for _ in 0..5 {
            assert!(!matches!(
                guard.check_next_step(&ledger, SIGMA, &config()),
                BudgetDecision::Halt { .. }
            ));
            ledger.record_step(SIGMA, 1.0, &config());
        }
        // The budget is spent to the last bit; one more step must halt.
        assert!(matches!(
            guard.check_next_step(&ledger, SIGMA, &config()),
            BudgetDecision::Halt { .. }
        ));
    }

    #[test]
    fn warning_fires_once_at_the_configured_fraction() {
        let trace = epsilon_trace(10);
        let budget = trace[9] * 1.0000001; // all 10 steps fit
        let mut guard = BudgetGuard::with_warn_fraction(budget, 0.5);
        let mut ledger = PrivacyLedger::new(DELTA);
        let mut warned_at = None;
        for step in 0..10 {
            match guard.check_next_step(&ledger, SIGMA, &config()) {
                BudgetDecision::Warn {
                    projected,
                    steps_remaining,
                } => {
                    assert!(warned_at.is_none(), "warning must be one-shot");
                    assert!(projected >= 0.5 * budget);
                    warned_at = Some(step);
                    // After this step, exactly 10 - (step + 1) more fit.
                    assert_eq!(steps_remaining, (10 - step - 1) as u64);
                }
                BudgetDecision::Proceed { projected } => {
                    if warned_at.is_none() {
                        assert!(projected < 0.5 * budget);
                    }
                }
                BudgetDecision::Halt { .. } => panic!("budget fits all steps"),
            }
            ledger.record_step(SIGMA, 1.0, &config());
        }
        let at = warned_at.expect("crossing 50% must warn");
        assert!(trace[at] >= 0.5 * budget && (at == 0 || trace[at - 1] < 0.5 * budget));
    }

    #[test]
    fn steps_remaining_matches_step_by_step_composition() {
        let trace = epsilon_trace(20);
        let budget = 0.5 * (trace[12] + trace[13]); // 13 steps fit
        let guard = BudgetGuard::new(budget);
        let ledger = PrivacyLedger::new(DELTA);
        assert_eq!(guard.steps_remaining(&ledger, SIGMA, &config()), 13);
        // After committing 5 steps, 8 remain.
        let mut spent = PrivacyLedger::new(DELTA);
        for _ in 0..5 {
            spent.record_step(SIGMA, 1.0, &config());
        }
        assert_eq!(guard.steps_remaining(&spent, SIGMA, &config()), 8);
    }

    #[test]
    #[should_panic(expected = "epsilon budget must be positive")]
    fn rejects_nonpositive_budget() {
        BudgetGuard::new(0.0);
    }
}
