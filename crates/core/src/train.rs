//! Algorithm 2: differentially private GNN training.
//!
//! Treats each subgraph as one sample: per-subgraph gradients are clipped
//! to l2 norm `C`, summed over the batch, perturbed with Gaussian noise of
//! standard deviation `σ · Δ_g` (`Δ_g = C · N_g`, Lemma 2), and applied
//! with learning rate `η / B`. The same loop also serves the baselines,
//! with noise disabled for the non-private reference.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use rand::seq::SliceRandom;
use rand::Rng;

use privim_dp::budget::{BudgetDecision, BudgetGuard};
use privim_dp::ledger::PrivacyLedger;
use privim_dp::mechanisms::gaussian;
use privim_dp::rdp::{calibrate_sigma, RdpAccountant, SubsampledConfig};
use privim_nn::models::GnnModel;
use privim_nn::optim::{Optimizer, OptimizerSnapshot, Sgd};
use privim_nn::par;
use privim_nn::params::GradVec;
use privim_nn::tape::Tape;

use crate::config::{LossKind, PrivImConfig};
use crate::container::{SubgraphContainer, SubgraphSample};
use crate::loss::{im_loss, lt_loss};
use crate::resume::{BudgetHalt, Cadence, ResumeError};

/// Which noise the private training loop injects: Gaussian, the one
/// mechanism Theorem 3 accounts for, for every private method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseKind {
    /// Gaussian noise (Algorithm 2).
    Gaussian,
}

/// Privacy setup for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacySetup {
    /// Calibrated noise multiplier σ.
    pub sigma: f64,
    /// Occurrence bound `N_g` used for the sensitivity `Δ_g = C · N_g`.
    pub max_occurrences: usize,
    /// The ε the calibration targeted.
    pub target_epsilon: f64,
    /// The δ used.
    pub delta: f64,
}

impl PrivacySetup {
    /// Calibrates σ for `(epsilon, delta)` over the run described by
    /// `config` and the container size `m` (Theorem 3 + Theorem 1).
    /// `NoiseKind::Gaussian` is the only noise family.
    pub fn calibrate(
        epsilon: f64,
        delta: f64,
        config: &PrivImConfig,
        container_size: usize,
        max_occurrences: usize,
        _noise: NoiseKind,
    ) -> Self {
        let sub = SubsampledConfig {
            max_occurrences: max_occurrences.max(1),
            batch_size: config.batch_size.min(container_size.max(1)),
            container_size: container_size.max(1),
        };
        let sigma = calibrate_sigma(epsilon, delta, &sub, config.iterations);
        PrivacySetup {
            sigma,
            max_occurrences: sub.max_occurrences,
            target_epsilon: epsilon,
            delta,
        }
    }

    /// Absolute per-coordinate noise standard deviation `σ · C · N_g`.
    pub fn noise_std(&self, clip_bound: f64) -> f64 {
        self.sigma * clip_bound * self.max_occurrences as f64
    }

    /// The `(ε, α)` actually spent by `iterations` steps at this σ.
    pub fn spent_epsilon(&self, config: &PrivImConfig, container_size: usize) -> (f64, f64) {
        let sub = self.subsampled_config(config, container_size);
        let mut acct = RdpAccountant::default();
        acct.compose_subsampled_gaussian(self.sigma, &sub, config.iterations);
        acct.epsilon(self.delta)
    }

    pub(crate) fn subsampled_config(
        &self,
        config: &PrivImConfig,
        container_size: usize,
    ) -> SubsampledConfig {
        SubsampledConfig {
            max_occurrences: self.max_occurrences,
            batch_size: config.batch_size.min(container_size.max(1)),
            container_size: container_size.max(1),
        }
    }
}

/// Why a training run aborted.
#[derive(Debug)]
pub enum TrainError {
    /// `max_bad_steps` consecutive steps produced a non-finite loss or
    /// gradient; the run has diverged beyond recovery.
    NonFiniteDivergence {
        /// Iteration index (0-based) of the last bad step.
        step: usize,
        /// Length of the non-finite streak.
        consecutive: usize,
    },
    /// An armed fault fired (fault-injection harness; never occurs in
    /// production where no [`privim_obs::FaultPlan`] is installed).
    Fault(privim_obs::FaultSignal),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFiniteDivergence { step, consecutive } => write!(
                f,
                "training diverged: {consecutive} consecutive non-finite steps ending at \
                 iteration {step}"
            ),
            TrainError::Fault(signal) => write!(f, "{signal}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<privim_obs::FaultSignal> for TrainError {
    fn from(signal: privim_obs::FaultSignal) -> Self {
        TrainError::Fault(signal)
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean batch loss per iteration.
    pub losses: Vec<f64>,
    /// Per-iteration fraction of subgraph gradients whose l2 norm hit the
    /// clip bound `C` (empty for non-private runs, which never clip).
    pub clip_fractions: Vec<f64>,
    /// Wall-clock seconds spent in the training loop.
    pub training_secs: f64,
    /// σ used (None for non-private runs).
    pub sigma: Option<f64>,
    /// The exact privacy ledger, one entry per noisy step (None for
    /// non-private runs).
    pub ledger: Option<PrivacyLedger>,
    /// The optimizer's final state.
    pub optimizer: OptimizerSnapshot,
}

/// Outcome of one [`dp_step`] invocation.
pub(crate) struct StepStats {
    /// Mean batch loss (may be non-finite when `skipped`).
    pub mean_loss: f64,
    /// Fraction of per-subgraph gradients that hit the clip bound.
    pub clip_fraction: f64,
    /// Mean pre-clip gradient l2 norm across the batch.
    pub grad_norm_pre: f64,
    /// Mean post-clip gradient l2 norm across the batch.
    pub grad_norm_post: f64,
    /// True when the step was abandoned before any noise was drawn
    /// because the loss or summed gradient went non-finite. A skipped
    /// step releases nothing, so it consumes no privacy budget.
    pub skipped: bool,
}

/// One chosen subgraph's share of a step: its loss, its gradient (clipped
/// in private runs) and, in private runs, its pre-clip l2 norm.
struct SampleGrad {
    loss: f64,
    grad: GradVec,
    pre_norm: Option<f64>,
}

/// Forward, loss and backward for one subgraph. A pure function of the
/// parameters and the sample: it draws no randomness and touches no
/// shared state, so every thread computes the same bits.
fn sample_grad(
    model: &dyn GnnModel,
    sample: &SubgraphSample,
    config: &PrivImConfig,
) -> (f64, GradVec) {
    let mut tape = Tape::new();
    let pv = model.params().bind(&mut tape);
    let probs = model.forward(&mut tape, &sample.tensors, &pv);
    let loss = match config.loss {
        LossKind::IcProduct => im_loss(
            &mut tape,
            &sample.tensors,
            probs,
            config.diffusion_steps,
            config.lambda,
        ),
        LossKind::LtTruncated => lt_loss(
            &mut tape,
            &sample.tensors,
            probs,
            config.diffusion_steps,
            config.lambda,
        ),
    };
    let value = tape.value(loss).as_scalar();
    let grads = tape.backward(loss);
    (value, model.params().grads(&pv, grads))
}

/// A step's running sums. Samples finish in any order; [`BatchSum::commit`]
/// adds them in `chosen` order, so every float sum is the serial one.
struct BatchSum {
    sum: GradVec,
    loss: f64,
    clipped: usize,
    pre_norm: f64,
    post_norm: f64,
    /// Position in `chosen` of the next sample to add.
    next: usize,
    /// Finished samples waiting for an earlier one, by position.
    pending: Vec<(usize, SampleGrad)>,
}

impl BatchSum {
    fn new(model: &dyn GnnModel) -> Self {
        BatchSum {
            sum: GradVec::zeros_like(model.params()),
            loss: 0.0,
            clipped: 0,
            pre_norm: 0.0,
            post_norm: 0.0,
            next: 0,
            pending: Vec::new(),
        }
    }

    /// Takes the sample at position `pos` and adds every sample that is
    /// now next in order.
    fn commit(&mut self, pos: usize, sample: SampleGrad, clip_bound: f64) {
        self.pending.push((pos, sample));
        while let Some(i) = self.pending.iter().position(|&(p, _)| p == self.next) {
            let (_, s) = self.pending.swap_remove(i);
            self.loss += s.loss;
            if let Some(pre_norm) = s.pre_norm {
                self.pre_norm += pre_norm;
                self.post_norm += pre_norm.min(clip_bound);
                if pre_norm > clip_bound {
                    self.clipped += 1;
                }
            }
            self.sum.add_assign(&s.grad);
            self.next += 1;
        }
    }
}

/// One Algorithm 2 step: sample a batch, accumulate clipped per-subgraph
/// gradients, perturb, and apply. Shared verbatim by the legacy
/// [`train`] loop (one RNG stream across all iterations) and the
/// crash-safe resumable loop in [`crate::resume`] (a fresh derived RNG
/// per epoch) — both must take bitwise-identical steps.
///
/// The chosen subgraphs' forward, loss, backward and clip run on
/// `threads` workers of one [`par::fan_out`]: the caller and
/// `threads − 1` scoped helpers, which claim positions in `chosen` from
/// one counter and open their scopes under the caller's. [`BatchSum`]
/// commits the results in `chosen` order, so the step is bit-identical
/// at every thread count.
///
/// RNG discipline: only batch selection and noise sampling touch `rng`,
/// both on the caller, in that order; the workers, the non-finite guard
/// and the fault site never do, so guarded and unguarded healthy runs
/// are bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dp_step<R: Rng + ?Sized>(
    model: &mut dyn GnnModel,
    optimizer: &mut dyn Optimizer,
    container: &SubgraphContainer,
    config: &PrivImConfig,
    privacy: Option<&PrivacySetup>,
    indices: &[usize],
    batch: usize,
    step: usize,
    threads: usize,
    rng: &mut R,
) -> Result<StepStats, TrainError> {
    let chosen: Vec<usize> = indices.choose_multiple(rng, batch).copied().collect();
    let shared: &dyn GnnModel = model;
    let acc = Mutex::new(BatchSum::new(shared));
    let next = AtomicUsize::new(0);
    let work = || loop {
        let pos = next.fetch_add(1, Ordering::Relaxed);
        let Some(&idx) = chosen.get(pos) else {
            return;
        };
        let (loss, mut grad) = sample_grad(shared, container.get(idx), config);
        // Per-sample clip + accumulate (Algorithm 2, lines 6-7) over
        // P gradient entries: the l2 norm costs 2P flops, the clip
        // rescale P, the accumulate P; traffic is one read for the
        // norm, read+write for the rescale, and read + read-modify-
        // write for the accumulate.
        let prof = privim_obs::Scope::kernel("train.clip_accumulate");
        let p64 = grad.num_entries() as u64;
        let pre_norm = match privacy {
            Some(_) => {
                prof.add_work(4 * p64, 8 * 6 * p64, p64);
                Some(grad.clip(config.clip_bound))
            }
            None => {
                prof.add_work(p64, 8 * 3 * p64, p64);
                None
            }
        };
        let sample = SampleGrad {
            loss,
            grad,
            pre_norm,
        };
        acc.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .commit(pos, sample, config.clip_bound);
    };
    par::fan_out(vec![(); threads], |()| work());
    let acc = acc.into_inner().unwrap_or_else(PoisonError::into_inner);
    debug_assert_eq!(acc.next, chosen.len(), "every chosen sample committed");
    let mut sum = acc.sum;
    privim_obs::fault_point("train.post_backward")?;
    let mean_loss = acc.loss / batch as f64;
    let clip_fraction = acc.clipped as f64 / batch as f64;
    let grad_norm_pre = acc.pre_norm / batch as f64;
    let grad_norm_post = acc.post_norm / batch as f64;
    // Non-finite guard, evaluated BEFORE any noise is sampled: a skipped
    // step releases no perturbed gradient, so the accountant records
    // nothing and no budget is spent. (Clipping bounds each sample's
    // gradient norm but NaN/Inf pass through `min` unclamped.)
    let finite = mean_loss.is_finite()
        && sum
            .blocks()
            .iter()
            .all(|b| b.data().iter().all(|v| v.is_finite()));
    if !finite {
        privim_obs::counter("train.bad_steps").add(1);
        privim_obs::warn!(
            "train",
            "non_finite_step",
            step = step,
            loss = mean_loss,
            private = privacy.is_some(),
        );
        return Ok(StepStats {
            mean_loss,
            clip_fraction,
            grad_norm_pre,
            grad_norm_post,
            skipped: true,
        });
    }
    if let Some(setup) = privacy {
        let std = setup.noise_std(config.clip_bound);
        sum.map_entries_mut(|x| *x += gaussian(rng, std));
    }
    sum.scale_assign(1.0 / batch as f64);
    optimizer.step(model.params_mut(), &sum);
    Ok(StepStats {
        mean_loss,
        clip_fraction,
        grad_norm_pre,
        grad_norm_post,
        skipped: false,
    })
}

/// Runs `f` with every DP-SGD step and graph-scale kernel it runs on this
/// thread spread over `threads` workers ([`par::with_threads`]; a step
/// uses at most one per batch sample). Results do not depend on the
/// count; tests use this to pin the count and prove it.
#[doc(hidden)]
pub use privim_nn::par::with_threads as with_step_threads;

/// Runs Algorithm 2. With `privacy = None`, runs the non-private variant
/// (no clipping, no noise) used by the `ε = ∞` reference.
///
/// Fails with [`TrainError::NonFiniteDivergence`] after
/// `config.max_bad_steps` consecutive non-finite steps; isolated bad
/// steps are skipped before noise is drawn, so they consume no budget.
pub fn train<R: Rng + ?Sized>(
    model: &mut dyn GnnModel,
    container: &SubgraphContainer,
    config: &PrivImConfig,
    privacy: Option<&PrivacySetup>,
    rng: &mut R,
) -> Result<TrainReport, TrainError> {
    let span = privim_obs::Scope::span("training");
    let mut state = EpochState::fresh(config, privacy);
    run_epochs(
        model,
        &mut state,
        container,
        config,
        privacy,
        None,
        None,
        &mut &mut *rng,
    )
    .map_err(|e| match e {
        ResumeError::Train(e) => e,
        ResumeError::Killed { site } => TrainError::Fault(privim_obs::FaultSignal::Kill { site }),
        other => unreachable!("a run without a checkpoint store failed with: {other}"),
    })?;
    if let Some(ledger) = &state.ledger {
        debug_assert!(
            ledger.verify_replay(1e-9).is_ok(),
            "privacy ledger replay diverged from its recorded epsilons"
        );
    }
    Ok(state.report(span.finish(), privacy))
}

/// Where each epoch's randomness comes from. This is the only thing the
/// two entry points of the epoch loop differ in: [`train`] threads the
/// caller's single stream through every epoch, while
/// [`crate::resume::train_resumable`] draws a fresh stream derived from
/// `(master_seed, epoch)`, so a resumed run needs no stored RNG state.
pub(crate) trait EpochRng {
    /// The concrete generator (kept monomorphic: noise sampling draws
    /// from it once per gradient entry).
    type Rng: Rng + ?Sized;
    /// The generator epoch `epoch`'s batch selection and noise draw from.
    fn for_epoch(&mut self, epoch: u64) -> &mut Self::Rng;
}

/// The caller's one stream, used for every epoch in turn.
impl<R: Rng + ?Sized> EpochRng for &mut R {
    type Rng = R;
    fn for_epoch(&mut self, _epoch: u64) -> &mut R {
        self
    }
}

/// Algorithm 2's state between epochs: exactly what a crash-safe
/// checkpoint persists next to the model.
pub(crate) struct EpochState {
    /// Completed epochs; the loop resumes at this epoch.
    pub epoch: u64,
    pub optimizer: Box<dyn Optimizer>,
    /// Exact RDP ledger, one entry per noisy step (private runs only).
    pub ledger: Option<PrivacyLedger>,
    pub losses: Vec<f64>,
    pub clip_fractions: Vec<f64>,
}

impl EpochState {
    /// The state before epoch 0.
    pub fn fresh(config: &PrivImConfig, privacy: Option<&PrivacySetup>) -> Self {
        EpochState {
            epoch: 0,
            optimizer: Box::new(Sgd::new(config.learning_rate)),
            ledger: privacy.map(|setup| PrivacyLedger::new(setup.delta)),
            losses: Vec::with_capacity(config.iterations),
            clip_fractions: Vec::new(),
        }
    }

    /// The run's report, for a run that took `training_secs`.
    pub fn report(self, training_secs: f64, privacy: Option<&PrivacySetup>) -> TrainReport {
        TrainReport {
            losses: self.losses,
            clip_fractions: self.clip_fractions,
            training_secs,
            sigma: privacy.map(|p| p.sigma),
            ledger: self.ledger,
            optimizer: self.optimizer.snapshot(),
        }
    }
}

/// Algorithm 2's epoch loop, shared by [`train`] and
/// [`crate::resume::train_resumable`]: runs [`dp_step`] for epochs
/// `state.epoch..config.iterations` and does each epoch's bookkeeping —
/// losses and counters, skipped steps and the divergence abort, the
/// ledger record and the exact ε, the `train/epoch` and `dp` events and
/// the watch feed. With a `guard` it halts before the first step that
/// would overspend the budget (returning the halt); with a `cadence` it
/// persists the state on the cadence, after the final epoch and at a
/// halt. Neither touches the RNG, so every configuration takes the same
/// steps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_epochs<S: EpochRng>(
    model: &mut dyn GnnModel,
    state: &mut EpochState,
    container: &SubgraphContainer,
    config: &PrivImConfig,
    privacy: Option<&PrivacySetup>,
    mut guard: Option<BudgetGuard>,
    cadence: Option<&Cadence>,
    rngs: &mut S,
) -> Result<Option<BudgetHalt>, ResumeError> {
    assert!(
        !container.is_empty(),
        "cannot train on an empty subgraph container"
    );
    let m = container.len();
    let batch = config.batch_size.min(m);
    let indices: Vec<usize> = (0..m).collect();
    // Workers per step, capped at the batch size: a worker without a
    // sample would only idle.
    let threads = par::threads().min(batch.max(1));
    let sub = privacy.map(|setup| setup.subsampled_config(config, m));
    let start_epoch = state.epoch;
    let mut durable = cadence.and_then(|c| c.durable);
    let mut consecutive_bad = 0usize;
    let mut budget_halt = None;

    for epoch in start_epoch..config.iterations as u64 {
        // The guard only gates private runs. It is pure arithmetic over
        // cloned accountant state: it never mutates the ledger and never
        // draws randomness.
        if let (Some(g), Some(setup), Some(sub), Some(ledger)) =
            (guard.as_mut(), privacy, &sub, &state.ledger)
        {
            let projected = match g.check_next_step(ledger, setup.sigma, sub) {
                BudgetDecision::Halt { spent, projected } => {
                    let fresh_steps = epoch - start_epoch;
                    privim_obs::warn!(
                        "dp",
                        "budget_halt",
                        epoch = epoch,
                        budget = g.budget(),
                        epsilon_spent = spent,
                        projected_next = projected,
                        fresh_steps = fresh_steps,
                    );
                    privim_obs::counter("dp.budget_halts").add(1);
                    budget_halt = Some(BudgetHalt {
                        epoch,
                        budget: g.budget(),
                        epsilon_spent: spent,
                        projected_next: projected,
                        fresh_steps,
                    });
                    projected
                }
                BudgetDecision::Warn {
                    projected,
                    steps_remaining,
                } => {
                    privim_obs::warn!(
                        "dp",
                        "budget_warning",
                        epoch = epoch,
                        budget = g.budget(),
                        projected = projected,
                        steps_remaining = steps_remaining,
                    );
                    projected
                }
                BudgetDecision::Proceed { projected } => projected,
            };
            privim_obs::watch::observe("dp.epsilon_next", epoch, projected);
            if budget_halt.is_some() {
                break;
            }
        }
        let stats = dp_step(
            model,
            state.optimizer.as_mut(),
            container,
            config,
            privacy,
            &indices,
            batch,
            epoch as usize,
            threads,
            rngs.for_epoch(epoch),
        )?;
        state.losses.push(stats.mean_loss);
        privim_obs::counter("train.iterations").add(1);
        privim_obs::histogram("train.loss").record(stats.mean_loss);
        if privacy.is_some() {
            state.clip_fractions.push(stats.clip_fraction);
        }
        if stats.skipped {
            consecutive_bad += 1;
            if consecutive_bad >= config.max_bad_steps {
                return Err(TrainError::NonFiniteDivergence {
                    step: epoch as usize,
                    consecutive: consecutive_bad,
                }
                .into());
            }
        } else {
            consecutive_bad = 0;
            match (privacy, &sub, state.ledger.as_mut()) {
                (Some(setup), Some(sub), Some(ledger)) => {
                    privim_obs::histogram("train.clip_fraction").record(stats.clip_fraction);
                    let sensitivity = config.clip_bound * setup.max_occurrences as f64;
                    let (eps, alpha) = ledger.record_step(setup.sigma, sensitivity, sub);
                    privim_obs::info!(
                        "train",
                        "epoch",
                        epoch = epoch,
                        loss = stats.mean_loss,
                        clip_fraction = stats.clip_fraction,
                        grad_norm_pre = stats.grad_norm_pre,
                        grad_norm_post = stats.grad_norm_post,
                        noise_std = setup.noise_std(config.clip_bound),
                        epsilon_spent = eps,
                    );
                    privim_obs::debug!(
                        "dp",
                        "epsilon",
                        step = epoch + 1,
                        epsilon = eps,
                        alpha = alpha
                    );
                }
                _ => privim_obs::info!("train", "epoch", epoch = epoch, loss = stats.mean_loss),
            }
        }

        state.epoch = epoch + 1;
        if let Some(c) = cadence {
            if state.epoch.is_multiple_of(c.every) || state.epoch == config.iterations as u64 {
                c.store.save(&c.checkpoint(model, state, config))?;
                durable = Some(state.epoch);
            }
        }
    }

    // A budget halt is a clean, resumable stop: persist everything
    // committed so far, unless the newest generation already covers it
    // (as on an immediate resume refusal).
    if let (Some(c), Some(h)) = (cadence, &budget_halt) {
        if durable != Some(h.epoch) {
            c.store.save(&c.checkpoint(model, state, config))?;
        }
    }
    Ok(budget_halt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_datasets::generators::holme_kim;
    use privim_graph::NodeId;
    use privim_nn::models::{build_model, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::sampling::extract_dual_stage;

    fn setup(seed: u64) -> (privim_graph::Graph, SubgraphContainer, PrivImConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = holme_kim(300, 4, 0.4, 1.0, &mut rng);
        let cfg = PrivImConfig {
            subgraph_size: 10,
            walk_length: 120,
            hops: 2,
            sampling_rate: Some(0.6),
            freq_threshold: 4,
            feature_dim: 4,
            hidden: 8,
            batch_size: 6,
            iterations: 8,
            ..PrivImConfig::default()
        };
        let candidates: Vec<NodeId> = g.nodes().collect();
        let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
        (g, out.container, cfg)
    }

    #[test]
    fn non_private_training_reduces_loss() {
        let (_, container, mut cfg) = setup(1);
        cfg.iterations = 60;
        cfg.learning_rate = 0.05;
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = build_model(
            ModelKind::Gcn,
            cfg.feature_dim,
            cfg.hidden,
            cfg.hops,
            &mut rng,
        );
        let report = train(model.as_mut(), &container, &cfg, None, &mut rng).unwrap();
        assert_eq!(report.losses.len(), 60);
        assert!(report.sigma.is_none());
        assert!(
            report.clip_fractions.is_empty(),
            "non-private runs never clip"
        );
        // Per-iteration losses are noisy (each batch holds different random
        // subgraphs), so compare the initial average against the best and
        // the trailing average against the initial one with a tolerance.
        let head: f64 = report.losses[..10].iter().sum::<f64>() / 10.0;
        let tail: f64 = report.losses[50..].iter().sum::<f64>() / 10.0;
        let best = report.losses.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            best < head * 0.9,
            "best {best} not clearly below initial {head}"
        );
        assert!(
            tail < head * 1.02,
            "loss diverged: head {head}, tail {tail}"
        );
    }

    #[test]
    fn private_training_runs_and_spends_at_most_epsilon() {
        let (_, container, cfg) = setup(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = build_model(
            ModelKind::Grat,
            cfg.feature_dim,
            cfg.hidden,
            cfg.hops,
            &mut rng,
        );
        let setup = PrivacySetup::calibrate(
            3.0,
            1e-4,
            &cfg,
            container.len(),
            cfg.freq_threshold,
            NoiseKind::Gaussian,
        );
        let report = train(model.as_mut(), &container, &cfg, Some(&setup), &mut rng).unwrap();
        assert_eq!(report.losses.len(), cfg.iterations);
        assert_eq!(report.sigma, Some(setup.sigma));
        assert_eq!(report.clip_fractions.len(), cfg.iterations);
        assert!(report
            .clip_fractions
            .iter()
            .all(|&f| (0.0..=1.0).contains(&f)));
        let (spent, _) = setup.spent_epsilon(&cfg, container.len());
        assert!(spent <= 3.0 * 1.0001, "spent {spent} > target");
        // Parameters stay finite despite noise.
        for p in model.params().iter() {
            assert!(p.value.is_finite(), "{} became non-finite", p.name);
        }
    }

    #[test]
    fn noise_std_scales_with_occurrence_bound() {
        let (_, container, cfg) = setup(7);
        let a = PrivacySetup::calibrate(3.0, 1e-4, &cfg, container.len(), 4, NoiseKind::Gaussian);
        let b = PrivacySetup::calibrate(3.0, 1e-4, &cfg, container.len(), 100, NoiseKind::Gaussian);
        assert!(
            b.noise_std(cfg.clip_bound) > a.noise_std(cfg.clip_bound),
            "larger N_g must inject more absolute noise: {} vs {}",
            b.noise_std(cfg.clip_bound),
            a.noise_std(cfg.clip_bound)
        );
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (_, container, cfg) = setup(8);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = build_model(
                ModelKind::Gcn,
                cfg.feature_dim,
                cfg.hidden,
                cfg.hops,
                &mut rng,
            );
            let r = train(model.as_mut(), &container, &cfg, None, &mut rng).unwrap();
            r.losses
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn poisoned_learning_rate_aborts_instead_of_emitting_garbage() {
        // An absurd learning rate overflows the weights within a step or
        // two; the guard must skip the non-finite steps (drawing no
        // noise) and abort after `max_bad_steps` consecutive ones.
        let (_, container, mut cfg) = setup(13);
        cfg.learning_rate = 1e300;
        cfg.iterations = 30;
        cfg.max_bad_steps = 3;
        let mut rng = StdRng::seed_from_u64(14);
        let mut model = build_model(
            ModelKind::Gcn,
            cfg.feature_dim,
            cfg.hidden,
            cfg.hops,
            &mut rng,
        );
        let setup = PrivacySetup::calibrate(
            3.0,
            1e-4,
            &cfg,
            container.len(),
            cfg.freq_threshold,
            NoiseKind::Gaussian,
        );
        match train(model.as_mut(), &container, &cfg, Some(&setup), &mut rng) {
            Err(TrainError::NonFiniteDivergence { consecutive, .. }) => {
                assert_eq!(consecutive, cfg.max_bad_steps);
            }
            other => panic!("expected divergence abort, got {other:?}"),
        }
        // The non-private path hits the same guard.
        let mut rng = StdRng::seed_from_u64(15);
        let mut model = build_model(
            ModelKind::Gcn,
            cfg.feature_dim,
            cfg.hidden,
            cfg.hops,
            &mut rng,
        );
        assert!(matches!(
            train(model.as_mut(), &container, &cfg, None, &mut rng),
            Err(TrainError::NonFiniteDivergence { .. })
        ));
    }

    /// Golden values: the single-stream entry point's losses and final
    /// weights are pinned bit for bit.
    #[test]
    fn golden_outputs_are_pinned() {
        let (_, container, cfg) = setup(1);
        let setup = PrivacySetup::calibrate(
            3.0,
            1e-4,
            &cfg,
            container.len(),
            cfg.freq_threshold,
            NoiseKind::Gaussian,
        );
        let run = |privacy: Option<&PrivacySetup>| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut model = build_model(
                ModelKind::Gcn,
                cfg.feature_dim,
                cfg.hidden,
                cfg.hops,
                &mut rng,
            );
            let report = train(model.as_mut(), &container, &cfg, privacy, &mut rng).unwrap();
            let digest = privim_nn::serialize::Checkpoint::capture(
                model.as_ref(),
                cfg.feature_dim,
                cfg.hidden,
                cfg.hops,
            )
            .digest_hex();
            let losses: Vec<u64> = report.losses.iter().map(|l| l.to_bits()).collect();
            (digest, losses)
        };
        assert_eq!(
            run(Some(&setup)),
            (
                "d5db3dddaff4b232".to_string(),
                vec![
                    4620438890266802499,
                    4620491716266419609,
                    4619700252546420965,
                    4618889686546398840,
                    4620429087356989343,
                    4620981069842790589,
                    4620425588181586107,
                    4620357069166111015,
                ],
            ),
            "private"
        );
        assert_eq!(
            run(None),
            (
                "9379db13700188bb".to_string(),
                vec![
                    4620438890266802499,
                    4619641911325886295,
                    4620941320239494859,
                    4619669937138003373,
                    4620424003237382219,
                    4620225276359417487,
                    4620555163928298507,
                    4619457021881842656,
                ],
            ),
            "non-private"
        );
    }

    // The parallel step shares these across its workers.
    const _: () = {
        const fn assert_sync<T: Sync + ?Sized>() {}
        assert_sync::<SubgraphContainer>();
        assert_sync::<dyn GnnModel>();
    };

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A run's final weights, losses, clip fractions and per-step ledger
    /// ε, as bits, with every step spread over `threads` workers.
    fn run_bits(
        container: &SubgraphContainer,
        cfg: &PrivImConfig,
        privacy: Option<&PrivacySetup>,
        threads: usize,
    ) -> [Vec<u64>; 4] {
        with_step_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(2);
            let mut model = build_model(
                ModelKind::Grat,
                cfg.feature_dim,
                cfg.hidden,
                cfg.hops,
                &mut rng,
            );
            let report = train(model.as_mut(), container, cfg, privacy, &mut rng).unwrap();
            let weights: Vec<f64> = model
                .params()
                .iter()
                .flat_map(|p| p.value.data().iter().copied())
                .collect();
            let epsilons: Vec<f64> = report
                .ledger
                .iter()
                .flat_map(|l| l.to_records())
                .map(|r| r.epsilon_after)
                .collect();
            [
                bits(&weights),
                bits(&report.losses),
                bits(&report.clip_fractions),
                bits(&epsilons),
            ]
        })
    }

    #[test]
    fn batch_sum_adds_in_chosen_order_whatever_the_arrival_order() {
        // 1e16 + 1 rounds back to 1e16, so the chosen order sums these
        // losses to 0, while the arrival order 2, 0, 1 would give 1.
        let mut rng = StdRng::seed_from_u64(1);
        let model = build_model(ModelKind::Gcn, 4, 8, 2, &mut rng);
        let mut acc = BatchSum::new(model.as_ref());
        for (pos, loss) in [(2, -1e16), (0, 1e16), (1, 1.0)] {
            let grad = GradVec::zeros_like(model.params());
            acc.commit(
                pos,
                SampleGrad {
                    loss,
                    grad,
                    pre_norm: None,
                },
                1.0,
            );
        }
        assert_eq!((acc.loss, acc.next, acc.pending.len()), (0.0, 3, 0));
    }

    #[test]
    fn steps_are_bit_identical_at_any_thread_count() {
        let (_, container, mut cfg) = setup(1);
        let gaussian = PrivacySetup::calibrate(
            3.0,
            1e-4,
            &cfg,
            container.len(),
            cfg.freq_threshold,
            NoiseKind::Gaussian,
        );
        for loss in [LossKind::IcProduct, LossKind::LtTruncated] {
            cfg.loss = loss;
            for (name, privacy) in [("gaussian", Some(&gaussian)), ("non-private", None)] {
                let serial = run_bits(&container, &cfg, privacy, 1);
                assert_eq!(serial[1].len(), cfg.iterations);
                assert_eq!(
                    serial[3].len(),
                    if privacy.is_some() { cfg.iterations } else { 0 }
                );
                for threads in [2, 3] {
                    assert_eq!(
                        run_bits(&container, &cfg, privacy, threads),
                        serial,
                        "{loss:?} {name} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn resumable_checkpoint_is_byte_identical_at_any_thread_count() {
        use crate::checkpoint::CheckpointStore;
        use crate::resume::{train_resumable, ResumeOptions};

        let _g = crate::checkpoint::tests::fault_lock();
        let (_, container, cfg) = setup(3);
        let setup = PrivacySetup::calibrate(
            3.0,
            1e-4,
            &cfg,
            container.len(),
            cfg.freq_threshold,
            NoiseKind::Gaussian,
        );
        let newest_file = |threads: usize| {
            let dir = std::env::temp_dir().join(format!("privim-train-threads-{threads}"));
            std::fs::remove_dir_all(&dir).ok();
            let store = CheckpointStore::open(&dir, 3).unwrap();
            with_step_threads(threads, || {
                train_resumable(
                    ModelKind::Gcn,
                    &container,
                    &cfg,
                    Some(&setup),
                    99,
                    &store,
                    ResumeOptions::default(),
                )
            })
            .unwrap();
            let (_, path) = store.load_latest_valid().unwrap().unwrap();
            let bytes = std::fs::read(path).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        let (serial, parallel) = (newest_file(1), newest_file(3));
        assert_eq!(
            crate::checkpoint::crc32(&parallel),
            crate::checkpoint::crc32(&serial),
            "checkpoint digest"
        );
        assert_eq!(parallel, serial);
    }

    #[test]
    #[should_panic(expected = "empty subgraph container")]
    fn empty_container_is_rejected() {
        let (_, _, cfg) = setup(11);
        let container = SubgraphContainer::new();
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = build_model(
            ModelKind::Gcn,
            cfg.feature_dim,
            cfg.hidden,
            cfg.hops,
            &mut rng,
        );
        let _ = train(model.as_mut(), &container, &cfg, None, &mut rng);
    }
}
