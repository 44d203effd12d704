//! Algorithm 2: differentially private GNN training.
//!
//! Treats each subgraph as one sample: per-subgraph gradients are clipped
//! to l2 norm `C`, summed over the batch, perturbed with Gaussian noise of
//! standard deviation `σ · Δ_g` (`Δ_g = C · N_g`, Lemma 2), and applied
//! with learning rate `η / B`. The same loop also serves the baselines:
//! noise can be disabled (non-private) or swapped for Symmetric
//! Multivariate Laplace (the HP baseline).

use rand::seq::SliceRandom;
use rand::Rng;

use privim_dp::budget::{BudgetDecision, BudgetGuard};
use privim_dp::ledger::{MechanismKind, PrivacyLedger};
use privim_dp::mechanisms::{gaussian, symmetric_multivariate_laplace};
use privim_dp::rdp::{calibrate_sigma, RdpAccountant, SubsampledConfig};
use privim_nn::models::GnnModel;
use privim_nn::optim::{Optimizer, OptimizerSnapshot, Sgd};
use privim_nn::params::GradVec;
use privim_nn::tape::Tape;

use crate::config::{LossKind, PrivImConfig};
use crate::container::SubgraphContainer;
use crate::loss::{im_loss, lt_loss};
use crate::resume::{BudgetHalt, Cadence, ResumeError};

/// Which noise the private training loop injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseKind {
    /// Gaussian noise (Algorithm 2; PrivIM, PrivIM*, EGN).
    Gaussian,
    /// Symmetric Multivariate Laplace (the HP baseline's mechanism).
    SymmetricLaplace,
}

/// Privacy setup for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacySetup {
    /// Calibrated noise multiplier σ.
    pub sigma: f64,
    /// Occurrence bound `N_g` used for the sensitivity `Δ_g = C · N_g`.
    pub max_occurrences: usize,
    /// Noise family.
    pub noise: NoiseKind,
    /// The ε the calibration targeted.
    pub target_epsilon: f64,
    /// The δ used.
    pub delta: f64,
}

impl PrivacySetup {
    /// Calibrates σ for `(epsilon, delta)` over the run described by
    /// `config` and the container size `m` (Theorem 3 + Theorem 1).
    pub fn calibrate(
        epsilon: f64,
        delta: f64,
        config: &PrivImConfig,
        container_size: usize,
        max_occurrences: usize,
        noise: NoiseKind,
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
            noise,
            target_epsilon: epsilon,
            delta,
        }
    }

    /// The ledger's name for this setup's noise family.
    pub fn mechanism(&self) -> MechanismKind {
        match self.noise {
            NoiseKind::Gaussian => MechanismKind::SubsampledGaussian,
            NoiseKind::SymmetricLaplace => MechanismKind::SubsampledSml,
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

/// One Algorithm 2 step: sample a batch, accumulate clipped per-subgraph
/// gradients, perturb, and apply. Shared verbatim by the legacy
/// [`train`] loop (one RNG stream across all iterations) and the
/// crash-safe resumable loop in [`crate::resume`] (a fresh derived RNG
/// per epoch) — both must take bitwise-identical steps.
///
/// RNG discipline: only batch selection and noise sampling touch `rng`,
/// in that order; the non-finite guard and the fault site never do, so
/// guarded and unguarded healthy runs are bit-identical.
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
    rng: &mut R,
) -> Result<StepStats, TrainError> {
    let chosen: Vec<usize> = indices.choose_multiple(rng, batch).copied().collect();
    let mut sum = GradVec::zeros_like(model.params());
    let mut batch_loss = 0.0;
    let mut clipped = 0usize;
    let mut pre_norm_sum = 0.0;
    let mut post_norm_sum = 0.0;
    for &idx in &chosen {
        let sample = container.get(idx);
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
        batch_loss += tape.value(loss).as_scalar();
        let grads = tape.backward(loss);
        let mut gv = model.params().grads(&pv, grads);
        // Per-sample clip + accumulate (Algorithm 2, lines 6-7) over
        // P gradient entries: the l2 norm costs 2P flops, the clip
        // rescale P, the accumulate P; traffic is one read for the
        // norm, read+write for the rescale, and read + read-modify-
        // write for the accumulate.
        let prof = privim_obs::ProfScope::enter("train.clip_accumulate");
        let p64 = gv.num_entries() as u64;
        if privacy.is_some() {
            prof.add_work(4 * p64, 8 * 6 * p64, p64);
            let pre_norm = gv.clip(config.clip_bound);
            pre_norm_sum += pre_norm;
            post_norm_sum += pre_norm.min(config.clip_bound);
            if pre_norm > config.clip_bound {
                clipped += 1;
            }
        } else {
            prof.add_work(p64, 8 * 3 * p64, p64);
        }
        sum.add_assign(&gv);
        drop(prof);
    }
    privim_obs::fault_point("train.post_backward")?;
    let mean_loss = batch_loss / batch as f64;
    let clip_fraction = clipped as f64 / batch as f64;
    let grad_norm_pre = pre_norm_sum / batch as f64;
    let grad_norm_post = post_norm_sum / batch as f64;
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
        match setup.noise {
            NoiseKind::Gaussian => {
                sum.map_entries_mut(|x| *x += gaussian(rng, std));
            }
            NoiseKind::SymmetricLaplace => {
                // SML draws one radial factor per block application; we
                // apply it blockwise to keep the heavy-tailed coupling.
                for block in sum.blocks_mut() {
                    let noise = symmetric_multivariate_laplace(rng, std, block.data().len());
                    for (x, n) in block.data_mut().iter_mut().zip(noise) {
                        *x += n;
                    }
                }
            }
        }
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
    let _span = privim_obs::span!("training");
    let started = std::time::Instant::now();
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
    Ok(state.report(started, privacy))
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

    /// The run's report, timed from `started`.
    pub fn report(
        self,
        started: std::time::Instant,
        privacy: Option<&PrivacySetup>,
    ) -> TrainReport {
        TrainReport {
            losses: self.losses,
            clip_fractions: self.clip_fractions,
            training_secs: started.elapsed().as_secs_f64(),
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
            rngs.for_epoch(epoch),
        )?;
        state.losses.push(stats.mean_loss);
        privim_obs::counter("train.iterations").add(1);
        privim_obs::histogram("train.loss").record(stats.mean_loss);
        privim_obs::watch::observe("train.loss", epoch, stats.mean_loss);
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
                    let (eps, alpha) =
                        ledger.record_step(setup.mechanism(), setup.sigma, sensitivity, sub);
                    privim_obs::watch::observe("dp.epsilon_spent", epoch, eps);
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
    fn sml_noise_path_runs() {
        let (_, container, cfg) = setup(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = build_model(
            ModelKind::Gcn,
            cfg.feature_dim,
            cfg.hidden,
            cfg.hops,
            &mut rng,
        );
        let setup = PrivacySetup::calibrate(
            2.0,
            1e-4,
            &cfg,
            container.len(),
            11,
            NoiseKind::SymmetricLaplace,
        );
        let report = train(model.as_mut(), &container, &cfg, Some(&setup), &mut rng).unwrap();
        assert_eq!(report.losses.len(), cfg.iterations);
        for p in model.params().iter() {
            assert!(p.value.is_finite());
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
