//! Crash-safe resumable training.
//!
//! [`train_resumable`] runs Algorithm 2 through the same epoch loop as
//! [`crate::train::train`]; the only difference between the two entry
//! points is the RNG source. This one derives a fresh RNG for every
//! epoch from the master seed
//! (`StdRng::seed_from_u64(splitmix64-mix(seed, epoch))`) instead of
//! threading one stream across the run. That makes the epoch
//! cursor the *only* generator state: a checkpoint stores no RNG bytes,
//! and a run killed at any instruction and resumed from its last durable
//! generation replays the remaining epochs bit-identically — final
//! weights, loss history, and the privacy ledger's ε schedule all match
//! an uninterrupted run exactly.
//!
//! On resume the ledger is re-verified end to end:
//! [`PrivacyLedger::verify_replay`] replays the accounting from the
//! entries alone and must match every recorded cumulative ε within
//! 1e-9, and the accountant reconstructed from the restored γ state must
//! convert to the recorded final ε bit-for-bit. A checkpoint that fails
//! either check — or whose configuration digest, model kind or recorded
//! mechanism (noise family, σ, δ, N_g, B, m) disagrees with the run's —
//! is refused with a typed error rather than silently mis-accounting
//! the budget.

use rand::rngs::StdRng;
use rand::SeedableRng;

use privim_dp::budget::BudgetGuard;
use privim_dp::ledger::{LedgerEntry, PrivacyLedger};
use privim_nn::models::{build_model, GnnModel, ModelKind};
use privim_obs::fault::splitmix64;

use crate::checkpoint::{
    crc32, CheckpointError, CheckpointStore, SplitProvenance, TrainCheckpoint,
};
use crate::config::PrivImConfig;
use crate::container::SubgraphContainer;
use crate::train::{run_epochs, EpochRng, EpochState, PrivacySetup, TrainError, TrainReport};

/// Errors from the resumable training loop.
#[derive(Debug)]
pub enum ResumeError {
    /// Checkpoint storage failed (I/O, corruption with no fallback, or
    /// an injected kill during a write).
    Checkpoint(CheckpointError),
    /// An injected kill fired inside a training step.
    Killed {
        /// The fault site that fired.
        site: String,
    },
    /// Training itself aborted (e.g. non-finite divergence).
    Train(TrainError),
    /// The checkpoint was written under a different configuration.
    ConfigMismatch {
        /// Digest of the current configuration.
        expected: u32,
        /// Digest recorded in the checkpoint.
        found: u32,
    },
    /// The restored ledger failed exact ε re-verification.
    LedgerMismatch(String),
    /// The checkpoint holds a different model architecture than the run
    /// trains (it was written by another method or model choice).
    ModelMismatch {
        /// The architecture this run trains.
        expected: ModelKind,
        /// The architecture stored in the checkpoint.
        found: ModelKind,
    },
    /// The restored ledger recorded a different mechanism (noise family,
    /// σ, δ, N_g, B or m) than this run's calibration and container.
    /// Continuing would account the remaining steps under a mechanism
    /// the spent ones never ran, and overspend the calibrated ε.
    MechanismMismatch(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "{e}"),
            ResumeError::Killed { site } => write!(f, "killed at fault site {site}"),
            ResumeError::Train(e) => write!(f, "{e}"),
            ResumeError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was written under a different configuration \
                 (digest {found:08x}, current {expected:08x}); refusing to resume"
            ),
            ResumeError::LedgerMismatch(msg) => {
                write!(f, "restored privacy ledger failed verification: {msg}")
            }
            ResumeError::ModelMismatch { expected, found } => write!(
                f,
                "checkpoint holds a {found} model but this run trains {expected}; \
                 refusing to resume"
            ),
            ResumeError::MechanismMismatch(msg) => write!(
                f,
                "checkpoint's privacy ledger was recorded under a different mechanism \
                 ({msg}); refusing to resume"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Killed { site } => ResumeError::Killed { site },
            other => ResumeError::Checkpoint(other),
        }
    }
}

impl From<TrainError> for ResumeError {
    fn from(e: TrainError) -> Self {
        match e {
            TrainError::Fault(privim_obs::FaultSignal::Kill { site }) => {
                ResumeError::Killed { site }
            }
            other => ResumeError::Train(other),
        }
    }
}

/// Knobs for the checkpoint cadence.
#[derive(Debug, Clone, Copy)]
pub struct ResumeOptions {
    /// Write a checkpoint every this many completed epochs (and always
    /// after the final one). Minimum 1.
    pub checkpoint_every: usize,
    /// Generations to retain on disk. Minimum 1.
    pub keep: usize,
    /// Hard ε ceiling for private runs: a [`BudgetGuard`] projects the
    /// accountant-exact ε of every prospective step and halts the run
    /// before the first step that would overspend. `None` disables the
    /// guard. Ignored for non-private runs.
    pub epsilon_budget: Option<f64>,
    /// Fraction of `epsilon_budget` at which the guard's one-shot
    /// warning fires. Only read when `epsilon_budget` is set.
    pub budget_warn_fraction: f64,
    /// Provenance of the train/test node split the caller drew, stamped
    /// into every checkpoint generation so privacy audits can
    /// reconstruct the exact membership ground truth later. `None`
    /// when no split was drawn.
    pub split: Option<SplitProvenance>,
}

impl Default for ResumeOptions {
    fn default() -> Self {
        ResumeOptions {
            checkpoint_every: 1,
            keep: 3,
            epsilon_budget: None,
            budget_warn_fraction: privim_dp::budget::DEFAULT_WARN_FRACTION,
            split: None,
        }
    }
}

/// Record of a budget-enforced halt (see [`ResumeOptions::epsilon_budget`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetHalt {
    /// The epoch whose step was refused (0-indexed; equals the number of
    /// completed epochs).
    pub epoch: u64,
    /// The configured ε ceiling.
    pub budget: f64,
    /// Accountant-exact cumulative ε actually committed.
    pub epsilon_spent: f64,
    /// The exact cumulative ε the refused step would have reached.
    pub projected_next: f64,
    /// Steps taken by *this* invocation before the halt. 0 means a
    /// resumed run refused to take any further step under the budget.
    pub fresh_steps: u64,
}

/// Outcome of a resumable run.
pub struct ResumableOutcome {
    /// The trained model.
    pub model: Box<dyn GnnModel>,
    /// Loss/clip history over ALL epochs (restored prefix + new).
    pub report: TrainReport,
    /// Epoch the run resumed from (`None` for a fresh start).
    pub resumed_from: Option<u64>,
    /// Cumulative ε actually spent per the ledger (private runs).
    pub final_epsilon: Option<f64>,
    /// The run-scoped trace id stamped into every telemetry event and
    /// checkpoint of this run. Derived from the master seed, so a
    /// resumed run carries the same id as its killed predecessor.
    pub trace_id: u128,
    /// Set when the ε budget guard halted the run before completing all
    /// configured iterations.
    pub budget_halt: Option<BudgetHalt>,
    /// The final state as a checkpoint: the newest generation in the
    /// store, and the model file the run releases.
    pub checkpoint: TrainCheckpoint,
}

/// Digest of the configuration a checkpoint belongs to. The `Debug`
/// rendering covers every field and is deterministic, so it serves as a
/// cheap structural fingerprint.
pub fn config_digest(config: &PrivImConfig) -> u32 {
    crc32(format!("{config:?}").as_bytes())
}

/// The derived seed for `epoch`'s RNG stream. Also used for the fresh
/// model-init stream (tag `u64::MAX`), which no epoch can collide with
/// because epochs stay below `config.iterations`.
fn epoch_seed(master_seed: u64, epoch: u64) -> u64 {
    splitmix64(master_seed ^ splitmix64(epoch))
}

/// Verifies a restored ledger's exactness: entry-replay within `1e-9`
/// everywhere, and the accountant rebuilt from the restored γ state
/// must reproduce the recorded final cumulative ε.
fn verify_restored_ledger(ledger: &PrivacyLedger) -> Result<(), ResumeError> {
    ledger
        .verify_replay(1e-9)
        .map_err(ResumeError::LedgerMismatch)?;
    if let Some(recorded) = ledger.cumulative_epsilon() {
        let (restored, _alpha) = ledger.accountant().epsilon(ledger.delta());
        let diff = (recorded - restored).abs();
        if diff.is_nan() || diff > 1e-9 {
            return Err(ResumeError::LedgerMismatch(format!(
                "restored accountant ε = {restored} but ledger recorded {recorded} \
                 (|Δ| = {diff:e} > 1e-9)"
            )));
        }
    }
    Ok(())
}

/// Refuses a restored ledger whose steps ran another mechanism than
/// `setup` over a container of `container_size` subgraphs: the
/// configuration digest does not cover the method, and the method picks
/// the container, `N_g` and the noise family.
fn verify_mechanism(
    ledger: &PrivacyLedger,
    setup: &PrivacySetup,
    config: &PrivImConfig,
    container_size: usize,
) -> Result<(), ResumeError> {
    let run = (
        setup.mechanism(),
        setup.sigma,
        setup.delta,
        setup.subsampled_config(config, container_size),
    );
    let recorded = |e: &LedgerEntry| (e.mechanism, e.sigma, e.delta, e.config);
    match ledger.entries().iter().find(|e| recorded(e) != run) {
        None => Ok(()),
        Some(e) => Err(ResumeError::MechanismMismatch(format!(
            "step {} recorded (mechanism, σ, δ, (N_g, B, m)) = {:?}, this run {run:?}",
            e.step,
            recorded(e)
        ))),
    }
}

/// Fresh per-epoch RNG streams derived from the master seed: each
/// epoch's randomness depends only on `(master_seed, epoch)`, never on
/// how many times the process died on the way there.
struct EpochStreams {
    master_seed: u64,
    current: Option<StdRng>,
}

impl EpochRng for EpochStreams {
    type Rng = StdRng;
    fn for_epoch(&mut self, epoch: u64) -> &mut StdRng {
        self.current
            .insert(StdRng::seed_from_u64(epoch_seed(self.master_seed, epoch)))
    }
}

/// Where and how often the epoch loop persists its state, and the
/// run-level fields every generation carries.
pub(crate) struct Cadence<'a> {
    pub store: &'a CheckpointStore,
    /// Save after every this many completed epochs (and the final one).
    pub every: u64,
    /// Epoch of the newest valid generation on disk when the loop starts.
    pub durable: Option<u64>,
    pub master_seed: u64,
    pub config_crc: u32,
    pub trace_id: u128,
    pub split: Option<SplitProvenance>,
}

impl Cadence<'_> {
    /// The generation holding `model` and `state`.
    pub fn checkpoint(
        &self,
        model: &dyn GnnModel,
        state: &EpochState,
        config: &PrivImConfig,
    ) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: state.epoch,
            master_seed: self.master_seed,
            config_crc: self.config_crc,
            trace_id: self.trace_id,
            model: privim_nn::serialize::Checkpoint::capture(
                model,
                config.feature_dim,
                config.hidden,
                config.hops,
            ),
            optimizer: state.optimizer.snapshot(),
            ledger: state.ledger.clone(),
            losses: state.losses.clone(),
            clip_fractions: state.clip_fractions.clone(),
            split: self.split,
        }
    }
}

/// Runs (or resumes) crash-safe DP training.
///
/// Starts from the newest valid checkpoint in `store` when one exists —
/// falling back past torn or rotted generations — and from scratch
/// otherwise. Interruptions at any fault site (or real crashes) are
/// harmless: re-invoking with the same arguments produces bit-identical
/// final weights and an identical ε schedule to an uninterrupted run.
pub fn train_resumable(
    kind: ModelKind,
    container: &SubgraphContainer,
    config: &PrivImConfig,
    privacy: Option<&PrivacySetup>,
    master_seed: u64,
    store: &CheckpointStore,
    opts: ResumeOptions,
) -> Result<ResumableOutcome, ResumeError> {
    // Run-scoped trace: derived from the master seed alone (no RNG is
    // consumed, no wall clock is read), so a resumed run reconstructs
    // the exact context its killed predecessor stamped into telemetry
    // and checkpoints. The restore path below verifies the stored id.
    let run_ctx = privim_obs::TraceContext::from_seed(master_seed);
    privim_obs::trace::set_run_trace(run_ctx);
    let _trace = run_ctx.enter();
    let span = privim_obs::Scope::span("training_resumable");
    let expected_crc = config_digest(config);

    let (mut model, mut state, resumed_from) = match store.load_latest_valid()? {
        Some((ckpt, path)) => {
            if ckpt.config_crc != expected_crc {
                return Err(ResumeError::ConfigMismatch {
                    expected: expected_crc,
                    found: ckpt.config_crc,
                });
            }
            if ckpt.master_seed != master_seed {
                return Err(ResumeError::ConfigMismatch {
                    expected: crc32(&master_seed.to_le_bytes()),
                    found: crc32(&ckpt.master_seed.to_le_bytes()),
                });
            }
            // Correlation proof: the checkpoint must carry this run's
            // trace id (both are pure functions of the master seed).
            if ckpt.trace_id != run_ctx.trace_id {
                return Err(ResumeError::ConfigMismatch {
                    expected: crc32(&run_ctx.trace_id.to_le_bytes()),
                    found: crc32(&ckpt.trace_id.to_le_bytes()),
                });
            }
            if let Some(l) = &ckpt.ledger {
                verify_restored_ledger(l)?;
            }
            if privacy.is_some() != ckpt.ledger.is_some() {
                return Err(ResumeError::LedgerMismatch(
                    "privacy mode differs between run and checkpoint".into(),
                ));
            }
            if ckpt.model.kind != kind {
                return Err(ResumeError::ModelMismatch {
                    expected: kind,
                    found: ckpt.model.kind,
                });
            }
            if let (Some(setup), Some(ledger)) = (privacy, &ckpt.ledger) {
                verify_mechanism(ledger, setup, config, container.len())?;
            }
            let model = ckpt
                .model
                .restore()
                .map_err(|e| CheckpointError::Corrupt(format!("model restore: {e}")))?;
            privim_obs::counter("checkpoint.resumed").add(1);
            privim_obs::info!(
                "checkpoint",
                "resumed",
                epoch = ckpt.epoch,
                path = path.display().to_string(),
                epsilon_so_far = ckpt.ledger.as_ref().and_then(|l| l.cumulative_epsilon()),
            );
            let state = EpochState {
                epoch: ckpt.epoch,
                optimizer: ckpt.optimizer.build(),
                ledger: ckpt.ledger,
                losses: ckpt.losses,
                clip_fractions: ckpt.clip_fractions,
            };
            (model, state, Some(ckpt.epoch))
        }
        None => {
            let mut init_rng = StdRng::seed_from_u64(epoch_seed(master_seed, u64::MAX));
            let model = build_model(
                kind,
                config.feature_dim,
                config.hidden,
                config.hops,
                &mut init_rng,
            );
            (model, EpochState::fresh(config, privacy), None)
        }
    };

    let guard = opts
        .epsilon_budget
        .map(|budget| BudgetGuard::with_warn_fraction(budget, opts.budget_warn_fraction));
    let cadence = Cadence {
        store,
        every: opts.checkpoint_every.max(1) as u64,
        durable: resumed_from,
        master_seed,
        config_crc: expected_crc,
        trace_id: run_ctx.trace_id,
        split: opts.split,
    };
    let budget_halt = run_epochs(
        model.as_mut(),
        &mut state,
        container,
        config,
        privacy,
        guard,
        Some(&cadence),
        &mut EpochStreams {
            master_seed,
            current: None,
        },
    )?;

    if let Some(l) = &state.ledger {
        // The invariant the whole subsystem exists to protect: the
        // ledger's recorded schedule replays exactly, interrupted or not.
        verify_restored_ledger(l)?;
    }

    Ok(ResumableOutcome {
        checkpoint: cadence.checkpoint(model.as_ref(), &state, config),
        trace_id: run_ctx.trace_id,
        final_epsilon: state.ledger.as_ref().and_then(|l| l.cumulative_epsilon()),
        report: state.report(span.finish(), privacy),
        model,
        resumed_from,
        budget_halt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::extract_dual_stage;
    use crate::train::NoiseKind;
    use privim_datasets::generators::holme_kim;
    use privim_graph::NodeId;

    fn setup(seed: u64) -> (SubgraphContainer, PrivImConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = holme_kim(200, 4, 0.4, 1.0, &mut rng);
        let cfg = PrivImConfig {
            subgraph_size: 10,
            walk_length: 120,
            hops: 2,
            sampling_rate: Some(0.6),
            freq_threshold: 4,
            feature_dim: 4,
            hidden: 8,
            batch_size: 6,
            iterations: 6,
            ..PrivImConfig::default()
        };
        let candidates: Vec<NodeId> = g.nodes().collect();
        let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
        (out.container, cfg)
    }

    fn store(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("privim-resume-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointStore::open(&dir, 3).unwrap()
    }

    fn weights(model: &dyn GnnModel) -> Vec<u64> {
        model
            .params()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn uninterrupted_run_completes_and_checkpoints() {
        let _g = crate::checkpoint::tests::fault_lock();
        let (container, cfg) = setup(1);
        let st = store("plain");
        let setup =
            PrivacySetup::calibrate(3.0, 1e-4, &cfg, container.len(), 4, NoiseKind::Gaussian);
        let out = train_resumable(
            ModelKind::Gcn,
            &container,
            &cfg,
            Some(&setup),
            99,
            &st,
            ResumeOptions::default(),
        )
        .unwrap();
        assert_eq!(out.report.losses.len(), cfg.iterations);
        assert!(out.resumed_from.is_none());
        assert!(out.final_epsilon.unwrap() > 0.0);
        let gens = st.generations().unwrap();
        assert_eq!(gens.len(), 3, "keep=3");
        assert_eq!(gens.last().unwrap().0, cfg.iterations as u64);
        std::fs::remove_dir_all(st.dir()).ok();
    }

    #[test]
    fn completed_run_resumes_to_a_noop_with_identical_weights() {
        let _g = crate::checkpoint::tests::fault_lock();
        let (container, cfg) = setup(2);
        let st = store("noop");
        let run = |st: &CheckpointStore| {
            train_resumable(
                ModelKind::Gcn,
                &container,
                &cfg,
                None,
                7,
                st,
                ResumeOptions::default(),
            )
            .unwrap()
        };
        let first = run(&st);
        let second = run(&st); // resumes at the final epoch: zero new steps
        assert_eq!(second.resumed_from, Some(cfg.iterations as u64));
        // Trace correlation across the restart: both runs and the
        // on-disk checkpoint carry the seed-derived trace id.
        let expected_trace = privim_obs::TraceContext::from_seed(7).trace_id;
        assert_eq!(first.trace_id, expected_trace);
        assert_eq!(second.trace_id, expected_trace);
        let (ckpt, _) = st.load_latest_valid().unwrap().unwrap();
        assert_eq!(ckpt.trace_id, expected_trace);
        assert_eq!(
            weights(first.model.as_ref()),
            weights(second.model.as_ref())
        );
        assert_eq!(first.report.losses, second.report.losses);
        std::fs::remove_dir_all(st.dir()).ok();
    }

    #[test]
    fn mismatched_config_is_refused() {
        let _g = crate::checkpoint::tests::fault_lock();
        let (container, cfg) = setup(3);
        let st = store("cfgmismatch");
        train_resumable(
            ModelKind::Gcn,
            &container,
            &cfg,
            None,
            7,
            &st,
            ResumeOptions::default(),
        )
        .unwrap();
        let mut other = cfg.clone();
        other.learning_rate *= 2.0;
        other.iterations += 1;
        assert!(matches!(
            train_resumable(
                ModelKind::Gcn,
                &container,
                &other,
                None,
                7,
                &st,
                ResumeOptions::default(),
            ),
            Err(ResumeError::ConfigMismatch { .. })
        ));
        std::fs::remove_dir_all(st.dir()).ok();
    }

    #[test]
    fn another_model_or_mechanism_is_refused() {
        // The configuration digest does not cover the method, which picks
        // the architecture, the container, N_g and the noise family; a
        // resume under another one must be refused, not overspend ε.
        let _g = crate::checkpoint::tests::fault_lock();
        let (container, cfg) = setup(4);
        let st = store("mechanism");
        let calibrate = |m: usize, n_g: usize, noise: NoiseKind| {
            PrivacySetup::calibrate(3.0, 1e-4, &cfg, m, n_g, noise)
        };
        let private = calibrate(container.len(), 4, NoiseKind::Gaussian);
        let run = |kind: ModelKind, container: &SubgraphContainer, privacy: &PrivacySetup| {
            train_resumable(
                kind,
                container,
                &cfg,
                Some(privacy),
                7,
                &st,
                ResumeOptions::default(),
            )
        };
        let first = run(ModelKind::Gcn, &container, &private).unwrap();
        assert!(matches!(
            run(ModelKind::Grat, &container, &private),
            Err(ResumeError::ModelMismatch {
                expected: ModelKind::Grat,
                found: ModelKind::Gcn,
            })
        ));
        let (other, _) = setup(5);
        assert_ne!(other.len(), container.len());
        for (container, privacy) in [
            (
                &container,
                calibrate(container.len(), 5, NoiseKind::Gaussian),
            ),
            (
                &container,
                calibrate(container.len(), 4, NoiseKind::SymmetricLaplace),
            ),
            (&other, calibrate(other.len(), 4, NoiseKind::Gaussian)),
        ] {
            let refused = run(ModelKind::Gcn, container, &privacy);
            assert!(
                matches!(refused, Err(ResumeError::MechanismMismatch(_))),
                "{privacy:?}"
            );
        }
        // The run's own method still resumes, to the same model.
        let again = run(ModelKind::Gcn, &container, &private).unwrap();
        assert_eq!(again.resumed_from, Some(cfg.iterations as u64));
        assert_eq!(weights(first.model.as_ref()), weights(again.model.as_ref()));
        std::fs::remove_dir_all(st.dir()).ok();
    }

    /// Golden values: the resumable entry point's final weights, ε and
    /// losses are pinned bit for bit.
    #[test]
    fn golden_outputs_are_pinned() {
        let _g = crate::checkpoint::tests::fault_lock();
        let (container, cfg) = setup(1);
        let setup =
            PrivacySetup::calibrate(3.0, 1e-4, &cfg, container.len(), 4, NoiseKind::Gaussian);
        let run = |privacy: Option<&PrivacySetup>| {
            let st = store("golden");
            let out = train_resumable(
                ModelKind::Gcn,
                &container,
                &cfg,
                privacy,
                99,
                &st,
                ResumeOptions::default(),
            )
            .unwrap();
            std::fs::remove_dir_all(st.dir()).ok();
            let digest = privim_nn::serialize::Checkpoint::capture(
                out.model.as_ref(),
                cfg.feature_dim,
                cfg.hidden,
                cfg.hops,
            )
            .digest_hex();
            let losses: Vec<u64> = out.report.losses.iter().map(|l| l.to_bits()).collect();
            (digest, out.final_epsilon.map(f64::to_bits), losses)
        };
        let private = run(Some(&setup));
        assert_eq!(
            private,
            (
                "841f1443c86e1332".to_string(),
                Some(4613937818241073152),
                vec![
                    4618640146410244651,
                    4617837984476262995,
                    4619043149411718268,
                    4619103921463268816,
                    4618488453106411793,
                    4619142087099298125,
                ],
            ),
            "private"
        );
        let plain = run(None);
        assert_eq!(
            plain,
            (
                "67b331afa2ea63e4".to_string(),
                None,
                vec![
                    4618640146410244651,
                    4617810676586279781,
                    4618979761499462563,
                    4618998200361359799,
                    4618345688559002409,
                    4618958672655492200,
                ],
            ),
            "non-private"
        );
    }

    #[test]
    fn epoch_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..1000u64 {
            assert!(seen.insert(epoch_seed(12345, epoch)));
        }
        assert!(
            seen.insert(epoch_seed(12345, u64::MAX)),
            "init tag distinct"
        );
    }
}
