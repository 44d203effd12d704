//! Influence-spread estimation.
//!
//! [`influence_spread`] dispatches between exact evaluation (the paper's
//! deterministic `w = 1`, `j = 1` setting) and Monte Carlo estimation, with
//! an optional multi-threaded estimator for large trial counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use privim_graph::{Graph, NodeId};

use crate::models::{
    deterministic_one_step_coverage, simulate_cascade, DiffusionConfig, DiffusionModel,
};

/// True if every edge weight is (at least) 1, making IC deterministic.
fn all_weights_saturated(g: &Graph) -> bool {
    g.nodes()
        .all(|v| g.out_weights(v).iter().all(|&w| w >= 1.0))
}

/// Estimates the expected influence spread `I(S, G)` of `seeds` under
/// `config`, averaging `trials` Monte Carlo cascades.
///
/// When the configuration is exactly the paper's evaluation setting
/// (IC, one step, all weights ≥ 1) the spread is computed exactly in a
/// single pass instead.
pub fn influence_spread<R: Rng + ?Sized>(
    g: &Graph,
    seeds: &[NodeId],
    config: &DiffusionConfig,
    trials: usize,
    rng: &mut R,
) -> f64 {
    if is_deterministic_one_step(g, config) {
        return deterministic_one_step_coverage(g, seeds) as f64;
    }
    assert!(trials > 0, "need at least one trial");
    let prof = privim_obs::Scope::kernel("im.monte_carlo");
    // Work = trials simulated; cascade cost is data-dependent, so the
    // item counter (not flops/bytes) is the unit of throughput here.
    prof.add_work(0, 0, trials as u64);
    let started = std::time::Instant::now();
    let total: usize = (0..trials)
        .map(|_| {
            let trial = timed_trial_start();
            let n = simulate_cascade(g, seeds, config, rng);
            timed_trial_end(trial);
            n
        })
        .sum();
    record_mc_telemetry(trials, started.elapsed().as_secs_f64(), None);
    total as f64 / trials as f64
}

/// Starts a per-trial timer, but only while profiling is enabled — the
/// clock read would otherwise dominate microsecond-scale cascades.
fn timed_trial_start() -> Option<std::time::Instant> {
    privim_obs::profiling_enabled().then(std::time::Instant::now)
}

/// Records one Monte-Carlo trial's wall time into `im.trial_secs`.
fn timed_trial_end(started: Option<std::time::Instant>) {
    if let Some(t) = started {
        privim_obs::histogram("im.trial_secs").record(t.elapsed().as_secs_f64());
    }
}

/// Shared Monte-Carlo telemetry: throughput metrics always (a few relaxed
/// atomics), a `im`/`monte_carlo` event when a Debug sink listens. Never
/// touches the caller's RNG.
fn record_mc_telemetry(trials: usize, secs: f64, variance: Option<f64>) {
    privim_obs::counter("im.mc_trials").add(trials as u64);
    let sims_per_sec = if secs > 0.0 {
        trials as f64 / secs
    } else {
        f64::INFINITY
    };
    if sims_per_sec.is_finite() {
        privim_obs::histogram("im.sims_per_sec").record(sims_per_sec);
    }
    privim_obs::debug!(
        "im",
        "monte_carlo",
        trials = trials,
        secs = secs,
        sims_per_sec = sims_per_sec,
        variance = variance,
    );
}

pub(crate) fn is_deterministic_one_step(g: &Graph, config: &DiffusionConfig) -> bool {
    matches!(config.model, DiffusionModel::IndependentCascade)
        && config.max_steps == Some(1)
        && all_weights_saturated(g)
}

/// A Monte Carlo spread estimate with a normal-approximation confidence
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadEstimate {
    /// Sample mean spread.
    pub mean: f64,
    /// Half-width of the confidence interval (`z · s / √trials`).
    pub half_width: f64,
    /// Trials used.
    pub trials: usize,
}

impl SpreadEstimate {
    /// `[mean − hw, mean + hw]`.
    pub fn interval(&self) -> (f64, f64) {
        (self.mean - self.half_width, self.mean + self.half_width)
    }
}

/// Monte Carlo spread with a CLT confidence interval at confidence `z`
/// standard errors (1.96 ≈ 95%). Exact configurations return a zero-width
/// interval.
pub fn influence_spread_with_ci<R: Rng + ?Sized>(
    g: &Graph,
    seeds: &[NodeId],
    config: &DiffusionConfig,
    trials: usize,
    z: f64,
    rng: &mut R,
) -> SpreadEstimate {
    if is_deterministic_one_step(g, config) {
        let exact = deterministic_one_step_coverage(g, seeds) as f64;
        return SpreadEstimate {
            mean: exact,
            half_width: 0.0,
            trials: 1,
        };
    }
    assert!(trials >= 2, "need at least two trials for a CI");
    let prof = privim_obs::Scope::kernel("im.monte_carlo");
    // Work = trials simulated; cascade cost is data-dependent, so the
    // item counter (not flops/bytes) is the unit of throughput here.
    prof.add_work(0, 0, trials as u64);
    let started = std::time::Instant::now();
    let samples: Vec<f64> = (0..trials)
        .map(|_| {
            let trial = timed_trial_start();
            let n = simulate_cascade(g, seeds, config, rng);
            timed_trial_end(trial);
            n as f64
        })
        .collect();
    let mean = samples.iter().sum::<f64>() / trials as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (trials as f64 - 1.0);
    record_mc_telemetry(trials, started.elapsed().as_secs_f64(), Some(var));
    SpreadEstimate {
        mean,
        half_width: z * (var / trials as f64).sqrt(),
        trials,
    }
}

/// Trials per deterministic work block: block `b` always simulates the
/// same cascades with the same derived RNG, no matter which thread runs
/// it, so the parallel estimate is invariant to the thread count.
const TRIAL_BLOCK: usize = 256;

/// Why a spread request could not be evaluated. These are
/// caller-controlled conditions (e.g. a malformed `/v1/spread` request),
/// so they surface as values instead of panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpreadError {
    /// `trials == 0` on a stochastic configuration.
    ZeroTrials,
    /// `n_threads == 0`.
    ZeroThreads,
    /// A seed node id is not in the graph.
    SeedOutOfRange {
        /// The offending node id.
        seed: NodeId,
        /// The graph's node count.
        num_nodes: usize,
    },
}

impl std::fmt::Display for SpreadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpreadError::ZeroTrials => f.write_str("need at least one trial"),
            SpreadError::ZeroThreads => f.write_str("need at least one thread"),
            SpreadError::SeedOutOfRange { seed, num_nodes } => {
                write!(f, "seed {seed} out of range (graph has {num_nodes} nodes)")
            }
        }
    }
}

impl std::error::Error for SpreadError {}

/// Derives the RNG seed for work block `stream` (splitmix64 finalizer, so
/// nearby block indices get well-separated streams).
pub(crate) fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn check_seeds_in_range(g: &Graph, seeds: &[NodeId]) -> Result<(), SpreadError> {
    match seeds.iter().find(|&&s| s as usize >= g.num_nodes()) {
        Some(&seed) => Err(SpreadError::SeedOutOfRange {
            seed,
            num_nodes: g.num_nodes(),
        }),
        None => Ok(()),
    }
}

/// Multi-threaded Monte Carlo spread estimate; deterministic for a given
/// `seed` regardless of thread count.
///
/// Trials are partitioned into fixed [`TRIAL_BLOCK`]-sized blocks; block
/// `b` always runs with the RNG derived from `(seed, b)`, and threads
/// claim blocks from a shared counter. The per-block sums are integers,
/// so the total is independent of which thread ran which block.
///
/// Unlike the panicking estimators above, every caller-controlled
/// precondition surfaces as a [`SpreadError`] — this is the entry point
/// network-facing code (the `/v1/spread` endpoint) calls with
/// client-supplied values.
pub fn influence_spread_parallel(
    g: &Graph,
    seeds: &[NodeId],
    config: &DiffusionConfig,
    trials: usize,
    n_threads: usize,
    seed: u64,
) -> Result<f64, SpreadError> {
    check_seeds_in_range(g, seeds)?;
    if is_deterministic_one_step(g, config) {
        return Ok(deterministic_one_step_coverage(g, seeds) as f64);
    }
    if trials == 0 {
        return Err(SpreadError::ZeroTrials);
    }
    if n_threads == 0 {
        return Err(SpreadError::ZeroThreads);
    }
    let prof = privim_obs::Scope::kernel("im.monte_carlo");
    // Work = trials simulated; cascade cost is data-dependent, so the
    // item counter (not flops/bytes) is the unit of throughput here.
    prof.add_work(0, 0, trials as u64);
    let started = std::time::Instant::now();
    // Scopes are thread-local and not inherited by spawned workers;
    // capture the caller's and adopt them on each worker, so per-request
    // trace correlation survives the fan-out and worker scopes profile
    // under the caller's. Pure bookkeeping — no RNG is consumed, so
    // estimates stay bit-identical.
    let parent = privim_obs::ScopeParent::current();
    let n_blocks = trials.div_ceil(TRIAL_BLOCK);
    let n_threads = n_threads.min(n_blocks);
    let next_block = std::sync::atomic::AtomicUsize::new(0);
    let totals: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let (next_block, parent) = (&next_block, &parent);
                scope.spawn(move || {
                    let worker = move || {
                        let mut local = 0usize;
                        let mut blocks = 0usize;
                        loop {
                            let b = next_block.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if b >= n_blocks {
                                // One event per worker, stamped with the
                                // adopted request trace (if any), so the
                                // fan-out is visible in dumps.
                                privim_obs::debug!(
                                    "im",
                                    "worker_done",
                                    blocks = blocks,
                                    infected = local,
                                );
                                return local;
                            }
                            blocks += 1;
                            let quota = TRIAL_BLOCK.min(trials - b * TRIAL_BLOCK);
                            let mut rng = StdRng::seed_from_u64(mix_seed(seed, b as u64));
                            local += (0..quota)
                                .map(|_| simulate_cascade(g, seeds, config, &mut rng))
                                .sum::<usize>();
                        }
                    };
                    parent.adopt(worker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spread worker panicked"))
            .collect()
    });
    record_mc_telemetry(trials, started.elapsed().as_secs_f64(), None);
    Ok(totals.iter().sum::<usize>() as f64 / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;

    fn two_hop_chain() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.5);
        b.build()
    }

    #[test]
    fn exact_path_taken_for_paper_setting() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = DiffusionConfig::ic_with_steps(1);
        // trials = 1 would be noisy for MC; exactness proves the fast path.
        let s = influence_spread(&g, &[0], &cfg, 1, &mut rng);
        assert_eq!(s, 3.0);
    }

    #[test]
    fn monte_carlo_converges_to_expectation() {
        // E[spread from 0] = 1 + 0.5 + 0.25 = 1.75 on the 0.5-weight chain.
        let g = two_hop_chain();
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = DiffusionConfig::ic_unbounded();
        let s = influence_spread(&g, &[0], &cfg, 60_000, &mut rng);
        assert!((s - 1.75).abs() < 0.02, "spread {s}");
    }

    #[test]
    fn parallel_matches_serial_expectation() {
        let g = two_hop_chain();
        let cfg = DiffusionConfig::ic_unbounded();
        let s = influence_spread_parallel(&g, &[0], &cfg, 60_000, 4, 7).unwrap();
        assert!((s - 1.75).abs() < 0.02, "spread {s}");
    }

    #[test]
    fn parallel_is_deterministic_given_seed() {
        let g = two_hop_chain();
        let cfg = DiffusionConfig::ic_unbounded();
        let a = influence_spread_parallel(&g, &[0], &cfg, 5_000, 4, 9).unwrap();
        let b = influence_spread_parallel(&g, &[0], &cfg, 5_000, 4, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_is_invariant_to_thread_count() {
        // 1000 trials span four blocks; every thread count must produce
        // the identical estimate because blocks, not threads, own RNGs.
        let g = two_hop_chain();
        let cfg = DiffusionConfig::ic_unbounded();
        let reference = influence_spread_parallel(&g, &[0], &cfg, 1_000, 1, 13).unwrap();
        for n_threads in [2, 3, 4, 64] {
            let s = influence_spread_parallel(&g, &[0], &cfg, 1_000, n_threads, 13).unwrap();
            assert_eq!(s, reference, "n_threads = {n_threads}");
        }
    }

    #[test]
    fn parallel_rejects_bad_input_instead_of_panicking() {
        let g = two_hop_chain();
        let cfg = DiffusionConfig::ic_unbounded();
        assert_eq!(
            influence_spread_parallel(&g, &[0], &cfg, 0, 4, 1),
            Err(SpreadError::ZeroTrials)
        );
        assert_eq!(
            influence_spread_parallel(&g, &[0], &cfg, 10, 0, 1),
            Err(SpreadError::ZeroThreads)
        );
        assert_eq!(
            influence_spread_parallel(&g, &[99], &cfg, 10, 1, 1),
            Err(SpreadError::SeedOutOfRange {
                seed: 99,
                num_nodes: 3
            })
        );
        let msg = SpreadError::SeedOutOfRange {
            seed: 99,
            num_nodes: 3,
        }
        .to_string();
        assert!(msg.contains("99") && msg.contains("3"), "{msg}");
    }

    #[test]
    fn exact_configurations_ignore_trial_and_thread_counts() {
        // The deterministic fast path needs no Monte Carlo, so zero
        // trials is not an error there.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let cfg = DiffusionConfig::ic_with_steps(1);
        assert_eq!(influence_spread_parallel(&g, &[0], &cfg, 0, 0, 1), Ok(2.0));
    }

    #[test]
    fn spread_bounds_hold() {
        let g = two_hop_chain();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = DiffusionConfig::ic_unbounded();
        let s = influence_spread(&g, &[0, 2], &cfg, 500, &mut rng);
        assert!((2.0..=3.0).contains(&s), "spread {s}");
    }

    #[test]
    fn confidence_interval_contains_truth() {
        // E[spread] = 1.75 on the 0.5-weight chain; a 99.9%-z interval from
        // 20k trials should cover it.
        let g = two_hop_chain();
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = DiffusionConfig::ic_unbounded();
        let est = influence_spread_with_ci(&g, &[0], &cfg, 20_000, 3.3, &mut rng);
        let (lo, hi) = est.interval();
        assert!(lo <= 1.75 && 1.75 <= hi, "[{lo}, {hi}] misses 1.75");
        assert!(est.half_width > 0.0 && est.half_width < 0.05);
    }

    #[test]
    fn confidence_interval_shrinks_with_trials() {
        let g = two_hop_chain();
        let cfg = DiffusionConfig::ic_unbounded();
        let mut rng = StdRng::seed_from_u64(12);
        let small = influence_spread_with_ci(&g, &[0], &cfg, 500, 1.96, &mut rng);
        let large = influence_spread_with_ci(&g, &[0], &cfg, 50_000, 1.96, &mut rng);
        assert!(large.half_width < small.half_width / 5.0);
    }

    #[test]
    fn exact_configurations_have_zero_width() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = DiffusionConfig::ic_with_steps(1);
        let est = influence_spread_with_ci(&g, &[0], &cfg, 100, 1.96, &mut rng);
        assert_eq!(est.mean, 2.0);
        assert_eq!(est.half_width, 0.0);
    }

    #[test]
    fn workers_adopt_the_callers_trace_and_results_stay_identical() {
        let g = two_hop_chain();
        let cfg = DiffusionConfig::ic_unbounded();
        let untraced = influence_spread_parallel(&g, &[0], &cfg, 2_000, 4, 17).unwrap();

        let ctx = privim_obs::TraceContext::from_seed(55);
        privim_obs::FlightRecorder::reset();
        privim_obs::FlightRecorder::arm();
        let traced = {
            let _t = ctx.enter();
            influence_spread_parallel(&g, &[0], &cfg, 2_000, 4, 17).unwrap()
        };
        privim_obs::FlightRecorder::disarm();
        assert_eq!(
            traced.to_bits(),
            untraced.to_bits(),
            "trace propagation must not perturb the estimate"
        );
        // Other tests may run spreads concurrently (untraced), so count
        // only events carrying OUR trace: if propagation were broken the
        // workers would have emitted with no trace and none would match.
        let dump = privim_obs::FlightRecorder::dump();
        let adopted = dump
            .iter()
            .filter(|e| e.message == "worker_done" && e.trace_id == ctx.trace_id)
            .count();
        assert!(adopted >= 1, "no worker event carried the caller's trace");
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let g = two_hop_chain();
        let cfg = DiffusionConfig::ic_unbounded();
        let s = influence_spread_parallel(&g, &[0], &cfg, 3, 64, 1).unwrap();
        assert!((1.0..=3.0).contains(&s));
    }
}
