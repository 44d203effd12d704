//! `privim` — command-line front end for the PrivIM reproduction.
//!
//! Subcommands: `generate` (synthetic dataset replicas), `train`
//! (DP-GNN training + seed selection + checkpoint), `select` (seed
//! selection from a saved checkpoint), `evaluate` (influence spread of a
//! seed set), `account` (privacy-accounting numbers), `audit` (empirical
//! membership/topology attacks against trained checkpoints), `serve`
//! (threaded HTTP inference server over a saved checkpoint, or over a
//! crash-safe checkpoint store with `--follow` hot-swap reload), `route`
//! (replicated-tier front-end with health checks, circuit breakers,
//! retries and hedging), `chaos` (deterministic TCP fault-injection
//! proxy), `monitor` (text dashboard over a telemetry file or a live
//! `/metrics` endpoint), `trace-view` (assemble span-export files or a
//! live router's `/debug/tier-trace` into cross-process trace trees
//! with per-hop latency decomposition). Run `privim help` for usage.

mod args;
mod monitor;

use std::process::ExitCode;
use std::sync::Arc;

use args::{Command, ObsArgs, USAGE};
use privim_core::checkpoint::{CheckpointStore, SplitProvenance, TrainCheckpoint};
use privim_core::config::PrivImConfig;
use privim_datasets::split::NodeSplit;
use privim_dp::rdp::{calibrate_sigma, RdpAccountant, SubsampledConfig};
use privim_graph::{io, Graph};
use privim_im::metrics::top_k_seeds;
use privim_im::models::DiffusionConfig;
use privim_im::spread::influence_spread;
use privim_nn::graph_tensors::GraphTensors;
use privim_nn::serialize::Checkpoint;
use privim_obs::{console, console_err};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = exec(&argv);
    privim_obs::flush_sinks();
    code
}

fn exec(argv: &[String]) -> ExitCode {
    let (argv, obs) = match args::split_obs_args(argv) {
        Ok(split) => split,
        Err(msg) => {
            console_err(format!("error: {msg}"));
            return ExitCode::from(2);
        }
    };
    // Span exports are tagged with the subcommand name ("route",
    // "serve", ...) so `trace-view` can tell the tier's processes apart.
    let process = argv.first().cloned().unwrap_or_else(|| "privim".into());
    if let Err(msg) = init_observability(&obs, &process) {
        console_err(format!("error: {msg}"));
        return ExitCode::from(2);
    }
    let command = match args::parse_command(&argv) {
        Ok(c) => c,
        Err(msg) => {
            console_err(format!("error: {msg}"));
            return ExitCode::from(2);
        }
    };
    let code = match run(command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            console_err(format!("error: {msg}"));
            ExitCode::FAILURE
        }
    };
    write_observability_outputs(&obs);
    code
}

/// Installs the stderr and JSONL sinks requested by the global flags (or
/// the `PRIVIM_LOG` environment variable) and enables the profiler when
/// asked. With nothing configured this installs nothing and telemetry
/// stays at its zero-overhead default.
fn init_observability(obs: &ObsArgs, process: &str) -> Result<(), String> {
    if let Some(level) = obs.effective_level() {
        privim_obs::install_sink(Arc::new(privim_obs::StderrSink::new(level)));
    }
    if let Some(path) = &obs.telemetry_out {
        let sink = privim_obs::JsonlSink::create(path)
            .map_err(|e| format!("cannot create telemetry file {path}: {e}"))?;
        privim_obs::install_sink(Arc::new(sink));
    }
    privim_obs::set_profiling(obs.profile);
    if let Some(path) = &obs.recorder_out {
        privim_obs::FlightRecorder::set_dump_path(Some(path.into()));
        privim_obs::FlightRecorder::arm();
        privim_obs::FlightRecorder::install_panic_hook();
    }
    if let Some((site, hit)) = &obs.chaos_kill {
        privim_obs::set_fault_plan(privim_obs::FaultPlan::kill_after(site, *hit));
    }
    if let Some(path) = &obs.span_export {
        privim_obs::arm_span_export(process, path)
            .map_err(|e| format!("cannot create span-export file {path}: {e}"))?;
    }
    Ok(())
}

/// Writes the export files requested by `--profile-out`, `--metrics-out`
/// and `--report-out` once the command has finished, and under
/// `--profile` prints the call tree to stderr. Export failures warn but
/// never change the exit code: the run itself already succeeded.
fn write_observability_outputs(obs: &ObsArgs) {
    privim_obs::flush_sinks();
    let profile = privim_obs::profile_report();
    if obs.profile && !profile.is_empty() {
        eprintln!("\nprofile (total time, self time, calls):");
        eprint!("{}", profile.render_table());
    }
    let write = |path: &str, what: &str, content: String| {
        if let Err(e) = std::fs::write(path, content) {
            console_err(format!("warning: cannot write {what} to {path}: {e}"));
        }
    };
    if let Some(path) = &obs.profile_out {
        write(path, "flamegraph", profile.render_flamegraph());
    }
    if let Some(path) = &obs.metrics_out {
        let text = privim_obs::render_prometheus_with_profile(&privim_obs::snapshot(), &profile);
        write(path, "metrics", text);
    }
    if let Some(path) = &obs.report_out {
        // The HTML report is richest when the event stream is on disk:
        // re-parse it so phases, epochs and the privacy ledger render too.
        let telemetry = obs
            .telemetry_out
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .and_then(|text| privim_obs::RunTelemetry::from_jsonl(&text).ok());
        let html = privim_obs::render_html_report(
            "privim run",
            telemetry.as_ref(),
            &privim_obs::snapshot(),
            &profile,
        );
        write(path, "HTML report", html);
    }
}

fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help => {
            console(USAGE);
            Ok(())
        }
        Command::Generate(a) => {
            privim_obs::info!("run", "start", command = "generate", seed = a.seed);
            let g = a.dataset.generate(a.scale, a.seed);
            let stats = privim_graph::stats::graph_stats(&g);
            io::save_graph(&g, &a.output).map_err(|e| e.to_string())?;
            console(format!(
                "wrote {}: {} nodes, {} edges, avg degree {:.2}",
                a.output, stats.num_nodes, stats.num_edges, stats.avg_degree
            ));
            Ok(())
        }
        Command::Train(a) => {
            privim_obs::info!(
                "run",
                "start",
                command = "train",
                seed = a.seed,
                method = a.method.name(),
            );
            let g = io::load_graph(&a.graph).map_err(|e| e.to_string())?;
            // The split is the first draw from StdRng(a.seed); recording
            // (seed, fraction) in the checkpoint lets a later audit
            // reconstruct the exact train/test membership ground truth.
            let train_fraction = 0.5;
            let mut rng = StdRng::seed_from_u64(a.seed);
            let split = NodeSplit::random(&g, train_fraction, &mut rng);
            let provenance = SplitProvenance {
                split_seed: a.seed,
                train_fraction,
            };
            let config = PrivImConfig {
                epsilon: a.epsilon,
                model: a.model,
                seed_size: a.seed_size.min(g.num_nodes()),
                iterations: a.iterations,
                batch_size: 32,
                hidden: 16,
                subgraph_size: 20,
                hops: 2,
                learning_rate: 0.02,
                ..PrivImConfig::default()
            };
            let released = if a.resume.is_some() || a.checkpoint_dir.is_some() {
                train_crash_safe(&g, &a, &config, &split.train, provenance)?
            } else {
                let result = privim_core::pipeline::run_method_with_candidates(
                    &g,
                    a.method,
                    &config,
                    &split.train,
                    a.seed,
                );
                console(format!(
                    "{}: spread {:.0} over {} nodes | container {} subgraphs | sigma {}",
                    a.method.name(),
                    result.spread,
                    g.num_nodes(),
                    result.container_size,
                    result
                        .sigma
                        .map_or("- (non-private)".to_string(), |s| format!("{s:.3}")),
                ));
                console(format!("seeds: {:?}", result.seeds));
                TrainCheckpoint {
                    split: Some(provenance),
                    ..result.model
                }
            };
            // The released model: the one whose seeds were just printed,
            // with the ledger that accounts for it.
            if let Some(path) = &a.checkpoint {
                CheckpointStore::write(path.as_ref(), &released).map_err(|e| e.to_string())?;
                console(format!("checkpoint written to {path}"));
            }
            Ok(())
        }
        Command::Select(a) => {
            let g = io::load_graph(&a.graph).map_err(|e| e.to_string())?;
            let cp = load_model(&a.checkpoint)?;
            let model = cp.restore().map_err(|e| e.to_string())?;
            let gt = GraphTensors::with_structural_features(&g, cp.in_dim);
            let scores = model.seed_probabilities(&gt);
            let seeds = top_k_seeds(&scores, a.seed_size);
            console(format!("seeds: {seeds:?}"));
            Ok(())
        }
        Command::Evaluate(a) => {
            privim_obs::info!("run", "start", command = "evaluate", seed = 7u64);
            let g = io::load_graph(&a.graph).map_err(|e| e.to_string())?;
            for &s in &a.seeds {
                if s as usize >= g.num_nodes() {
                    return Err(format!(
                        "seed {s} out of range (graph has {} nodes)",
                        g.num_nodes()
                    ));
                }
            }
            let cfg = DiffusionConfig {
                model: privim_im::models::DiffusionModel::IndependentCascade,
                max_steps: a.steps,
            };
            let mut rng = StdRng::seed_from_u64(7);
            let spread = influence_spread(&g, &a.seeds, &cfg, a.trials, &mut rng);
            console(format!(
                "influence spread of {} seeds: {spread:.1} of {} nodes ({:.1}%)",
                a.seeds.len(),
                g.num_nodes(),
                100.0 * spread / g.num_nodes() as f64
            ));
            Ok(())
        }
        Command::Account(a) => {
            let config = SubsampledConfig {
                max_occurrences: a.occurrences,
                batch_size: a.batch,
                container_size: a.container,
            };
            let sigma = calibrate_sigma(a.epsilon, a.delta, &config, a.iterations);
            let mut acct = RdpAccountant::default();
            acct.compose_subsampled_gaussian(sigma, &config, a.iterations);
            let (spent, alpha) = acct.epsilon(a.delta);
            console(format!(
                "target (eps, delta) = ({}, {:.1e}) over T = {} iterations",
                a.epsilon, a.delta, a.iterations
            ));
            console(format!("  noise multiplier sigma = {sigma:.4}"));
            console(format!(
                "  absolute noise std (C = 1) = sigma * N_g = {:.2}",
                sigma * a.occurrences as f64
            ));
            console(format!(
                "  spent epsilon = {spent:.4} (optimal RDP order alpha = {alpha})"
            ));
            if let Some(path) = &a.checkpoint {
                console(format!(
                    "  checkpoint digest = {}",
                    load_model(path)?.digest_hex()
                ));
            }
            Ok(())
        }
        Command::Audit(a) => audit(&a),
        Command::Serve(a) => serve(&a),
        Command::Route(a) => route(&a),
        Command::Chaos(a) => chaos(&a),
        Command::Monitor(a) => monitor::run(&a),
        Command::TraceView(a) => trace_view(&a),
    }
}

/// Assembles exported spans into cross-process trace trees and prints
/// them with per-hop latency decomposition tables. File mode merges the
/// given span-export JSONL files offline; `--addr` asks a live router
/// for its already-assembled `/debug/tier-trace` view (which fans out to
/// the replicas' `/debug/spans` endpoints).
fn trace_view(a: &args::TraceViewArgs) -> Result<(), String> {
    if let Some(addr) = &a.addr {
        use std::time::Duration;
        let mut path = "/debug/tier-trace".to_string();
        if let Some(id) = &a.request_id {
            path = format!("{path}?request_id={id}");
        } else if let Some(t) = &a.trace {
            path = format!("{path}?trace={t}");
        }
        let mut client =
            privim_serve::HttpClient::with_timeout(addr.as_str(), Duration::from_secs(5))
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let resp = client
            .get(&path)
            .map_err(|e| format!("GET {path} on {addr} failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET {path} on {addr}: HTTP {}", resp.status));
        }
        console(String::from_utf8_lossy(&resp.body));
        return Ok(());
    }
    let mut records = Vec::new();
    for file in &a.spans {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read span file {file}: {e}"))?;
        records.extend(privim_obs::parse_spans_jsonl(&text));
    }
    let filter = if let Some(id) = &a.request_id {
        Some(privim_obs::TraceContext::from_request_id(id).trace_id)
    } else if let Some(t) = &a.trace {
        Some(u128::from_str_radix(t, 16).map_err(|e| format!("bad --trace: {e}"))?)
    } else {
        None
    };
    console(privim_obs::render_tier_traces(&records, filter));
    Ok(())
}

/// Runs the empirical privacy attacks against the swept checkpoint
/// directories and prints one line per attack × mode × checkpoint.
/// `--json` additionally writes the standard bench envelope, which is
/// byte-identical across runs with the same seed and inputs.
fn audit(a: &args::AuditArgs) -> Result<(), String> {
    privim_obs::info!("run", "start", command = "audit", seed = a.seed);
    let g = io::load_graph(&a.graph).map_err(|e| e.to_string())?;
    let cfg = privim_audit::AuditConfig {
        attack: match a.attack {
            args::AuditAttack::Membership => privim_audit::Attack::Membership,
            args::AuditAttack::Topology => privim_audit::Attack::Topology,
            args::AuditAttack::Both => privim_audit::Attack::Both,
        },
        mode: match a.mode {
            args::AuditMode::WhiteBox => privim_audit::Mode::WhiteBox,
            args::AuditMode::BlackBox => privim_audit::Mode::BlackBox,
            args::AuditMode::Both => privim_audit::Mode::Both,
        },
        seed: a.seed,
        low_fpr: a.low_fpr,
        max_pairs: a.max_pairs,
        addr: a.addr.clone(),
    };
    let rows = privim_audit::run_audit(&g, &a.checkpoint_dirs, &cfg)?;
    for r in &rows {
        let eps = r
            .epsilon
            .map(|e| format!("{e:.3}"))
            .unwrap_or_else(|| "-".into());
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={v:.4}"))
            .collect();
        console(format!(
            "{:<10} {:<9} {:<16} eps={:<9} digest={} {}",
            r.attack,
            r.mode,
            r.label,
            eps,
            r.digest,
            metrics.join(" ")
        ));
    }
    if let Some(path) = &a.json {
        let counters = privim_obs::snapshot().counters;
        let envelope = privim_audit::render_envelope(a.seed, &rows, &counters);
        std::fs::write(path, &envelope).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Runs the inference server until SIGINT/SIGTERM, then drains in-flight
/// requests and exits cleanly. Serving is post-processing of the released
/// checkpoint, so it spends no additional privacy budget.
fn serve(a: &args::ServeArgs) -> Result<(), String> {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    privim_obs::info!("run", "start", command = "serve", addr = a.addr.clone());
    let app_config = privim_serve::AppConfig {
        graph: a.graph.clone(),
        // In `--follow` mode checkpoints come from the store, not this
        // path; `App::from_parts` only reads the limit fields.
        checkpoint: a.checkpoint.clone().unwrap_or_default(),
        max_trials: a.max_trials,
        spread_threads: a.spread_threads,
        debug_endpoints: a.debug_endpoints,
    };
    let config = privim_serve::ServerConfig {
        addr: a.addr.clone(),
        workers: a.workers,
        queue_depth: a.queue_depth,
        deadline: Duration::from_millis(a.deadline_ms.max(1)),
        slow_threshold: Duration::from_millis(a.slow_ms.max(1)),
        ..privim_serve::ServerConfig::default()
    };
    // SLO tracking + alert rules before the listener opens, so the very
    // first request is counted. The p99 rule sustains a few feeds to
    // ride out cold-start latency; budget burn fires on first breach.
    let slo_target_ms = a.slo_target_ms as f64;
    privim_serve::slo::install(Arc::new(privim_serve::SloTracker::new(
        privim_serve::SloConfig {
            target_p99_ms: slo_target_ms,
            window: a.slo_window,
            error_budget: a.slo_error_budget,
        },
    )));
    privim_obs::watch::arm(vec![
        privim_obs::AlertRule::new(
            "slo_latency_p99",
            "serve.slo.p99_ms",
            privim_obs::RuleKind::Threshold {
                limit: slo_target_ms,
                above: true,
            },
        )
        .sustained(3),
        privim_obs::AlertRule::new(
            "slo_error_budget",
            "serve.slo.budget_burn",
            privim_obs::RuleKind::Threshold {
                limit: 1.0,
                above: true,
            },
        ),
    ]);
    // Bind before loading: `/readyz` answers 503 while the checkpoint and
    // graph load, and flips to 200 the instant the handler is installed.
    let gate = privim_serve::ReadyGate::new();
    let server = privim_serve::Server::start(config, gate.clone())
        .map_err(|e| format!("cannot serve on {}: {e}", a.addr))?;
    let stop = privim_serve::install_shutdown_handler();
    if let Some(dir) = &a.follow {
        console(format!(
            "serving on http://{} following {dir} (poll every {}ms, {} workers); \
             SIGINT/SIGTERM to stop",
            server.local_addr(),
            a.poll_ms,
            a.workers,
        ));
        if let Err(e) = follow_store(dir, a.poll_ms, &app_config, &gate, stop) {
            server.shutdown();
            return Err(e);
        }
    } else {
        let app = match privim_serve::App::load(&app_config) {
            Ok(app) => app,
            Err(e) => {
                server.shutdown();
                return Err(e);
            }
        };
        gate.install(Arc::new(app));
        console(format!(
            "serving on http://{} ({} workers, queue depth {}); SIGINT/SIGTERM to stop",
            server.local_addr(),
            a.workers,
            a.queue_depth
        ));
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    console("shutdown requested; draining in-flight requests");
    // Flight-recorder forensics for the shutdown itself: if a dump path
    // is configured (`--recorder-out`), the last requests survive it.
    if let Some(path) = privim_obs::FlightRecorder::dump_now("sigterm") {
        console(format!("flight recorder dumped to {}", path.display()));
    }
    server.shutdown();
    console("bye");
    Ok(())
}

/// The `--follow` hot-swap loop: serve the newest valid checkpoint-store
/// generation and swap the handler — through [`privim_serve::ReadyGate`],
/// so in-flight requests drain against the generation they started on —
/// whenever a newer valid generation appears. Corrupt or unrestorable
/// generations are skipped with a warning and never examined again; the
/// previous generation keeps serving. Runs until `stop` is set.
fn follow_store(
    dir: &str,
    poll_ms: u64,
    app_config: &privim_serve::AppConfig,
    gate: &privim_serve::ReadyGate,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<(), String> {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    let store = CheckpointStore::open(dir, usize::MAX)
        .map_err(|e| format!("cannot open checkpoint store {dir}: {e}"))?;
    let graph = privim_serve::load_graph(&app_config.graph)?;
    // `installed` is the live generation; `horizon` the newest epoch ever
    // examined (valid or not), so a rotten file is not re-read (and
    // re-warned about) every poll.
    let mut installed: Option<u64> = None;
    let mut horizon: Option<u64> = None;
    while !stop.load(Ordering::SeqCst) {
        let gens = store
            .generations()
            .map_err(|e| format!("cannot list checkpoint store {dir}: {e}"))?;
        let fresh: Vec<_> = gens
            .into_iter()
            .filter(|&(epoch, _)| Some(epoch) > horizon)
            .collect();
        // Newest first; fall back to older fresh generations when the
        // newest is torn or rotted, exactly like `load_latest_valid`.
        for (epoch, path) in fresh.iter().rev() {
            horizon = horizon.max(Some(*epoch));
            let loaded = CheckpointStore::load(path)
                .map_err(|e| e.to_string())
                .and_then(|ckpt| {
                    privim_serve::App::from_parts(graph.clone(), &ckpt.model, app_config)
                });
            match loaded {
                Ok(app) => {
                    let digest = app.checkpoint_digest().to_string();
                    let first = installed.is_none();
                    if first {
                        gate.install(Arc::new(app));
                        privim_obs::info!(
                            "serve",
                            "follow_installed",
                            epoch = *epoch,
                            digest = digest.clone(),
                        );
                    } else {
                        gate.swap(Arc::new(app));
                        privim_obs::counter("serve.follow.swaps").add(1);
                        privim_obs::info!(
                            "serve",
                            "follow_swapped",
                            epoch = *epoch,
                            digest = digest.clone(),
                        );
                    }
                    console(format!(
                        "generation {epoch} live (digest {digest}{})",
                        if first { "" } else { ", hot-swapped" }
                    ));
                    installed = Some(*epoch);
                    break;
                }
                Err(reason) => {
                    privim_obs::counter("serve.follow.rejected").add(1);
                    privim_obs::warn!(
                        "serve",
                        "follow_generation_rejected",
                        epoch = *epoch,
                        path = path.display().to_string(),
                        reason = reason,
                    );
                }
            }
        }
        // Sleep in slices so SIGINT/SIGTERM stays prompt.
        let mut slept = 0;
        while slept < poll_ms && !stop.load(Ordering::SeqCst) {
            let slice = poll_ms.saturating_sub(slept).min(50);
            std::thread::sleep(Duration::from_millis(slice));
            slept += slice;
        }
    }
    Ok(())
}

/// Runs the replicated-tier front-end: health-checked routing over the
/// given replicas with per-replica circuit breakers, bounded retry with
/// deterministic backoff, and optional tail-latency hedging for
/// `/v1/spread`. Like `serve`, it drains in-flight requests on
/// SIGINT/SIGTERM. The router holds no checkpoint state of its own — the
/// health thread's digest-agreement check is what keeps a mixed-version
/// tier from serving inconsistent answers.
fn route(a: &args::RouteArgs) -> Result<(), String> {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    privim_obs::info!(
        "run",
        "start",
        command = "route",
        addr = a.addr.clone(),
        backends = a.backends.len() as u64,
    );
    let router = privim_serve::Router::new(privim_serve::RouterConfig {
        backends: a.backends.clone(),
        retries: a.retries,
        backoff: Duration::from_millis(a.backoff_ms),
        timeout: Duration::from_millis(a.timeout_ms.max(1)),
        hedge_after: a.hedge_ms.map(Duration::from_millis),
        breaker_failures: a.breaker_failures,
        breaker_cooldown: Duration::from_millis(a.breaker_cooldown_ms.max(1)),
        health_interval: Duration::from_millis(a.health_interval_ms.max(1)),
        probe_down_after: a.probe_down_after,
        seed: a.seed,
    })?;
    let health = router.spawn_health_thread();
    let config = privim_serve::ServerConfig {
        addr: a.addr.clone(),
        workers: a.workers,
        queue_depth: a.queue_depth,
        // The front-end deadline must outlive a full retry ladder:
        // every attempt's timeout plus the exponential backoffs between.
        deadline: Duration::from_millis(
            a.timeout_ms
                .max(1)
                .saturating_mul(u64::from(a.retries) + 2)
                .saturating_add(a.backoff_ms.saturating_mul(1u64 << a.retries.min(10))),
        ),
        ..privim_serve::ServerConfig::default()
    };
    let gate = privim_serve::ReadyGate::new();
    let server = privim_serve::Server::start(config, gate.clone())
        .map_err(|e| format!("cannot serve on {}: {e}", a.addr))?;
    gate.install(router.clone());
    console(format!(
        "routing http://{} over {} replica(s): {}; SIGINT/SIGTERM to stop",
        server.local_addr(),
        a.backends.len(),
        a.backends.join(", ")
    ));
    let stop = privim_serve::install_shutdown_handler();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    console("shutdown requested; draining in-flight requests");
    router.stop_flag().store(true, Ordering::SeqCst);
    server.shutdown();
    let _ = health.join();
    console("bye");
    Ok(())
}

/// Runs the deterministic TCP fault-injection proxy until SIGINT/SIGTERM.
/// The fault plan is a pure function of `(seed, connection index)`, so a
/// run against the same traffic replays the same faults — see
/// `privim_serve::chaosproxy`.
fn chaos(a: &args::ChaosArgs) -> Result<(), String> {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    privim_obs::info!(
        "run",
        "start",
        command = "chaos",
        listen = a.listen.clone(),
        upstream = a.upstream.clone(),
        seed = a.seed,
    );
    let proxy = privim_serve::ChaosProxy::start(privim_serve::ChaosConfig {
        listen: a.listen.clone(),
        upstream: a.upstream.clone(),
        seed: a.seed,
        fault_rate: a.fault_rate,
    })
    .map_err(|e| format!("cannot start chaos proxy on {}: {e}", a.listen))?;
    console(format!(
        "chaos proxy on {} -> {} (seed {}, fault rate {}); SIGINT/SIGTERM to stop",
        proxy.local_addr(),
        a.upstream,
        a.seed,
        a.fault_rate
    ));
    let stop = privim_serve::install_shutdown_handler();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    proxy.shutdown();
    console("bye");
    Ok(())
}

/// Crash-safe `train` variant behind `--checkpoint-dir` / `--resume`:
/// atomic checkpoint generations every `--checkpoint-every` epochs, exact
/// ledger-verified resume from the newest valid generation, and seed
/// selection from the finished model. Returns the store's newest
/// generation. `--resume` additionally refuses to start when the
/// directory holds no valid generation — silently retraining from
/// scratch would spend privacy budget the caller thinks was already
/// spent.
fn train_crash_safe(
    g: &Graph,
    a: &args::TrainArgs,
    config: &PrivImConfig,
    candidates: &[u32],
    provenance: SplitProvenance,
) -> Result<TrainCheckpoint, String> {
    use privim_core::pipeline::{calibrate_for, extract_for};
    use privim_core::resume::{train_resumable, ResumeOptions};

    let (dir, must_resume) = match (&a.resume, &a.checkpoint_dir) {
        (Some(d), _) => (d.clone(), true),
        (None, Some(d)) => (d.clone(), false),
        (None, None) => unreachable!("caller checked the flags"),
    };
    let store = CheckpointStore::open(&dir, a.keep).map_err(|e| e.to_string())?;
    if must_resume
        && store
            .load_latest_valid()
            .map_err(|e| e.to_string())?
            .is_none()
    {
        return Err(format!(
            "--resume {dir}: no valid checkpoint generation found \
             (use --checkpoint-dir to start a fresh crash-safe run)"
        ));
    }

    // Extraction is deterministic in (graph, seed), so every resume sees
    // the same container the original invocation trained on. The method
    // picks container, N_g and noise exactly as in the pipeline; only δ
    // differs, 1/(|V|+1) here, which keeps existing stores' σ unchanged.
    let mut rng = StdRng::seed_from_u64(a.seed);
    let (container, occurrence_bound) = extract_for(a.method, g, config, candidates, &mut rng);
    if container.is_empty() {
        return Err("extraction produced no subgraphs; lower the subgraph size".into());
    }
    let privacy = calibrate_for(
        a.method,
        config,
        &container,
        occurrence_bound,
        config.effective_delta(g.num_nodes()),
    );
    // Arm the watchdog over the guard's projected-spend feed so the
    // budget shows up as a `privim_alert_active{rule="epsilon_budget"}`
    // series in `--metrics-out` exports and the HTML report. The rule
    // engine consumes no RNG, so seeded runs stay bit-identical.
    if let Some(budget) = a.epsilon_budget {
        privim_obs::watch::arm(vec![privim_obs::AlertRule::new(
            "epsilon_budget",
            "dp.epsilon_next",
            privim_obs::RuleKind::BurnRate {
                budget,
                warn_fraction: a.budget_warn_fraction,
            },
        )]);
    }
    let outcome = train_resumable(
        a.method.model_kind(config.model),
        &container,
        config,
        privacy.as_ref(),
        a.seed,
        &store,
        ResumeOptions {
            checkpoint_every: a.checkpoint_every,
            keep: a.keep,
            epsilon_budget: a.epsilon_budget,
            budget_warn_fraction: a.budget_warn_fraction,
            split: Some(provenance),
        },
    )
    .map_err(|e| e.to_string())?;

    match outcome.resumed_from {
        Some(epoch) => console(format!(
            "resumed from epoch {epoch}/{} in {dir} (ledger re-verified)",
            config.iterations
        )),
        None => console(format!("fresh crash-safe run; generations in {dir}")),
    }
    if let Some(h) = outcome.budget_halt {
        // `{}` on f64 prints the shortest exact round-trip decimal, so
        // these lines carry the accountant's spend bit-for-bit.
        if h.fresh_steps == 0 {
            console(format!(
                "epsilon budget halt: resume refused at epoch {} — \
                 epsilon spent {} of budget {}, next step would reach {}",
                h.epoch, h.epsilon_spent, h.budget, h.projected_next
            ));
        } else {
            console(format!(
                "epsilon budget halt at epoch {}: epsilon spent {} of budget {}, \
                 next step would reach {} (checkpoint persisted)",
                h.epoch, h.epsilon_spent, h.budget, h.projected_next
            ));
        }
    }
    console(format!(
        "{}: trained {} epochs over {} subgraphs | epsilon spent {}",
        a.method.name(),
        outcome.report.losses.len(),
        container.len(),
        outcome
            .final_epsilon
            .map_or("- (non-private)".to_string(), |e| format!("{e:.4}")),
    ));
    let gt = GraphTensors::with_structural_features(g, config.feature_dim);
    let scores = outcome.model.seed_probabilities(&gt);
    let seeds = top_k_seeds(&scores, config.seed_size);
    console(format!("seeds: {seeds:?}"));
    Ok(outcome.checkpoint)
}

/// The released model in the checkpoint file at `path`.
fn load_model(path: &str) -> Result<Checkpoint, String> {
    CheckpointStore::load(path.as_ref())
        .map(|ckpt| ckpt.model)
        .map_err(|e| format!("cannot load checkpoint {path}: {e}"))
}
