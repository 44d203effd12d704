//! End-to-end telemetry: a private pipeline run with a JSONL sink
//! installed must produce an event stream that parses back into a
//! [`privim_obs::RunTelemetry`] carrying per-epoch losses, clip
//! fractions, phase timings, the cumulative ε spend and the privacy
//! ledger — and neither installing the sink nor enabling the profiler
//! may change the run's numeric results (instrumentation never consumes
//! RNG).

use std::sync::{Arc, Mutex};

use privim_core::config::PrivImConfig;
use privim_core::pipeline::{run_method, Method, PipelineResult};
use privim_datasets::generators::holme_kim;
use privim_obs::{JsonlSink, Level, RunTelemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

// Sinks, the watchdog and the metrics registry are process-global, and
// the harness runs #[test] functions of one binary in parallel threads:
// every test here serializes on this gate.
static GATE: Mutex<()> = Mutex::new(());

fn fast_config() -> PrivImConfig {
    PrivImConfig {
        subgraph_size: 10,
        walk_length: 100,
        hops: 2,
        sampling_rate: Some(0.5),
        freq_threshold: 4,
        feature_dim: 4,
        hidden: 8,
        batch_size: 6,
        iterations: 6,
        seed_size: 10,
        epsilon: Some(4.0),
        ..PrivImConfig::default()
    }
}

fn run_once(g: &privim_graph::Graph, cfg: &PrivImConfig) -> PipelineResult {
    run_method(g, Method::PrivImStar, cfg, 7)
}

#[test]
fn jsonl_telemetry_round_trips_and_leaves_results_unchanged() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(1);
    let g = holme_kim(250, 4, 0.4, 1.0, &mut rng);
    let cfg = fast_config();

    // Reference run with telemetry fully disabled.
    let baseline = run_once(&g, &cfg);

    // Instrumented run: JSONL sink at Debug level.
    let path = std::env::temp_dir().join("privim-core-telemetry-e2e.jsonl");
    privim_obs::install_sink(Arc::new(
        JsonlSink::create_with_level(&path, Level::Debug).expect("create telemetry file"),
    ));
    let instrumented = run_once(&g, &cfg);
    privim_obs::take_sinks();

    // Telemetry must not perturb the run: same RNG draws, same outcome.
    assert_eq!(
        baseline.seeds, instrumented.seeds,
        "sink changed the RNG stream"
    );
    assert_eq!(baseline.spread, instrumented.spread);
    assert_eq!(baseline.sigma, instrumented.sigma);
    assert_eq!(baseline.container_size, instrumented.container_size);

    let text = std::fs::read_to_string(&path).expect("read telemetry file");
    std::fs::remove_file(&path).ok();
    let report = RunTelemetry::from_jsonl(&text).expect("telemetry parses back");

    // Per-epoch training records with loss + clip diagnostics.
    assert_eq!(report.epochs.len(), cfg.iterations);
    for (i, e) in report.epochs.iter().enumerate() {
        assert_eq!(e.epoch, i as u64);
        assert!(e.loss.is_finite(), "epoch {i} loss not recorded");
        let clip = e
            .clip_fraction
            .expect("private run must record clip fraction");
        assert!((0.0..=1.0).contains(&clip));
        assert!(e.grad_norm_pre.unwrap() >= e.grad_norm_post.unwrap() - 1e-12);
        assert!(e.noise_std.unwrap() > 0.0);
        assert!(e.epsilon_spent.unwrap() > 0.0);
    }

    // Phase timings from the pipeline spans.
    for phase in [
        "pipeline",
        "extraction",
        "calibration",
        "training",
        "inference",
    ] {
        let secs = report
            .phase_secs(phase)
            .unwrap_or_else(|| panic!("missing phase {phase}"));
        assert!(secs >= 0.0);
    }
    assert!(
        report.phase_secs("pipeline").unwrap() >= report.phase_secs("training").unwrap(),
        "outer span must cover the training span"
    );

    // Cumulative ε spend: monotone, ends at (close to) the target.
    assert_eq!(report.epsilon_trace.len(), cfg.iterations);
    for w in report.epsilon_trace.windows(2) {
        assert!(w[1] > w[0], "epsilon spend must be monotone");
    }
    let final_eps = report.final_epsilon().unwrap();
    assert!(
        final_eps <= cfg.epsilon.unwrap() * 1.0001,
        "overspent: {final_eps}"
    );
    assert!(
        final_eps > cfg.epsilon.unwrap() * 0.5,
        "implausibly small spend: {final_eps}"
    );

    // The per-epoch epsilon_spent agrees with the dp/epsilon trace.
    assert_eq!(
        report.epochs.last().unwrap().epsilon_spent.unwrap(),
        *report.epsilon_trace.last().unwrap()
    );

    // Privacy-budget ledger: one record per noisy step, carrying the
    // mechanism parameters, and replayable offline to the same ε.
    assert_eq!(
        report.ledger.len(),
        cfg.iterations,
        "one ledger record per iteration"
    );
    for (i, rec) in report.ledger.iter().enumerate() {
        assert_eq!(rec.step, i as u64 + 1);
        assert_eq!(rec.mechanism, "subsampled_gaussian");
        assert_eq!(
            Some(rec.sigma),
            instrumented.sigma,
            "ledger σ must match the run's"
        );
        assert!(rec.sensitivity > 0.0);
        assert!(rec.sampling_rate > 0.0 && rec.sampling_rate <= 1.0);
        assert!(
            (rec.epsilon_after - report.epsilon_trace[i]).abs() <= 1e-9,
            "ledger ε diverges from the dp/epsilon trace at step {}",
            i + 1
        );
    }
    let replayed = privim_dp::replay_records(&report.ledger, &privim_dp::rdp::DEFAULT_ORDERS);
    assert_eq!(replayed.len(), report.ledger.len());
    for (rec, &(eps, _alpha)) in report.ledger.iter().zip(&replayed) {
        assert!(
            (rec.epsilon_after - eps).abs() <= 1e-9,
            "replaying the ledger must reproduce the accountant: step {} recorded {} vs {}",
            rec.step,
            rec.epsilon_after,
            eps
        );
    }

    // Metrics side-channel: the global registry saw the same run.
    let snap = privim_obs::snapshot();
    assert!(snap.counters.get("train.iterations").copied().unwrap_or(0) >= cfg.iterations as u64);
    assert!(snap.histograms.contains_key("span.training"));

    // Flight recorder armed under a run-scoped trace context: capture
    // copies bytes into per-thread rings and never touches the RNG, so
    // the run stays bit-identical — and the rings must hold events
    // stamped with the entered trace.
    let run_ctx = privim_obs::TraceContext::from_seed(7);
    privim_obs::FlightRecorder::reset();
    privim_obs::FlightRecorder::arm();
    let recorded = {
        let _t = run_ctx.enter();
        run_once(&g, &cfg)
    };
    privim_obs::FlightRecorder::disarm();
    assert_eq!(
        baseline.seeds, recorded.seeds,
        "recorder/tracing changed the RNG stream"
    );
    assert_eq!(baseline.spread, recorded.spread);
    assert_eq!(baseline.sigma, recorded.sigma);
    assert!(
        privim_obs::FlightRecorder::dump()
            .iter()
            .any(|e| e.trace_id == run_ctx.trace_id),
        "armed recorder must capture events under the run trace"
    );

    // Span export armed: every span scope closed under the entered run
    // context is exported, the training path's included; export only
    // copies bytes out, so arming it must leave seeded outputs
    // bit-identical.
    let span_path = std::env::temp_dir().join("privim-core-telemetry-spans.jsonl");
    std::fs::remove_file(&span_path).ok();
    privim_obs::arm_span_export("core-test", span_path.to_str().unwrap()).expect("arm span export");
    assert!(privim_obs::span_export_armed());
    let span_armed = {
        let _t = run_ctx.enter();
        run_once(&g, &cfg)
    };
    privim_obs::disarm_span_export();
    std::fs::remove_file(&span_path).ok();
    assert_eq!(
        baseline.seeds, span_armed.seeds,
        "span export changed the RNG stream"
    );
    assert_eq!(baseline.spread, span_armed.spread);
    assert_eq!(baseline.sigma, span_armed.sigma);

    // Profiler off (the default): the baseline/instrumented equality above
    // already proves bit-identical output. Profiler on: still bit-identical
    // (scopes read clocks, never the RNG), and the call tree is populated.
    privim_obs::set_profiling(true);
    let profiled = run_once(&g, &cfg);
    privim_obs::set_profiling(false);
    assert_eq!(
        baseline.seeds, profiled.seeds,
        "profiler changed the RNG stream"
    );
    assert_eq!(baseline.spread, profiled.spread);
    assert_eq!(baseline.sigma, profiled.sigma);

    let prof = privim_obs::profile_report();
    assert!(!prof.is_empty(), "profiled run must record scopes");
    for scope in ["training", "nn.matmul", "nn.matmul.bwd"] {
        assert!(
            prof.rows.iter().any(|r| r.name == scope && r.calls > 0),
            "missing profile scope {scope}:\n{}",
            prof.render_table()
        );
    }

    // Roofline work counters: the bit-identity assertions above ran with
    // profiling *and* work counters armed, so the hot kernels must carry
    // exact flop/byte/item attribution in the merged call tree.
    for scope in ["nn.matmul", "train.clip_accumulate"] {
        let row = prof
            .rows
            .iter()
            .find(|r| r.name == scope)
            .unwrap_or_else(|| panic!("missing work-counter scope {scope}"));
        assert!(row.has_work(), "{scope} recorded no work counters");
        assert!(
            row.arithmetic_intensity().is_some(),
            "{scope} must derive a roofline intensity (flops and bytes both set)"
        );
        assert!(row.items > 0, "{scope} item counter empty");
    }

    // The parallel DP-SGD step does the same kernel work at any worker
    // count: the (flops, bytes, items) totals of each scope, summed over
    // every thread's tree, match at 1 and 2 threads.
    let work_totals = |threads: usize| {
        privim_obs::reset_profile();
        privim_obs::set_profiling(true);
        let run = privim_core::train::with_step_threads(threads, || run_once(&g, &cfg));
        privim_obs::set_profiling(false);
        assert_eq!(baseline.seeds, run.seeds, "{threads} step threads");
        let prof = privim_obs::profile_report();
        ["nn.matmul", "train.clip_accumulate"].map(|scope| {
            prof.rows
                .iter()
                .filter(|r| r.name == scope)
                .fold((0, 0, 0), |(f, b, i), r| {
                    (f + r.flops, b + r.bytes, i + r.items)
                })
        })
    };
    let serial = work_totals(1);
    assert!(serial.iter().all(|&(f, b, i)| f > 0 && b > 0 && i > 0));
    assert_eq!(work_totals(2), serial);
    privim_obs::reset_profile();
}

// Worker threads open their scopes under the caller's, so the profile
// tree has the same rows, calls and work at any worker count: the DP-SGD
// step's helpers, the Monte-Carlo fan-out and, on a graph above the work
// floor, the row-parallel inference kernels.
#[test]
fn profile_rows_are_the_same_at_one_and_two_threads() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(3);
    let g = holme_kim(400, 4, 0.4, 1.0, &mut rng);
    let cfg = PrivImConfig {
        hidden: 32,
        ..fast_config()
    };
    assert!(g.num_edges() * cfg.hidden >= privim_nn::par::WORK_FLOOR);
    let rows = |threads: usize| {
        privim_obs::reset_profile();
        privim_obs::set_profiling(true);
        let run = privim_core::train::with_step_threads(threads, || run_once(&g, &cfg));
        privim_obs::set_profiling(false);
        let rows: Vec<_> = privim_obs::profile_report()
            .rows
            .into_iter()
            .map(|r| (r.path, r.calls, r.flops, r.bytes, r.items))
            .collect();
        (run.seeds, rows)
    };
    let (serial_seeds, mut serial) = rows(1);
    let (seeds, mut parallel) = rows(2);
    privim_obs::reset_profile();
    assert_eq!(seeds, serial_seeds);
    // Siblings are listed by time, which differs run to run.
    serial.sort();
    parallel.sort();
    let paths = |rows: &[(String, u64, u64, u64, u64)]| -> Vec<String> {
        rows.iter().map(|r| r.0.clone()).collect()
    };
    assert_eq!(paths(&parallel), paths(&serial));
    assert_eq!(parallel, serial);
    for kernel in ["nn.attention", "nn.matmul", "train.clip_accumulate"] {
        assert!(
            serial
                .iter()
                .any(|r| r.0.ends_with(kernel) && r.0.contains(';')),
            "{kernel} runs under a phase"
        );
        assert!(
            !serial.iter().any(|r| r.0 == kernel),
            "{kernel} at top level"
        );
    }
}

// Both entry points run one epoch loop, so the crash-safe one reports the
// same per-epoch record and the same ledger as the pipeline case above.
#[test]
fn resumable_training_emits_the_pipeline_epoch_record() {
    use privim_core::checkpoint::CheckpointStore;
    use privim_core::resume::{train_resumable, ResumeOptions};
    use privim_core::sampling::extract_dual_stage;
    use privim_core::train::{NoiseKind, PrivacySetup};
    use privim_nn::models::ModelKind;

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(5);
    let g = holme_kim(200, 4, 0.4, 1.0, &mut rng);
    let cfg = fast_config();
    let candidates: Vec<privim_graph::NodeId> = g.nodes().collect();
    let container = extract_dual_stage(&g, &cfg, &candidates, &mut rng).container;
    let setup = PrivacySetup::calibrate(
        4.0,
        1e-4,
        &cfg,
        container.len(),
        cfg.freq_threshold,
        NoiseKind::Gaussian,
    );
    let dir = std::env::temp_dir().join("privim-core-telemetry-resumable");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::open(&dir, 3).unwrap();

    let path = std::env::temp_dir().join("privim-core-telemetry-resumable.jsonl");
    privim_obs::install_sink(Arc::new(
        JsonlSink::create_with_level(&path, Level::Debug).expect("create telemetry file"),
    ));
    let out = train_resumable(
        ModelKind::Gcn,
        &container,
        &cfg,
        Some(&setup),
        9,
        &store,
        ResumeOptions::default(),
    )
    .unwrap();
    privim_obs::take_sinks();
    std::fs::remove_dir_all(&dir).ok();
    let text = std::fs::read_to_string(&path).expect("read telemetry file");
    std::fs::remove_file(&path).ok();
    let report = RunTelemetry::from_jsonl(&text).expect("telemetry parses back");

    assert_eq!(report.epochs.len(), cfg.iterations);
    assert_eq!(report.epsilon_trace.len(), cfg.iterations);
    for (i, e) in report.epochs.iter().enumerate() {
        assert_eq!(e.epoch, i as u64);
        assert!(e.grad_norm_pre.unwrap() >= e.grad_norm_post.unwrap() - 1e-12);
        assert!(e.noise_std.unwrap() > 0.0);
        assert_eq!(
            e.epsilon_spent.unwrap(),
            report.epsilon_trace[i],
            "epoch {i}: epsilon_spent disagrees with the dp/epsilon trace"
        );
    }
    assert_eq!(report.final_epsilon(), out.final_epsilon);

    // One ledger record per noisy step, matching the trace.
    assert_eq!(report.ledger.len(), cfg.iterations);
    for (i, rec) in report.ledger.iter().enumerate() {
        assert_eq!(rec.step, i as u64 + 1);
        assert_eq!(rec.sigma, setup.sigma);
        assert!((rec.epsilon_after - report.epsilon_trace[i]).abs() <= 1e-9);
    }
}

// The ε budget guard: the halt must land exactly before the first
// overspending step, carry the accountant's numbers bit-for-bit, leave
// seeded outputs bit-identical with the watchdog armed, and refuse
// further steps on resume under the same budget.
#[test]
fn budget_guard_halts_exactly_and_keeps_runs_bit_identical() {
    use privim_core::checkpoint::CheckpointStore;
    use privim_core::resume::{train_resumable, ResumeOptions};
    use privim_core::sampling::extract_dual_stage;
    use privim_core::train::{NoiseKind, PrivacySetup};
    use privim_nn::models::{GnnModel, ModelKind};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());

    let mut rng = StdRng::seed_from_u64(11);
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
    let candidates: Vec<privim_graph::NodeId> = g.nodes().collect();
    let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
    let setup = PrivacySetup::calibrate(
        3.0,
        1e-4,
        &cfg,
        out.container.len(),
        cfg.freq_threshold,
        NoiseKind::Gaussian,
    );
    let store = |name: &str| {
        let dir = std::env::temp_dir().join(format!("privim-budget-e2e-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointStore::open(&dir, 3).unwrap()
    };
    let run = |st: &CheckpointStore, budget: Option<f64>| {
        train_resumable(
            ModelKind::Gcn,
            &out.container,
            &cfg,
            Some(&setup),
            77,
            st,
            ResumeOptions {
                epsilon_budget: budget,
                ..ResumeOptions::default()
            },
        )
        .unwrap()
    };
    let weights = |model: &dyn GnnModel| -> Vec<u64> {
        model
            .params()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
            .collect()
    };

    // Reference: unguarded, watchdog disarmed. Its ledger carries the
    // exact cumulative ε after each of the 6 steps.
    let st_ref = store("ref");
    let reference = run(&st_ref, None);
    assert!(reference.budget_halt.is_none());
    let (ckpt, _) = st_ref.load_latest_valid().unwrap().unwrap();
    let eps_trace: Vec<f64> = ckpt
        .ledger
        .as_ref()
        .unwrap()
        .to_records()
        .iter()
        .map(|r| r.epsilon_after)
        .collect();
    assert_eq!(eps_trace.len(), cfg.iterations);

    // Generous budget + armed watchdog: completes all epochs and the
    // output is bit-identical — the guard and rule engine consume no RNG.
    privim_obs::watch::arm(vec![privim_obs::AlertRule::new(
        "epsilon_budget",
        "dp.epsilon_next",
        privim_obs::RuleKind::BurnRate {
            budget: eps_trace[5] * 2.0,
            warn_fraction: 0.8,
        },
    )]);
    let st_armed = store("armed");
    let armed = run(&st_armed, Some(eps_trace[5] * 2.0));
    assert!(armed.budget_halt.is_none(), "generous budget must not halt");
    assert_eq!(
        weights(reference.model.as_ref()),
        weights(armed.model.as_ref()),
        "armed watchdog changed the training stream"
    );
    assert_eq!(reference.report.losses, armed.report.losses);
    assert_eq!(
        reference.final_epsilon.unwrap().to_bits(),
        armed.final_epsilon.unwrap().to_bits()
    );
    privim_obs::watch::disarm();

    // A budget strictly between the spend after 3 and after 4 steps must
    // halt exactly before step 4, reporting both sides bit-for-bit.
    let budget = (eps_trace[2] + eps_trace[3]) / 2.0;
    let path = std::env::temp_dir().join("privim-budget-e2e-halt.jsonl");
    privim_obs::install_sink(Arc::new(
        JsonlSink::create_with_level(&path, Level::Debug).expect("create telemetry file"),
    ));
    let st_halt = store("halt");
    let halted = run(&st_halt, Some(budget));
    privim_obs::take_sinks();
    let halt = halted.budget_halt.expect("tight budget must halt");
    assert_eq!(halt.epoch, 3, "halt before the first overspending step");
    assert_eq!(halt.fresh_steps, 3);
    assert_eq!(halt.budget, budget);
    assert_eq!(
        halt.epsilon_spent.to_bits(),
        eps_trace[2].to_bits(),
        "committed spend must be accountant-exact"
    );
    assert_eq!(
        halt.projected_next.to_bits(),
        eps_trace[3].to_bits(),
        "projected spend must equal what recording the step would cost"
    );
    assert_eq!(halted.report.losses, reference.report.losses[..3]);
    assert_eq!(
        halted.final_epsilon.unwrap().to_bits(),
        eps_trace[2].to_bits()
    );
    // The halt persisted a checkpoint at the halt epoch with the ledger
    // stopped at the committed spend.
    let (halt_ckpt, _) = st_halt.load_latest_valid().unwrap().unwrap();
    assert_eq!(halt_ckpt.epoch, 3);
    assert_eq!(
        halt_ckpt
            .ledger
            .as_ref()
            .unwrap()
            .cumulative_epsilon()
            .unwrap()
            .to_bits(),
        eps_trace[2].to_bits()
    );
    // The halt is a structured, greppable telemetry event.
    let text = std::fs::read_to_string(&path).expect("read telemetry file");
    std::fs::remove_file(&path).ok();
    let halt_line = text
        .lines()
        .find(|l| l.contains("\"budget_halt\""))
        .expect("budget_halt event in the stream");
    let event = privim_obs::json::parse(halt_line).unwrap();
    let fields = event.get("fields").unwrap();
    assert_eq!(fields.get("epoch").unwrap().as_u64(), Some(3));
    assert_eq!(
        fields.get("epsilon_spent").unwrap().as_f64(),
        Some(eps_trace[2])
    );
    assert_eq!(
        fields.get("projected_next").unwrap().as_f64(),
        Some(eps_trace[3])
    );

    // Resume under the same budget: refuses to take any further step,
    // with the model exactly where the halt left it.
    let resumed = run(&st_halt, Some(budget));
    let refusal = resumed
        .budget_halt
        .expect("resume must refuse to overspend");
    assert_eq!(refusal.epoch, 3);
    assert_eq!(refusal.fresh_steps, 0, "no step may run on resume");
    assert_eq!(refusal.epsilon_spent.to_bits(), eps_trace[2].to_bits());
    assert_eq!(resumed.resumed_from, Some(3));
    assert_eq!(
        weights(resumed.model.as_ref()),
        weights(halted.model.as_ref())
    );

    for st in [st_ref, st_armed, st_halt] {
        std::fs::remove_dir_all(st.dir()).ok();
    }
}
