//! `privim train` end to end, through the built binary: the model file
//! `--checkpoint` writes is the model whose seeds `train` printed,
//! `--method` applies to crash-safe runs, the crash-safe train /
//! resume / corrupt cycle replays to the same seeds, a chaos kill leaves
//! a recorder dump naming its site, SIGTERM stops `serve` with a dump
//! and a telemetry stream that name the request, and bad flags exit 2
//! before any library code runs.

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A fresh scratch directory holding a generated 200-node Email replica
/// as `g.bin`.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privim-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    privim(
        &dir,
        &[
            "generate",
            "--dataset",
            "email",
            "--scale",
            "0.15",
            "--output",
            "g.bin",
        ],
    );
    dir
}

/// Runs the CLI in `dir`; returns (success, stdout).
fn run(dir: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_privim"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn privim");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

/// Runs the CLI in `dir` and returns its stdout; panics on failure.
fn privim(dir: &Path, args: &[&str]) -> String {
    let (ok, stdout) = run(dir, args);
    assert!(ok, "privim {args:?} failed; stdout:\n{stdout}");
    stdout
}

/// `base` followed by `extra`.
fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
    base.iter().chain(extra).copied().collect()
}

fn seeds_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("seeds:"))
        .unwrap_or_else(|| panic!("no seeds line in:\n{stdout}"))
}

const TRAIN: [&str; 9] = [
    "train",
    "--graph",
    "g.bin",
    "--k",
    "10",
    "--iterations",
    "6",
    "--seed",
    "42",
];

#[test]
fn checkpoint_file_is_the_model_train_reported() {
    let dir = workdir("release");
    let select = ["select", "--graph", "g.bin", "--k", "10", "--checkpoint"];
    for (file, extra) in [
        ("plain.json", &[][..]),
        ("safe.json", &["--checkpoint-dir", "ckpts"][..]),
    ] {
        let args = with(
            &TRAIN,
            &with(&["--epsilon", "3", "--checkpoint", file], extra),
        );
        let trained = privim(&dir, &args);
        assert!(trained.contains(&format!("checkpoint written to {file}")));
        let selected = privim(&dir, &with(&select, &[file]));
        assert_eq!(
            seeds_line(&trained),
            seeds_line(&selected),
            "select on {file} must reproduce the seeds train printed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn method_applies_to_crash_safe_runs() {
    let dir = workdir("method");
    let egn = with(&TRAIN, &["--epsilon", "3", "--method", "egn"]);
    let pipeline = privim(&dir, &egn);
    let container = pipeline
        .split(" | container ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no container size in:\n{pipeline}"));
    let safe = privim(&dir, &with(&egn, &["--checkpoint-dir", "egn"]));
    assert!(
        safe.contains(&format!("EGN: trained 6 epochs over {container} subgraphs")),
        "crash-safe EGN must train on EGN's container ({container} subgraphs):\n{safe}"
    );

    let non_private = with(
        &TRAIN,
        &[
            "--epsilon",
            "3",
            "--method",
            "non-private",
            "--checkpoint-dir",
            "np",
        ],
    );
    let safe = privim(&dir, &non_private);
    assert!(
        safe.contains("epsilon spent - (non-private)"),
        "a non-private crash-safe run must not train privately:\n{safe}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_safe_train_resume_corrupt_cycle() {
    let dir = workdir("cycle");
    let common = with(&TRAIN, &["--epsilon", "4", "--checkpoint-every", "1"]);

    let fresh = privim(&dir, &with(&common, &["--checkpoint-dir", "ckpts"]));
    assert!(fresh.contains("fresh crash-safe run"), "{fresh}");
    let mut gens: Vec<PathBuf> = std::fs::read_dir(dir.join("ckpts"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("gen-") && name.ends_with(".ckpt")
        })
        .collect();
    gens.sort();
    assert_eq!(gens.len(), 3, "keep defaults to 3");

    // Resuming the finished run replays nothing, re-verifies the ledger
    // exactly, and reports the same seed set.
    let resumed = privim(&dir, &with(&common, &["--resume", "ckpts"]));
    assert!(resumed.contains("resumed from epoch 6/6"), "{resumed}");
    assert!(resumed.contains("ledger re-verified"), "{resumed}");
    assert_eq!(seeds_line(&fresh), seeds_line(&resumed));

    // Corrupt the newest generation: the CRC must reject it, resume must
    // fall back a generation, replay the final epoch, and land on the
    // identical model.
    let mut newest = std::fs::OpenOptions::new()
        .write(true)
        .open(gens.last().unwrap())
        .unwrap();
    newest.seek(SeekFrom::Start(20)).unwrap();
    newest.write_all(&[0xff; 4]).unwrap();
    drop(newest);
    let recovered = privim(&dir, &with(&common, &["--resume", "ckpts"]));
    assert!(recovered.contains("resumed from epoch 5/6"), "{recovered}");
    assert_eq!(seeds_line(&fresh), seeds_line(&recovered));

    // A directory with nothing valid to resume is refused loudly.
    std::fs::create_dir_all(dir.join("empty-ckpts")).unwrap();
    let (ok, _) = run(&dir, &with(&common, &["--resume", "empty-ckpts"]));
    assert!(!ok, "resume from an empty directory must fail");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the CLI in `dir`; returns (success, stderr).
fn run_err(dir: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_privim"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn privim");
    (
        out.status.success(),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn resume_under_another_method_is_refused() {
    // A run killed after generation 3 of a PrivIM* store, resumed with
    // `--method egn`, used to train the rest on EGN's container and
    // report ε above the calibrated 4.
    let dir = workdir("method-resume");
    let common = with(&TRAIN, &["--epsilon", "4", "--checkpoint-every", "1"]);
    let (killed, _) = run(
        &dir,
        &with(
            &common,
            &[
                "--checkpoint-dir",
                "ckpts",
                "--chaos-kill",
                "checkpoint.write.mid:4",
            ],
        ),
    );
    assert!(!killed, "the armed kill must stop the run");
    for method in ["egn", "hp", "privim"] {
        let (ok, stderr) = run_err(
            &dir,
            &with(&common, &["--resume", "ckpts", "--method", method]),
        );
        assert!(!ok, "--method {method} must not resume a PrivIM* store");
        assert!(stderr.contains("refusing to resume"), "{method}: {stderr}");
    }
    // The store is untouched by the refusals and still resumes under its
    // own method.
    let resumed = privim(&dir, &with(&common, &["--resume", "ckpts"]));
    assert!(resumed.contains("resumed from epoch 3/6"), "{resumed}");
    assert!(resumed.contains("epsilon spent 4.0000"), "{resumed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn released_file_is_the_newest_generation_and_json_is_refused() {
    let dir = workdir("pvck");
    let args = with(
        &TRAIN,
        &[
            "--epsilon",
            "4",
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            "ckpts",
            "--checkpoint",
            "safe.ckpt",
        ],
    );
    privim(&dir, &args);
    assert_eq!(
        std::fs::read(dir.join("safe.ckpt")).unwrap(),
        std::fs::read(dir.join("ckpts/gen-000006.ckpt")).unwrap(),
        "--checkpoint must release the store's final generation byte for byte"
    );

    // A model file in the removed JSON layout is not a checkpoint.
    std::fs::write(
        dir.join("model.json"),
        r#"{"hidden":16,"in_dim":8,"kind":"Grat","layers":2,"params":[]}"#,
    )
    .unwrap();
    for args in [
        &[
            "select",
            "--graph",
            "g.bin",
            "--k",
            "5",
            "--checkpoint",
            "model.json",
        ][..],
        &["account", "--epsilon", "4", "--checkpoint", "model.json"][..],
        &[
            "serve",
            "--graph",
            "g.bin",
            "--checkpoint",
            "model.json",
            "--addr",
            "127.0.0.1:0",
        ][..],
    ] {
        let (ok, stderr) = run_err(&dir, args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("cannot load checkpoint model.json"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The number after `epsilon spent ` on the first line containing
/// `marker`.
fn epsilon_spent<'a>(stdout: &'a str, marker: &str) -> &'a str {
    let line = stdout
        .lines()
        .find(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("no {marker:?} line in:\n{stdout}"));
    let (_, rest) = line.split_once("epsilon spent ").expect("epsilon spent");
    rest.split_whitespace().next().unwrap()
}

#[test]
fn epsilon_budget_halts_alerts_and_refuses_resume() {
    let dir = workdir("monitor");
    let common = with(&TRAIN, &["--epsilon", "4", "--checkpoint-every", "1"]);

    // Calibration targets ε=4 over 6 epochs; a budget of 2 must halt
    // mid-run, before the first step whose recorded ε would exceed it.
    let halted = privim(
        &dir,
        &with(
            &common,
            &[
                "--checkpoint-dir",
                "ckpts",
                "--epsilon-budget",
                "2",
                "--telemetry-out",
                "mon.jsonl",
                "--metrics-out",
                "mon.prom",
            ],
        ),
    );
    assert!(halted.contains("checkpoint persisted"), "{halted}");
    // The console prints the accountant's spend as the shortest
    // round-trip f64; the JSONL halt event agrees to the last digit.
    let spent = epsilon_spent(&halted, "epsilon budget halt at epoch");
    assert!(spent.parse::<f64>().unwrap() <= 2.0, "{halted}");
    let jsonl = std::fs::read_to_string(dir.join("mon.jsonl")).unwrap();
    let halt_event = jsonl
        .lines()
        .find(|l| l.contains(r#""message":"budget_halt""#))
        .unwrap_or_else(|| panic!("no budget_halt event in:\n{jsonl}"));
    assert!(
        halt_event.contains(&format!(r#""epsilon_spent":{spent},"#))
            || halt_event.contains(&format!(r#""epsilon_spent":{spent}}}"#)),
        "{halt_event} vs {spent}"
    );

    // The armed epsilon_budget rule is firing in the exported snapshot,
    // and the dashboard renders the halt.
    let prom = std::fs::read_to_string(dir.join("mon.prom")).unwrap();
    assert!(
        prom.lines().any(|l| {
            l.starts_with(r#"privim_alert_active{rule="epsilon_budget""#)
                && l.rsplit_once("} ").is_some_and(|(_, v)| v == "1")
        }),
        "{prom}"
    );
    let dashboard = privim(&dir, &["monitor", "--input", "mon.jsonl"]);
    assert!(dashboard.contains("budget_halt"), "{dashboard}");
    assert!(dashboard.contains("alert"), "{dashboard}");

    // A resume under the same budget takes no fresh step: it is refused
    // with the halted run's spend unchanged.
    let refused = privim(
        &dir,
        &with(&common, &["--resume", "ckpts", "--epsilon-budget", "2"]),
    );
    assert_eq!(
        epsilon_spent(&refused, "resume refused"),
        spent,
        "{refused}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the CLI in `dir`; returns (exit code, stderr).
fn exit_code(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_privim"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn privim");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn out_of_range_values_exit_2_naming_the_flag() {
    let dir = workdir("ranges");
    for (args, flag) in [
        (
            &[
                "generate",
                "--dataset",
                "email",
                "--scale",
                "2",
                "--output",
                "x.bin",
            ][..],
            "--scale",
        ),
        (
            &["train", "--graph", "g.bin", "--epsilon", "0"],
            "--epsilon",
        ),
        (
            &["train", "--graph", "g.bin", "--epsilon", "nan"],
            "--epsilon",
        ),
        (
            &[
                "evaluate", "--graph", "g.bin", "--seeds", "1,2", "--trials", "0", "--steps", "3",
            ],
            "--trials",
        ),
        (&["account", "--epsilon", "0"], "--epsilon"),
        (&["account", "--epsilon", "1", "--delta", "2"], "--delta"),
        (
            &["account", "--epsilon", "1", "--occurrences", "0"],
            "--occurrences",
        ),
        (
            &["account", "--epsilon", "1", "--container", "0"],
            "--container",
        ),
        (&["account", "--epsilon", "1", "--batch", "0"], "--batch"),
        (
            &["account", "--epsilon", "1", "--iterations", "0"],
            "--iterations",
        ),
        (
            &[
                "train",
                "--graph",
                "g.bin",
                "--epsilon",
                "1",
                "--iterations",
                "0",
            ],
            "--iterations",
        ),
    ] {
        let (code, stderr) = exit_code(&dir, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_repeated_flag_exits_2() {
    let dir = workdir("repeat");
    let twice = with(&TRAIN, &["--seed", "2"]);
    let (code, stderr) = exit_code(&dir, &twice);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--seed given twice"), "{stderr}");
    let twice = with(&TRAIN, &["--profile", "--profile"]);
    let (code, stderr) = exit_code(&dir, &twice);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--profile given twice"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_kill_leaves_a_dump_naming_the_site_and_the_run_resumes() {
    let dir = workdir("chaos-kill");
    let common = with(&TRAIN, &["--epsilon", "4", "--checkpoint-every", "1"]);
    let killed = with(
        &common,
        &[
            "--checkpoint-dir",
            "ckpts",
            "--recorder-out",
            "dump.jsonl",
            "--chaos-kill",
            "train.post_backward:2",
        ],
    );
    let (ok, _) = run(&dir, &killed);
    assert!(!ok, "the chaos kill must end the run with a failure");
    let dump = std::fs::read_to_string(dir.join("dump.jsonl")).expect("recorder dump written");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(!lines.is_empty(), "the dump must not be empty");
    assert!(lines[0].contains(r#""reason":"kill""#), "{}", lines[0]);
    let last = lines.last().unwrap();
    assert!(last.contains("site=train.post_backward"), "{last}");
    let resumed = privim(&dir, &with(&common, &["--resume", "ckpts"]));
    assert!(resumed.contains("resumed from epoch"), "{resumed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_on_sigterm_dumps_the_recorder_and_logs_the_request_trace() {
    let dir = workdir("serve-sigterm");
    let train = with(&TRAIN, &["--epsilon", "4", "--checkpoint", "m.ckpt"]);
    privim(&dir, &train);
    let mut server = Command::new(env!("CARGO_BIN_EXE_privim"))
        .args([
            "serve",
            "--graph",
            "g.bin",
            "--checkpoint",
            "m.ckpt",
            "--addr",
            "127.0.0.1:0",
            "--debug-endpoints",
            "--telemetry-out",
            "events.jsonl",
            "--recorder-out",
            "dump.jsonl",
        ])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn privim serve");
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "serve exited before listening"
        );
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let rid = "cli-trace-1";
    let trace = privim_obs::TraceContext::from_request_id(rid).trace_id_hex();
    let mut client = privim_serve::HttpClient::connect(addr.as_str()).unwrap();
    let resp = client
        .post_with_headers("/v1/seeds", &[("X-Request-Id", rid)], br#"{"k": 3}"#)
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-request-id"), Some(rid));
    let debug = client.get("/debug/trace").unwrap();
    assert!(String::from_utf8_lossy(&debug.body).contains(&trace));
    drop(client);

    let pid = server.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(kill.success(), "kill -TERM {pid}");
    // Drain stdout so the shutdown lines never meet a closed pipe.
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    let status = server.wait().unwrap();
    assert_eq!(
        status.code(),
        Some(0),
        "serve must exit 0 on SIGTERM: {rest}"
    );

    let dump = std::fs::read_to_string(dir.join("dump.jsonl")).expect("recorder dump written");
    let head = dump.lines().next().expect("the dump must not be empty");
    assert!(head.contains(r#""reason":"sigterm""#), "{head}");
    assert!(
        dump.contains(&trace),
        "the dump must hold the request's trace"
    );
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("telemetry written");
    let request = events
        .lines()
        .find(|l| l.contains(&format!(r#""request_id":"{rid}""#)))
        .unwrap_or_else(|| panic!("no event carries request id {rid}:\n{events}"));
    assert!(
        request.contains(&format!(r#""trace_id":"{trace}""#)),
        "{request}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
