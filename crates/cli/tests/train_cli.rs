//! `privim train` end to end, through the built binary: the model file
//! `--checkpoint` writes is the model whose seeds `train` printed,
//! `--method` applies to crash-safe runs, and the crash-safe train /
//! resume / corrupt cycle replays to the same seeds.

use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

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
