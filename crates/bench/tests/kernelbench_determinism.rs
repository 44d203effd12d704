//! `kernelbench`'s default mode is deterministic with the profiler and
//! work counters armed: two runs with the same seed write byte-identical
//! JSON, so the instrumentation has no data-dependent side effects.

use std::path::PathBuf;
use std::process::Command;

fn run(out: &PathBuf) -> Vec<u8> {
    let status = Command::new(env!("CARGO_BIN_EXE_kernelbench"))
        .args(["--seed", "42", "--json"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn kernelbench");
    assert!(status.success(), "kernelbench exited with {status}");
    let bytes = std::fs::read(out).expect("kernelbench wrote its JSON");
    std::fs::remove_file(out).ok();
    bytes
}

#[test]
fn two_seeded_runs_write_byte_identical_json() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let a = run(&dir.join(format!("privim-kernels-{pid}-a.json")));
    let b = run(&dir.join(format!("privim-kernels-{pid}-b.json")));
    assert!(!a.is_empty());
    assert!(
        a == b,
        "two `kernelbench --seed 42` runs wrote different JSON"
    );
}
