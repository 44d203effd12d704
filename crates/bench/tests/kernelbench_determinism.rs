//! `kernelbench`'s default mode is deterministic with the profiler and
//! work counters armed: two runs with the same seed write byte-identical
//! JSON, so the instrumentation has no data-dependent side effects. And
//! every row's checksum and work counters equal the committed
//! `BENCH_kernels.json`, so a kernel change that moves one output bit or
//! one counted flop fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

use privim_obs::json::{self, JsonValue};

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

/// `(kernel, size)` → `(checksum bits, flops, bytes, items)` per row.
fn gated_fields(envelope: &[u8]) -> Vec<((String, String), [u64; 4])> {
    let text = std::str::from_utf8(envelope).expect("utf-8 JSON");
    let envelope = json::parse(text).expect("valid JSON");
    let rows = envelope.get("rows").and_then(JsonValue::as_array);
    let row = |r: &JsonValue| {
        let text = |key| r.get(key).and_then(JsonValue::as_str).unwrap().to_string();
        let count = |key| r.get(key).and_then(JsonValue::as_u64).unwrap();
        let checksum = r.get("checksum").and_then(JsonValue::as_f64).unwrap();
        let fields = [
            checksum.to_bits(),
            count("flops"),
            count("bytes"),
            count("items"),
        ];
        ((text("kernel"), text("size")), fields)
    };
    rows.expect("a rows array").iter().map(row).collect()
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

#[test]
fn seeded_rows_equal_the_committed_baseline() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let fresh = run(&dir.join(format!("privim-kernels-{pid}-gate.json")));
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    let committed = std::fs::read(&committed).expect("BENCH_kernels.json at the repo root");
    let (fresh, committed) = (gated_fields(&fresh), gated_fields(&committed));
    let names = |rows: &[((String, String), [u64; 4])]| -> Vec<(String, String)> {
        rows.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&fresh), names(&committed), "kernelbench rows");
    for ((name, got), (_, want)) in fresh.iter().zip(&committed) {
        assert_eq!(
            got, want,
            "{name:?}: [checksum bits, flops, bytes, items] differ from BENCH_kernels.json"
        );
    }
}
