//! Empirical privacy auditing for trained PrivIM checkpoints.
//!
//! The accountant proves an (ε, δ) upper bound; this crate measures the
//! lower bound — what a concrete adversary actually extracts from the
//! trained model. Two attacks, each runnable white-box (direct
//! checkpoint + graph access) and black-box (only `POST /v1/seeds` and
//! `POST /v1/spread` against a live `privim-serve`):
//!
//! * [`membership`] — node membership inference: does thresholding the
//!   model's per-node score distinguish training-split nodes from
//!   held-out nodes? Reported as directional ROC AUC and TPR at a low
//!   FPR.
//! * [`topology`] — edge reconstruction: do output similarities reveal
//!   which node pairs are edges? Reported as precision at `|E|`.
//!
//! [`run_audit`] sweeps a list of checkpoint directories (typically the
//! same run at several ε budgets), labels every row with the ledger's
//! cumulative ε and the model digest, and everything downstream of the
//! seed is deterministic: same seed, same graph, same checkpoints —
//! byte-identical [`render_envelope`] output.

pub mod blackbox;
pub mod membership;
pub mod roc;
pub mod topology;

use std::collections::BTreeMap;
use std::path::Path;

use privim_core::checkpoint::{CheckpointStore, TrainCheckpoint};
use privim_datasets::NodeSplit;
use privim_graph::Graph;
use privim_nn::graph_tensors::GraphTensors;
use privim_obs::fault::splitmix64;
use privim_obs::json::{self, JsonValue, ToJson};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which attack(s) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    Membership,
    Topology,
    Both,
}

impl Attack {
    fn membership(self) -> bool {
        matches!(self, Attack::Membership | Attack::Both)
    }

    fn topology(self) -> bool {
        matches!(self, Attack::Topology | Attack::Both)
    }
}

/// Adversary access level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    WhiteBox,
    BlackBox,
    Both,
}

impl Mode {
    fn white_box(self) -> bool {
        matches!(self, Mode::WhiteBox | Mode::Both)
    }

    fn black_box(self) -> bool {
        matches!(self, Mode::BlackBox | Mode::Both)
    }
}

/// Edge/non-edge pairs per class probed through `/v1/spread` in
/// black-box topology audits. Small on purpose: each pair costs up to
/// three HTTP round trips.
const SPREAD_PROBE_PAIRS: usize = 16;

/// Attack harness configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    pub attack: Attack,
    pub mode: Mode,
    /// Master seed: derives the topology candidate sampling stream and
    /// the run trace id.
    pub seed: u64,
    /// FPR budget for the membership TPR-at-low-FPR metric.
    pub low_fpr: f64,
    /// Cap on the topology candidate pair universe.
    pub max_pairs: usize,
    /// `host:port` of a live server; required for black-box modes.
    pub addr: Option<String>,
}

/// One attack × mode × checkpoint result, ready for the envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRow {
    /// `"membership"` or `"topology"`.
    pub attack: &'static str,
    /// `"white_box"` or `"black_box"`.
    pub mode: &'static str,
    /// The checkpoint directory's basename.
    pub label: String,
    /// Stable model parameter digest ([`privim_nn::serialize::Checkpoint::digest_hex`]).
    pub digest: String,
    /// The ledger's cumulative ε (None for non-private checkpoints).
    pub epsilon: Option<f64>,
    /// Ordered numeric metrics, rendered in this order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// White-box per-node scores: restore the model and run inference on
/// the full graph, exactly as `privim-serve` does at load time.
pub fn whitebox_scores(g: &Graph, tc: &TrainCheckpoint) -> Result<Vec<f64>, String> {
    let model = tc
        .model
        .restore()
        .map_err(|e| format!("cannot restore model: {e}"))?;
    let gt = GraphTensors::with_structural_features(g, tc.model.in_dim);
    Ok(model.seed_probabilities(&gt))
}

/// Reconstructs the train/test partition the checkpoint was trained
/// under from its persisted split provenance.
pub fn reconstruct_split(g: &Graph, tc: &TrainCheckpoint) -> Result<NodeSplit, String> {
    let prov = tc.split.ok_or_else(|| {
        "checkpoint has no split provenance (format v2, written by an older build); \
         retrain to make it auditable"
            .to_string()
    })?;
    let mut rng = StdRng::seed_from_u64(prov.split_seed);
    Ok(NodeSplit::random(g, prov.train_fraction, &mut rng))
}

/// Runs the configured attacks against one score vector.
///
/// `pair_seed` pins the topology candidate universe; callers pass the
/// same value for every checkpoint and mode so precision numbers in a
/// sweep are measured on the same universe.
#[allow(clippy::too_many_arguments)]
pub fn attack_rows(
    scores: &[f64],
    g: &Graph,
    split: &NodeSplit,
    mode_name: &'static str,
    label: &str,
    digest: &str,
    epsilon: Option<f64>,
    cfg: &AuditConfig,
    pair_seed: u64,
) -> Vec<AuditRow> {
    let mut rows = Vec::new();
    if cfg.attack.membership() {
        let m = membership::membership_attack(scores, &split.train, &split.test, cfg.low_fpr);
        rows.push(AuditRow {
            attack: "membership",
            mode: mode_name,
            label: label.to_string(),
            digest: digest.to_string(),
            epsilon,
            metrics: vec![
                ("attack_auc", m.attack_auc),
                ("tpr_at_low_fpr", m.tpr_at_low_fpr),
                ("flipped", if m.flipped { 1.0 } else { 0.0 }),
                ("num_members", m.num_members as f64),
                ("num_non_members", m.num_non_members as f64),
            ],
        });
    }
    if cfg.attack.topology() {
        let t = topology::topology_attack(scores, g, cfg.max_pairs, pair_seed);
        rows.push(AuditRow {
            attack: "topology",
            mode: mode_name,
            label: label.to_string(),
            digest: digest.to_string(),
            epsilon,
            metrics: vec![
                ("precision_at_e", t.precision_at_e),
                ("num_candidates", t.num_candidates as f64),
                ("num_true_edges", t.num_true_edges as f64),
            ],
        });
    }
    rows
}

/// Sweeps the checkpoint directories and runs every configured
/// attack × mode combination, in input order.
///
/// Each directory is resolved through [`CheckpointStore::load_latest_valid`],
/// so the audited artifact is exactly the checkpoint a resumed run
/// would continue from.
pub fn run_audit(g: &Graph, dirs: &[String], cfg: &AuditConfig) -> Result<Vec<AuditRow>, String> {
    if cfg.mode.black_box() && cfg.addr.is_none() {
        return Err("black-box audits need a server address".into());
    }
    // Run-scoped trace derived from the seed alone, mirroring training:
    // audit telemetry for seed s correlates with nothing else.
    let ctx = privim_obs::TraceContext::from_seed(cfg.seed);
    privim_obs::trace::set_run_trace(ctx);
    let _trace = ctx.enter();
    let span = privim_obs::Scope::span("audit");
    // One candidate universe for the whole sweep (see `attack_rows`).
    let pair_seed = splitmix64(cfg.seed);

    let mut rows = Vec::new();
    for dir in dirs {
        // The store creates missing directories; an audit must not.
        if !Path::new(dir).is_dir() {
            return Err(format!("checkpoint dir {dir} does not exist"));
        }
        let store = CheckpointStore::open(dir, usize::MAX)
            .map_err(|e| format!("cannot open checkpoint dir {dir}: {e}"))?;
        let (tc, _path) = store
            .latest_valid()
            .map_err(|e| format!("cannot load checkpoint from {dir}: {e}"))?;
        privim_obs::counter("audit.checkpoints").add(1);

        let label = Path::new(dir)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.clone());
        let digest = tc.model.digest_hex();
        let epsilon = tc.ledger.as_ref().and_then(|l| l.cumulative_epsilon());
        let split = reconstruct_split(g, &tc)?;

        if cfg.mode.white_box() {
            let scores = whitebox_scores(g, &tc)?;
            rows.extend(attack_rows(
                &scores,
                g,
                &split,
                "white_box",
                &label,
                &digest,
                epsilon,
                cfg,
                pair_seed,
            ));
        }
        if cfg.mode.black_box() {
            let addr = cfg.addr.as_deref().expect("checked above");
            let scores = blackbox::fetch_scores(addr, g.num_nodes())?;
            let mut bb_rows = attack_rows(
                &scores,
                g,
                &split,
                "black_box",
                &label,
                &digest,
                epsilon,
                cfg,
                pair_seed,
            );
            // Black-box topology gets the /v1/spread overlap probe as a
            // second signal: influence overlap is a channel only a live
            // server exposes (see `blackbox::influence_overlap_probe`).
            if cfg.attack.topology() {
                let probe =
                    blackbox::influence_overlap_probe(addr, g, SPREAD_PROBE_PAIRS, pair_seed)?;
                if let Some(row) = bb_rows.iter_mut().find(|r| r.attack == "topology") {
                    row.metrics.push(("spread_probe_auc", probe.probe_auc));
                    row.metrics
                        .push(("num_spread_probes", probe.num_probes as f64));
                }
            }
            rows.extend(bb_rows);
        }
    }
    span.finish();
    Ok(rows)
}

// ---------------------------------------------------------------------------
// JSON envelope (hand-rolled: field order and formatting must be stable
// so that equal runs are byte-identical, matching kernelbench)
// ---------------------------------------------------------------------------

/// Renders the standard `{seed, rows, telemetry}` envelope consumed by
/// `bench_diff`, through `privim_obs::json`: strings are escaped and a
/// non-finite metric is written as `null`.
pub fn render_envelope(seed: u64, rows: &[AuditRow], counters: &BTreeMap<String, u64>) -> String {
    let row = |r: &AuditRow| {
        let mut fields = BTreeMap::from([
            ("attack", r.attack.to_json_value()),
            ("mode", r.mode.to_json_value()),
            ("label", r.label.to_json_value()),
            ("digest", r.digest.to_json_value()),
        ]);
        if let Some(eps) = r.epsilon {
            fields.insert("epsilon", eps.to_json_value());
        }
        for (name, value) in &r.metrics {
            fields.insert(name, value.to_json_value());
        }
        json::object(fields)
    };
    // Telemetry: counters only; histograms are wall-clock-derived and
    // would break bit-identity.
    let envelope = json::object([
        ("seed", seed.to_json_value()),
        ("rows", JsonValue::Arr(rows.iter().map(row).collect())),
        (
            "telemetry",
            json::object([("counters", counters.to_json_value())]),
        ),
    ]);
    envelope.to_json_pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_core::checkpoint::SplitProvenance;
    use privim_graph::GraphBuilder;
    use privim_nn::models::{build_model, ModelKind};
    use privim_nn::optim::{Adam, Optimizer};
    use privim_nn::params::GradVec;
    use privim_nn::serialize::Checkpoint as ModelCheckpoint;

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            let j = (i + 1) % n;
            b.add_edge(i as u32, j as u32, 0.4);
            b.add_edge(j as u32, i as u32, 0.4);
        }
        b.build()
    }

    fn sample_checkpoint() -> TrainCheckpoint {
        let mut rng = StdRng::seed_from_u64(0xA0D17);
        let model = build_model(ModelKind::Gcn, 4, 8, 2, &mut rng);
        let mut adam = Adam::new(0.01);
        let mut params = model.params().clone();
        let grad = GradVec::zeros_like(&params);
        adam.step(&mut params, &grad);
        TrainCheckpoint {
            epoch: 3,
            master_seed: 42,
            config_crc: 0,
            trace_id: 0,
            model: ModelCheckpoint::capture(model.as_ref(), 4, 8, 2),
            optimizer: adam.snapshot(),
            ledger: None,
            losses: vec![0.8, 0.6, 0.5],
            clip_fractions: vec![],
            split: Some(SplitProvenance {
                split_seed: 42,
                train_fraction: 0.5,
            }),
        }
    }

    fn config() -> AuditConfig {
        AuditConfig {
            attack: Attack::Both,
            mode: Mode::WhiteBox,
            seed: 42,
            low_fpr: 0.1,
            max_pairs: 10_000,
            addr: None,
        }
    }

    #[test]
    fn whitebox_audit_sweeps_a_real_checkpoint_store_deterministically() {
        let dir = std::env::temp_dir().join("privim-audit-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 4).unwrap();
        store.save(&sample_checkpoint()).unwrap();

        let g = ring(12);
        let dirs = vec![dir.to_string_lossy().into_owned()];
        let rows = run_audit(&g, &dirs, &config()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].attack, "membership");
        assert_eq!(rows[1].attack, "topology");
        for r in &rows {
            assert_eq!(r.mode, "white_box");
            assert_eq!(r.label, "privim-audit-sweep");
            assert_eq!(r.digest.len(), 16);
            assert_eq!(r.epsilon, None);
        }
        let auc = rows[0].metrics[0];
        assert_eq!(auc.0, "attack_auc");
        assert!((0.5..=1.0).contains(&auc.1));

        // Same seed, same inputs: identical rows.
        let again = run_audit(&g, &dirs, &config()).unwrap();
        assert_eq!(rows, again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_without_provenance_are_rejected_with_a_clear_error() {
        let g = ring(6);
        let mut tc = sample_checkpoint();
        tc.split = None;
        let err = reconstruct_split(&g, &tc).unwrap_err();
        assert!(err.contains("split provenance"), "{err}");
    }

    #[test]
    fn black_box_mode_without_an_address_is_rejected() {
        let g = ring(6);
        let cfg = AuditConfig {
            mode: Mode::BlackBox,
            ..config()
        };
        let err = run_audit(&g, &[], &cfg).unwrap_err();
        assert!(err.contains("server address"), "{err}");
    }

    #[test]
    fn envelope_is_byte_stable_json_with_every_value() {
        let rows = vec![AuditRow {
            attack: "membership",
            mode: "white_box",
            label: "eps8".into(),
            digest: "00ff00ff00ff00ff".into(),
            epsilon: Some(8.0),
            metrics: vec![("attack_auc", 0.75), ("tpr_at_low_fpr", 0.25)],
        }];
        let counters = BTreeMap::from([("audit.checkpoints".to_string(), 1u64)]);
        let a = render_envelope(7, &rows, &counters);
        assert_eq!(a, render_envelope(7, &rows, &counters));
        let v = json::parse(&a).unwrap();
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(7));
        let row = v.get("rows").and_then(|r| r.get_index(0)).unwrap();
        for (key, want) in [
            ("epsilon", 8.0),
            ("attack_auc", 0.75),
            ("tpr_at_low_fpr", 0.25),
        ] {
            assert_eq!(
                row.get(key).and_then(JsonValue::as_f64),
                Some(want),
                "{key}"
            );
        }
        assert_eq!(
            row.get("mode").and_then(JsonValue::as_str),
            Some("white_box")
        );
        let counters = v.get("telemetry").and_then(|t| t.get("counters")).unwrap();
        assert_eq!(
            counters
                .get("audit.checkpoints")
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn envelope_with_no_rows_is_valid() {
        let out = render_envelope(1, &[], &BTreeMap::new());
        let v = json::parse(&out).unwrap();
        assert_eq!(
            v.get("rows").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn envelope_escapes_labels_and_nulls_non_finite_metrics() {
        let label = r#"ck"a\b"#;
        let rows = vec![AuditRow {
            attack: "topology",
            mode: "white_box",
            label: label.into(),
            digest: "d".into(),
            epsilon: None,
            metrics: vec![("precision_at_e", f64::NAN)],
        }];
        let v = json::parse(&render_envelope(3, &rows, &BTreeMap::new())).unwrap();
        let row = v.get("rows").and_then(|r| r.get_index(0)).unwrap();
        assert_eq!(row.get("label").and_then(JsonValue::as_str), Some(label));
        assert_eq!(row.get("precision_at_e"), Some(&JsonValue::Null));
        assert_eq!(row.get("epsilon"), None);
    }
}
