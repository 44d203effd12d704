//! Cross-process span export and trace assembly.
//!
//! A process that arms span export ([`arm_span_export`] for a JSONL
//! file, [`arm_span_ring`] for an in-memory ring served over
//! `/debug/spans`) gets one [`SpanRecord`] per closed span, stamped
//! with the process name and the active [`crate::TraceContext`] ids.
//! Because every id in the tier is a pure splitmix64 function of the
//! request id plus well-known child indices (see [`crate::trace`](mod@crate::trace)),
//! records exported by *different* processes line up into one tree:
//! the router's attempt span id equals the parent id the replica wrote
//! for its request span, with no clock or global-counter coordination.
//!
//! [`render_tier_traces`] is that assembler: it merges records from any
//! number of processes, groups them by trace id, checks connectivity,
//! renders the span tree, and derives a per-hop latency decomposition
//! (router queue, retry backoff, upstream transport, replica queue,
//! worker compute) from the span names the tier agrees on.
//!
//! Ids are serialized as fixed-width lowercase hex *strings* — the JSON
//! layer ([`crate::json`]) carries numbers as `f64`, which cannot
//! round-trip a 64-bit span id exactly.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::{self, object, JsonValue, ToJson};
use crate::ring::Ring;
use crate::trace::TraceContext;

/// Cap on the in-memory ring: old spans are dropped once a process has
/// this many buffered, so debug endpoints stay bounded.
const RING_CAP: usize = 4096;

/// One exported span: ids, timing, and free-form annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Name of the exporting process (`router`, `serve`, `chaos`, …).
    pub process: String,
    /// Span name (`serve.request`, `router.attempt`, …).
    pub name: String,
    /// 128-bit trace id shared by every span of one request.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (`None` for a root).
    pub parent_span_id: Option<u64>,
    /// Start time, microseconds (per-process monotonic epoch).
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Key/value annotations (`attempt=2`, `cancelled=true`, …).
    pub annotations: Vec<(String, String)>,
}

impl SpanRecord {
    /// Serializes to one compact JSON object (ids as fixed-width hex
    /// strings; annotation keys sorted by the object encoding).
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            ("process", self.process.to_json_value()),
            ("name", self.name.to_json_value()),
            (
                "trace_id",
                JsonValue::Str(format!("{:032x}", self.trace_id)),
            ),
            ("span_id", JsonValue::Str(format!("{:016x}", self.span_id))),
            ("start_us", self.start_us.to_json_value()),
            ("dur_us", self.dur_us.to_json_value()),
        ];
        if let Some(parent) = self.parent_span_id {
            entries.push(("parent_span_id", JsonValue::Str(format!("{parent:016x}"))));
        }
        if !self.annotations.is_empty() {
            let ann = self
                .annotations
                .iter()
                .map(|(k, v)| (k.as_str(), v.to_json_value()));
            entries.push(("annotations", object(ann)));
        }
        object(entries).to_json()
    }

    /// Parses one object produced by [`SpanRecord::to_json`]. Returns
    /// `None` on any shape or hex violation rather than guessing.
    pub fn from_json(value: &JsonValue) -> Option<SpanRecord> {
        fn hex(value: Option<&JsonValue>, len: usize) -> Option<u128> {
            let s = value?.as_str()?;
            if s.len() != len || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            u128::from_str_radix(s, 16).ok()
        }
        let annotations = match value.get("annotations") {
            None => Vec::new(),
            Some(ann) => ann
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect::<Option<Vec<_>>>()?,
        };
        Some(SpanRecord {
            process: value.get("process")?.as_str()?.to_string(),
            name: value.get("name")?.as_str()?.to_string(),
            trace_id: hex(value.get("trace_id"), 32)?,
            span_id: hex(value.get("span_id"), 16)? as u64,
            parent_span_id: match value.get("parent_span_id") {
                None => None,
                some => Some(hex(some, 16)? as u64),
            },
            start_us: value.get("start_us")?.as_u64()?,
            dur_us: value.get("dur_us")?.as_u64()?,
            annotations,
        })
    }

    /// The value of annotation `key`, if present.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

struct ExportState {
    process: String,
    file: Option<std::fs::File>,
    ring: Option<Ring<SpanRecord>>,
}

static EXPORT: Mutex<Option<ExportState>> = Mutex::new(None);
static ARMED: AtomicBool = AtomicBool::new(false);

fn with_state<T>(f: impl FnOnce(&mut Option<ExportState>) -> T) -> T {
    f(&mut EXPORT.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Arms span export for this process: every closed span (and every
/// explicitly exported record) is appended as one JSON line to `path`.
/// The ring, if already armed, is kept. Export stays armed until
/// [`disarm_span_export`].
pub fn arm_span_export(process: &str, path: &str) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    arm(process, |s| {
        s.process = process.to_string();
        s.file = Some(file);
    });
    Ok(())
}

/// Arms the in-memory span ring (most recent `RING_CAP` spans),
/// which debug endpoints serve as JSONL via [`spans_jsonl`]. A file
/// sink armed earlier keeps running.
pub fn arm_span_ring(process: &str) {
    arm(process, |s| {
        s.ring.get_or_insert_with(|| Ring::with_capacity(RING_CAP));
    });
}

/// Applies `f` to the export state (created for `process` if none) and
/// arms export.
fn arm(process: &str, f: impl FnOnce(&mut ExportState)) {
    with_state(|state| {
        f(state.get_or_insert_with(|| ExportState {
            process: process.to_string(),
            file: None,
            ring: None,
        }))
    });
    ARMED.store(true, Ordering::Release);
}

/// Disarms both sinks and drops buffered spans.
pub fn disarm_span_export() {
    ARMED.store(false, Ordering::Release);
    with_state(|state| *state = None);
}

/// Whether any span sink is armed — a single relaxed load, so the
/// not-armed fast path costs nothing on the request hot path.
pub fn span_export_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Exports one finished span with `ctx`'s ids, stamped with the armed
/// process name; a no-op (no allocation) when nothing is armed. Span
/// scopes and the serving tier's hand-timed spans all export here.
pub fn export_finished_span(
    name: &str,
    ctx: &TraceContext,
    start_us: u64,
    dur_us: u64,
    annotations: Vec<(String, String)>,
) {
    if !span_export_armed() {
        return;
    }
    export_span(SpanRecord {
        process: String::new(),
        name: name.to_string(),
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_span_id: ctx.parent_span_id,
        start_us,
        dur_us,
        annotations,
    });
}

/// Exports one record to the armed sinks. A no-op when nothing is
/// armed. An empty `record.process` is replaced with the armed process
/// name.
pub(crate) fn export_span(mut record: SpanRecord) {
    if !span_export_armed() {
        return;
    }
    with_state(|state| {
        let Some(state) = state.as_mut() else { return };
        if record.process.is_empty() {
            record.process = state.process.clone();
        }
        if let Some(file) = state.file.as_mut() {
            let mut line = record.to_json();
            line.push('\n');
            let _ = file.write_all(line.as_bytes());
            let _ = file.flush();
        }
        if let Some(ring) = state.ring.as_mut() {
            ring.push(record);
        }
    });
}

/// A snapshot of the in-memory ring (empty when no ring is armed).
pub fn exported_spans() -> Vec<SpanRecord> {
    with_state(|state| {
        state
            .as_ref()
            .and_then(|s| s.ring.as_ref())
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    })
}

/// The in-memory ring rendered as JSONL, ready to serve from a debug
/// endpoint or merge into [`render_tier_traces`].
pub fn spans_jsonl() -> String {
    let mut out = String::new();
    for record in exported_spans() {
        out.push_str(&record.to_json());
        out.push('\n');
    }
    out
}

/// Parses JSONL span records, skipping blank and malformed lines (a
/// merged view should survive one process writing a torn final line).
pub fn parse_spans_jsonl(text: &str) -> Vec<SpanRecord> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| json::parse(line).ok())
        .filter_map(|value| SpanRecord::from_json(&value))
        .collect()
}

/// One hop row of the latency decomposition: label plus milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct HopRow {
    /// Hop label (`router.queue_wait`, `replica.compute`, …).
    pub hop: String,
    /// Total milliseconds attributed to this hop.
    pub ms: f64,
}

struct TraceTree<'a> {
    records: Vec<&'a SpanRecord>,
    by_span: BTreeMap<u64, usize>,
    children: BTreeMap<u64, Vec<usize>>,
    roots: Vec<usize>,
}

impl<'a> TraceTree<'a> {
    fn build(records: Vec<&'a SpanRecord>) -> TraceTree<'a> {
        let mut by_span = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            by_span.insert(r.span_id, i);
        }
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (i, r) in records.iter().enumerate() {
            match r.parent_span_id {
                Some(parent) if by_span.contains_key(&parent) => {
                    children.entry(parent).or_default().push(i);
                }
                // Orphans (parent never exported) render as roots so
                // the spans stay visible; they break connectivity.
                _ => roots.push(i),
            }
        }
        // Deterministic order: by start time, span id breaking ties.
        let key = |records: &[&SpanRecord], i: usize| (records[i].start_us, records[i].span_id);
        for list in children.values_mut() {
            list.sort_by_key(|&i| key(&records, i));
        }
        roots.sort_by_key(|&i| key(&records, i));
        TraceTree {
            records,
            by_span,
            children,
            roots,
        }
    }

    fn processes(&self) -> usize {
        let mut names: Vec<&str> = self.records.iter().map(|r| r.process.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// Connected ⇔ exactly one root (every other span reaches it).
    fn connected(&self) -> bool {
        self.roots.len() == 1
    }

    fn render_subtree(&self, out: &mut String, i: usize, depth: usize) {
        let r = self.records[i];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{}] span={:016x} {:.3}ms",
            r.name,
            r.process,
            r.span_id,
            r.dur_us as f64 / 1000.0
        ));
        for (k, v) in &r.annotations {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        if let Some(kids) = self.children.get(&r.span_id) {
            for &child in kids {
                self.render_subtree(out, child, depth + 1);
            }
        }
    }

    /// Whether span `i` sits under a span annotated `cancelled=true`
    /// (itself included) — cancelled hedge losers and everything they
    /// caused are excluded from the additive decomposition.
    fn cancelled(&self, i: usize) -> bool {
        let mut cursor = Some(i);
        while let Some(i) = cursor {
            let r = self.records[i];
            if r.annotation("cancelled") == Some("true") {
                return true;
            }
            cursor = r.parent_span_id.and_then(|p| self.by_span.get(&p).copied());
        }
        false
    }

    /// Per-hop decomposition relative to the root request span. Hops
    /// are identified by the span names the tier agrees on; the
    /// remainder that no hop claims is reported as `unattributed`.
    fn decomposition(&self) -> Vec<HopRow> {
        let Some(&root) = self.roots.first() else {
            return Vec::new();
        };
        let root_record = self.records[root];
        let root_process = root_record.process.as_str();
        let ms = |us: u64| us as f64 / 1000.0;
        let mut router_queue = 0.0;
        let mut backoff = 0.0;
        let mut upstream = 0.0;
        let mut replica_queue = 0.0;
        let mut compute = 0.0;
        for (i, r) in self.records.iter().enumerate() {
            if self.cancelled(i) {
                continue;
            }
            let local = r.process == root_process;
            match r.name.as_str() {
                "serve.queue_wait" if local => router_queue += ms(r.dur_us),
                "serve.queue_wait" => replica_queue += ms(r.dur_us),
                "serve.handle" if !local => compute += ms(r.dur_us),
                "router.attempt" => {
                    backoff += r
                        .annotation("backoff_ms")
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or(0.0);
                    let nested: u64 = self
                        .children
                        .get(&r.span_id)
                        .into_iter()
                        .flatten()
                        .map(|&c| self.records[c])
                        .filter(|c| c.name == "serve.request")
                        .map(|c| c.dur_us)
                        .sum();
                    upstream += ms(r.dur_us.saturating_sub(nested));
                }
                _ => {}
            }
        }
        let total = ms(root_record.dur_us);
        let attributed = router_queue + backoff + upstream + replica_queue + compute;
        let mut rows = vec![
            HopRow {
                hop: "router.queue_wait".into(),
                ms: router_queue,
            },
            HopRow {
                hop: "router.backoff".into(),
                ms: backoff,
            },
            HopRow {
                hop: "router.upstream".into(),
                ms: upstream,
            },
            HopRow {
                hop: "replica.queue_wait".into(),
                ms: replica_queue,
            },
            HopRow {
                hop: "replica.compute".into(),
                ms: compute,
            },
        ];
        rows.push(HopRow {
            hop: "unattributed".into(),
            ms: (total - attributed).max(0.0),
        });
        rows.push(HopRow {
            hop: "total".into(),
            ms: total,
        });
        rows
    }
}

/// The per-hop decomposition for the trace containing `trace_id` (rows
/// as produced for [`render_tier_traces`]); empty if the trace has no
/// spans in `records`.
pub fn hop_decomposition(records: &[SpanRecord], trace_id: u128) -> Vec<HopRow> {
    let spans: Vec<&SpanRecord> = records.iter().filter(|r| r.trace_id == trace_id).collect();
    if spans.is_empty() {
        return Vec::new();
    }
    TraceTree::build(spans).decomposition()
}

/// Merges span records from any number of processes and renders one
/// block per trace: a summary line
/// `trace <id>: N spans, M processes, connected|disconnected (K roots)`,
/// the indented span tree, and the per-hop latency decomposition.
/// `filter` restricts output to one trace id. Traces render in trace-id
/// order; duplicate records (a span exported to both a file and a ring
/// that were then merged) are collapsed.
pub fn render_tier_traces(records: &[SpanRecord], filter: Option<u128>) -> String {
    let mut by_trace: BTreeMap<u128, Vec<&SpanRecord>> = BTreeMap::new();
    for record in records {
        if filter.is_some_and(|t| t != record.trace_id) {
            continue;
        }
        let spans = by_trace.entry(record.trace_id).or_default();
        if !spans.iter().any(|r| r.span_id == record.span_id) {
            spans.push(record);
        }
    }
    if by_trace.is_empty() {
        return "no spans matched\n".into();
    }
    let mut out = String::new();
    for (trace_id, spans) in by_trace {
        let tree = TraceTree::build(spans);
        let status = if tree.connected() {
            "connected".to_string()
        } else {
            format!("disconnected ({} roots)", tree.roots.len())
        };
        out.push_str(&format!(
            "trace {:032x}: {} spans, {} processes, {}\n",
            trace_id,
            tree.records.len(),
            tree.processes(),
            status
        ));
        for &root in &tree.roots {
            tree.render_subtree(&mut out, root, 1);
        }
        out.push_str("  hop decomposition (ms):\n");
        for row in tree.decomposition() {
            out.push_str(&format!("    {:<24}{:>12.3}\n", row.hop, row.ms));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceContext, CHILD_ATTEMPT_BASE, CHILD_HANDLE, CHILD_QUEUE_WAIT};

    fn record(
        process: &str,
        name: &str,
        ctx: TraceContext,
        start_us: u64,
        dur_us: u64,
        annotations: &[(&str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            process: process.into(),
            name: name.into(),
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
            start_us,
            dur_us,
            annotations: annotations
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// A three-process request: router request span with queue wait and
    /// two attempts (first failed, second reached the replica), the
    /// replica request re-derived from the propagated attempt span.
    fn tier_records() -> Vec<SpanRecord> {
        let root = TraceContext::from_request_id("req-1");
        let queue = root.child_n(CHILD_QUEUE_WAIT);
        let attempt1 = root.child_n(CHILD_ATTEMPT_BASE + 1);
        let attempt2 = root.child_n(CHILD_ATTEMPT_BASE + 2);
        // The replica only ever sees the header (trace id + attempt
        // span id) — re-derive exactly as server.rs does.
        let remote_parent = crate::trace::parse_trace_header(&attempt2.to_trace_header()).unwrap();
        let replica_req = remote_parent.child_n(crate::trace::CHILD_REMOTE_REQUEST);
        let replica_queue = replica_req.child_n(CHILD_QUEUE_WAIT);
        let replica_handle = replica_req.child_n(CHILD_HANDLE);
        let chaos = TraceContext::from_seed(40);
        vec![
            record("router", "serve.request", root, 0, 20_000, &[]),
            record("router", "serve.queue_wait", queue, 0, 1_000, &[]),
            record(
                "router",
                "router.attempt",
                attempt1,
                1_000,
                2_000,
                &[("attempt", "1"), ("backoff_ms", "0"), ("outcome", "error")],
            ),
            record(
                "router",
                "router.attempt",
                attempt2,
                5_000,
                14_000,
                &[("attempt", "2"), ("backoff_ms", "2"), ("outcome", "ok")],
            ),
            record("replica", "serve.request", replica_req, 6_000, 12_000, &[]),
            record(
                "replica",
                "serve.queue_wait",
                replica_queue,
                6_000,
                500,
                &[],
            ),
            record(
                "replica",
                "serve.handle",
                replica_handle,
                6_500,
                11_000,
                &[],
            ),
            record(
                "chaos",
                "chaos.fault",
                chaos,
                0,
                0,
                // Keys in sorted order: the JSON object parser yields
                // sorted keys, so only sorted fixtures round-trip as-is.
                &[("conn", "3"), ("fault", "delay_response")],
            ),
        ]
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let records = tier_records();
        let mut jsonl = String::new();
        for r in &records {
            jsonl.push_str(&r.to_json());
            jsonl.push('\n');
        }
        jsonl.push_str("\n{not json}\n{\"name\":\"missing fields\"}\n");
        let back = parse_spans_jsonl(&jsonl);
        assert_eq!(back, records, "malformed lines are skipped, rest survive");
    }

    #[test]
    fn hex_ids_round_trip_exactly() {
        let r = SpanRecord {
            process: "p".into(),
            name: "n".into(),
            trace_id: u128::MAX - 7,
            span_id: u64::MAX - 3,
            parent_span_id: Some(u64::MAX),
            start_us: 1,
            dur_us: 2,
            annotations: vec![],
        };
        let back = SpanRecord::from_json(&json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back, r, "f64 would have destroyed these ids");
    }

    #[test]
    fn ring_arms_exports_and_caps() {
        let _guard = crate::sink::global_sink_lock();
        disarm_span_export();
        assert!(!span_export_armed());
        let records = tier_records();
        export_span(records[0].clone());
        assert!(exported_spans().is_empty(), "no-op while disarmed");
        arm_span_ring("test");
        assert!(span_export_armed());
        for r in &records {
            export_span(r.clone());
        }
        assert_eq!(exported_spans().len(), records.len());
        // Empty process names are filled with the armed name.
        let mut anon = records[0].clone();
        anon.process = String::new();
        anon.span_id ^= 1;
        export_span(anon);
        assert_eq!(exported_spans().last().unwrap().process, "test");
        let parsed = parse_spans_jsonl(&spans_jsonl());
        assert_eq!(parsed.len(), records.len() + 1);
        disarm_span_export();
        assert!(exported_spans().is_empty());
    }

    #[test]
    fn file_export_appends_jsonl() {
        let _guard = crate::sink::global_sink_lock();
        disarm_span_export();
        let path = std::env::temp_dir().join(format!(
            "privim-spanexport-test-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        arm_span_export("writer", path.to_str().unwrap()).unwrap();
        for r in tier_records() {
            export_span(r);
        }
        disarm_span_export();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = parse_spans_jsonl(&text);
        assert_eq!(back, tier_records());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn assembles_a_connected_cross_process_tree() {
        let records = tier_records();
        let root = TraceContext::from_request_id("req-1");
        let rendered = render_tier_traces(&records, Some(root.trace_id));
        assert!(
            rendered.contains(&format!(
                "trace {:032x}: 7 spans, 2 processes, connected",
                root.trace_id
            )),
            "{rendered}"
        );
        // The replica request indents under the router's second attempt.
        assert!(
            rendered.contains("    serve.request [replica]"),
            "{rendered}"
        );
        assert!(rendered.contains("hop decomposition"), "{rendered}");
        // Unfiltered render also shows the chaos root, as its own trace.
        let all = render_tier_traces(&records, None);
        assert!(all.contains("chaos.fault [chaos]"), "{all}");
        assert!(
            render_tier_traces(&records, Some(1)).contains("no spans matched"),
            "unknown trace id"
        );
    }

    #[test]
    fn decomposition_attributes_every_hop() {
        let records = tier_records();
        let root = TraceContext::from_request_id("req-1");
        let rows = hop_decomposition(&records, root.trace_id);
        let get = |hop: &str| {
            rows.iter()
                .find(|r| r.hop == hop)
                .map(|r| r.ms)
                .unwrap_or(f64::NAN)
        };
        assert!((get("router.queue_wait") - 1.0).abs() < 1e-9);
        assert!((get("router.backoff") - 2.0).abs() < 1e-9);
        // attempt1 (2ms, no nested) + attempt2 (14ms − 12ms nested).
        assert!((get("router.upstream") - 4.0).abs() < 1e-9);
        assert!((get("replica.queue_wait") - 0.5).abs() < 1e-9);
        assert!((get("replica.compute") - 11.0).abs() < 1e-9);
        assert!((get("total") - 20.0).abs() < 1e-9);
        let attributed: f64 = rows
            .iter()
            .filter(|r| r.hop != "total" && r.hop != "unattributed")
            .map(|r| r.ms)
            .sum();
        assert!(
            (attributed + get("unattributed") - get("total")).abs() < 1e-9,
            "decomposition sums to the request span"
        );
    }

    #[test]
    fn cancelled_hedge_losers_are_excluded_from_decomposition() {
        let mut records = tier_records();
        let root = TraceContext::from_request_id("req-1");
        let hedge = root.child_n(crate::trace::CHILD_HEDGE_BASE + 2);
        records.push(record(
            "router",
            "router.attempt",
            hedge,
            5_000,
            9_000,
            &[("hedge", "true"), ("cancelled", "true")],
        ));
        // A replica span caused by the loser is likewise excluded.
        let loser_remote = crate::trace::parse_trace_header(&hedge.to_trace_header()).unwrap();
        let loser_req = loser_remote.child_n(crate::trace::CHILD_REMOTE_REQUEST);
        records.push(record(
            "replica",
            "serve.request",
            loser_req,
            6_000,
            8_000,
            &[],
        ));
        records.push(record(
            "replica",
            "serve.handle",
            loser_req.child_n(CHILD_HANDLE),
            6_000,
            7_000,
            &[],
        ));
        let rows = hop_decomposition(&records, root.trace_id);
        let compute = rows.iter().find(|r| r.hop == "replica.compute").unwrap();
        assert!(
            (compute.ms - 11.0).abs() < 1e-9,
            "loser compute must not count: {rows:?}"
        );
        let rendered = render_tier_traces(&records, Some(root.trace_id));
        assert!(rendered.contains("cancelled=true"), "{rendered}");
        assert!(rendered.contains("connected"), "{rendered}");
    }

    #[test]
    fn missing_parents_render_disconnected() {
        let mut records = tier_records();
        // Drop the router request root: attempts lose their parent.
        records.retain(|r| r.name != "serve.request" || r.process != "router");
        let root = TraceContext::from_request_id("req-1");
        let rendered = render_tier_traces(&records, Some(root.trace_id));
        assert!(rendered.contains("disconnected ("), "{rendered}");
    }
}
