//! `privim monitor` — a deterministic text dashboard over live health
//! telemetry.
//!
//! Two sources, one renderer:
//!
//! - `--input <telemetry.jsonl>` tails a finished (or in-flight) run's
//!   event stream: training progress, the ε trace, every
//!   `budget_warning` / `budget_halt` event and every watchdog alert
//!   transition, in file order.
//! - `--addr <host:port>` polls a running server once: `GET /metrics`
//!   for the `privim_alert_active` and `privim_serve_slo_*` series plus
//!   `GET /slo` for the windowed SLO snapshot.
//!
//! The output is a pure function of the bytes read — no wall clocks, no
//! re-ordering — so CI can diff it and operators can watch it under
//! `watch -n1`.

use std::fmt::Write as _;

use privim_obs::console;
use privim_obs::json::{parse, JsonValue};
use privim_obs::RunTelemetry;

/// Where the dashboard reads from.
#[derive(Debug)]
pub enum Source {
    /// A telemetry JSONL file (`--input`).
    File(String),
    /// `host:port` of a running `privim serve` to poll (`--addr`).
    Live(String),
}

pub fn run(source: &Source) -> Result<(), String> {
    let dashboard = match source {
        Source::File(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read telemetry file {path}: {e}"))?;
            render_jsonl_dashboard(path, &text)
        }
        Source::Live(addr) => render_live_dashboard(addr)?,
    };
    console(dashboard);
    Ok(())
}

/// One event row the dashboard cares about, in file order.
struct EventRow {
    level: String,
    message: String,
    detail: String,
}

fn field_string(fields: &JsonValue, key: &str) -> Option<String> {
    let v = fields.get(key)?;
    match v {
        JsonValue::Str(s) => Some(s.clone()),
        JsonValue::Num(_) | JsonValue::Int(_) => Some(v.to_json()),
        JsonValue::Bool(b) => Some(format!("{b}")),
        _ => None,
    }
}

/// Renders `key=value` for every listed field that is present.
fn format_fields(fields: &JsonValue, keys: &[&str]) -> String {
    let mut out = String::new();
    for key in keys {
        if let Some(v) = field_string(fields, key) {
            if !out.is_empty() {
                out.push(' ');
            }
            let _ = write!(out, "{key}={v}");
        }
    }
    out
}

/// Builds the dashboard for a telemetry JSONL stream.
pub fn render_jsonl_dashboard(source: &str, text: &str) -> String {
    let mut budget_events: Vec<EventRow> = Vec::new();
    let mut alert_events: Vec<EventRow> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(event) = parse(line) else { continue };
        let target = event.get("target").and_then(|v| v.as_str()).unwrap_or("");
        let message = event.get("message").and_then(|v| v.as_str()).unwrap_or("");
        let level = event
            .get("level")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        let fields = event.get("fields").cloned().unwrap_or(JsonValue::Null);
        match (target, message) {
            ("dp", "budget_warning") => budget_events.push(EventRow {
                level,
                message: message.to_string(),
                detail: format_fields(
                    &fields,
                    &["epoch", "budget", "projected", "steps_remaining"],
                ),
            }),
            ("dp", "budget_halt") => budget_events.push(EventRow {
                level,
                message: message.to_string(),
                detail: format_fields(
                    &fields,
                    &[
                        "epoch",
                        "budget",
                        "epsilon_spent",
                        "projected_next",
                        "fresh_steps",
                    ],
                ),
            }),
            ("watch", "alert" | "alert_resolved") => alert_events.push(EventRow {
                level,
                message: message.to_string(),
                detail: format_fields(&fields, &["rule", "metric", "tick", "value", "detail"]),
            }),
            _ => {}
        }
    }

    let telemetry = RunTelemetry::from_jsonl(text).ok();
    let mut out = String::new();
    let _ = writeln!(out, "privim monitor — {source}");
    if let Some(t) = &telemetry {
        let _ = writeln!(out, "run");
        if let Some(seed) = t.seed {
            let _ = writeln!(out, "  seed: {seed}");
        }
        let _ = writeln!(out, "  events: {}", t.events_total);
        let _ = writeln!(out, "training");
        let _ = writeln!(out, "  epochs recorded: {}", t.epochs.len());
        if let Some(last) = t.epochs.last() {
            let _ = writeln!(out, "  last loss: {:.6}", last.loss);
        }
        match t.final_epsilon() {
            Some(eps) => {
                let _ = writeln!(out, "  epsilon spent: {eps}");
                let _ = writeln!(out, "  epsilon steps: {}", t.epsilon_trace.len());
            }
            None => {
                let _ = writeln!(out, "  epsilon spent: - (non-private)");
            }
        }
    }
    let _ = writeln!(out, "privacy budget");
    if budget_events.is_empty() {
        let _ = writeln!(out, "  (no budget events)");
    }
    for e in &budget_events {
        let _ = writeln!(out, "  [{}] {} {}", e.level, e.message, e.detail);
    }
    let _ = writeln!(out, "alerts");
    if alert_events.is_empty() {
        let _ = writeln!(out, "  (no alert transitions)");
    }
    for e in &alert_events {
        let _ = writeln!(out, "  [{}] {} {}", e.level, e.message, e.detail);
    }
    out
}

/// Polls a running server once and renders its alert and SLO state.
fn render_live_dashboard(addr: &str) -> Result<String, String> {
    let mut client = privim_serve::HttpClient::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let metrics = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics from {addr} failed: {e}"))?;
    if metrics.status != 200 {
        return Err(format!(
            "GET /metrics from {addr} answered {}",
            metrics.status
        ));
    }
    let metrics_text = String::from_utf8_lossy(&metrics.body).into_owned();
    // /slo answers 404 when the operator did not enable tracking; the
    // dashboard still renders the alert section in that case.
    let slo_body = match client.get("/slo") {
        Ok(resp) if resp.status == 200 => Some(String::from_utf8_lossy(&resp.body).into_owned()),
        _ => None,
    };
    Ok(render_metrics_dashboard(
        addr,
        &metrics_text,
        slo_body.as_deref(),
    ))
}

/// Builds the dashboard for a Prometheus scrape (+ optional /slo body).
pub fn render_metrics_dashboard(source: &str, metrics: &str, slo_json: Option<&str>) -> String {
    let mut alert_lines: Vec<&str> = Vec::new();
    let mut slo_lines: Vec<&str> = Vec::new();
    let mut serve_lines: Vec<&str> = Vec::new();
    for line in metrics.lines() {
        if line.starts_with('#') {
            continue;
        }
        if line.starts_with("privim_alert_active") {
            alert_lines.push(line);
        } else if line.starts_with("privim_serve_slo_") {
            slo_lines.push(line);
        } else if line.starts_with("privim_serve_") {
            serve_lines.push(line);
        }
    }
    alert_lines.sort_unstable();
    slo_lines.sort_unstable();
    serve_lines.sort_unstable();

    let mut out = String::new();
    let _ = writeln!(out, "privim monitor — {source}");
    let _ = writeln!(out, "alerts");
    if alert_lines.is_empty() {
        let _ = writeln!(out, "  (no watchdog armed)");
    }
    for line in &alert_lines {
        let firing = line.ends_with(" 1");
        let mark = if firing { "FIRING " } else { "ok     " };
        let _ = writeln!(out, "  {mark}{line}");
    }
    let _ = writeln!(out, "slo");
    match slo_json {
        Some(body) => {
            let _ = writeln!(out, "  {body}");
        }
        None => {
            let _ = writeln!(out, "  (slo tracking not enabled)");
        }
    }
    for line in &slo_lines {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(out, "serve");
    if serve_lines.is_empty() {
        let _ = writeln!(out, "  (no serve series)");
    }
    for line in &serve_lines {
        let _ = writeln!(out, "  {line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_dashboard_surfaces_budget_and_alert_events() {
        let text = concat!(
            r#"{"ts_us":1,"level":"warn","target":"dp","message":"budget_warning","fields":{"epoch":3,"budget":2.0,"projected":1.7,"steps_remaining":2}}"#,
            "\n",
            r#"{"ts_us":2,"level":"warn","target":"watch","message":"alert","fields":{"rule":"epsilon_budget","metric":"dp.epsilon_next","tick":3,"value":1.7,"detail":"burn"}}"#,
            "\n",
            r#"{"ts_us":3,"level":"warn","target":"dp","message":"budget_halt","fields":{"epoch":5,"budget":2.0,"epsilon_spent":1.9,"projected_next":2.2,"fresh_steps":5}}"#,
            "\n",
        );
        let dash = render_jsonl_dashboard("test.jsonl", text);
        assert!(dash.contains("budget_warning epoch=3"), "{dash}");
        assert!(dash.contains("budget_halt epoch=5"), "{dash}");
        assert!(dash.contains("alert rule=epsilon_budget"), "{dash}");
        assert_eq!(
            dash,
            render_jsonl_dashboard("test.jsonl", text),
            "dashboard must be deterministic"
        );
    }

    #[test]
    fn jsonl_dashboard_handles_empty_and_garbage_input() {
        let dash = render_jsonl_dashboard("empty.jsonl", "not json\n\n{broken\n");
        assert!(dash.contains("(no budget events)"), "{dash}");
        assert!(dash.contains("(no alert transitions)"), "{dash}");
    }

    #[test]
    fn metrics_dashboard_marks_firing_alerts_and_sorts_series() {
        let metrics = concat!(
            "# TYPE privim_alert_active gauge\n",
            "privim_alert_active{rule=\"slo_latency_p99\",metric=\"serve.slo.p99_ms\"} 1\n",
            "privim_alert_active{rule=\"slo_error_budget\",metric=\"serve.slo.budget_burn\"} 0\n",
            "privim_serve_slo_p99_ms 12.5\n",
            "privim_serve_requests 40\n",
            "privim_other 1\n",
        );
        let dash = render_metrics_dashboard("127.0.0.1:0", metrics, Some("{\"p99_ms\":12.5}"));
        assert!(
            dash.contains("FIRING privim_alert_active{rule=\"slo_latency_p99\""),
            "{dash}"
        );
        assert!(
            dash.contains("ok     privim_alert_active{rule=\"slo_error_budget\""),
            "{dash}"
        );
        assert!(dash.contains("privim_serve_slo_p99_ms 12.5"), "{dash}");
        assert!(dash.contains("{\"p99_ms\":12.5}"), "{dash}");
        assert!(!dash.contains("privim_other"), "{dash}");
        let slo_pos = dash.find("privim_serve_slo_p99_ms").unwrap();
        let err_pos = dash.find("slo_error_budget").unwrap();
        assert!(err_pos < slo_pos, "alerts render before slo series");
    }
}
