//! # privim-obs
//!
//! Structured tracing, metrics, and run telemetry for the PrivIM stack.
//! Dependency-free, built around three primitives:
//!
//! * **Scopes** — one guard for every timed region:
//!   `let _s = Scope::span("training");` for phases (the `span.<name>`
//!   histogram, the `span` event, span export) and
//!   `Scope::kernel("nn.matmul")` for hot kernels (one relaxed atomic
//!   load while profiling is off). See [`Scope`].
//! * **Metrics** — process-global counters, gauges, and fixed-bucket
//!   histograms: `obs::counter("im.mc_trials").add(n)`. Snapshot with
//!   [`snapshot`]; metrics are always on (they are a handful of relaxed
//!   atomic ops) and never touch RNG streams.
//! * **Events** — typed key-value records dispatched to installed
//!   [`EventSink`]s: `obs::info!("train", "epoch", epoch = i, loss = l);`.
//!   With no sinks installed, [`enabled`] is a single relaxed atomic
//!   load and the event (and its field values) is never built.
//!
//! Sinks: [`StderrSink`] prints human-readable lines (configure via the
//! `PRIVIM_LOG` env var: `error|warn|info|debug|trace|off`), [`JsonlSink`]
//! appends one JSON object per event to a file; [`RunTelemetry::from_jsonl`]
//! turns that file back into a typed report.
//!
//! On top of the primitives sit the **profiler** (opt-in hierarchical
//! call tree: [`set_profiling`], [`profile_report`]; every scope opens
//! a node while profiling is on) and the **exporters**
//! ([`render_prometheus`] text format and the [`render_html_report`]
//! self-contained run report).
//!
//! Every bounded recent-history buffer is one [`Ring`], reserved at
//! construction so a push never allocates: the [`FlightRecorder`]'s
//! per-thread rings of the latest events (dumped on panic, injected
//! kill or SIGTERM), the sample window of
//! [`Histogram::with_buckets_windowed`], the `/debug/spans` ring of
//! [`spanexport`], and the points each [`watch`] rule keeps of its
//! metric.

mod clock;
mod event;
pub mod fault;
pub mod json;
mod level;
mod metrics;
mod profile;
mod prometheus;
pub mod recorder;
mod report_html;
mod ring;
mod scope;
mod sink;
pub mod spanexport;
mod telemetry;
pub mod trace;
pub mod watch;

pub use clock::{now_micros, Clock, ManualClock, MonotonicClock};
pub use event::{Event, FieldValue};
pub use fault::{
    clear_fault_plan, fault_point, fault_point_file, faults_armed, set_fault_plan, FaultAction,
    FaultArm, FaultPlan, FaultSignal,
};
pub use level::Level;
pub use metrics::{
    global_registry, Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry,
    DEFAULT_BUCKETS,
};
pub use profile::{
    profile_report, profiling_enabled, reset_profile, set_profiling, ProfileReport, ProfileRow,
};
pub use prometheus::{
    label_value, render_prometheus, render_prometheus_with_profile, unescape_label_value,
};
pub use recorder::{DumpEntry, FlightRecorder};
pub use report_html::render_html_report;
pub use ring::Ring;
pub use scope::{Scope, ScopeParent};
pub use sink::{
    console, console_err, emit, enabled, flush_sinks, install_sink, take_sinks, EventSink,
    JsonlSink, MemorySink, StderrSink,
};
pub use spanexport::{
    arm_span_export, arm_span_ring, disarm_span_export, export_finished_span, exported_spans,
    hop_decomposition, parse_spans_jsonl, render_tier_traces, span_export_armed, spans_jsonl,
    HopRow, SpanRecord,
};
pub use telemetry::{EpochRecord, LedgerRecord, PhaseTiming, RunTelemetry};
pub use trace::{current_trace, parse_trace_header, TraceContext, TRACE_HEADER};
pub use watch::{AlertRule, AlertState, RuleKind, Watchdog};

/// The global counter named `name` (creating it on first use).
pub fn counter(name: &str) -> std::sync::Arc<Counter> {
    global_registry().counter(name)
}

/// The global gauge named `name` (creating it on first use).
pub fn gauge(name: &str) -> std::sync::Arc<Gauge> {
    global_registry().gauge(name)
}

/// The global histogram named `name` (creating it on first use, with
/// [`DEFAULT_BUCKETS`]).
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    global_registry().histogram(name)
}

/// A point-in-time snapshot of every global metric.
pub fn snapshot() -> MetricsSnapshot {
    global_registry().snapshot()
}

/// Builds and emits an event if some sink listens at `$level` **or**
/// the flight recorder is armed — field expressions are not evaluated
/// otherwise. Emitted events are stamped with the thread's active
/// [`TraceContext`], captured by the recorder, and then dispatched to
/// the (level-filtered) sinks.
///
/// ```
/// privim_obs::event!(privim_obs::Level::Info, "train", "epoch",
///                    epoch = 3u64, loss = 0.25);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $message:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let level = $level;
        if $crate::enabled(level) || $crate::recorder::recorder_wants(level) {
            $crate::emit($crate::Event::new(
                level,
                $target,
                $message,
                vec![$((stringify!($key), $crate::FieldValue::from($value)),)*],
            ));
        }
    }};
}

/// [`event!`] at `Level::Error`.
#[macro_export]
macro_rules! error {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Error, $($tt)*) };
}

/// [`event!`] at `Level::Warn`.
#[macro_export]
macro_rules! warn {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Warn, $($tt)*) };
}

/// [`event!`] at `Level::Info`.
#[macro_export]
macro_rules! info {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Info, $($tt)*) };
}

/// [`event!`] at `Level::Debug`.
#[macro_export]
macro_rules! debug {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Debug, $($tt)*) };
}

/// [`event!`] at `Level::Trace`.
#[macro_export]
macro_rules! trace {
    ($($tt:tt)*) => { $crate::event!($crate::Level::Trace, $($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn event_macro_skips_field_evaluation_when_disabled() {
        let _guard = crate::sink::global_sink_lock();
        take_sinks();
        let mut evaluated = false;
        crate::info!(
            "test",
            "msg",
            x = {
                evaluated = true;
                1u64
            }
        );
        assert!(
            !evaluated,
            "fields must not be built with no sink installed"
        );

        let sink = Arc::new(MemorySink::new(Level::Info));
        install_sink(sink.clone());
        crate::info!(
            "test",
            "msg",
            x = {
                evaluated = true;
                1u64
            }
        );
        take_sinks();
        assert!(evaluated);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].field("x"), Some(&FieldValue::U64(1)));
    }

    #[test]
    fn level_macros_tag_their_level() {
        let _guard = crate::sink::global_sink_lock();
        take_sinks();
        let sink = Arc::new(MemorySink::new(Level::Trace));
        install_sink(sink.clone());
        crate::error!("t", "e");
        crate::warn!("t", "w");
        crate::info!("t", "i");
        crate::debug!("t", "d");
        crate::trace!("t", "tr");
        take_sinks();
        let levels: Vec<Level> = sink.events().iter().map(|e| e.level).collect();
        assert_eq!(
            levels,
            vec![
                Level::Error,
                Level::Warn,
                Level::Info,
                Level::Debug,
                Level::Trace
            ]
        );
    }

    #[test]
    fn global_helpers_share_the_registry() {
        counter("lib_test_counter").add(2);
        gauge("lib_test_gauge").set(1.5);
        histogram("lib_test_hist").record(0.5);
        let snap = snapshot();
        assert_eq!(snap.counters.get("lib_test_counter"), Some(&2));
        assert_eq!(snap.gauges.get("lib_test_gauge"), Some(&1.5));
        assert_eq!(
            snap.histograms.get("lib_test_hist").map(|h| h.count),
            Some(1)
        );
    }
}
