//! Golden test for the scope close path: one nested pair of span scopes
//! around a kernel scope, with every destination listening at once —
//! the profile tree, the `span.<name>` histograms, the `span` debug
//! event (sink and flight recorder) and span export. Runs in its own
//! test binary, so the process-global switches it flips cannot race
//! another test.

use std::sync::Arc;

use privim_obs::{
    arm_span_ring, disarm_span_export, exported_spans, global_registry, install_sink,
    profile_report, reset_profile, set_profiling, take_sinks, Event, FieldValue, FlightRecorder,
    Level, ManualClock, MemorySink, ProfileRow, Scope, SpanRecord, TraceContext,
};

fn row(path: &str, depth: usize, calls: u64, total: u64, own: u64, work: [u64; 3]) -> ProfileRow {
    ProfileRow {
        name: path.rsplit(';').next().unwrap().to_string(),
        path: path.to_string(),
        depth,
        calls,
        total_micros: total,
        self_micros: own,
        flops: work[0],
        bytes: work[1],
        items: work[2],
    }
}

fn f64_field(event: &Event, key: &str) -> f64 {
    match event.field(key) {
        Some(FieldValue::F64(v)) => *v,
        other => panic!("{key}: {other:?}"),
    }
}

#[test]
fn one_close_feeds_every_destination() {
    take_sinks();
    let sink = Arc::new(MemorySink::new(Level::Debug));
    install_sink(sink.clone());
    FlightRecorder::reset();
    FlightRecorder::arm();
    disarm_span_export();
    arm_span_ring("fanout");
    set_profiling(true);
    reset_profile();

    let clock = ManualClock::new();
    let root = TraceContext::from_seed(2024);
    let outer_secs = {
        let _trace = root.enter();
        let outer = Scope::span_with_clock("fanout_outer", &clock);
        clock.advance_micros(100);
        {
            let _inner = Scope::span_with_clock("fanout_inner", &clock);
            clock.advance_micros(20);
            {
                let kernel = Scope::kernel_with_clock("fanout_kernel", &clock);
                kernel.add_work(1_000, 400, 7);
                clock.advance_micros(250);
                kernel.add_work(24, 8, 1);
            }
            clock.advance_micros(30);
        }
        clock.advance_micros(50);
        outer.finish()
    };
    assert_eq!(outer_secs, 450.0 / 1e6);

    set_profiling(false);
    FlightRecorder::disarm();
    take_sinks();
    let exported = exported_spans();
    disarm_span_export();

    // Profile tree: spans and the kernel are one tree; work lands on
    // the kernel's node only.
    let rows: Vec<ProfileRow> = profile_report()
        .rows
        .into_iter()
        .filter(|r| r.path.starts_with("fanout_outer"))
        .collect();
    assert_eq!(
        rows,
        vec![
            row("fanout_outer", 0, 1, 450, 150, [0, 0, 0]),
            row("fanout_outer;fanout_inner", 1, 1, 300, 50, [0, 0, 0]),
            row(
                "fanout_outer;fanout_inner;fanout_kernel",
                2,
                1,
                250,
                250,
                [1_024, 408, 8]
            ),
        ]
    );

    // Histograms: one sample per span scope, none for the kernel.
    let snap = global_registry().snapshot();
    let outer_h = &snap.histograms["span.fanout_outer"];
    assert_eq!((outer_h.count, outer_h.sum), (1, 450.0 / 1e6));
    let inner_h = &snap.histograms["span.fanout_inner"];
    assert_eq!((inner_h.count, inner_h.sum), (1, 300.0 / 1e6));
    assert!(!snap.histograms.contains_key("span.fanout_kernel"));

    // `span` events: inner closes first; each carries its own child
    // context, linked to the enclosing span (the outer one to the root).
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.target == "span")
        .collect();
    let names: Vec<&str> = events.iter().map(|e| e.message.as_str()).collect();
    assert_eq!(names, ["fanout_inner", "fanout_outer"]);
    let (inner_ev, outer_ev) = (&events[0], &events[1]);
    assert_eq!(f64_field(inner_ev, "secs"), 300.0 / 1e6);
    assert_eq!(f64_field(outer_ev, "secs"), 450.0 / 1e6);
    assert_eq!(inner_ev.field("depth"), Some(&FieldValue::U64(1)));
    assert_eq!(outer_ev.field("depth"), Some(&FieldValue::U64(0)));
    assert_eq!(
        inner_ev.field("path"),
        Some(&FieldValue::Str("fanout_outer.fanout_inner".into()))
    );
    assert_eq!(
        outer_ev.field("path"),
        Some(&FieldValue::Str("fanout_outer".into()))
    );
    let inner_ctx = inner_ev.trace.expect("inner event is stamped");
    let outer_ctx = outer_ev.trace.expect("outer event is stamped");
    assert_eq!(inner_ctx.trace_id, root.trace_id);
    assert_eq!(outer_ctx.trace_id, root.trace_id);
    assert_eq!(outer_ctx.parent_span_id, Some(root.span_id));
    assert_eq!(inner_ctx.parent_span_id, Some(outer_ctx.span_id));
    assert_ne!(outer_ctx.span_id, root.span_id);

    // The flight recorder saw the same two events, with the same ids.
    let recorded: Vec<(String, u64, u64)> = FlightRecorder::dump()
        .into_iter()
        .filter(|e| e.target == "span" && e.message.starts_with("fanout_"))
        .map(|e| (e.message, e.span_id, e.parent_span_id))
        .collect();
    assert_eq!(
        recorded,
        vec![
            (
                "fanout_inner".to_string(),
                inner_ctx.span_id,
                outer_ctx.span_id
            ),
            ("fanout_outer".to_string(), outer_ctx.span_id, root.span_id),
        ]
    );

    // Span export: one record per span scope, in close order, with the
    // scope's own clock readings and the same ids as the events.
    let record = |name: &str, span_id: u64, parent: u64, start_us: u64, dur_us: u64| SpanRecord {
        process: "fanout".into(),
        name: name.into(),
        trace_id: root.trace_id,
        span_id,
        parent_span_id: Some(parent),
        start_us,
        dur_us,
        annotations: Vec::new(),
    };
    assert_eq!(
        exported,
        vec![
            record(
                "fanout_inner",
                inner_ctx.span_id,
                outer_ctx.span_id,
                100,
                300
            ),
            record("fanout_outer", outer_ctx.span_id, root.span_id, 0, 450),
        ]
    );

    // Every frame is gone again: nothing stays current.
    assert_eq!(privim_obs::current_trace(), None);
}
