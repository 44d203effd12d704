//! One scope primitive: [`Scope`], one per-thread stack, one close path.
//!
//! A span scope times a phase and reports to the `span.<name>`
//! histogram, the `span` event and span export; a kernel scope times a
//! hot kernel and is inert while profiling is off. While profiling is
//! on, both open a node in the profile tree. Entered trace contexts are
//! frames on the same stack that carry only a context. A worker thread
//! takes over its spawner's open scopes through [`ScopeParent`], so its
//! own scopes land under the spawner's profile path and trace.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::global_registry;
use crate::profile::{self, profiling_enabled, WorkCounts};
use crate::trace::TraceContext;

/// One open scope or entered trace context.
#[derive(Clone, Copy)]
struct Frame {
    /// Scope name; empty for a bare trace context.
    name: &'static str,
    /// Span scope: the `span` event's depth and path count only these.
    span: bool,
    /// The trace context this frame made current.
    trace: Option<TraceContext>,
    /// The profile node this frame opened.
    node: Option<usize>,
    /// A spawner's scope that a worker took over ([`ScopeParent::adopt`]):
    /// its node is opened on the worker's first profiled scope, and it
    /// never closes, so it counts no calls and no child time.
    inherited: bool,
}

thread_local! {
    /// Open scopes and entered trace contexts, outermost first.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Pops the frame at `slot`, which must be the innermost one.
fn pop(slot: usize) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        debug_assert_eq!(s.len(), slot + 1, "scopes close innermost first");
        s.truncate(slot);
    });
}

/// The innermost `Some` that `f` finds on this thread's stack.
fn innermost<T>(f: impl FnMut(&Frame) -> Option<T>) -> Option<T> {
    STACK.with(|s| s.borrow().iter().rev().find_map(f))
}

/// The innermost active trace context on this thread, if any.
pub fn current_trace() -> Option<TraceContext> {
    innermost(|f| f.trace)
}

/// A profile node for `name` under the innermost open one, if
/// profiling is on. Inherited frames get their nodes here, on the first
/// profiled scope, so a worker that opens none touches no profile tree.
fn profile_node(name: &'static str) -> Option<usize> {
    profiling_enabled().then(|| {
        let parent = STACK.with(|s| {
            let mut parent = 0;
            for f in s.borrow_mut().iter_mut() {
                if f.inherited && f.node.is_none() {
                    f.node = Some(profile::open_node(parent, f.name));
                }
                parent = f.node.unwrap_or(parent);
            }
            parent
        });
        profile::open_node(parent, name)
    })
}

/// The open scopes of a thread that hands work to workers: its innermost
/// trace context and its profile path. A worker runs its share under
/// [`ScopeParent::adopt`], so its events carry the spawner's trace and
/// its scopes open under the spawner's profile node: the profile tree has
/// the same rows at any worker count.
#[derive(Debug, Clone, Default)]
pub struct ScopeParent {
    trace: Option<TraceContext>,
    /// Names of the profile path, outermost first.
    path: Vec<&'static str>,
}

impl ScopeParent {
    /// The calling thread's open scopes.
    pub fn current() -> ScopeParent {
        STACK.with(|s| {
            let s = s.borrow();
            ScopeParent {
                trace: s.iter().rev().find_map(|f| f.trace),
                path: s
                    .iter()
                    .filter(|f| f.node.is_some() || f.inherited)
                    .map(|f| f.name)
                    .collect(),
            }
        })
    }

    /// Runs `f` on this thread with the captured scopes open.
    pub fn adopt<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Truncate(usize);
        impl Drop for Truncate {
            fn drop(&mut self) {
                STACK.with(|s| s.borrow_mut().truncate(self.0));
            }
        }
        let frames = self.path.iter().map(|&name| Frame {
            name,
            span: false,
            trace: None,
            node: None,
            inherited: true,
        });
        let trace = self.trace.map(|ctx| Frame {
            name: "",
            span: false,
            trace: Some(ctx),
            node: None,
            inherited: false,
        });
        let _restore = (trace.is_some() || !self.path.is_empty()).then(|| {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                let base = s.len();
                s.extend(frames.chain(trace));
                Truncate(base)
            })
        });
        f()
    }
}

/// A running scope; closes (and reports) when dropped or on
/// [`Scope::finish`]. `!Send`: its frame is on its thread's stack.
pub struct Scope<'c> {
    clock: &'c dyn Clock,
    start_micros: u64,
    /// This scope's frame; `None` once closed, and for an inert kernel.
    slot: Option<usize>,
    work: Cell<WorkCounts>,
    _not_send: PhantomData<*const ()>,
}

static CLOCK: MonotonicClock = MonotonicClock;

impl Scope<'static> {
    /// Opens a span scope on the process monotonic clock; bind it to
    /// keep it open: `let _span = Scope::span("training");`.
    pub fn span(name: &'static str) -> Scope<'static> {
        Scope::span_with_clock(name, &CLOCK)
    }

    /// Opens a kernel scope on the process monotonic clock.
    pub fn kernel(name: &'static str) -> Scope<'static> {
        Scope::kernel_with_clock(name, &CLOCK)
    }

    /// The guard of [`TraceContext::enter`]: a frame that only makes
    /// `ctx` current.
    pub(crate) fn trace(ctx: TraceContext) -> Scope<'static> {
        let frame = Frame {
            name: "",
            span: false,
            trace: Some(ctx),
            node: None,
            inherited: false,
        };
        Scope::open(Some(frame), &CLOCK)
    }
}

impl<'c> Scope<'c> {
    /// [`Scope::span`] on an explicit clock (tests inject a
    /// [`crate::ManualClock`]).
    pub fn span_with_clock(name: &'static str, clock: &'c dyn Clock) -> Scope<'c> {
        let frame = Frame {
            name,
            span: true,
            trace: current_trace().map(|c| c.child()),
            node: profile_node(name),
            inherited: false,
        };
        Scope::open(Some(frame), clock)
    }

    /// [`Scope::kernel`] on an explicit clock. With profiling off its
    /// whole cost is the one relaxed load of `profiling_enabled`: no
    /// clock read, no thread-local access.
    pub fn kernel_with_clock(name: &'static str, clock: &'c dyn Clock) -> Scope<'c> {
        let frame = profiling_enabled().then(|| Frame {
            name,
            span: false,
            trace: None,
            node: profile_node(name),
            inherited: false,
        });
        Scope::open(frame, clock)
    }

    fn open(frame: Option<Frame>, clock: &'c dyn Clock) -> Scope<'c> {
        Scope {
            slot: frame.map(|f| {
                STACK.with(|s| {
                    let mut s = s.borrow_mut();
                    s.push(f);
                    s.len() - 1
                })
            }),
            start_micros: frame.map_or(0, |_| clock.now_micros()),
            clock,
            work: Cell::default(),
            _not_send: PhantomData,
        }
    }

    /// Seconds elapsed so far.
    pub fn elapsed_secs(&self) -> f64 {
        (self.clock.now_micros().saturating_sub(self.start_micros)) as f64 / 1e6
    }

    /// Records work done inside this scope: floating-point operations,
    /// bytes moved, and a kernel-defined item count (edges, trials,
    /// gradient entries, …). It lands on the scope's profile node at
    /// close, from which the profiler derives GFLOP/s, GB/s and
    /// arithmetic intensity. An inert kernel scope reads one field.
    pub fn add_work(&self, flops: u64, bytes: u64, items: u64) {
        if self.slot.is_some() {
            let mut work = self.work.get();
            work.add(flops, bytes, items);
            self.work.set(work);
        }
    }

    /// Closes the scope now; returns its duration in seconds (0 for an
    /// inert kernel scope).
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    /// The one close path: the frame plus the elapsed time is the close
    /// record. It goes to the profile tree, then (span scopes) to the
    /// `span.<name>` histogram, the `span` event and span export, while
    /// the frame is still current; then the frame is popped.
    fn close(&mut self) -> f64 {
        let Some(slot) = self.slot.take() else {
            return 0.0;
        };
        let elapsed_micros = self.clock.now_micros().saturating_sub(self.start_micros);
        let secs = elapsed_micros as f64 / 1e6;
        let Some(frame) = STACK.with(|s| s.borrow().get(slot).copied()) else {
            return secs; // an enclosing scope closed first and took this frame
        };
        if let Some(node) = frame.node {
            // An inherited parent runs on another thread, concurrently:
            // this scope's time is not carved out of its own.
            let credit_parent = STACK.with(|s| {
                s.borrow()[..slot]
                    .iter()
                    .rev()
                    .find(|f| f.node.is_some())
                    .is_none_or(|f| !f.inherited)
            });
            profile::close_node(node, elapsed_micros, self.work.get(), credit_parent);
        }
        if frame.span {
            global_registry()
                .histogram(&format!("span.{}", frame.name))
                .record(secs);
            // Names of the span frames up to this one, outermost first.
            let names = || -> Vec<&str> {
                STACK.with(|s| {
                    s.borrow()[..=slot]
                        .iter()
                        .filter(|f| f.span)
                        .map(|f| f.name)
                        .collect()
                })
            };
            crate::debug!(
                "span",
                frame.name,
                secs = secs,
                depth = names().len() - 1,
                path = names().join("."),
            );
            if let Some(ctx) = frame.trace {
                let (start, dur) = (self.start_micros, elapsed_micros);
                crate::export_finished_span(frame.name, &ctx, start, dur, Vec::new());
            }
        }
        pop(slot);
        secs
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::event::{Event, FieldValue};
    use crate::level::Level;
    use crate::sink::{global_sink_lock, install_sink, take_sinks, MemorySink};
    use std::sync::Arc;

    #[test]
    fn injected_clock_times_exactly() {
        let clock = ManualClock::new();
        let span = Scope::span_with_clock("unit_test_exact", &clock);
        clock.advance_secs(1.5);
        assert!((span.elapsed_secs() - 1.5).abs() < 1e-9);
        clock.advance_secs(0.25);
        let secs = span.finish();
        assert!((secs - 1.75).abs() < 1e-9, "{secs}");
        let summary = global_registry()
            .histogram("span.unit_test_exact")
            .summarize();
        assert_eq!(summary.count, 1);
        assert!((summary.sum - 1.75).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_report_depth_path_and_exclusive_times() {
        let _guard = global_sink_lock();
        take_sinks();
        let sink = Arc::new(MemorySink::new(Level::Debug));
        install_sink(sink.clone());

        let clock = ManualClock::new();
        {
            let _outer = Scope::span_with_clock("outer_nesting_test", &clock);
            clock.advance_secs(1.0);
            {
                let _inner = Scope::span_with_clock("inner_nesting_test", &clock);
                clock.advance_secs(2.0);
            }
            clock.advance_secs(0.5);
        }
        take_sinks();

        let events: Vec<Event> = sink
            .events()
            .into_iter()
            .filter(|e| e.target == "span" && e.message.ends_with("_nesting_test"))
            .collect();
        assert_eq!(events.len(), 2, "inner closes first, then outer");
        let inner = &events[0];
        let outer = &events[1];
        assert_eq!(inner.message, "inner_nesting_test");
        assert_eq!(outer.message, "outer_nesting_test");
        assert_eq!(inner.field("depth"), Some(&FieldValue::U64(1)));
        assert_eq!(outer.field("depth"), Some(&FieldValue::U64(0)));
        assert_eq!(
            inner.field("path"),
            Some(&FieldValue::Str(
                "outer_nesting_test.inner_nesting_test".into()
            ))
        );
        let secs_of = |e: &Event| match e.field("secs") {
            Some(FieldValue::F64(s)) => *s,
            other => panic!("missing secs: {other:?}"),
        };
        assert!((secs_of(inner) - 2.0).abs() < 1e-9);
        assert!(
            (secs_of(outer) - 3.5).abs() < 1e-9,
            "outer covers inner + own time"
        );
    }

    #[test]
    fn span_events_carry_a_child_trace_context() {
        let _guard = global_sink_lock();
        take_sinks();
        let sink = Arc::new(MemorySink::new(Level::Debug));
        install_sink(sink.clone());

        let root = crate::trace::TraceContext::from_seed(21);
        let clock = ManualClock::new();
        {
            let _t = root.enter();
            let _span = Scope::span_with_clock("traced_span_test", &clock);
            clock.advance_secs(0.5);
        }
        take_sinks();

        let event = sink
            .events()
            .into_iter()
            .find(|e| e.target == "span" && e.message == "traced_span_test")
            .expect("span close event");
        let ctx = event.trace.expect("span event is stamped");
        assert_eq!(ctx.trace_id, root.trace_id);
        assert_ne!(ctx.span_id, root.span_id, "span gets its own id");
        assert_eq!(ctx.parent_span_id, Some(root.span_id));
        assert_eq!(
            crate::trace::current_trace(),
            None,
            "span popped its context"
        );
    }

    #[test]
    fn span_stack_unwinds_even_without_sinks() {
        let clock = ManualClock::new();
        for _ in 0..3 {
            let _span = Scope::span_with_clock("unwind_test", &clock);
        }
        let depth = STACK.with(|s| s.borrow().len());
        assert_eq!(depth, 0);
    }

    #[test]
    fn adopted_worker_scopes_profile_under_the_spawner() {
        let _guard = profile::tests::test_lock();
        profile::set_profiling(true);
        profile::reset_profile();
        let clock = ManualClock::new();
        let ctx = TraceContext::from_seed(8);
        {
            let _t = ctx.enter();
            let _outer = Scope::span_with_clock("adopt_test_outer", &clock);
            let parent = ScopeParent::current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    parent.adopt(|| {
                        assert_eq!(current_trace().map(|c| c.trace_id), Some(ctx.trace_id));
                        let kernel = Scope::kernel_with_clock("adopt_test_kernel", &clock);
                        kernel.add_work(3, 2, 1);
                        clock.advance_micros(30);
                    });
                    assert_eq!(STACK.with(|s| s.borrow().len()), 0, "adopt unwinds");
                });
            });
            clock.advance_micros(10);
        }
        profile::set_profiling(false);
        let report = profile::profile_report();
        let outer = report.row("adopt_test_outer").expect("outer row");
        // The worker's 30 µs ran beside the spawner's: not carved out of
        // its self time.
        assert_eq!(
            (outer.calls, outer.total_micros, outer.self_micros),
            (1, 40, 40)
        );
        let kernel = report
            .row("adopt_test_outer;adopt_test_kernel")
            .expect("the worker's kernel sits under the spawner's span");
        assert_eq!(
            (kernel.calls, kernel.flops, kernel.bytes, kernel.items),
            (1, 3, 2, 1)
        );
        assert!(
            report.row("adopt_test_kernel").is_none(),
            "no top-level row"
        );
    }

    #[test]
    fn inert_kernel_scope_pushes_no_frame() {
        // Serialized with the profiler tests, which switch profiling on.
        let _guard = profile::tests::test_lock();
        profile::set_profiling(false);
        let clock = ManualClock::new();
        let kernel = Scope::kernel_with_clock("inert_kernel_test", &clock);
        kernel.add_work(1, 1, 1);
        assert_eq!(STACK.with(|s| s.borrow().len()), 0);
        assert_eq!(kernel.finish(), 0.0);
    }
}
