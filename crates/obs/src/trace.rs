//! Trace correlation: deterministic 128-bit trace ids, made current on
//! the thread's scope stack.
//!
//! A [`TraceContext`] names one causal chain — a training run, a served
//! request — with a 128-bit `trace_id` plus a 64-bit `span_id` and
//! optional parent. Every id is derived with splitmix64 from a caller
//! seed (the master seed, an `X-Request-Id` header, a request counter):
//! **never** from wall-clock entropy, and never by consuming an RNG
//! stream, so arming tracing cannot perturb seeded results.
//!
//! Contexts live on the same thread-local stack as open scopes (see
//! [`crate::Scope`]). While one is active (via [`TraceContext::enter`]),
//! every event built by the `event!` macros is
//! stamped with the innermost context's ids (see
//! [`crate::Event::trace`]), and span scopes push a child context so
//! nested emissions carry the span's own `span_id` with its parent
//! linked.
//! Worker threads do not inherit the stack — propagate explicitly with
//! [`crate::ScopeParent`], as the parallel Monte-Carlo estimator does.
//!
//! One context per process can additionally be promoted to the
//! *run trace* ([`set_run_trace`]): exporters that render process-wide
//! state (Prometheus text, the HTML report) label their output with it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fault::splitmix64;
use crate::scope::Scope;

/// Domain-separation tags so the three id streams derived from one seed
/// never collide with each other or with epoch-seed derivation.
const TAG_TRACE_HI: u64 = 0x7452_4163_6548_6921;
const TAG_TRACE_LO: u64 = 0x7452_4163_654c_6f21;
const TAG_SPAN: u64 = 0x5350_414e_5f49_445f;
/// Tag for [`TraceContext::child_n`]: "child_n_" as ASCII bytes.
const TAG_CHILD: u64 = 0x6368_696c_645f_6e5f;

/// Canonical (lower-case) name of the cross-process propagation header.
/// The wire form is produced by [`TraceContext::to_trace_header`] and
/// consumed by [`parse_trace_header`].
pub const TRACE_HEADER: &str = "x-privim-trace";

/// Well-known child indices for [`TraceContext::child_n`], so every
/// process in the tier derives the *same* span id for the same hop and
/// tests can assert exact trees. Children of a request span:
///
/// * [`CHILD_QUEUE_WAIT`] — time on the accept queue before a worker
///   picked the connection up.
/// * [`CHILD_HANDLE`] — handler execution (worker compute).
/// * [`CHILD_ATTEMPT_BASE`]` + k` — the router's k-th forwarding
///   attempt (k is 1-based, so attempts use indices 2, 3, …).
/// * [`CHILD_HEDGE_BASE`]` + k` — the hedge leg raced against
///   attempt k (disjoint from attempt indices for up to 31 retries).
///
/// A replica derives its request span from the router's attempt span
/// (recovered from the trace header) at index [`CHILD_REMOTE_REQUEST`].
pub const CHILD_QUEUE_WAIT: u64 = 0;
/// Handler-execution child index (see [`CHILD_QUEUE_WAIT`]).
pub const CHILD_HANDLE: u64 = 1;
/// Base for per-attempt child indices (see [`CHILD_QUEUE_WAIT`]).
pub const CHILD_ATTEMPT_BASE: u64 = 1;
/// Base for hedge-leg child indices (see [`CHILD_QUEUE_WAIT`]).
pub const CHILD_HEDGE_BASE: u64 = 33;
/// Child index a replica uses to derive its request span from the
/// propagated attempt span (see [`CHILD_QUEUE_WAIT`]).
pub const CHILD_REMOTE_REQUEST: u64 = 0;

/// One node in a causal chain: which trace, which span, and the parent
/// span (if any). `Copy`, 40 bytes, cheap to stamp onto every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id shared by every span in the chain.
    pub trace_id: u128,
    /// This span's 64-bit id.
    pub span_id: u64,
    /// The parent span's id (`None` for a root context).
    pub parent_span_id: Option<u64>,
}

impl TraceContext {
    /// A root context derived deterministically from `seed` — the same
    /// seed always yields the same trace id.
    pub fn from_seed(seed: u64) -> TraceContext {
        let hi = splitmix64(seed ^ TAG_TRACE_HI);
        let lo = splitmix64(hi ^ TAG_TRACE_LO);
        TraceContext {
            trace_id: ((hi as u128) << 64) | lo as u128,
            span_id: splitmix64(lo ^ TAG_SPAN),
            parent_span_id: None,
        }
    }

    /// A root context from an arbitrary request-id string (e.g. an
    /// `X-Request-Id` header), folding its bytes through splitmix64.
    /// Deterministic: the same id always maps to the same trace, so a
    /// client-chosen id can be correlated offline.
    pub fn from_request_id(id: &str) -> TraceContext {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in id.as_bytes() {
            h = splitmix64(h ^ b as u64);
        }
        h = splitmix64(h ^ id.len() as u64);
        TraceContext::from_seed(h)
    }

    /// A child context: same trace, fresh span id, parent set to this
    /// span. Child ids mix in a process-local sequence number (one
    /// relaxed `fetch_add`) — unique without touching the wall clock.
    pub fn child(&self) -> TraceContext {
        static CHILD_SEQ: AtomicU64 = AtomicU64::new(1);
        let n = CHILD_SEQ.fetch_add(1, Ordering::Relaxed);
        TraceContext {
            trace_id: self.trace_id,
            span_id: splitmix64(self.span_id ^ splitmix64(n)),
            parent_span_id: Some(self.span_id),
        }
    }

    /// A child at a *named* index: same trace, parent set to this span,
    /// span id a pure function of `(self.span_id, n)` — no process
    /// state, no clock. Two processes that agree on the parent span and
    /// the index (see [`CHILD_QUEUE_WAIT`] and friends) derive the same
    /// id, which is what lets tests assert exact cross-process trees.
    pub fn child_n(&self, n: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: splitmix64(self.span_id ^ splitmix64(TAG_CHILD ^ n)),
            parent_span_id: Some(self.span_id),
        }
    }

    /// Serializes this context for the `X-Privim-Trace` header:
    /// `<trace-id:032x>-<span-id:016x>-<flags:02x>`. The span id field
    /// is *this* span's id — the receiver treats it as the remote
    /// parent. Flags are always `01` (sampled) today.
    pub fn to_trace_header(&self) -> String {
        format!("{:032x}-{:016x}-01", self.trace_id, self.span_id)
    }

    /// The trace id as 32 lowercase hex digits (W3C traceparent style).
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// The span id as 16 lowercase hex digits.
    pub fn span_id_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }

    /// Pushes this context onto the thread's scope stack; it stays
    /// active (and stamps every emission on this thread) until the
    /// returned guard drops. The guard is `!Send`: a context belongs to
    /// the thread that entered it.
    pub fn enter(self) -> Scope<'static> {
        Scope::trace(self)
    }
}

/// Parses an `X-Privim-Trace` header value produced by
/// [`TraceContext::to_trace_header`]. Validation is strict — exactly
/// three `-`-separated fields of 32, 16, and 2 *lowercase* hex digits —
/// so a hostile or corrupted header degrades to "no context" rather
/// than poisoning the trace tree. The returned context names the
/// **remote parent** span: its `span_id` is the sender's span id and
/// `parent_span_id` is `None` (the sender's own ancestry is not on the
/// wire). Derive local spans from it with [`TraceContext::child_n`].
pub fn parse_trace_header(value: &str) -> Option<TraceContext> {
    fn hex_field(s: &str, len: usize) -> Option<u128> {
        if s.len() != len
            || !s
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return None;
        }
        u128::from_str_radix(s, 16).ok()
    }
    let mut parts = value.split('-');
    let (trace, span, flags) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    let trace_id = hex_field(trace, 32)?;
    let span_id = hex_field(span, 16)? as u64;
    hex_field(flags, 2)?;
    Some(TraceContext {
        trace_id,
        span_id,
        parent_span_id: None,
    })
}

pub use crate::scope::current_trace;

static RUN_TRACE: Mutex<Option<TraceContext>> = Mutex::new(None);

/// Promotes `ctx` to the process-wide run trace, used by exporters that
/// render process-global state (Prometheus, the HTML report) to label
/// their output. Replaces any previous run trace.
pub fn set_run_trace(ctx: TraceContext) {
    *RUN_TRACE.lock().unwrap_or_else(|e| e.into_inner()) = Some(ctx);
}

/// Clears the process-wide run trace.
pub fn clear_run_trace() {
    *RUN_TRACE.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// The process-wide run trace, if one was set.
pub fn run_trace() -> Option<TraceContext> {
    *RUN_TRACE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic_and_seed_sensitive() {
        let a = TraceContext::from_seed(42);
        let b = TraceContext::from_seed(42);
        let c = TraceContext::from_seed(43);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, c.trace_id);
        assert_eq!(a.parent_span_id, None);
        assert_eq!(a.trace_id_hex().len(), 32);
        assert_eq!(a.span_id_hex().len(), 16);
    }

    #[test]
    fn request_id_derivation_is_stable_and_collision_averse() {
        let a = TraceContext::from_request_id("req-abc-123");
        let b = TraceContext::from_request_id("req-abc-123");
        assert_eq!(a, b);
        // Nearby ids, the empty id, and hostile bytes all stay distinct.
        let ids = ["req-abc-124", "", "req", "\"\n\\", "req-abc-123 "];
        for id in ids {
            assert_ne!(
                TraceContext::from_request_id(id).trace_id,
                a.trace_id,
                "{id:?}"
            );
        }
    }

    #[test]
    fn children_share_the_trace_and_link_their_parent() {
        let root = TraceContext::from_seed(7);
        let child = root.child();
        let grandchild = child.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, Some(root.span_id));
        assert_eq!(grandchild.parent_span_id, Some(child.span_id));
        assert_ne!(child.span_id, root.span_id);
        assert_ne!(grandchild.span_id, child.span_id);
    }

    #[test]
    fn stack_nests_and_unwinds() {
        assert_eq!(current_trace(), None);
        let outer = TraceContext::from_seed(1);
        {
            let _g = outer.enter();
            assert_eq!(current_trace(), Some(outer));
            let inner = outer.child();
            {
                let _g2 = inner.enter();
                assert_eq!(current_trace(), Some(inner));
            }
            assert_eq!(current_trace(), Some(outer));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn worker_threads_do_not_inherit_but_can_adopt() {
        let ctx = TraceContext::from_seed(11);
        let _g = ctx.enter();
        let parent = crate::ScopeParent::current();
        let (bare, adopted, after) = std::thread::spawn(move || {
            let bare = current_trace();
            let adopted = parent.adopt(current_trace);
            (bare, adopted, current_trace())
        })
        .join()
        .unwrap();
        assert_eq!(bare, None, "stacks are thread-local");
        assert_eq!(adopted, Some(ctx));
        assert_eq!(after, None, "adoption ends with the closure");
    }

    #[test]
    fn child_n_is_pure_and_index_sensitive() {
        let root = TraceContext::from_seed(7);
        let a = root.child_n(0);
        let b = root.child_n(0);
        let c = root.child_n(1);
        assert_eq!(a, b, "same parent + same index → same span id");
        assert_ne!(a.span_id, c.span_id);
        assert_eq!(a.trace_id, root.trace_id);
        assert_eq!(a.parent_span_id, Some(root.span_id));
        // Indices used by the tier never collide under one parent.
        let indices = [
            CHILD_QUEUE_WAIT,
            CHILD_HANDLE,
            CHILD_ATTEMPT_BASE + 1,
            CHILD_ATTEMPT_BASE + 2,
            CHILD_HEDGE_BASE + 1,
        ];
        let mut ids: Vec<u64> = indices.iter().map(|&n| root.child_n(n).span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), indices.len());
    }

    #[test]
    fn trace_header_round_trips() {
        let ctx = TraceContext::from_seed(42).child_n(3);
        let header = ctx.to_trace_header();
        assert_eq!(header.len(), 32 + 1 + 16 + 1 + 2);
        let parsed = parse_trace_header(&header).unwrap();
        assert_eq!(parsed.trace_id, ctx.trace_id);
        assert_eq!(parsed.span_id, ctx.span_id);
        assert_eq!(parsed.parent_span_id, None, "ancestry is not on the wire");
        // The receiver re-derives the same child the sender would.
        assert_eq!(parsed.child_n(5).span_id, {
            let mut c = ctx;
            c.parent_span_id = None;
            c.child_n(5).span_id
        });
    }

    #[test]
    fn trace_header_parsing_is_strict() {
        let good = TraceContext::from_seed(1).to_trace_header();
        assert!(parse_trace_header(&good).is_some());
        let bad = [
            "",
            "not-a-trace",
            &good.to_ascii_uppercase(),
            &good[1..],
            &format!("{good}-00"),
            &good.replace('-', "_"),
            &format!("{}-zz", &good[..good.len() - 3]),
            " ",
        ];
        for value in bad {
            assert_eq!(parse_trace_header(value), None, "{value:?}");
        }
    }

    #[test]
    fn fuzzed_trace_headers_never_panic_and_round_trip() {
        // Seeded sweep (splitmix64 over a counter) of byte flips,
        // truncations, case changes, extra `-` fields and random ASCII.
        // Whatever the parser accepts must re-serialise to the same
        // trace and span fields.
        let mut n = 0u64;
        let mut next = move |bound: usize| {
            n += 1;
            (splitmix64(0x7472_6163_6566_757a ^ n) % bound as u64) as usize
        };
        let mut accepted = 0;
        for i in 0..4000 {
            let header = TraceContext::from_seed(i).child().to_trace_header();
            let mut bytes = header.into_bytes();
            let pos = next(bytes.len());
            match next(5) {
                0 => bytes[pos] ^= 1 << next(8),
                1 => bytes.truncate(pos),
                2 => bytes[pos] = bytes[pos].to_ascii_uppercase(),
                3 => {
                    bytes.splice(pos..pos, *b"-01");
                }
                _ => {
                    let alphabet = b"0123456789abcdefABCDEF-x ";
                    bytes = (0..next(60))
                        .map(|_| alphabet[next(alphabet.len())])
                        .collect();
                }
            }
            let value = String::from_utf8_lossy(&bytes);
            if let Some(ctx) = parse_trace_header(&value) {
                accepted += 1;
                assert_eq!(ctx.parent_span_id, None, "{value:?}");
                assert_eq!(ctx.to_trace_header()[..49], value[..49], "{value:?}");
            }
        }
        assert!(accepted > 0, "some mutations keep the header valid");
    }

    #[test]
    fn run_trace_is_settable_and_clearable() {
        // RUN_TRACE is process-global; serialize with other tests that
        // set it (e.g. the Prometheus info-series test).
        let _guard = crate::sink::global_sink_lock();
        let ctx = TraceContext::from_seed(99);
        set_run_trace(ctx);
        assert_eq!(run_trace(), Some(ctx));
        clear_run_trace();
        assert_eq!(run_trace(), None);
    }
}
