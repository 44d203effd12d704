//! Profiling glue for the autograd kernels.
//!
//! Every hot op opens a kernel [`privim_obs::Scope`] on its forward and
//! backward paths and reports work counters (FLOPs for dense ops, edges
//! for sparse ops). Both are gated on the process-wide profiling flag:
//! with profiling off (the default) each instrumented op costs exactly
//! one relaxed atomic load and touches neither the clock nor the metric
//! registry, so seeded runs stay bit-identical.

/// Adds `n` to the global counter `name`, but only while profiling is
/// enabled — counter lookups take a registry lock, which is too heavy
/// for per-op forward/backward paths to pay unconditionally.
#[inline]
pub(crate) fn add_count(name: &'static str, n: u64) {
    if privim_obs::profiling_enabled() {
        privim_obs::counter(name).add(n);
    }
}
