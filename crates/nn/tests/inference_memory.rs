//! A graph-scale `no_grad` forward frees each value at its last read
//! (`Tape::release`), so the bytes live at its peak stay within a few
//! `N × hidden` matrices plus one layer's edge-sized buffers, however
//! many ops the forward runs.
//!
//! The counting allocator is global to this binary, so it holds this one
//! test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use privim_graph::GraphBuilder;
use privim_nn::par;
use privim_nn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Wraps the system allocator and tracks the bytes live and their peak.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated at the peak of `f` beyond what was live before it.
fn peak_bytes_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn graph_scale_no_grad_forward_keeps_a_bounded_working_set() {
    // The graph of the models' thread-count test: its hidden layers'
    // matmuls, aggregations and attention heads cross the work floor.
    let mut rng = StdRng::seed_from_u64(31);
    let (n, hidden) = (600, 32);
    let mut b = GraphBuilder::new(n);
    for _ in 0..8 * n {
        let (v, u) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if v != u {
            b.add_edge(v, u, rng.gen_range(0.05..1.0));
        }
    }
    let gt = GraphTensors::with_structural_features(&b.build(), 8);
    let e = gt.num_edges();
    assert!(e * hidden >= par::WORK_FLOOR);
    let model = build_model(ModelKind::Grat, 8, hidden, 3, &mut rng);
    par::with_threads(2, || {
        // The first forward sets up lazily built statics (profiler
        // nodes, the worker count); the second is the steady state.
        let warm = model.seed_probabilities(&gt);
        let (probs, peak) = peak_bytes_of(|| model.seed_probabilities(&gt));
        assert_eq!(probs, warm);
        // Four N × hidden f64 matrices, plus 32 bytes per edge for one
        // attention layer's dst-major view, scores and segment ids.
        let bound = 4 * n * hidden * 8 + 32 * e;
        assert!(
            peak <= bound,
            "peak {peak} bytes live during the forward, bound {bound} (N = {n}, E = {e})"
        );
    });
}
