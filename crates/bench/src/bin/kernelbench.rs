//! Deterministic micro-benchmarks for the instrumented hot kernels.
//!
//! Runs every kernel the profiler attributes roofline counters to —
//! tape matmul, SpMM, the fused attention head, gather/scatter, segment
//! softmax (forward and backward via the tape), DP-SGD clip+accumulate,
//! a `no_grad` GRAT forward and Monte Carlo spread — on seeded synthetic
//! workloads at two sizes, and emits the standard `{seed, rows,
//! telemetry}` envelope.
//!
//! Two modes:
//!
//! * default: fully deterministic. No wall-clock fields are emitted, so
//!   two runs with the same seed produce **byte-identical** JSON — this
//!   is what `BENCH_kernels.json` at the repo root is, and what
//!   `tests/kernelbench_determinism.rs` checks.
//! * `--measure`: adds warmup + min-of-N wall-clock timing per kernel
//!   (`min_secs`, `mean_secs`, `cv`, `gflops`). Used when refreshing the
//!   committed baseline so `bench_diff` has runtime metrics to gate on.
//!
//! A counting global allocator (armed only around each kernel's steady
//! state) records allocation counts per row; the clip+accumulate kernel
//! asserts **zero** steady-state allocations, and the forward and the
//! spread rows count only the forward and the spread query, not
//! building their graphs and models.
//!
//! Work counters (`flops`, `bytes`, `items`) are read back from the
//! scoped profiler, not recomputed here — the benchmark doubles as an
//! end-to-end check of the instrumentation sites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use privim_bench::print_table;
use privim_graph::GraphBuilder;
use privim_im::{influence_spread, DiffusionConfig};
use privim_nn::prelude::{build_model, GradVec, GraphTensors, Matrix, ModelKind, Tape};
use privim_obs::fault::splitmix64;
use privim_obs::json::{self, JsonValue, ToJson};
use privim_obs::Scope;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Counting allocator: wraps the system allocator, counts allocations only
// while armed so hot kernels can assert zero steady-state allocation.
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed; returns (result, allocs).
/// A kernel that arms it again around its own steady state leaves that
/// region's count, not its whole run's, for the harness to read.
fn counting_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Seeded synthetic inputs. splitmix64 (not `rand`) so the streams are
// defined by this repo alone and stable across toolchains.
// ---------------------------------------------------------------------------

struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in [-1, 1).
    fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn index(&mut self, n: usize) -> u32 {
        (self.next_u64() % n as u64) as u32
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| self.signed_unit()).collect(),
        )
    }

    fn indices(&mut self, len: usize, n: usize) -> Arc<Vec<u32>> {
        Arc::new((0..len).map(|_| self.index(n)).collect())
    }
}

// ---------------------------------------------------------------------------
// Kernel definitions
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Dims {
    /// Node count (or matmul m=k=n).
    n: usize,
    /// Edge count (or gradient entries).
    e: usize,
    /// Feature width.
    d: usize,
}

const SIZES: [(&str, Dims); 2] = [
    (
        "small",
        Dims {
            n: 48,
            e: 256,
            d: 16,
        },
    ),
    (
        "medium",
        Dims {
            n: 160,
            e: 4096,
            d: 32,
        },
    ),
];

/// One benchmarked kernel: builds its inputs from the stream, runs the
/// forward+backward pass, and returns a checksum of outputs+gradients.
type KernelFn = fn(&mut Stream, Dims) -> f64;

fn bench_matmul(s: &mut Stream, dims: Dims) -> f64 {
    let n = dims.n;
    let a = s.matrix(n, n);
    let b = s.matrix(n, n);
    let mut tape = Tape::new();
    let (va, vb) = (tape.leaf(a), tape.leaf(b));
    let c = tape.matmul(va, vb);
    let loss = tape.sum(c);
    let out_sum = tape.value(c).sum();
    let mut grads = tape.backward(loss);
    out_sum + grads.take(va, (n, n)).sum() + grads.take(vb, (n, n)).sum()
}

fn bench_spmm(s: &mut Stream, dims: Dims) -> f64 {
    let Dims { n, e, d } = dims;
    let h = s.matrix(n, d);
    let src = s.indices(e, n);
    let dst = s.indices(e, n);
    let coeff = Arc::new((0..e).map(|_| s.signed_unit()).collect::<Vec<_>>());
    let mut tape = Tape::new();
    let vh = tape.leaf(h);
    let out = tape.spmm_fixed(vh, src, dst, coeff, n);
    let loss = tape.sum(out);
    let out_sum = tape.value(out).sum();
    let mut grads = tape.backward(loss);
    out_sum + grads.take(vh, (n, d)).sum()
}

/// One GRAT attention head (`attention_aggregate`, softmax by source) on
/// an edge list sorted by `(src, dst)`, as `GraphTensors` builds them.
fn bench_attention(s: &mut Stream, dims: Dims) -> f64 {
    let Dims { n, e, d } = dims;
    let wh = s.matrix(n, d);
    let att = s.matrix(2 * d, 1);
    let mut edges: Vec<(u32, u32)> = (0..e).map(|_| (s.index(n), s.index(n))).collect();
    edges.sort_unstable();
    let (src, dst): (Vec<u32>, Vec<u32>) = edges.into_iter().unzip();
    let (src, dst) = (Arc::new(src), Arc::new(dst));
    let mut tape = Tape::new();
    let (vw, va) = (tape.leaf(wh), tape.leaf(att));
    let out = tape.attention_aggregate(vw, va, Arc::clone(&src), dst, src, n, 0.2);
    let loss = tape.sum(out);
    let out_sum = tape.value(out).sum();
    let mut grads = tape.backward(loss);
    out_sum + grads.take(vw, (n, d)).sum() + grads.take(va, (2 * d, 1)).sum()
}

fn bench_gather(s: &mut Stream, dims: Dims) -> f64 {
    let Dims { n, e, d } = dims;
    let h = s.matrix(n, d);
    let idx = s.indices(e, n);
    let mut tape = Tape::new();
    let vh = tape.leaf(h);
    let out = tape.gather_rows(vh, idx);
    let loss = tape.sum(out);
    let out_sum = tape.value(out).sum();
    let mut grads = tape.backward(loss);
    out_sum + grads.take(vh, (n, d)).sum()
}

fn bench_scatter_add(s: &mut Stream, dims: Dims) -> f64 {
    let Dims { n, e, d } = dims;
    let v = s.matrix(e, d);
    let idx = s.indices(e, n);
    let mut tape = Tape::new();
    let vv = tape.leaf(v);
    let out = tape.scatter_add_rows(vv, idx, n);
    let loss = tape.sum(out);
    let out_sum = tape.value(out).sum();
    let mut grads = tape.backward(loss);
    out_sum + grads.take(vv, (e, d)).sum()
}

fn bench_segment_softmax(s: &mut Stream, dims: Dims) -> f64 {
    let Dims { n, e, .. } = dims;
    let scores = s.matrix(e, 1);
    let segment = s.indices(e, n);
    let mut tape = Tape::new();
    let vs = tape.leaf(scores);
    let soft = tape.segment_softmax(vs, segment, n);
    // sum(softmax) is constant per segment, so square first to get
    // non-trivial gradients through the backward pass.
    let sq = tape.mul(soft, soft);
    let loss = tape.sum(sq);
    let out_sum = tape.value(soft).sum();
    let mut grads = tape.backward(loss);
    // Softmax gradients sum to zero within a segment (shift invariance),
    // so checksum the squared gradient to stay backward-sensitive.
    let g = grads.take(vs, (e, 1));
    out_sum + g.data().iter().map(|x| x * x).sum::<f64>()
}

/// DP-SGD per-sample clip + accumulate. Mirrors the instrumented site in
/// `privim_core::train` (same scope name and work formula) and asserts
/// the steady state performs **zero** heap allocations.
fn bench_clip_accumulate(s: &mut Stream, dims: Dims) -> f64 {
    let Dims { e, d, .. } = dims;
    // `e` scalar entries split over two blocks, like a 2-layer model.
    let rows = e / (2 * d);
    let mut gv = GradVec::from_blocks(vec![s.matrix(rows, d), s.matrix(rows, d)]);
    let mut sum = GradVec::from_blocks(vec![Matrix::zeros(rows, d), Matrix::zeros(rows, d)]);
    let clip_bound = 1.0;
    // Warm the profiler node and scope stack so the counted region sees
    // only the kernel's own (zero) allocations.
    drop(Scope::kernel("train.clip_accumulate"));
    let (pre_norm, allocs) = counting_allocs(|| {
        let prof = Scope::kernel("train.clip_accumulate");
        let p64 = gv.num_entries() as u64;
        prof.add_work(4 * p64, 8 * 6 * p64, p64);
        let pre = gv.clip(clip_bound);
        sum.add_assign(&gv);
        pre
    });
    assert_eq!(allocs, 0, "clip+accumulate must not allocate");
    pre_norm + sum.blocks()[0].sum() + sum.blocks()[1].sum()
}

/// A graph-scale `no_grad` GRAT forward (8 structural features, two
/// `d`-wide hidden layers), as seed selection runs it; only the forward
/// counts allocations.
fn bench_forward(s: &mut Stream, dims: Dims) -> f64 {
    let Dims { n, e, d } = dims;
    let mut b = GraphBuilder::with_capacity(n, e);
    for _ in 0..e {
        let (u, v) = (s.index(n), s.index(n));
        if u != v {
            b.add_edge(u, v, 0.5 + 0.5 * s.signed_unit().abs());
        }
    }
    let gt = GraphTensors::with_structural_features(&b.build(), 8);
    let mut rng = StdRng::seed_from_u64(s.next_u64());
    let model = build_model(ModelKind::Grat, 8, d, 3, &mut rng);
    let (probs, _) = counting_allocs(|| model.seed_probabilities(&gt));
    probs.iter().sum()
}

fn bench_mc_spread(s: &mut Stream, dims: Dims) -> f64 {
    let Dims { n, e, .. } = dims;
    let mut b = GraphBuilder::with_capacity(n, e);
    for _ in 0..e {
        let (u, v) = (s.index(n), s.index(n));
        if u != v {
            b.add_edge(u, v, 0.25 + 0.5 * (0.5 + 0.5 * s.signed_unit()));
        }
    }
    let g = b.build();
    let seeds: Vec<u32> = (0..4.min(n as u32)).collect();
    let trials = dims.e / 16;
    // StdRng (not splitmix) drives the cascades: this is the production
    // code path. Its checksum is informational, never gated.
    let mut rng = StdRng::seed_from_u64(s.next_u64());
    let config = DiffusionConfig::ic_unbounded();
    counting_allocs(|| influence_spread(&g, &seeds, &config, trials, &mut rng)).0
}

const KERNELS: [(&str, KernelFn); 9] = [
    ("matmul", bench_matmul),
    ("spmm", bench_spmm),
    ("attention", bench_attention),
    ("gather", bench_gather),
    ("scatter_add", bench_scatter_add),
    ("segment_softmax", bench_segment_softmax),
    ("clip_accumulate", bench_clip_accumulate),
    ("forward", bench_forward),
    ("mc_spread", bench_mc_spread),
];

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct Timing {
    min_secs: f64,
    mean_secs: f64,
    /// Coefficient of variation across repeats (std / mean).
    cv: f64,
}

struct KernelRow {
    kernel: &'static str,
    size: &'static str,
    flops: u64,
    bytes: u64,
    items: u64,
    checksum: f64,
    allocs: u64,
    timing: Option<Timing>,
}

impl KernelRow {
    fn gflops(&self) -> Option<f64> {
        let t = self.timing.as_ref()?;
        (self.flops > 0).then(|| self.flops as f64 / t.min_secs / 1e9)
    }
}

/// Per-kernel seed: decorrelates kernels while keeping every one a pure
/// function of (`--seed`, kernel, size).
fn kernel_seed(base: u64, kernel: &str, size: &str) -> u64 {
    let mut h = base;
    for b in kernel.bytes().chain(size.bytes()) {
        h = splitmix64(h ^ b as u64);
    }
    h
}

fn run_kernel(
    kernel: &'static str,
    f: KernelFn,
    size: &'static str,
    dims: Dims,
    seed: u64,
) -> (f64, u64, privim_obs::ProfileReport) {
    privim_obs::reset_profile();
    let mut stream = Stream::new(kernel_seed(seed, kernel, size));
    let (checksum, allocs) = counting_allocs(|| f(&mut stream, dims));
    (checksum, allocs, privim_obs::profile_report())
}

fn measure_kernel(
    kernel: &'static str,
    f: KernelFn,
    size: &'static str,
    dims: Dims,
    seed: u64,
    repeats: usize,
) -> Timing {
    // Timing runs: profiler off so we measure the raw kernel, warmup
    // once, then min/mean/cv over `repeats`.
    privim_obs::set_profiling(false);
    let run = || {
        let mut stream = Stream::new(kernel_seed(seed, kernel, size));
        std::hint::black_box(f(&mut stream, dims));
    };
    run();
    let mut secs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = std::time::Instant::now();
        run();
        secs.push(t0.elapsed().as_secs_f64());
    }
    privim_obs::set_profiling(true);
    let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = secs.iter().sum::<f64>() / secs.len() as f64;
    let var = secs.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / secs.len() as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    Timing {
        min_secs: min,
        mean_secs: mean,
        cv,
    }
}

/// The `{seed, rows, telemetry}` envelope, through `privim_obs::json`:
/// sorted keys and shortest round-trip floats, so equal runs are
/// byte-identical.
fn render_envelope(seed: u64, rows: &[KernelRow], counters: &BTreeMap<String, u64>) -> String {
    let row = |r: &KernelRow| {
        let mut fields = BTreeMap::from([
            ("kernel", r.kernel.to_json_value()),
            ("size", r.size.to_json_value()),
            ("flops", r.flops.to_json_value()),
            ("bytes", r.bytes.to_json_value()),
            ("items", r.items.to_json_value()),
            ("allocs", r.allocs.to_json_value()),
            ("checksum", r.checksum.to_json_value()),
        ]);
        if let Some(t) = &r.timing {
            fields.insert("min_secs", t.min_secs.to_json_value());
            fields.insert("mean_secs", t.mean_secs.to_json_value());
            fields.insert("cv", t.cv.to_json_value());
            if let Some(g) = r.gflops() {
                fields.insert("gflops", g.to_json_value());
            }
        }
        json::object(fields)
    };
    // Telemetry: counters only. Histograms (e.g. `im.sims_per_sec`) are
    // wall-clock-derived, so including them would break bit-identity.
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

// ---------------------------------------------------------------------------

struct Opts {
    seed: u64,
    repeats: usize,
    measure: bool,
    json: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 42,
        repeats: 5,
        measure: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--repeats" => {
                opts.repeats = it
                    .next()
                    .ok_or("--repeats needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --repeats: {e}"))?
            }
            "--measure" => opts.measure = true,
            "--json" => opts.json = Some(it.next().ok_or("--json needs a path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: kernelbench [--seed u] [--repeats n] [--measure] [--json path]".into(),
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    privim_obs::set_profiling(true);
    let mut rows = Vec::new();
    for (kernel, f) in KERNELS {
        for (size, dims) in SIZES {
            let (checksum, allocs, profile) = run_kernel(kernel, f, size, dims, opts.seed);
            // Work totals come from the profiler: the benchmark verifies
            // the instrumentation sites as a side effect.
            let flops: u64 = profile.rows.iter().map(|r| r.flops).sum();
            let bytes: u64 = profile.rows.iter().map(|r| r.bytes).sum();
            let items: u64 = profile.rows.iter().map(|r| r.items).sum();
            let timing = opts
                .measure
                .then(|| measure_kernel(kernel, f, size, dims, opts.seed, opts.repeats));
            rows.push(KernelRow {
                kernel,
                size,
                flops,
                bytes,
                items,
                checksum,
                allocs,
                timing,
            });
        }
    }

    let mut headers = vec![
        "kernel", "size", "flops", "bytes", "items", "allocs", "checksum",
    ];
    if opts.measure {
        headers.extend(["min_secs", "cv", "gflop/s"]);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![
                r.kernel.to_string(),
                r.size.to_string(),
                r.flops.to_string(),
                r.bytes.to_string(),
                r.items.to_string(),
                r.allocs.to_string(),
                format!("{:.6}", r.checksum),
            ];
            if let Some(t) = &r.timing {
                row.push(format!("{:.6}", t.min_secs));
                row.push(format!("{:.3}", t.cv));
                row.push(r.gflops().map_or("-".into(), |g| format!("{g:.2}")));
            }
            row
        })
        .collect();
    print_table(&headers, &table);

    let counters = privim_obs::snapshot().counters;
    let envelope = render_envelope(opts.seed, &rows, &counters);
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, &envelope) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}
