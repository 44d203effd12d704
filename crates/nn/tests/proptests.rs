//! Property tests for the tensor/autograd substrate. Each property runs
//! on [`CASES`] inputs drawn from `StdRng::seed_from_u64(case)`, so a
//! failing case is named and replays exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use privim_nn::graph_tensors::InEdges;
use privim_nn::matrix::Matrix;
use privim_nn::params::GradVec;
use privim_nn::tape::Tape;

const CASES: u64 = 64;

/// Runs `check` once per case with that case's generator.
fn for_cases(mut check: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let run = std::panic::AssertUnwindSafe(|| check(&mut rng));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("property failed on case {case}");
            std::panic::resume_unwind(panic);
        }
    }
}

fn uniform_vec(rng: &mut StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

fn arb_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, uniform_vec(rng, rows * cols, -3.0, 3.0))
}

#[test]
fn matmul_distributes_over_addition() {
    for_cases(|rng| {
        let a = arb_matrix(rng, 3, 4);
        let b = arb_matrix(rng, 4, 2);
        let c = arb_matrix(rng, 4, 2);
        // A(B + C) = AB + AC
        let bc = b.zip_map(&c, |x, y| x + y);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            assert!((l - r).abs() < 1e-9);
        }
    });
}

#[test]
fn transpose_reverses_matmul() {
    for_cases(|rng| {
        let a = arb_matrix(rng, 3, 4);
        let b = arb_matrix(rng, 4, 2);
        // (AB)^T = B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_eq!(lhs.data(), rhs.data());
    });
}

#[test]
fn matmul_nt_tn_consistent() {
    for_cases(|rng| {
        let a = arb_matrix(rng, 3, 4);
        let b = arb_matrix(rng, 5, 4);
        let direct = a.matmul(&b.transpose());
        let fused = a.matmul_nt(&b);
        for (x, y) in direct.data().iter().zip(fused.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    });
}

#[test]
fn frobenius_norm_triangle_inequality() {
    for_cases(|rng| {
        let a = arb_matrix(rng, 4, 4);
        let b = arb_matrix(rng, 4, 4);
        let sum = a.zip_map(&b, |x, y| x + y);
        assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    });
}

fn check_clip_is_idempotent_and_bounding(entries: Vec<f64>, c: f64) {
    let mut g = GradVec::from_blocks(vec![Matrix::from_vec(3, 4, entries)]);
    g.clip(c);
    let after_first = g.clone();
    assert!(g.l2_norm() <= c + 1e-9);
    // Idempotent up to one ulp of rescaling: the first clip may land an
    // epsilon above `c`, making the second apply a ~(1 − 1e-16) factor.
    g.clip(c);
    for (a, b) in g.blocks()[0]
        .data()
        .iter()
        .zip(after_first.blocks()[0].data())
    {
        assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()));
    }
}

#[test]
fn clip_is_idempotent_and_bounding() {
    // A case that once failed, kept as a fixed regression input.
    check_clip_is_idempotent_and_bounding(
        vec![
            1.6008993174165862,
            0.0,
            -2.471565869707119,
            1.2744298837387238,
            0.0,
            3.626759560731804,
            0.4390132423546926,
            -0.10419794261015641,
            -4.991360882420975,
            3.7129914789674365,
            -2.8446148701482694,
            4.188965868739718,
        ],
        0.1,
    );
    for_cases(|rng| {
        let entries = uniform_vec(rng, 12, -5.0, 5.0);
        check_clip_is_idempotent_and_bounding(entries, rng.gen_range(0.1..10.0));
    });
}

#[test]
fn clip_preserves_direction() {
    for_cases(|rng| {
        let original = Matrix::from_vec(2, 4, uniform_vec(rng, 8, -5.0, 5.0));
        if original.frobenius_norm() < 1e-9 {
            return;
        }
        let mut g = GradVec::from_blocks(vec![original.clone()]);
        let pre = g.clip(0.5);
        // Scaled version must be parallel: g = (0.5/pre or 1) * original.
        let scale = if pre > 0.5 { 0.5 / pre } else { 1.0 };
        for (a, b) in g.blocks()[0].data().iter().zip(original.data()) {
            assert!((a - scale * b).abs() < 1e-12);
        }
    });
}

#[test]
fn sum_gradient_is_all_ones_through_linear_ops() {
    for_cases(|rng| {
        let a = arb_matrix(rng, 3, 3);
        let c = rng.gen_range(-2.0..2.0);
        let mut t = Tape::new();
        let v = t.leaf(a);
        let s = t.scale(v, c);
        let s = t.add_scalar(s, 1.5);
        let loss = t.sum(s);
        let g = t.backward(loss);
        for &x in g.get(v).unwrap().data() {
            assert!((x - c).abs() < 1e-12);
        }
    });
}

#[test]
fn sigmoid_output_in_unit_interval() {
    for_cases(|rng| {
        let a = arb_matrix(rng, 4, 2);
        let mut t = Tape::new();
        let v = t.leaf(a);
        let y = t.sigmoid(v);
        assert!(t.value(y).data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    });
}

#[test]
fn segment_softmax_sums_to_one_per_segment() {
    for_cases(|rng| {
        let scores = uniform_vec(rng, 10, -50.0, 50.0);
        let segs: Vec<u32> = (0..10).map(|_| rng.gen_range(0..3u32)).collect();
        let mut t = Tape::new();
        let s = t.leaf(Matrix::from_vec(10, 1, scores));
        let seg = std::sync::Arc::new(segs.clone());
        let y = t.segment_softmax(s, seg, 3);
        let mut sums = [0.0f64; 3];
        for (e, &g) in segs.iter().enumerate() {
            sums[g as usize] += t.value(y)[(e, 0)];
        }
        for (g, &total) in sums.iter().enumerate() {
            let present = segs.iter().any(|&x| x as usize == g);
            if present {
                assert!((total - 1.0).abs() < 1e-9, "segment {g} sums to {total}");
            } else {
                assert_eq!(total, 0.0);
            }
        }
    });
}

#[test]
fn in_edges_are_the_stable_destination_sort_of_the_edge_list() {
    for_cases(|rng| {
        // Few nodes and many edges: parallel edges and self-loops abound.
        let n = rng.gen_range(1..12usize);
        let e = rng.gen_range(0..80usize);
        let src: Vec<u32> = (0..e).map(|_| rng.gen_range(0..n as u32)).collect();
        let dst: Vec<u32> = (0..e).map(|_| rng.gen_range(0..n as u32)).collect();
        let view = InEdges::new(&src, &dst, n);
        let mut order: Vec<u32> = (0..e as u32).collect();
        order.sort_by_key(|&i| dst[i as usize]); // stable
        assert_eq!(view.edge, order);
        let sources: Vec<u32> = order.iter().map(|&i| src[i as usize]).collect();
        assert_eq!(view.src, sources);
        for u in 0..n {
            let into_u = dst.iter().filter(|&&t| t as usize == u).count();
            assert_eq!(view.range(u).len(), into_u);
            assert!(view
                .range(u)
                .all(|k| dst[view.edge[k] as usize] as usize == u));
        }
    });
}

#[test]
fn matmul_is_bit_identical_at_any_thread_count() {
    for_cases(|rng| {
        // Above the work floor, with exact zeros for the zero skip.
        let (m, k, n) = (
            rng.gen_range(80..120),
            rng.gen_range(30..40),
            rng.gen_range(30..40),
        );
        assert!(m * k * n >= privim_nn::par::WORK_FLOOR);
        let mut a = arb_matrix(rng, m, k);
        a.data_mut().iter_mut().step_by(3).for_each(|x| *x = 0.0);
        let b = arb_matrix(rng, k, n);
        let bits = |threads| {
            let c = privim_nn::par::with_threads(threads, || a.matmul(&b));
            c.data().iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
        };
        let serial = bits(1);
        assert_eq!(bits(2), serial);
        assert_eq!(bits(3), serial);
    });
}
