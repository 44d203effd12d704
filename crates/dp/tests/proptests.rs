//! Property tests for the privacy substrate. Each property runs on
//! [`CASES`] inputs drawn from `StdRng::seed_from_u64(case)`, so a
//! failing case is named and replays exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use privim_dp::math::{gamma_pdf, ln_binomial, ln_gamma, log_sum_exp};
use privim_dp::rdp::{rdp_to_epsilon, subsampled_gaussian_rdp, RdpAccountant, SubsampledConfig};

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

#[test]
fn ln_gamma_satisfies_recurrence() {
    for_cases(|rng| {
        let x = rng.gen_range(0.05..200.0);
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        assert!((lhs - rhs).abs() < 1e-8, "x = {x}: {lhs} vs {rhs}");
    });
}

#[test]
fn ln_binomial_pascal_rule() {
    for_cases(|rng| {
        let n = rng.gen_range(1..60usize) as u64;
        let k = (rng.gen_range(0..60usize) as u64).min(n - 1);
        // C(n+1, k+1) = C(n, k) + C(n, k+1)
        let lhs = ln_binomial(n + 1, k + 1).exp();
        let rhs = ln_binomial(n, k).exp() + ln_binomial(n, k + 1).exp();
        assert!((lhs - rhs).abs() / rhs < 1e-9);
    });
}

#[test]
fn log_sum_exp_matches_naive_in_safe_range() {
    for_cases(|rng| {
        let len = rng.gen_range(1..20usize);
        let xs = uniform_vec(rng, len, -20.0, 20.0);
        let naive = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-9);
    });
}

#[test]
fn log_sum_exp_shift_invariance() {
    for_cases(|rng| {
        let len = rng.gen_range(1..10usize);
        let xs = uniform_vec(rng, len, -5.0, 5.0);
        let c = rng.gen_range(-100.0..100.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        assert!((log_sum_exp(&shifted) - (log_sum_exp(&xs) + c)).abs() < 1e-9);
    });
}

#[test]
fn gamma_pdf_is_nonnegative() {
    for_cases(|rng| {
        let x = rng.gen_range(-10.0..100.0);
        let shape = rng.gen_range(0.1..20.0);
        let scale = rng.gen_range(0.1..30.0);
        assert!(gamma_pdf(x, shape, scale) >= 0.0);
    });
}

fn check_rdp_is_positive_and_monotone_in_alpha(sigma: f64, n_g: usize, b: usize, m_extra: usize) {
    let config = SubsampledConfig {
        max_occurrences: n_g,
        batch_size: b,
        container_size: n_g + m_extra,
    };
    let g2 = subsampled_gaussian_rdp(2.0, sigma, &config);
    let g8 = subsampled_gaussian_rdp(8.0, sigma, &config);
    assert!(g2 >= 0.0, "gamma must be non-negative: {g2}");
    assert!(g8 >= g2 - 1e-12, "RDP must be non-decreasing in alpha");
}

#[test]
fn rdp_is_positive_and_monotone_in_alpha() {
    // A case that once failed, kept as a fixed regression input.
    check_rdp_is_positive_and_monotone_in_alpha(0.3, 1, 21, 1);
    for_cases(|rng| {
        check_rdp_is_positive_and_monotone_in_alpha(
            rng.gen_range(0.3..8.0),
            rng.gen_range(1..20usize),
            rng.gen_range(1..64usize),
            rng.gen_range(1..500usize),
        );
    });
}

#[test]
fn rdp_decreases_with_sigma_everywhere() {
    for_cases(|rng| {
        let n_g = rng.gen_range(1..10usize);
        let config = SubsampledConfig {
            max_occurrences: n_g,
            batch_size: rng.gen_range(1..32usize),
            container_size: n_g + rng.gen_range(10..300usize),
        };
        let lo = subsampled_gaussian_rdp(4.0, 0.5, &config);
        let hi = subsampled_gaussian_rdp(4.0, 2.0, &config);
        assert!(hi <= lo + 1e-12);
    });
}

#[test]
fn epsilon_monotone_in_steps() {
    for_cases(|rng| {
        let sigma = rng.gen_range(0.5..4.0);
        let t1 = rng.gen_range(1..50usize);
        let extra = rng.gen_range(1..50usize);
        let config = SubsampledConfig {
            max_occurrences: 4,
            batch_size: 8,
            container_size: 100,
        };
        let eps = |t: usize| {
            let mut acct = RdpAccountant::default();
            acct.compose_subsampled_gaussian(sigma, &config, t);
            acct.epsilon(1e-5).0
        };
        assert!(eps(t1 + extra) >= eps(t1) - 1e-9);
    });
}

#[test]
fn conversion_is_monotone_in_gamma_and_delta() {
    for_cases(|rng| {
        let gamma = rng.gen_range(0.0..50.0);
        let alpha = rng.gen_range(1.1..64.0);
        let bump = rng.gen_range(0.01..10.0);
        let e1 = rdp_to_epsilon(gamma, alpha, 1e-5);
        let e2 = rdp_to_epsilon(gamma + bump, alpha, 1e-5);
        assert!(e2 > e1, "epsilon must grow with gamma");
        let loose = rdp_to_epsilon(gamma, alpha, 1e-3);
        assert!(loose <= e1, "looser delta cannot need more epsilon");
    });
}

#[test]
fn gaussian_samples_are_finite() {
    for_cases(|rng| {
        let mut sampler = StdRng::seed_from_u64(rng.gen_range(0..1000usize) as u64);
        let std = rng.gen_range(0.0..100.0);
        for _ in 0..32 {
            let x = privim_dp::mechanisms::gaussian(&mut sampler, std);
            assert!(x.is_finite());
        }
    });
}
