//! Noise mechanisms: Gaussian (the paper's Algorithm 2 line 8) and Laplace
//! (Example 2's illustration of why noisy greedy fails).

use rand::Rng;

/// Draws one sample from `N(0, std²)` via Box–Muller.
///
/// We synthesize the normal sampler locally rather than pulling in
/// `rand_distr`; Box–Muller is exact and branch-free.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, std: f64) -> f64 {
    assert!(std >= 0.0, "std must be non-negative");
    // Uniform in (0, 1]: avoids ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws one sample from the Laplace distribution with scale `b`
/// (density `exp(-|x|/b) / 2b`), via inverse-CDF sampling.
pub fn laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    assert!(scale >= 0.0, "scale must be non-negative");
    let u: f64 = rng.gen::<f64>() - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln_1p_guard()
}

trait Ln1pGuard {
    /// `ln(x)` guarded against `x == 0` from the closed interval endpoint.
    fn ln_1p_guard(self) -> f64;
}

impl Ln1pGuard for f64 {
    fn ln_1p_guard(self) -> f64 {
        self.max(f64::MIN_POSITIVE).ln()
    }
}

/// The Laplace mechanism for a query with l1-sensitivity `delta` and budget
/// `epsilon`: returns `value + Lap(Δ/ε)`.
pub fn laplace_mechanism<R: Rng + ?Sized>(
    rng: &mut R,
    value: f64,
    sensitivity: f64,
    epsilon: f64,
) -> f64 {
    assert!(epsilon > 0.0, "epsilon must be positive");
    value + laplace(rng, sensitivity / epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn gaussian_moments_match() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..200_000).map(|_| gaussian(&mut rng, 2.0)).collect();
        let (mean, var) = moments(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn laplace_moments_match() {
        // Var(Lap(b)) = 2b².
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..200_000).map(|_| laplace(&mut rng, 1.5)).collect();
        let (mean, var) = moments(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 4.5).abs() < 0.15, "var {var}");
    }

    #[test]
    fn zero_std_is_noiseless() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(gaussian(&mut rng, 0.0), 0.0);
        assert_eq!(laplace(&mut rng, 0.0), -0.0);
    }

    #[test]
    fn laplace_mechanism_noise_scales_inversely_with_epsilon() {
        let mut rng = StdRng::seed_from_u64(6);
        let spread = |eps: f64, rng: &mut StdRng| {
            let xs: Vec<f64> = (0..20_000)
                .map(|_| laplace_mechanism(rng, 0.0, 1.0, eps))
                .collect();
            moments(&xs).1
        };
        let tight = spread(10.0, &mut rng);
        let loose = spread(0.1, &mut rng);
        assert!(loose > tight * 100.0, "tight {tight} loose {loose}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(gaussian(&mut a, 1.0), gaussian(&mut b, 1.0));
        }
    }
}
