//! Probability distributions used by the PreTE failure model.
//!
//! * [`Weibull`] — §6.1 generates per-fiber degradation probabilities
//!   from a Weibull distribution (shape 0.8, scale 0.002); Figure 12(b)
//!   shows the fitted CDF. The scaling property (a Weibull scaled by a
//!   constant stays Weibull) carries the linear degradation↔failure
//!   relation of Figure 12(a) over to failure probabilities, consistent
//!   with TeaVaR's Weibull assumption.
//! * [`Geometric`] — §4.1.2 models unpredictable fiber cuts as a
//!   geometric process across time epochs (Theorem 4.1).

use rand::Rng;

/// A two-parameter Weibull distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// The paper's degradation-probability generator (§6.1).
    pub const PAPER_DEGRADATION: Weibull = Weibull { shape: 0.8, scale: 0.002 };

    /// Creates a Weibull distribution with the given shape `k` and
    /// scale `λ`.
    ///
    /// # Panics
    /// Panics unless both parameters are positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Self { shape, scale }
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Cumulative distribution function `F(x) = 1 - exp(-(x/λ)^k)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        1.0 - (-(x / self.scale).powf(self.shape)).exp()
    }

    /// Quantile function (inverse CDF).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "p must be in [0,1)");
        self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }

    /// Mean `λ Γ(1 + 1/k)`.
    pub fn mean(&self) -> f64 {
        self.scale * crate::special::ln_gamma(1.0 + 1.0 / self.shape).exp()
    }

    /// Draws one sample via inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() ∈ [0, 1); quantile is defined on [0, 1).
        self.quantile(rng.gen::<f64>())
    }

    /// Returns the distribution of `c · X` for `X ~ Weibull(k, λ)`,
    /// which is `Weibull(k, c·λ)` — the scaling property the paper uses
    /// to argue failure probabilities stay Weibull (§6.1).
    pub fn scaled(&self, c: f64) -> Self {
        assert!(c > 0.0 && c.is_finite());
        Self { shape: self.shape, scale: self.scale * c }
    }
}

/// A geometric distribution over `{1, 2, 3, …}` (number of epochs until
/// the first failure), with per-epoch success probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates a geometric distribution with per-trial probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        Self { p }
    }

    /// Per-trial probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// `P(X = k)` for `k >= 1`.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k >= 1, "support is {{1,2,…}}");
        (1.0 - self.p).powi((k - 1) as i32) * self.p
    }

    /// `P(X <= k)`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        1.0 - (1.0 - self.p).powi(k as i32)
    }

    /// Mean `1/p`.
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Samples the epoch index of the first failure.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - self.p).ln()).floor() as u64 + 1
    }
}

/// Theorem 4.1: given total failure probability `p_i` per epoch and a
/// predictable fraction `alpha`, the conditional failure probability in
/// an epoch *without* a degradation signal is `(1 - alpha) * p_i`
/// (unpredictable cuts follow a geometric distribution; see Appendix
/// A.3 — the `1/(1 - p_d)` correction is negligible because `p_d ≪ 1`).
pub fn failure_prob_without_degradation(p_i: f64, alpha: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p_i), "p_i must be a probability");
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
    (1.0 - alpha) * p_i
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weibull_cdf_quantile_roundtrip() {
        let w = Weibull::new(0.8, 0.002);
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
            let x = w.quantile(p);
            assert!((w.cdf(x) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn weibull_shape1_is_exponential() {
        let w = Weibull::new(1.0, 2.0);
        // CDF of Exp(rate 1/2): 1 - exp(-x/2)
        assert!((w.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!((w.mean() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weibull_sampling_matches_mean() {
        let w = Weibull::PAPER_DEGRADATION;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| w.sample(&mut rng)).sum::<f64>() / n as f64;
        let expected = w.mean();
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "sampled mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn weibull_scaling_property() {
        let w = Weibull::new(0.8, 0.002);
        let s = w.scaled(3.0);
        // P(3X <= x) = P(X <= x/3)
        for &x in &[0.001, 0.01, 0.05] {
            assert!((s.cdf(x) - w.cdf(x / 3.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn geometric_pmf_sums_to_cdf() {
        let g = Geometric::new(0.3);
        let mut acc = 0.0;
        for k in 1..=20 {
            acc += g.pmf(k);
            assert!((acc - g.cdf(k)).abs() < 1e-12);
        }
    }

    #[test]
    fn geometric_mean() {
        let g = Geometric::new(0.25);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "sampled mean {mean}");
    }

    #[test]
    fn theorem_4_1_limits() {
        // alpha = 0: degrades to the static model p_i (paper: "PreTE
        // degrades to the existing work").
        assert_eq!(failure_prob_without_degradation(0.01, 0.0), 0.01);
        // alpha = 1: all cuts predictable → probability 0 without signal.
        assert_eq!(failure_prob_without_degradation(0.01, 1.0), 0.0);
    }
}
