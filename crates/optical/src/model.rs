//! The statistical fiber-failure model.
//!
//! Encodes every quantitative relationship the paper measures:
//!
//! * per-fiber degradation probabilities follow a Weibull distribution
//!   (shape 0.8, scale 0.002 per §6.1; CDF = Figure 12(b));
//! * cut and degradation rates are linearly related (Figure 12(a));
//!   with `P(cut | degradation) ≈ 0.4` and `α = 0.25` of cuts
//!   predictable, the slope is `p_i = (0.4 / 0.25) · p_d = 1.6 p_d`;
//! * the *conditional* cut probability of an individual degradation
//!   event depends on its features with the response shapes of
//!   Figure 6 — time-of-day (peak ~60 % near midnight, trough ~20 %),
//!   degree (increasing), gradient (increasing), fluctuation
//!   (increasing) — plus a dominant per-fiber random effect, which is
//!   why the paper's ablation finds *fiber ID* the most informative
//!   feature (Appendix A.6).
//!
//! The model is the generator's ground truth: labels are Bernoulli
//! draws from [`FailureModel::true_cut_probability`], and the "oracle"
//! TE variant reads the same function.

use crate::events::DegradationFeatures;
use prete_stats::dist::failure_prob_without_degradation;
use prete_stats::Weibull;
use prete_topology::{FiberId, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Fraction of fiber cuts preceded by a degradation within the
/// predictable window (§3.1: ~25 %).
pub const ALPHA_PREDICTABLE: f64 = 0.25;

/// Mean probability that a degradation evolves into a cut (§3.2: 40 %).
pub const MEAN_CUT_GIVEN_DEGRADATION: f64 = 0.40;

/// The linear slope of Figure 12(a): `p_i = SLOPE · p_d`.
pub const CUT_PER_DEGRADATION_SLOPE: f64 =
    MEAN_CUT_GIVEN_DEGRADATION / ALPHA_PREDICTABLE;

/// The predictable window: a cut within this many seconds of a
/// degradation counts as predictable (§3.1 uses one TE period, 5 min).
pub const PREDICTABLE_WINDOW_S: u64 = 300;

/// Epoch length used for per-epoch probabilities (15 minutes, the
/// TeaVaR-style epoch of §2.1 and Appendix A.1).
pub const EPOCH_S: u64 = 900;

/// Per-fiber failure parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FiberProfile {
    /// The fiber.
    pub fiber: FiberId,
    /// Per-epoch probability of a degradation event (Weibull-sampled).
    pub p_degradation: f64,
    /// Per-epoch probability of a cut (`1.6 · p_degradation`).
    pub p_cut: f64,
    /// Per-fiber random effect on the conditional cut logit — the
    /// "fiber ID" signal.
    pub bias: f64,
}

/// The full failure model over a topology's fibers.
#[derive(Debug, Clone, Serialize)]
pub struct FailureModel {
    profiles: Vec<FiberProfile>,
    /// Global intercept calibrating the marginal `P(cut | degradation)`
    /// to ≈ 0.4.
    intercept: f64,
}

/// Standard normal sample via Box–Muller.
fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal sample with the given log-space mean and std.
fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * sample_normal(rng)).exp()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl FailureModel {
    /// Builds a model for `net`'s fibers, deterministic in `seed`.
    pub fn new(net: &Network, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weibull = Weibull::PAPER_DEGRADATION;
        let profiles = net
            .fibers()
            .iter()
            .map(|f| {
                // Clamp: degradation probabilities differ by orders of
                // magnitude (Figure 12(b)) but stay well below 1.
                let p_d = weibull.sample(&mut rng).clamp(1e-6, 0.05);
                FiberProfile {
                    fiber: f.id,
                    p_degradation: p_d,
                    p_cut: (CUT_PER_DEGRADATION_SLOPE * p_d).min(0.08),
                    bias: 1.3 * sample_normal(&mut rng),
                }
            })
            .collect();
        Self { profiles, intercept: -0.45 }
    }

    /// Per-fiber profiles.
    pub fn profiles(&self) -> &[FiberProfile] {
        &self.profiles
    }

    /// A counterfactual world where a fraction `alpha` of cuts are
    /// predictable (Appendix A.9 / Figure 20(b)): cut rates are kept,
    /// degradation rates are rescaled so that
    /// `p_d · P(cut | degradation) = alpha · p_i`.
    pub fn rescaled_for_alpha(&self, alpha: f64) -> FailureModel {
        assert!((0.0..=1.0).contains(&alpha));
        let mut m = self.clone();
        for p in &mut m.profiles {
            p.p_degradation =
                (alpha * p.p_cut / MEAN_CUT_GIVEN_DEGRADATION).clamp(0.0, 0.2);
        }
        m
    }

    /// Profile of one fiber.
    pub fn profile(&self, f: FiberId) -> &FiberProfile {
        &self.profiles[f.index()]
    }

    /// Per-epoch degradation probability of a fiber (`p_d` of §4.1.2).
    pub fn p_degradation(&self, f: FiberId) -> f64 {
        self.profile(f).p_degradation
    }

    /// Per-epoch (unconditional) cut probability of a fiber — the
    /// static `p_i` that TeaVaR-style schemes consume.
    pub fn p_cut(&self, f: FiberId) -> f64 {
        self.profile(f).p_cut
    }

    /// Theorem 4.1: cut probability in an epoch with *no* degradation
    /// signal, `(1 − α) p_i`.
    pub fn p_cut_without_degradation(&self, f: FiberId) -> f64 {
        failure_prob_without_degradation(self.p_cut(f), ALPHA_PREDICTABLE)
    }

    /// Ground-truth probability that a degradation with the given
    /// features evolves into a cut within the predictable window.
    ///
    /// This is the function the paper's NN learns; the generator uses
    /// it to sample labels and the oracle TE variant reads it directly.
    pub fn true_cut_probability(&self, feats: &DegradationFeatures) -> f64 {
        let time_effect = 0.9 * (std::f64::consts::TAU * feats.hour as f64 / 24.0).cos();
        let degree_effect = 0.8 * (feats.degree_db - 6.5) / 3.5;
        let gradient_effect = 0.7 * ((feats.gradient_db / 0.8).min(1.0) * 2.0 - 1.0);
        let fluct_effect = 0.7 * ((feats.fluctuation.min(40) as f64 / 40.0) * 2.0 - 1.0);
        let bias = self.profiles[feats.fiber_id].bias;
        sigmoid(self.intercept + bias + time_effect + degree_effect + gradient_effect + fluct_effect)
    }

    /// Samples the feature vector of a fresh degradation event on fiber
    /// `f` at hour `hour`.
    pub fn sample_features<R: Rng + ?Sized>(
        &self,
        net: &Network,
        f: FiberId,
        hour: u8,
        rng: &mut R,
    ) -> DegradationFeatures {
        assert!(hour < 24);
        let fiber = net.fiber(f);
        // Degree skews small (most degradations are mild): 3 + 7u².
        let degree_db = 3.0 + 7.0 * rng.gen::<f64>().powi(2);
        // Gradient: exponential-ish in [0, ~1.2] dB/s; sharp events
        // have larger degree AND gradient (correlated, like real cuts
        // in progress).
        let gradient_db =
            (0.05 + 0.1 * (degree_db - 3.0) + 0.3 * rng.gen::<f64>()) * sample_lognormal(rng, 0.0, 0.5);
        // Fluctuation count grows with gradient plus noise.
        let fluctuation =
            ((gradient_db * 25.0 + 8.0 * rng.gen::<f64>()).round() as u32).min(60);
        DegradationFeatures {
            hour,
            degree_db,
            gradient_db: gradient_db.min(1.5),
            fluctuation,
            region: fiber.region,
            fiber_id: f.index(),
            length_km: fiber.length_km,
            vendor: fiber.vendor,
        }
    }

    /// Samples whether a degradation with features `feats` leads to a
    /// cut (Bernoulli draw from the ground-truth probability).
    pub fn sample_label<R: Rng + ?Sized>(
        &self,
        feats: &DegradationFeatures,
        rng: &mut R,
    ) -> bool {
        rng.gen::<f64>() < self.true_cut_probability(feats)
    }

    /// Samples a degradation duration in seconds. Log-normal with
    /// median 10 s → 50 % of degradations last under 10 s, matching
    /// Figure 4(a)'s "always ephemeral" distribution.
    pub fn sample_degradation_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        sample_lognormal(rng, (10.0f64).ln(), 1.2).round().max(1.0) as u64
    }

    /// Samples the degradation→cut delay for a predictable cut, in
    /// seconds: log-normal with median 60 s, truncated to the
    /// predictable window (most intervals exceed 5 s, §6.4, giving the
    /// controller time to establish tunnels).
    pub fn sample_cut_delay<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        (sample_lognormal(rng, (60.0f64).ln(), 0.9).round() as u64)
            .clamp(3, PREDICTABLE_WINDOW_S)
    }

    /// Samples a repair duration in seconds: log-normal, median 8 h
    /// with a heavy tail into days (submarine repairs, §1).
    pub fn sample_repair_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        sample_lognormal(rng, (8.0 * 3600.0f64).ln(), 1.0).round().max(600.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_topology::topologies;

    fn model() -> (Network, FailureModel) {
        let net = topologies::b4();
        let m = FailureModel::new(&net, 42);
        (net, m)
    }

    #[test]
    fn profiles_cover_all_fibers() {
        let (net, m) = model();
        assert_eq!(m.profiles().len(), net.num_fibers());
        for p in m.profiles() {
            assert!(p.p_degradation > 0.0 && p.p_degradation < 0.1);
            assert!(p.p_cut > p.p_degradation, "slope 1.6 > 1");
            assert!(p.p_cut <= 0.08);
        }
    }

    #[test]
    fn linear_relation_figure12a() {
        let (_, m) = model();
        for p in m.profiles() {
            if p.p_cut < 0.08 {
                assert!(
                    (p.p_cut - CUT_PER_DEGRADATION_SLOPE * p.p_degradation).abs() < 1e-12
                );
            }
        }
    }

    #[test]
    fn degradation_probs_span_orders_of_magnitude() {
        // Figure 12(b): probabilities differ by orders of magnitude.
        let net = topologies::twan();
        let m = FailureModel::new(&net, 7);
        let min = m.profiles().iter().map(|p| p.p_degradation).fold(f64::INFINITY, f64::min);
        let max = m.profiles().iter().map(|p| p.p_degradation).fold(0.0, f64::max);
        assert!(max / min > 50.0, "spread {min}..{max}");
    }

    #[test]
    fn marginal_cut_given_degradation_near_40_percent() {
        let (net, m) = model();
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        let n = 20_000;
        for i in 0..n {
            let f = FiberId(i % net.num_fibers());
            let hour = (i % 24) as u8;
            let feats = m.sample_features(&net, f, hour, &mut rng);
            sum += m.true_cut_probability(&feats);
        }
        let marginal = sum / n as f64;
        assert!(
            (0.30..=0.50).contains(&marginal),
            "marginal P(cut|degradation) = {marginal}, expected ≈ 0.4"
        );
    }

    #[test]
    fn figure6_time_shape() {
        // Averaged over fibers/other features: midnight ≫ morning.
        let (net, m) = model();
        let mut rng = StdRng::seed_from_u64(2);
        let avg_at = |hour: u8, rng: &mut StdRng| -> f64 {
            let n = 4000;
            (0..n)
                .map(|i| {
                    let f = FiberId(i % net.num_fibers());
                    let feats = m.sample_features(&net, f, hour, rng);
                    m.true_cut_probability(&feats)
                })
                .sum::<f64>()
                / n as f64
        };
        let midnight = avg_at(0, &mut rng);
        let morning = avg_at(9, &mut rng);
        assert!(
            midnight > morning + 0.15,
            "midnight {midnight} vs morning {morning}"
        );
    }

    #[test]
    fn figure6_degree_and_fluctuation_monotone() {
        let (net, m) = model();
        let base = DegradationFeatures {
            hour: 12,
            degree_db: 4.0,
            gradient_db: 0.3,
            fluctuation: 10,
            region: 0,
            fiber_id: 0,
            length_km: 500.0,
            vendor: 0,
        };
        let _ = net;
        let low = m.true_cut_probability(&base);
        let high_degree = m.true_cut_probability(&DegradationFeatures { degree_db: 9.5, ..base });
        assert!(high_degree > low);
        let high_fluct = m.true_cut_probability(&DegradationFeatures { fluctuation: 40, ..base });
        assert!(high_fluct > low);
        let low_gradient = m.true_cut_probability(&DegradationFeatures { gradient_db: 0.02, ..base });
        assert!(low_gradient < low);
    }

    #[test]
    fn fiber_bias_dominates() {
        // Two fibers with very different biases should produce very
        // different probabilities for identical observable features.
        let (_, m) = model();
        let (lo, hi) = m
            .profiles()
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.bias), hi.max(p.bias))
            });
        assert!(hi - lo > 2.0, "bias spread {lo}..{hi} too small for the A.6 ablation");
    }

    #[test]
    fn durations_ephemeral() {
        let (_, m) = model();
        let mut rng = StdRng::seed_from_u64(3);
        let durations: Vec<u64> =
            (0..10_000).map(|_| m.sample_degradation_duration(&mut rng)).collect();
        let under_10 = durations.iter().filter(|&&d| d < 10).count() as f64 / 10_000.0;
        // Figure 4(a): ~50% under 10 s.
        assert!((0.35..=0.6).contains(&under_10), "P(<10s) = {under_10}");
    }

    #[test]
    fn cut_delays_give_controller_time() {
        let (_, m) = model();
        let mut rng = StdRng::seed_from_u64(4);
        let delays: Vec<u64> = (0..10_000).map(|_| m.sample_cut_delay(&mut rng)).collect();
        assert!(delays.iter().all(|&d| d <= PREDICTABLE_WINDOW_S));
        let over_5 = delays.iter().filter(|&&d| d > 5).count() as f64 / 10_000.0;
        // §6.4: "most of the time interval … is more than 5 seconds".
        assert!(over_5 > 0.9, "P(>5s) = {over_5}");
    }

    #[test]
    fn deterministic_in_seed() {
        let net = topologies::b4();
        let a = FailureModel::new(&net, 9);
        let b = FailureModel::new(&net, 9);
        assert_eq!(a.profiles(), b.profiles());
    }
}
