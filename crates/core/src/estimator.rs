//! Failure-probability calibration (§4.1, Eqn 1).
//!
//! Every scheme consumes a per-fiber failure probability vector for the
//! next TE period. The schemes differ in *how they compute it*:
//!
//! * static (TeaVaR, FFC, ARROW, Flexile): `p_n = p_i` regardless of
//!   the optical state;
//! * PreTE (Eqn 1): `p_n = p̂(degradation)` when fiber `n` is degraded
//!   (the NN's estimate), `p_n = (1 − α) p_i` otherwise (Theorem 4.1);
//! * oracle: `p_n ∈ {0, 1}` for degraded fibers (perfect foresight),
//!   `(1 − α) p_i` otherwise — unpredictable cuts stay unpredictable,
//!   which is why even the oracle curve in Figure 15 is not at 100 %.
//!
//! [`TrueConditionals`] estimates the per-fiber mean conditional cut
//! probability `E[P(cut | degradation, fiber)]` by Monte-Carlo over the
//! feature distribution — used both as the evaluation ground truth and
//! to summarize what a trained predictor would answer for a fiber.

use crate::scenario::DegradationState;
use prete_nn::Predictor;
use prete_optical::{FailureModel, ALPHA_PREDICTABLE};
use prete_stats::dist::failure_prob_without_degradation;
use prete_topology::{FiberId, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Per-fiber mean conditional cut probability given a degradation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrueConditionals {
    /// `per_fiber[n] = E[P(cut | degradation on fiber n)]`.
    pub per_fiber: Vec<f64>,
}

impl TrueConditionals {
    /// Monte-Carlo estimate of the ground-truth conditionals:
    /// `samples` feature draws per fiber, averaged through
    /// [`FailureModel::true_cut_probability`].
    pub fn ground_truth(net: &Network, model: &FailureModel, samples: usize, seed: u64) -> Self {
        Self::estimate(net, model, samples, seed, |feats| model.true_cut_probability(feats))
    }

    /// Same Monte-Carlo, but through a trained predictor — what the
    /// TE controller would believe about each fiber.
    pub fn from_predictor(
        net: &Network,
        model: &FailureModel,
        predictor: &dyn Predictor,
        samples: usize,
        seed: u64,
    ) -> Self {
        Self::estimate(net, model, samples, seed, |feats| {
            // Predictors take full events; wrap the features.
            let event = prete_optical::DegradationEvent {
                fiber: FiberId(feats.fiber_id),
                start_s: 0,
                duration_s: 10,
                features: *feats,
                led_to_cut: false,
                cut_delay_s: None,
            };
            predictor.predict_proba(&event)
        })
    }

    fn estimate(
        net: &Network,
        model: &FailureModel,
        samples: usize,
        seed: u64,
        mut f: impl FnMut(&prete_optical::DegradationFeatures) -> f64,
    ) -> Self {
        assert!(samples >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let per_fiber = net
            .fibers()
            .iter()
            .map(|fiber| {
                let mut acc = 0.0;
                for i in 0..samples {
                    let hour = (i % 24) as u8;
                    let feats = model.sample_features(net, fiber.id, hour, &mut rng);
                    acc += f(&feats);
                }
                acc / samples as f64
            })
            .collect();
        TrueConditionals { per_fiber }
    }
}

/// How a scheme maps the optical state to per-fiber probabilities.
#[derive(Debug, Clone, PartialEq, Serialize)]
enum Mode {
    /// Constant `p_i` (the TeaVaR worldview).
    Static,
    /// Eqn 1: conditional when degraded, `(1 − α) p_i` otherwise.
    Dynamic {
        conditional: Vec<f64>,
        alpha: f64,
    },
}

/// A calibrated probability estimator (one per scheme instance).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProbabilityEstimator {
    static_p: Vec<f64>,
    mode: Mode,
}

impl ProbabilityEstimator {
    /// The static estimator: `p_n = p_i` for every state.
    pub fn static_model(model: &FailureModel) -> Self {
        Self {
            static_p: model.profiles().iter().map(|p| p.p_cut).collect(),
            mode: Mode::Static,
        }
    }

    /// The Eqn 1 dynamic estimator with the given per-fiber
    /// conditionals (ground truth, a predictor's beliefs, or oracle
    /// 0/1 values) and predictable fraction `alpha`.
    pub fn dynamic(model: &FailureModel, conditional: &TrueConditionals, alpha: f64) -> Self {
        assert_eq!(conditional.per_fiber.len(), model.profiles().len());
        assert!((0.0..=1.0).contains(&alpha));
        Self {
            static_p: model.profiles().iter().map(|p| p.p_cut).collect(),
            mode: Mode::Dynamic { conditional: conditional.per_fiber.clone(), alpha },
        }
    }

    /// The paper's PreTE configuration: dynamic with `α = 25 %`.
    pub fn prete(model: &FailureModel, conditional: &TrueConditionals) -> Self {
        Self::dynamic(model, conditional, ALPHA_PREDICTABLE)
    }

    /// Eqn 1: the per-fiber probability vector for a degradation state.
    pub fn probabilities(&self, state: &DegradationState) -> Vec<f64> {
        match &self.mode {
            Mode::Static => self.static_p.clone(),
            Mode::Dynamic { conditional, alpha } => self
                .static_p
                .iter()
                .enumerate()
                .map(|(n, &p_i)| {
                    if state.is_degraded(FiberId(n)) {
                        conditional[n]
                    } else {
                        failure_prob_without_degradation(p_i, *alpha)
                    }
                })
                .collect(),
        }
    }

    /// The static `p_i` vector (for reporting).
    pub fn static_probabilities(&self) -> &[f64] {
        &self.static_p
    }

    /// Whether the estimator reacts to degradations.
    pub fn is_dynamic(&self) -> bool {
        matches!(self.mode, Mode::Dynamic { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_topology::topologies;

    #[test]
    fn ground_truth_conditionals_near_40_percent() {
        let net = topologies::b4();
        let model = FailureModel::new(&net, 42);
        let tc = TrueConditionals::ground_truth(&net, &model, 400, 1);
        assert_eq!(tc.per_fiber.len(), net.num_fibers());
        let mean: f64 = tc.per_fiber.iter().sum::<f64>() / tc.per_fiber.len() as f64;
        assert!((0.25..=0.55).contains(&mean), "mean conditional {mean}");
        // Per-fiber spread driven by the fiber bias.
        let min = tc.per_fiber.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tc.per_fiber.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.2, "spread {min}..{max}");
    }

    #[test]
    fn static_estimator_ignores_state() {
        let net = topologies::b4();
        let model = FailureModel::new(&net, 42);
        let est = ProbabilityEstimator::static_model(&model);
        assert!(!est.is_dynamic());
        let healthy = est.probabilities(&DegradationState::healthy());
        let degraded = est.probabilities(&DegradationState::single(FiberId(0)));
        assert_eq!(healthy, degraded);
        assert_eq!(healthy[3], model.p_cut(FiberId(3)));
    }

    #[test]
    fn dynamic_estimator_implements_eqn1() {
        let net = topologies::b4();
        let model = FailureModel::new(&net, 42);
        let tc = TrueConditionals::ground_truth(&net, &model, 100, 2);
        let est = ProbabilityEstimator::prete(&model, &tc);
        assert!(est.is_dynamic());
        let state = DegradationState::single(FiberId(5));
        let p = est.probabilities(&state);
        // Degraded fiber: the (much larger) conditional.
        assert_eq!(p[5], tc.per_fiber[5]);
        assert!(p[5] > 10.0 * model.p_cut(FiberId(5)));
        // Others: (1 − α) p_i — lower than static (Theorem 4.1).
        assert!((p[0] - 0.75 * model.p_cut(FiberId(0))).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_degrades_to_static_off_signal() {
        // §4.1.2: with α = 0, the no-signal probability equals p_i.
        let net = topologies::b4();
        let model = FailureModel::new(&net, 42);
        let tc = TrueConditionals::ground_truth(&net, &model, 50, 3);
        let est = ProbabilityEstimator::dynamic(&model, &tc, 0.0);
        let p = est.probabilities(&DegradationState::healthy());
        for (n, &pn) in p.iter().enumerate() {
            assert!((pn - model.p_cut(FiberId(n))).abs() < 1e-12);
        }
    }

    #[test]
    fn alpha_one_zeroes_no_signal_probability() {
        let net = topologies::b4();
        let model = FailureModel::new(&net, 42);
        let tc = TrueConditionals::ground_truth(&net, &model, 50, 4);
        let est = ProbabilityEstimator::dynamic(&model, &tc, 1.0);
        let p = est.probabilities(&DegradationState::healthy());
        assert!(p.iter().all(|&x| x == 0.0));
    }
}
