//! Failure-prediction models (§4.1.1, §6.3, Appendix A.2/A.6).
//!
//! The paper trains a small multi-layer perceptron to estimate the
//! probability that an observed fiber degradation evolves into a cut
//! within the next TE period. PyTorch is unavailable here, so this
//! crate implements the exact architecture of Appendix A.2 from
//! scratch:
//!
//! * min-max scaling of the continuous features (degree, gradient,
//!   fluctuation, length), one-hot encoding of hour/region/vendor, and
//!   learned low-dimensional **embeddings** for region and fiber ID;
//! * a 64-neuron hidden layer, a 2-neuron decoder layer, and a softmax
//!   output over {normal, failure};
//! * negative log-likelihood loss, **Adam** (lr 1e-3), **L2** weight
//!   decay 2e-4, and **oversampling** of the minority class to fix the
//!   4:6 imbalance;
//! * the 80/20 per-fiber chronological train/test split.
//!
//! Baselines from Table 5: [`baselines::TeaVarModel`] (never predicts
//! failure — the static-probability worldview), [`baselines::StatisticModel`]
//! (per-fiber empirical cut rate), and [`baselines::DecisionTree`]
//! (CART on the raw features). [`eval`] computes precision / recall /
//! F1 / accuracy and the per-link probability error of Figure 14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod baselines;
pub mod encoder;
pub mod eval;
pub mod linalg;
pub mod mlp;

pub use baselines::{DecisionTree, StatisticModel, TeaVarModel};
pub use encoder::FeatureEncoder;
pub use eval::{evaluate, per_link_error, EvalReport};
pub use mlp::{Mlp, TrainConfig};

use prete_optical::DegradationEvent;

/// A trained failure predictor: maps a degradation event to the
/// probability that it evolves into a cut within the next TE period.
pub trait Predictor {
    /// Probability of failure (`p_1` of the paper's softmax output).
    fn predict_proba(&self, event: &DegradationEvent) -> f64;

    /// Hard label via `argmax` (§4.1.1: `ŷ = argmax(p)`).
    fn predict(&self, event: &DegradationEvent) -> bool {
        self.predict_proba(event) >= 0.5
    }
}

/// Why a prediction could not be used by the controller: the model
/// returned NaN (an overflowed softmax) or a value outside `[0, 1]`.
/// The controller treats both alike and falls back to the static prior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictError {
    /// The model produced NaN or an infinity.
    NonFinite,
    /// The model produced a finite value outside `[0, 1]`.
    OutOfRange,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PredictError::NonFinite => "predictor returned a non-finite probability",
            PredictError::OutOfRange => "predictor returned a probability outside [0, 1]",
        };
        f.write_str(s)
    }
}

impl std::error::Error for PredictError {}

/// Validated prediction: every [`Predictor`] is a `TryPredictor` whose
/// output is checked for finiteness and range.
pub trait TryPredictor {
    /// The cut probability, or why it cannot be trusted.
    fn try_predict_proba(&self, event: &DegradationEvent) -> Result<f64, PredictError>;
}

impl<P: Predictor + ?Sized> TryPredictor for P {
    fn try_predict_proba(&self, event: &DegradationEvent) -> Result<f64, PredictError> {
        let p = self.predict_proba(event);
        if !p.is_finite() {
            return Err(PredictError::NonFinite);
        }
        if !(0.0..=1.0).contains(&p) {
            return Err(PredictError::OutOfRange);
        }
        Ok(p)
    }
}
