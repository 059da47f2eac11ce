//! Binary-classification metrics.
//!
//! §6.3 evaluates failure prediction as a binary classification task
//! ("we regard a fail after degradation as positive, negative
//! otherwise") and reports precision/recall (Table 5) plus F1 and
//! accuracy for the feature-ablation study (Appendix A.6, Table 8).

use serde::Serialize;

/// A 2×2 confusion matrix for a binary classifier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ConfusionMatrix {
    /// Predicted positive, actually positive.
    pub tp: u64,
    /// Predicted positive, actually negative.
    pub fp: u64,
    /// Predicted negative, actually negative.
    pub tn: u64,
    /// Predicted negative, actually positive.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a matrix from parallel prediction/label slices.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn from_predictions(predicted: &[bool], actual: &[bool]) -> Self {
        assert_eq!(predicted.len(), actual.len(), "length mismatch");
        let mut m = Self::new();
        for (&p, &a) in predicted.iter().zip(actual) {
            m.observe(p, a);
        }
        m
    }

    /// Records one (prediction, ground truth) pair.
    pub fn observe(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Precision `TP / (TP + FP)`; 0 when no positive predictions were
    /// made (the convention that makes the paper's "TeaVar ≈ 0" row
    /// well-defined: a model that never predicts failure has P = R = 0).
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Recall `TP / (TP + FN)`; 0 when there are no positives.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// F1 score, the harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accuracy `(TP + TN) / total`.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let m = ConfusionMatrix::from_predictions(&[true, false, true], &[true, false, true]);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.accuracy(), 1.0);
    }

    #[test]
    fn never_positive_classifier_is_zero_not_nan() {
        // The paper's "TeaVar" baseline never predicts failure → P≈0, R≈0.
        let m = ConfusionMatrix::from_predictions(
            &[false; 10],
            &[
                true, true, false, false, false, false, false, false, false, false,
            ],
        );
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
        assert_eq!(m.accuracy(), 0.8);
    }

    #[test]
    fn mixed_case() {
        // tp=2 fp=1 tn=3 fn=2
        let pred = [true, true, true, false, false, false, false, false];
        let act = [true, true, false, true, true, false, false, false];
        let m = ConfusionMatrix::from_predictions(&pred, &act);
        assert_eq!(m.tp, 2);
        assert_eq!(m.fp, 1);
        assert_eq!(m.fn_, 2);
        assert_eq!(m.tn, 3);
        assert!((m.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall() - 0.5).abs() < 1e-12);
        let p = 2.0 / 3.0;
        let r = 0.5;
        assert!((m.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
        assert!((m.accuracy() - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn observe_matches_from_predictions() {
        let mut m = ConfusionMatrix::new();
        m.observe(true, false);
        m.observe(false, true);
        let m2 = ConfusionMatrix::from_predictions(&[true, false], &[false, true]);
        assert_eq!(m, m2);
    }
}
