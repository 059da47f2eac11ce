//! The Table 5 baseline predictors.
//!
//! * [`TeaVarModel`] — the static-probability worldview: failure
//!   probability per epoch is `p_i ≪ 1`, so the model (P ≈ 0, R ≈ 0 in
//!   Table 5) never predicts that a degradation becomes a cut;
//! * [`StatisticModel`] — "models failures based on the statistical
//!   relationship between degradations and failures": the per-fiber
//!   empirical cut rate from training data (Laplace-smoothed);
//! * [`DecisionTree`] — CART with Gini impurity over the raw numeric
//!   features, the classical tabular baseline the paper contrasts with
//!   the NN ("traditional models such as decision tree are not
//!   effective in modeling such complex relationships").

use crate::Predictor;
use prete_optical::DegradationEvent;
use serde::Serialize;

/// The TeaVaR-style naive model: a constant (near zero) probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TeaVarModel {
    /// The static per-epoch failure probability it answers with.
    pub p_static: f64,
}

impl TeaVarModel {
    /// Builds from a static per-epoch probability (`p_i` of §4.1).
    pub fn new(p_static: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_static));
        Self { p_static }
    }
}

impl Predictor for TeaVarModel {
    fn predict_proba(&self, _event: &DegradationEvent) -> f64 {
        self.p_static
    }
}

/// Per-fiber empirical cut rate with Laplace smoothing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatisticModel {
    rates: Vec<f64>,
    global: f64,
}

impl StatisticModel {
    /// Fits per-fiber rates `(cuts + 1) / (events + 2)` on training
    /// events; unseen fibers fall back to the global rate.
    pub fn fit(train: &[&DegradationEvent]) -> Self {
        assert!(!train.is_empty());
        let n_fibers = train.iter().map(|e| e.features.fiber_id).max().unwrap() + 1;
        let mut pos = vec![0usize; n_fibers];
        let mut tot = vec![0usize; n_fibers];
        for e in train {
            tot[e.features.fiber_id] += 1;
            if e.led_to_cut {
                pos[e.features.fiber_id] += 1;
            }
        }
        let global = train.iter().filter(|e| e.led_to_cut).count() as f64 / train.len() as f64;
        let rates = pos
            .iter()
            .zip(&tot)
            .map(|(&p, &t)| (p as f64 + 1.0) / (t as f64 + 2.0))
            .collect();
        Self { rates, global }
    }

    /// The global positive rate observed in training.
    pub fn global_rate(&self) -> f64 {
        self.global
    }
}

impl Predictor for StatisticModel {
    fn predict_proba(&self, event: &DegradationEvent) -> f64 {
        self.rates
            .get(event.features.fiber_id)
            .copied()
            .unwrap_or(self.global)
    }
}

/// A node of the CART tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
enum Node {
    Leaf {
        proba: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// CART decision tree with Gini impurity.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionTree {
    root: Node,
    /// Maximum depth used during fitting.
    pub max_depth: usize,
}

/// Numeric feature vector for the tree (categoricals as raw indices —
/// the handicap versus embeddings the paper's comparison highlights).
fn tree_features(e: &DegradationEvent) -> [f64; 8] {
    let f = &e.features;
    [
        f.hour as f64,
        f.degree_db,
        f.gradient_db,
        f.fluctuation as f64,
        f.region as f64,
        f.fiber_id as f64,
        f.length_km,
        f.vendor as f64,
    ]
}

fn gini(pos: usize, tot: usize) -> f64 {
    if tot == 0 {
        return 0.0;
    }
    let p = pos as f64 / tot as f64;
    2.0 * p * (1.0 - p)
}

impl DecisionTree {
    /// Fits a tree of depth at most `max_depth`, with a minimum of
    /// `min_leaf` samples per leaf.
    pub fn fit(train: &[&DegradationEvent], max_depth: usize, min_leaf: usize) -> Self {
        assert!(!train.is_empty());
        let rows: Vec<([f64; 8], bool)> = train
            .iter()
            .map(|e| (tree_features(e), e.led_to_cut))
            .collect();
        let idx: Vec<usize> = (0..rows.len()).collect();
        let root = Self::build(&rows, &idx, max_depth, min_leaf.max(1));
        Self { root, max_depth }
    }

    fn build(rows: &[([f64; 8], bool)], idx: &[usize], depth: usize, min_leaf: usize) -> Node {
        let pos = idx.iter().filter(|&&i| rows[i].1).count();
        let proba = pos as f64 / idx.len() as f64;
        if depth == 0 || idx.len() < 2 * min_leaf || pos == 0 || pos == idx.len() {
            return Node::Leaf { proba };
        }
        // Best split by Gini gain over candidate thresholds (midpoints
        // of sorted unique values, capped to 32 candidates per feature).
        let parent_gini = gini(pos, idx.len());
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for feat in 0..8 {
            let mut vals: Vec<f64> = idx.iter().map(|&i| rows[i].0[feat]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let step = (vals.len() / 32).max(1);
            for w in vals.windows(2).step_by(step) {
                let thr = (w[0] + w[1]) / 2.0;
                let mut lp = 0usize;
                let mut lt = 0usize;
                for &i in idx {
                    if rows[i].0[feat] <= thr {
                        lt += 1;
                        if rows[i].1 {
                            lp += 1;
                        }
                    }
                }
                let rt = idx.len() - lt;
                if lt < min_leaf || rt < min_leaf {
                    continue;
                }
                let rp = pos - lp;
                let w_gini =
                    (lt as f64 * gini(lp, lt) + rt as f64 * gini(rp, rt)) / idx.len() as f64;
                let gain = parent_gini - w_gini;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    best = Some((feat, thr, gain));
                }
            }
        }
        match best {
            None => Node::Leaf { proba },
            Some((feature, threshold, _)) => {
                let (l, r): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| rows[i].0[feature] <= threshold);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(Self::build(rows, &l, depth - 1, min_leaf)),
                    right: Box::new(Self::build(rows, &r, depth - 1, min_leaf)),
                }
            }
        }
    }

    fn eval(&self, x: &[f64; 8]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { proba } => return *proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

impl Predictor for DecisionTree {
    fn predict_proba(&self, event: &DegradationEvent) -> f64 {
        self.eval(&tree_features(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_optical::DegradationFeatures;
    use prete_topology::FiberId;

    fn event(fiber: usize, degree: f64, cut: bool) -> DegradationEvent {
        DegradationEvent {
            fiber: FiberId(fiber),
            start_s: 0,
            duration_s: 5,
            features: DegradationFeatures {
                hour: 0,
                degree_db: degree,
                gradient_db: 0.1,
                fluctuation: 2,
                region: 0,
                fiber_id: fiber,
                length_km: 100.0,
                vendor: 0,
            },
            led_to_cut: cut,
            cut_delay_s: None,
        }
    }

    #[test]
    fn teavar_never_positive() {
        let m = TeaVarModel::new(0.003);
        let e = event(0, 9.0, true);
        assert!(!m.predict(&e));
        assert_eq!(m.predict_proba(&e), 0.003);
    }

    #[test]
    fn statistic_learns_per_fiber_rates() {
        // fiber 0: 4/4 cut; fiber 1: 0/4 cut.
        let evs: Vec<DegradationEvent> = (0..8).map(|i| event(i / 4, 5.0, i / 4 == 0)).collect();
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let m = StatisticModel::fit(&refs);
        assert!(m.predict(&evs[0]));
        assert!(!m.predict(&evs[7]));
        // Laplace: fiber0 = 5/6, fiber1 = 1/6.
        assert!((m.predict_proba(&evs[0]) - 5.0 / 6.0).abs() < 1e-12);
        assert!((m.predict_proba(&evs[7]) - 1.0 / 6.0).abs() < 1e-12);
        assert!((m.global_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn statistic_unknown_fiber_uses_global() {
        let evs: Vec<DegradationEvent> = (0..4).map(|i| event(0, 5.0, i % 2 == 0)).collect();
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let m = StatisticModel::fit(&refs);
        let unknown = event(42, 5.0, false);
        assert_eq!(m.predict_proba(&unknown), m.global_rate());
    }

    #[test]
    fn tree_learns_threshold_rule() {
        let evs: Vec<DegradationEvent> = (0..200)
            .map(|i| {
                let degree = 3.0 + (i % 70) as f64 / 10.0;
                event(i % 5, degree, degree > 6.0)
            })
            .collect();
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let tree = DecisionTree::fit(&refs, 4, 5);
        let correct = evs
            .iter()
            .filter(|e| tree.predict(e) == e.led_to_cut)
            .count();
        assert!(correct as f64 / evs.len() as f64 > 0.95);
    }

    #[test]
    fn tree_pure_leaf_shortcuts() {
        let evs: Vec<DegradationEvent> = (0..10).map(|i| event(i, 5.0, true)).collect();
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let tree = DecisionTree::fit(&refs, 3, 1);
        assert_eq!(tree.predict_proba(&evs[0]), 1.0);
    }

    #[test]
    fn tree_respects_min_leaf() {
        // With min_leaf = huge, the tree must be a single leaf.
        let evs: Vec<DegradationEvent> = (0..20)
            .map(|i| event(i % 3, 3.0 + i as f64 * 0.3, i % 2 == 0))
            .collect();
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let tree = DecisionTree::fit(&refs, 5, 100);
        let p = tree.predict_proba(&evs[0]);
        for e in &evs {
            assert_eq!(tree.predict_proba(e), p, "single-leaf tree is constant");
        }
    }
}
