//! Simulated-year event datasets for training and measurement studies.
//!
//! [`Dataset::generate`] plays the failure model forward over a year of
//! 15-minute epochs for every fiber of a topology, producing the
//! labelled degradation events the NN trains on (Appendix A.2) and the
//! cut timeline behind the §3.1 measurement figures:
//!
//! * `α` — the fraction of cuts preceded by a degradation (≈ 25 %);
//! * `P(cut | degradation)` — the positive-label fraction (≈ 40 %, the
//!   4:6 class imbalance the NN oversamples away);
//! * the Appendix A.1 contingency table feeding the chi-square test;
//! * the degradation→cut delay distribution of Figure 5(a), including
//!   the coincidental multi-day tail from unpredictable cuts.

use crate::events::{CutEvent, DegradationEvent};
use crate::model::{FailureModel, EPOCH_S};
use prete_stats::ContingencyTable;
use prete_topology::{FiberId, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Configuration for dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DatasetConfig {
    /// Number of 15-minute epochs to simulate. One year = 35 040.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetConfig {
    /// One simulated year (the paper's measurement window).
    pub fn one_year(seed: u64) -> Self {
        Self {
            epochs: 365 * 24 * 4,
            seed,
        }
    }
}

/// A simulated event history.
#[derive(Debug, Clone, Serialize)]
pub struct Dataset {
    /// All degradation events, chronological.
    pub events: Vec<DegradationEvent>,
    /// All cut events, chronological.
    pub cuts: Vec<CutEvent>,
    /// Number of simulated epochs.
    pub epochs: usize,
    /// Number of fibers simulated.
    pub fibers: usize,
}

impl Dataset {
    /// Simulates `cfg.epochs` epochs of the failure model over `net`'s
    /// fibers. Fibers under repair after a cut produce no events until
    /// repaired.
    pub fn generate(net: &Network, model: &FailureModel, cfg: DatasetConfig) -> Dataset {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut events = Vec::new();
        let mut cuts = Vec::new();
        // Per-fiber second at which the current outage ends.
        let mut down_until = vec![0u64; net.num_fibers()];
        for epoch in 0..cfg.epochs {
            let epoch_start = epoch as u64 * EPOCH_S;
            let hour = ((epoch_start / 3600) % 24) as u8;
            for fiber in net.fibers() {
                let f = fiber.id;
                if epoch_start < down_until[f.index()] {
                    continue; // still being repaired
                }
                let prof = model.profile(f);
                if rng.gen::<f64>() < prof.p_degradation {
                    // A degradation event somewhere in this epoch.
                    let offset = rng.gen_range(0..EPOCH_S / 2);
                    let start_s = epoch_start + offset;
                    let features = model.sample_features(net, f, hour, &mut rng);
                    let duration_s = model.sample_degradation_duration(&mut rng);
                    let led_to_cut = model.sample_label(&features, &mut rng);
                    let cut_delay_s = led_to_cut.then(|| model.sample_cut_delay(&mut rng));
                    if let Some(delay) = cut_delay_s {
                        let at_s = start_s + delay;
                        let repair_s = model.sample_repair_duration(&mut rng);
                        down_until[f.index()] = at_s + repair_s;
                        cuts.push(CutEvent {
                            fiber: f,
                            at_s,
                            predictable: true,
                            repair_s,
                        });
                    }
                    events.push(DegradationEvent {
                        fiber: f,
                        start_s,
                        duration_s,
                        features,
                        led_to_cut,
                        cut_delay_s,
                    });
                } else if rng.gen::<f64>() < model.p_cut_without_degradation(f) {
                    // Unpredictable (abrupt) cut: no preceding signal.
                    let at_s = epoch_start + rng.gen_range(0..EPOCH_S);
                    let repair_s = model.sample_repair_duration(&mut rng);
                    down_until[f.index()] = at_s + repair_s;
                    cuts.push(CutEvent {
                        fiber: f,
                        at_s,
                        predictable: false,
                        repair_s,
                    });
                }
            }
        }
        Dataset {
            events,
            cuts,
            epochs: cfg.epochs,
            fibers: net.num_fibers(),
        }
    }

    /// Fraction of degradation events that led to a cut (the paper's
    /// ≈ 40 %, and the 4:6 class imbalance of Appendix A.2).
    pub fn positive_fraction(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events.iter().filter(|e| e.led_to_cut).count() as f64 / self.events.len() as f64
    }

    /// Empirical `α`: predictable cuts over all cuts (§3.1: ≈ 25 %).
    pub fn alpha(&self) -> f64 {
        if self.cuts.is_empty() {
            return 0.0;
        }
        self.cuts.iter().filter(|c| c.predictable).count() as f64 / self.cuts.len() as f64
    }

    /// Per-fiber chronological 80/20 split (Appendix A.2: "the first
    /// 80 % of each fiber's degradation signals as training data").
    pub fn train_test_split(
        &self,
        train_frac: f64,
    ) -> (Vec<&DegradationEvent>, Vec<&DegradationEvent>) {
        assert!((0.0..1.0).contains(&train_frac));
        let mut train = Vec::new();
        let mut test = Vec::new();
        for fiber in 0..self.fibers {
            let of_fiber: Vec<&DegradationEvent> = self
                .events
                .iter()
                .filter(|e| e.fiber == FiberId(fiber))
                .collect();
            let cut = (of_fiber.len() as f64 * train_frac).floor() as usize;
            train.extend_from_slice(&of_fiber[..cut]);
            test.extend_from_slice(&of_fiber[cut..]);
        }
        (train, test)
    }

    /// The Appendix A.1 2×2 contingency table: 15-minute epochs
    /// cross-classified by (degradation present) × (cut present),
    /// summed over fibers.
    pub fn contingency_table(&self) -> ContingencyTable {
        let mut deg_epochs = std::collections::HashSet::new();
        for e in &self.events {
            deg_epochs.insert((e.fiber, e.start_s / EPOCH_S));
        }
        let mut cut_epochs = std::collections::HashSet::new();
        for c in &self.cuts {
            cut_epochs.insert((c.fiber, c.at_s / EPOCH_S));
        }
        let mut t = ContingencyTable::new(2, 2);
        // rows: failure / no failure; cols: degradation / no degradation
        // (matching Table 6's layout).
        let total = (self.epochs * self.fibers) as f64;
        let both = cut_epochs.intersection(&deg_epochs).count() as f64;
        let cut_only = cut_epochs.len() as f64 - both;
        let deg_only = deg_epochs.len() as f64 - both;
        t.set(0, 0, both);
        t.set(0, 1, cut_only);
        t.set(1, 0, deg_only);
        t.set(1, 1, total - both - cut_only - deg_only);
        t
    }

    /// For every cut, the delay since the most recent preceding
    /// degradation on the same fiber (if any) — the Figure 5(a)
    /// distribution, whose tail past the predictable window comes from
    /// abrupt cuts coincidentally following unrelated degradations.
    pub fn degradation_to_cut_delays(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for c in &self.cuts {
            let prev = self
                .events
                .iter()
                .filter(|e| e.fiber == c.fiber && e.start_s <= c.at_s)
                .map(|e| e.start_s)
                .max();
            if let Some(p) = prev {
                out.push((c.at_s - p) as f64);
            }
        }
        out
    }

    /// Per-fiber (degradation count, cut count) pairs — the Figure
    /// 12(a) scatter whose linear fit the simulator encodes.
    pub fn per_fiber_counts(&self) -> Vec<(usize, usize)> {
        let mut deg = vec![0usize; self.fibers];
        let mut cut = vec![0usize; self.fibers];
        for e in &self.events {
            deg[e.fiber.index()] += 1;
        }
        for c in &self.cuts {
            cut[c.fiber.index()] += 1;
        }
        deg.into_iter().zip(cut).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ALPHA_PREDICTABLE;
    use prete_stats::chi2_independence;
    use prete_topology::topologies;

    fn year_dataset() -> Dataset {
        let net = topologies::b4();
        let model = FailureModel::new(&net, 42);
        Dataset::generate(&net, &model, DatasetConfig::one_year(7))
    }

    #[test]
    fn alpha_near_25_percent() {
        let d = year_dataset();
        let a = d.alpha();
        assert!(
            (ALPHA_PREDICTABLE - 0.08..=ALPHA_PREDICTABLE + 0.08).contains(&a),
            "α = {a}"
        );
    }

    #[test]
    fn positive_fraction_near_40_percent() {
        let d = year_dataset();
        let p = d.positive_fraction();
        assert!((0.3..=0.5).contains(&p), "P(cut|deg) = {p}");
    }

    #[test]
    fn dataset_large_enough_for_training() {
        let d = year_dataset();
        assert!(d.events.len() > 500, "only {} events", d.events.len());
        assert!(d.cuts.len() > 100, "only {} cuts", d.cuts.len());
    }

    #[test]
    fn split_is_chronological_per_fiber() {
        let d = year_dataset();
        let (train, test) = d.train_test_split(0.8);
        assert_eq!(train.len() + test.len(), d.events.len());
        let frac = train.len() as f64 / d.events.len() as f64;
        assert!((0.75..=0.85).contains(&frac), "train fraction {frac}");
        // For each fiber, every training event precedes every test event.
        for fiber in 0..d.fibers {
            let max_train = train
                .iter()
                .filter(|e| e.fiber == FiberId(fiber))
                .map(|e| e.start_s)
                .max();
            let min_test = test
                .iter()
                .filter(|e| e.fiber == FiberId(fiber))
                .map(|e| e.start_s)
                .min();
            if let (Some(a), Some(b)) = (max_train, min_test) {
                assert!(a <= b, "fiber {fiber}: train event at {a} after test {b}");
            }
        }
    }

    #[test]
    fn contingency_table_rejects_independence() {
        // §3.1: the chi-square test on the epoch table rejects the null
        // at 0.01 (the paper reports p < 1e-50).
        let d = year_dataset();
        let t = d.contingency_table();
        let r = chi2_independence(&t);
        assert!(r.rejects_null_at(0.01), "p = {}", r.p_value);
        assert!(r.ln_p_value < -50.0, "ln p = {}", r.ln_p_value);
    }

    #[test]
    fn delay_distribution_shape() {
        // Figure 5(a): a majority of (degradation → next cut) delays are
        // short, with a heavy tail beyond a day from abrupt cuts.
        let d = year_dataset();
        let delays = d.degradation_to_cut_delays();
        assert!(!delays.is_empty());
        let short = delays.iter().filter(|&&x| x <= 1000.0).count() as f64 / delays.len() as f64;
        let long = delays.iter().filter(|&&x| x > 86_400.0).count() as f64 / delays.len() as f64;
        assert!(short > 0.2, "short fraction {short}");
        assert!(long > 0.05, "long tail {long}");
    }

    #[test]
    fn per_fiber_counts_roughly_linear() {
        // Figure 12(a): cuts ≈ 1.6 × degradations × (0.4/0.64)… the
        // aggregate ratio over all fibers should sit near the model
        // slope p_cut/p_deg = 1.6.
        let d = year_dataset();
        let (degs, cuts): (Vec<usize>, Vec<usize>) = d.per_fiber_counts().into_iter().unzip();
        let td: usize = degs.iter().sum();
        let tc: usize = cuts.iter().sum();
        let ratio = tc as f64 / td as f64;
        assert!((1.0..=2.2).contains(&ratio), "cuts/degradations = {ratio}");
    }

    #[test]
    fn repair_suppresses_events() {
        // During outages, fibers emit nothing: no two cuts of the same
        // fiber should be closer than the minimum repair time (600 s).
        let d = year_dataset();
        for fiber in 0..d.fibers {
            let mut times: Vec<u64> = d
                .cuts
                .iter()
                .filter(|c| c.fiber == FiberId(fiber))
                .map(|c| c.at_s)
                .collect();
            times.sort_unstable();
            for w in times.windows(2) {
                assert!(w[1] - w[0] >= 600, "fiber {fiber}: cuts {w:?} too close");
            }
        }
    }

    #[test]
    fn determinism() {
        let net = topologies::b4();
        let model = FailureModel::new(&net, 42);
        let cfg = DatasetConfig {
            epochs: 2000,
            seed: 5,
        };
        let a = Dataset::generate(&net, &model, cfg);
        let b = Dataset::generate(&net, &model, cfg);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.cuts.len(), b.cuts.len());
    }
}
