//! The §2/§3 measurement-study artifacts: Figures 1, 4, 5, 6, 12,
//! Tables 1, 6/7.

use crate::SEED;
use prete_core::prelude::*;
use prete_optical::trace::{synthesize, LossTrace, ScriptedDegradation, TraceConfig};
use prete_optical::{DatasetConfig, FailureModel};
use prete_stats::{
    binning::proportion_per_bin, chi2_independence, equal_width_bins, ChiSquareResult,
    ContingencyTable, EmpiricalCdf,
};
use prete_topology::{topologies, FiberId};
use serde::Serialize;

/// Figure 1(a): a week of per-second loss traces for fibers that get
/// cut. Returns (fiber label, downsampled trace points (hour, dB)).
pub fn fig1a_weekly_traces() -> Vec<(String, Vec<(f64, f64)>)> {
    let cfg = TraceConfig::default();
    let week = 7 * 24 * 3600;
    // Four fibers with one or two cut events during the week, each
    // preceded (or not) by degradations — the paper's "at most two
    // failures for a week".
    let scripts: [(&str, Vec<ScriptedDegradation>, Option<u64>); 4] = [
        (
            "fiber1",
            vec![ScriptedDegradation { start_s: 200_000, duration_s: 45, degree_db: 6.0, wobble_db: 0.2 }],
            Some(200_045),
        ),
        ("fiber2", vec![], Some(420_000)),
        (
            "fiber3",
            vec![ScriptedDegradation { start_s: 80_000, duration_s: 30, degree_db: 4.0, wobble_db: 0.05 }],
            Some(500_000),
        ),
        (
            "fiber4",
            vec![ScriptedDegradation { start_s: 350_000, duration_s: 8, degree_db: 7.5, wobble_db: 0.4 }],
            Some(350_010),
        ),
    ];
    scripts
        .into_iter()
        .enumerate()
        .map(|(i, (name, degs, cut))| {
            let t = synthesize(FiberId(i), 0, week as u64, &degs, cut, cfg, SEED + i as u64);
            // Subsample to hourly points for plotting.
            let pts: Vec<(f64, f64)> = t
                .samples
                .iter()
                .step_by(3600)
                .enumerate()
                .map(|(h, &v)| (h as f64, v))
                .collect();
            (name.to_string(), pts)
        })
        .collect()
}

/// Figure 1(b): CDF of IP capacity lost per fiber cut, per region.
/// Returns (region label, CDF curve of lost Tbps).
pub fn fig1b_lost_capacity_cdf() -> Vec<(String, Vec<(f64, f64)>)> {
    let net = topologies::twan();
    let mut by_region: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for fiber in net.fibers() {
        let lost_tbps = net.capacity_lost_by_cut(fiber.id) / 1000.0;
        by_region[fiber.region.min(2)].push(lost_tbps);
    }
    by_region
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(r, v)| (format!("region-{r}"), EmpiricalCdf::new(v).curve()))
        .collect()
}

/// One Figure 1(c) bar: average blast radius of a single cut.
#[derive(Debug, Clone, Serialize)]
pub struct BlastRadius {
    /// Topology name.
    pub topology: String,
    /// Mean fraction of flows affected by one fiber cut.
    pub flows_affected_frac: f64,
    /// Mean fraction of tunnels affected by one fiber cut.
    pub tunnels_affected_frac: f64,
}

/// Figure 1(c): affected flows/tunnels per single fiber cut on the
/// three topologies.
pub fn fig1c_blast_radius() -> Vec<BlastRadius> {
    [topologies::b4(), topologies::ibm(), topologies::twan()]
        .into_iter()
        .map(|net| {
            let flows = topologies::flows_for(&net, 0.15, SEED);
            let tunnels = TunnelSet::initialize(&net, &flows, 4);
            let mut f_acc = 0.0;
            let mut t_acc = 0.0;
            for fiber in net.fibers() {
                f_acc += tunnels.flows_affected_by(&net, fiber.id).len() as f64
                    / flows.len() as f64;
                t_acc += tunnels.tunnels_on_fiber(&net, fiber.id) as f64
                    / tunnels.len() as f64;
            }
            let n = net.num_fibers() as f64;
            BlastRadius {
                topology: net.name.clone(),
                flows_affected_frac: f_acc / n,
                tunnels_affected_frac: t_acc / n,
            }
        })
        .collect()
}

/// A generated year of events on B4, shared by the measurement figures.
pub fn year_dataset() -> (prete_topology::Network, FailureModel, Dataset) {
    let net = topologies::b4();
    let model = FailureModel::new(&net, SEED);
    let ds = Dataset::generate(&net, &model, DatasetConfig::one_year(SEED));
    (net, model, ds)
}

/// Figure 4(a): the empirical distribution of degradation durations
/// (50 % under 10 s).
pub fn fig4a_degradation_lengths(ds: &Dataset) -> EmpiricalCdf {
    EmpiricalCdf::new(ds.events.iter().map(|e| e.duration_s as f64).collect())
}

/// Figure 4(b): the healthy→degraded→cut trace, at 1 s and 180 s
/// granularity. Returns (fine trace, coarse trace).
pub fn fig4b_transition_trace() -> (LossTrace, LossTrace) {
    let deg = ScriptedDegradation { start_s: 65, duration_s: 45, degree_db: 6.0, wobble_db: 0.2 };
    let fine = synthesize(FiberId(0), 0, 400, &[deg], Some(110), TraceConfig::default(), SEED);
    let coarse = fine.downsample(180);
    (fine, coarse)
}

/// Figure 5(a): CDF of degradation→cut delays (log-ready seconds).
pub fn fig5a_cut_delay_cdf(ds: &Dataset) -> Vec<(f64, f64)> {
    EmpiricalCdf::new(ds.degradation_to_cut_delays()).curve()
}

/// Figure 5(b) rows: normalized event counts.
#[derive(Debug, Clone, Serialize)]
pub struct EventCounts {
    /// Total degradation events.
    pub degradations: usize,
    /// Total fiber cuts.
    pub cuts: usize,
    /// Cuts preceded by a degradation within 5 minutes.
    pub predictable_cuts: usize,
    /// Empirical `α` (paper: ≈ 25 %).
    pub alpha: f64,
    /// Empirical `P(cut | degradation)` (paper: ≈ 40 %).
    pub cut_given_degradation: f64,
}

/// Figure 5(b): event counts and the α / conditional statistics.
pub fn fig5b_event_counts(ds: &Dataset) -> EventCounts {
    EventCounts {
        degradations: ds.events.len(),
        cuts: ds.cuts.len(),
        predictable_cuts: ds.cuts.iter().filter(|c| c.predictable).count(),
        alpha: ds.alpha(),
        cut_given_degradation: ds.positive_fraction(),
    }
}

/// One Figure 6 panel: failure proportion per feature-value bin.
#[derive(Debug, Clone, Serialize)]
pub struct FeaturePanel {
    /// Feature name.
    pub feature: String,
    /// (bin center, failure proportion) points; empty bins skipped.
    pub points: Vec<(f64, f64)>,
    /// Chi-square result on the binned counts (Table 1 row).
    pub chi2_ln_p: f64,
}

/// Figure 6 + Table 1: the four critical features' failure-proportion
/// curves and their chi-square p-values (equal-width binning, 8 bins).
pub fn fig6_table1_features(ds: &Dataset) -> Vec<FeaturePanel> {
    let labels: Vec<bool> = ds.events.iter().map(|e| e.led_to_cut).collect();
    let features: [(&str, Vec<f64>); 4] = [
        ("time", ds.events.iter().map(|e| e.features.hour as f64).collect()),
        ("degree", ds.events.iter().map(|e| e.features.degree_db).collect()),
        ("gradient", ds.events.iter().map(|e| e.features.gradient_db).collect()),
        ("fluctuation", ds.events.iter().map(|e| e.features.fluctuation as f64).collect()),
    ];
    features
        .into_iter()
        .map(|(name, values)| {
            let binned = equal_width_bins(&values, 8);
            let props = proportion_per_bin(&binned, &labels);
            let points: Vec<(f64, f64)> = props
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|p| (binned.center(i), p)))
                .collect();
            // Chi-square on bins × {cut, no-cut} (drop empty bins).
            let mut used: Vec<usize> = (0..binned.bins)
                .filter(|&i| binned.counts[i] > 0)
                .collect();
            used.retain(|&i| binned.counts[i] > 0);
            let mut t = ContingencyTable::new(used.len().max(2), 2);
            for (row, &b) in used.iter().enumerate() {
                let n = binned.counts[b] as f64;
                let pos = props[b].unwrap_or(0.0) * n;
                t.set(row, 0, pos);
                t.set(row, 1, n - pos);
            }
            let r: ChiSquareResult = chi2_independence(&t);
            FeaturePanel { feature: name.into(), points, chi2_ln_p: r.ln_p_value }
        })
        .collect()
}

/// Tables 6/7: the Appendix A.1 contingency table and its chi-square
/// verdict, plus the independence counterfactual.
#[derive(Debug, Clone, Serialize)]
pub struct HypothesisTest {
    /// Observed epoch table `[both, cut-only, deg-only, neither]`.
    pub observed: [f64; 4],
    /// ln p-value of the chi-square test.
    pub ln_p: f64,
    /// Whether the null (independence) is rejected at 0.01.
    pub rejected: bool,
    /// Expected co-occurrence count under independence (the Table 7
    /// "what if they were unrelated" cell).
    pub expected_cooccurrence: f64,
}

/// Runs the §3.1 epoch-level hypothesis test.
pub fn table67_hypothesis(ds: &Dataset) -> HypothesisTest {
    let t = ds.contingency_table();
    let r = chi2_independence(&t);
    HypothesisTest {
        observed: [t.get(0, 0), t.get(0, 1), t.get(1, 0), t.get(1, 1)],
        ln_p: r.ln_p_value,
        rejected: r.rejects_null_at(0.01),
        expected_cooccurrence: t.expected(0, 0),
    }
}

/// Figure 12: (a) per-fiber degradation/cut counts (linear relation);
/// (b) CDF of per-fiber degradation probability.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12 {
    /// (degradations, cuts) per fiber.
    pub per_fiber_counts: Vec<(usize, usize)>,
    /// Fitted slope cuts/degradations (paper model: 1.6).
    pub fitted_slope: f64,
    /// CDF of `p_d` across fibers.
    pub p_degradation_cdf: Vec<(f64, f64)>,
}

/// Builds the Figure 12 data.
pub fn fig12_rates(model: &FailureModel, ds: &Dataset) -> Fig12 {
    let counts = ds.per_fiber_counts();
    let (sx, sxy): (f64, f64) = counts
        .iter()
        .fold((0.0, 0.0), |(sx, sxy), &(d, c)| {
            (sx + (d * d) as f64, sxy + (d * c) as f64)
        });
    let fitted_slope = if sx > 0.0 { sxy / sx } else { 0.0 };
    let pds: Vec<f64> = model.profiles().iter().map(|p| p.p_degradation).collect();
    Fig12 {
        per_fiber_counts: counts,
        fitted_slope,
        p_degradation_cdf: EmpiricalCdf::new(pds).curve(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1c_matches_paper_magnitudes() {
        let rows = fig1c_blast_radius();
        assert_eq!(rows.len(), 3);
        let b4 = rows.iter().find(|r| r.topology == "B4").unwrap();
        // Paper: "on B4 topology, 33 % of flows and 13 % of tunnels are
        // affected when a fiber cut event happens".
        assert!(
            (0.1..=0.5).contains(&b4.flows_affected_frac),
            "flows {}",
            b4.flows_affected_frac
        );
        assert!(
            (0.05..=0.3).contains(&b4.tunnels_affected_frac),
            "tunnels {}",
            b4.tunnels_affected_frac
        );
    }

    #[test]
    fn fig1b_reaches_multi_tbps() {
        let cdfs = fig1b_lost_capacity_cdf();
        assert!(!cdfs.is_empty());
        let max_loss = cdfs
            .iter()
            .flat_map(|(_, c)| c.iter().map(|&(x, _)| x))
            .fold(0.0f64, f64::max);
        assert!(max_loss >= 4.0, "max lost capacity {max_loss} Tbps");
    }

    #[test]
    fn fig4b_coarse_misses_the_degradation() {
        let (fine, coarse) = fig4b_transition_trace();
        let f = prete_optical::trace::detect(&fine);
        let c = prete_optical::trace::detect(&coarse);
        assert_eq!(f.degradations.len(), 1);
        // 180 s sampling has at most a point or two inside the 45 s
        // window; with the cut at 110 s the coarse detector sees the
        // cut but not a multi-sample degradation.
        assert!(c.degradations.len() <= 1);
        assert!(f.cut_at_idx.is_some());
    }
}
