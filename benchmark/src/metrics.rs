//! The metric registry: every number the benchmark reports, with its
//! unit, direction, regression bound and — for per-layer metrics — the
//! end-to-end metric it is expected to move and on which workload.
//! `BENCHMARK.json` mirrors this file; a unit test keeps the two equal.

use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the controller would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "epoch_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median over the pass's inputs of each input's median epoch wall time over passes, tracing off",
    },
    EndToEnd {
        name: "epoch_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "the pass's slowest input: each input's median epoch wall time over passes, then the highest",
    },
    EndToEnd {
        name: "epochs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "timed epochs / their summed wall time, so one outlier epoch shows even when the median hides it",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "everything before the warm-up epoch (median of the run's repeated set-ups)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "served_share_phi",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        what: "1 - mean over epochs of the returned Phi (TeSolution::max_loss / PolicyRecomputed.max_loss)",
    },
    EndToEnd {
        name: "served_share_flows",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        what: "1 - mean over epochs and flows of the beta-quantile loss the checker recomputes from the \
               allocation (guards polish, which Phi alone does not); on react-twan, whose report \
               exposes no allocation, its lower bound 1 - Phi",
    },
];

/// A metric of one layer (crate or module), from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A deterministic count: must repeat exactly for a fixed seed and a
    /// fixed number of passes, which is what makes two machines
    /// comparable. Timings are this machine's.
    pub exact: bool,
    /// Which end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn timing(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        moves,
    }
}

const fn count(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
        moves,
    }
}

const fn share(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: true,
        moves,
    }
}

const TOPOLOGY: &str = "setup_s on scale-waxman100; nothing elsewhere";
const OPTICAL: &str = "epoch_ms_p50 on react-twan (expected << 1 %)";
const NN_SETUP: &str = "setup_s on react-twan only";
const NN_EPOCH: &str = "epoch_ms_p50 on react-twan only";
const ESTIMATOR: &str = "epoch_ms_p50 on all but steady-twan (expected << 1 %)";
const ALGORITHM1: &str = "epoch_ms_p50 on react-twan";
const SCHEMES: &str = "epoch_ms_p50 on react-twan; plan - update is the hidden duplicate solve";
const SCENARIO: &str =
    "epoch_ms_p50 on scale-waxman100; no change on steady-twan (its set is fixed)";
const BUILD: &str = "epoch_ms_p50 on scale-waxman100 first";
const SOLVE: &str = "epoch_ms_p50 and epochs_per_s on every workload";
const SUBPROBLEM: &str = "epoch_ms_p50 on react-twan and scale-waxman100 (cold subproblem LPs)";
const MASTER: &str = "epoch_ms_p50 and epochs_per_s on benders-b4; none elsewhere (0)";
const POLISH: &str = "epoch_ms_p50 on react-twan, steady-twan, scale-waxman100; none on benders-b4";
const WARM: &str = "epoch_ms_p50 on steady-twan only";
const PIVOT: &str = "epoch_ms_p50 on the three heuristic workloads (largest on scale-waxman100)";
const NODE: &str = "epoch_ms_p50 and epochs_per_s on benders-b4";
const NUMERICS: &str = "none; a rise flags numerical trouble before it costs time";
const SIM: &str = "epoch_ms_p50 on react-twan";
const OBS: &str = "none; a rise flags instrumentation cost";

pub const PER_LAYER: [PerLayer; 56] = [
    timing("topology.generate_ms", "ms", TOPOLOGY),
    timing("topology.tunnels_init_ms", "ms", TOPOLOGY),
    timing("topology.ground_truth_ms", "ms", TOPOLOGY),
    count("topology.flows_total", "none; instance size"),
    count("topology.tunnels_total", "none; instance size"),
    timing("optical.detect_us_p50", "us", OPTICAL),
    count("optical.samples_per_epoch", "none; input size"),
    timing("nn.train_s", "s", NN_SETUP),
    timing("nn.predict_us_p50", "us", NN_EPOCH),
    timing("core.estimator.probabilities_us_p50", "us", ESTIMATOR),
    timing("core.algorithm1.update_ms_p50", "ms", ALGORITHM1),
    count("core.algorithm1.new_tunnels_per_epoch", ALGORITHM1),
    timing("core.schemes.plan_ms_p50", "ms", SCHEMES),
    timing("core.scenario.enumerate_ms_p50", "ms", SCENARIO),
    count("core.scenario.scenarios_per_epoch", SCENARIO),
    count("core.scenario.visited_per_epoch", SCENARIO),
    count("core.scenario.pruned_per_epoch", SCENARIO),
    share("core.scenario.enumerated_mass_mean", "ratio", "served_share_phi where beta sits near the enumerated mass"),
    timing("core.optimizer.problem_build_ms_p50", "ms", BUILD),
    timing("core.optimizer.solve_ms_p50", "ms", SOLVE),
    timing("core.optimizer.subproblem_ms_p50", "ms", SUBPROBLEM),
    timing("core.optimizer.master_ms_p50", "ms", MASTER),
    timing("core.optimizer.polish_ms_p50", "ms", POLISH),
    timing("core.optimizer.self_ms_p50", "ms", SOLVE),
    count("core.optimizer.lp_solves_per_epoch", SOLVE),
    count("core.optimizer.benders_iters_per_epoch", MASTER),
    count("core.optimizer.cuts_added_per_epoch", MASTER),
    share(
        "core.optimizer.rhs_resolves_per_epoch",
        "count",
        "epoch_ms_p50 on steady-twan, where it is 0 today (benders-b4's 1 is Algorithm 2's own re-solve)",
    ),
    share("core.optimizer.benders_converged_share", "ratio", "served_share_phi on benders-b4"),
    share("core.optimizer.warm_hit_rate", "ratio", WARM),
    count("core.optimizer.cache_evictions_per_epoch", WARM),
    count("core.optimizer.work_units_per_epoch", SOLVE),
    count("lp.pivots_per_epoch", PIVOT),
    count("lp.mip_nodes_per_epoch", NODE),
    count("lp.refactorizations_per_epoch", PIVOT),
    count("lp.etas_per_epoch", PIVOT),
    count("lp.fill_in_per_epoch", PIVOT),
    count("lp.refinements_per_epoch", NUMERICS),
    count("lp.dense_fallbacks_per_epoch", NUMERICS),
    count("lp.suspect_solves_per_epoch", NUMERICS),
    PerLayer { name: "lp.max_condition_estimate", unit: "ratio", better: Better::Lower, exact: true, moves: NUMERICS },
    timing("lp.us_per_pivot", "us", PIVOT),
    timing("lp.us_per_mip_node", "us", NODE),
    timing("sim.epoch_ms_p50", "ms", SIM),
    timing("sim.detect_ms_p50", "ms", SIM),
    timing("sim.predict_ms_p50", "ms", SIM),
    timing("sim.tunnel_ms_p50", "ms", SIM),
    timing("sim.solve_ms_p50", "ms", SIM),
    timing("sim.epoch_self_ms_p50", "ms", SIM),
    share("sim.prepared_before_cut_share", "ratio", "none; the modelled Fig. 11 outcome"),
    timing("obs.trace_overhead_pct", "%", OBS),
    count("obs.spans_per_epoch", OBS),
    timing("obs.harness_self_us_p50", "us", "none; the harness's own cost inside the timed region"),
    count("obs.epochs_traced", "none; the sample count behind every per-layer median"),
    timing(
        "obs.epoch_ms_tail",
        "ms",
        "none; the percentile tail of the run's epochs where the sample supports one (0 below 40 epochs)",
    ),
    PerLayer {
        name: "obs.epoch_tail_pct",
        unit: "%",
        better: Better::Higher,
        exact: false,
        moves: "none; the percentile obs.epoch_ms_tail reads: the highest of 95/90/75 with ten samples beyond it",
    },
];

/// `list`: every metric name with unit and direction.
pub fn print_list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (tracing off; same names on every workload):");
    for m in &END_TO_END {
        println!(
            "  {:<20} {:<6} {:<6} better, may worsen by {:>5.1} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound,
            m.what
        );
    }
    println!("\nper-layer metrics (traced run; [=] marks counts that repeat exactly per seed):");
    for m in &PER_LAYER {
        println!(
            "  {:<44} {:<6} {:<6} {} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.exact { "[=]" } else { "   " },
            m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn strings<'a>(list: &'a Value, key: &str) -> Vec<&'a str> {
        let Value::Seq(items) = list else {
            panic!("not a list")
        };
        items
            .iter()
            .map(|i| match i.get(key) {
                Some(Value::Str(s)) => s.as_str(),
                other => panic!("{key}: {other:?}"),
            })
            .collect()
    }

    /// `BENCHMARK.json` is the contract later PRs are held to; it must say
    /// what this registry says.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse(&text).expect("valid JSON");

        let workloads = doc.get("workloads").expect("workloads");
        assert_eq!(
            strings(workloads, "name"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(workloads, "why"),
            WORKLOADS.iter().map(|w| w.why).collect::<Vec<_>>()
        );

        let e2e = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(
            strings(e2e, "name"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(e2e, "unit"),
            END_TO_END.iter().map(|m| m.unit).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(e2e, "better"),
            END_TO_END
                .iter()
                .map(|m| m.better.as_str())
                .collect::<Vec<_>>()
        );
        let Value::Seq(items) = e2e else {
            unreachable!()
        };
        for (item, m) in items.iter().zip(&END_TO_END) {
            let bound = item
                .get("bound")
                .and_then(crate::compare::number)
                .expect("a bound");
            assert_eq!(bound, m.bound, "{}", m.name);
        }

        let layers = doc.get("per_layer").expect("per_layer");
        assert_eq!(
            strings(layers, "name"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(layers, "unit"),
            PER_LAYER.iter().map(|m| m.unit).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(layers, "better"),
            PER_LAYER
                .iter()
                .map(|m| m.better.as_str())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(
            WORKLOADS.iter().all(|w| w.why.len() <= 200),
            "a why is over 200 characters"
        );
    }
}
