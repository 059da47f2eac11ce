//! Cross-crate integration tests: telemetry → prediction → probability
//! calibration → TE optimization → availability.

use prete_bench::example3node;
use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::eval::{AvailabilityEvaluator, EvalConfig};
use prete_core::prelude::*;
use prete_core::schemes::{EcmpScheme, PreTeScheme, TeaVarScheme};
use prete_nn::{evaluate, Mlp, TrainConfig};
use prete_optical::{Dataset, DatasetConfig, FailureModel};
use prete_topology::topologies;

/// The full Table 3 inventory is reproduced exactly for B4 and IBM.
#[test]
fn table3_inventory() {
    for (net, fibers, links, tunnels) in [
        (topologies::b4(), 19, 52, 208),
        (topologies::ibm(), 23, 85, 340),
    ] {
        assert_eq!(net.num_fibers(), fibers, "{}", net.name);
        assert_eq!(net.num_links(), links, "{}", net.name);
        let flows = topologies::flows_for(&net, 0.1, 1);
        let ts = TunnelSet::initialize(&net, &flows, 4);
        assert_eq!(ts.len(), tunnels, "{}", net.name);
        // §4.2 survivability guarantee: a residual tunnel exists for
        // every flow under every single-fiber cut.
        assert!(
            ts.survivability_violations(&net).is_empty(),
            "{}: survivability violated",
            net.name
        );
    }
}

/// Dataset → NN → calibrated estimator is consistent end to end: the
/// trained model's per-fiber conditionals track the ground truth much
/// more closely than the static assumption does.
#[test]
fn nn_conditionals_track_ground_truth() {
    let net = topologies::b4();
    let model = FailureModel::new(&net, 42);
    let ds = Dataset::generate(&net, &model, DatasetConfig::one_year(7));
    let (train, test) = ds.train_test_split(0.8);
    let nn = Mlp::train(
        &train,
        TrainConfig {
            epochs: 50,
            seed: 2,
            ..Default::default()
        },
    );
    let r = evaluate("NN", &nn, &test);
    assert!(r.f1 > 0.6, "NN F1 {}", r.f1);

    let truth = TrueConditionals::ground_truth(&net, &model, 200, 3);
    let believed = TrueConditionals::from_predictor(&net, &model, &nn, 200, 3);
    let mae: f64 = truth
        .per_fiber
        .iter()
        .zip(&believed.per_fiber)
        .map(|(t, b)| (t - b).abs())
        .sum::<f64>()
        / truth.per_fiber.len() as f64;
    // Static schemes assume ~0.3 % where the truth is ~40 %: error ≈ 0.4.
    let static_mae: f64 = truth
        .per_fiber
        .iter()
        .zip(model.profiles())
        .map(|(t, p)| (t - p.p_cut).abs())
        .sum::<f64>()
        / truth.per_fiber.len() as f64;
    assert!(
        mae < static_mae / 2.0,
        "NN MAE {mae} vs static {static_mae}"
    );
}

/// The worked 3-node example reproduces all four paper numbers.
#[test]
fn three_node_example_matches_paper() {
    let rows = example3node::run();
    let get = |i: usize| rows[i].total_units;
    assert!((get(0) - 10.0).abs() < 1e-3, "TeaVaR {}", get(0));
    assert!((get(1) - 20.0).abs() < 1e-3, "oracle-up {}", get(1));
    assert!((get(2) - 10.0).abs() < 1e-3, "oracle-down {}", get(2));
    assert!(get(3) >= 10.0 - 1e-3, "PreTE {}", get(3));
}

/// On B4 at a stressed demand scale, the scheme ordering of Figure 13
/// holds: PreTE ≥ TeaVaR ≥ ECMP in mean availability.
#[test]
fn figure13_ordering_on_b4() {
    let net = topologies::b4();
    let model = FailureModel::new(&net, 42);
    let truth = TrueConditionals::ground_truth(&net, &model, 150, 1);
    let base = topologies::flows_for(&net, 0.05, 42);
    let flows: Vec<Flow> = base
        .iter()
        .map(|f| Flow {
            demand_gbps: f.demand_gbps * 2.5,
            ..*f
        })
        .collect();
    let tunnels = TunnelSet::initialize(&net, &base, 4);
    let cfg = EvalConfig {
        top_k_degraded: 5,
        ..Default::default()
    };
    let ev = AvailabilityEvaluator::new(&net, &model, flows, &tunnels, &truth, cfg);

    let prete = ev.evaluate(&PreTeScheme::new(
        0.999,
        ProbabilityEstimator::prete(&model, &truth),
    ));
    let teavar = ev.evaluate(&TeaVarScheme::new(&model, 0.999));
    let ecmp = ev.evaluate(&EcmpScheme);
    assert!(
        prete.mean >= teavar.mean - 1e-9,
        "PreTE {} < TeaVaR {}",
        prete.mean,
        teavar.mean
    );
    assert!(
        teavar.mean >= ecmp.mean - 1e-6,
        "TeaVaR {} < ECMP {}",
        teavar.mean,
        ecmp.mean
    );
}

/// Theorem 4.1 wired through the estimator stack: without a signal the
/// dynamic probability is (1 − α)·p_i, strictly below the static one.
#[test]
fn theorem_4_1_through_the_stack() {
    let net = topologies::ibm();
    let model = FailureModel::new(&net, 9);
    let truth = TrueConditionals::ground_truth(&net, &model, 50, 2);
    let est = ProbabilityEstimator::prete(&model, &truth);
    let p = est.probabilities(&prete_core::scenario::DegradationState::healthy());
    for (n, prof) in model.profiles().iter().enumerate() {
        assert!((p[n] - 0.75 * prof.p_cut).abs() < 1e-12);
        assert!(p[n] < prof.p_cut);
    }
}
