//! `figures` — regenerate any table or figure from the PreTE paper.
//!
//! ```text
//! Usage: figures <experiment|all> [--full] [--json DIR]
//!
//! Experiments:
//!   fig1a fig1b fig1c fig237 fig4a fig4b fig5a fig5b fig6 table1
//!   fig11 fig12 fig13 table4 table5 fig14 fig15 fig16 fig17 fig18
//!   fig19 fig20 table67 table8
//! ```
//!
//! `--full` runs the paper-scale sweeps (minutes); the default quick
//! scope finishes in seconds per experiment. `--json DIR` additionally
//! dumps machine-readable results.

use prete_bench::{availability, example3node, granularity, measurement, prediction, runtime, Scope};
use prete_core::estimator::TrueConditionals;
use prete_core::prelude::*;
use prete_sim::production::{replay_production_case, ProductionScenario};
use prete_sim::uncertainty::uncertainty_experiment;
use prete_topology::topologies;
use serde::Serialize;
use std::io::Write;

fn emit<T: Serialize>(name: &str, json_dir: Option<&str>, value: &T) {
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{name}.json");
        let mut f = std::fs::File::create(&path).expect("create json file");
        let s = serde_json::to_string_pretty(value).expect("serialize");
        f.write_all(s.as_bytes()).expect("write json");
        println!("  [json → {path}]");
    }
}

fn curve_preview(points: &[(f64, f64)]) -> String {
    points
        .iter()
        .map(|(x, y)| format!("({x:.2}, {y:.5})"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[allow(clippy::too_many_lines)]
fn run(name: &str, scope: Scope, json: Option<&str>) {
    let nn_epochs = if scope == Scope::Full { 120 } else { 40 };
    match name {
        "fig1a" => {
            let traces = measurement::fig1a_weekly_traces();
            println!("Figure 1(a): weekly loss traces of cut fibers");
            for (fiber, pts) in &traces {
                let max = pts.iter().map(|p| p.1).fold(0.0f64, f64::max);
                println!("  {fiber}: {} hourly points, peak {max:.1} dB", pts.len());
            }
            emit("fig1a", json, &traces);
        }
        "fig1b" => {
            let cdfs = measurement::fig1b_lost_capacity_cdf();
            println!("Figure 1(b): CDF of lost IP capacity per cut (Tbps)");
            for (region, curve) in &cdfs {
                let median = curve.iter().find(|p| p.1 >= 0.5).map(|p| p.0).unwrap_or(0.0);
                let max = curve.last().map(|p| p.0).unwrap_or(0.0);
                println!("  {region}: median {median:.1} Tbps, max {max:.1} Tbps");
            }
            emit("fig1b", json, &cdfs);
        }
        "fig1c" => {
            let rows = measurement::fig1c_blast_radius();
            println!("Figure 1(c): blast radius of one fiber cut");
            println!("  topology   flows-affected  tunnels-affected");
            for r in &rows {
                println!(
                    "  {:<9}  {:>6.1} %        {:>6.1} %",
                    r.topology,
                    100.0 * r.flows_affected_frac,
                    100.0 * r.tunnels_affected_frac
                );
            }
            emit("fig1c", json, &rows);
        }
        "fig237" => {
            let rows = example3node::run();
            println!("Figures 2/3/7: the 3-node worked example");
            for r in &rows {
                println!("  {:<45} {:>6.2} units", r.setting, r.total_units);
            }
            emit("fig237", json, &rows);
        }
        "fig4a" | "fig4b" | "fig5a" | "fig5b" | "fig6" | "table1" | "table67" | "fig12" => {
            let (_net, model, ds) = measurement::year_dataset();
            match name {
                "fig4a" => {
                    let lengths = measurement::fig4a_degradation_lengths(&ds);
                    println!(
                        "Figure 4(a): degradation length CDF; median {:.0} s",
                        lengths.median()
                    );
                    emit("fig4a", json, &lengths.sampled_curve(60));
                }
                "fig4b" => {
                    let (fine, coarse) = measurement::fig4b_transition_trace();
                    let f = prete_optical::trace::detect(&fine);
                    let c = prete_optical::trace::detect(&coarse);
                    println!(
                        "Figure 4(b): 1 s sampling sees {} degradation(s) + cut at {:?} s; \
                         180 s sampling sees {} degradation(s)",
                        f.degradations.len(),
                        f.cut_at_idx,
                        c.degradations.len()
                    );
                    emit("fig4b", json, &(fine.samples.len(), coarse.samples.len()));
                }
                "fig5a" => {
                    let curve = measurement::fig5a_cut_delay_cdf(&ds);
                    let within_1000 = curve
                        .iter()
                        .filter(|p| p.0 <= 1000.0)
                        .map(|p| p.1)
                        .fold(0.0f64, f64::max);
                    println!(
                        "Figure 5(a): degradation→cut delay CDF; P(≤10³ s) ≈ {:.0} %",
                        100.0 * within_1000
                    );
                    emit("fig5a", json, &curve);
                }
                "fig5b" => {
                    let c = measurement::fig5b_event_counts(&ds);
                    println!(
                        "Figure 5(b): {} degradations, {} cuts, {} predictable \
                         (α = {:.1} %, P(cut|deg) = {:.1} %)",
                        c.degradations,
                        c.cuts,
                        c.predictable_cuts,
                        100.0 * c.alpha,
                        100.0 * c.cut_given_degradation
                    );
                    emit("fig5b", json, &c);
                }
                "fig6" | "table1" => {
                    let panels = measurement::fig6_table1_features(&ds);
                    println!("Figure 6 / Table 1: feature → failure proportion");
                    for p in &panels {
                        let lo = p.points.iter().map(|x| x.1).fold(1.0f64, f64::min);
                        let hi = p.points.iter().map(|x| x.1).fold(0.0f64, f64::max);
                        println!(
                            "  {:<12} proportion {lo:.2}–{hi:.2}   ln p = {:.1} ({})",
                            p.feature,
                            p.chi2_ln_p,
                            if p.chi2_ln_p < (0.01f64).ln() { "rejected" } else { "not rejected" }
                        );
                    }
                    emit("fig6_table1", json, &panels);
                }
                "table67" => {
                    let h = measurement::table67_hypothesis(&ds);
                    println!(
                        "Tables 6/7: epochs [both, cut-only, deg-only, neither] = {:?}",
                        h.observed
                    );
                    println!(
                        "  chi-square ln p = {:.1} → null {}; expected co-occurrence {:.2}",
                        h.ln_p,
                        if h.rejected { "REJECTED" } else { "kept" },
                        h.expected_cooccurrence
                    );
                    emit("table67", json, &h);
                }
                "fig12" => {
                    let f = measurement::fig12_rates(&model, &ds);
                    println!(
                        "Figure 12: fitted cuts/degradations slope {:.2} (model 1.6); \
                         p_d spans {:.2e}–{:.2e}",
                        f.fitted_slope,
                        f.p_degradation_cdf.first().map(|p| p.0).unwrap_or(0.0),
                        f.p_degradation_cdf.last().map(|p| p.0).unwrap_or(0.0)
                    );
                    emit("fig12", json, &f);
                }
                _ => unreachable!(),
            }
        }
        "fig11" => {
            let f = runtime::fig11();
            println!("Figure 11(a): pipeline stages (ms)");
            for s in &f.pipeline.stages {
                println!("  {:<15} start {:>8.1}  dur {:>8.1}", s.name, s.start_ms, s.duration_ms);
            }
            println!("  decision latency {:.0} ms (paper: < 300 ms)", f.pipeline.decision_ms());
            println!("Figure 11(b): update curve {:?}", f.update_curve);
            emit("fig11", json, &f);
        }
        "fig13" => {
            let data = availability::fig13(scope);
            println!("Figure 13: availability vs demand scale");
            for (topo, curves) in &data {
                println!("  [{topo}]");
                for c in curves {
                    println!("    {:<12} {}", c.scheme, curve_preview(&c.points));
                }
            }
            emit("fig13", json, &data);
        }
        "table4" => {
            let rows = availability::table4(scope);
            println!("Table 4: PreTE satisfied-demand gain");
            for r in &rows {
                println!("  availability {:.4}:", r.availability);
                for (scheme, gain) in &r.gain {
                    match gain {
                        Some(g) => println!("    vs {scheme:<10} {g:.2}x"),
                        None => println!("    vs {scheme:<10} NA"),
                    }
                }
            }
            emit("table4", json, &rows);
        }
        "table5" | "fig14" => {
            let r = prediction::table5_fig14(nn_epochs);
            println!("Table 5: prediction model comparison");
            println!("  model       P      R      F1     acc");
            for m in &r.table5 {
                println!(
                    "  {:<10} {:.2}   {:.2}   {:.2}   {:.2}",
                    m.name, m.precision, m.recall, m.f1, m.accuracy
                );
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            println!(
                "Figure 14: mean per-link error — NN {:.3}, TeaVar {:.3}",
                mean(&r.fig14_nn_errors),
                mean(&r.fig14_teavar_errors)
            );
            emit("table5_fig14", json, &r);
        }
        "table8" => {
            let rows = prediction::table8_ablation(nn_epochs);
            println!("Table 8: NN feature ablation");
            println!("  variant             P      R      F1     acc");
            for r in &rows {
                println!(
                    "  {:<18} {:.2}   {:.2}   {:.2}   {:.2}",
                    r.variant, r.precision, r.recall, r.f1, r.accuracy
                );
            }
            emit("table8", json, &rows);
        }
        "fig15" => {
            let curves = availability::fig15(scope);
            println!("Figure 15: prediction accuracy → availability");
            for c in &curves {
                println!("  {:<18} {}", c.scheme, curve_preview(&c.points));
            }
            emit("fig15", json, &curves);
        }
        "fig16" => {
            let a = availability::fig16a(scope);
            println!("Figure 16(a): availability vs new-tunnel ratio: {a:?}");
            let ratios: Vec<f64> = if scope == Scope::Full {
                vec![0.0, 0.5, 1.0, 2.0, 5.0]
            } else {
                vec![0.0, 1.0]
            };
            let b = runtime::fig16b(&ratios);
            println!("Figure 16(b): TE runtime vs ratio");
            for r in &b {
                println!(
                    "  {:<6} ratio {:<4} tunnels {:>3}  compute {:>6.2} s  establish {:>6.2} s",
                    r.topology, r.ratio, r.new_tunnels, r.te_compute_s, r.tunnel_establish_s
                );
            }
            emit("fig16", json, &(a, b));
        }
        "fig17" | "fig19" => {
            let net = topologies::b4();
            let model = FailureModel::new(&net, prete_bench::SEED);
            let truth = TrueConditionals::ground_truth(&net, &model, 200, prete_bench::SEED);
            let flows = topologies::flows_for(&net, availability::BASE_LOAD, prete_bench::SEED);
            let tunnels = TunnelSet::initialize(&net, &flows, 4);
            // Same scale pair in both scopes: the experiment is cheap
            // enough that quick runs keep full coverage.
            let scales: Vec<f64> = vec![1.0, 2.7];
            for scale in scales {
                let r = uncertainty_experiment(
                    &net, &model, &truth, &flows, &tunnels, scale, 0.05, prete_bench::SEED,
                );
                println!("Figure 17 @ scale {scale}:");
                for s in &r.availability {
                    println!("  {:<8} availability {:.5}", s.scheme, s.availability);
                }
                println!("Figure 19 @ scale {scale}:");
                for v in &r.variation {
                    println!(
                        "  {:<9} affected={:<5} mean Δ {:.1} Gbps",
                        v.source, v.affected, v.mean_variation_gbps
                    );
                }
                emit(&format!("fig17_19_scale{scale}"), json, &r);
            }
        }
        "fig18" => {
            let out = replay_production_case(ProductionScenario::default());
            println!("Figure 18: §7 production case");
            for s in [&out.traditional, &out.prete] {
                println!(
                    "  {:<12} backup {:?}  sustained loss {:>5.0} Gbps  \
                     loss duration {:>7.2} s  total lost {:>9.1} Gb",
                    s.system, s.backup_path, s.sustained_loss_gbps, s.loss_duration_s, s.total_lost_gb
                );
            }
            emit("fig18", json, &out);
        }
        "fig20" => {
            let a = granularity::fig20a(&[1, 10, 60, 180, 300]);
            println!("Figure 20(a): granularity → coverage/occurrence");
            for r in &a {
                println!(
                    "  {:>4} s: coverage {:.1} %, occurrence {:.1} %",
                    r.granularity_s,
                    100.0 * r.coverage,
                    100.0 * r.occurrence
                );
            }
            let b = availability::fig20b(scope);
            println!("Figure 20(b): availability vs α");
            for (alpha, pts) in &b {
                println!("  α = {alpha}: {}", curve_preview(pts));
            }
            emit("fig20", json, &(a, b));
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }
}

const ALL: &[&str] = &[
    "fig1a", "fig1b", "fig1c", "fig237", "fig4a", "fig4b", "fig5a", "fig5b", "fig6",
    "table1", "fig11", "fig12", "fig13", "table4", "table5", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "table67", "table8",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("usage: figures <experiment|all> [--full] [--json DIR]");
        eprintln!("experiments: {}", ALL.join(" "));
        std::process::exit(2);
    };
    let scope = Scope::from_args(&args);
    let json = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    if name == "all" {
        // fig14/fig19/table1 are emitted together with their siblings.
        for n in ALL {
            if ["fig14", "fig19", "table1", "fig4b"].contains(n) {
                continue;
            }
            println!("==== {n} ====");
            run(n, scope, json);
            println!();
        }
    } else {
        run(name, scope, json);
    }
}
