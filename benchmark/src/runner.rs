//! Runs one workload in this process: repeated set-up, one warm-up
//! epoch, whole passes until the measuring time is used up, then the
//! metrics. Closed loop, one client, one thread: the next epoch starts
//! when the previous one returns.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::{self_times_ms, Tracer};
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::workloads::{Decision, Rng, Samples, SetupBreakdown, Workload, WorkloadDef};
use prete_core::prelude::{RunReport, SolveMethod};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

pub struct RunArgs {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    /// Measuring time; the run ends at the pass boundary nearest to it.
    pub seconds: f64,
    /// Fixed number of passes instead of a measuring time (all traced
    /// when tracing): the determinism check's fixed work.
    pub passes: Option<usize>,
    pub trace: bool,
}

/// Set-up is repeated at least this often and until it has used this
/// much time (or the cap), so `setup_s` is a median of many where one
/// set-up takes milliseconds and a few scheduler hiccups would move it.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

struct Epoch {
    pass: usize,
    slot: usize,
    traced: bool,
    ms: f64,
    phi: f64,
    /// Mean per-flow β-quantile loss from the checker, else Φ (its bound).
    flow_loss: f64,
}

pub struct Outcome {
    pub attempted: usize,
    /// One line per failed epoch; the failed count is its length.
    pub failures: Vec<String>,
    /// `(name, unit, value)` in registry order: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn to_json(&self) -> Value {
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.failures.is_empty())),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failures.len() as i64)),
            (
                "metrics".into(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|&(name, unit, value)| {
                            let entry = Value::Map(vec![
                                ("value".into(), Value::Float(value)),
                                ("unit".into(), Value::Str(unit.into())),
                            ]);
                            (name.to_string(), entry)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Directory the benchmark writes its results into (`benchmark/out`).
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("PRETE_BENCH_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from);
    base.join("out")
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Set-up, repeated; returns the last world, each repetition's seconds
/// and the per-field median breakdown.
fn set_up(def: &WorkloadDef) -> (Box<dyn Workload>, Vec<f64>, SetupBreakdown) {
    let mut seconds = Vec::new();
    let mut breakdowns = Vec::new();
    let mut world = None;
    while seconds.len() < MIN_SETUPS
        || (seconds.len() < MAX_SETUPS && seconds.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(world.take());
        let t = Instant::now();
        let (w, breakdown) = (def.setup)();
        seconds.push(t.elapsed().as_secs_f64());
        breakdowns.push(breakdown);
        world = Some(w);
    }
    let med = |f: fn(&SetupBreakdown) -> f64| median(&breakdowns.iter().map(f).collect::<Vec<_>>());
    let breakdown = SetupBreakdown {
        generate_ms: med(|b| b.generate_ms),
        tunnels_init_ms: med(|b| b.tunnels_init_ms),
        ground_truth_ms: med(|b| b.ground_truth_ms),
        train_s: med(|b| b.train_s),
        ..breakdowns[0]
    };
    (world.expect("at least one set-up"), seconds, breakdown)
}

/// One epoch: the timed decision under `catch_unwind`, then the untimed
/// check. A panic, an `Err` or a rejected policy is a counted failure.
fn run_epoch(
    world: &mut dyn Workload,
    slot: usize,
    tracer: &mut Tracer,
) -> (f64, Result<(Decision, Option<f64>), String>) {
    let span = tracer.open("epoch");
    let t = Instant::now();
    let decided = catch_unwind(AssertUnwindSafe(|| world.epoch(slot, tracer)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);
    let result = match decided {
        Ok(Ok(decision)) => match catch_unwind(AssertUnwindSafe(|| world.check(slot, &decision))) {
            Ok(Ok(flow_loss)) => Ok((decision, flow_loss)),
            Ok(Err(why)) => Err(format!("check: {why}")),
            Err(p) => Err(format!("check panicked: {}", panic_message(p))),
        },
        Ok(Err(why)) => Err(why),
        Err(p) => Err(format!("panicked: {}", panic_message(p))),
    };
    (ms, result)
}

pub fn run(args: &RunArgs) -> Outcome {
    let (mut world, setup_seconds, breakdown) = set_up(args.workload);
    world.prepare(args.seed);
    let slots = world.slots();
    let order = Rng::new(args.seed).permutation(slots);

    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let mut stats_log = Vec::new();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut attempted = 0;
    let mut failures = Vec::new();

    // Warm-up: the pass's last input, untimed, so the first timed epoch
    // has the predecessor it has in every later pass.
    world.begin_pass();
    attempted += 1;
    if let (_, Err(why)) = run_epoch(world.as_mut(), order[slots - 1], &mut tracer) {
        failures.push(format!("warm-up: {why}"));
    }

    let min_passes = if args.trace { 2 } else { 1 };
    let measuring = Instant::now();
    let mut pass = 0;
    loop {
        // A traced run alternates traced and untraced passes over the
        // same inputs; their medians' ratio is the tracing overhead.
        let traced = args.trace && (args.passes.is_some() || pass % 2 == 0);
        tracer.set_enabled(traced);
        world.begin_pass();
        for &slot in &order {
            let id = attempted as u32;
            attempted += 1;
            tracer.begin_epoch(id);
            let (ms, result) = run_epoch(world.as_mut(), slot, &mut tracer);
            match result {
                Ok((decision, flow_loss)) => {
                    if traced {
                        record_layers(&decision, &mut samples);
                        stats_log.push(epoch_json(id, slot, ms, &decision));
                    }
                    epochs.push(Epoch {
                        pass,
                        slot,
                        traced,
                        ms,
                        phi: decision.phi,
                        flow_loss: flow_loss.unwrap_or(decision.phi),
                    });
                }
                Err(why) => failures.push(format!("pass {pass} slot {slot}: {why}")),
            }
            if traced {
                let attributed = catch_unwind(AssertUnwindSafe(|| {
                    world.attribute(slot, &mut tracer, &mut samples)
                }));
                if let Err(p) = attributed {
                    failures.push(format!(
                        "pass {pass} slot {slot}: attribution panicked: {}",
                        panic_message(p)
                    ));
                }
            }
        }
        pass += 1;
        let elapsed = measuring.elapsed().as_secs_f64();
        let done = match args.passes {
            Some(n) => pass >= n,
            None => pass >= min_passes && elapsed + 0.5 * elapsed / pass as f64 >= args.seconds,
        };
        if done {
            break;
        }
    }

    let metrics = if args.trace {
        per_layer(&epochs, &tracer, &samples, &breakdown)
    } else {
        end_to_end(&epochs, slots, &setup_seconds)
    };
    let outcome = Outcome {
        attempted,
        failures,
        metrics,
    };
    write_files(args, &outcome, &epochs, &tracer, stats_log);
    outcome
}

fn end_to_end(
    epochs: &[Epoch],
    slots: usize,
    setup_seconds: &[f64],
) -> Vec<(&'static str, &'static str, f64)> {
    let ms: Vec<f64> = epochs.iter().map(|e| e.ms).collect();
    let by_slot: Vec<f64> = (0..slots)
        .map(|s| {
            median(
                &epochs
                    .iter()
                    .filter(|e| e.slot == s)
                    .map(|e| e.ms)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let value = |name: &str| match name {
        "epoch_ms_p50" => median(&by_slot),
        "epoch_ms_tail" => by_slot.iter().copied().fold(0.0, f64::max),
        // 0 only when every epoch failed; the run is then reported incorrect.
        "epochs_per_s" => ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3).max(f64::MIN_POSITIVE),
        "setup_s" => median(setup_seconds),
        "peak_rss_mb" => peak_rss_mb(),
        "served_share_phi" => 1.0 - mean(&epochs.iter().map(|e| e.phi).collect::<Vec<_>>()),
        "served_share_flows" => 1.0 - mean(&epochs.iter().map(|e| e.flow_loss).collect::<Vec<_>>()),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect()
}

/// Per-epoch layer values a traced decision carries in what it returned.
fn record_layers(d: &Decision, samples: &mut Samples) {
    let SolveMethod::Benders { max_iters, .. } = SolveMethod::benders() else {
        unreachable!()
    };
    let s = &d.stats;
    for (key, value) in [
        ("solve_ms", s.total_ms),
        ("subproblem_ms", s.subproblem_ms),
        ("master_ms", s.master_ms),
        ("polish_ms", s.polish_ms),
        (
            "self_ms",
            s.total_ms - s.subproblem_ms - s.master_ms - s.polish_ms,
        ),
        ("lp_solves", s.lp_solves as f64),
        ("benders_iters", s.benders_iters as f64),
        ("cuts_added", s.cuts_added as f64),
        ("rhs_resolves", s.rhs_resolves as f64),
        (
            "converged",
            f64::from(u8::from(s.benders_iters < max_iters)),
        ),
        ("warm_hits", s.warm_hits as f64),
        ("warm_misses", s.warm_misses as f64),
        ("cache_evictions", s.cache_evictions as f64),
        ("work_units", s.work_units() as f64),
        ("pivots", s.pivots as f64),
        ("mip_nodes", s.mip_nodes as f64),
        ("refactorizations", s.refactorizations as f64),
        ("etas", s.etas as f64),
        ("fill_in", s.fill_in as f64),
        ("refinements", s.refinements as f64),
        ("dense_fallbacks", s.dense_fallbacks as f64),
        ("suspect_solves", s.suspect_solves as f64),
        ("condition", s.max_condition_estimate),
    ] {
        samples.push(key, value);
    }
    if let Some(e) = &d.enumeration {
        samples.push("core.scenario.visited", e.visited as f64);
        samples.push("core.scenario.pruned", e.scenarios_pruned as f64);
    }
    if let Some(set) = d.policy.as_ref().and_then(|p| p.scenarios.as_ref()) {
        samples.push("core.scenario.scenarios", set.len() as f64);
        samples.push("core.scenario.enumerated_mass", set.covered_mass());
    }
    if let Some(c) = &d.controller {
        samples.push(
            "sim.prepared",
            f64::from(u8::from(c.prepared_before_cut == Some(true))),
        );
    }
    if let Some(sim) = &d.sim {
        record_sim(sim, samples);
    }
}

/// Controller stages from its own run report: the `epoch` root span and
/// its direct children.
fn record_sim(report: &RunReport, samples: &mut Samples) {
    fn nodes(spans: &[prete_obs::SpanNode]) -> usize {
        spans.iter().map(|s| 1 + nodes(&s.children)).sum()
    }
    samples.push("sim.spans", nodes(&report.spans) as f64);
    let Some(epoch) = report.spans.iter().find(|s| s.name == "epoch") else {
        return;
    };
    samples.push("sim.epoch_ms", epoch.duration_ms);
    let child = |name: &str| {
        epoch
            .children
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.duration_ms)
            .sum::<f64>()
    };
    for (key, name) in [
        ("sim.detect_ms", "detect"),
        ("sim.predict_ms", "predict"),
        ("sim.tunnel_ms", "tunnel"),
        ("sim.solve_ms", "solve"),
    ] {
        samples.push(key, child(name));
    }
    let children: f64 = epoch.children.iter().map(|c| c.duration_ms).sum();
    samples.push("sim.epoch_self_ms", epoch.duration_ms - children);
}

fn per_layer(
    epochs: &[Epoch],
    tracer: &Tracer,
    samples: &Samples,
    setup: &SetupBreakdown,
) -> Vec<(&'static str, &'static str, f64)> {
    let traced_ms: Vec<f64> = epochs.iter().filter(|e| e.traced).map(|e| e.ms).collect();
    let all_ms: Vec<f64> = epochs.iter().map(|e| e.ms).collect();
    // Per input, traced over untraced median: pairing like with like
    // keeps the inputs' own spread out of the overhead.
    let slots = epochs.iter().map(|e| e.slot + 1).max().unwrap_or(0);
    let traced_over_untraced: Vec<f64> = (0..slots)
        .filter_map(|slot| {
            let of = |traced: bool| -> Vec<f64> {
                epochs
                    .iter()
                    .filter(|e| e.slot == slot && e.traced == traced)
                    .map(|e| e.ms)
                    .collect()
            };
            let (t, u) = (of(true), of(false));
            (!t.is_empty() && !u.is_empty()).then(|| median(&t) / median(&u))
        })
        .collect();
    let n = traced_ms.len().max(1) as f64;
    let span_p50 = |name: &str| median(&tracer.durations_ms(name));
    let p50 = |key: &str| median(samples.get(key));
    let per_epoch = |key: &str| samples.get(key).iter().sum::<f64>() / n;
    let total = |key: &str| samples.get(key).iter().sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let harness_self: Vec<f64> = tracer
        .spans()
        .iter()
        .zip(self_times_ms(tracer.spans()))
        .filter(|(s, _)| s.name == "epoch")
        .map(|(_, self_ms)| self_ms * 1e3)
        .collect();

    let value = |name: &str| -> f64 {
        match name {
            "topology.generate_ms" => setup.generate_ms,
            "topology.tunnels_init_ms" => setup.tunnels_init_ms,
            "topology.ground_truth_ms" => setup.ground_truth_ms,
            "topology.flows_total" => setup.flows_total as f64,
            "topology.tunnels_total" => setup.tunnels_total as f64,
            "optical.detect_us_p50" => 1e3 * span_p50("optical.detect"),
            "optical.samples_per_epoch" => per_epoch("optical.samples"),
            "nn.train_s" => setup.train_s,
            "nn.predict_us_p50" => 1e3 * span_p50("nn.predict"),
            "core.estimator.probabilities_us_p50" => 1e3 * span_p50("core.estimator.probabilities"),
            "core.algorithm1.update_ms_p50" => span_p50("core.algorithm1.update_tunnels"),
            "core.algorithm1.new_tunnels_per_epoch" => per_epoch("core.algorithm1.new_tunnels"),
            "core.schemes.plan_ms_p50" => span_p50("core.schemes.plan"),
            "core.scenario.enumerate_ms_p50" => span_p50("core.scenario.enumerate"),
            "core.scenario.scenarios_per_epoch" => per_epoch("core.scenario.scenarios"),
            "core.scenario.visited_per_epoch" => per_epoch("core.scenario.visited"),
            "core.scenario.pruned_per_epoch" => per_epoch("core.scenario.pruned"),
            "core.scenario.enumerated_mass_mean" => {
                mean(samples.get("core.scenario.enumerated_mass"))
            }
            "core.optimizer.problem_build_ms_p50" => span_p50("core.optimizer.problem_build"),
            "core.optimizer.solve_ms_p50" => p50("solve_ms"),
            "core.optimizer.subproblem_ms_p50" => p50("subproblem_ms"),
            "core.optimizer.master_ms_p50" => p50("master_ms"),
            "core.optimizer.polish_ms_p50" => p50("polish_ms"),
            "core.optimizer.self_ms_p50" => p50("self_ms"),
            "core.optimizer.lp_solves_per_epoch" => per_epoch("lp_solves"),
            "core.optimizer.benders_iters_per_epoch" => per_epoch("benders_iters"),
            "core.optimizer.cuts_added_per_epoch" => per_epoch("cuts_added"),
            "core.optimizer.rhs_resolves_per_epoch" => per_epoch("rhs_resolves"),
            "core.optimizer.benders_converged_share" => per_epoch("converged"),
            "core.optimizer.warm_hit_rate" => ratio(
                total("warm_hits"),
                total("warm_hits") + total("warm_misses"),
            ),
            "core.optimizer.cache_evictions_per_epoch" => per_epoch("cache_evictions"),
            "core.optimizer.work_units_per_epoch" => per_epoch("work_units"),
            "lp.pivots_per_epoch" => per_epoch("pivots"),
            "lp.mip_nodes_per_epoch" => per_epoch("mip_nodes"),
            "lp.refactorizations_per_epoch" => per_epoch("refactorizations"),
            "lp.etas_per_epoch" => per_epoch("etas"),
            "lp.fill_in_per_epoch" => per_epoch("fill_in"),
            "lp.refinements_per_epoch" => per_epoch("refinements"),
            "lp.dense_fallbacks_per_epoch" => per_epoch("dense_fallbacks"),
            "lp.suspect_solves_per_epoch" => per_epoch("suspect_solves"),
            "lp.max_condition_estimate" => {
                samples.get("condition").iter().copied().fold(0.0, f64::max)
            }
            "lp.us_per_pivot" => {
                1e3 * ratio(total("subproblem_ms") + total("polish_ms"), total("pivots"))
            }
            "lp.us_per_mip_node" => 1e3 * ratio(total("master_ms"), total("mip_nodes")),
            "sim.epoch_ms_p50" => p50("sim.epoch_ms"),
            "sim.detect_ms_p50" => p50("sim.detect_ms"),
            "sim.predict_ms_p50" => p50("sim.predict_ms"),
            "sim.tunnel_ms_p50" => p50("sim.tunnel_ms"),
            "sim.solve_ms_p50" => p50("sim.solve_ms"),
            "sim.epoch_self_ms_p50" => p50("sim.epoch_self_ms"),
            "sim.prepared_before_cut_share" => per_epoch("sim.prepared"),
            "obs.trace_overhead_pct" => 100.0 * (median(&traced_over_untraced) - 1.0),
            "obs.spans_per_epoch" => tracer.spans().len() as f64 / n + per_epoch("sim.spans"),
            "obs.harness_self_us_p50" => median(&harness_self),
            "obs.epochs_traced" => traced_ms.len() as f64,
            "obs.epoch_ms_tail" => {
                tail_percentile(epochs.len()).map_or(0.0, |pct| percentile(&all_ms, pct))
            }
            "obs.epoch_tail_pct" => tail_percentile(epochs.len()).map_or(0.0, f64::from),
            other => unreachable!("per-layer metric {other} has no definition"),
        }
    };
    PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect()
}

fn epoch_json(id: u32, slot: usize, ms: f64, d: &Decision) -> Value {
    let s = &d.stats;
    Value::Map(vec![
        ("epoch".into(), Value::Int(i64::from(id))),
        ("slot".into(), Value::Int(slot as i64)),
        ("epoch_ms".into(), Value::Float(ms)),
        ("phi".into(), Value::Float(d.phi)),
        ("solve_ms".into(), Value::Float(s.total_ms)),
        ("subproblem_ms".into(), Value::Float(s.subproblem_ms)),
        ("master_ms".into(), Value::Float(s.master_ms)),
        ("polish_ms".into(), Value::Float(s.polish_ms)),
        ("pivots".into(), Value::Int(s.pivots as i64)),
        ("mip_nodes".into(), Value::Int(s.mip_nodes as i64)),
        ("benders_iters".into(), Value::Int(s.benders_iters as i64)),
        ("warm_hits".into(), Value::Int(s.warm_hits as i64)),
        ("warm_misses".into(), Value::Int(s.warm_misses as i64)),
    ])
}

/// Writes `out/run-<workload>-trace<0|1>.json` (every epoch sample and
/// the metrics) and, traced, `out/trace-<workload>.json` (the spans).
/// Results are a by-product: a write error is reported, not fatal.
fn write_files(
    args: &RunArgs,
    outcome: &Outcome,
    epochs: &[Epoch],
    tracer: &Tracer,
    stats_log: Vec<Value>,
) {
    let dir = out_dir();
    let name = args.workload.name;
    let write = |file: String, doc: Value| {
        let path = dir.join(file);
        let text = serde_json::to_string_pretty(&doc).expect("a Value serializes");
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    };
    let samples = epochs
        .iter()
        .map(|e| {
            Value::Map(vec![
                ("pass".into(), Value::Int(e.pass as i64)),
                ("slot".into(), Value::Int(e.slot as i64)),
                ("traced".into(), Value::Bool(e.traced)),
                ("epoch_ms".into(), Value::Float(e.ms)),
                ("phi".into(), Value::Float(e.phi)),
                ("flow_loss".into(), Value::Float(e.flow_loss)),
            ])
        })
        .collect();
    let header = |rest: Vec<(String, Value)>| {
        let mut doc = vec![
            ("workload".to_string(), Value::Str(name.into())),
            ("seed".to_string(), Value::UInt(args.seed)),
        ];
        doc.extend(rest);
        Value::Map(doc)
    };
    write(
        format!("run-{name}-trace{}.json", u8::from(args.trace)),
        header(vec![
            ("seconds".into(), Value::Float(args.seconds)),
            ("result".into(), outcome.to_json()),
            (
                "failures".into(),
                Value::Seq(
                    outcome
                        .failures
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("epochs".into(), Value::Seq(samples)),
        ]),
    );
    if args.trace {
        write(
            format!("trace-{name}.json"),
            header(vec![
                ("spans".into(), tracer.to_json()),
                ("epochs".into(), Value::Seq(stats_log)),
            ]),
        );
    }
}
