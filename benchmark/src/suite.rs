//! `run`: every workload, untraced for the end-to-end metrics and once
//! more traced for the per-layer ones — each run a child process of its
//! own, so `peak_rss_mb` is the workload's and nothing carries over.

use crate::compare::number;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::runner::out_dir;
use crate::stats::{median, quartiles};
use crate::workloads::WorkloadDef;
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    pub workloads: Vec<&'static WorkloadDef>,
    pub seed: u64,
    pub seconds: f64,
    /// Untraced runs per workload; above one, results carry quartiles and
    /// `compare` can tell noise from change.
    pub repeat: usize,
    pub out: Option<PathBuf>,
}

/// One child run's parsed result line.
struct ChildResult {
    attempted: i64,
    failed: i64,
    metrics: Vec<(String, f64)>,
}

fn child(workload: &str, seed: u64, mode: &[String], trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(mode)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} run printed nothing"))?;
    let doc = serde_json::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    let int = |key: &str| match doc.get(key) {
        Some(Value::Int(i)) => Ok(*i),
        other => Err(format!("{workload}: `{key}` is {other:?}")),
    };
    let Some(Value::Map(entries)) = doc.get("metrics") else {
        return Err(format!("{workload}: no metrics in the result line"));
    };
    let metrics = entries
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(number);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        attempted: int("attempted")?,
        failed: int("failed")?,
        metrics,
    })
}

fn machine() -> Value {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Map(vec![
        ("nproc".into(), Value::Int(nproc as i64)),
        ("rustc".into(), Value::Str(rustc)),
        ("os".into(), Value::Str(std::env::consts::OS.into())),
        ("arch".into(), Value::Str(std::env::consts::ARCH.into())),
    ])
}

pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let timed = vec!["--seconds".to_string(), args.seconds.to_string()];
    let mut workloads_json = Vec::new();
    let mut clean = true;
    for w in &args.workloads {
        println!("== {} — {}", w.name, w.why);
        let mut untraced = Vec::new();
        for _ in 0..args.repeat {
            untraced.push(child(w.name, args.seed, &timed, false)?);
        }
        let traced = child(w.name, args.seed, &timed, true)?;

        let attempted: i64 = untraced.iter().map(|r| r.attempted).sum();
        let failed: i64 = untraced.iter().map(|r| r.failed).sum::<i64>() + traced.failed;
        clean &= failed == 0;
        println!(
            "   epochs attempted {attempted} over {} untraced run(s), {} in the traced run; failed {failed} (failed_share {:.4})",
            args.repeat,
            traced.attempted,
            failed as f64 / (attempted + traced.attempted) as f64
        );

        let mut e2e_json = Vec::new();
        for m in &END_TO_END {
            let runs: Vec<f64> = untraced
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            let med = median(&runs);
            let spread = quartiles(&runs).map_or(String::new(), |(q1, q3)| {
                format!("  [q1 {q1:.6}, q3 {q3:.6}]")
            });
            println!("   {:<44} {:>16.6} {:<6}{spread}", m.name, med, m.unit);
            e2e_json.push((
                m.name.to_string(),
                Value::Map(vec![
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("median".into(), Value::Float(med)),
                    (
                        "runs".into(),
                        Value::Seq(runs.into_iter().map(Value::Float).collect()),
                    ),
                ]),
            ));
        }
        let mut layer_json = Vec::new();
        for m in &PER_LAYER {
            let value = traced
                .metrics
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(0.0, |(_, v)| *v);
            println!("   {:<44} {:>16.6} {:<6}", m.name, value, m.unit);
            layer_json.push((
                m.name.to_string(),
                Value::Map(vec![
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("value".into(), Value::Float(value)),
                ]),
            ));
        }
        workloads_json.push((
            w.name.to_string(),
            Value::Map(vec![
                ("attempted".into(), Value::Int(attempted + traced.attempted)),
                ("failed".into(), Value::Int(failed)),
                ("end_to_end".into(), Value::Map(e2e_json)),
                ("per_layer".into(), Value::Map(layer_json)),
            ]),
        ));
    }

    let doc = Value::Map(vec![
        ("machine".into(), machine()),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("repeat".into(), Value::Int(args.repeat as i64)),
        ("workloads".into(), Value::Map(workloads_json)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&doc).expect("a Value serializes");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(clean)
}

/// `run --check-determinism`: each workload twice at the same seed over
/// one pass, traced and untraced; every count metric and both quality
/// metrics must be identical.
pub fn check_determinism(workloads: &[&'static WorkloadDef], seed: u64) -> Result<bool, String> {
    let one_pass = vec!["--passes".to_string(), "1".to_string()];
    let mut same = true;
    for w in workloads {
        let mut differing = Vec::new();
        for trace in [true, false] {
            let (a, b) = (
                child(w.name, seed, &one_pass, trace)?,
                child(w.name, seed, &one_pass, trace)?,
            );
            let exact: Vec<&str> = if trace {
                PER_LAYER
                    .iter()
                    .filter(|m| m.exact)
                    .map(|m| m.name)
                    .collect()
            } else {
                vec!["served_share_phi", "served_share_flows"]
            };
            for name in exact {
                let get = |r: &ChildResult| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| v.to_bits())
                };
                if get(&a) != get(&b) || get(&a).is_none() {
                    differing.push(name);
                }
            }
            if (a.attempted, a.failed) != (b.attempted, b.failed) || a.failed > 0 {
                differing.push("attempted/failed");
            }
        }
        if differing.is_empty() {
            println!(
                "{:<16} deterministic: every count and quality metric repeats exactly",
                w.name
            );
        } else {
            same = false;
            println!("{:<16} NOT deterministic: {}", w.name, differing.join(", "));
        }
    }
    Ok(same)
}
