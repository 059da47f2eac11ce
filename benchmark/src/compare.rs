//! `compare OLD.json NEW.json`: the regression gate for later PRs. One
//! row per (workload, end-to-end metric) with base, new, ratio and a
//! verdict; non-zero exit on any "worse" or on more failed epochs.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The two sides' own run-to-run spread exceeds the bound and their
    /// runs overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `new` is worse than `old`, as a share of `old` (negative
/// when it is better).
fn worsening(old: f64, new: f64, better: Better) -> f64 {
    let change = (new - old) / old.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Verdict for one metric from each side's per-run values.
pub fn verdict(metric: &EndToEnd, old: &[f64], new: &[f64]) -> Verdict {
    let worse_by = worsening(median(old), median(new), metric.better);
    let noisy = [old, new]
        .iter()
        .filter_map(|runs| quartile_spread(runs))
        .any(|spread| spread > metric.bound);
    if noisy {
        // Only a clean separation of every run survives noise this wide.
        let all = |pred: fn(f64) -> bool| {
            old.iter()
                .all(|&o| new.iter().all(|&n| pred(worsening(o, n, metric.better))))
        };
        return if all(|w| w < 0.0) {
            Verdict::Better
        } else if all(|w| w > 0.0) && worse_by > metric.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// A JSON number of any flavour as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// One side's per-run values of a metric on a workload.
fn runs(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let Value::Seq(items) = entry.get("runs")? else {
        return None;
    };
    let values: Vec<f64> = items.iter().filter_map(number).collect();
    (!values.is_empty()).then_some(values)
}

fn failed(doc: &Value, workload: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(number)
        .unwrap_or(0.0)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the table; `Ok(true)` when nothing regressed.
pub fn compare(old_path: &str, new_path: &str) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    let mut ok = true;
    let mut rows = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(o), Some(n)) = (runs(&old, w.name, m.name), runs(&new, w.name, m.name))
            else {
                continue;
            };
            let v = verdict(m, &o, &n);
            ok &= v != Verdict::Worse;
            rows += 1;
            let (base, now) = (median(&o), median(&n));
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>8.4}  {} ({} {}, n = {}/{})",
                w.name,
                m.name,
                base,
                now,
                now / base,
                v.as_str(),
                m.unit,
                m.better.as_str(),
                o.len(),
                n.len()
            );
        }
        let (fo, fn_) = (failed(&old, w.name), failed(&new, w.name));
        if fn_ > fo {
            ok = false;
            println!("{:<16} failed epochs rose from {fo} to {fn_}", w.name);
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a registered metric")
    }

    #[test]
    fn lower_is_better_verdicts() {
        let m = metric("epoch_ms_p50"); // bound 25 %
        assert_eq!(verdict(m, &[100.0], &[110.0]), Verdict::WithinBound);
        assert_eq!(verdict(m, &[100.0], &[90.0]), Verdict::WithinBound);
        assert_eq!(verdict(m, &[100.0], &[130.0]), Verdict::Worse);
        assert_eq!(verdict(m, &[100.0], &[70.0]), Verdict::Better);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let m = metric("epochs_per_s");
        assert_eq!(verdict(m, &[2.0], &[2.6]), Verdict::Better);
        assert_eq!(verdict(m, &[2.0], &[1.4]), Verdict::Worse);
        assert_eq!(verdict(m, &[2.0], &[1.9]), Verdict::WithinBound);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_runs_separate_cleanly() {
        let m = metric("epoch_ms_p50");
        let noisy_old = [80.0, 100.0, 120.0, 140.0];
        // Overlapping runs: a 5 % shift inside a 45 % spread says nothing.
        assert_eq!(
            verdict(m, &noisy_old, &[85.0, 105.0, 125.0, 145.0]),
            Verdict::Unresolved
        );
        // Every new run beats every old run: better despite the spread.
        assert_eq!(
            verdict(m, &noisy_old, &[40.0, 50.0, 60.0, 70.0]),
            Verdict::Better
        );
        // Every new run loses to every old run, by more than the bound.
        assert_eq!(
            verdict(m, &noisy_old, &[200.0, 220.0, 260.0, 300.0]),
            Verdict::Worse
        );
        // Tight runs on both sides resolve normally.
        assert_eq!(
            verdict(m, &[99.0, 100.0, 101.0], &[129.0, 130.0, 131.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn reads_runs_from_a_results_document() {
        let doc = serde_json::parse(
            r#"{"workloads":{"react-twan":{"failed":0,"end_to_end":{"epoch_ms_p50":{"unit":"ms","median":2.0,"runs":[1.0,2,3.5]}}}}}"#,
        )
        .unwrap();
        assert_eq!(
            runs(&doc, "react-twan", "epoch_ms_p50"),
            Some(vec![1.0, 2.0, 3.5])
        );
        assert_eq!(runs(&doc, "react-twan", "setup_s"), None);
        assert_eq!(runs(&doc, "steady-twan", "epoch_ms_p50"), None);
        assert_eq!(failed(&doc, "react-twan"), 0.0);
    }
}
