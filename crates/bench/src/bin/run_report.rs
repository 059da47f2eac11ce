//! `run_report` — instrumented controller replay on the WAN topology.
//!
//! ```text
//! Usage: run_report [--epochs N] [--out FILE] [--max-overhead-pct X]
//!                   [--overhead-epochs N] [--overhead-reps N]
//! ```
//!
//! Replays N degradation→cut traces through the full controller with a
//! deterministic recorder attached, prints the stage-attribution and
//! histogram tables, and writes the complete run report (span tree,
//! counters, histograms, event log) to `RUN_REPORT.json`. The JSON is
//! byte-identical across runs of the same build — diff two artifacts to
//! spot behavioural drift.
//!
//! With `--max-overhead-pct X` the binary re-times the same workload
//! with instrumentation on (live clock) and off (no-op recorder) and
//! exits non-zero when the relative overhead exceeds `X` percent —
//! CI's guarantee that the telemetry layer stays cheap. The overhead
//! pass uses its own (smaller) epoch count and best-of repetition
//! count so the gate stays inside the CI budget.

use prete_bench::obs::{overhead_wan, render_report, run_report_wan};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let epochs: usize = flag("--epochs")
        .map(|v| v.parse().expect("--epochs takes an integer"))
        .unwrap_or(6);
    let out = flag("--out").unwrap_or_else(|| "RUN_REPORT.json".into());

    let run = run_report_wan(epochs);
    print!("{}", render_report(&run));

    let json = serde_json::to_string_pretty(&run).expect("serialize");
    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    println!("  [json → {out}]");

    if let Some(max) = flag("--max-overhead-pct") {
        let max: f64 = max.parse().expect("--max-overhead-pct takes a number");
        let oh_epochs: usize = flag("--overhead-epochs")
            .map(|v| v.parse().expect("--overhead-epochs takes an integer"))
            .unwrap_or_else(|| epochs.min(2));
        let reps: usize = flag("--overhead-reps")
            .map(|v| v.parse().expect("--overhead-reps takes an integer"))
            .unwrap_or(2);
        let o = overhead_wan(oh_epochs, reps);
        println!(
            "Instrumentation overhead: {:.1} ms on vs {:.1} ms off = {:+.2} % (gate {max} %)",
            o.instrumented_ms, o.baseline_ms, o.overhead_pct
        );
        if o.overhead_pct > max {
            eprintln!(
                "instrumentation overhead {:.2} % above allowed {max} %",
                o.overhead_pct
            );
            std::process::exit(1);
        }
    }
}
