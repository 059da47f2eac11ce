//! `telemetry` — streaming-telemetry export for a deterministic
//! multi-tenant fleet run.
//!
//! ```text
//! Usage: telemetry [--tenants N] [--epochs N] [--seed N] [--flow-frac X]
//!                  [--out-prom FILE] [--out-jsonl FILE] [--check-determinism]
//! ```
//!
//! Runs a mixed B4/IBM fleet (every tenant under a lenient SLO
//! tracker) and exports its telemetry snapshot as Prometheus text and
//! JSON lines. With `--check-determinism` the same run repeats and the
//! process exits non-zero unless both exports are byte-identical — the
//! CI smoke invariant.

use prete_bench::telemetry::{export, telemetry_fleet, TelemetryRunConfig};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let defaults = TelemetryRunConfig::default();
    let cfg = TelemetryRunConfig {
        tenants: flag("--tenants")
            .map(|v| v.parse().expect("--tenants takes an integer"))
            .unwrap_or(defaults.tenants),
        epochs: flag("--epochs")
            .map(|v| v.parse().expect("--epochs takes an integer"))
            .unwrap_or(defaults.epochs),
        seed: flag("--seed")
            .map(|v| v.parse().expect("--seed takes an integer"))
            .unwrap_or(defaults.seed),
        flow_frac: flag("--flow-frac")
            .map(|v| v.parse().expect("--flow-frac takes a number"))
            .unwrap_or(defaults.flow_frac),
    };

    let report = telemetry_fleet(&cfg).expect("telemetry fleet runs");
    let exports = export(&report);
    let alerts: usize = report.telemetry.tenants.iter().map(|t| t.alerts.len()).sum();
    let anomalies: usize =
        report.telemetry.tenants.iter().map(|t| t.anomalies.len()).sum();
    println!(
        "Telemetry fleet: {} tenants × {} epochs (seed {}, {} rounds)",
        cfg.tenants, cfg.epochs, cfg.seed, report.rounds
    );
    for t in &report.telemetry.tenants {
        println!(
            "  tenant {}: series={} alerts={} anomalies={}",
            t.tenant,
            t.series.len(),
            t.alerts.len(),
            t.anomalies.len()
        );
    }
    println!(
        "  fleet: series={} alerts={} anomalies={} quarantined={}",
        report.telemetry.fleet.len(),
        alerts,
        anomalies,
        report.quarantined
    );

    if let Some(path) = flag("--out-prom") {
        write_out(&path, &exports.prom);
        println!("  [prometheus → {path}]");
    }
    if let Some(path) = flag("--out-jsonl") {
        write_out(&path, &exports.jsonl);
        println!("  [jsonl → {path}]");
    }

    if args.iter().any(|a| a == "--check-determinism") {
        // Re-run the same configuration: every exported byte must be
        // a pure function of the run's inputs.
        let again = export(&telemetry_fleet(&cfg).expect("repeat fleet runs"));
        if again != exports {
            eprintln!("telemetry exports diverged across two identical runs");
            std::process::exit(1);
        }
        println!("  determinism: exports byte-identical across two identical runs");
    }
}

fn write_out(path: &str, contents: &str) {
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
    f.write_all(contents.as_bytes())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}
