//! `chaos_soak` — crash/restart chaos soak over a fleet of durable
//! controllers.
//!
//! ```text
//! Usage: chaos_soak [--tenants N] [--seeds A,B,C] [--epochs N]
//!                   [--crash-prob P] [--checkpoint-every N] [--out FILE]
//! ```
//!
//! Runs one seeded chaos soak per seed: `--tenants` controllers
//! (default 1, the single-controller soak) on a B4/IBM topology mix,
//! each with its own failure model, flows and seed stream, are driven
//! by the multi-tenant fleet runtime while each is killed and rebuilt
//! at random epochs (sometimes mid-solve, sometimes with a corrupted
//! checkpoint or a truncated journal). Every epoch is checked against
//! the chaos invariants — availability floor, finite allocations,
//! span-tree well-formedness, bit-identity with an uninterrupted solo
//! run, monotone warm-cache counters — and the fleet against
//! cross-tenant isolation: every surviving tenant must stay
//! bit-identical to its solo run.
//!
//! All soak reports are written to `--out` (default `CHAOS_SOAK.json`).
//! On a violation the report embeds the minimized repro — the smallest
//! `(seed, tenant, epoch, event)` tuple that still reproduces it — and
//! the binary exits non-zero so CI fails loudly with the artifact
//! attached.

use prete_bench::chaos::{fleet_soak_over, mixed_tenant_leaves, render_fleet_soak};
use prete_sim::{FleetChaosPlan, FleetConfig};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seeds: Vec<u64> = flag("--seeds")
        .unwrap_or_else(|| "42,1729,31337".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--seeds takes comma-separated integers"))
        .collect();
    let epochs: u64 = flag("--epochs")
        .map(|v| v.parse().expect("--epochs takes an integer"))
        .unwrap_or(50);
    let crash_prob: f64 = flag("--crash-prob")
        .map(|v| v.parse().expect("--crash-prob takes a number"))
        .unwrap_or(0.35);
    let checkpoint_every: u64 = flag("--checkpoint-every")
        .map(|v| v.parse().expect("--checkpoint-every takes an integer"))
        .unwrap_or(5);
    let out = flag("--out").unwrap_or_else(|| "CHAOS_SOAK.json".into());
    let tenants: usize = flag("--tenants")
        .map(|v| v.parse().expect("--tenants takes an integer"))
        .unwrap_or(1);

    let mut reports = Vec::new();
    let mut violated = false;
    for &seed in &seeds {
        let plan = FleetChaosPlan { crash_prob, ..FleetChaosPlan::new(seed, epochs) };
        plan.validate().expect("valid chaos plan");
        let leaves = mixed_tenant_leaves(tenants, 0.05, seed);
        let report =
            match fleet_soak_over(&leaves, checkpoint_every, &FleetConfig::default(), &plan) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("chaos soak seed {seed} failed to run: {e:?}");
                    std::process::exit(2);
                }
            };
        print!("{}", render_fleet_soak(&report));
        violated |= report.violation.is_some();
        reports.push(report);
    }

    let json = serde_json::to_string_pretty(&reports).expect("serialize");
    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    println!("  [json → {out}]");

    if violated {
        eprintln!("chaos soak found invariant violations — see {out} for minimized repros");
        std::process::exit(1);
    }
}
