//! Streaming-telemetry experiments behind the `telemetry` binary.
//!
//! [`telemetry_fleet`] drives the same mixed B4/IBM tenant fleet as
//! the fleet chaos soak — every tenant with an SLO tracker attached —
//! for a fixed number of epochs under the deterministic logical clock,
//! and returns the [`FleetReport`] whose embedded
//! [`TelemetrySnapshot`](prete_obs::TelemetrySnapshot) the binary
//! exports as Prometheus text and JSON lines. Because every quantity
//! the snapshot aggregates is a pure function of the run's inputs, the
//! exports are byte-identical across repeat runs and solver thread
//! counts — the binary's `--check-determinism` mode asserts exactly
//! that.

use crate::chaos::{mixed_tenant_leaves, tenant_specs};
use prete_obs::SloSpec;
use prete_sim::{CheckpointError, Fleet, FleetConfig, FleetReport};

/// Shape of one telemetry fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRunConfig {
    /// Tenants in the fleet (alternating B4/IBM topologies).
    pub tenants: usize,
    /// Epochs each tenant completes.
    pub epochs: u64,
    /// Master seed for per-tenant models, flows and seed streams.
    pub seed: u64,
    /// Solver threads (0 = auto). Never affects any exported byte.
    pub threads: usize,
    /// Fraction of node pairs carrying a flow.
    pub flow_frac: f64,
}

impl Default for TelemetryRunConfig {
    fn default() -> Self {
        Self { tenants: 4, epochs: 6, seed: crate::SEED, threads: 0, flow_frac: 0.05 }
    }
}

/// Runs one telemetry fleet: every tenant gets the default (fully
/// lenient) [`SloSpec`], so a clean run exports SLO status with zero
/// alerts — the telemetry-smoke invariant. Returns the fleet report
/// with its embedded telemetry snapshot.
pub fn telemetry_fleet(cfg: &TelemetryRunConfig) -> Result<FleetReport, CheckpointError> {
    let leaves = mixed_tenant_leaves(cfg.tenants, cfg.flow_frac, cfg.seed);
    let specs = tenant_specs(&leaves, 5)
        .into_iter()
        .map(|s| s.with_slo(SloSpec::default()))
        .collect();
    let fleet_cfg = FleetConfig { solver_threads: cfg.threads, ..FleetConfig::default() };
    let mut fleet = Fleet::new(specs, fleet_cfg)?;
    // A clean fleet finishes in exactly `epochs` rounds; the cap
    // guards against a quarantined tenant pinning the loop open.
    for _ in 0..cfg.epochs.saturating_mul(2).saturating_add(4) {
        let pending = (0..fleet.len()).any(|i| {
            fleet.quarantine_reason(i).is_none() && fleet.tenant_epoch(i) < cfg.epochs
        });
        if !pending {
            break;
        }
        fleet.run_round(Some(cfg.epochs))?;
    }
    Ok(fleet.report())
}

/// Both telemetry wire formats for one fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryExport {
    /// Prometheus text exposition.
    pub prom: String,
    /// JSON-lines stream.
    pub jsonl: String,
}

/// Renders a fleet report's telemetry into both wire formats,
/// including the fleet recorder's counters/gauges/histograms.
pub fn export(report: &FleetReport) -> TelemetryExport {
    TelemetryExport {
        prom: report.telemetry.to_prometheus(Some(&report.run)),
        jsonl: report.telemetry.to_jsonl(Some(&report.run)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_fleet_exports_deterministically() {
        let cfg = TelemetryRunConfig { tenants: 2, epochs: 2, ..TelemetryRunConfig::default() };
        let report = telemetry_fleet(&cfg).unwrap();
        assert_eq!(report.telemetry.tenants.len(), 2);
        for t in &report.telemetry.tenants {
            assert!(t.slo.is_some(), "{} missing SLO status", t.tenant);
            assert!(t.alerts.is_empty(), "spurious alerts: {:?}", t.alerts);
            assert!(!t.series.is_empty());
        }
        let e1 = export(&report);
        assert!(e1.prom.contains("prete_ts_count"));
        assert!(e1.jsonl.lines().count() > 0);
        // Byte-identical across a repeat run at a different thread count.
        let e2 = export(&telemetry_fleet(&TelemetryRunConfig { threads: 2, ..cfg }).unwrap());
        assert_eq!(e1, e2);
    }
}
