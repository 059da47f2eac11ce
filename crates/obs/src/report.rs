//! The machine-readable run report: span tree, metric snapshots and
//! the event log, exported as JSON per replay.

use crate::metrics::HistogramSnapshot;
use serde::Serialize;
use std::collections::BTreeMap;

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanNode {
    /// Span name ("epoch", "detect", "solve", …).
    pub name: String,
    /// Start timestamp from the recorder's clock (ms).
    pub start_ms: f64,
    /// Duration (ms); 0 for spans still open at snapshot time.
    pub duration_ms: f64,
    /// Nested child spans, in start order.
    pub children: Vec<SpanNode>,
}

/// One structured event ("degradation-detected", "warm-start", …).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Event {
    /// Timestamp from the recorder's clock (ms).
    pub at_ms: f64,
    /// Event kind (stable, kebab-case vocabulary).
    pub kind: String,
    /// Free-form detail for humans and diffing.
    pub detail: String,
}

/// Snapshot of everything a [`Recorder`](crate::Recorder) collected.
///
/// Serialization order is deterministic (metric maps are `BTreeMap`s,
/// spans and events are chronological), so two replays under a
/// deterministic clock serialize to byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct RunReport {
    /// Whether the recorder's clock was deterministic (logical) —
    /// reports taken under a monotonic clock are *not* expected to be
    /// replay-identical.
    pub deterministic: bool,
    /// Root spans in start order (one per epoch, typically).
    pub spans: Vec<SpanNode>,
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms with ladder percentiles.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Bounded structured event log, chronological.
    pub events: Vec<Event>,
    /// Events dropped after the log filled up.
    pub dropped_events: u64,
}

/// One row of the stage-attribution table: a direct child of the root
/// span aggregated across all roots of that name.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageRow {
    /// Child span name.
    pub stage: String,
    /// Number of spans aggregated.
    pub calls: u64,
    /// Total duration across calls (ms).
    pub total_ms: f64,
    /// Share of the aggregated root duration, in percent.
    pub share_pct: f64,
}

impl RunReport {
    /// Compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("run report serializes")
    }

    /// Aggregates the direct children of every root span named `root`
    /// into a stage-attribution table, ordered by first appearance.
    /// Share is relative to the summed root durations.
    pub fn stage_attribution(&self, root: &str) -> Vec<StageRow> {
        let mut order: Vec<String> = Vec::new();
        let mut acc: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        let mut root_total = 0.0;
        for r in self.spans.iter().filter(|s| s.name == root) {
            root_total += r.duration_ms;
            for c in &r.children {
                if !acc.contains_key(&c.name) {
                    order.push(c.name.clone());
                }
                let e = acc.entry(c.name.clone()).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += c.duration_ms;
            }
        }
        order
            .into_iter()
            .map(|stage| {
                let (calls, total_ms) = acc[&stage];
                StageRow {
                    stage,
                    calls,
                    total_ms,
                    share_pct: if root_total > 0.0 { 100.0 * total_ms / root_total } else { 0.0 },
                }
            })
            .collect()
    }

    /// All span names present in the tree (depth-first, deduplicated) —
    /// convenient for asserting pipeline coverage in tests.
    pub fn span_names(&self) -> Vec<String> {
        fn walk(nodes: &[SpanNode], out: &mut Vec<String>) {
            for n in nodes {
                if !out.contains(&n.name) {
                    out.push(n.name.clone());
                }
                walk(&n.children, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.spans, &mut out);
        out
    }

    /// Events of a given kind, chronological.
    pub fn events_of_kind(&self, kind: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, start: f64, dur: f64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode { name: name.into(), start_ms: start, duration_ms: dur, children }
    }

    fn two_epoch_report() -> RunReport {
        RunReport {
            spans: vec![
                node(
                    "epoch",
                    0.0,
                    10.0,
                    vec![node("detect", 0.0, 4.0, vec![]), node("solve", 4.0, 6.0, vec![])],
                ),
                node(
                    "epoch",
                    10.0,
                    10.0,
                    vec![node("detect", 10.0, 2.0, vec![]), node("solve", 12.0, 8.0, vec![])],
                ),
            ],
            ..RunReport::default()
        }
    }

    #[test]
    fn stage_attribution_aggregates_across_roots() {
        let rows = two_epoch_report().stage_attribution("epoch");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, "detect");
        assert_eq!(rows[0].calls, 2);
        assert!((rows[0].total_ms - 6.0).abs() < 1e-12);
        assert!((rows[0].share_pct - 30.0).abs() < 1e-9);
        assert!((rows[1].share_pct - 70.0).abs() < 1e-9);
    }

    #[test]
    fn span_names_walks_depth_first() {
        let names = two_epoch_report().span_names();
        assert_eq!(names, vec!["epoch".to_string(), "detect".into(), "solve".into()]);
    }

    #[test]
    fn report_serializes_to_json() {
        let j = two_epoch_report().to_json();
        assert!(j.contains("\"spans\""));
        assert!(j.contains("\"epoch\""));
        // Two identical reports give identical JSON.
        assert_eq!(j, two_epoch_report().to_json());
    }
}
