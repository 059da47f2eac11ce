//! `prete-obs` — spans, metrics, events and run reports for the PreTE
//! control loop.
//!
//! The pipeline (optical degradation detection → NN cut prediction →
//! reactive tunnels → TE solve) is instrumented through one cheap
//! [`Recorder`] handle:
//!
//! * **spans** — hierarchical wall-time sections opened with
//!   [`Recorder::span`] and closed on guard drop, assembled into a
//!   span tree per replay;
//! * **metrics** — monotone counters, last-write gauges and
//!   fixed-bucket latency histograms (p50/p95/p99/max);
//! * **events** — a bounded, structured log of pipeline occurrences
//!   (degradation detected, prediction fired, degraded mode entered,
//!   warm-start hit/miss, Benders iteration);
//! * **run reports** — [`RunReport`], a serde_json export of the span
//!   tree plus metric snapshots, rendered human-readably by the
//!   `run_report` binary in `prete-bench`.
//!
//! That is the whole crate: the controller's decision latency (the
//! paper's Fig. 11) is read off the span tree and its histograms, so
//! there is no time-series, SLO, anomaly-detection or export layer.
//!
//! Time is injected via the [`Clock`] trait: [`MonotonicClock`] for
//! live runs, [`LogicalClock`] for replays — under the logical clock a
//! replay's report is a pure function of the work performed, so two
//! replays of the same trace under the same seeds export byte-identical
//! JSON (the repo's bit-for-bit replay contract).
//!
//! The default recorder is disabled: every call is a branch on a
//! `None`, so instrumented hot paths cost ~nothing when observability
//! is off.
//!
//! ```
//! use prete_obs::Recorder;
//!
//! let rec = Recorder::deterministic();
//! {
//!     let _epoch = rec.span("epoch");
//!     let _detect = rec.span("detect");
//!     rec.event("degradation-detected", "fiber 3");
//!     rec.add("detections", 1);
//! }
//! let report = rec.report();
//! assert_eq!(report.spans[0].name, "epoch");
//! assert_eq!(report.spans[0].children[0].name, "detect");
//! assert_eq!(report.counters["detections"], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod report;

pub use clock::{Clock, LogicalClock, MonotonicClock};
pub use metrics::{Histogram, HistogramSnapshot, BUCKET_BOUNDS_MS};
pub use report::{Event, RunReport, SpanNode, StageRow};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Maximum retained events; later emissions only bump
/// [`RunReport::dropped_events`].
pub const MAX_EVENTS: usize = 4096;

#[derive(Debug)]
struct RawSpan {
    name: String,
    start_ms: f64,
    end_ms: Option<f64>,
    parent: Option<usize>,
    children: Vec<usize>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<RawSpan>,
    stack: Vec<usize>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    events: Vec<Event>,
    dropped_events: u64,
}

struct Inner {
    clock: Box<dyn Clock>,
    state: Mutex<State>,
}

/// A cheap, cloneable handle to one run's telemetry.
///
/// The default ([`Recorder::disabled`]) handle is a no-op: every method
/// short-circuits on a `None`, so threading a recorder through hot
/// paths is free when observability is off.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.enabled()).finish()
    }
}

impl Recorder {
    /// The no-op recorder (also `Default`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live recorder stamping real wall time ([`MonotonicClock`]).
    pub fn live() -> Self {
        Self::with_clock(Box::new(MonotonicClock::new()))
    }

    /// A deterministic recorder ([`LogicalClock`], 1 ms per read):
    /// replays of identical work export byte-identical reports.
    pub fn deterministic() -> Self {
        Self::with_clock(Box::<LogicalClock>::default())
    }

    /// A recorder over an arbitrary [`Clock`].
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self { inner: Some(Arc::new(Inner { clock, state: Mutex::new(State::default()) })) }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the underlying clock is deterministic (logical). False
    /// for disabled recorders. Call sites use this to withhold
    /// machine-dependent wall times from replay-identical reports.
    pub fn is_deterministic(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.clock.is_deterministic())
    }

    /// Opens a span; it closes (and records its duration into the
    /// `span.<name>` histogram) when the returned guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { handle: None };
        };
        let now = inner.clock.now_ms();
        let mut st = inner.state.lock().expect("recorder lock");
        let idx = st.spans.len();
        let parent = st.stack.last().copied();
        st.spans.push(RawSpan {
            name: name.to_string(),
            start_ms: now,
            end_ms: None,
            parent,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            st.spans[p].children.push(idx);
        }
        st.stack.push(idx);
        SpanGuard { handle: Some((Arc::clone(inner), idx)) }
    }

    /// Adds `delta` to a monotone counter.
    pub fn add(&self, counter: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("recorder lock");
            *st.counters.entry(counter.to_string()).or_insert(0) += delta;
        }
    }

    /// Sets a gauge (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("recorder lock");
            st.gauges.insert(name.to_string(), value);
        }
    }

    /// Records an observation into a fixed-bucket histogram.
    pub fn observe(&self, histogram: &str, value_ms: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("recorder lock");
            st.histograms.entry(histogram.to_string()).or_default().record(value_ms);
        }
    }

    /// Emits a structured event (bounded; see [`MAX_EVENTS`]).
    pub fn event(&self, kind: &str, detail: &str) {
        self.event_with(kind, || detail.to_string());
    }

    /// Emits an event whose detail is only built when the recorder is
    /// enabled — use for `format!`-heavy call sites.
    pub fn event_with(&self, kind: &str, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            let at_ms = inner.clock.now_ms();
            let mut st = inner.state.lock().expect("recorder lock");
            if st.events.len() >= MAX_EVENTS {
                st.dropped_events += 1;
            } else {
                st.events.push(Event { at_ms, kind: kind.to_string(), detail: detail() });
            }
        }
    }

    /// Snapshots everything recorded so far (open spans report zero
    /// duration; recording may continue afterwards).
    pub fn report(&self) -> RunReport {
        let Some(inner) = &self.inner else {
            return RunReport::default();
        };
        let st = inner.state.lock().expect("recorder lock");
        fn build(st: &State, idx: usize) -> SpanNode {
            let s = &st.spans[idx];
            SpanNode {
                name: s.name.clone(),
                start_ms: s.start_ms,
                duration_ms: s.end_ms.map(|e| e - s.start_ms).unwrap_or(0.0),
                children: s.children.iter().map(|&c| build(st, c)).collect(),
            }
        }
        RunReport {
            deterministic: inner.clock.is_deterministic(),
            spans: (0..st.spans.len())
                .filter(|&i| st.spans[i].parent.is_none())
                .map(|i| build(&st, i))
                .collect(),
            counters: st.counters.clone(),
            gauges: st.gauges.clone(),
            histograms: st.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
            events: st.events.clone(),
            dropped_events: st.dropped_events,
        }
    }
}

/// RAII guard closing a span on drop.
#[must_use = "a span closes when its guard drops — binding to _ closes it immediately"]
pub struct SpanGuard {
    handle: Option<(Arc<Inner>, usize)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, idx)) = self.handle.take() {
            let now = inner.clock.now_ms();
            let mut st = inner.state.lock().expect("recorder lock");
            let (duration, name) = {
                let s = &mut st.spans[idx];
                s.end_ms = Some(now);
                (now - s.start_ms, format!("span.{}", s.name))
            };
            if let Some(pos) = st.stack.iter().rposition(|&i| i == idx) {
                st.stack.remove(pos);
            }
            st.histograms.entry(name).or_default().record(duration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_noop() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        {
            let _s = rec.span("epoch");
            rec.add("c", 1);
            rec.gauge("g", 2.0);
            rec.observe("h", 3.0);
            rec.event("e", "detail");
        }
        let r = rec.report();
        assert_eq!(r, RunReport::default());
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let rec = Recorder::deterministic();
        {
            let _epoch = rec.span("epoch");
            {
                let _d = rec.span("detect");
            }
            {
                let _s = rec.span("solve");
                let _inner = rec.span("subproblem");
            }
        }
        let r = rec.report();
        assert_eq!(r.spans.len(), 1);
        let epoch = &r.spans[0];
        assert_eq!(epoch.name, "epoch");
        let kids: Vec<&str> = epoch.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["detect", "solve"]);
        assert_eq!(epoch.children[1].children[0].name, "subproblem");
        // Parent spans cover their children.
        assert!(epoch.duration_ms >= epoch.children[1].duration_ms);
        // Span durations feed the span.<name> histograms.
        assert_eq!(r.histograms["span.detect"].count, 1);
        assert_eq!(r.histograms["span.epoch"].count, 1);
    }

    #[test]
    fn sibling_roots_form_a_forest() {
        let rec = Recorder::deterministic();
        for _ in 0..3 {
            let _e = rec.span("epoch");
        }
        let r = rec.report();
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.histograms["span.epoch"].count, 3);
    }

    #[test]
    fn counters_gauges_events_round_through_the_report() {
        let rec = Recorder::deterministic();
        rec.add("solver.lp_solves", 2);
        rec.add("solver.lp_solves", 3);
        rec.gauge("beta", 0.99);
        rec.gauge("beta", 0.999);
        rec.event("warm-start", "hit");
        rec.event_with("benders-iteration", || "ub=0.5".to_string());
        let r = rec.report();
        assert_eq!(r.counters["solver.lp_solves"], 5);
        assert_eq!(r.gauges["beta"], 0.999);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events_of_kind("warm-start")[0].detail, "hit");
    }

    #[test]
    fn event_log_is_bounded() {
        let rec = Recorder::deterministic();
        for i in 0..(MAX_EVENTS + 10) {
            rec.event_with("e", || i.to_string());
        }
        let r = rec.report();
        assert_eq!(r.events.len(), MAX_EVENTS);
        assert_eq!(r.dropped_events, 10);
    }

    #[test]
    fn identical_call_sequences_export_identical_json() {
        let run = || {
            let rec = Recorder::deterministic();
            {
                let _e = rec.span("epoch");
                let _d = rec.span("detect");
                rec.event("degradation-detected", "fiber 0");
                rec.observe("epoch_latency_ms", 12.0);
                rec.add("detections", 1);
            }
            rec.report().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn open_spans_snapshot_with_zero_duration() {
        let rec = Recorder::deterministic();
        let _open = rec.span("epoch");
        let r = rec.report();
        assert_eq!(r.spans[0].duration_ms, 0.0);
    }

    #[test]
    fn report_is_marked_deterministic_only_for_logical_clocks() {
        assert!(Recorder::deterministic().report().deterministic);
        assert!(!Recorder::live().report().deterministic);
    }
}
