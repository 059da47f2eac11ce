//! The harness's own tracer: an in-memory span around each call the
//! benchmark makes into a layer, written out when the workload ends.
//!
//! Spans are recorded from outside the program — around its public
//! functions — so the traced run needs no change to the code it measures.

use serde_json::Value;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name of the call (`core.optimizer.solve`, …).
    pub name: &'static str,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Epoch the span belongs to (shared by every span of one decision).
    pub epoch: u32,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder. Disabled (the untraced run) it records nothing and
/// never reads the clock.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    epoch: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            epoch: 0,
        }
    }

    /// Switches recording on or off (traced runs alternate passes).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new epoch: later spans carry its id. Spans left open by
    /// an epoch that panicked are abandoned.
    pub fn begin_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
        self.stack.clear();
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_us = self.now_us();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            epoch: self.epoch,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx].end_us = self.now_us();
            while let Some(top) = self.stack.pop() {
                if top == idx {
                    break;
                }
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span with the given name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        let selfs = self_times_ms(&self.spans);
        Value::Seq(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ms)| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("epoch".into(), Value::Int(i64::from(s.epoch))),
                        ("start_us".into(), Value::Float(s.start_us)),
                        ("end_us".into(), Value::Float(s.end_us)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                        ),
                        ("self_ms".into(), Value::Float(self_ms)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span: its duration minus what its direct children
/// cover (children of one span never overlap — one thread, closed loop).
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(Span::duration_ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.duration_ms();
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start * 1e3,
            end_us: end * 1e3,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // epoch 0–100 ms ⊃ build 10–30, solve 30–90 ⊃ polish 40–80.
        let spans = vec![
            span("epoch", 0.0, 100.0, None),
            span("build", 10.0, 30.0, Some(0)),
            span("solve", 30.0, 90.0, Some(0)),
            span("polish", 40.0, 80.0, Some(2)),
        ];
        let selfs = self_times_ms(&spans);
        let want = [20.0, 20.0, 20.0, 40.0];
        for (got, want) in selfs.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{selfs:?}");
        }
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new();
        let o = tr.open("off");
        tr.close(o);
        assert!(tr.spans().is_empty());

        tr.set_enabled(true);
        tr.begin_epoch(7);
        let outer = tr.open("outer");
        let inner = tr.open("inner");
        tr.close(inner);
        tr.close(outer);
        let after = tr.open("after");
        tr.close(after);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|x| x.epoch == 7 && x.end_us >= x.start_us));
        assert!(s[0].duration_ms() >= s[1].duration_ms());
    }

    #[test]
    fn abandoned_spans_do_not_adopt_the_next_epoch() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin_epoch(0);
        let _left_open_by_a_panic = tr.open("epoch");
        tr.begin_epoch(1);
        let o = tr.open("epoch");
        tr.close(o);
        assert_eq!(tr.spans()[1].parent, None);
    }
}
