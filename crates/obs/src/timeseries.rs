//! Fixed-capacity time series with deterministic, mergeable rollups.
//!
//! A [`TimeSeries`] keeps a bounded window of raw `(epoch, value)`
//! points plus a ladder of coarser rollup levels (per-epoch,
//! per-round, windowed) whose aggregates expose count / sum / mean /
//! min / max / p50 / p95 / p99 / rate. Two design rules make the
//! structure safe for fleet use:
//!
//! 1. **Epoch-keyed, not wall-clock-keyed.** Points are indexed by the
//!    controller's logical epoch, so a series produced under the
//!    deterministic [`crate::LogicalClock`] is byte-identical across
//!    repeat runs.
//! 2. **Order-independent merges.** Window sums accumulate as
//!    fixed-point integers (2^20 scale), which are associative and
//!    commutative where floating-point addition is not, and eviction
//!    keeps the top-`capacity` elements under a total order. Merging
//!    per-tenant series in any order therefore yields identical
//!    snapshots — a property the fleet relies on when it folds tenant
//!    telemetry into fleet-wide series.
//!
//! Retention is bounded on every axis (raw points per series, windows
//! per rollup level, series per set), so a long-lived fleet cannot
//! grow telemetry without bound.

use std::collections::BTreeMap;

use serde::Serialize;

/// Fixed-point scale (bits) used for window sums. 2^20 ≈ 1e6 gives
/// sub-microsecond resolution for millisecond-denominated values
/// while leaving ~2^87 of integer headroom in the `i128` accumulator.
const SUM_SCALE_BITS: u32 = 20;

fn to_fixed(v: f64) -> i128 {
    (v * (1u64 << SUM_SCALE_BITS) as f64).round() as i128
}

fn from_fixed(fx: i128) -> f64 {
    fx as f64 / (1u64 << SUM_SCALE_BITS) as f64
}

/// Upper bounds of the window-aggregate bucket ladder: zero, then
/// powers of two from 2^-10 (~1 ms at µs resolution) to 2^30 (~1e9
/// work units), plus one overflow bucket. Powers of two are exact in
/// binary floating point, so bucket assignment never depends on
/// rounding mode.
fn bucket_bounds() -> impl Iterator<Item = f64> {
    std::iter::once(0.0).chain((-10..=30).map(|k| (2.0f64).powi(k)))
}

/// Number of finite bucket bounds in the ladder.
const NUM_BOUNDS: usize = 42;
/// Bucket count including the overflow bucket.
const NUM_BUCKETS: usize = NUM_BOUNDS + 1;

fn bucket_index(v: f64) -> usize {
    bucket_bounds()
        .position(|b| v <= b)
        .unwrap_or(NUM_BOUNDS)
}

/// One raw observation: a value recorded at a logical epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SeriesPoint {
    /// Logical epoch (or round) the value was observed at.
    pub epoch: u64,
    /// Observed value. Non-finite values are dropped at record time.
    pub value: f64,
}

/// Mergeable aggregate over one rollup window.
///
/// The sum is held as a 2^20-scaled fixed-point integer so that
/// merging aggregates in any order produces bit-identical results;
/// it is converted to `f64` only when snapshotted.
#[derive(Debug, Clone)]
pub struct WindowAgg {
    count: u64,
    sum_fx: i128,
    min: f64,
    max: f64,
    counts: [u64; NUM_BUCKETS],
}

impl Default for WindowAgg {
    fn default() -> Self {
        Self {
            count: 0,
            sum_fx: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            counts: [0; NUM_BUCKETS],
        }
    }
}

impl WindowAgg {
    /// Records one observation (non-finite values are dropped).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum_fx += to_fixed(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another aggregate into this one. Commutative and
    /// associative: every field is an integer sum, a min or a max.
    pub fn merge(&mut self, other: &WindowAgg) {
        self.count += other.count;
        self.sum_fx += other.sum_fx;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
    }

    /// Observations folded into this window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile estimate: the upper bound of the bucket containing the
    /// `q`-quantile observation, clamped to the exact maximum.
    fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = bucket_bounds().nth(i).unwrap_or(self.max);
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Serializable view of the aggregate for a window starting at
    /// `start_epoch` spanning `width` epochs.
    pub fn snapshot(&self, start_epoch: u64, width: u64) -> WindowSnapshot {
        let empty = self.count == 0;
        WindowSnapshot {
            start_epoch,
            width,
            count: self.count,
            sum: from_fixed(self.sum_fx),
            mean: if empty {
                0.0
            } else {
                from_fixed(self.sum_fx) / self.count as f64
            },
            min: if empty { 0.0 } else { self.min },
            max: if empty { 0.0 } else { self.max },
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            rate: self.count as f64 / width.max(1) as f64,
        }
    }
}

/// Serializable aggregate for one rollup window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowSnapshot {
    /// First epoch covered by the window (`epoch - epoch % width`).
    pub start_epoch: u64,
    /// Window width in epochs.
    pub width: u64,
    /// Observations in the window.
    pub count: u64,
    /// Sum of observations (fixed-point accumulated, see module docs).
    pub sum: f64,
    /// Mean observation, 0 when empty.
    pub mean: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Median estimate (bucket ladder upper bound, clamped to max).
    pub p50: f64,
    /// 95th percentile estimate.
    pub p95: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// Observations per epoch (`count / width`).
    pub rate: f64,
}

/// Retention and rollup configuration for a [`TimeSeries`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesConfig {
    /// Raw points retained (highest epochs win on overflow).
    pub capacity: usize,
    /// Rollup window widths in epochs, coarsest last. Width 1 keeps
    /// per-epoch aggregates; the fleet maps "round" onto width 8 and
    /// "window" onto width 32 by default.
    pub level_widths: Vec<u64>,
    /// Windows retained per level (highest start epochs win).
    pub windows_per_level: usize,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            level_widths: vec![1, 8, 32],
            windows_per_level: 64,
        }
    }
}

impl SeriesConfig {
    /// Rejects empty/zero configurations that would silently drop
    /// every observation.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("series capacity must be positive".into());
        }
        if self.windows_per_level == 0 {
            return Err("windows_per_level must be positive".into());
        }
        if self.level_widths.is_empty() {
            return Err("at least one rollup level is required".into());
        }
        if self.level_widths.contains(&0) {
            return Err("rollup widths must be positive".into());
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct RollupLevel {
    width: u64,
    /// Window aggregates keyed by window start epoch.
    windows: BTreeMap<u64, WindowAgg>,
}

/// A bounded, mergeable time series (see module docs).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    config: SeriesConfig,
    /// Raw points, sorted by `(epoch, value)` under a total order.
    raw: Vec<SeriesPoint>,
    levels: Vec<RollupLevel>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::new(SeriesConfig::default())
    }
}

impl TimeSeries {
    /// Creates an empty series with the given retention config.
    pub fn new(config: SeriesConfig) -> Self {
        let levels = config
            .level_widths
            .iter()
            .map(|&width| RollupLevel { width, windows: BTreeMap::new() })
            .collect();
        Self { config, raw: Vec::new(), levels }
    }

    /// Total order on points: epoch first, then value (`total_cmp`
    /// so NaN-free floats order deterministically).
    fn point_cmp(a: &SeriesPoint, b: &SeriesPoint) -> std::cmp::Ordering {
        a.epoch.cmp(&b.epoch).then(a.value.total_cmp(&b.value))
    }

    /// Records one observation. Non-finite values are dropped; when
    /// the raw buffer is full the smallest `(epoch, value)` point is
    /// evicted (keep-newest).
    pub fn record(&mut self, epoch: u64, value: f64) {
        if !value.is_finite() {
            return;
        }
        let p = SeriesPoint { epoch, value };
        let at = self
            .raw
            .partition_point(|q| Self::point_cmp(q, &p) != std::cmp::Ordering::Greater);
        self.raw.insert(at, p);
        if self.raw.len() > self.config.capacity {
            let excess = self.raw.len() - self.config.capacity;
            self.raw.drain(..excess);
        }
        for level in &mut self.levels {
            let start = epoch - epoch % level.width;
            level.windows.entry(start).or_default().record(value);
        }
        self.prune_windows();
    }

    fn prune_windows(&mut self) {
        let keep = self.config.windows_per_level;
        for level in &mut self.levels {
            while level.windows.len() > keep {
                let oldest = *level
                    .windows
                    .keys()
                    .next()
                    .expect("non-empty window map");
                level.windows.remove(&oldest);
            }
        }
    }

    /// Folds another series into this one. Order-independent: merging
    /// any permutation of the same series produces bit-identical
    /// snapshots (raw points keep the top-`capacity` elements of the
    /// multiset union; window aggregates merge key-wise with integer
    /// sums and the top-`windows_per_level` start epochs survive).
    ///
    /// Both series must share the same [`SeriesConfig`]; the fleet
    /// always builds tenant and fleet series from one config.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.config, other.config,
            "cannot merge series with different retention configs"
        );
        // Multiset union of sorted point vectors, then keep-newest.
        let mut merged = Vec::with_capacity(self.raw.len() + other.raw.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.raw.len() && j < other.raw.len() {
            if Self::point_cmp(&self.raw[i], &other.raw[j])
                != std::cmp::Ordering::Greater
            {
                merged.push(self.raw[i]);
                i += 1;
            } else {
                merged.push(other.raw[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.raw[i..]);
        merged.extend_from_slice(&other.raw[j..]);
        if merged.len() > self.config.capacity {
            let excess = merged.len() - self.config.capacity;
            merged.drain(..excess);
        }
        self.raw = merged;
        for (mine, theirs) in self.levels.iter_mut().zip(other.levels.iter()) {
            for (&start, agg) in &theirs.windows {
                mine.windows.entry(start).or_default().merge(agg);
            }
        }
        self.prune_windows();
    }

    /// Number of raw points currently retained.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when no points have been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The most recent raw point, if any.
    pub fn last(&self) -> Option<SeriesPoint> {
        self.raw.last().copied()
    }

    /// Serializable snapshot: retained raw points plus every rollup
    /// level's windows in ascending `(width, start_epoch)` order.
    pub fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            points: self.raw.clone(),
            levels: self
                .levels
                .iter()
                .map(|level| LevelSnapshot {
                    width: level.width,
                    windows: level
                        .windows
                        .iter()
                        .map(|(&start, agg)| agg.snapshot(start, level.width))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Serializable rollup level: every retained window at one width.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LevelSnapshot {
    /// Window width in epochs.
    pub width: u64,
    /// Retained windows in ascending start-epoch order.
    pub windows: Vec<WindowSnapshot>,
}

/// Serializable snapshot of one series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesSnapshot {
    /// Retained raw points in `(epoch, value)` order.
    pub points: Vec<SeriesPoint>,
    /// Rollup levels, finest first.
    pub levels: Vec<LevelSnapshot>,
}

/// A named collection of series sharing one retention config.
///
/// Series are keyed by metric name (e.g. `solve.work_units`) and held
/// in a `BTreeMap`, so iteration — and therefore every export — is in
/// deterministic name order. The set is bounded: once `max_series`
/// distinct names exist, observations for new names are counted in
/// [`SeriesSet::dropped`] rather than allocating.
#[derive(Debug, Clone)]
pub struct SeriesSet {
    config: SeriesConfig,
    max_series: usize,
    series: BTreeMap<String, TimeSeries>,
    dropped: u64,
}

impl Default for SeriesSet {
    fn default() -> Self {
        Self::new(SeriesConfig::default())
    }
}

impl SeriesSet {
    /// Bound on distinct series names per set.
    pub const MAX_SERIES: usize = 128;

    /// Creates an empty set with the given per-series config.
    pub fn new(config: SeriesConfig) -> Self {
        Self {
            config,
            max_series: Self::MAX_SERIES,
            series: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Records `value` at `epoch` on the series named `name`,
    /// creating the series on first use (subject to the set bound).
    pub fn record(&mut self, name: &str, epoch: u64, value: f64) {
        if let Some(s) = self.series.get_mut(name) {
            s.record(epoch, value);
            return;
        }
        if self.series.len() >= self.max_series {
            self.dropped += 1;
            return;
        }
        let mut s = TimeSeries::new(self.config.clone());
        s.record(epoch, value);
        self.series.insert(name.to_string(), s);
    }

    /// Folds another set into this one, series-by-series (see
    /// [`TimeSeries::merge`] for the order-independence contract).
    pub fn merge(&mut self, other: &SeriesSet) {
        for (name, theirs) in &other.series {
            if let Some(mine) = self.series.get_mut(name) {
                mine.merge(theirs);
            } else if self.series.len() < self.max_series {
                self.series.insert(name.clone(), theirs.clone());
            } else {
                self.dropped += theirs.len() as u64;
            }
        }
        self.dropped += other.dropped;
    }

    /// Observations dropped because the set hit [`Self::MAX_SERIES`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of distinct series in the set.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when the set holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Looks up a series by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Iterates `(name, series)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializable snapshot of every series, in name order.
    pub fn snapshot(&self) -> Vec<NamedSeriesSnapshot> {
        self.series
            .iter()
            .map(|(name, s)| NamedSeriesSnapshot {
                name: name.clone(),
                series: s.snapshot(),
            })
            .collect()
    }
}

/// One named series snapshot inside a [`SeriesSet`] export.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NamedSeriesSnapshot {
    /// Metric name (dot-separated, e.g. `solve.work_units`).
    pub name: String,
    /// The series data.
    pub series: SeriesSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::default();
        for &(e, v) in points {
            s.record(e, v);
        }
        s
    }

    #[test]
    fn rollup_windows_aggregate_per_level() {
        let s = series_with(&[(0, 1.0), (1, 3.0), (8, 5.0), (9, 7.0)]);
        let snap = s.snapshot();
        assert_eq!(snap.levels[0].width, 1);
        assert_eq!(snap.levels[0].windows.len(), 4);
        // Width-8 level folds epochs 0..8 and 8..16 into two windows.
        assert_eq!(snap.levels[1].width, 8);
        assert_eq!(snap.levels[1].windows.len(), 2);
        let w0 = &snap.levels[1].windows[0];
        assert_eq!(w0.count, 2);
        assert!((w0.sum - 4.0).abs() < 1e-9);
        assert!((w0.rate - 0.25).abs() < 1e-12);
        // Width-32 level folds everything into one window.
        assert_eq!(snap.levels[2].windows.len(), 1);
        assert_eq!(snap.levels[2].windows[0].count, 4);
        assert_eq!(snap.levels[2].windows[0].max, 7.0);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = series_with(&[(0, 1.0), (2, 9.0), (5, 2.5)]);
        let b = series_with(&[(1, 4.0), (2, 9.0), (7, 0.5)]);
        let c = series_with(&[(0, 8.0), (9, 3.0)]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut c_ba = c.clone();
        let mut ba = b.clone();
        ba.merge(&a);
        c_ba.merge(&ba);

        assert_eq!(ab_c.snapshot(), c_ba.snapshot());
    }

    #[test]
    fn merge_eviction_keeps_the_global_top_k() {
        let config = SeriesConfig { capacity: 3, ..Default::default() };
        let mut a = TimeSeries::new(config.clone());
        let mut b = TimeSeries::new(config.clone());
        for e in 0..5 {
            a.record(e, e as f64);
        }
        for e in 3..8 {
            b.record(e, 100.0 + e as f64);
        }
        // Merge in both orders: the 3 highest (epoch, value) points of
        // the union must survive either way.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.snapshot().points, ba.snapshot().points);
        assert_eq!(
            ab.snapshot()
                .points
                .iter()
                .map(|p| p.epoch)
                .collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
    }

    #[test]
    fn fixed_point_sums_survive_permuted_accumulation() {
        // Classic float non-associativity trap: big + many-small.
        let vals = [1e9, 1e-3, 1e-3, 1e-3, 1e-3, -1e9];
        let mut fwd = WindowAgg::default();
        for v in vals {
            fwd.record(v);
        }
        let mut rev = WindowAgg::default();
        for v in vals.iter().rev() {
            rev.record(*v);
        }
        let (f, r) = (fwd.snapshot(0, 1), rev.snapshot(0, 1));
        assert_eq!(f.sum.to_bits(), r.sum.to_bits());
        assert!((f.sum - 0.004).abs() < 1e-5);
    }

    #[test]
    fn window_retention_is_bounded() {
        let config = SeriesConfig {
            capacity: 8,
            level_widths: vec![1],
            windows_per_level: 4,
        };
        let mut s = TimeSeries::new(config);
        for e in 0..100 {
            s.record(e, 1.0);
        }
        let snap = s.snapshot();
        assert_eq!(snap.levels[0].windows.len(), 4);
        assert_eq!(snap.levels[0].windows[0].start_epoch, 96);
        assert_eq!(snap.points.len(), 8);
    }

    #[test]
    fn percentiles_clamp_to_exact_max() {
        let mut w = WindowAgg::default();
        w.record(3.0);
        let s = w.snapshot(0, 1);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p99, 3.0);
        // Ladder bound above 3.0 is 4.0; clamp wins.
        let mut w = WindowAgg::default();
        for _ in 0..100 {
            w.record(3.0);
        }
        w.record(3.5);
        let s = w.snapshot(0, 1);
        // 3.0 and 3.5 share the ≤4.0 ladder bucket; the estimate is
        // the bucket bound clamped to the exact max.
        assert_eq!(s.p50, 3.5);
        assert_eq!(s.max, 3.5);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut s = TimeSeries::default();
        s.record(0, f64::NAN);
        s.record(1, f64::INFINITY);
        s.record(2, 1.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.snapshot().levels[0].windows.len(), 1);
    }

    #[test]
    fn series_set_bounds_distinct_names() {
        let mut set = SeriesSet::new(SeriesConfig::default());
        for i in 0..(SeriesSet::MAX_SERIES + 5) {
            set.record(&format!("m{i:04}"), 0, 1.0);
        }
        assert_eq!(set.len(), SeriesSet::MAX_SERIES);
        assert_eq!(set.dropped(), 5);
    }

    #[test]
    fn series_set_merge_matches_pointwise_merge() {
        let mut a = SeriesSet::default();
        let mut b = SeriesSet::default();
        a.record("x", 0, 1.0);
        a.record("y", 0, 2.0);
        b.record("y", 1, 3.0);
        b.record("z", 0, 4.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.get("y").unwrap().len(), 2);
    }

    #[test]
    fn config_validation_rejects_degenerate_shapes() {
        assert!(SeriesConfig::default().validate().is_ok());
        let bad = SeriesConfig { capacity: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SeriesConfig { level_widths: vec![], ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SeriesConfig { level_widths: vec![0], ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SeriesConfig { windows_per_level: 0, ..Default::default() };
        assert!(bad.validate().is_err());
    }
}
