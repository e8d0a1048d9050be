//! Counters, gauges and histograms.
//!
//! Every experiment reduces to a handful of numbers ("who wins, by what
//! factor"), and every substrate needs cheap instrumentation to produce
//! them. Keys are plain strings; the sink is owned by the engine context so
//! event handlers can record without extra plumbing.

use crate::digest::Fnv1a;
use crate::fault::{FaultOutcome, FaultStats};
use crate::obs;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fixed number of buckets in a [`TimeSeries`]; the bucket *width* doubles
/// whenever a sample lands past the end, so memory stays constant while
/// runs of any virtual length remain summarizable.
pub const SERIES_BUCKETS: usize = 32;

/// Initial [`TimeSeries`] bucket width in virtual microseconds.
pub const SERIES_INITIAL_WIDTH_MICROS: u64 = 1_024;

/// A windowed count over virtual time: a fixed array of buckets whose width
/// doubles (merging pairwise) whenever a sample lands beyond the last
/// bucket. Used for per-virtual-time-bucket event/forward/fault activity.
///
/// Series are **never digested** — they are a derived projection of the
/// already-digested trace and counter streams, so capturing them must not
/// change any [`crate::RunDigest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeries {
    width_micros: u64,
    counts: Vec<u64>,
    total: u64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries {
            width_micros: SERIES_INITIAL_WIDTH_MICROS,
            counts: vec![0; SERIES_BUCKETS],
            total: 0,
        }
    }
}

impl TimeSeries {
    /// New empty series at the initial bucket width.
    pub fn new() -> Self {
        Self::default()
    }

    fn coarsen(&mut self) {
        self.width_micros = self.width_micros.saturating_mul(2);
        for i in 0..SERIES_BUCKETS / 2 {
            self.counts[i] = self.counts[2 * i] + self.counts[2 * i + 1];
        }
        for c in &mut self.counts[SERIES_BUCKETS / 2..] {
            *c = 0;
        }
    }

    /// Add `n` occurrences at virtual time `at`, widening buckets as needed.
    pub fn record(&mut self, at: SimTime, n: u64) {
        let micros = at.as_micros();
        while (micros / self.width_micros) as usize >= SERIES_BUCKETS {
            self.coarsen();
        }
        self.counts[(micros / self.width_micros) as usize] += n;
        self.total += n;
    }

    /// Current bucket width in virtual microseconds.
    pub fn width_micros(&self) -> u64 {
        self.width_micros
    }

    /// Total count across all buckets.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Merge another series into this one, coarsening both views to the
    /// wider bucket width first.
    pub fn merge(&mut self, other: &TimeSeries) {
        while self.width_micros < other.width_micros {
            self.coarsen();
        }
        let mut o = other.clone();
        while o.width_micros < self.width_micros {
            o.coarsen();
        }
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Export with trailing empty buckets trimmed.
    pub fn summary(&self) -> TimeSeriesSummary {
        let used = self.counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        TimeSeriesSummary {
            width_micros: self.width_micros,
            counts: self.counts[..used].to_vec(),
            total: self.total,
        }
    }
}

/// Exported view of a [`TimeSeries`]: bucket width, trimmed bucket counts
/// and the total.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeriesSummary {
    /// Bucket width in virtual microseconds.
    pub width_micros: u64,
    /// Per-bucket counts, oldest first, trailing zeros trimmed.
    pub counts: Vec<u64>,
    /// Total count.
    pub total: u64,
}

impl TimeSeriesSummary {
    /// Compact one-token rendering, e.g. `[3,1,0,2]/1024us` (`-` if empty).
    pub fn render(&self) -> String {
        if self.total == 0 {
            return "-".to_owned();
        }
        let buckets: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        format!("[{}]/{}us", buckets.join(","), self.width_micros)
    }
}

/// The standard activity series of one observed run: events dispatched,
/// network forwards, and fault-injector hits, each bucketed by virtual
/// time. Carried on [`crate::RunRecord`] and the report cost appendix.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunSeries {
    /// Engine events dispatched per bucket.
    pub events: TimeSeriesSummary,
    /// Network hop forwards per bucket.
    pub forwards: TimeSeriesSummary,
    /// Fault-injector non-pass outcomes per bucket.
    pub faults: TimeSeriesSummary,
}

impl RunSeries {
    /// True when no series recorded anything.
    pub fn is_empty(&self) -> bool {
        self.events.total == 0 && self.forwards.total == 0 && self.faults.total == 0
    }
}

/// A log-bucketed histogram over non-negative `f64` samples.
///
/// Buckets are powers of two starting at 1.0 plus an underflow bucket, which
/// is plenty of resolution for latency, price and table-size distributions
/// while staying allocation-free after construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

const BUCKETS: usize = 64;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: f64) -> usize {
        if value < 1.0 {
            0
        } else {
            // log2(value) + 1, clamped to the top bucket
            let idx = value.log2().floor() as usize + 1;
            idx.min(BUCKETS)
        }
    }

    /// Record one sample. Negative and non-finite samples are clamped to 0.
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() && value > 0.0 { value } else { 0.0 };
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Approximate quantile (bucket upper bound), `q` in `[0,1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if i == 0 { 1.0 } else { 2f64.powi(i as i32) };
                return Some(upper.min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Summarize into the fixed set of export statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean().unwrap_or(0.0),
            min: self.min().unwrap_or(0.0),
            p50: self.quantile(0.5).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// Exported view of one histogram: the quantiles every report wants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Median estimate (log-bucket upper bound).
    pub p50: f64,
    /// 95th-percentile estimate (log-bucket upper bound).
    pub p95: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

/// A point-in-time export of a [`Metrics`] sink: every counter, gauge and
/// histogram summary, rendered to markdown or JSON and hashable into a
/// [`crate::RunDigest`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters in key order.
    pub counters: BTreeMap<String, u64>,
    /// Gauges in key order.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries in key order.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Windowed virtual-time series in key order. **Not digested** — see
    /// [`TimeSeries`].
    pub series: BTreeMap<String, TimeSeriesSummary>,
}

impl MetricsSnapshot {
    /// Absorb the whole snapshot into a hasher. Key order is the BTreeMap
    /// order, so equal snapshots absorb identically. The `series` section
    /// is deliberately excluded: series are derived from already-digested
    /// streams, and digests must stay stable as series capture evolves.
    pub fn absorb_into(&self, h: &mut Fnv1a) {
        absorb_metrics(
            h,
            self.counters.iter().map(|(k, v)| (k.as_str(), *v)),
            self.gauges.iter().map(|(k, v)| (k.as_str(), *v)),
            self.histograms.iter().map(|(k, s)| (k.as_str(), *s)),
        );
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// Render as markdown tables (one per non-empty section).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("| counter | value |\n|---|---:|\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("| {k} | {v} |\n"));
            }
        }
        if !self.gauges.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str("| gauge | value |\n|---|---:|\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("| {k} | {v:.4} |\n"));
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(
                "| histogram | count | mean | p50 | p95 | max |\n|---|---:|---:|---:|---:|---:|\n",
            );
            for (k, s) in &self.histograms {
                out.push_str(&format!(
                    "| {k} | {} | {:.4} | {:.4} | {:.4} | {:.4} |\n",
                    s.count, s.mean, s.p50, s.p95, s.max
                ));
            }
        }
        if !self.series.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str("| series | total | buckets |\n|---|---:|---|\n");
            for (k, s) in &self.series {
                out.push_str(&format!("| {k} | {} | {} |\n", s.total, s.render()));
            }
        }
        out
    }

    /// Render as a JSON object string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }
}

/// The metrics hashing recipe, written once: counters, gauges and
/// histogram summaries, each section tagged and counted, in key order.
/// [`MetricsSnapshot::absorb_into`] feeds it an export and
/// [`Metrics::absorb_into`] the live sink, so both hash identically.
fn absorb_metrics<'a>(
    h: &mut Fnv1a,
    counters: impl ExactSizeIterator<Item = (&'a str, u64)>,
    gauges: impl ExactSizeIterator<Item = (&'a str, f64)>,
    histograms: impl ExactSizeIterator<Item = (&'a str, HistogramSummary)>,
) {
    h.write_u8(0xB1);
    h.write_u64(counters.len() as u64);
    for (k, v) in counters {
        h.write_str(k);
        h.write_u64(v);
    }
    h.write_u8(0xB2);
    h.write_u64(gauges.len() as u64);
    for (k, v) in gauges {
        h.write_str(k);
        h.write_f64(v);
    }
    h.write_u8(0xB3);
    h.write_u64(histograms.len() as u64);
    for (k, s) in histograms {
        h.write_str(k);
        h.write_u64(s.count);
        h.write_f64(s.sum);
        h.write_f64(s.min);
        h.write_f64(s.p50);
        h.write_f64(s.p95);
        h.write_f64(s.max);
    }
}

/// A named-metric sink: counters, gauges, histograms.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

impl Metrics {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a counter by `n`.
    pub fn add(&mut self, key: &str, n: u64) {
        obs::on_metric_counter(key, n);
        // get_mut first: only a key's first write allocates its `String`.
        if let Some(c) = self.counters.get_mut(key) {
            *c += n;
        } else {
            self.counters.insert(key.to_owned(), n);
        }
    }

    /// Increment a counter by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Read a counter (0 if never written).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Set a gauge value.
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        obs::on_metric_gauge(key, value);
        self.gauges.insert(key.to_owned(), value);
    }

    /// Read a gauge, if set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Tally a fault-injector outcome under `scope` (e.g. a flow label or
    /// a link name), as counters `fault.<scope>.passed` / `.dropped` /
    /// `.corrupted` / `.rate_limited` — fault activity becomes observable
    /// per run instead of vanishing into aggregate drop counts.
    pub fn record_fault(&mut self, scope: &str, outcome: FaultOutcome) {
        let suffix = match outcome {
            FaultOutcome::Pass => "passed",
            FaultOutcome::Drop => "dropped",
            FaultOutcome::Corrupt => "corrupted",
            FaultOutcome::RateLimited => "rate_limited",
        };
        self.incr(&format!("fault.{scope}.{suffix}"));
    }

    /// Read back the fault tallies recorded under `scope`.
    pub fn fault_stats(&self, scope: &str) -> FaultStats {
        FaultStats {
            passed: self.counter(&format!("fault.{scope}.passed")),
            dropped: self.counter(&format!("fault.{scope}.dropped")),
            corrupted: self.counter(&format!("fault.{scope}.corrupted")),
            rate_limited: self.counter(&format!("fault.{scope}.rate_limited")),
        }
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, key: &str, value: f64) {
        obs::on_metric_observe(key, value);
        if let Some(h) = self.histograms.get_mut(key) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(key.to_owned(), h);
        }
    }

    /// Add `n` occurrences to the windowed virtual-time series `key` at
    /// time `at`. Series feed no obs hook and no digest: they are a
    /// derived projection of streams that are already digested, so
    /// recording them can never flip a determinism check.
    pub fn record_series(&mut self, key: &str, at: SimTime, n: u64) {
        // get_mut-first keeps the steady state (engine hot path) free of
        // key allocation; only the first write per key allocates.
        if let Some(s) = self.series.get_mut(key) {
            s.record(at, n);
        } else {
            let mut s = TimeSeries::new();
            s.record(at, n);
            self.series.insert(key.to_owned(), s);
        }
    }

    /// Access a windowed series, if anything was recorded under `key`.
    pub fn series(&self, key: &str) -> Option<&TimeSeries> {
        self.series.get(key)
    }

    /// Absorb the live sink into a hasher exactly as its
    /// [`snapshot`](Metrics::snapshot) would absorb, without copying a key.
    pub fn absorb_into(&self, h: &mut Fnv1a) {
        absorb_metrics(
            h,
            self.counters(),
            self.gauges(),
            self.histograms.iter().map(|(k, hist)| (k.as_str(), hist.summary())),
        );
    }

    /// Export every counter, gauge and histogram summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.iter().map(|(k, h)| (k.clone(), h.summary())).collect(),
            series: self.series.iter().map(|(k, s)| (k.clone(), s.summary())).collect(),
        }
    }

    /// Access a histogram, if any samples were recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl ExactSizeIterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl ExactSizeIterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merge another sink into this one (counters add, gauges overwrite,
    /// histograms merge).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.series {
            self.series.entry(k.clone()).or_default().merge(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("pkts");
        m.add("pkts", 4);
        assert_eq!(m.counter("pkts"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = Metrics::new();
        m.set_gauge("price", 10.0);
        m.set_gauge("price", 12.5);
        assert_eq!(m.gauge("price"), Some(12.5));
        assert_eq!(m.gauge("absent"), None);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let q10 = h.quantile(0.1).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q10 <= q50 && q50 <= q99, "{q10} {q50} {q99}");
        assert!(q99 <= 1024.0);
    }

    #[test]
    fn histogram_clamps_bad_samples() {
        let mut h = Histogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0.0));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 4.0);
        assert_eq!(a.max(), Some(3.0));
    }

    #[test]
    fn fault_outcomes_become_counters() {
        let mut m = Metrics::new();
        m.record_fault("flow.voip", FaultOutcome::Pass);
        m.record_fault("flow.voip", FaultOutcome::Drop);
        m.record_fault("flow.voip", FaultOutcome::Drop);
        m.record_fault("flow.voip", FaultOutcome::Corrupt);
        m.record_fault("flow.voip", FaultOutcome::RateLimited);
        assert_eq!(m.counter("fault.flow.voip.dropped"), 2);
        let stats = m.fault_stats("flow.voip");
        assert_eq!(
            (stats.passed, stats.dropped, stats.corrupted, stats.rate_limited),
            (1, 2, 1, 1)
        );
        assert_eq!(stats.faults(), 4);
        assert_eq!(m.fault_stats("absent"), FaultStats::default());
    }

    #[test]
    fn metrics_merge() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.add("x", 1);
        b.add("x", 2);
        b.set_gauge("g", 7.0);
        b.observe("h", 5.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.gauge("g"), Some(7.0));
        assert_eq!(a.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn huge_values_land_in_top_bucket() {
        let mut h = Histogram::new();
        h.record(f64::MAX / 2.0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).unwrap() > 0.0);
    }

    #[test]
    fn snapshot_exports_all_sections() {
        let mut m = Metrics::new();
        m.add("pkts", 7);
        m.set_gauge("price", 2.5);
        for v in [1.0, 2.0, 100.0] {
            m.observe("latency", v);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counters["pkts"], 7);
        assert_eq!(snap.gauges["price"], 2.5);
        let h = &snap.histograms["latency"];
        assert_eq!(h.count, 3);
        assert!(h.p50 <= h.p95 && h.p95 <= h.max, "{h:?}");

        let md = snap.to_markdown();
        assert!(md.contains("| pkts | 7 |"), "{md}");
        assert!(md.contains("| price | 2.5000 |"), "{md}");
        assert!(md.contains("| latency | 3 |"), "{md}");

        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_digest_detects_change() {
        use crate::digest::Fnv1a;
        let mut a = Metrics::new();
        a.add("x", 1);
        let mut b = Metrics::new();
        b.add("x", 2);
        let mut ha = Fnv1a::new();
        a.snapshot().absorb_into(&mut ha);
        let mut hb = Fnv1a::new();
        b.snapshot().absorb_into(&mut hb);
        assert_ne!(ha.finish(), hb.finish());

        let mut hc = Fnv1a::new();
        a.snapshot().absorb_into(&mut hc);
        assert_eq!(ha.finish(), hc.finish());
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snap = Metrics::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.to_markdown(), "");
    }

    #[test]
    fn time_series_buckets_by_virtual_time() {
        let mut s = TimeSeries::new();
        s.record(SimTime::from_micros(0), 2);
        s.record(SimTime::from_micros(1023), 1);
        s.record(SimTime::from_micros(1024), 4);
        let sum = s.summary();
        assert_eq!(sum.width_micros, SERIES_INITIAL_WIDTH_MICROS);
        assert_eq!(sum.counts, [3, 4]);
        assert_eq!(sum.total, 7);
        assert_eq!(sum.render(), "[3,4]/1024us");
    }

    #[test]
    fn time_series_coarsens_instead_of_growing() {
        let mut s = TimeSeries::new();
        s.record(SimTime::from_micros(0), 1);
        s.record(SimTime::from_micros(10), 1);
        // Far past the initial window: widths must double until it fits.
        s.record(SimTime::from_millis(1_000), 1);
        let sum = s.summary();
        assert!(sum.width_micros > SERIES_INITIAL_WIDTH_MICROS);
        assert!(sum.counts.len() <= SERIES_BUCKETS);
        assert_eq!(sum.total, 3);
        assert_eq!(sum.counts.iter().sum::<u64>(), 3, "coarsening conserves counts");
        assert_eq!(sum.counts[0], 2, "early samples merge into the first bucket");
    }

    #[test]
    fn time_series_merge_aligns_widths() {
        let mut fine = TimeSeries::new();
        fine.record(SimTime::from_micros(5), 3);
        let mut coarse = TimeSeries::new();
        coarse.record(SimTime::from_millis(1_000), 1);
        let coarse_width = coarse.width_micros();
        fine.merge(&coarse);
        assert_eq!(fine.width_micros(), coarse_width);
        assert_eq!(fine.total(), 4);
    }

    #[test]
    fn series_never_affect_the_snapshot_digest() {
        use crate::digest::Fnv1a;
        let mut plain = Metrics::new();
        plain.add("x", 1);
        let mut with_series = Metrics::new();
        with_series.add("x", 1);
        with_series.record_series("engine.events", SimTime::from_micros(7), 5);
        let mut ha = Fnv1a::new();
        plain.snapshot().absorb_into(&mut ha);
        let mut hb = Fnv1a::new();
        with_series.snapshot().absorb_into(&mut hb);
        assert_eq!(ha.finish(), hb.finish(), "series are a non-digested projection");
        assert!(!with_series.snapshot().is_empty());
        let md = with_series.snapshot().to_markdown();
        assert!(md.contains("| engine.events | 5 |"), "{md}");
    }

    #[test]
    fn metrics_merge_includes_series() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.record_series("s", SimTime::from_micros(1), 1);
        b.record_series("s", SimTime::from_micros(2), 2);
        a.merge(&b);
        assert_eq!(a.series("s").unwrap().total(), 3);
    }
}
