//! Layer spans and correctness checks, recorded from the benchmark's own
//! calls into the workspace crates.
//!
//! A span times one call into one crate. Its key is the per-layer metric it
//! feeds (`layer.name_unit`); the unit suffix (`_ms` or `_us`) sets how the
//! nanoseconds are reported. Spans of one operation add up into one sample
//! per key, so every per-layer metric is the median over traced operations.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-operation layer timings and counts.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    current: BTreeMap<&'static str, u128>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    calls: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Turn span timing on (traced phase) or off (untraced phase).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Run `f`, timing it under `key` when tracing is on.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        *self.current.entry(key).or_default() += start.elapsed().as_nanos();
        *self.calls.entry(layer_of(key)).or_default() += 1;
        out
    }

    /// Nanoseconds spent under `key` in the current operation so far.
    pub fn current_ns(&self, key: &str) -> f64 {
        self.current.get(key).map_or(0.0, |ns| *ns as f64)
    }

    /// Record one sample of `key` directly, in the metric's own unit.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    /// Close the current operation: its span totals become one sample each.
    pub fn end_op(&mut self) {
        for (key, ns) in std::mem::take(&mut self.current) {
            let scale = if key.ends_with("_us") { 1e-3 } else { 1e-6 };
            self.sample(key, ns as f64 * scale);
        }
    }

    /// All samples recorded under `key`.
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Timed calls made into `layer` (the key prefix before the first dot).
    pub fn calls(&self, layer: &str) -> u64 {
        self.calls.get(layer).copied().unwrap_or(0)
    }
}

fn layer_of(key: &'static str) -> &'static str {
    key.split_once('.').map_or(key, |(layer, _)| layer)
}

/// Correctness checks (they decide `correct`) and sanity notes (reported
/// only: they describe the measured shape, which a real speed-up may
/// legitimately change).
#[derive(Debug, Default)]
pub struct Checks {
    runs: BTreeMap<&'static str, (u64, u64)>,
    failures: Vec<String>,
    sanity: Vec<(String, bool, String)>,
}

impl Checks {
    /// Record one run of check `name`; `detail` explains a failure.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let entry = self.runs.entry(name).or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{name}: {}", detail()));
            }
        }
    }

    /// Record a sanity note. Repeats of a note fold into one, which stays
    /// ok only while every repeat is, and keeps the first failing detail.
    pub fn sanity(&mut self, name: &str, ok: bool, detail: String) {
        match self.sanity.iter_mut().find(|(n, ..)| n == name) {
            Some((_, was_ok, old)) => {
                if *was_ok {
                    *old = detail;
                }
                *was_ok &= ok;
            }
            None => self.sanity.push((name.to_owned(), ok, detail)),
        }
    }

    /// Total failed check runs so far.
    pub fn failed(&self) -> u64 {
        self.runs.values().map(|(_, failed)| failed).sum()
    }

    /// `(name, runs, failed)` for every check that ran.
    pub fn runs(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.runs.iter().map(|(name, (runs, failed))| (*name, *runs, *failed))
    }

    /// The first failure messages.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `(name, ok, detail)` for every sanity note.
    pub fn sanity_notes(&self) -> &[(String, bool, String)] {
        &self.sanity
    }
}
