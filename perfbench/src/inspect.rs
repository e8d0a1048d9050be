//! `inspect`: one op runs E4, E5, E6 and E17 through `run_profiled`,
//! renders each record with `to_chrome`, `to_jsonl` and `to_prometheus`,
//! then runs one `diff` of E17 at seed vs seed + 1. The diff runs its two
//! sides on one thread: on a 2-vCPU host, the two-thread diff waited on
//! whichever vCPU was contended and doubled the op's run-to-run spread.

use crate::spans::{Checks, Spans};
use crate::{Config, Workload};
use std::hint::black_box;
use tussle_experiments::ExperimentEntry;
use tussle_experiments::{diff, registry, run_captured, run_profiled, DiffConfig, DiffReport};
use tussle_sim::{to_chrome, to_jsonl, to_prometheus};

const IDS: [&str; 4] = ["E4", "E5", "E6", "E17"];
const DIFF_ID: &str = "E17";

/// One experiment's three renderings.
type Exports = (String, String, String);

pub struct Inspect {
    entries: Vec<ExperimentEntry>,
    seed: u64,
    first: Vec<Exports>,
    last: Vec<Exports>,
    last_diff: Option<DiffReport>,
}

/// Run one op; its exports are the reference every later op must equal.
pub fn setup(config: &Config) -> Inspect {
    let entries = registry().into_iter().filter(|(name, _)| IDS.contains(name)).collect::<Vec<_>>();
    assert_eq!(entries.len(), IDS.len(), "every inspect id is in the registry");
    let mut w = Inspect {
        entries,
        seed: config.seed,
        first: Vec::new(),
        last: Vec::new(),
        last_diff: None,
    };
    w.op(0, &mut Spans::default());
    w.first = w.last.clone();
    w
}

impl Workload for Inspect {
    fn op(&mut self, _index: u64, spans: &mut Spans) -> u64 {
        let mut entries = 0;
        self.last.clear();
        for (name, run) in &self.entries {
            let (_, record) = spans.time("sim.profiled_ms", || run_profiled(name, *run, self.seed));
            entries += record.trace_entries;
            self.last.push((
                spans.time("sim.export_chrome_ms", || to_chrome(&record)),
                spans.time("sim.export_jsonl_ms", || to_jsonl(&record)),
                spans.time("sim.export_prom_ms", || to_prometheus(&record)),
            ));
        }
        let config = DiffConfig {
            id: DIFF_ID.to_owned(),
            seed_a: self.seed,
            seed_b: self.seed.wrapping_add(1),
            intensity_a: 0.0,
            intensity_b: 0.0,
            threads: Some(1),
        };
        self.last_diff = spans.time("experiments.diff_ms", || diff(&config)).ok();
        entries
    }

    fn verify(&mut self, checks: &mut Checks) {
        checks.check("inspect.exports_match_first", self.last == self.first, || {
            "an export differs from the first op's".to_owned()
        });
        for (id, (chrome, _, _)) in IDS.iter().zip(&self.last) {
            let begins = chrome.matches("\"ph\":\"B\"").count();
            let ends = chrome.matches("\"ph\":\"E\"").count();
            checks.check("inspect.chrome_balanced", begins == ends && begins > 0, || {
                format!("{id}: {begins} B events vs {ends} E events")
            });
        }
        let diverged =
            self.last_diff.as_ref().is_some_and(|d| !d.identical && d.divergence.is_some());
        checks.check("inspect.diff_diverges", diverged, || {
            format!(
                "{DIFF_ID} seed {} vs {}: {:?}",
                self.seed,
                self.seed.wrapping_add(1),
                self.last_diff
            )
        });
    }

    fn probe(&mut self, _index: u64, _op_ns: f64, spans: &mut Spans, _checks: &mut Checks) {
        let profiled = spans.current_ns("sim.profiled_ms");
        let mut captured = 0.0;
        let mut entries = 0;
        for (name, run) in &self.entries {
            let start = std::time::Instant::now();
            let report = black_box(run_captured(name, *run, self.seed));
            captured += start.elapsed().as_nanos() as f64;
            entries += report.cost.map_or(0, |c| c.trace_entries);
        }
        spans.sample("sim.profile_overhead", profiled / captured);
        spans.sample("sim.trace_entries", entries as f64);
    }
}
