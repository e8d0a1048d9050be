//! Self-profiling over the experiment registry.
//!
//! `tussle-cli profile` answers "where does a run spend its budget?": each
//! selected experiment runs once under a Profile-mode observation scope
//! (`tussle_sim::obs`), and the result pairs the deterministic cost
//! appendix with the nondeterministic extras — wall time and per-topic
//! virtual-time/wall-time attribution — that are deliberately kept out of
//! reports, goldens and digests. `tussle-cli trace` dumps the captured
//! structured trace stream instead, optionally filtered by topic.

use crate::{ExperimentEntry, UnknownExperiment};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tussle_core::RunCost;
use tussle_sim::obs::TopicCost;
use tussle_sim::trace::TraceEntry;

/// One experiment's profile: deterministic cost plus wall-clock attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Experiment id (e.g. `"E10"`).
    pub id: String,
    /// The seed profiled.
    pub seed: u64,
    /// Whether the run's shape held (a panicked run reports `false`).
    pub shape_holds: bool,
    /// The deterministic cost appendix (absent if the run panicked).
    pub cost: Option<RunCost>,
    /// Total wall time of the run, in nanoseconds. Nondeterministic.
    pub wall_nanos: u64,
    /// Per-topic attribution: engine events and substrate spans, with
    /// virtual and wall time. Topic keys are deterministic; wall values
    /// are not.
    pub topics: BTreeMap<String, TopicCost>,
}

impl ProfileReport {
    /// Render as a human-readable text block.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# {} profile (seed {}) — {} wall, shape holds: {}\n",
            self.id,
            self.seed,
            fmt_nanos(self.wall_nanos),
            if self.shape_holds { "yes" } else { "NO" },
        );
        if let Some(c) = &self.cost {
            out.push_str(&format!(
                "  {} events, {} rng draws, {} forwards, {} spans, {} trace entries — digest {}\n",
                c.events, c.rng_draws, c.forwards, c.spans, c.trace_entries, c.digest
            ));
        }
        if !self.topics.is_empty() {
            out.push_str("  topic attribution (events, virtual time, wall time):\n");
            // Heaviest wall-time first; ties broken by topic name so the
            // ordering is stable when wall times collapse to equal values.
            let mut rows: Vec<(&String, &TopicCost)> = self.topics.iter().collect();
            rows.sort_by(|a, b| b.1.wall_nanos.cmp(&a.1.wall_nanos).then_with(|| a.0.cmp(b.0)));
            for (topic, t) in rows {
                out.push_str(&format!(
                    "    {:<24} {:>8} ev  {:>10}us virtual  {:>10} wall\n",
                    topic,
                    t.events,
                    t.virtual_micros,
                    fmt_nanos(t.wall_nanos)
                ));
            }
        }
        out
    }
}

fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.1}us", nanos as f64 / 1e3)
    }
}

/// The entries an `only` list names, or the whole registry when it is
/// empty.
fn select(only: &[String]) -> Result<Vec<ExperimentEntry>, UnknownExperiment> {
    crate::select((!only.is_empty()).then_some(only))
}

/// Profile the selected experiments (all of them when `only` is empty) at
/// one seed. Runs sequentially — concurrent runs would contend for the
/// core and corrupt each other's wall-time attribution.
pub fn collect(seed: u64, only: &[String]) -> Result<Vec<ProfileReport>, UnknownExperiment> {
    let selected = select(only)?;
    Ok(selected
        .into_iter()
        .map(|(name, run)| {
            let (report, record) = crate::run_profiled(name, run, seed);
            ProfileReport {
                id: name.to_owned(),
                seed,
                shape_holds: report.shape_holds,
                cost: report.cost,
                wall_nanos: record.wall_nanos,
                topics: record.topics,
            }
        })
        .collect())
}

/// A rendered trace dump plus how many entries actually matched, so
/// callers (the CLI) can treat a zero-match filter as a failure instead of
/// printing headers over nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    /// The rendered dump: per-experiment headers and entry lines.
    pub text: String,
    /// Total entries matched across all selected experiments.
    pub matched: usize,
}

/// Run the selected experiments at one seed and dump their captured
/// structured trace streams as indented text lines, filtered to topics
/// starting with `grep` when given. Dropped-entry counts are reported
/// rather than silently hidden.
pub fn trace_dump(
    seed: u64,
    only: &[String],
    grep: Option<&str>,
) -> Result<TraceDump, UnknownExperiment> {
    let selected = select(only)?;
    let mut out = String::new();
    let mut matched = 0usize;
    for (name, run) in selected {
        let (_, record) = crate::run_profiled(name, run, seed);
        let matching: Vec<_> = record
            .ring
            .iter()
            .filter(|e| grep.is_none_or(|prefix| e.topic.starts_with(prefix)))
            .collect();
        matched += matching.len();
        out.push_str(&format!(
            "# {name} (seed {seed}) — {} entries{}{}\n",
            matching.len(),
            match grep {
                Some(g) => format!(" matching '{g}' of {} captured", record.ring.len()),
                None => String::new(),
            },
            if record.ring.dropped() > 0 {
                format!(", {} dropped by the capture ring", record.ring.dropped())
            } else {
                String::new()
            }
        ));
        out.push('\n');
        for e in matching {
            out.push_str(&e.to_line());
            out.push('\n');
        }
        out.push('\n');
    }
    Ok(TraceDump { text: out, matched })
}

/// Run the selected experiments under Profile observation and return each
/// one's full [`tussle_sim::RunRecord`], in request order, for the export
/// renderers. The runs go through the job grid ([`crate::grid`]): *which*
/// thread runs an experiment varies run to run, but records come back in
/// request order, and the exporters render only virtual-time fields — so
/// every downstream rendering is byte-identical across `--threads 1/2/8`.
pub fn export_records(
    seed: u64,
    only: &[String],
    threads: Option<usize>,
) -> Result<Vec<(String, tussle_sim::RunRecord)>, UnknownExperiment> {
    let selected = select(only)?;
    let records = crate::grid::par_map(&selected, threads, |&(name, run)| {
        crate::run_profiled(name, run, seed).1
    });
    Ok(selected.iter().map(|(name, _)| (*name).to_owned()).zip(records).collect())
}

/// One experiment's trace dump in structured form, for `trace --json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceJson {
    /// Experiment id (registry spelling).
    pub experiment: String,
    /// The seed traced.
    pub seed: u64,
    /// Entries captured by the ring (before filtering).
    pub captured: u64,
    /// Entries the bounded ring evicted during the run.
    pub dropped: u64,
    /// Entries matching the topic-prefix filter.
    pub matched: u64,
    /// The matching entries, oldest first.
    pub entries: Vec<TraceEntry>,
}

/// Run the selected experiments at one seed and dump their captured trace
/// streams as a JSON array of per-experiment objects — the same selection
/// and topic-prefix filter semantics as [`trace_dump`], machine-readable.
pub fn trace_json(
    seed: u64,
    only: &[String],
    grep: Option<&str>,
) -> Result<TraceDump, UnknownExperiment> {
    let selected = select(only)?;
    let mut dumps = Vec::with_capacity(selected.len());
    let mut matched = 0usize;
    for (name, run) in selected {
        let (_, record) = crate::run_profiled(name, run, seed);
        let captured = record.ring.len() as u64;
        let entries: Vec<TraceEntry> = record
            .ring
            .iter()
            .filter(|e| grep.is_none_or(|prefix| e.topic.starts_with(prefix)))
            .map(|e| e.to_entry())
            .collect();
        matched += entries.len();
        dumps.push(TraceJson {
            experiment: name.to_owned(),
            seed,
            captured,
            dropped: record.ring.dropped(),
            matched: entries.len() as u64,
            entries,
        });
    }
    let text = serde_json::to_string_pretty(&dumps).expect("trace dumps serialize") + "\n";
    Ok(TraceDump { text, matched })
}

/// Run the selected experiments at one seed and render their captured
/// span streams in collapsed-stack (flamegraph) format: one
/// `Exp;span;path self_virtual_micros` line per frame path, rooted at the
/// experiment id. Attribution is by *virtual* time, so the output is
/// deterministic and snapshot-testable — feed it to `inferno` or
/// `flamegraph.pl` to render an SVG.
pub fn collapsed(seed: u64, only: &[String]) -> Result<String, UnknownExperiment> {
    let selected = select(only)?;
    let mut out = String::new();
    for (name, run) in selected {
        let (_, record) = crate::run_profiled(name, run, seed);
        out.push_str(&tussle_sim::flame::to_collapsed(&record.ring, name));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_an_error() {
        let err = collect(1, &["E99".into()]).unwrap_err();
        assert_eq!(err, UnknownExperiment("E99".into()));
        assert!(err.to_string().contains("E99"));
    }

    #[test]
    fn profile_reports_cost_and_topics() {
        let reports = collect(2002, &["E10".into()]).unwrap();
        assert_eq!(reports.len(), 1);
        let p = &reports[0];
        assert_eq!(p.id, "E10");
        assert!(p.shape_holds);
        let cost = p.cost.as_ref().expect("cost attached");
        assert_eq!(cost.digest.len(), 16);
        assert!(p.wall_nanos > 0);
        let text = p.to_text();
        assert!(text.contains("E10 profile (seed 2002)"), "{text}");
        assert!(text.contains("digest"), "{text}");
    }

    #[test]
    fn profile_cost_matches_cost_mode_digest() {
        // Profile mode must observe the same deterministic stream as Cost
        // mode — the extra capture cannot perturb the digest.
        let profiled = collect(7, &["E4".into()]).unwrap();
        let plain = crate::run_captured("E4", crate::e04_source_routing::run, 7);
        assert_eq!(profiled[0].cost, plain.cost);
    }

    #[test]
    fn trace_dump_filters_by_topic_prefix() {
        let all = trace_dump(2002, &["E2".into()], None).unwrap();
        let econ = trace_dump(2002, &["E2".into()], Some("econ.")).unwrap();
        assert!(all.text.contains("# E2 (seed 2002)"));
        let entries =
            |dump: &str| dump.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count();
        assert!(econ.matched <= all.matched);
        assert_eq!(entries(&econ.text), econ.matched);
        for line in econ.text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            assert!(line.contains("econ."), "non-econ line leaked: {line}");
        }
        let nothing = trace_dump(2002, &["E2".into()], Some("zzz.")).unwrap();
        assert_eq!(nothing.matched, 0, "a non-matching prefix matches nothing");
        assert!(nothing.text.contains("0 entries matching"));
    }

    #[test]
    fn collapsed_stacks_are_deterministic_and_virtual_time_attributed() {
        let a = collapsed(2002, &["E10".into()]).unwrap();
        let b = collapsed(2002, &["E10".into()]).unwrap();
        assert_eq!(a, b, "virtual-time attribution is deterministic");
        assert!(!a.is_empty(), "E10 opens spans");
        for line in a.lines() {
            assert!(line.starts_with("E10;"), "frames root at the experiment id: {line}");
            let (_, value) = line.rsplit_once(' ').expect("`path value` shape");
            value.parse::<u64>().expect("self time is an integer micros count");
        }
        assert!(collapsed(1, &["E99".into()]).is_err());
    }
}
