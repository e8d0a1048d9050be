//! # tussle-experiments — the evaluation the paper never ran
//!
//! The paper is a position paper: it narrates scenarios and predicts their
//! qualitative shape. Every module here turns one narrated scenario into a
//! parameterized, seeded, reproducible experiment whose output is a table
//! plus a machine-checked "does the shape hold?" verdict. `EXPERIMENTS.md`
//! records paper-claim vs. measured for all of them; the bench crate
//! regenerates each table.
//!
//! | Id | Section | Scenario |
//! |----|---------|----------|
//! | E1 | §V.A.1 | Provider lock-in from IP addressing |
//! | E2 | §V.A.2 | Value pricing vs. tunneling |
//! | E3 | §V.A.3 | Residential broadband market structure |
//! | E4 | §V.A.4 | Provider routing vs. paid source routing |
//! | E5 | §V.A.4 | Overlays as a tussle tool |
//! | E6 | §V.B   | Firewalls: protection vs. innovation |
//! | E7 | §V.B   | Third-party mediation |
//! | E8 | §V.B.1 | Anonymity vs. accountability |
//! | E9 | §VI.A  | The encryption escalation ladder |
//! | E10| §VII   | The QoS deployment post-mortem |
//! | E11| §IV.A  | DNS/trademark entanglement |
//! | E12| §II.C  | Actor-network churn and freezing |
//! | E13| §IV.A  | Tussle-isolation ablation (ToS vs. port QoS) |
//! | E14| §II.B  | Game-theoretic substrate validation |
//! | E15| §IV.C  | The rise and fall of micro-payments |
//! | E16| §VII   | The multicast post-mortem (the paper's "exercise for the reader") |
//! | E17| §II.B  | Routing in an uncooperative network (Perlman exclusion + Savage traceback) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causality;
pub mod chaos;
pub mod e01_lockin;
pub mod e02_value_pricing;
pub mod e03_broadband;
pub mod e04_source_routing;
pub mod e05_overlay;
pub mod e06_firewalls;
pub mod e07_mediation;
pub mod e08_identity;
pub mod e09_encryption;
pub mod e10_qos;
pub mod e11_dns;
pub mod e12_actor_network;
pub mod e13_isolation;
pub mod e14_games;
pub mod e15_micropayments;
pub mod e16_multicast;
pub mod e17_uncooperative;
pub mod fuzz;
pub mod grid;
pub mod scale;
pub mod sweep;

pub use causality::{diff, explain, CausalityError, DiffConfig, DiffReport, Explanation};
pub use chaos::{run_chaos, run_chaos_entries, ChaosConfig, ChaosError};
pub use fuzz::{
    run_fuzz, CorpusEntry, Element, FuzzConfig, FuzzError, FuzzReport, Scenario, ORACLES,
};
pub use scale::{Routing, ScaleOutcome, ScaleWorkload};
pub use sweep::{run_sweep, SweepConfig, SweepError};

use tussle_core::{ExperimentReport, RunCost, Table};
use tussle_sim::obs;
use tussle_sim::RunRecord;

pub mod profile;

pub use profile::{export_records, trace_dump, trace_json, ProfileReport, TraceDump, TraceJson};

/// One registry entry: the experiment id and its runner.
pub type ExperimentEntry = (&'static str, fn(u64) -> ExperimentReport);

/// The experiment registry: id-ordered `(name, runner)` pairs.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        ("E1", e01_lockin::run),
        ("E2", e02_value_pricing::run),
        ("E3", e03_broadband::run),
        ("E4", e04_source_routing::run),
        ("E5", e05_overlay::run),
        ("E6", e06_firewalls::run),
        ("E7", e07_mediation::run),
        ("E8", e08_identity::run),
        ("E9", e09_encryption::run),
        ("E10", e10_qos::run),
        ("E11", e11_dns::run),
        ("E12", e12_actor_network::run),
        ("E13", e13_isolation::run),
        ("E14", e14_games::run),
        ("E15", e15_micropayments::run),
        ("E16", e16_multicast::run),
        ("E17", e17_uncooperative::run),
    ]
}

/// An `--only` id that names no experiment in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl UnknownExperiment {
    /// Write the one unknown-id message; the campaign errors that carry
    /// a bare id render through it too.
    pub(crate) fn fmt_id(id: &str, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown experiment `{id}` (the registry has E1..=E17)")
    }
}

impl core::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        Self::fmt_id(&self.0, f)
    }
}

impl std::error::Error for UnknownExperiment {}

/// Resolve `--only` ids against the registry. `None` selects the whole
/// registry in id order. Otherwise each id matches case-insensitively and
/// the entries come back in request order, in registry spelling; the
/// first id that names no experiment is the error.
pub fn select(only: Option<&[String]>) -> Result<Vec<ExperimentEntry>, UnknownExperiment> {
    let full = registry();
    let Some(ids) = only else { return Ok(full) };
    ids.iter()
        .map(|id| {
            full.iter()
                .find(|(name, _)| name.eq_ignore_ascii_case(id))
                .copied()
                .ok_or_else(|| UnknownExperiment(id.clone()))
        })
        .collect()
}

/// The deterministic [`RunCost`] view of an observation record (wall time
/// and per-topic attribution are deliberately left behind).
fn cost_of(record: &RunRecord) -> RunCost {
    RunCost {
        events: record.events,
        rng_draws: record.rng_draws,
        forwards: record.forwards,
        spans: record.spans_entered,
        trace_entries: record.trace_entries,
        digest: record.digest.to_hex(),
        series: record.series.clone(),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Run one experiment under an observation scope with `settings`, the one
/// harness every runner shares. The panic is caught *inside* the scope: a
/// panicking run becomes its [`panic_report`] (with no cost appendix —
/// its cost is not trustworthy), and the record still holds what the
/// scope saw before the panic, such as the chaos campaign's fault tally.
/// Returns the report, the scope's [`RunRecord`] and whether it panicked.
pub(crate) fn run_scoped(
    name: &str,
    run: fn(u64) -> ExperimentReport,
    seed: u64,
    settings: obs::Settings,
) -> (ExperimentReport, RunRecord, bool) {
    let guard = obs::begin(settings);
    let outcome = std::panic::catch_unwind(move || run(seed));
    let record = guard.finish();
    match outcome {
        Ok(mut report) => {
            report.cost = Some(cost_of(&record));
            report.scoreboard = tussle_core::Scoreboard::from_record(&record);
            (report, record, false)
        }
        Err(payload) => (panic_report(name, seed, &panic_message(payload)), record, true),
    }
}

/// Run one experiment under a Profile-mode observation scope, with panic
/// isolation. Returns the report (with its cost appendix) and the full
/// [`RunRecord`] — per-topic attribution, wall time and the captured entry
/// log — for `tussle-cli profile` / `tussle-cli trace`.
pub fn run_profiled(
    name: &str,
    run: fn(u64) -> ExperimentReport,
    seed: u64,
) -> (ExperimentReport, RunRecord) {
    let (report, record, _) = run_scoped(name, run, seed, obs::ObsMode::Profile.into());
    (report, record)
}

/// Run one experiment under a Cost-mode observation scope, converting a
/// panic into a structured failing report. The report carries the run's
/// [`RunCost`] appendix.
pub fn run_captured(name: &str, run: fn(u64) -> ExperimentReport, seed: u64) -> ExperimentReport {
    run_scoped(name, run, seed, obs::ObsMode::Cost.into()).0
}

/// The synthetic report a panicked run reduces to: `shape_holds == false`
/// with the panic message preserved, so campaigns and sweeps complete and
/// the failure stays diagnosable instead of aborting the whole process.
pub fn panic_report(id: &str, seed: u64, message: &str) -> ExperimentReport {
    let mut table = Table::new("run aborted by panic", &["detail"]);
    table.push_row("panic", &[message.to_owned()]);
    ExperimentReport {
        id: id.to_owned(),
        section: "—".to_owned(),
        paper_claim: "(run panicked before producing a claim)".to_owned(),
        table,
        shape_holds: false,
        summary: format!("PANIC (seed {seed}): {message}"),
        cost: None,
        scoreboard: None,
    }
}

/// Run every experiment on the job grid ([`grid::par_map`], at the
/// machine's available parallelism) and return the reports in id order.
/// Determinism is unaffected: each experiment is seeded independently and
/// never shares mutable state. A panicking experiment yields its
/// [`panic_report`] instead of poisoning the batch.
pub fn run_all_parallel(seed: u64) -> Vec<ExperimentReport> {
    grid::par_map(&registry(), None, |&(name, run)| run_captured(name, run, seed))
}

/// Run every experiment with one seed; returns the reports in id order.
/// Each run is observed and panic-isolated exactly like the parallel
/// runner, so the two produce identical reports (cost appendix included).
pub fn run_all(seed: u64) -> Vec<ExperimentReport> {
    registry().into_iter().map(|(name, run)| run_captured(name, run, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_run_and_hold_shape() {
        let reports = run_all(42);
        assert_eq!(reports.len(), 17);
        for r in &reports {
            assert!(r.shape_holds, "{}: shape failed — {}", r.id, r.summary);
            assert!(!r.table.rows.is_empty(), "{} produced no rows", r.id);
        }
    }

    #[test]
    fn select_none_is_the_registry_in_id_order() {
        let names = |entries: Vec<ExperimentEntry>| -> Vec<&str> {
            entries.into_iter().map(|(name, _)| name).collect()
        };
        let all = names(select(None).unwrap());
        assert_eq!(all, names(registry()));
        assert_eq!(all.len(), 17);
        assert_eq!(all[0], "E1");
        assert_eq!(all[16], "E17");
    }

    #[test]
    fn select_matches_case_insensitively_in_request_order() {
        let ids = |ids: &[&str]| -> Vec<String> { ids.iter().map(|s| (*s).to_owned()).collect() };
        let picked = select(Some(&ids(&["e17", "E5", "e1"]))).unwrap();
        let names: Vec<&str> = picked.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["E17", "E5", "E1"], "request order, registry spelling");
        assert!(select(Some(&[])).unwrap().is_empty());

        let err = select(Some(&ids(&["E1", "E98", "E99"]))).unwrap_err();
        assert_eq!(err, UnknownExperiment("E98".into()), "the first unknown id is the error");
        assert_eq!(err.to_string(), "unknown experiment `E98` (the registry has E1..=E17)");
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let seq = run_all(11);
        let par = run_all_parallel(11);
        assert_eq!(seq, par);
    }

    #[test]
    fn experiments_are_deterministic() {
        let a = run_all(7);
        let b = run_all(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "{} not deterministic", x.id);
        }
    }

    #[test]
    fn every_report_carries_a_cost_appendix() {
        for r in run_all(2002) {
            let cost = r.cost.as_ref().unwrap_or_else(|| panic!("{} has no cost", r.id));
            assert_eq!(cost.digest.len(), 16, "{}: digest '{}'", r.id, cost.digest);
            assert!(
                cost.digest.chars().all(|c| c.is_ascii_hexdigit()),
                "{}: digest '{}' is not hex",
                r.id,
                cost.digest
            );
            // The appendix must render into the markdown the goldens lock.
            assert!(r.to_markdown().contains(&cost.digest), "{}: cost line missing", r.id);
        }
    }

    #[test]
    fn route_caching_leaves_every_report_unchanged() {
        for (name, run) in registry() {
            let report = |route_cache| {
                let settings = obs::Settings { route_cache, ..obs::ObsMode::Cost.into() };
                let (report, _, panicked) = run_scoped(name, run, 2002, settings);
                assert!(!panicked, "{name} panicked");
                report
            };
            let cached = report(true);
            assert!(cached.cost.is_some(), "{name} has a Cost digest");
            assert_eq!(cached, report(false), "{name}: the route cache changed the report");
        }
    }

    /// E4 (which forwards packets) reporting the ambient intensity it ran at.
    fn e4_reporting_intensity(seed: u64) -> ExperimentReport {
        let mut report = e04_source_routing::run(seed);
        report.summary = format!("intensity {}", obs::settings().intensity);
        report
    }

    fn e4_then_panic(seed: u64) -> ExperimentReport {
        e04_source_routing::run(seed);
        panic!("deliberate test panic after E4's packets");
    }

    #[test]
    fn a_panicked_chaos_cell_leaves_its_worker_thread_clean() {
        let plain = || {
            let report = run_captured("E4", e4_reporting_intensity, 3);
            let (_, record, _) =
                run_scoped("E4", e4_reporting_intensity, 3, obs::ObsMode::Cost.into());
            (report, record.ambient_faults)
        };
        let fresh = std::thread::spawn(plain).join().unwrap();
        let after_chaos = std::thread::spawn(move || {
            let config = ChaosConfig {
                intensities: vec![1.0],
                seeds: 1,
                base_seed: 3,
                only: None,
                threads: Some(1),
            };
            let chaos = run_chaos_entries(&[("E4", e4_then_panic)], &config).unwrap();
            let cell = &chaos.experiments[0].intensities[0];
            assert_eq!(cell.panics, 1);
            assert!(cell.faults.faults() > 0, "the panicked cell keeps its pre-panic tally");
            plain()
        })
        .join()
        .unwrap();
        assert_eq!(after_chaos.0.summary, "intensity 0");
        assert_eq!(after_chaos.1, tussle_sim::FaultStats::default(), "an empty fault tally");
        assert!(after_chaos.0.cost.is_some());
        assert_eq!(after_chaos, fresh, "same report and Cost digest as a fresh thread");
    }

    #[test]
    fn cost_digests_are_stable_across_runs() {
        let a: Vec<_> = run_all(9).into_iter().map(|r| (r.id.clone(), r.cost)).collect();
        let b: Vec<_> = run_all(9).into_iter().map(|r| (r.id.clone(), r.cost)).collect();
        assert_eq!(a, b);
    }
}
