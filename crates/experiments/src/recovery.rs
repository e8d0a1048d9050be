//! Crash-injection recovery oracle: resume must equal never-crashed.
//!
//! For every `(experiment, seed, kill point)` cell the harness runs the
//! experiment three times, all three on the same index space — the
//! engine-event cursor (every experiment drives the engine, so the cursor
//! is a universal kill surface):
//!
//! 1. **Golden** — uninterrupted, under a cost observation scope. Its
//!    final report (cost digest, rng draw count, forwards included) is the
//!    ground truth, and its engine-event count bounds the kill cursor.
//! 2. **Crash** — under a checkpoint scope capturing every `every` events,
//!    with an injected panic at a seeded random engine-event index. The
//!    PR 2 panic isolation ([`crate::run_isolated`]) catches the crash;
//!    the checkpoint guard is held *outside* that boundary, so the
//!    snapshots survive the death.
//! 3. **Resume** — a successor process's replay: the run restarts from its
//!    deterministic inputs and, when the event cursor reaches the latest
//!    checkpoint's, the scope verifies every recorded field byte-exactly
//!    (rng seed + stream position, queue shape, trace digest, substrate
//!    digests) and then fires the engine's restore hook, invalidating the
//!    route memo exactly as a real restore would. The resumed report must
//!    equal the golden byte-for-byte.
//!
//! The resume is the oracle's active probe of the cache-invisibility
//! invariant (DESIGN.md §7): it bumps the network's topology generation
//! mid-run where the golden never did, so any cached state that leaks
//! into behavior shows up as `identical == false`. An event-free golden
//! (possible only for synthetic entries injected by tests — every
//! registry experiment schedules events) short-circuits to a vacuous
//! no-kill cell without the extra replay the old observable-step design
//! needed.
//!
//! ## Determinism
//!
//! Same execution model as the chaos campaign: the cells run on the job
//! grid ([`crate::grid`]), results come back in job order, and the report
//! is byte-identical across thread counts. Checkpoint scopes are
//! thread-local, so job placement cannot leak snapshots between cells.

use crate::grid::par_map;
use crate::ExperimentEntry;
use tussle_core::report::{RecoveryCell, RecoveryReport};
use tussle_core::ExperimentReport;
use tussle_sim::checkpoint::{self, CheckpointConfig, CheckpointPolicy, Snapshot};
use tussle_sim::{RestoreError, SimRng};

/// What to subject to crash injection.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Seeds per experiment (`base_seed..base_seed + seeds`). Must be
    /// nonzero.
    pub seeds: u64,
    /// First seed of the contiguous range.
    pub base_seed: u64,
    /// Kill points per `(experiment, seed)` pair. Must be nonzero; each is
    /// an independent seeded-random event index in the golden run's range.
    pub kill_points: u64,
    /// Checkpoint interval in events. Must be ≥ 1.
    pub every: u64,
    /// Restrict to these experiment ids; `None` runs the whole registry.
    pub only: Option<Vec<String>>,
    /// Worker-thread cap; `None` uses the machine's available parallelism.
    pub threads: Option<usize>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            seeds: 2,
            base_seed: 1,
            kill_points: 1,
            every: 500,
            only: None,
            threads: None,
        }
    }
}

/// Why a recovery campaign could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// `seeds` was zero.
    NoSeeds,
    /// `kill_points` was zero.
    NoKillPoints,
    /// `every` was zero.
    ZeroInterval,
    /// An id in `only` names no experiment in the registry.
    UnknownExperiment(String),
    /// A snapshot failed validation (wrong version or broken self-digest).
    BadSnapshot(RestoreError),
}

impl core::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryError::NoSeeds => f.write_str("recovery campaign needs at least one seed"),
            RecoveryError::NoKillPoints => {
                f.write_str("recovery campaign needs at least one kill point")
            }
            RecoveryError::ZeroInterval => {
                f.write_str("checkpoint interval must be at least 1 event")
            }
            RecoveryError::UnknownExperiment(id) => crate::UnknownExperiment::fmt_id(id, f),
            RecoveryError::BadSnapshot(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Run the recovery campaign over the experiment registry (or the `only`
/// subset). See the module docs for the execution model.
pub fn run_recovery(config: &RecoveryConfig) -> Result<RecoveryReport, RecoveryError> {
    let selected =
        crate::select(config.only.as_deref()).map_err(|e| RecoveryError::UnknownExperiment(e.0))?;
    run_recovery_entries(&selected, config)
}

/// Run the campaign over an explicit entry list, ignoring `config.only`.
/// Public so tests can inject synthetic experiments alongside or instead
/// of the registry.
pub fn run_recovery_entries(
    entries: &[ExperimentEntry],
    config: &RecoveryConfig,
) -> Result<RecoveryReport, RecoveryError> {
    if config.seeds == 0 {
        return Err(RecoveryError::NoSeeds);
    }
    if config.kill_points == 0 {
        return Err(RecoveryError::NoKillPoints);
    }
    if config.every == 0 {
        return Err(RecoveryError::ZeroInterval);
    }

    let jobs: Vec<(ExperimentEntry, u64, u64)> = entries
        .iter()
        .flat_map(|&entry| {
            (0..config.seeds).flat_map(move |i| {
                let seed = config.base_seed.wrapping_add(i);
                (0..config.kill_points).map(move |kill_point| (entry, seed, kill_point))
            })
        })
        .collect();
    let cells = par_map(&jobs, config.threads, |&((name, run), seed, kill_point)| {
        run_cell(name, run, seed, kill_point, config.every)
    });
    Ok(RecoveryReport {
        base_seed: config.base_seed,
        seeds: config.seeds,
        kill_points: config.kill_points,
        every: config.every,
        cells,
    })
}

/// The kill event for one cell: a seeded random engine-event index in
/// `1..=golden_events`, decorrelated across experiments, seeds and kill
/// points. `None` when the golden run processed no engine events (only
/// possible for synthetic event-free entries), so there is nowhere to
/// crash.
fn kill_event(name: &str, seed: u64, kill_point: u64, golden_events: u64) -> Option<u64> {
    if golden_events == 0 {
        return None;
    }
    let mut rng = SimRng::seed_from_u64(seed).fork(&format!("recovery:{name}:{kill_point}"));
    Some(rng.range(1..=golden_events))
}

/// Run one `(experiment, seed, kill point)` cell: golden, crash, resume.
fn run_cell(
    name: &str,
    run: fn(u64) -> ExperimentReport,
    seed: u64,
    kill_point: u64,
    every: u64,
) -> RecoveryCell {
    let mut cell = RecoveryCell {
        id: name.to_owned(),
        seed,
        kill_point,
        kill_at: None,
        golden_events: 0,
        checkpoints: 0,
        resumed_from: 0,
        crashed: false,
        verified: false,
        identical: false,
        detail: String::new(),
    };

    // 1. Golden: the uninterrupted ground truth.
    let (golden, golden_panicked) = crate::run_isolated(name, run, seed);
    if golden_panicked {
        cell.detail = format!("golden run panicked: {}", golden.summary);
        return cell;
    }
    cell.golden_events = golden.cost.as_ref().map_or(0, |c| c.events);
    cell.kill_at = kill_event(name, seed, kill_point, cell.golden_events);

    let Some(kill_at) = cell.kill_at else {
        // Nothing to crash: the run scheduled no engine events (a synthetic
        // test entry — every registry experiment schedules events). The
        // cell is vacuously recovered; the golden already proved the run
        // completes, so no extra replay is performed.
        cell.verified = true;
        cell.identical = true;
        return cell;
    };

    // 2. Crash: checkpoint every `every` events, die at `kill_at`. The
    // guard lives outside run_isolated's catch_unwind so the snapshots
    // survive the injected panic.
    let guard = checkpoint::begin(
        CheckpointConfig::new(CheckpointPolicy::every_n_events(every))
            .kill_at(kill_at)
            .meta(name, seed),
    );
    let (_crash_report, crash_panicked) = crate::run_isolated(name, run, seed);
    let crash = guard.finish();
    cell.crashed = crash_panicked && crash.killed_at == Some(kill_at);
    cell.checkpoints = crash.snapshots.len() as u64;
    if !cell.crashed {
        cell.detail = format!(
            "injected crash did not fire (killed_at {:?}, events {})",
            crash.killed_at, crash.cursor
        );
        return cell;
    }
    let latest: Option<Snapshot> = crash.snapshots.last().cloned();
    cell.resumed_from = latest.as_ref().map_or(0, |s| s.cursor);

    // 3. Resume: replay from genesis, verify at the checkpoint frontier
    // (which also fires the restore hook — the route-memo invalidation a
    // real restore performs), and finish the run.
    let verify_cfg = match &latest {
        Some(snap) => {
            CheckpointConfig::new(CheckpointPolicy::manual()).verify(snap.clone()).meta(name, seed)
        }
        None => CheckpointConfig::new(CheckpointPolicy::manual()).meta(name, seed),
    };
    let guard = checkpoint::begin(verify_cfg);
    let (resumed, resume_panicked) = crate::run_isolated(name, run, seed);
    let resume = guard.finish();

    cell.verified = !resume_panicked
        && resume.divergence.is_none()
        && match &latest {
            Some(snap) => resume.verified_at == Some(snap.cursor),
            // Genesis resume: no checkpoint existed, nothing to verify.
            None => true,
        };
    if let Some(err) = &resume.divergence {
        cell.detail = divergence_detail(err);
    } else if !cell.verified {
        cell.detail = format!(
            "resume never reached the checkpoint (verified_at {:?}, wanted {:?})",
            resume.verified_at,
            latest.as_ref().map(|s| s.cursor)
        );
    }

    cell.identical = resumed == golden;
    if cell.identical && cell.verified {
        cell.detail.clear();
    } else if !cell.identical && cell.detail.is_empty() {
        cell.detail = report_diff_detail(&golden, &resumed);
    }
    cell
}

fn divergence_detail(err: &RestoreError) -> String {
    format!("{err}")
}

/// A one-line diagnosis of where a resumed report differs from its golden.
fn report_diff_detail(golden: &ExperimentReport, resumed: &ExperimentReport) -> String {
    let (g, r) = (&golden.cost, &resumed.cost);
    match (g, r) {
        (Some(g), Some(r)) if g.digest != r.digest => {
            format!("run digest differs: golden {} vs resumed {}", g.digest, r.digest)
        }
        (Some(g), Some(r)) if g.rng_draws != r.rng_draws => {
            format!("rng draws differ: golden {} vs resumed {}", g.rng_draws, r.rng_draws)
        }
        (Some(g), Some(r)) if g.forwards != r.forwards => {
            format!("forwards differ: golden {} vs resumed {}", g.forwards, r.forwards)
        }
        _ => "reports differ outside the cost appendix".to_owned(),
    }
}

/// Outcome of resuming a persisted snapshot from disk, for `tussle-cli
/// resume`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeOutcome {
    /// The snapshot's experiment id.
    pub experiment: String,
    /// The snapshot's seed.
    pub seed: u64,
    /// The snapshot's event cursor.
    pub cursor: u64,
    /// Did the replay verify the snapshot byte-exactly?
    pub verified: bool,
    /// First divergence, if the replay did not match.
    pub divergence: Option<RestoreError>,
    /// The finished run's report.
    pub report: ExperimentReport,
}

/// Resume an experiment run from a snapshot: replay deterministically,
/// verify byte-exactly at the snapshot's cursor (firing the restore hook),
/// and finish the run. The snapshot names its experiment and seed, so the
/// caller provides nothing but the file.
pub fn resume_from_snapshot(snapshot: &Snapshot) -> Result<ResumeOutcome, RecoveryError> {
    snapshot.validate().map_err(RecoveryError::BadSnapshot)?;
    let (name, run) = crate::select(Some(std::slice::from_ref(&snapshot.meta.experiment)))
        .map_err(|e| RecoveryError::UnknownExperiment(e.0))?[0];
    let seed = snapshot.meta.seed;
    let guard = checkpoint::begin(
        CheckpointConfig::new(CheckpointPolicy::manual()).verify(snapshot.clone()).meta(name, seed),
    );
    let (report, _panicked) = crate::run_isolated(name, run, seed);
    let record = guard.finish();
    Ok(ResumeOutcome {
        experiment: name.to_owned(),
        seed,
        cursor: snapshot.cursor,
        verified: record.verified_at == Some(snapshot.cursor) && record.divergence.is_none(),
        divergence: record.divergence,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seeds: u64, kill_points: u64, every: u64, only: &[&str]) -> RecoveryConfig {
        RecoveryConfig {
            seeds,
            base_seed: 1,
            kill_points,
            every,
            only: Some(only.iter().map(|s| (*s).to_owned()).collect()),
            threads: None,
        }
    }

    #[test]
    fn config_validation() {
        let cfg = RecoveryConfig { seeds: 0, ..RecoveryConfig::default() };
        assert_eq!(run_recovery(&cfg), Err(RecoveryError::NoSeeds));
        let cfg = RecoveryConfig { kill_points: 0, ..RecoveryConfig::default() };
        assert_eq!(run_recovery(&cfg), Err(RecoveryError::NoKillPoints));
        let cfg = RecoveryConfig { every: 0, ..RecoveryConfig::default() };
        assert_eq!(run_recovery(&cfg), Err(RecoveryError::ZeroInterval));
        let err = run_recovery(&quick(1, 1, 100, &["E99"])).unwrap_err();
        assert_eq!(err, RecoveryError::UnknownExperiment("E99".into()));
    }

    #[test]
    fn networked_experiment_recovers_from_an_injected_crash() {
        // E4 schedules its forwarding bursts as chained engine events, so
        // the crash lands mid-chain and the resume is a genesis replay
        // held to byte-exact equality.
        let report = run_recovery(&quick(1, 2, 200, &["E4"])).unwrap();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.crashed, "kill at {:?} never fired: {}", cell.kill_at, cell.detail);
            assert!(cell.golden_events > 0);
            assert!(cell.verified, "{}", cell.detail);
            assert!(cell.identical, "{}", cell.detail);
        }
        assert!(report.all_recovered());
    }

    #[test]
    fn formerly_loop_driven_experiment_now_presents_a_kill_surface() {
        // E1 was pure accounting before the engine migration; it now
        // schedules its regimes as engine events and must crash + recover
        // like every other registry experiment.
        let report = run_recovery(&quick(1, 1, 100, &["E1"])).unwrap();
        let cell = &report.cells[0];
        assert!(cell.kill_at.is_some());
        assert!(cell.golden_events > 0);
        assert!(cell.crashed, "{}", cell.detail);
        assert!(cell.recovered(), "{}", cell.detail);
    }

    #[test]
    fn event_free_synthetic_entry_yields_a_vacuous_no_kill_cell() {
        // An experiment that never touches the engine has no kill surface;
        // the cell is vacuously recovered with no extra replay.
        fn pure(_seed: u64) -> tussle_core::ExperimentReport {
            tussle_core::ExperimentReport {
                id: "EX".into(),
                section: "—".into(),
                paper_claim: String::new(),
                summary: String::new(),
                table: tussle_core::Table::new("t", &[]),
                shape_holds: true,
                cost: None,
                scoreboard: None,
            }
        }
        let entries: Vec<ExperimentEntry> = vec![("EX", pure)];
        let report = run_recovery_entries(&entries, &quick(1, 1, 100, &[])).unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.kill_at, None);
        assert_eq!(cell.golden_events, 0);
        assert!(!cell.crashed);
        assert!(cell.recovered(), "{}", cell.detail);
    }

    #[test]
    fn rng_driven_experiment_crashes_mid_draw_and_recovers() {
        // E14's rng draws happen inside engine-event handlers, so the
        // event cursor brackets every draw the games make.
        let report = run_recovery(&quick(1, 1, 100, &["E14"])).unwrap();
        let cell = &report.cells[0];
        assert!(cell.crashed, "{}", cell.detail);
        assert!(cell.recovered(), "{}", cell.detail);
    }

    #[test]
    fn kill_events_are_seeded_and_in_range() {
        let a = kill_event("E4", 1, 0, 1000);
        assert_eq!(a, kill_event("E4", 1, 0, 1000), "deterministic");
        assert_ne!(a, kill_event("E4", 1, 1, 1000), "kill points decorrelate");
        assert_ne!(a, kill_event("E5", 1, 0, 1000), "experiments decorrelate");
        for k in 0..50 {
            let c = kill_event("E4", 7, k, 10).unwrap();
            assert!((1..=10).contains(&c));
        }
        assert_eq!(kill_event("E4", 1, 0, 0), None);
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let mut jsons = Vec::new();
        for threads in [1, 3] {
            let cfg = RecoveryConfig { threads: Some(threads), ..quick(2, 1, 150, &["E4", "E14"]) };
            jsons.push(run_recovery(&cfg).unwrap().to_json());
        }
        assert_eq!(jsons[0], jsons[1]);
    }

    #[test]
    fn resume_from_snapshot_replays_and_verifies() {
        // Find E9's event count, crash at the last event (every earlier
        // event is already checkpointed), then resume from the latest
        // snapshot the way the CLI would.
        let (golden, _) = crate::run_isolated("E9", crate::e09_encryption::run, 3);
        let events = golden.cost.as_ref().map(|c| c.events).unwrap();
        assert!(events > 0, "E9 must process engine events");
        let guard = checkpoint::begin(
            CheckpointConfig::new(CheckpointPolicy::every_n_events(1))
                .kill_at(events)
                .meta("E9", 3),
        );
        let (_report, panicked) = crate::run_isolated("E9", crate::e09_encryption::run, 3);
        let record = guard.finish();
        assert!(panicked);
        let snap = record.snapshots.last().cloned().expect("a checkpoint before the crash");

        let outcome = resume_from_snapshot(&snap).unwrap();
        assert_eq!(outcome.experiment, "E9");
        assert_eq!(outcome.seed, 3);
        assert_eq!(outcome.cursor, snap.cursor);
        assert!(outcome.verified, "{:?}", outcome.divergence);
        assert_eq!(outcome.report, golden);
    }

    #[test]
    fn resume_from_unknown_experiment_is_an_error() {
        let snap = Snapshot::sealed(
            tussle_sim::SnapshotMeta { experiment: "E99".into(), seed: 1 },
            10,
            tussle_sim::EngineState {
                now_micros: 0,
                next_seq: 0,
                events_processed: 10,
                queued: 0,
                queue_digest: "0".repeat(16),
                rng_seed: "00".repeat(32),
                rng_word_pos: 0,
                trace_entries: 0,
                trace_dropped: 0,
                open_spans: 0,
                trace_digest: "0".repeat(16),
                run_digest: "0".repeat(16),
            },
            vec![],
        );
        assert_eq!(
            resume_from_snapshot(&snap),
            Err(RecoveryError::UnknownExperiment("E99".into()))
        );
    }

    #[test]
    fn a_synthetic_always_panicking_experiment_fails_its_golden() {
        fn boom(_seed: u64) -> tussle_core::ExperimentReport {
            panic!("synthetic failure");
        }
        let entries: Vec<ExperimentEntry> = vec![("EX", boom)];
        let report = run_recovery_entries(&entries, &quick(1, 1, 100, &[])).unwrap();
        let cell = &report.cells[0];
        assert!(!cell.recovered());
        assert!(cell.detail.contains("golden run panicked"), "{}", cell.detail);
    }
}
