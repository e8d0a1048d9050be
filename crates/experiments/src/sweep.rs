//! Multi-seed sweep: shape stability across the whole registry.
//!
//! Every experiment asserts a qualitative *shape* ("markup rises with
//! switching cost"), not a point value, so a single lucky seed proves
//! little. The sweep fans the registry over `experiments × seeds` jobs,
//! runs them on the job grid ([`crate::grid`]), and reduces the per-seed
//! reports into a [`SweepReport`]: per-experiment hold rate,
//! min/median/max of every numeric table cell, and the first failing seed
//! with its full report.
//!
//! ## Determinism
//!
//! Each job depends only on its `(experiment, seed)` pair; workers steal
//! jobs from a shared atomic index, so *which* thread runs a job varies
//! run to run, but results land in a fixed slot and the reduction walks
//! the grid in registry-then-seed order. The rendered report — markdown
//! and JSON — is therefore byte-identical across runs regardless of
//! thread count or scheduling.

use crate::grid::par_map;
use tussle_core::report::{CellStats, ExperimentSweep, FirstFailure, SweepReport};
use tussle_core::ExperimentReport;

/// What to sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of seeds (`base_seed..base_seed + seeds`). Must be nonzero.
    pub seeds: u64,
    /// First seed of the contiguous range.
    pub base_seed: u64,
    /// Restrict to these experiment ids (e.g. `["E1", "E5"]`); `None`
    /// sweeps the whole registry.
    pub only: Option<Vec<String>>,
    /// Worker-thread cap; `None` uses the machine's available parallelism.
    pub threads: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { seeds: 32, base_seed: 1, only: None, threads: None }
    }
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// `seeds` was zero.
    NoSeeds,
    /// An id in `only` names no experiment in the registry.
    UnknownExperiment(String),
}

impl core::fmt::Display for SweepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SweepError::NoSeeds => f.write_str("sweep needs at least one seed"),
            SweepError::UnknownExperiment(id) => crate::UnknownExperiment::fmt_id(id, f),
        }
    }
}

impl std::error::Error for SweepError {}

/// Run the sweep. See the module docs for the execution model.
pub fn run_sweep(config: &SweepConfig) -> Result<SweepReport, SweepError> {
    if config.seeds == 0 {
        return Err(SweepError::NoSeeds);
    }
    let selected =
        crate::select(config.only.as_deref()).map_err(|e| SweepError::UnknownExperiment(e.0))?;
    let seeds: Vec<u64> = (0..config.seeds).map(|i| config.base_seed.wrapping_add(i)).collect();
    let jobs: Vec<(crate::ExperimentEntry, u64)> =
        selected.iter().flat_map(|&entry| seeds.iter().map(move |&seed| (entry, seed))).collect();
    let reports =
        par_map(&jobs, config.threads, |&((name, run), seed)| crate::run_captured(name, run, seed));

    // Sequential reduction in fixed (experiment, seed) order; nothing past
    // this point depends on how the parallel phase was scheduled.
    let experiments = selected
        .iter()
        .zip(reports.chunks(seeds.len()))
        .map(|((name, _), row)| reduce_experiment(name, &seeds, row))
        .collect();
    Ok(SweepReport { base_seed: config.base_seed, seeds: config.seeds, experiments })
}

/// Reduce one experiment's per-seed reports into its sweep summary.
/// Shared with the chaos campaign so an intensity-0 chaos cell reduces
/// through exactly the same code path as a plain sweep.
pub(crate) fn reduce_experiment(
    name: &str,
    seeds: &[u64],
    reports: &[ExperimentReport],
) -> ExperimentSweep {
    let holds = reports.iter().filter(|r| r.shape_holds).count() as u64;
    let first_failure = seeds
        .iter()
        .zip(reports)
        .find(|(_, r)| !r.shape_holds)
        .map(|(seed, r)| FirstFailure { seed: *seed, report: r.clone() });

    // Cell universe: every (row, column) seen under any seed, in first-seen
    // row-major order, so a row that only appears under some seeds still
    // gets stats.
    let mut cell_keys: Vec<(String, String)> = Vec::new();
    for r in reports {
        for row in &r.table.rows {
            for column in &r.table.columns {
                let key = (row.label.clone(), column.clone());
                if !cell_keys.contains(&key) {
                    cell_keys.push(key);
                }
            }
        }
    }

    let cells = cell_keys
        .into_iter()
        .filter_map(|(row, column)| {
            let values: Vec<f64> =
                reports.iter().filter_map(|r| r.table.cell_f64(&row, &column)).collect();
            CellStats::from_samples(&row, &column, values)
        })
        .collect();

    // Fold every per-seed run digest, in seed order, into one experiment
    // digest. Two sweeps agree on it iff every underlying run agreed —
    // the structural cross-thread determinism check. A panicked run has no
    // cost and folds as a distinct tag.
    let mut h = tussle_sim::Fnv1a::new();
    h.write_u64(reports.len() as u64);
    for r in reports {
        match &r.cost {
            Some(c) => {
                h.write_u8(1);
                h.write_str(&c.digest);
            }
            None => h.write_u8(0),
        }
    }
    let digest = tussle_sim::RunDigest(h.finish()).to_hex();

    // Aggregate per-seed scoreboards (merge is commutative, but the walk is
    // in seed order anyway). Digest-excluded, like wall time.
    let mut scoreboard = tussle_core::Scoreboard::default();
    for r in reports {
        if let Some(b) = &r.scoreboard {
            scoreboard.merge(b);
        }
    }
    let scoreboard = if scoreboard.is_empty() { None } else { Some(scoreboard) };

    ExperimentSweep {
        id: name.to_owned(),
        section: reports.first().map_or_else(String::new, |r| r.section.clone()),
        seeds: seeds.len() as u64,
        holds,
        cells,
        first_failure,
        digest,
        scoreboard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seeds: u64, only: &[&str]) -> SweepConfig {
        SweepConfig {
            seeds,
            base_seed: 1,
            only: Some(only.iter().map(|s| (*s).to_owned()).collect()),
            threads: None,
        }
    }

    #[test]
    fn zero_seeds_is_an_error() {
        let cfg = SweepConfig { seeds: 0, ..SweepConfig::default() };
        assert_eq!(run_sweep(&cfg), Err(SweepError::NoSeeds));
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let err = run_sweep(&quick(2, &["E99"])).unwrap_err();
        assert_eq!(err, SweepError::UnknownExperiment("E99".into()));
        assert!(err.to_string().contains("E99"));
    }

    #[test]
    fn only_filter_selects_and_orders() {
        let report = run_sweep(&quick(2, &["e5", "E1"])).unwrap();
        let ids: Vec<&str> = report.experiments.iter().map(|e| e.id.as_str()).collect();
        // Requested order is preserved; matching is case-insensitive but
        // ids are reported in registry spelling.
        assert_eq!(ids, ["E5", "E1"]);
        assert_eq!(report.seeds, 2);
    }

    #[test]
    fn stats_cover_every_numeric_cell() {
        let report = run_sweep(&quick(3, &["E1"])).unwrap();
        let e1 = &report.experiments[0];
        assert_eq!(e1.seeds, 3);
        assert!(!e1.cells.is_empty(), "E1's table has numeric cells");
        for c in &e1.cells {
            assert!(c.min <= c.median && c.median <= c.max, "{}/{}", c.row, c.column);
            assert!(c.samples >= 1 && c.samples <= 3);
        }
    }

    #[test]
    fn digests_are_identical_across_thread_counts() {
        // The structural determinism check: per-experiment digests (folded
        // from every per-seed RunDigest) must agree regardless of how the
        // parallel phase was scheduled. The full byte-compare canary lives
        // in tests/experiments_all.rs.
        let mut digests = Vec::new();
        for threads in [1, 2, 5] {
            let cfg = SweepConfig {
                seeds: 3,
                base_seed: 7,
                only: Some(vec!["E1".into(), "E14".into(), "E17".into()]),
                threads: Some(threads),
            };
            let report = run_sweep(&cfg).unwrap();
            digests.push(
                report
                    .experiments
                    .iter()
                    .map(|e| (e.id.clone(), e.digest.clone()))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
        for (id, d) in &digests[0] {
            assert_eq!(d.len(), 16, "{id} digest is 16 hex chars, got '{d}'");
        }
    }
}
