//! Chaos campaign: robustness margins for every paper claim.
//!
//! The seed sweep (see [`crate::sweep`]) asks "does the claim hold across
//! seeds?"; the chaos campaign asks the robustness question on top: *how
//! much infrastructure misbehaviour does each claim survive?* It fans the
//! registry over an `experiments × intensities × seeds` grid. Each run's
//! observation scope carries its *ambient fault intensity*
//! ([`tussle_sim::obs::Settings::intensity`]), which the network substrate
//! draws on per hop, so experiments need no chaos-specific plumbing — and
//! experiments that never touch the network show zero fault activity, which
//! the report surfaces as a *vacuous* margin rather than hiding it.
//!
//! ## Determinism
//!
//! Same execution model as the sweep: the `(experiment, intensity, seed)`
//! jobs run on the job grid ([`crate::grid`]), results come back in job
//! order, and the reduction walks them in that fixed order. A job's
//! intensity and fault tally live in its own scope, which ends with the
//! job, so job placement cannot leak state between runs. The rendered
//! [`ChaosReport`] is byte-identical across thread counts. An intensity-0
//! cell runs exactly the sweep's harness and draws no extra randomness, so
//! that column of the grid is byte-identical to a plain sweep.
//!
//! ## Panic isolation
//!
//! Every run goes through the harness behind [`crate::run_captured`]: a
//! panicking experiment becomes a synthetic failing report (counted in
//! [`IntensityStats::panics`]) that keeps its pre-panic fault tally, and
//! the campaign completes regardless.

use crate::grid::par_map;
use crate::sweep::reduce_experiment;
use crate::ExperimentEntry;
use tussle_core::report::{ChaosReport, IntensityStats, MarginStats};
use tussle_core::ExperimentReport;
use tussle_sim::{obs, FaultStats};

/// What to subject to chaos.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Fault intensities to scan, each in `[0, 1]`. Sorted ascending and
    /// deduplicated before running; must be nonempty. Include `0.0` to
    /// anchor the grid at the fault-free baseline.
    pub intensities: Vec<f64>,
    /// Seeds per intensity (`base_seed..base_seed + seeds`). Must be
    /// nonzero.
    pub seeds: u64,
    /// First seed of the contiguous range.
    pub base_seed: u64,
    /// Restrict to these experiment ids; `None` runs the whole registry.
    pub only: Option<Vec<String>>,
    /// Worker-thread cap; `None` uses the machine's available parallelism.
    pub threads: Option<usize>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            intensities: vec![0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
            seeds: 8,
            base_seed: 1,
            only: None,
            threads: None,
        }
    }
}

/// Why a chaos campaign could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// `seeds` was zero.
    NoSeeds,
    /// `intensities` was empty.
    NoIntensities,
    /// An intensity was NaN or outside `[0, 1]`.
    BadIntensity(f64),
    /// An id in `only` names no experiment in the registry.
    UnknownExperiment(String),
}

impl core::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChaosError::NoSeeds => f.write_str("chaos campaign needs at least one seed"),
            ChaosError::NoIntensities => f.write_str("chaos campaign needs at least one intensity"),
            ChaosError::BadIntensity(i) => {
                write!(f, "intensity {i} is not a number in [0, 1]")
            }
            ChaosError::UnknownExperiment(id) => crate::UnknownExperiment::fmt_id(id, f),
        }
    }
}

impl std::error::Error for ChaosError {}

/// Run the chaos campaign over the experiment registry (or the `only`
/// subset). See the module docs for the execution model.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, ChaosError> {
    let selected =
        crate::select(config.only.as_deref()).map_err(|e| ChaosError::UnknownExperiment(e.0))?;
    run_chaos_entries(&selected, config)
}

/// Run the campaign over an explicit entry list, ignoring `config.only`.
/// Public so tests can inject synthetic experiments (e.g. one that always
/// panics) alongside or instead of the registry.
pub fn run_chaos_entries(
    entries: &[ExperimentEntry],
    config: &ChaosConfig,
) -> Result<ChaosReport, ChaosError> {
    if config.seeds == 0 {
        return Err(ChaosError::NoSeeds);
    }
    if config.intensities.is_empty() {
        return Err(ChaosError::NoIntensities);
    }
    for &i in &config.intensities {
        if !i.is_finite() || !(0.0..=1.0).contains(&i) {
            return Err(ChaosError::BadIntensity(i));
        }
    }
    let mut intensities = config.intensities.clone();
    intensities.sort_by(f64::total_cmp);
    intensities.dedup();

    let seeds: Vec<u64> = (0..config.seeds).map(|i| config.base_seed.wrapping_add(i)).collect();
    let seeds = &seeds;
    let jobs: Vec<(ExperimentEntry, f64, u64)> = entries
        .iter()
        .flat_map(|&entry| {
            intensities.iter().flat_map(move |&i| seeds.iter().map(move |&seed| (entry, i, seed)))
        })
        .collect();
    let cells: Vec<ChaosCell> =
        par_map(&jobs, config.threads, |&((name, run), intensity, seed)| {
            let settings = obs::Settings { intensity, ..obs::ObsMode::Cost.into() };
            let (report, record, panicked) = crate::run_scoped(name, run, seed, settings);
            (report, panicked, record.ambient_faults)
        });

    // Sequential reduction in fixed (experiment, intensity, seed) order;
    // nothing past this point depends on parallel scheduling.
    let experiments = entries
        .iter()
        .zip(cells.chunks(intensities.len() * seeds.len()))
        .map(|((name, _), row)| {
            let per_intensity: Vec<IntensityStats> = intensities
                .iter()
                .zip(row.chunks(seeds.len()))
                .map(|(&intensity, cell)| {
                    let reports: Vec<ExperimentReport> =
                        cell.iter().map(|(r, _, _)| r.clone()).collect();
                    let panics = cell.iter().filter(|(_, panicked, _)| *panicked).count() as u64;
                    let mut faults = FaultStats::default();
                    for (_, _, f) in cell {
                        faults.merge(f);
                    }
                    IntensityStats {
                        intensity,
                        panics,
                        faults,
                        sweep: reduce_experiment(name, seeds, &reports),
                    }
                })
                .collect();
            MarginStats {
                id: (*name).to_owned(),
                section: per_intensity
                    .first()
                    .map_or_else(String::new, |s| s.sweep.section.clone()),
                margin: MarginStats::margin_of(&per_intensity),
                intensities: per_intensity,
            }
        })
        .collect();

    Ok(ChaosReport { base_seed: config.base_seed, seeds: config.seeds, intensities, experiments })
}

type ChaosCell = (ExperimentReport, bool, FaultStats);

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seeds: u64, intensities: &[f64], only: &[&str]) -> ChaosConfig {
        ChaosConfig {
            intensities: intensities.to_vec(),
            seeds,
            base_seed: 1,
            only: Some(only.iter().map(|s| (*s).to_owned()).collect()),
            threads: None,
        }
    }

    #[test]
    fn config_validation() {
        let cfg = ChaosConfig { seeds: 0, ..ChaosConfig::default() };
        assert_eq!(run_chaos(&cfg), Err(ChaosError::NoSeeds));
        let cfg = ChaosConfig { intensities: vec![], ..ChaosConfig::default() };
        assert_eq!(run_chaos(&cfg), Err(ChaosError::NoIntensities));
        let cfg = ChaosConfig { intensities: vec![0.0, 1.5], ..ChaosConfig::default() };
        assert_eq!(run_chaos(&cfg), Err(ChaosError::BadIntensity(1.5)));
        let cfg = ChaosConfig { intensities: vec![f64::NAN], ..ChaosConfig::default() };
        assert!(matches!(run_chaos(&cfg), Err(ChaosError::BadIntensity(_))));
        let err = run_chaos(&quick(1, &[0.0], &["E99"])).unwrap_err();
        assert_eq!(err, ChaosError::UnknownExperiment("E99".into()));
    }

    #[test]
    fn intensities_are_sorted_and_deduped() {
        let report = run_chaos(&quick(1, &[0.4, 0.0, 0.4], &["E1"])).unwrap();
        assert_eq!(report.intensities, vec![0.0, 0.4]);
        assert_eq!(report.experiments[0].intensities.len(), 2);
    }

    #[test]
    fn networked_experiment_sees_faults_and_isolated_one_does_not() {
        // E4 drives packets through the network substrate; E14 is a pure
        // game-theory experiment that never touches it.
        let report = run_chaos(&quick(2, &[0.0, 0.8], &["E4", "E14"])).unwrap();
        let e4 = report.experiment("E4").unwrap();
        let e14 = report.experiment("E14").unwrap();
        assert_eq!(e4.intensities[0].faults, FaultStats::default(), "no faults at intensity 0");
        assert!(e4.intensities[1].faults.total() > 0, "ambient chaos reached E4's packets");
        assert_eq!(e14.total_faults(), 0, "E14 never touches the network");
        assert!(report.to_markdown().contains("(vacuous)"));
    }

    #[test]
    fn output_and_digests_are_identical_across_thread_counts() {
        // Every (experiment, intensity) cell reduces through the sweep's
        // `reduce_experiment`, so each carries a digest folded from its
        // per-seed RunDigests. Compare those structurally across thread
        // counts, and keep the whole-report byte compare as the canary.
        let mut jsons = Vec::new();
        let mut digests = Vec::new();
        for threads in [1, 3] {
            let cfg = ChaosConfig {
                threads: Some(threads),
                ..quick(2, &[0.0, 0.6], &["E4", "E17", "E14"])
            };
            let report = run_chaos(&cfg).unwrap();
            digests.push(
                report
                    .experiments
                    .iter()
                    .flat_map(|e| {
                        e.intensities
                            .iter()
                            .map(|s| (e.id.clone(), s.intensity, s.sweep.digest.clone()))
                    })
                    .collect::<Vec<_>>(),
            );
            jsons.push(report.to_json());
        }
        assert_eq!(digests[0], digests[1]);
        for (id, intensity, d) in &digests[0] {
            assert_eq!(d.len(), 16, "{id}@{intensity} digest is 16 hex chars, got '{d}'");
        }
        assert_eq!(jsons[0], jsons[1]);
    }
}
