//! Experiment reporting: paper prediction vs. measured value.
//!
//! The paper has no tables of its own; each experiment reproduces a
//! *narrated prediction* (see `EXPERIMENTS.md`). A [`Table`] holds the
//! measured rows; an [`ExperimentReport`] pairs it with the paper's claim
//! and whether the measured shape holds. Tables render as markdown (for
//! the docs) and JSON (for machine checking in integration tests).

use serde::{Deserialize, Serialize};
use tussle_sim::FaultStats;

/// One table row: a label and its cell values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label (the parameter point, e.g. `"switching_cost=$600"`).
    pub label: String,
    /// Cell values, aligned with the table's column names.
    pub values: Vec<String>,
}

/// A results table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column names (excluding the label column).
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// An empty table.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; the cell count must match the columns.
    pub fn push_row(&mut self, label: &str, values: &[String]) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch in '{}'", self.title);
        self.rows.push(Row { label: label.to_owned(), values: values.to_vec() });
    }

    /// Fetch a cell by row label and column name.
    pub fn cell(&self, label: &str, column: &str) -> Option<&str> {
        let col = self.columns.iter().position(|c| c == column)?;
        let row = self.rows.iter().find(|r| r.label == label)?;
        row.values.get(col).map(|s| s.as_str())
    }

    /// Fetch a numeric cell.
    pub fn cell_f64(&self, label: &str, column: &str) -> Option<f64> {
        self.cell(label, column)?.trim_start_matches('$').parse().ok()
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str("| |");
        for c in &self.columns {
            out.push_str(&format!(" {c} |"));
        }
        out.push_str("\n|---|");
        for _ in &self.columns {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("| {} |", row.label));
            for v in &row.values {
                out.push_str(&format!(" {v} |"));
            }
            out.push('\n');
        }
        out
    }
}

/// What one experiment run cost, as observed by the ambient observation
/// scope (`tussle_sim::obs`). Every field is deterministic for a given
/// seed — wall time deliberately does **not** appear here (it would poison
/// golden reports and cross-thread byte-equality); `tussle-cli profile`
/// reports wall time separately.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunCost {
    /// Engine events dispatched.
    pub events: u64,
    /// Randomness-consuming rng calls.
    pub rng_draws: u64,
    /// Per-hop packet forwards in the network substrate.
    pub forwards: u64,
    /// Span-enter edges recorded.
    pub spans: u64,
    /// Structured trace entries recorded (events + span edges).
    pub trace_entries: u64,
    /// Hex rendering of the run's `RunDigest` — equality across two runs
    /// is the determinism check.
    pub digest: String,
    /// Windowed virtual-time activity (events / forwards / faults per
    /// bucket). Deterministic, but *not* part of the digest: series are a
    /// derived projection of streams the digest already covers.
    pub series: tussle_sim::RunSeries,
}

impl RunCost {
    /// Render as the cost appendix under an experiment table: the one-line
    /// counter summary, plus a second line of windowed activity series
    /// when any were recorded.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "*Cost: {} events, {} rng draws, {} forwards, {} spans, {} trace entries — digest `{}`.*",
            self.events, self.rng_draws, self.forwards, self.spans, self.trace_entries, self.digest
        );
        if !self.series.is_empty() {
            out.push_str(&format!(
                "\n*Activity: events {}; forwards {}; faults {}.*",
                self.series.events.render(),
                self.series.forwards.render(),
                self.series.faults.render()
            ));
        }
        out
    }
}

/// A full experiment report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment id (e.g. `"E1"`).
    pub id: String,
    /// Paper section reproduced (e.g. `"V.A.1"`).
    pub section: String,
    /// The paper's narrated prediction, quoted or paraphrased.
    pub paper_claim: String,
    /// Measured results.
    pub table: Table,
    /// Did the measured shape match the prediction?
    pub shape_holds: bool,
    /// One-sentence summary of what was measured.
    pub summary: String,
    /// Cost appendix, attached by the experiment runner (experiments
    /// construct reports with `cost: None`; the runner fills it in from
    /// the observation scope).
    pub cost: Option<RunCost>,
    /// Per-stakeholder tussle scoreboard, attached by the runner like
    /// `cost`. Deterministic but digest-excluded (a derived projection of
    /// already-digested streams, like wall time and series).
    pub scoreboard: Option<crate::Scoreboard>,
}

impl ExperimentReport {
    /// Render the whole report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## {} — §{}\n\n**Paper claim.** {}\n\n**Measured.** {} **Shape holds: {}.**\n\n{}",
            self.id,
            self.section,
            self.paper_claim,
            self.summary,
            if self.shape_holds { "yes" } else { "NO" },
            self.table.to_markdown()
        );
        if let Some(cost) = &self.cost {
            out.push('\n');
            out.push_str(&cost.to_markdown());
            out.push('\n');
        }
        if let Some(scoreboard) = &self.scoreboard {
            out.push('\n');
            out.push_str(&scoreboard.to_markdown());
            out.push('\n');
        }
        out
    }

    /// Serialize to JSON (for `EXPERIMENTS.md` regeneration and tests).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports serialize")
    }
}

/// Aggregate statistics for one numeric table cell across swept seeds.
///
/// Built by the multi-seed sweep: for every `(row, column)` cell whose value
/// parses as a finite number, the minimum, maximum and median of that value
/// across all seeds. `samples` counts the seeds in which the cell was a
/// finite number; a cell that is numeric under some seeds but not others
/// will have `samples` below the sweep's seed count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStats {
    /// Row label the cell sits in.
    pub row: String,
    /// Column name the cell sits in.
    pub column: String,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Median observed value (mean of the middle two for even counts).
    pub median: f64,
    /// Number of seeds in which this cell parsed as a finite number.
    pub samples: u64,
}

impl CellStats {
    /// Compute stats from raw observations. Non-finite values (a NaN cell
    /// prints as `NaN` and parses back) carry no ordering information and
    /// are dropped. Returns `None` when no finite samples remain.
    pub fn from_samples(row: &str, column: &str, values: Vec<f64>) -> Option<CellStats> {
        let mut values: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let median =
            if n % 2 == 1 { values[n / 2] } else { (values[n / 2 - 1] + values[n / 2]) / 2.0 };
        Some(CellStats {
            row: row.to_owned(),
            column: column.to_owned(),
            min: values[0],
            max: values[n - 1],
            median,
            samples: n as u64,
        })
    }
}

/// The first seed under which an experiment's shape failed to hold,
/// together with the full report from that run for diagnosis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FirstFailure {
    /// The failing seed.
    pub seed: u64,
    /// The complete report produced under that seed.
    pub report: ExperimentReport,
}

/// Shape-stability summary for one experiment across all swept seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSweep {
    /// Experiment id (e.g. `"E1"`).
    pub id: String,
    /// Paper section reproduced.
    pub section: String,
    /// Seeds swept.
    pub seeds: u64,
    /// Seeds under which the shape held.
    pub holds: u64,
    /// Per-cell spread statistics, in table order (row-major).
    pub cells: Vec<CellStats>,
    /// First failing seed with its full report, if any seed failed.
    pub first_failure: Option<FirstFailure>,
    /// Hex digest folding every per-seed `RunDigest` in seed order —
    /// the structural cross-thread determinism check: two sweeps of the
    /// same experiment agree on this iff every underlying run agreed.
    pub digest: String,
    /// Per-seed tussle scoreboards merged across the sweep. Deterministic
    /// but excluded from `digest` — lane addition commutes, so the merge
    /// is schedule-independent.
    pub scoreboard: Option<crate::Scoreboard>,
}

impl ExperimentSweep {
    /// Fraction of seeds under which the shape held, in `[0, 1]`.
    pub fn hold_rate(&self) -> f64 {
        if self.seeds == 0 {
            return 0.0;
        }
        self.holds as f64 / self.seeds as f64
    }

    /// Look up the stats of one cell.
    pub fn cell(&self, row: &str, column: &str) -> Option<&CellStats> {
        self.cells.iter().find(|c| c.row == row && c.column == column)
    }
}

/// Result of sweeping the experiment registry over many seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// First seed of the contiguous swept range.
    pub base_seed: u64,
    /// Number of seeds swept (`base_seed..base_seed + seeds`).
    pub seeds: u64,
    /// Per-experiment summaries, in registry order.
    pub experiments: Vec<ExperimentSweep>,
}

impl SweepReport {
    /// Did every experiment hold its shape under every seed?
    pub fn all_hold(&self) -> bool {
        self.experiments.iter().all(|e| e.holds == e.seeds)
    }

    /// Render as GitHub-flavoured markdown: a hold-rate summary table, then
    /// a per-cell spread table for each experiment.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "# Seed sweep — {} experiments × {} seeds (base {})\n\n\
             | experiment | section | hold rate | first failing seed |\n\
             |---|---|---|---|\n",
            self.experiments.len(),
            self.seeds,
            self.base_seed,
        );
        for e in &self.experiments {
            out.push_str(&format!(
                "| {} | §{} | {}/{} | {} |\n",
                e.id,
                e.section,
                e.holds,
                e.seeds,
                e.first_failure.as_ref().map_or("—".to_owned(), |f| f.seed.to_string()),
            ));
        }
        for e in &self.experiments {
            out.push_str(&format!("\n## {} — cell spread across seeds\n\n", e.id));
            out.push_str("| row | column | min | median | max | samples |\n");
            out.push_str("|---|---|---|---|---|---|\n");
            for c in &e.cells {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} |\n",
                    c.row, c.column, c.min, c.median, c.max, c.samples,
                ));
            }
            if let Some(s) = &e.scoreboard {
                out.push('\n');
                out.push_str(&s.to_markdown());
                out.push('\n');
            }
            if let Some(f) = &e.first_failure {
                out.push_str(&format!(
                    "\nFirst failure (seed {}):\n\n{}",
                    f.seed,
                    f.report.to_markdown()
                ));
            }
        }
        out
    }

    /// Serialize to JSON. Output is byte-identical for identical sweep
    /// results, independent of how the sweep was scheduled.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep reports serialize")
    }
}

/// One experiment's sweep results at one chaos intensity: the usual
/// shape-stability summary plus panic and fault-activity tallies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntensityStats {
    /// Fault intensity in `[0, 1]` these runs were subjected to.
    pub intensity: f64,
    /// Runs (seeds) that panicked; panics surface as synthetic failing
    /// reports, so they also count against `sweep.holds`.
    pub panics: u64,
    /// Ambient fault activity summed across all seeds at this intensity.
    /// All-zero totals at a positive intensity mean the experiment never
    /// touched the network substrate — its margin is vacuous and the
    /// report says so rather than hiding it.
    pub faults: FaultStats,
    /// The per-seed shape-stability summary, identical in form to a plain
    /// seed sweep (at intensity 0 it must be byte-identical to one).
    pub sweep: ExperimentSweep,
}

/// Robustness margin for one experiment across the intensity grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarginStats {
    /// Experiment id (e.g. `"E1"`).
    pub id: String,
    /// Paper section reproduced.
    pub section: String,
    /// The highest intensity at which the claim held for *every* seed,
    /// scanning the grid in ascending order and stopping at the first
    /// intensity that breaks — the margin is the contiguous-from-zero
    /// guarantee, not a lucky island further up. `None` when even the
    /// lowest intensity fails.
    pub margin: Option<f64>,
    /// Per-intensity results, in ascending intensity order.
    pub intensities: Vec<IntensityStats>,
}

impl MarginStats {
    /// Compute the robustness margin from per-intensity results (assumed
    /// ascending). See the field docs for the contiguity rule.
    pub fn margin_of(intensities: &[IntensityStats]) -> Option<f64> {
        let mut margin = None;
        for s in intensities {
            if s.panics == 0 && s.sweep.seeds > 0 && s.sweep.holds == s.sweep.seeds {
                margin = Some(s.intensity);
            } else {
                break;
            }
        }
        margin
    }

    /// Total fault events (drops + corruptions + rate limits) across the
    /// whole grid — zero means chaos never touched this experiment.
    pub fn total_faults(&self) -> u64 {
        self.intensities.iter().map(|s| s.faults.faults()).sum()
    }

    /// Total panicking runs across the whole grid.
    pub fn total_panics(&self) -> u64 {
        self.intensities.iter().map(|s| s.panics).sum()
    }
}

/// Result of a chaos campaign: the experiment registry swept over a grid
/// of fault intensities × seeds, with a robustness margin per experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// First seed of the contiguous swept range.
    pub base_seed: u64,
    /// Seeds per intensity (`base_seed..base_seed + seeds`).
    pub seeds: u64,
    /// The intensity grid, ascending.
    pub intensities: Vec<f64>,
    /// Per-experiment margins, in registry order.
    pub experiments: Vec<MarginStats>,
}

impl ChaosReport {
    /// Look up one experiment's margin stats by id.
    pub fn experiment(&self, id: &str) -> Option<&MarginStats> {
        self.experiments.iter().find(|e| e.id == id)
    }

    /// Did any run anywhere in the campaign panic?
    pub fn any_panics(&self) -> bool {
        self.experiments.iter().any(|e| e.total_panics() > 0)
    }

    /// Render as GitHub-flavoured markdown: one margin summary row per
    /// experiment, with per-intensity hold counts and fault totals.
    pub fn to_markdown(&self) -> String {
        let grid = self.intensities.iter().map(|i| format!("{i}")).collect::<Vec<_>>().join(", ");
        let mut out = format!(
            "# Chaos campaign — {} experiments × {} intensities × {} seeds (base {})\n\n\
             Intensity grid: {}\n\n\
             | experiment | section | margin | holds by intensity | faults | panics |\n\
             |---|---|---|---|---|---|\n",
            self.experiments.len(),
            self.intensities.len(),
            self.seeds,
            self.base_seed,
            grid,
        );
        for e in &self.experiments {
            let holds = e
                .intensities
                .iter()
                .map(|s| format!("{}/{}", s.sweep.holds, s.sweep.seeds))
                .collect::<Vec<_>>()
                .join(" ");
            let faults = e.total_faults();
            let margin = match e.margin {
                Some(m) if faults == 0 && self.intensities.len() > 1 => format!("{m} (vacuous)"),
                Some(m) => format!("{m}"),
                None => "none".to_owned(),
            };
            out.push_str(&format!(
                "| {} | §{} | {} | {} | {} | {} |\n",
                e.id,
                e.section,
                margin,
                holds,
                faults,
                e.total_panics(),
            ));
        }
        out.push_str(
            "\nA *vacuous* margin means no ambient fault ever fired: the experiment does \
             not exercise the network substrate, so surviving the grid is trivial.\n",
        );
        out
    }

    /// Serialize to JSON. Output is byte-identical for identical campaign
    /// results, independent of how workers were scheduled.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("chaos reports serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("markup vs switching cost", &["markup", "switches"]);
        t.push_row("$0", &["0.05".into(), "12".into()]);
        t.push_row("$600", &["0.55".into(), "1".into()]);
        t
    }

    #[test]
    fn cells_are_addressable() {
        let t = table();
        assert_eq!(t.cell("$0", "markup"), Some("0.05"));
        assert_eq!(t.cell("$600", "switches"), Some("1"));
        assert_eq!(t.cell("$0", "nope"), None);
        assert_eq!(t.cell("zzz", "markup"), None);
        assert_eq!(t.cell_f64("$600", "markup"), Some(0.55));
    }

    #[test]
    fn dollar_cells_parse() {
        let mut t = Table::new("x", &["price"]);
        t.push_row("a", &["$42.5".into()]);
        assert_eq!(t.cell_f64("a", "price"), Some(42.5));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row("r", &["1".into()]);
    }

    #[test]
    fn markdown_rendering() {
        let md = table().to_markdown();
        assert!(md.contains("### markup vs switching cost"));
        assert!(md.contains("| $600 | 0.55 | 1 |"));
        assert!(md.contains("|---|---|---|"));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = ExperimentReport {
            id: "E1".into(),
            section: "V.A.1".into(),
            paper_claim: "lock-in sustains markup".into(),
            table: table(),
            shape_holds: true,
            summary: "markup rises with switching cost".into(),
            cost: None,
            scoreboard: None,
        };
        let json = r.to_json();
        let back: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(r.to_markdown().contains("Shape holds: yes"));
    }

    #[test]
    fn cell_stats_order_statistics() {
        let s = CellStats::from_samples("r", "c", vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.min, s.median, s.max, s.samples), (1.0, 2.0, 3.0, 3));
        // Even count: median is the mean of the middle two.
        let s = CellStats::from_samples("r", "c", vec![4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert!(CellStats::from_samples("r", "c", vec![]).is_none());
        // Non-finite observations are dropped, not propagated.
        let s = CellStats::from_samples("r", "c", vec![f64::NAN, 1.0, f64::INFINITY]).unwrap();
        assert_eq!((s.min, s.max, s.samples), (1.0, 1.0, 1));
        assert!(CellStats::from_samples("r", "c", vec![f64::NAN]).is_none());
    }

    fn sweep() -> SweepReport {
        SweepReport {
            base_seed: 1,
            seeds: 4,
            experiments: vec![
                ExperimentSweep {
                    id: "E1".into(),
                    section: "V.A.1".into(),
                    seeds: 4,
                    holds: 4,
                    cells: vec![CellStats::from_samples("$0", "markup", vec![0.05, 0.06]).unwrap()],
                    first_failure: None,
                    digest: "0123456789abcdef".into(),
                    scoreboard: None,
                },
                ExperimentSweep {
                    id: "E2".into(),
                    section: "V.A.2".into(),
                    seeds: 4,
                    holds: 3,
                    cells: vec![],
                    first_failure: Some(FirstFailure {
                        seed: 3,
                        report: ExperimentReport {
                            id: "E2".into(),
                            section: "V.A.2".into(),
                            paper_claim: "x".into(),
                            table: table(),
                            shape_holds: false,
                            summary: "y".into(),
                            cost: None,
                            scoreboard: None,
                        },
                    }),
                    digest: "fedcba9876543210".into(),
                    scoreboard: None,
                },
            ],
        }
    }

    #[test]
    fn sweep_report_hold_rates_and_json_roundtrip() {
        let s = sweep();
        assert!(!s.all_hold());
        assert_eq!(s.experiments[0].hold_rate(), 1.0);
        assert_eq!(s.experiments[1].hold_rate(), 0.75);
        assert_eq!(s.experiments[0].cell("$0", "markup").unwrap().samples, 2);
        let back: SweepReport = serde_json::from_str(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn sweep_markdown_lists_failures() {
        let md = sweep().to_markdown();
        assert!(md.contains("| E1 | §V.A.1 | 4/4 | — |"));
        assert!(md.contains("| E2 | §V.A.2 | 3/4 | 3 |"));
        assert!(md.contains("First failure (seed 3):"));
        assert!(md.contains("| $0 | markup | 0.05 | 0.055 | 0.06 | 2 |"));
    }

    fn stats_at(
        intensity: f64,
        holds: u64,
        seeds: u64,
        panics: u64,
        faults: u64,
    ) -> IntensityStats {
        IntensityStats {
            intensity,
            panics,
            faults: FaultStats { passed: 10, dropped: faults, corrupted: 0, rate_limited: 0 },
            sweep: ExperimentSweep {
                id: "E1".into(),
                section: "V.A.1".into(),
                seeds,
                holds,
                cells: vec![],
                first_failure: None,
                digest: "0000000000000000".into(),
                scoreboard: None,
            },
        }
    }

    #[test]
    fn margin_is_contiguous_from_the_lowest_intensity() {
        // holds at 0 and 0.2, breaks at 0.4, holds again at 0.6: the island
        // at 0.6 must not count — margin is 0.2.
        let grid = vec![
            stats_at(0.0, 4, 4, 0, 0),
            stats_at(0.2, 4, 4, 0, 9),
            stats_at(0.4, 2, 4, 0, 30),
            stats_at(0.6, 4, 4, 0, 80),
        ];
        assert_eq!(MarginStats::margin_of(&grid), Some(0.2));
    }

    #[test]
    fn margin_none_when_the_floor_fails_and_full_when_nothing_breaks() {
        assert_eq!(MarginStats::margin_of(&[stats_at(0.0, 3, 4, 0, 0)]), None);
        let grid = vec![stats_at(0.0, 4, 4, 0, 0), stats_at(1.0, 4, 4, 0, 50)];
        assert_eq!(MarginStats::margin_of(&grid), Some(1.0));
        assert_eq!(MarginStats::margin_of(&[]), None);
    }

    #[test]
    fn panics_break_the_margin_even_if_holds_lie() {
        // A defensive rule: holds==seeds but panics>0 still breaks the chain.
        let grid = vec![stats_at(0.0, 4, 4, 0, 0), stats_at(0.2, 4, 4, 1, 5)];
        assert_eq!(MarginStats::margin_of(&grid), Some(0.0));
    }

    fn chaos() -> ChaosReport {
        let grid = vec![stats_at(0.0, 4, 4, 0, 0), stats_at(0.5, 3, 4, 1, 12)];
        let margin = MarginStats::margin_of(&grid);
        ChaosReport {
            base_seed: 1,
            seeds: 4,
            intensities: vec![0.0, 0.5],
            experiments: vec![
                MarginStats { id: "E1".into(), section: "V.A.1".into(), margin, intensities: grid },
                MarginStats {
                    id: "E2".into(),
                    section: "V.B".into(),
                    margin: Some(0.5),
                    intensities: vec![stats_at(0.0, 4, 4, 0, 0), stats_at(0.5, 4, 4, 0, 0)],
                },
            ],
        }
    }

    #[test]
    fn chaos_report_markdown_and_json_roundtrip() {
        let c = chaos();
        assert!(c.any_panics());
        assert_eq!(c.experiment("E1").unwrap().margin, Some(0.0));
        assert_eq!(c.experiment("E1").unwrap().total_faults(), 12);
        assert_eq!(c.experiment("E1").unwrap().total_panics(), 1);
        assert!(c.experiment("E3").is_none());
        let md = c.to_markdown();
        assert!(md.contains("| E1 | §V.A.1 | 0 | 4/4 3/4 | 12 | 1 |"));
        // E2 never saw a fault across a multi-point grid: flagged vacuous
        assert!(md.contains("| E2 | §V.B | 0.5 (vacuous) | 4/4 4/4 | 0 | 0 |"));
        assert!(md.contains("Intensity grid: 0, 0.5"));
        let back: ChaosReport = serde_json::from_str(&c.to_json()).unwrap();
        assert_eq!(back, c);
    }
}
