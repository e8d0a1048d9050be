//! # tussle-cli — argument parsing and command dispatch
//!
//! The logic behind the `tussle-cli` binary, kept in a library so the
//! parser and renderers are unit-testable. Commands:
//!
//! * `experiments [--seed N] [--json] [--only E1,E5]` — run the evaluation
//!   (or a subset) and print markdown or JSON reports;
//! * `sweep --seeds N [--base S] [--only E1,E5] [--json] [--threads K]` —
//!   run the registry over many seeds and report shape stability;
//! * `chaos [--intensities 0,0.2,..] [--seeds N] [--base S] [--only E1,E5]
//!   [--json] [--threads K]` — run the chaos campaign and report each
//!   claim's robustness margin;
//! * `profile [--seed N] [--json] [--collapsed] [--only E1,E5]` — run
//!   experiments under the self-profiling observation scope and print
//!   wall-time/virtual-time attribution per topic, or (`--collapsed`)
//!   flamegraph-ready collapsed-stack lines attributed by virtual time;
//! * `trace [--seed N] [--only E1,E5] [--grep econ.] [--json]` — run
//!   experiments and dump their structured trace streams, optionally
//!   filtered by topic prefix (a filter matching nothing is an error);
//!   `--json` emits the same entries as machine-readable JSON;
//! * `explain --only E9 --event e7 [--seed N] [--json]` — replay one
//!   experiment and walk the causal provenance chain from a root injection
//!   down to the named event;
//! * `diff --only E9 --seed 2002 --seed-b 2003 [--intensity X]
//!   [--intensity-b Y] [--threads K] [--json]` — run two configurations of
//!   one experiment and bisect their trace streams to the first diverging
//!   entry, with aligned context and each side's causal ancestry;
//! * `fuzz [--budget N] [--seeds S] [--base B] [--json] [--corpus DIR]
//!   [--threads K]` — the coverage-guided tussle-space fuzzer: seeded
//!   random scenarios composing topology, traffic, faults, middleboxes,
//!   contracts and policy, checked against the cross-layer invariant
//!   oracles, with violating scenarios shrunk and (with `--corpus`)
//!   serialized as repro entries;
//! * `export [--seed N] [--only E9] [--format chrome|prom|jsonl]
//!   [--out FILE] [--threads K]` — run experiments under the profiling
//!   scope and render their observation records as tool-ready telemetry:
//!   a Chrome/Perfetto trace-event document (`chrome`, exactly one
//!   experiment), Prometheus text exposition (`prom`) or one JSON trace
//!   entry per line (`jsonl`) — all driven by virtual time only, so the
//!   bytes are identical across runs and worker counts;
//! * `health [--bench BENCH_sim.json] [--baseline FILE] [--json]` — the
//!   cross-campaign health gate: holds the bench sidecar to per-entry
//!   regression thresholds against a baseline sidecar (refusing readings
//!   whose recorded hosts differ), re-derives a
//!   cross-section of campaign digests at two worker counts, and checks
//!   scoreboard conservation; any regression exits nonzero;
//! * `list` — list experiment ids, sections and one-line claims;
//! * `ladder <mechanism>` — play an escalation ladder to quiescence from a
//!   named opening mechanism;
//! * `mechanisms` — print the mechanism/counter catalog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use std::str::FromStr;
use tussle_core::{EscalationLadder, Mechanism};
use tussle_experiments as experiments;
use tussle_sim::EventId;

/// One bench trend row in the health report: a current median held
/// against its baseline under a per-entry threshold.
#[derive(Debug, Clone, Serialize)]
pub struct BenchTrend {
    /// Bench id from the sidecar.
    pub bench: String,
    /// Baseline median in nanoseconds.
    pub baseline_ns: f64,
    /// Current median in nanoseconds.
    pub current_ns: f64,
    /// `current_ns / baseline_ns`.
    pub ratio: f64,
    /// Largest acceptable ratio for this bench.
    pub threshold: f64,
    /// Did the ratio breach the threshold?
    pub regressed: bool,
}

/// One campaign digest re-derived by the health gate's determinism probe.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignDigest {
    /// Experiment id.
    pub id: String,
    /// The sweep's folded per-seed run digest.
    pub digest: String,
}

/// The verdict printed by `tussle-cli health`, folding the bench sidecar
/// trend, a campaign-digest determinism probe and a scoreboard
/// conservation check into one pass/fail gate.
#[derive(Debug, Clone, Serialize)]
pub struct HealthReport {
    /// Path of the current bench sidecar.
    pub bench_file: String,
    /// Path of the baseline sidecar.
    pub baseline_file: String,
    /// Per-bench trends, in baseline order.
    pub trends: Vec<BenchTrend>,
    /// Benches present in the baseline but missing from the current
    /// sidecar (each counts as a regression — deletion hides trends).
    pub missing: Vec<String>,
    /// Benches whose two readings carry unlike host records (each counts
    /// as a regression, its line naming both hosts — a ratio across hosts
    /// measures the hosts, not the code).
    pub incomparable: Vec<String>,
    /// Did the campaign digests agree across worker counts?
    pub determinism_ok: bool,
    /// The probe's per-experiment digests (at one worker).
    pub campaign_digests: Vec<CampaignDigest>,
    /// Lane-entry total of the probed run's scoreboard.
    pub scoreboard_entries: u64,
    /// Did the scoreboard lanes account for every trace entry?
    pub scoreboard_conserves: bool,
    /// The probed run's winning stakeholder, if any lane was named.
    pub who_won: Option<String>,
    /// Every regression found, rendered as one line each.
    pub regressions: Vec<String>,
    /// True iff `regressions` is empty.
    pub healthy: bool,
}

/// Experiments the health gate sweeps for its campaign-digest probe: an
/// econ-heavy, a ladder-heavy and a game-theoretic cross-section of the
/// registry, kept small so `health` stays fast enough for CI.
const HEALTH_PROBE: [&str; 3] = ["E1", "E9", "E14"];

/// The experiment whose scoreboard the health gate checks for lane
/// conservation — E9 annotates both user and provider lanes.
const HEALTH_SCOREBOARD_PROBE: &str = "E9";

/// The bench-id prefix of the obs family, which guards the
/// disabled-instrumentation overhead the whole observability layer
/// promises to keep invisible.
const OBS_BENCHES: &str = "obs/";

/// Per-entry regression ceiling on `current/baseline` bench medians: the
/// obs family gets the tighter leash.
fn bench_threshold(bench: &str) -> f64 {
    if bench.starts_with(OBS_BENCHES) {
        1.15
    } else {
        1.25
    }
}

/// The host a bench reading was taken on, as the bench harness records it
/// beside each median: the cores the bench process could use and the build
/// profile.
#[derive(Debug, Clone, PartialEq)]
struct BenchHost {
    nproc: u64,
    profile: String,
}

impl std::fmt::Display for BenchHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} build on {} cores", self.profile, self.nproc)
    }
}

/// One sidecar line: a bench's median and, when recorded, its host.
#[derive(Debug, Clone, PartialEq)]
struct BenchReading {
    bench: String,
    median_ns: f64,
    host: Option<BenchHost>,
}

/// Load a bench sidecar: a JSON array of `{"bench": .., "median_ns": ..}`
/// objects as written by the bench harness, each with a host record
/// (`nproc` and `profile`) unless it predates them. Empty or malformed
/// sidecars are errors — a gate that silently checks nothing is worse than
/// none.
fn load_bench_sidecar(path: &str) -> Result<Vec<BenchReading>, UsageError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| UsageError(format!("could not read bench sidecar '{path}': {e}")))?;
    let parsed: serde::Value = serde_json::from_str(&text)
        .map_err(|e| UsageError(format!("bench sidecar '{path}' is not JSON: {e:?}")))?;
    let entries = match &parsed {
        serde::Value::Seq(items) => items,
        _ => return Err(UsageError(format!("bench sidecar '{path}': expected a top-level array"))),
    };
    let mut out = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let bench = match entry.field("bench") {
            Ok(serde::Value::Str(s)) => s.clone(),
            _ => {
                return Err(UsageError(format!(
                    "bench sidecar '{path}': entry {i} has no string 'bench'"
                )))
            }
        };
        let median_ns = match entry.field("median_ns") {
            Ok(serde::Value::U64(n)) => *n as f64,
            Ok(serde::Value::I64(n)) => *n as f64,
            Ok(serde::Value::F64(x)) => *x,
            _ => {
                return Err(UsageError(format!(
                    "bench sidecar '{path}': entry '{bench}' has no numeric 'median_ns'"
                )))
            }
        };
        if median_ns <= 0.0 {
            return Err(UsageError(format!(
                "bench sidecar '{path}': entry '{bench}' has non-positive median {median_ns}"
            )));
        }
        let host = match (entry.field("nproc"), entry.field("profile")) {
            (Ok(serde::Value::U64(nproc)), Ok(serde::Value::Str(profile))) => {
                Some(BenchHost { nproc: *nproc, profile: profile.clone() })
            }
            _ => None,
        };
        out.push(BenchReading { bench, median_ns, host });
    }
    if out.is_empty() {
        return Err(UsageError(format!("bench sidecar '{path}' holds no bench entries")));
    }
    Ok(out)
}

/// Hold each baseline reading against the current one: its trend, or the
/// reason it has none (missing from `current`, or read on an unlike host).
/// Every missing, unlike-host and over-threshold bench adds one line to
/// `regressions`.
fn compare_sidecars(
    current: &[BenchReading],
    baseline: &[BenchReading],
    bench_file: &str,
    regressions: &mut Vec<String>,
) -> (Vec<BenchTrend>, Vec<String>, Vec<String>) {
    let mut trends = Vec::new();
    let mut missing = Vec::new();
    let mut incomparable = Vec::new();
    for base in baseline {
        let bench = &base.bench;
        let Some(cur) = current.iter().find(|cur| cur.bench == *bench) else {
            missing.push(bench.clone());
            regressions.push(format!(
                "bench '{bench}' is in the baseline but missing from '{bench_file}'"
            ));
            continue;
        };
        if let (Some(current), Some(baseline)) = (&cur.host, &base.host) {
            if current != baseline {
                regressions.push(format!(
                    "bench '{bench}' is not comparable: current reading from a {current}, \
                     baseline from a {baseline}"
                ));
                incomparable.push(bench.clone());
                continue;
            }
        }
        let (current_ns, baseline_ns) = (cur.median_ns, base.median_ns);
        let ratio = current_ns / baseline_ns;
        let threshold = bench_threshold(bench);
        let regressed = ratio > threshold;
        if regressed {
            regressions.push(format!(
                "bench '{bench}' regressed: {current_ns:.0}ns vs baseline \
                 {baseline_ns:.0}ns ({ratio:.2}x > {threshold:.2}x)"
            ));
        }
        trends.push(BenchTrend {
            bench: bench.clone(),
            baseline_ns,
            current_ns,
            ratio,
            threshold,
            regressed,
        });
    }
    (trends, missing, incomparable)
}

/// Run the health gate's three checks and fold them into a report.
fn run_health(bench_file: &str, baseline_file: &str) -> Result<HealthReport, UsageError> {
    let current = load_bench_sidecar(bench_file)?;
    let baseline = load_bench_sidecar(baseline_file)?;
    let mut regressions = Vec::new();
    let (trends, missing, incomparable) =
        compare_sidecars(&current, &baseline, bench_file, &mut regressions);

    // Determinism probe: sweep a registry cross-section at two worker
    // counts; the folded campaign digests must agree bit-for-bit.
    let probe = |threads: usize| {
        experiments::run_sweep(&experiments::SweepConfig {
            seeds: 2,
            base_seed: 1,
            only: Some(HEALTH_PROBE.iter().map(|s| (*s).to_owned()).collect()),
            threads: Some(threads),
        })
        .map_err(|e| UsageError(e.to_string()))
    };
    let one = probe(1)?;
    let two = probe(2)?;
    let campaign_digests: Vec<CampaignDigest> = one
        .experiments
        .iter()
        .map(|e| CampaignDigest { id: e.id.clone(), digest: e.digest.clone() })
        .collect();
    let determinism_ok = one
        .experiments
        .iter()
        .map(|e| (&e.id, &e.digest))
        .eq(two.experiments.iter().map(|e| (&e.id, &e.digest)));
    if !determinism_ok {
        regressions.push("campaign digests differ between --threads 1 and --threads 2".to_owned());
    }

    // Scoreboard probe: the per-stakeholder fold must conserve the run's
    // global trace-entry counter, and a named lane must have won.
    let (name, run) = experiments::select(Some(&[HEALTH_SCOREBOARD_PROBE.to_owned()]))
        .expect("the scoreboard probe experiment is registered")[0];
    let (report, record) = experiments::run_profiled(name, run, 2002);
    let scoreboard_entries =
        report.scoreboard.as_ref().map(tussle_core::Scoreboard::total_entries).unwrap_or(0);
    let scoreboard_conserves =
        report.scoreboard.is_some() && scoreboard_entries == record.trace_entries;
    let who_won = report.scoreboard.as_ref().and_then(tussle_core::Scoreboard::who_won);
    if !scoreboard_conserves {
        regressions.push(format!(
            "scoreboard conservation failed for {HEALTH_SCOREBOARD_PROBE}: {} lane entries vs \
             {} trace entries",
            scoreboard_entries, record.trace_entries
        ));
    }

    let healthy = regressions.is_empty();
    Ok(HealthReport {
        bench_file: bench_file.to_owned(),
        baseline_file: baseline_file.to_owned(),
        trends,
        missing,
        incomparable,
        determinism_ok,
        campaign_digests,
        scoreboard_entries,
        scoreboard_conserves,
        who_won,
        regressions,
        healthy,
    })
}

/// Render a health report as text: a trend table, then one line per probe.
fn render_health(r: &HealthReport) -> String {
    let mut out = format!("# Health — {}\n\n", if r.healthy { "ok" } else { "REGRESSION" });
    out.push_str(&format!("bench sidecar: {} vs baseline {}\n\n", r.bench_file, r.baseline_file));
    out.push_str("| bench | baseline ns | current ns | ratio | threshold | verdict |\n");
    out.push_str("|---|---:|---:|---:|---:|---|\n");
    for t in &r.trends {
        out.push_str(&format!(
            "| {} | {:.0} | {:.0} | {:.3} | {:.2} | {} |\n",
            t.bench,
            t.baseline_ns,
            t.current_ns,
            t.ratio,
            t.threshold,
            if t.regressed { "REGRESSED" } else { "ok" }
        ));
    }
    for m in &r.missing {
        out.push_str(&format!("| {m} | — | missing | — | — | REGRESSED |\n"));
    }
    for m in &r.incomparable {
        out.push_str(&format!("| {m} | — | — | — | — | NOT COMPARABLE |\n"));
    }
    out.push('\n');
    out.push_str(&format!(
        "campaign determinism (sweep {} × 2 seeds, threads 1 vs 2): {}\n",
        HEALTH_PROBE.join(","),
        if r.determinism_ok { "digests identical" } else { "DIGESTS DIVERGED" }
    ));
    for d in &r.campaign_digests {
        out.push_str(&format!("  {} {}\n", d.id, d.digest));
    }
    out.push_str(&format!(
        "scoreboard conservation ({HEALTH_SCOREBOARD_PROBE}, seed 2002): {} lane entries{} — \
         who won: {}\n",
        r.scoreboard_entries,
        if r.scoreboard_conserves { ", conserved" } else { " — CONSERVATION BROKEN" },
        r.who_won.as_deref().unwrap_or("no contest"),
    ));
    if !r.regressions.is_empty() {
        out.push('\n');
        for reg in &r.regressions {
            out.push_str(&format!("regression: {reg}\n"));
        }
    }
    out
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run experiments.
    Experiments {
        /// RNG seed.
        seed: u64,
        /// Emit JSON instead of markdown.
        json: bool,
        /// Restrict to these ids (empty = all).
        only: Vec<String>,
    },
    /// Sweep the registry over many seeds and report shape stability.
    Sweep {
        /// Number of seeds to sweep.
        seeds: u64,
        /// First seed of the range.
        base_seed: u64,
        /// Restrict to these ids (empty = all).
        only: Vec<String>,
        /// Emit JSON instead of markdown.
        json: bool,
        /// Worker-thread cap (`None` = available parallelism).
        threads: Option<usize>,
    },
    /// Run the chaos campaign: fault intensities × seeds, with a
    /// robustness margin per experiment.
    Chaos {
        /// Fault intensities to scan, each in `[0, 1]`.
        intensities: Vec<f64>,
        /// Seeds per intensity.
        seeds: u64,
        /// First seed of the range.
        base_seed: u64,
        /// Restrict to these ids (empty = all).
        only: Vec<String>,
        /// Emit JSON instead of markdown.
        json: bool,
        /// Worker-thread cap (`None` = available parallelism).
        threads: Option<usize>,
    },
    /// Profile experiments: per-topic virtual-time/wall-time attribution.
    Profile {
        /// RNG seed.
        seed: u64,
        /// Emit JSON instead of text.
        json: bool,
        /// Emit collapsed-stack (flamegraph) lines instead of the report.
        collapsed: bool,
        /// Restrict to these ids (empty = all).
        only: Vec<String>,
    },
    /// Explain why one event ran: its causal provenance chain.
    Explain {
        /// The experiment id (exactly one).
        id: String,
        /// RNG seed.
        seed: u64,
        /// The event to explain.
        event: EventId,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// Diff two run configurations of one experiment to their first
    /// diverging trace entry.
    Diff {
        /// The experiment id (exactly one).
        id: String,
        /// Seed of side A.
        seed: u64,
        /// Seed of side B.
        seed_b: u64,
        /// Ambient fault intensity of side A.
        intensity: f64,
        /// Ambient fault intensity of side B.
        intensity_b: f64,
        /// Emit JSON instead of text.
        json: bool,
        /// Worker-thread cap (`None` = available parallelism).
        threads: Option<usize>,
    },
    /// Dump the structured trace stream of one or more experiments.
    Trace {
        /// RNG seed.
        seed: u64,
        /// Restrict to these ids (empty = all).
        only: Vec<String>,
        /// Keep only entries whose topic starts with this prefix.
        grep: Option<String>,
        /// Emit structured JSON instead of text.
        json: bool,
    },
    /// Export observed runs as tool-ready telemetry documents.
    Export {
        /// RNG seed.
        seed: u64,
        /// Restrict to these ids (empty = all; `chrome` needs exactly one).
        only: Vec<String>,
        /// Output format: `chrome`, `prom` or `jsonl`.
        format: String,
        /// Write the exact rendered bytes here instead of stdout.
        out: Option<String>,
        /// Worker-thread cap (`None` = available parallelism).
        threads: Option<usize>,
    },
    /// Run the cross-campaign health gate.
    Health {
        /// Current bench sidecar path.
        bench: String,
        /// Baseline sidecar (`None` = compare the sidecar with itself).
        baseline: Option<String>,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// Run the coverage-guided tussle-space fuzz campaign.
    Fuzz {
        /// Total scenario-execution budget across all chains.
        budget: u64,
        /// Number of mutation chains (one per seed).
        seeds: u64,
        /// First chain seed.
        base_seed: u64,
        /// Directory to serialize shrunk repros into (`None` = don't).
        corpus: Option<String>,
        /// Emit JSON instead of markdown.
        json: bool,
        /// Worker-thread cap (`None` = available parallelism).
        threads: Option<usize>,
    },
    /// List the experiment registry.
    List,
    /// Play an escalation ladder from a mechanism.
    Ladder {
        /// The opening mechanism name.
        mechanism: Mechanism,
    },
    /// Print the mechanism catalog.
    Mechanisms,
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl core::fmt::Display for UsageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for UsageError {}

/// Every catalog mechanism with its CLI name.
pub fn mechanism_names() -> Vec<(&'static str, Mechanism)> {
    use Mechanism::*;
    vec![
        ("port-firewall", PortFirewall),
        ("trust-firewall", TrustFirewall),
        ("nat", Nat),
        ("tunnel", Tunnel),
        ("tunnel-detection", TunnelDetection),
        ("encryption", Encryption),
        ("encryption-blocking", EncryptionBlocking),
        ("steganography", Steganography),
        ("value-pricing", ValuePricing),
        ("paid-source-routing", PaidSourceRouting),
        ("provider-routing", ProviderRouting),
        ("overlay-routing", OverlayRouting),
        ("dns-perversion", DnsPerversion),
        ("server-choice", ServerChoice),
        ("qos-tos-bits", QosTosBits),
        ("qos-port-based", QosPortBased),
        ("third-party-mediation", ThirdPartyMediation),
        ("anonymity", Anonymity),
        ("refusing-anonymous", RefusingAnonymous),
        ("regulation", Regulation),
    ]
}

/// Parse a mechanism by CLI name.
pub fn parse_mechanism(name: &str) -> Result<Mechanism, UsageError> {
    mechanism_names().into_iter().find(|(n, _)| *n == name).map(|(_, m)| m).ok_or_else(|| {
        UsageError(format!(
            "unknown mechanism '{name}'; run `tussle-cli mechanisms` for the catalog"
        ))
    })
}

/// Parse a `--only` id list (`"E1,E4"`). Rejects empty segments so typos
/// like `"E1,,E4"` or a trailing comma fail loudly instead of silently
/// filtering nothing, and duplicate ids (`"E1,E1"`) which would silently
/// run an experiment twice or mask a typo'd second id.
fn parse_only(v: &str) -> Result<Vec<String>, UsageError> {
    let ids: Vec<String> = v
        .split(',')
        .map(|s| {
            let id = s.trim().to_uppercase();
            if id.is_empty() {
                Err(UsageError(format!("malformed --only list '{v}': empty id")))
            } else {
                Ok(id)
            }
        })
        .collect::<Result<_, _>>()?;
    for (i, id) in ids.iter().enumerate() {
        if ids[..i].contains(id) {
            return Err(UsageError(format!("malformed --only list '{v}': duplicate id '{id}'")));
        }
    }
    Ok(ids)
}

/// Parse a `--only` value that must name exactly one experiment
/// (for `explain` and `diff`, which compare/replay a single run).
fn parse_single_only(v: &str) -> Result<String, UsageError> {
    let ids = parse_only(v)?;
    match <[String; 1]>::try_from(ids) {
        Ok([id]) => Ok(id),
        Err(ids) => {
            Err(UsageError(format!("--only must name exactly one experiment here, got {ids:?}")))
        }
    }
}

/// Parse a `--seed` or `--seed-b` value.
fn parse_seed(v: &str) -> Result<u64, UsageError> {
    v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))
}

/// Parse a count that must be at least 1 (`--seeds`, `--budget`,
/// `--threads`). Zero seeds or executions run nothing, and zero workers
/// make no progress.
fn parse_count<T: FromStr + Default + PartialEq>(
    flag: &str,
    noun: &str,
    v: &str,
) -> Result<T, UsageError> {
    let n: T = v.parse().map_err(|_| UsageError(format!("bad {noun} '{v}'")))?;
    if n == T::default() {
        return Err(UsageError(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parse a single fault intensity in `[0, 1]`.
fn parse_intensity(v: &str) -> Result<f64, UsageError> {
    let i: f64 = v.parse().map_err(|_| UsageError(format!("bad intensity '{v}': not a number")))?;
    if !i.is_finite() || !(0.0..=1.0).contains(&i) {
        return Err(UsageError(format!("bad intensity '{v}': must be in [0, 1]")));
    }
    Ok(i)
}

/// Parse an `--intensities` list (`"0,0.2,0.5"`). Each value must be a
/// number in `[0, 1]`; empty segments are rejected like in [`parse_only`].
fn parse_intensities(v: &str) -> Result<Vec<f64>, UsageError> {
    v.split(',')
        .map(|s| {
            let s = s.trim();
            if s.is_empty() {
                return Err(UsageError(format!("malformed --intensities list '{v}': empty value")));
            }
            parse_intensity(s)
        })
        .collect()
}

/// The flag table. Each command lists the `Flag`s it accepts and `scan`s
/// its arguments against them; the flags several commands share are
/// built here, once each.
mod flag {
    use super::{parse_count, parse_only, parse_seed, parse_single_only, UsageError};
    use std::str::FromStr;

    /// Checks a flag's value and stores it (a switch's setter ignores it).
    type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), UsageError> + 'a>;

    /// One flag a command accepts, and what the scan does on reaching it.
    pub(super) struct Flag<'a> {
        name: &'static str,
        /// What the flag's value should be, completing the message
        /// "`name` needs ..." when it is missing; `None` for a switch,
        /// which takes no value.
        needs: Option<&'static str>,
        set: Setter<'a>,
    }

    /// A flag that takes no value: reaching it turns `on` on.
    pub(super) fn switch<'a>(name: &'static str, on: &'a mut bool) -> Flag<'a> {
        Flag {
            name,
            needs: None,
            set: Box::new(move |_| {
                *on = true;
                Ok(())
            }),
        }
    }

    /// A flag whose value `parse` checks and stores in `slot`.
    pub(super) fn value<'a, T: 'a>(
        name: &'static str,
        needs: &'static str,
        slot: &'a mut T,
        parse: impl Fn(&str) -> Result<T, UsageError> + 'a,
    ) -> Flag<'a> {
        Flag {
            name,
            needs: Some(needs),
            set: Box::new(move |v| {
                *slot = parse(v)?;
                Ok(())
            }),
        }
    }

    /// A flag whose value is taken as given: a file or directory path.
    pub(super) fn path<'a, T: From<String> + 'a>(
        name: &'static str,
        needs: &'static str,
        slot: &'a mut T,
    ) -> Flag<'a> {
        value(name, needs, slot, |v| Ok(T::from(v.to_owned())))
    }

    pub(super) fn json(on: &mut bool) -> Flag<'_> {
        switch("--json", on)
    }

    pub(super) fn seed(slot: &mut u64) -> Flag<'_> {
        value("--seed", "a value", slot, parse_seed)
    }

    /// A count flag: a number that must be at least 1 ([`parse_count`]).
    pub(super) fn count<'a, T: FromStr + Default + PartialEq + 'a>(
        name: &'static str,
        needs: &'static str,
        noun: &'static str,
        slot: &'a mut T,
    ) -> Flag<'a> {
        value(name, needs, slot, move |v| parse_count(name, noun, v))
    }

    pub(super) fn seeds(slot: &mut u64) -> Flag<'_> {
        count("--seeds", "a count", "seed count", slot)
    }

    pub(super) fn base(slot: &mut u64) -> Flag<'_> {
        value("--base", "a seed", slot, |v| {
            v.parse().map_err(|_| UsageError(format!("bad base seed '{v}'")))
        })
    }

    /// `--only` as an id list (empty = every experiment).
    pub(super) fn only(slot: &mut Vec<String>) -> Flag<'_> {
        value("--only", "ids like E1,E4", slot, parse_only)
    }

    /// `--only` naming exactly one experiment.
    pub(super) fn one_id(slot: &mut Option<String>) -> Flag<'_> {
        value("--only", "one id like E9", slot, |v| parse_single_only(v).map(Some))
    }

    pub(super) fn threads(slot: &mut Option<usize>) -> Flag<'_> {
        value("--threads", "a count", slot, |v| {
            parse_count("--threads", "thread count", v).map(Some)
        })
    }

    /// Scan `args` against `flags`. Each setter runs as the scan reaches
    /// its flag, so the first bad argument is the one reported.
    pub(super) fn scan<'s>(
        mut args: impl Iterator<Item = &'s String>,
        flags: &mut [Flag<'_>],
    ) -> Result<(), UsageError> {
        while let Some(arg) = args.next() {
            let flag = flags
                .iter_mut()
                .find(|f| f.name == arg)
                .ok_or_else(|| UsageError(format!("unknown flag '{arg}'")))?;
            let v = match flag.needs {
                None => "",
                Some(needs) => {
                    args.next().ok_or_else(|| UsageError(format!("{} needs {needs}", flag.name)))?
                }
            };
            (flag.set)(v)?;
        }
        Ok(())
    }
}

/// Parse the argument vector (without the binary name).
pub fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    use flag::scan;
    let mut it = args.iter();
    match it.next().map(|s| s.as_str()) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("list") => scan(it, &mut []).map(|()| Command::List),
        Some("mechanisms") => scan(it, &mut []).map(|()| Command::Mechanisms),
        Some("ladder") => {
            let name =
                it.next().ok_or_else(|| UsageError("ladder needs a mechanism name".into()))?;
            let mechanism = parse_mechanism(name)?;
            scan(it, &mut [])?;
            Ok(Command::Ladder { mechanism })
        }
        Some("experiments") => {
            let (mut seed, mut json, mut only) = (2002, false, Vec::new());
            scan(it, &mut [flag::seed(&mut seed), flag::json(&mut json), flag::only(&mut only)])?;
            Ok(Command::Experiments { seed, json, only })
        }
        Some("profile") => {
            let (mut seed, mut json, mut collapsed, mut only) = (2002, false, false, Vec::new());
            scan(
                it,
                &mut [
                    flag::seed(&mut seed),
                    flag::json(&mut json),
                    flag::switch("--collapsed", &mut collapsed),
                    flag::only(&mut only),
                ],
            )?;
            if collapsed && json {
                return Err(UsageError(
                    "--collapsed emits flamegraph-ready text; it cannot combine with --json".into(),
                ));
            }
            Ok(Command::Profile { seed, json, collapsed, only })
        }
        Some("explain") => {
            let (mut seed, mut json, mut id, mut event) = (2002, false, None, None);
            scan(
                it,
                &mut [
                    flag::seed(&mut seed),
                    flag::json(&mut json),
                    flag::one_id(&mut id),
                    flag::value("--event", "an id like e7", &mut event, |v| {
                        experiments::causality::parse_event_id(v).map(Some).map_err(UsageError)
                    }),
                ],
            )?;
            let id = id.ok_or_else(|| UsageError("explain needs --only <experiment>".into()))?;
            let event = event.ok_or_else(|| UsageError("explain needs --event <id>".into()))?;
            Ok(Command::Explain { id, seed, event, json })
        }
        Some("diff") => {
            let (mut id, mut seed, mut seed_b, mut json, mut threads) =
                (None, 2002, None, false, None);
            let (mut intensity, mut intensity_b) = (0.0, None);
            scan(
                it,
                &mut [
                    flag::one_id(&mut id),
                    flag::seed(&mut seed),
                    flag::value("--seed-b", "a value", &mut seed_b, |v| parse_seed(v).map(Some)),
                    flag::value("--intensity", "a value", &mut intensity, parse_intensity),
                    flag::value("--intensity-b", "a value", &mut intensity_b, |v| {
                        parse_intensity(v).map(Some)
                    }),
                    flag::json(&mut json),
                    flag::threads(&mut threads),
                ],
            )?;
            let id = id.ok_or_else(|| UsageError("diff needs --only <experiment>".into()))?;
            // Unspecified B-side knobs mirror side A, so `--seed-b` alone
            // diffs seeds and `--intensity-b` alone diffs intensities.
            let seed_b = seed_b.unwrap_or(seed);
            let intensity_b = intensity_b.unwrap_or(intensity);
            if seed_b == seed && intensity_b == intensity {
                return Err(UsageError(
                    "diff needs the sides to differ: give --seed-b and/or --intensity-b".into(),
                ));
            }
            Ok(Command::Diff { id, seed, seed_b, intensity, intensity_b, json, threads })
        }
        Some("trace") => {
            let (mut seed, mut only, mut grep, mut json) = (2002, Vec::new(), None, false);
            scan(
                it,
                &mut [
                    flag::seed(&mut seed),
                    flag::only(&mut only),
                    flag::value("--grep", "a topic prefix like econ.", &mut grep, |v| {
                        if v.is_empty() {
                            return Err(UsageError("--grep needs a nonempty prefix".into()));
                        }
                        Ok(Some(v.to_owned()))
                    }),
                    flag::json(&mut json),
                ],
            )?;
            Ok(Command::Trace { seed, only, grep, json })
        }
        Some("export") => {
            let (mut seed, mut only, mut out, mut threads) = (2002, Vec::new(), None, None);
            let mut format = "chrome".to_owned();
            scan(
                it,
                &mut [
                    flag::seed(&mut seed),
                    flag::only(&mut only),
                    flag::value("--format", "chrome, prom or jsonl", &mut format, |v| match v {
                        "chrome" | "prom" | "jsonl" => Ok(v.to_owned()),
                        other => Err(UsageError(format!(
                            "unknown export format '{other}': expected chrome, prom or jsonl"
                        ))),
                    }),
                    flag::path("--out", "a file path", &mut out),
                    flag::threads(&mut threads),
                ],
            )?;
            Ok(Command::Export { seed, only, format, out, threads })
        }
        Some("health") => {
            let (mut bench, mut baseline, mut json) = ("BENCH_sim.json".to_owned(), None, false);
            scan(
                it,
                &mut [
                    flag::path("--bench", "a sidecar file", &mut bench),
                    flag::path("--baseline", "a sidecar file", &mut baseline),
                    flag::json(&mut json),
                ],
            )?;
            Ok(Command::Health { bench, baseline, json })
        }
        Some("sweep") => {
            let (mut seeds, mut base_seed, mut only, mut json, mut threads) =
                (32, 1, Vec::new(), false, None);
            scan(
                it,
                &mut [
                    flag::seeds(&mut seeds),
                    flag::base(&mut base_seed),
                    flag::only(&mut only),
                    flag::json(&mut json),
                    flag::threads(&mut threads),
                ],
            )?;
            Ok(Command::Sweep { seeds, base_seed, only, json, threads })
        }
        Some("chaos") => {
            let experiments::ChaosConfig { mut intensities, mut seeds, mut base_seed, .. } =
                experiments::ChaosConfig::default();
            let (mut only, mut json, mut threads) = (Vec::new(), false, None);
            scan(
                it,
                &mut [
                    flag::value(
                        "--intensities",
                        "values like 0,0.2,0.5",
                        &mut intensities,
                        parse_intensities,
                    ),
                    flag::seeds(&mut seeds),
                    flag::base(&mut base_seed),
                    flag::only(&mut only),
                    flag::json(&mut json),
                    flag::threads(&mut threads),
                ],
            )?;
            Ok(Command::Chaos { intensities, seeds, base_seed, only, json, threads })
        }
        Some("fuzz") => {
            let experiments::FuzzConfig { mut budget, mut seeds, mut base_seed, .. } =
                experiments::FuzzConfig::default();
            let (mut corpus, mut json, mut threads) = (None, false, None);
            scan(
                it,
                &mut [
                    flag::count("--budget", "a count", "budget", &mut budget),
                    flag::seeds(&mut seeds),
                    flag::base(&mut base_seed),
                    flag::path("--corpus", "a directory", &mut corpus),
                    flag::json(&mut json),
                    flag::threads(&mut threads),
                ],
            )?;
            Ok(Command::Fuzz { budget, seeds, base_seed, corpus, json, threads })
        }
        Some(other) => Err(UsageError(format!("unknown command '{other}'; try `tussle-cli help`"))),
    }
}

/// Write a command's output and a trailing newline to `out`. A closed
/// pipe (the reader, say `head`, exited early) is a quiet success; any
/// other write error is returned for the caller to report.
pub fn write_output(out: &mut impl std::io::Write, text: &str) -> std::io::Result<()> {
    let written = out
        .write_all(text.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// Execute a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, UsageError> {
    match cmd {
        Command::Help => Ok(USAGE.to_owned()),
        Command::List => {
            let mut out = String::from("id   section        claim\n");
            for r in experiments::run_all_parallel(2002) {
                out.push_str(&format!(
                    "{:<4} §{:<12} {}\n",
                    r.id,
                    r.section,
                    r.paper_claim.split('.').next().unwrap_or_default().trim()
                ));
            }
            Ok(out)
        }
        Command::Mechanisms => {
            let mut out =
                String::from("mechanism               deployer                 countered by\n");
            for (name, m) in mechanism_names() {
                let counters: Vec<String> =
                    m.countered_by().iter().map(|c| format!("{c:?}")).collect();
                out.push_str(&format!(
                    "{:<23} {:<24} {}\n",
                    name,
                    format!("{:?}", m.typical_deployer()),
                    if counters.is_empty() { "(terminal)".to_owned() } else { counters.join(", ") }
                ));
            }
            Ok(out)
        }
        Command::Ladder { mechanism } => {
            let ladder = EscalationLadder::play_to_the_end(mechanism, 16);
            let moves: Vec<String> =
                ladder.steps.iter().map(|s| format!("{:?}", s.mechanism)).collect();
            Ok(format!(
                "{}\n({} escalations, terminal: {})\n",
                moves.join(" -> "),
                ladder.escalations(),
                ladder.ended_terminal()
            ))
        }
        Command::Profile { seed, json, collapsed, only } => {
            if collapsed {
                // `main` prints with a trailing newline; the collapsed
                // rendering already ends in one.
                return experiments::profile::collapsed(seed, &only)
                    .map(|s| s.trim_end_matches('\n').to_owned())
                    .map_err(|e| UsageError(e.to_string()));
            }
            let reports = experiments::profile::collect(seed, &only)
                .map_err(|e| UsageError(e.to_string()))?;
            if json {
                Ok(serde_json::to_string_pretty(&reports)
                    .expect("profile reports serialize to JSON"))
            } else {
                let mut out = String::new();
                for p in &reports {
                    out.push_str(&p.to_text());
                    out.push('\n');
                }
                Ok(out)
            }
        }
        Command::Explain { id, seed, event, json } => {
            let explanation =
                experiments::explain(&id, seed, event).map_err(|e| UsageError(e.to_string()))?;
            if json {
                Ok(serde_json::to_string_pretty(&explanation)
                    .expect("explanations serialize to JSON"))
            } else {
                Ok(explanation.to_text())
            }
        }
        Command::Diff { id, seed, seed_b, intensity, intensity_b, json, threads } => {
            let cfg = experiments::DiffConfig {
                id,
                seed_a: seed,
                seed_b,
                intensity_a: intensity,
                intensity_b,
                threads,
            };
            let report = experiments::diff(&cfg).map_err(|e| UsageError(e.to_string()))?;
            if json {
                Ok(serde_json::to_string_pretty(&report).expect("diff reports serialize to JSON"))
            } else {
                Ok(report.to_text())
            }
        }
        Command::Trace { seed, only, grep, json } => {
            let dump = if json {
                experiments::trace_json(seed, &only, grep.as_deref())
            } else {
                experiments::trace_dump(seed, &only, grep.as_deref())
            }
            .map_err(|e| UsageError(e.to_string()))?;
            // A filter that matches nothing is almost always a typo'd
            // prefix; fail loudly instead of printing empty sections.
            if dump.matched == 0 {
                if let Some(g) = grep {
                    return Err(UsageError(format!("0 entries matched --grep '{g}'")));
                }
            }
            Ok(dump.text)
        }
        Command::Export { seed, only, format, out, threads } => {
            let records = experiments::export_records(seed, &only, threads)
                .map_err(|e| UsageError(e.to_string()))?;
            if format == "chrome" && records.len() != 1 {
                return Err(UsageError(format!(
                    "chrome traces are one JSON document per run; --format chrome needs \
                     --only naming exactly one experiment, got {}",
                    records.len()
                )));
            }
            let mut rendered = String::new();
            for (name, record) in &records {
                match format.as_str() {
                    "chrome" => rendered.push_str(&tussle_sim::to_chrome(record)),
                    "prom" => {
                        // A comment header keeps concatenated expositions
                        // attributable; a single selection stays pristine.
                        if records.len() > 1 {
                            rendered.push_str(&format!("# experiment {name} seed {seed}\n"));
                        }
                        rendered.push_str(&tussle_sim::to_prometheus(record));
                    }
                    _ => rendered.push_str(&tussle_sim::to_jsonl(record)),
                }
            }
            match out {
                Some(path) => {
                    std::fs::write(&path, rendered.as_bytes())
                        .map_err(|e| UsageError(format!("could not write '{path}': {e}")))?;
                    Ok(format!("wrote {} bytes ({format}) to {path}", rendered.len()))
                }
                // `main` prints with a trailing newline; every rendering
                // already ends in exactly one.
                None => Ok(rendered.strip_suffix('\n').unwrap_or(&rendered).to_owned()),
            }
        }
        Command::Health { bench, baseline, json } => {
            let baseline = baseline.unwrap_or_else(|| bench.clone());
            let report = run_health(&bench, &baseline)?;
            let rendered = if json {
                serde_json::to_string_pretty(&report).expect("health reports serialize to JSON")
            } else {
                render_health(&report)
            };
            if report.healthy {
                Ok(rendered)
            } else {
                // A regression must exit nonzero: surface the full report
                // through the error path.
                Err(UsageError(format!("health gate failed\n{rendered}")))
            }
        }
        Command::Sweep { seeds, base_seed, only, json, threads } => {
            let cfg = experiments::SweepConfig {
                seeds,
                base_seed,
                only: if only.is_empty() { None } else { Some(only) },
                threads,
            };
            let report = experiments::run_sweep(&cfg).map_err(|e| UsageError(e.to_string()))?;
            Ok(if json { report.to_json() } else { report.to_markdown() })
        }
        Command::Chaos { intensities, seeds, base_seed, only, json, threads } => {
            let cfg = experiments::ChaosConfig {
                intensities,
                seeds,
                base_seed,
                only: if only.is_empty() { None } else { Some(only) },
                threads,
            };
            let report = experiments::run_chaos(&cfg).map_err(|e| UsageError(e.to_string()))?;
            Ok(if json { report.to_json() } else { report.to_markdown() })
        }
        Command::Fuzz { budget, seeds, base_seed, corpus, json, threads } => {
            let cfg = experiments::FuzzConfig {
                budget,
                seeds,
                base_seed,
                corpus_dir: corpus.map(std::path::PathBuf::from),
                threads,
            };
            let report = experiments::run_fuzz(&cfg).map_err(|e| UsageError(e.to_string()))?;
            Ok(if json { report.to_json() } else { report.to_markdown() })
        }
        Command::Experiments { seed, json, only } => {
            let selected = experiments::select((!only.is_empty()).then_some(&only[..]))
                .map_err(|e| UsageError(e.to_string()))?;
            let reports = experiments::grid::par_map(&selected, None, |&(name, run)| {
                experiments::run_captured(name, run, seed)
            });
            if json {
                let all: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
                Ok(format!("[{}]", all.join(",\n")))
            } else {
                let held = reports.iter().filter(|r| r.shape_holds).count();
                let mut out = format!("{held}/{} shapes hold (seed {seed})\n\n", reports.len());
                for r in &reports {
                    out.push_str(&r.to_markdown());
                    out.push('\n');
                }
                Ok(out)
            }
        }
    }
}

/// The usage text.
pub const USAGE: &str = "tussle-cli — the Tussle in Cyberspace reproduction

USAGE:
  tussle-cli experiments [--seed N] [--json] [--only E1,E4]
  tussle-cli profile [--seed N] [--json | --collapsed] [--only E1,E4]
  tussle-cli trace [--seed N] [--only E1,E4] [--grep econ.] [--json]
  tussle-cli explain --only E9 --event e7 [--seed N] [--json]
  tussle-cli diff --only E9 --seed N [--seed-b M] [--intensity X] [--intensity-b Y] [--json] [--threads K]
  tussle-cli sweep [--seeds N] [--base S] [--only E1,E4] [--json] [--threads K]
  tussle-cli chaos [--intensities 0,0.2,0.5] [--seeds N] [--base S] [--only E1,E4] [--json] [--threads K]
  tussle-cli fuzz [--budget N] [--seeds S] [--base B] [--json] [--corpus DIR] [--threads K]
  tussle-cli export [--seed N] [--only E9] [--format chrome|prom|jsonl] [--out FILE] [--threads K]
  tussle-cli health [--bench BENCH_sim.json] [--baseline FILE] [--json]
  tussle-cli list
  tussle-cli ladder <mechanism>
  tussle-cli mechanisms
  tussle-cli help
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_owned()).collect()
    }

    /// A writer that fails every write with one error kind.
    struct FailingWriter(std::io::ErrorKind);

    impl std::io::Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_output_appends_a_newline() {
        let mut out = Vec::new();
        write_output(&mut out, "report").unwrap();
        assert_eq!(out, b"report\n");
    }

    #[test]
    fn write_output_treats_a_closed_pipe_as_success() {
        let mut out = FailingWriter(std::io::ErrorKind::BrokenPipe);
        assert!(write_output(&mut out, "report").is_ok());
    }

    #[test]
    fn write_output_reports_other_write_errors() {
        let mut out = FailingWriter(std::io::ErrorKind::PermissionDenied);
        let err = write_output(&mut out, "report").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn parses_experiments_flags() {
        let cmd = parse_args(&args("experiments --seed 7 --json --only e1,E4")).unwrap();
        assert_eq!(
            cmd,
            Command::Experiments { seed: 7, json: true, only: vec!["E1".into(), "E4".into()] }
        );
    }

    #[test]
    fn defaults_and_help() {
        assert_eq!(
            parse_args(&args("experiments")).unwrap(),
            Command::Experiments { seed: 2002, json: false, only: vec![] }
        );
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_errors_are_helpful() {
        assert!(parse_args(&args("experiments --seed")).is_err());
        assert!(parse_args(&args("experiments --seed banana")).is_err());
        assert!(parse_args(&args("frobnicate")).unwrap_err().0.contains("unknown command"));
        assert!(parse_args(&args("ladder")).is_err());
        assert!(parse_args(&args("ladder warp-drive"))
            .unwrap_err()
            .0
            .contains("unknown mechanism"));
    }

    #[test]
    fn parses_sweep_flags() {
        let cmd =
            parse_args(&args("sweep --seeds 16 --base 5 --only e1,E4 --json --threads 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                seeds: 16,
                base_seed: 5,
                only: vec!["E1".into(), "E4".into()],
                json: true,
                threads: Some(3),
            }
        );
    }

    #[test]
    fn sweep_defaults() {
        assert_eq!(
            parse_args(&args("sweep")).unwrap(),
            Command::Sweep { seeds: 32, base_seed: 1, only: vec![], json: false, threads: None }
        );
    }

    #[test]
    fn sweep_parse_errors_are_helpful() {
        assert!(parse_args(&args("sweep --seeds")).unwrap_err().0.contains("needs a count"));
        assert!(parse_args(&args("sweep --seeds 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse_args(&args("sweep --seeds banana"))
            .unwrap_err()
            .0
            .contains("bad seed count"));
        assert!(parse_args(&args("sweep --base")).is_err());
        assert!(parse_args(&args("sweep --base x")).unwrap_err().0.contains("bad base seed"));
        assert!(parse_args(&args("sweep --threads 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse_args(&args("sweep --only")).is_err());
        assert!(parse_args(&args("sweep --only E1,,E4")).unwrap_err().0.contains("malformed"));
        assert!(parse_args(&args("sweep --only E1,")).unwrap_err().0.contains("malformed"));
        assert!(parse_args(&args("sweep --frobnicate")).unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn sweep_command_renders_markdown_and_json() {
        let md = execute(Command::Sweep {
            seeds: 2,
            base_seed: 1,
            only: vec!["E1".into()],
            json: false,
            threads: Some(1),
        })
        .unwrap();
        assert!(md.contains("1 experiments × 2 seeds (base 1)"));
        assert!(md.contains("| E1 |"));

        let json = execute(Command::Sweep {
            seeds: 2,
            base_seed: 1,
            only: vec!["E1".into()],
            json: true,
            threads: Some(1),
        })
        .unwrap();
        assert!(json.contains("\"base_seed\": 1"));
        assert!(json.contains("\"holds\""));
    }

    #[test]
    fn sweep_unknown_experiment_errors() {
        let err = execute(Command::Sweep {
            seeds: 2,
            base_seed: 1,
            only: vec!["E99".into()],
            json: false,
            threads: Some(1),
        })
        .unwrap_err();
        assert!(err.0.contains("unknown experiment"));
    }

    #[test]
    fn parses_chaos_flags() {
        let cmd = parse_args(&args(
            "chaos --intensities 0,0.25,1 --seeds 4 --base 9 --only e4,E17 --json --threads 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                intensities: vec![0.0, 0.25, 1.0],
                seeds: 4,
                base_seed: 9,
                only: vec!["E4".into(), "E17".into()],
                json: true,
                threads: Some(2),
            }
        );
    }

    #[test]
    fn chaos_defaults_match_the_config_defaults() {
        let d = experiments::ChaosConfig::default();
        assert_eq!(
            parse_args(&args("chaos")).unwrap(),
            Command::Chaos {
                intensities: d.intensities,
                seeds: d.seeds,
                base_seed: d.base_seed,
                only: vec![],
                json: false,
                threads: None,
            }
        );
    }

    #[test]
    fn chaos_parse_errors_are_helpful() {
        assert!(parse_args(&args("chaos --intensities")).is_err());
        assert!(parse_args(&args("chaos --intensities 0,,1")).unwrap_err().0.contains("malformed"));
        assert!(parse_args(&args("chaos --intensities banana"))
            .unwrap_err()
            .0
            .contains("not a number"));
        assert!(parse_args(&args("chaos --intensities 1.5"))
            .unwrap_err()
            .0
            .contains("must be in [0, 1]"));
        assert!(parse_args(&args("chaos --seeds 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse_args(&args("chaos --threads 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse_args(&args("chaos --frobnicate")).unwrap_err().0.contains("unknown flag"));
    }

    fn chaos_cmd(json: bool, threads: usize) -> Command {
        Command::Chaos {
            intensities: vec![0.0, 0.5],
            seeds: 2,
            base_seed: 1,
            only: vec!["E4".into(), "E14".into()],
            json,
            threads: Some(threads),
        }
    }

    #[test]
    fn chaos_command_renders_markdown_and_json() {
        let md = execute(chaos_cmd(false, 1)).unwrap();
        assert!(md.contains("2 experiments × 2 intensities × 2 seeds (base 1)"));
        assert!(md.contains("| E4 |"));
        assert!(md.contains("| E14 |"));
        let json = execute(chaos_cmd(true, 1)).unwrap();
        assert!(json.contains("\"margin\""));
        assert!(json.contains("\"intensities\""));
    }

    #[test]
    fn chaos_json_is_byte_identical_across_thread_counts() {
        assert_eq!(execute(chaos_cmd(true, 1)).unwrap(), execute(chaos_cmd(true, 4)).unwrap());
    }

    /// Parse, execute and read back one command line's JSON output.
    fn json_output(line: &str) -> (String, serde::Value) {
        let out = execute(parse_args(&args(line)).unwrap()).unwrap();
        let value = serde_json::from_str(&out).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        (out, value)
    }

    fn get<'a>(value: &'a serde::Value, key: &str) -> &'a serde::Value {
        value.field(key).unwrap_or_else(|e| panic!("{e}"))
    }

    fn items(value: &serde::Value) -> &[serde::Value] {
        match value {
            serde::Value::Seq(items) => items,
            other => panic!("expected an array, found {}", other.kind()),
        }
    }

    fn number(value: &serde::Value) -> f64 {
        match *value {
            serde::Value::U64(n) => n as f64,
            serde::Value::I64(n) => n as f64,
            serde::Value::F64(x) => x,
            ref other => panic!("expected a number, found {}", other.kind()),
        }
    }

    fn text(value: &serde::Value) -> &str {
        match value {
            serde::Value::Str(s) => s,
            other => panic!("expected a string, found {}", other.kind()),
        }
    }

    fn is_digest(value: &serde::Value) -> bool {
        let s = text(value);
        s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    }

    #[test]
    fn chaos_json_covers_the_full_registry() {
        let (_, report) = json_output("chaos --seeds 2 --intensities 0,0.2 --json");
        let experiments = items(get(&report, "experiments"));
        assert_eq!(experiments.len(), 17);
        let intensities: Vec<f64> = items(get(&report, "intensities")).iter().map(number).collect();
        assert_eq!(intensities, [0.0, 0.2]);
        assert_eq!(number(get(&report, "seeds")), 2.0);
        for experiment in experiments {
            get(experiment, "margin");
            for cell in items(get(experiment, "intensities")) {
                get(cell, "panics");
                get(cell, "faults");
                assert!(is_digest(get(get(cell, "sweep"), "digest")));
            }
        }
    }

    #[test]
    fn chaos_unknown_experiment_errors() {
        let err = execute(Command::Chaos {
            intensities: vec![0.0],
            seeds: 1,
            base_seed: 1,
            only: vec!["E99".into()],
            json: false,
            threads: Some(1),
        })
        .unwrap_err();
        assert!(err.0.contains("unknown experiment"));
    }

    #[test]
    fn every_mechanism_name_parses() {
        for (name, m) in mechanism_names() {
            assert_eq!(parse_mechanism(name).unwrap(), m);
        }
    }

    #[test]
    fn ladder_command_renders() {
        let out = execute(Command::Ladder { mechanism: Mechanism::QosPortBased }).unwrap();
        assert!(out.contains("QosPortBased -> Encryption"));
        assert!(out.contains("terminal: true"));
    }

    #[test]
    fn mechanisms_command_lists_the_catalog() {
        let out = execute(Command::Mechanisms).unwrap();
        assert!(out.contains("qos-tos-bits"));
        assert!(out.contains("(terminal)"));
        assert!(out.lines().count() >= 20);
    }

    #[test]
    fn experiments_subset_runs() {
        let out =
            execute(Command::Experiments { seed: 2002, json: false, only: vec!["E10".into()] })
                .unwrap();
        assert!(out.contains("1/1 shapes hold"));
        assert!(out.contains("E10"));
    }

    #[test]
    fn parses_profile_and_trace_flags() {
        assert_eq!(
            parse_args(&args("profile --seed 7 --json --only e10")).unwrap(),
            Command::Profile { seed: 7, json: true, collapsed: false, only: vec!["E10".into()] }
        );
        assert_eq!(
            parse_args(&args("profile")).unwrap(),
            Command::Profile { seed: 2002, json: false, collapsed: false, only: vec![] }
        );
        assert_eq!(
            parse_args(&args("trace --seed 3 --only e2 --grep econ.")).unwrap(),
            Command::Trace {
                seed: 3,
                only: vec!["E2".into()],
                grep: Some("econ.".into()),
                json: false,
            }
        );
        assert_eq!(
            parse_args(&args("trace --json")).unwrap(),
            Command::Trace { seed: 2002, only: vec![], grep: None, json: true }
        );
        assert_eq!(
            parse_args(&args("trace")).unwrap(),
            Command::Trace { seed: 2002, only: vec![], grep: None, json: false }
        );
        assert!(parse_args(&args("profile --frobnicate")).unwrap_err().0.contains("unknown flag"));
        assert!(parse_args(&args("profile --only E1,")).unwrap_err().0.contains("malformed"));
        assert!(parse_args(&args("trace --grep")).unwrap_err().0.contains("needs a topic prefix"));
    }

    #[test]
    fn profile_command_renders_text_and_jq_friendly_json() {
        let text = execute(Command::Profile {
            seed: 2002,
            json: false,
            collapsed: false,
            only: vec!["E10".into()],
        })
        .unwrap();
        assert!(text.contains("E10 profile (seed 2002)"), "{text}");
        assert!(text.contains("digest"), "{text}");

        let json = execute(Command::Profile {
            seed: 2002,
            json: true,
            collapsed: false,
            only: vec!["E10".into()],
        })
        .unwrap();
        // The JSON contract ci.sh smoke-tests with jq: a top-level array of
        // objects with id/seed/cost/wall_nanos/topics.
        let parsed: serde::Value = serde_json::from_str(&json).unwrap();
        let first = parsed.item(0).expect("top-level array with one element");
        assert!(parsed.item(1).is_err(), "exactly one report");
        assert_eq!(first.field("id").unwrap(), &serde::Value::Str("E10".into()));
        assert_eq!(first.field("seed").unwrap(), &serde::Value::U64(2002));
        match first.field("cost").unwrap().field("digest").unwrap() {
            serde::Value::Str(d) => assert_eq!(d.len(), 16),
            other => panic!("digest is not a string: {other:?}"),
        }
        match first.field("wall_nanos").unwrap() {
            serde::Value::U64(n) => assert!(*n > 0),
            other => panic!("wall_nanos is not an unsigned integer: {other:?}"),
        }
        assert!(matches!(first.field("topics").unwrap(), serde::Value::Map(_)));
    }

    #[test]
    fn trace_command_dumps_and_filters() {
        let out = execute(Command::Trace {
            seed: 2002,
            only: vec!["E1".into()],
            grep: Some("econ.".into()),
            json: false,
        })
        .unwrap();
        assert!(out.contains("# E1 (seed 2002)"), "{out}");
        assert!(out.contains("econ."), "{out}");
    }

    #[test]
    fn profile_unknown_experiment_errors() {
        let err = execute(Command::Profile {
            seed: 1,
            json: false,
            collapsed: false,
            only: vec!["E99".into()],
        })
        .unwrap_err();
        assert!(err.0.contains("unknown experiment"));
    }

    #[test]
    fn duplicate_only_ids_are_rejected_everywhere() {
        for cmd in ["experiments", "profile", "trace", "sweep", "chaos", "export"] {
            let err = parse_args(&args(&format!("{cmd} --only E1,E1"))).unwrap_err();
            assert!(err.0.contains("duplicate id 'E1'"), "{cmd}: {err}");
        }
        assert!(parse_args(&args("diff --only E9,E9 --seed-b 3")).is_err());
    }

    #[test]
    fn parses_explain_flags() {
        assert_eq!(
            parse_args(&args("explain --only e9 --event e7 --seed 5 --json")).unwrap(),
            Command::Explain { id: "E9".into(), seed: 5, event: EventId(7), json: true }
        );
        assert_eq!(
            parse_args(&args("explain --only E9 --event 7")).unwrap(),
            Command::Explain { id: "E9".into(), seed: 2002, event: EventId(7), json: false }
        );
        assert!(parse_args(&args("explain --event e7")).unwrap_err().0.contains("--only"));
        assert!(parse_args(&args("explain --only E9")).unwrap_err().0.contains("--event"));
        assert!(parse_args(&args("explain --only E9,E10 --event 1"))
            .unwrap_err()
            .0
            .contains("exactly one"));
        assert!(parse_args(&args("explain --only E9 --event seven"))
            .unwrap_err()
            .0
            .contains("bad event id"));
    }

    #[test]
    fn parses_diff_flags() {
        assert_eq!(
            parse_args(&args("diff --only e9 --seed 2002 --seed-b 2003 --threads 2 --json"))
                .unwrap(),
            Command::Diff {
                id: "E9".into(),
                seed: 2002,
                seed_b: 2003,
                intensity: 0.0,
                intensity_b: 0.0,
                json: true,
                threads: Some(2),
            }
        );
        // --intensity-b alone diffs intensities at one seed.
        assert_eq!(
            parse_args(&args("diff --only E4 --seed 7 --intensity-b 0.8")).unwrap(),
            Command::Diff {
                id: "E4".into(),
                seed: 7,
                seed_b: 7,
                intensity: 0.0,
                intensity_b: 0.8,
                json: false,
                threads: None,
            }
        );
        assert!(parse_args(&args("diff --seed-b 3")).unwrap_err().0.contains("--only"));
        assert!(parse_args(&args("diff --only E9")).unwrap_err().0.contains("sides to differ"));
        assert!(parse_args(&args("diff --only E9 --seed-b 3 --threads 0"))
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse_args(&args("diff --only E9 --intensity-b 1.5"))
            .unwrap_err()
            .0
            .contains("must be in [0, 1]"));
    }

    #[test]
    fn profile_collapsed_emits_flamegraph_lines() {
        assert_eq!(
            parse_args(&args("profile --collapsed --only E10")).unwrap(),
            Command::Profile { seed: 2002, json: false, collapsed: true, only: vec!["E10".into()] }
        );
        assert!(parse_args(&args("profile --collapsed --json"))
            .unwrap_err()
            .0
            .contains("cannot combine"));
        let out = execute(Command::Profile {
            seed: 2002,
            json: false,
            collapsed: true,
            only: vec!["E10".into()],
        })
        .unwrap();
        for line in out.lines() {
            assert!(line.starts_with("E10;"), "{line}");
        }
        assert!(!out.is_empty());
    }

    #[test]
    fn explain_command_renders_a_causal_chain() {
        let text = execute(Command::Explain {
            id: "E9".into(),
            seed: 2002,
            event: EventId(2),
            json: false,
        })
        .unwrap();
        assert!(text.contains("explain e2"), "{text}");
        assert!(text.contains("root"), "{text}");
        let json = execute(Command::Explain {
            id: "E9".into(),
            seed: 2002,
            event: EventId(2),
            json: true,
        })
        .unwrap();
        assert!(json.contains("\"hops\""), "{json}");
        let err = execute(Command::Explain {
            id: "E9".into(),
            seed: 2002,
            event: EventId(9999),
            json: false,
        })
        .unwrap_err();
        assert!(err.0.contains("never dispatched"), "{err}");
    }

    fn diff_cmd(threads: usize, json: bool) -> Command {
        Command::Diff {
            id: "E9".into(),
            seed: 2002,
            seed_b: 2003,
            intensity: 0.0,
            intensity_b: 0.0,
            json,
            threads: Some(threads),
        }
    }

    #[test]
    fn diff_command_pinpoints_divergence_byte_identically_across_threads() {
        let one = execute(diff_cmd(1, false)).unwrap();
        assert!(one.contains("first divergence at entry"), "{one}");
        for threads in [2, 8] {
            assert_eq!(one, execute(diff_cmd(threads, false)).unwrap(), "threads={threads}");
        }
        let json_one = execute(diff_cmd(1, true)).unwrap();
        for threads in [2, 8] {
            assert_eq!(json_one, execute(diff_cmd(threads, true)).unwrap(), "threads={threads}");
        }
        assert!(json_one.contains("\"divergence\""), "{json_one}");

        let line = "diff --only E9 --seed 2002 --seed-b 2003 --json";
        let (json, report) = json_output(line);
        for threads in [1, 2, 8] {
            let (threaded, _) = json_output(&format!("{line} --threads {threads}"));
            assert_eq!(json, threaded, "--threads {threads}");
        }
        assert_eq!(text(get(&report, "id")), "E9");
        assert_eq!(number(get(&report, "seed_a")), 2002.0);
        assert_eq!(number(get(&report, "seed_b")), 2003.0);
        assert!(is_digest(get(&report, "digest_a")));
        assert!(is_digest(get(&report, "digest_b")));
        assert_eq!(get(&report, "identical"), &serde::Value::Bool(false));
        let divergence = get(&report, "divergence");
        assert!(number(get(divergence, "index")) >= 0.0);
        assert!(number(get(divergence, "probes")) >= 1.0);
        for side in ["a", "b"] {
            for key in ["entry", "context", "ancestry"] {
                get(get(divergence, side), key);
            }
        }
    }

    #[test]
    fn trace_grep_matching_nothing_is_an_error() {
        let err = execute(Command::Trace {
            seed: 2002,
            only: vec!["E2".into()],
            grep: Some("zzz.".into()),
            json: false,
        })
        .unwrap_err();
        assert!(err.0.contains("0 entries matched"), "{err}");
        // The zero-match contract holds under --json too.
        let err = execute(Command::Trace {
            seed: 2002,
            only: vec!["E2".into()],
            grep: Some("zzz.".into()),
            json: true,
        })
        .unwrap_err();
        assert!(err.0.contains("0 entries matched"), "{err}");
        // No grep: an empty dump is not an error, just empty sections.
        assert!(execute(Command::Trace {
            seed: 2002,
            only: vec!["E2".into()],
            grep: None,
            json: false,
        })
        .is_ok());
    }

    fn fuzz_cmd(json: bool, threads: usize) -> Command {
        Command::Fuzz {
            budget: 8,
            seeds: 2,
            base_seed: 5,
            corpus: None,
            json,
            threads: Some(threads),
        }
    }

    #[test]
    fn parses_fuzz_flags_and_defaults() {
        let d = experiments::FuzzConfig::default();
        assert_eq!(
            parse_args(&args("fuzz")).unwrap(),
            Command::Fuzz {
                budget: d.budget,
                seeds: d.seeds,
                base_seed: d.base_seed,
                corpus: None,
                json: false,
                threads: None,
            }
        );
        assert_eq!(
            parse_args(&args(
                "fuzz --budget 50 --seeds 2 --base 9 --corpus tests/corpus --json --threads 4"
            ))
            .unwrap(),
            Command::Fuzz {
                budget: 50,
                seeds: 2,
                base_seed: 9,
                corpus: Some("tests/corpus".into()),
                json: true,
                threads: Some(4),
            }
        );
        assert!(parse_args(&args("fuzz --budget 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse_args(&args("fuzz --seeds 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse_args(&args("fuzz --threads 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse_args(&args("fuzz --corpus")).unwrap_err().0.contains("directory"));
        assert!(parse_args(&args("fuzz --bogus")).unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn fuzz_command_renders_markdown_and_json() {
        let md = execute(fuzz_cmd(false, 2)).unwrap();
        assert!(md.contains("Fuzz campaign"), "{md}");
        assert!(md.contains("packet-conservation"), "{md}");
        let json = execute(fuzz_cmd(true, 2)).unwrap();
        let parsed: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.field("schema").unwrap(), &serde::Value::U64(1));
        assert_eq!(parsed.field("executions").unwrap(), &serde::Value::U64(8));
        assert!(parsed.field("oracles").is_ok());
        assert!(parsed.field("digest").is_ok());
    }

    #[test]
    fn fuzz_json_is_byte_identical_across_thread_counts() {
        let one = execute(fuzz_cmd(true, 1)).unwrap();
        assert_eq!(one, execute(fuzz_cmd(true, 2)).unwrap());
        assert_eq!(one, execute(fuzz_cmd(true, 8)).unwrap());
    }

    #[test]
    fn unknown_subset_errors() {
        let err = execute(Command::Experiments { seed: 1, json: false, only: vec!["E99".into()] })
            .unwrap_err();
        assert_eq!(err.0, "unknown experiment `E99` (the registry has E1..=E17)");
    }

    #[test]
    fn experiments_only_names_the_unknown_id_in_a_mixed_list() {
        let cmd = parse_args(&args("experiments --only E1,E99")).unwrap();
        let err = execute(cmd).unwrap_err();
        assert_eq!(err.0, "unknown experiment `E99` (the registry has E1..=E17)");
    }

    #[test]
    fn experiments_only_keeps_request_order() {
        let out = execute(parse_args(&args("experiments --only E5,E1")).unwrap()).unwrap();
        assert!(out.starts_with("2/2 shapes hold (seed 2002)"), "{out}");
        let headings: Vec<&str> = out.lines().filter(|l| l.starts_with("## ")).collect();
        assert_eq!(headings, ["## E5 — §V.A.4", "## E1 — §V.A.1"], "{out}");
    }

    #[test]
    fn flagless_commands_reject_trailing_arguments() {
        for (argv, flag) in [
            ("list --json", "--json"),
            ("mechanisms --only E1", "--only"),
            ("ladder nat --json", "--json"),
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert_eq!(err.0, format!("unknown flag '{flag}'"), "{argv}");
        }
        assert_eq!(parse_args(&args("help --json")).unwrap(), Command::Help);
    }

    /// The usage text and the parser list the same flags: for each
    /// `tussle-cli <cmd>` line of [`USAGE`], every flag named anywhere in
    /// the text is rejected as unknown exactly when that line omits it.
    #[test]
    fn usage_and_parser_list_the_same_flags() {
        let flag_in = |line: &str| -> Vec<String> {
            line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--") && w.len() > 2)
                .map(str::to_owned)
                .collect()
        };
        let mut all = flag_in(USAGE);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 19, "{all:?}");
        let lines: Vec<&str> =
            USAGE.lines().filter_map(|l| l.strip_prefix("  tussle-cli ")).collect();
        assert_eq!(lines.len(), 14);
        for line in lines {
            let cmd = line.split_whitespace().next().unwrap();
            if cmd == "help" {
                continue;
            }
            let listed = flag_in(line);
            for flag in &all {
                let mut argv = vec![cmd.to_owned()];
                if cmd == "ladder" {
                    argv.push("nat".to_owned());
                }
                argv.extend([flag.clone(), "1".to_owned()]);
                let unknown =
                    parse_args(&argv) == Err(UsageError(format!("unknown flag '{flag}'")));
                assert_eq!(unknown, !listed.contains(flag), "tussle-cli {cmd} {flag}");
            }
        }
    }

    #[test]
    fn parses_export_flags() {
        assert_eq!(
            parse_args(&args("export --seed 7 --only e9 --format prom --out /tmp/o --threads 2"))
                .unwrap(),
            Command::Export {
                seed: 7,
                only: vec!["E9".into()],
                format: "prom".into(),
                out: Some("/tmp/o".into()),
                threads: Some(2),
            }
        );
        assert_eq!(
            parse_args(&args("export")).unwrap(),
            Command::Export {
                seed: 2002,
                only: vec![],
                format: "chrome".into(),
                out: None,
                threads: None,
            }
        );
        assert!(parse_args(&args("export --format"))
            .unwrap_err()
            .0
            .contains("chrome, prom or jsonl"));
        assert!(parse_args(&args("export --format yaml"))
            .unwrap_err()
            .0
            .contains("unknown export format"));
        assert!(parse_args(&args("export --out")).unwrap_err().0.contains("file path"));
        assert!(parse_args(&args("export --threads 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse_args(&args("export --bogus")).unwrap_err().0.contains("unknown flag"));
    }

    fn export_cmd(format: &str, only: &[&str], threads: usize) -> Command {
        Command::Export {
            seed: 2002,
            only: only.iter().map(|s| (*s).to_owned()).collect(),
            format: format.into(),
            out: None,
            threads: Some(threads),
        }
    }

    #[test]
    fn export_chrome_needs_exactly_one_experiment() {
        let err = execute(export_cmd("chrome", &["E1", "E9"], 1)).unwrap_err();
        assert!(err.0.contains("exactly one experiment"), "{err}");
        let err = execute(export_cmd("chrome", &[], 1)).unwrap_err();
        assert!(err.0.contains("got 17"), "{err}");
    }

    #[test]
    fn export_chrome_renders_valid_trace_json() {
        let out = execute(export_cmd("chrome", &["E9"], 1)).unwrap();
        let parsed: serde::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed.field("displayTimeUnit").unwrap(), &serde::Value::Str("ms".into()));
        let events = match parsed.field("traceEvents").unwrap() {
            serde::Value::Seq(events) => events,
            other => panic!("traceEvents is not an array: {other:?}"),
        };
        assert!(!events.is_empty());
        // Lane metadata names the stakeholders E9 annotates.
        assert!(out.contains("\"user\""), "{out}");
        assert!(out.contains("\"provider\""), "{out}");
    }

    #[test]
    fn export_is_byte_identical_across_thread_counts() {
        let chrome_one = execute(export_cmd("chrome", &["E9"], 1)).unwrap();
        for threads in [2, 8] {
            assert_eq!(
                chrome_one,
                execute(export_cmd("chrome", &["E9"], threads)).unwrap(),
                "chrome, threads={threads}"
            );
        }
        let prom_one = execute(export_cmd("prom", &["E1", "E9", "E14"], 1)).unwrap();
        for threads in [2, 8] {
            assert_eq!(
                prom_one,
                execute(export_cmd("prom", &["E1", "E9", "E14"], threads)).unwrap(),
                "prom, threads={threads}"
            );
        }
    }

    #[test]
    fn export_prom_renders_type_lines_and_headers() {
        let out = execute(export_cmd("prom", &["E1", "E9"], 2)).unwrap();
        assert!(out.contains("# TYPE tussle_stakeholder_entries counter"), "{out}");
        assert!(out.contains("# TYPE tussle_topic_virtual_micros counter"), "{out}");
        assert!(out.contains("tussle_stakeholder_virtual_micros"), "{out}");
        // Concatenated expositions carry attribution headers...
        assert!(out.contains("# experiment E1 seed 2002"), "{out}");
        assert!(out.contains("# experiment E9 seed 2002"), "{out}");
        // ...while a single selection stays a pristine exposition.
        let single = execute(export_cmd("prom", &["E9"], 1)).unwrap();
        assert!(!single.contains("# experiment"), "{single}");
        // Virtual-time discipline: no wall-clock family anywhere.
        assert!(!out.contains("wall"), "{out}");
    }

    #[test]
    fn export_jsonl_lines_are_structured_entries() {
        let out = execute(export_cmd("jsonl", &["E9"], 1)).unwrap();
        assert!(!out.is_empty());
        for line in out.lines() {
            let parsed: serde::Value = serde_json::from_str(line).unwrap();
            assert!(parsed.field("topic").is_ok(), "{line}");
        }
    }

    #[test]
    fn export_out_writes_exact_bytes() {
        let path = std::env::temp_dir()
            .join(format!("tussle-cli-export-{}-e9.chrome.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let msg = execute(Command::Export {
            seed: 2002,
            only: vec!["E9".into()],
            format: "chrome".into(),
            out: Some(path.display().to_string()),
            threads: Some(1),
        })
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.ends_with("}\n"), "file keeps its trailing newline");
        // The file holds the exact stdout rendering plus that newline.
        assert_eq!(
            written.strip_suffix('\n').unwrap(),
            execute(export_cmd("chrome", &["E9"], 1)).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn export_unknown_experiment_errors() {
        let err = execute(export_cmd("jsonl", &["E99"], 1)).unwrap_err();
        assert!(err.0.contains("unknown experiment"), "{err}");
    }

    #[test]
    fn trace_json_emits_structured_entries() {
        let out = execute(Command::Trace {
            seed: 2002,
            only: vec!["E1".into()],
            grep: Some("econ.".into()),
            json: true,
        })
        .unwrap();
        let parsed: serde::Value = serde_json::from_str(&out).unwrap();
        let first = parsed.item(0).expect("one dump per selected experiment");
        assert_eq!(first.field("experiment").unwrap(), &serde::Value::Str("E1".into()));
        assert_eq!(first.field("seed").unwrap(), &serde::Value::U64(2002));
        match first.field("entries").unwrap() {
            serde::Value::Seq(entries) => {
                assert!(!entries.is_empty());
                for e in entries {
                    match e.field("topic").unwrap() {
                        serde::Value::Str(topic) => {
                            assert!(topic.starts_with("econ."), "{topic}")
                        }
                        other => panic!("topic is not a string: {other:?}"),
                    }
                }
            }
            other => panic!("entries is not an array: {other:?}"),
        }
    }

    #[test]
    fn parses_health_flags() {
        assert_eq!(
            parse_args(&args("health")).unwrap(),
            Command::Health { bench: "BENCH_sim.json".into(), baseline: None, json: false }
        );
        assert_eq!(
            parse_args(&args("health --bench cur.json --baseline base.json --json")).unwrap(),
            Command::Health {
                bench: "cur.json".into(),
                baseline: Some("base.json".into()),
                json: true,
            }
        );
        assert!(parse_args(&args("health --bench")).unwrap_err().0.contains("sidecar file"));
        assert!(parse_args(&args("health --baseline")).unwrap_err().0.contains("sidecar file"));
        assert!(parse_args(&args("health --bogus")).unwrap_err().0.contains("unknown flag"));
    }

    fn write_sidecar(tag: &str, entries: &[(&str, f64)]) -> std::path::PathBuf {
        let path = std::env::temp_dir()
            .join(format!("tussle-cli-health-{}-{tag}.json", std::process::id()));
        let rows: Vec<String> = entries
            .iter()
            .map(|(bench, ns)| {
                format!("  {{\n    \"bench\": \"{bench}\",\n    \"median_ns\": {ns}\n  }}")
            })
            .collect();
        std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n"))).unwrap();
        path
    }

    #[test]
    fn health_self_compare_passes_in_text_and_json() {
        let sidecar = write_sidecar(
            "self",
            &[("obs/dispatch_traced_disabled", 100.0), ("net/source_routed_cached_1k", 2000.0)],
        );
        let bench = sidecar.display().to_string();
        let text =
            execute(Command::Health { bench: bench.clone(), baseline: None, json: false }).unwrap();
        assert!(text.contains("# Health — ok"), "{text}");
        assert!(text.contains("digests identical"), "{text}");
        assert!(text.contains(", conserved"), "{text}");
        assert!(text.contains("who won:"), "{text}");

        let json =
            execute(Command::Health { bench: bench.clone(), baseline: None, json: true }).unwrap();
        let parsed: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.field("healthy").unwrap(), &serde::Value::Bool(true));
        assert_eq!(parsed.field("determinism_ok").unwrap(), &serde::Value::Bool(true));
        assert_eq!(parsed.field("scoreboard_conserves").unwrap(), &serde::Value::Bool(true));
        assert!(matches!(parsed.field("trends").unwrap(), serde::Value::Seq(_)));
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn health_bench_regression_fails_the_gate() {
        let baseline = write_sidecar("base", &[("econ/settle", 1000.0)]);
        // 1.5x the baseline median breaches the default 1.25x ceiling.
        let current = write_sidecar("cur", &[("econ/settle", 1500.0)]);
        let err = execute(Command::Health {
            bench: current.display().to_string(),
            baseline: Some(baseline.display().to_string()),
            json: false,
        })
        .unwrap_err();
        assert!(err.0.contains("health gate failed"), "{err}");
        assert!(err.0.contains("'econ/settle' regressed"), "{err}");
        assert!(err.0.contains("1.50x > 1.25x"), "{err}");
        let _ = std::fs::remove_file(&baseline);
        let _ = std::fs::remove_file(&current);
    }

    #[test]
    fn health_missing_bench_is_a_regression() {
        let baseline = write_sidecar("mbase", &[("econ/settle", 1000.0), ("net/route", 50.0)]);
        let current = write_sidecar("mcur", &[("econ/settle", 1000.0)]);
        let err = execute(Command::Health {
            bench: current.display().to_string(),
            baseline: Some(baseline.display().to_string()),
            json: false,
        })
        .unwrap_err();
        assert!(err.0.contains("'net/route' is in the baseline but missing"), "{err}");
        let _ = std::fs::remove_file(&baseline);
        let _ = std::fs::remove_file(&current);
    }

    #[test]
    fn health_sidecar_errors_are_clean() {
        let err = execute(Command::Health {
            bench: "/nonexistent/BENCH_sim.json".into(),
            baseline: None,
            json: false,
        })
        .unwrap_err();
        assert!(err.0.contains("could not read bench sidecar"), "{err}");

        let empty = std::env::temp_dir()
            .join(format!("tussle-cli-health-{}-empty.json", std::process::id()));
        std::fs::write(&empty, "[]\n").unwrap();
        let err = execute(Command::Health {
            bench: empty.display().to_string(),
            baseline: None,
            json: false,
        })
        .unwrap_err();
        assert!(err.0.contains("no bench entries"), "{err}");

        std::fs::write(&empty, "{}\n").unwrap();
        let err = execute(Command::Health {
            bench: empty.display().to_string(),
            baseline: None,
            json: false,
        })
        .unwrap_err();
        assert!(err.0.contains("expected a top-level array"), "{err}");
        let _ = std::fs::remove_file(&empty);
    }

    #[test]
    fn health_reads_the_median_from_a_sidecar_carrying_its_spread() {
        // The bench harness writes the sample count, minimum and quartiles
        // beside each median; the loader picks `median_ns` by name.
        let path = std::env::temp_dir()
            .join(format!("tussle-cli-health-{}-spread.json", std::process::id()));
        std::fs::write(
            &path,
            "[\n  {\"bench\": \"econ/settle\", \"median_ns\": 1000, \"samples\": 20, \
             \"min_ns\": 900, \"q1_ns\": 950, \"q3_ns\": 1100}\n]\n",
        )
        .unwrap();
        let loaded = load_bench_sidecar(&path.display().to_string());
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.unwrap(), vec![reading("econ/settle", 1000.0, None)]);
    }

    #[test]
    fn health_reads_a_sidecar_carrying_its_host_record() {
        // Each line also records the host's core count and the build
        // profile, a number and a string the loader reads beside the
        // median.
        let path = std::env::temp_dir()
            .join(format!("tussle-cli-health-{}-host.json", std::process::id()));
        std::fs::write(
            &path,
            "[\n  {\"bench\": \"obs/experiments_profile_scope\", \"median_ns\": 2000, \
             \"samples\": 10, \"min_ns\": 1900, \"q1_ns\": 1950, \"q3_ns\": 2100, \
             \"nproc\": 2, \"profile\": \"release\"}\n]\n",
        )
        .unwrap();
        let loaded = load_bench_sidecar(&path.display().to_string());
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            loaded.unwrap(),
            vec![reading("obs/experiments_profile_scope", 2000.0, Some((2, "release")))]
        );
    }

    fn reading(bench: &str, ns: f64, host: Option<(u64, &str)>) -> BenchReading {
        let host = host.map(|(nproc, profile)| BenchHost { nproc, profile: profile.to_owned() });
        BenchReading { bench: bench.to_owned(), median_ns: ns, host }
    }

    /// Compare one bench read on the `current` host against `baseline`.
    fn compare_hosts(
        current: Option<(u64, &str)>,
        baseline: Option<(u64, &str)>,
    ) -> (Vec<BenchTrend>, Vec<String>, Vec<String>) {
        let mut regressions = Vec::new();
        let (trends, missing, incomparable) = compare_sidecars(
            &[reading("econ/settle", 1100.0, current)],
            &[reading("econ/settle", 1000.0, baseline)],
            "cur.json",
            &mut regressions,
        );
        assert!(missing.is_empty());
        (trends, incomparable, regressions)
    }

    #[test]
    fn health_compares_readings_from_the_same_host() {
        let (trends, incomparable, regressions) =
            compare_hosts(Some((2, "release")), Some((2, "release")));
        assert_eq!(trends.len(), 1);
        assert!((trends[0].ratio - 1.1).abs() < 1e-12);
        assert!(incomparable.is_empty());
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn health_refuses_readings_from_unlike_core_counts() {
        let (trends, incomparable, regressions) =
            compare_hosts(Some((8, "release")), Some((2, "release")));
        assert!(trends.is_empty(), "no ratio across hosts");
        assert_eq!(incomparable, ["econ/settle"]);
        assert_eq!(
            regressions,
            ["bench 'econ/settle' is not comparable: current reading from a release build on 8 \
              cores, baseline from a release build on 2 cores"]
        );

        // The gate fails, and both outputs name the bench and both hosts.
        let write = |tag: &str, nproc: u64| {
            let path = std::env::temp_dir()
                .join(format!("tussle-cli-health-{}-{tag}.json", std::process::id()));
            std::fs::write(
                &path,
                format!(
                    "[{{\"bench\": \"econ/settle\", \"median_ns\": 1000, \"nproc\": {nproc}, \
                     \"profile\": \"release\"}}]"
                ),
            )
            .unwrap();
            path.display().to_string()
        };
        let (bench, baseline) = (write("host8", 8), write("host2", 2));
        let health =
            |json| Command::Health { bench: bench.clone(), baseline: Some(baseline.clone()), json };
        let err = execute(health(false)).unwrap_err();
        assert!(err.0.contains("health gate failed"), "{err}");
        assert!(err.0.contains("| econ/settle | — | — | — | — | NOT COMPARABLE |"), "{err}");
        assert!(err.0.contains("release build on 8 cores, baseline from a release build on 2"));
        let err = execute(health(true)).unwrap_err();
        let json = err.0.strip_prefix("health gate failed\n").expect("the report follows");
        let parsed: serde::Value = serde_json::from_str(json).unwrap();
        assert_eq!(parsed.field("healthy").unwrap(), &serde::Value::Bool(false));
        let ids = serde::Value::Seq(vec![serde::Value::Str("econ/settle".into())]);
        assert_eq!(parsed.field("incomparable").unwrap(), &ids);
        assert!(json.contains("release build on 8 cores, baseline from a release build on 2"));
        let _ = std::fs::remove_file(&bench);
        let _ = std::fs::remove_file(&baseline);
    }

    #[test]
    fn health_refuses_readings_from_unlike_build_profiles() {
        let (trends, incomparable, regressions) =
            compare_hosts(Some((2, "debug")), Some((2, "release")));
        assert!(trends.is_empty());
        assert_eq!(incomparable, ["econ/settle"]);
        assert_eq!(
            regressions,
            ["bench 'econ/settle' is not comparable: current reading from a debug build on 2 \
              cores, baseline from a release build on 2 cores"]
        );
    }

    #[test]
    fn health_compares_readings_without_a_host_record_as_before() {
        // A sidecar from before the host record against a current one, in
        // both directions, and two without: all compared on the median.
        for (current, baseline) in
            [(None, Some((2, "release"))), (Some((8, "debug")), None), (None, None)]
        {
            let (trends, incomparable, regressions) = compare_hosts(current, baseline);
            assert_eq!(trends.len(), 1);
            assert!(incomparable.is_empty());
            assert!(regressions.is_empty(), "{regressions:?}");
        }
    }

    #[test]
    fn bench_thresholds_tier_by_family() {
        let obs = bench_threshold("obs/dispatch_traced_disabled");
        let econ = bench_threshold("layer/econ/market_20x20");
        assert!(obs < econ, "{obs} < {econ}");
        assert_eq!(bench_threshold("net/source_routed_cached_1k"), econ);
        // the tier names benches the committed sidecar holds
        let sidecar = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
        let ids: Vec<String> =
            load_bench_sidecar(sidecar).unwrap().into_iter().map(|r| r.bench).collect();
        assert!(
            ids.iter().any(|id| id.starts_with(OBS_BENCHES)),
            "no bench id starts with {OBS_BENCHES}"
        );
    }
}
