//! End-to-end and per-layer benchmark of the tussle workspace.
//!
//! `perfbench --workload <registry|forwarding|fuzz|inspect> --seed <n>
//! --seconds <s> --trace <0|1>` sets the workload up several times, then
//! runs it as a closed loop (each op starts when the previous one returns)
//! for the given seconds, in-process through the library entry points the
//! CLI commands call. With `--trace 0` it reports the end-to-end metrics.
//! With `--trace 1` untraced and traced ops alternate, and it reports the
//! per-layer metrics, timed around the benchmark's own calls into each
//! crate, beside the tracing overhead. Every op's outputs are
//! checked; the last stdout line is one JSON object with the result.
//! See `README.md` beside this crate.

#![forbid(unsafe_code)]

mod forwarding;
mod fuzz;
mod inspect;
mod registry;
pub mod spans;
pub mod stats;

use spans::{Checks, Spans};
use stats::Summary;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, in the report's order.
pub const REPORTED: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics on the result line with `--trace 0`: those that
/// stay steady from run to run on a shared host. `op_ms_p50` and
/// `items_per_s` are reported but left off: where the host's speed flips
/// between two levels for seconds at a time, the median and the mean
/// follow the share of time spent at each level, and their ten-run spread
/// reached 0.3–0.4 of the median, while the tail op stays at the slow
/// level.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms_tail", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`. A layer a
/// workload never calls into reads 0 there.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("experiments.e01_ms", "ms"),
    ("experiments.e02_ms", "ms"),
    ("experiments.e03_ms", "ms"),
    ("experiments.e04_ms", "ms"),
    ("experiments.e05_ms", "ms"),
    ("experiments.e06_ms", "ms"),
    ("experiments.e07_ms", "ms"),
    ("experiments.e08_ms", "ms"),
    ("experiments.e09_ms", "ms"),
    ("experiments.e10_ms", "ms"),
    ("experiments.e11_ms", "ms"),
    ("experiments.e12_ms", "ms"),
    ("experiments.e13_ms", "ms"),
    ("experiments.e14_ms", "ms"),
    ("experiments.e15_ms", "ms"),
    ("experiments.e16_ms", "ms"),
    ("experiments.e17_ms", "ms"),
    ("actors.step_ms", "ms"),
    ("actors.energy_ms", "ms"),
    ("actors.active_actors", "count"),
    ("actors.aligned_pairs", "count"),
    ("net.fib_batch_us", "us"),
    ("net.srcroute_batch_us", "us"),
    ("net.cold_batch_us", "us"),
    ("net.hops_per_packet", "hops"),
    ("net.delivered_ratio", "ratio"),
    ("net.forwards", "count"),
    ("net.cache_oracle_ms", "ms"),
    ("sim.events", "count"),
    ("sim.rng_draws", "count"),
    ("sim.trace_entries", "count"),
    ("sim.profile_overhead", "ratio"),
    ("sim.export_chrome_ms", "ms"),
    ("sim.export_jsonl_ms", "ms"),
    ("sim.export_prom_ms", "ms"),
    ("sim.checkpoint_oracle_ms", "ms"),
    ("experiments.scenario_ms", "ms"),
    ("experiments.rerun_oracle_ms", "ms"),
    ("experiments.oracle_violations", "count"),
    ("experiments.fuzz_pool_ratio", "ratio"),
    ("experiments.grid_speedup", "ratio"),
    ("experiments.diff_ms", "ms"),
    ("core.render_ms", "ms"),
    ("trace.untraced_op_ms_p50", "ms"),
    ("trace.traced_op_ms_p50", "ms"),
    ("trace.overhead", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full 17-experiment registry passes at consecutive seeds.
    Registry,
    /// FIB and source-routed packet batches on the ~1k-node topology.
    Forwarding,
    /// Fixed-budget fuzz campaigns.
    Fuzz,
    /// Profiled runs, the three exporters and one diff.
    Inspect,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::Registry, Kind::Forwarding, Kind::Fuzz, Kind::Inspect];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Registry => "registry",
            Kind::Forwarding => "forwarding",
            Kind::Fuzz => "fuzz",
            Kind::Inspect => "inspect",
        }
    }

    /// What one item of `items_per_s` is on this workload.
    pub fn item(self) -> &'static str {
        match self {
            Kind::Registry => "passes_per_s",
            Kind::Forwarding => "packets_per_s",
            Kind::Fuzz => "execs_per_s",
            Kind::Inspect => "entries_per_s",
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Kind,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured seconds (untraced and traced ops alternate when tracing).
    pub seconds: f64,
    /// Report per-layer metrics from a traced phase.
    pub trace: bool,
    /// Tiny sizes and a fixed few ops, for the benchmark's own tests.
    pub tiny: bool,
    /// Repository root (golden reports are read from `tests/golden/`).
    pub root: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <registry|forwarding|fuzz|inspect> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Config {
    /// Parse command-line arguments (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>, root: PathBuf) -> Result<Config, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *Kind::ALL
                            .iter()
                            .find(|k| k.name() == value)
                            .ok_or_else(|| bad("a workload"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(|| bad("seconds > 0"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        let missing = |flag: &str| format!("missing {flag}\n{USAGE}");
        Ok(Config {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            tiny: false,
            root,
        })
    }
}

/// A workload after set-up: ops, their output checks and traced probes.
trait Workload {
    /// Run op number `index` and return the items it processed. Only this
    /// call is timed as the op.
    fn op(&mut self, index: u64, spans: &mut Spans) -> u64;
    /// Check the last op's outputs.
    fn verify(&mut self, checks: &mut Checks);
    /// After a traced op that took `op_ns`: per-layer probes and counts,
    /// outside the op's timing.
    fn probe(&mut self, index: u64, op_ns: f64, spans: &mut Spans, checks: &mut Checks);
}

/// Worker threads a workload may use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn set_up(
    config: &Config,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<Box<dyn Workload>, String> {
    Ok(match config.workload {
        Kind::Registry => Box::new(registry::setup(config, checks)?),
        Kind::Forwarding => Box::new(forwarding::setup(config, spans)),
        Kind::Fuzz => Box::new(fuzz::setup(config)),
        Kind::Inspect => Box::new(inspect::setup(config)),
    })
}

/// One closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Each op's duration, ms.
    pub op_ms: Vec<f64>,
    /// Items processed across all ops.
    pub items: u64,
    /// Ops whose output failed a check.
    pub failed: u64,
}

impl Phase {
    /// Items per second of op time.
    pub fn items_per_s(&self) -> f64 {
        let secs: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }
}

/// The closed loop. With tracing, untraced and traced ops alternate, so both
/// phases see the same moments of the run: their ratio is the tracing
/// overhead, not the host's speed drifting between two halves of the run.
fn measure(
    config: &Config,
    work: &mut dyn Workload,
    spans: &mut Spans,
    checks: &mut Checks,
) -> (Phase, Option<Phase>) {
    let budget = Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    let mut phases = [Phase::default(), Phase::default()];
    for index in 0u64.. {
        let traced = config.trace && index % 2 == 1;
        let phase = &mut phases[usize::from(traced)];
        spans.set_enabled(traced);
        let t = Instant::now();
        phase.items += work.op(index, spans);
        let op_ns = t.elapsed().as_nanos() as f64;
        phase.op_ms.push(op_ns / 1e6);
        if traced {
            work.probe(index, op_ns, spans, checks);
            spans.end_op();
        }
        spans.set_enabled(false);
        let before = checks.failed();
        work.verify(checks);
        phase.failed += u64::from(checks.failed() > before);

        let enough = if config.tiny {
            phases[0].op_ms.len() >= 2 && (!config.trace || phases[1].op_ms.len() >= 2)
        } else {
            start.elapsed() >= budget
        };
        // A traced run ends on a traced op, so both phases have samples.
        if enough && (traced || !config.trace) {
            break;
        }
    }
    let [untraced, traced] = phases;
    (untraced, config.trace.then_some(traced))
}

/// One reported metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// Spread of the samples the value came from.
    pub spread: Summary,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The run's configuration.
    pub config: Config,
    /// Every check passed, and every check ran at least once.
    pub correct: bool,
    /// Ops attempted (all phases).
    pub attempted: u64,
    /// Ops whose outputs failed a check.
    pub failed: u64,
    /// The result-line metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Every end-to-end metric of the untraced phase ([`REPORTED`]).
    pub end_to_end: Vec<Metric>,
    /// Percentile rank of `op_ms_tail`.
    pub tail_percentile: f64,
    /// The untraced phase.
    pub untraced: Phase,
    /// The traced phase (`--trace 1` only).
    pub traced: Option<Phase>,
    /// Check tallies and sanity notes.
    pub checks: Checks,
}

/// Set the workload up, measure it, and check its outputs.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut spans = Spans::default();
    let mut checks = Checks::default();
    // Set-up runs before and again after the measured phases, so `setup_s`
    // samples two moments of the run rather than one burst at its start.
    let setups = if config.tiny { 1 } else { 3 };
    let mut setup_s = Vec::with_capacity(2 * setups);
    let mut timed_set_up = |spans: &mut Spans, checks: &mut Checks| {
        let start = Instant::now();
        let w = set_up(config, spans, checks)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok::<_, String>(w)
    };
    let mut work = timed_set_up(&mut spans, &mut checks)?;
    for _ in 1..setups {
        drop(work);
        work = timed_set_up(&mut spans, &mut checks)?;
    }

    let (untraced, traced) = measure(config, work.as_mut(), &mut spans, &mut checks);
    let rss = peak_rss_mb();
    drop(work);
    for _ in 0..setups {
        timed_set_up(&mut spans, &mut checks)?;
    }

    let (tail, tail_percentile) = stats::tail(&untraced.op_ms);
    let per_op_rate: Vec<f64> = match untraced.op_ms.len() {
        0 => Vec::new(),
        n => {
            let items = untraced.items as f64 / n as f64;
            untraced.op_ms.iter().map(|ms| items / (ms / 1e3)).collect()
        }
    };
    let op = Summary::of(&untraced.op_ms);
    let end_to_end = vec![
        metric(REPORTED[0], stats::median(&setup_s), Summary::of(&setup_s)),
        metric(REPORTED[1], op.median, op),
        metric(REPORTED[2], tail, op),
        metric(REPORTED[3], untraced.items_per_s(), Summary::of(&per_op_rate)),
        metric(REPORTED[4], rss, Summary::of(&[rss])),
    ];

    let metrics = match &traced {
        None => end_to_end
            .iter()
            .filter(|m| END_TO_END.iter().any(|(name, _)| *name == m.name))
            .cloned()
            .collect(),
        Some(t) => {
            let traced_op = Summary::of(&t.op_ms);
            let overhead = if op.median > 0.0 { traced_op.median / op.median } else { 0.0 };
            spans.sample("trace.untraced_op_ms_p50", op.median);
            spans.sample("trace.traced_op_ms_p50", traced_op.median);
            spans.sample("trace.overhead", overhead);
            sanity(config.workload, &spans, &untraced, t, &mut checks);
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let s = Summary::of(spans.samples(name));
                    Metric { name, unit, value: s.median, spread: s }
                })
                .collect()
        }
    };

    let expected = expected_checks(config.workload);
    let all_ran =
        expected.iter().all(|name| checks.runs().any(|(n, runs, _)| n == *name && runs > 0));
    let attempted = (untraced.op_ms.len() + traced.as_ref().map_or(0, |t| t.op_ms.len())) as u64;
    let failed = untraced.failed + traced.as_ref().map_or(0, |t| t.failed);
    Ok(Outcome {
        config: config.clone(),
        correct: all_ran && checks.failed() == 0,
        attempted,
        failed,
        metrics,
        end_to_end,
        tail_percentile,
        untraced,
        traced,
        checks,
    })
}

fn metric((name, unit): (&'static str, &'static str), value: f64, spread: Summary) -> Metric {
    Metric { name, unit, value, spread }
}

/// The correctness checks each workload must run.
pub fn expected_checks(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Registry => &["registry.golden_2002", "registry.no_panic", "registry.shape_holds"],
        Kind::Forwarding => &["forwarding.all_delivered", "forwarding.matches_first_batch"],
        Kind::Fuzz => &["fuzz.no_violations", "fuzz.digest_matches_first"],
        Kind::Inspect => {
            &["inspect.exports_match_first", "inspect.chrome_balanced", "inspect.diff_diverges"]
        }
    }
}

/// The measured shape, repeated by the traced run: E12 dominates a
/// registry pass, the per-experiment spans account for the pass, and only
/// `registry` calls into `tussle-actors`.
fn sanity(kind: Kind, spans: &Spans, untraced: &Phase, traced: &Phase, checks: &mut Checks) {
    let actor_calls = spans.calls("actors");
    if kind != Kind::Registry {
        checks.sanity(
            "no actors work outside registry",
            actor_calls == 0,
            format!("{actor_calls} timed calls into tussle-actors"),
        );
        return;
    }
    let medians: Vec<(&str, f64)> =
        registry::experiment_keys().map(|k| (k, stats::median(spans.samples(k)))).collect();
    let (top, top_ms) =
        medians.iter().copied().fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    let sum: f64 = medians.iter().map(|(_, ms)| ms).sum();
    checks.sanity(
        "experiments.e12_ms is the largest share of a registry pass",
        top == "experiments.e12_ms",
        format!("largest is {top} at {top_ms:.3} ms of {sum:.3} ms"),
    );
    checks.sanity(
        "registry calls into tussle-actors",
        actor_calls > 0,
        format!("{actor_calls} calls"),
    );
    let (base, tr) = (Summary::of(&untraced.op_ms), Summary::of(&traced.op_ms));
    let tolerance = (tr.median - base.median).abs() + (base.q3 - base.q1);
    checks.sanity(
        "sum of experiments.*_ms agrees with the untraced op_ms_p50",
        (sum - base.median).abs() <= tolerance,
        format!(
            "sum {sum:.3} ms vs untraced p50 {:.3} ms; tolerance {tolerance:.3} ms \
             (tracing overhead + untraced IQR)",
            base.median
        ),
    );
}

/// The process's peak resident set, MB (Linux `VmHWM`; 0 if unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts recorded with every result.
pub fn host_record(root: &std::path::Path) -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let commit = if root.join(".git").exists() {
        run("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        None
    };
    vec![
        ("nproc", nproc().to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_owned()),
        ("rustc", run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ("commit", commit.unwrap_or_else(|| "unknown (not a git checkout)".into())),
    ]
}

impl Outcome {
    /// The human-readable report: host, seeds, checks, sanity notes and
    /// every metric with its spread.
    pub fn report(&self, host: &[(&str, String)]) -> String {
        let c = &self.config;
        let mut out = format!(
            "perfbench workload={} seed={} seconds={} trace={}\n",
            c.workload.name(),
            c.seed,
            c.seconds,
            u8::from(c.trace)
        );
        for (k, v) in host {
            out.push_str(&format!("host.{k}: {v}\n"));
        }
        out.push_str(&format!(
            "ops: attempted {} failed {} failed_ratio {}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        out.push_str(&format!(
            "items_per_s is {} here; op_ms_tail is the p{:.2} op\n",
            c.workload.item(),
            self.tail_percentile
        ));
        for (name, runs, failed) in self.checks.runs() {
            out.push_str(&format!("check {name}: {runs} runs, {failed} failed\n"));
        }
        for failure in self.checks.failures() {
            out.push_str(&format!("FAILED {failure}\n"));
        }
        for (name, ok, detail) in self.checks.sanity_notes() {
            out.push_str(&format!("sanity {}: {name} ({detail})\n", if *ok { "ok" } else { "NO" }));
        }
        let mut tables = vec![("untraced end-to-end", &self.end_to_end)];
        if let Some(t) = &self.traced {
            out.push_str(&format!(
                "alternating ops: {} untraced, {} traced\n",
                self.untraced.op_ms.len(),
                t.op_ms.len()
            ));
            tables.push(("per-layer (traced phase)", &self.metrics));
        }
        for (title, metrics) in tables {
            out.push_str(&format!(
                "{title}:\n  {:<32} {:>14} {:<6} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                "metric", "value", "unit", "n", "min", "q1", "median", "q3", "max"
            ));
            for m in metrics {
                let s = &m.spread;
                out.push_str(&format!(
                    "  {:<32} {:>14.6} {:<6} {:>5} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
                    m.name, m.value, m.unit, s.n, s.min, s.q1, s.median, s.q3, s.max
                ));
            }
        }
        out
    }

    /// The result line: one JSON object.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
