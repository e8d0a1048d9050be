//! Tiny-size runs of every workload: every metric is reported with its
//! unit, every correctness check runs and passes, and `BENCHMARK.json`
//! names exactly the metrics the benchmark reports.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{expected_checks, run, Config, Kind, END_TO_END, PER_LAYER, REPORTED};
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn tiny(workload: Kind, trace: bool) -> perfbench::Outcome {
    let config = Config { workload, seed: 3, seconds: 1.0, trace, tiny: true, root: root() };
    run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn every_workload_reports_every_metric_and_runs_every_check() {
    for kind in Kind::ALL {
        for trace in [false, true] {
            let out = tiny(kind, trace);
            let label = format!("{} trace={trace}", kind.name());
            assert!(out.correct, "{label}: {:?}", out.checks.failures());
            assert_eq!(out.failed, 0, "{label}");
            assert!(out.attempted >= 2, "{label}: {} ops", out.attempted);
            for name in expected_checks(kind) {
                assert!(
                    out.checks
                        .runs()
                        .any(|(n, runs, failed)| n == *name && runs > 0 && failed == 0),
                    "{label}: check {name} did not run clean"
                );
            }
            let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want, "{label}");
            assert!(out.metrics.iter().all(|m| m.value.is_finite() && m.value >= 0.0), "{label}");
            let reported: Vec<(&str, &str)> =
                out.end_to_end.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(reported, REPORTED, "{label}");
            assert!(
                out.end_to_end.iter().all(|m| m.value > 0.0),
                "{label}: an end-to-end metric is 0"
            );
            assert!(out.report(&[]).contains("op_ms_p50"), "{label}");
            let line = out.result_line();
            for (name, unit) in want {
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{label}: {name}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{label}: {unit}");
            }
        }
    }
}

#[test]
fn traced_runs_measure_their_own_layers() {
    let value = |out: &perfbench::Outcome, name: &str| {
        out.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect("metric reported")
    };
    let registry = tiny(Kind::Registry, true);
    assert!(value(&registry, "experiments.e12_ms") > 0.0);
    assert!(value(&registry, "actors.step_ms") > 0.0);
    assert!(value(&registry, "actors.aligned_pairs") > 0.0);
    let forwarding = tiny(Kind::Forwarding, true);
    assert_eq!(value(&forwarding, "net.delivered_ratio"), 1.0);
    assert_eq!(value(&forwarding, "actors.step_ms"), 0.0);
    let fuzz = tiny(Kind::Fuzz, true);
    assert!(value(&fuzz, "experiments.scenario_ms") > 0.0);
    assert!(value(&fuzz, "experiments.grid_speedup") > 0.0);
    let inspect = tiny(Kind::Inspect, true);
    assert!(value(&inspect, "sim.trace_entries") > 10_000.0);
    for out in [&registry, &forwarding, &fuzz, &inspect] {
        assert!(
            out.checks
                .sanity_notes()
                .iter()
                .filter(|(n, ..)| !n.contains("largest"))
                .all(|(_, ok, _)| *ok),
            "{}: {:?}",
            out.config.workload.name(),
            out.checks.sanity_notes()
        );
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let json = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    for kind in Kind::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())), "{}", kind.name());
    }
}

#[test]
fn bad_arguments_are_refused() {
    let parse = |args: &[&str]| Config::parse(args.iter().map(|s| (*s).to_owned()), root());
    assert!(parse(&["--workload", "registry", "--seed", "1"]).is_ok());
    assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
    assert!(parse(&["--workload", "fuzz"]).is_err());
    assert!(parse(&["--workload", "fuzz", "--seed", "1", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "fuzz", "--seed", "1", "--seconds", "0"]).is_err());
    assert!(parse(&["--seed"]).is_err());
}
