//! Equivalence oracle for the table-driven CLI parser.
//!
//! The `parse_args` below is the hand-written parser the flag table
//! replaced, kept verbatim with its helpers; the parser under test is
//! called as `tussle_cli::parse_args`. On argument vectors built from
//! every command (plus an unknown word) and from tokens drawn from every
//! flag (plus an unknown one) and from valid and malformed values, both
//! must return the same `Result<Command, UsageError>`. The one intended
//! difference: `list`, `mechanisms` and `ladder <mechanism>` now reject
//! trailing arguments as unknown flags, where the reference ignored them.

use proptest::prelude::*;
use tussle_cli::{parse_mechanism, Command, UsageError};
use tussle_experiments as experiments;

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

/// Parse a `--threads` worker count. Zero workers cannot make progress, so
/// it is rejected uniformly across `sweep`, `chaos` and `diff`.
fn parse_threads(v: &str) -> Result<usize, UsageError> {
    let n: usize = v.parse().map_err(|_| UsageError(format!("bad thread count '{v}'")))?;
    if n == 0 {
        return Err(UsageError("--threads must be at least 1".into()));
    }
    Ok(n)
}

/// Parse an `--every` checkpoint interval. Zero would demand a snapshot
/// between every pair of events and none at once, so it is rejected
/// uniformly across `checkpoint` and `recovery`.
fn parse_every(v: &str) -> Result<u64, UsageError> {
    let n: u64 = v.parse().map_err(|_| UsageError(format!("bad checkpoint interval '{v}'")))?;
    if n == 0 {
        return Err(UsageError("--every must be at least 1".into()));
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

/// Parse the argument vector (without the binary name).
pub fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter();
    match it.next().map(|s| s.as_str()) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("list") => Ok(Command::List),
        Some("mechanisms") => Ok(Command::Mechanisms),
        Some("ladder") => {
            let name =
                it.next().ok_or_else(|| UsageError("ladder needs a mechanism name".into()))?;
            Ok(Command::Ladder { mechanism: parse_mechanism(name)? })
        }
        Some("experiments") => {
            let mut seed = 2002u64;
            let mut json = false;
            let mut only = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seed needs a value".into()))?;
                        seed = v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))?;
                    }
                    "--json" => json = true,
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs ids like E1,E4".into()))?;
                        only = parse_only(v)?;
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Experiments { seed, json, only })
        }
        Some("profile") => {
            let mut seed = 2002u64;
            let mut json = false;
            let mut collapsed = false;
            let mut only = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seed needs a value".into()))?;
                        seed = v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))?;
                    }
                    "--json" => json = true,
                    "--collapsed" => collapsed = true,
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs ids like E1,E4".into()))?;
                        only = parse_only(v)?;
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            if collapsed && json {
                return Err(UsageError(
                    "--collapsed emits flamegraph-ready text; it cannot combine with --json".into(),
                ));
            }
            Ok(Command::Profile { seed, json, collapsed, only })
        }
        Some("explain") => {
            let mut seed = 2002u64;
            let mut json = false;
            let mut id = None;
            let mut event = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seed needs a value".into()))?;
                        seed = v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))?;
                    }
                    "--json" => json = true,
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs one id like E9".into()))?;
                        id = Some(parse_single_only(v)?);
                    }
                    "--event" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--event needs an id like e7".into()))?;
                        event =
                            Some(experiments::causality::parse_event_id(v).map_err(UsageError)?);
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            let id = id.ok_or_else(|| UsageError("explain needs --only <experiment>".into()))?;
            let event = event.ok_or_else(|| UsageError("explain needs --event <id>".into()))?;
            Ok(Command::Explain { id, seed, event, json })
        }
        Some("diff") => {
            let mut id = None;
            let mut seed = 2002u64;
            let mut seed_b = None;
            let mut intensity = 0.0;
            let mut intensity_b = None;
            let mut json = false;
            let mut threads = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs one id like E9".into()))?;
                        id = Some(parse_single_only(v)?);
                    }
                    "--seed" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seed needs a value".into()))?;
                        seed = v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))?;
                    }
                    "--seed-b" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seed-b needs a value".into()))?;
                        seed_b =
                            Some(v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))?);
                    }
                    "--intensity" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--intensity needs a value".into()))?;
                        intensity = parse_intensity(v)?;
                    }
                    "--intensity-b" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--intensity-b needs a value".into()))?;
                        intensity_b = Some(parse_intensity(v)?);
                    }
                    "--json" => json = true,
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--threads needs a count".into()))?;
                        threads = Some(parse_threads(v)?);
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
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
            let mut seed = 2002u64;
            let mut only = Vec::new();
            let mut grep = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seed needs a value".into()))?;
                        seed = v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))?;
                    }
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs ids like E1,E4".into()))?;
                        only = parse_only(v)?;
                    }
                    "--grep" => {
                        let v = it.next().ok_or_else(|| {
                            UsageError("--grep needs a topic prefix like econ.".into())
                        })?;
                        if v.is_empty() {
                            return Err(UsageError("--grep needs a nonempty prefix".into()));
                        }
                        grep = Some(v.clone());
                    }
                    "--json" => json = true,
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Trace { seed, only, grep, json })
        }
        Some("export") => {
            let mut seed = 2002u64;
            let mut only = Vec::new();
            let mut format = "chrome".to_owned();
            let mut out = None;
            let mut threads = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seed needs a value".into()))?;
                        seed = v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))?;
                    }
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs ids like E1,E4".into()))?;
                        only = parse_only(v)?;
                    }
                    "--format" => {
                        let v = it.next().ok_or_else(|| {
                            UsageError("--format needs chrome, prom or jsonl".into())
                        })?;
                        match v.as_str() {
                            "chrome" | "prom" | "jsonl" => format = v.clone(),
                            other => {
                                return Err(UsageError(format!(
                                "unknown export format '{other}': expected chrome, prom or jsonl"
                            )))
                            }
                        }
                    }
                    "--out" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--out needs a file path".into()))?;
                        out = Some(v.clone());
                    }
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--threads needs a count".into()))?;
                        threads = Some(parse_threads(v)?);
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Export { seed, only, format, out, threads })
        }
        Some("health") => {
            let mut bench = "BENCH_sim.json".to_owned();
            let mut baseline = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--bench" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--bench needs a sidecar file".into()))?;
                        bench = v.clone();
                    }
                    "--baseline" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--baseline needs a sidecar file".into()))?;
                        baseline = Some(v.clone());
                    }
                    "--json" => json = true,
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Health { bench, baseline, json })
        }
        Some("sweep") => {
            let mut seeds = 32u64;
            let mut base_seed = 1u64;
            let mut only = Vec::new();
            let mut json = false;
            let mut threads = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seeds" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seeds needs a count".into()))?;
                        seeds =
                            v.parse().map_err(|_| UsageError(format!("bad seed count '{v}'")))?;
                        if seeds == 0 {
                            return Err(UsageError("--seeds must be at least 1".into()));
                        }
                    }
                    "--base" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--base needs a seed".into()))?;
                        base_seed =
                            v.parse().map_err(|_| UsageError(format!("bad base seed '{v}'")))?;
                    }
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs ids like E1,E4".into()))?;
                        only = parse_only(v)?;
                    }
                    "--json" => json = true,
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--threads needs a count".into()))?;
                        threads = Some(parse_threads(v)?);
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Sweep { seeds, base_seed, only, json, threads })
        }
        Some("chaos") => {
            let defaults = experiments::ChaosConfig::default();
            let mut intensities = defaults.intensities;
            let mut seeds = defaults.seeds;
            let mut base_seed = defaults.base_seed;
            let mut only = Vec::new();
            let mut json = false;
            let mut threads = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--intensities" => {
                        let v = it.next().ok_or_else(|| {
                            UsageError("--intensities needs values like 0,0.2,0.5".into())
                        })?;
                        intensities = parse_intensities(v)?;
                    }
                    "--seeds" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seeds needs a count".into()))?;
                        seeds =
                            v.parse().map_err(|_| UsageError(format!("bad seed count '{v}'")))?;
                        if seeds == 0 {
                            return Err(UsageError("--seeds must be at least 1".into()));
                        }
                    }
                    "--base" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--base needs a seed".into()))?;
                        base_seed =
                            v.parse().map_err(|_| UsageError(format!("bad base seed '{v}'")))?;
                    }
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs ids like E1,E4".into()))?;
                        only = parse_only(v)?;
                    }
                    "--json" => json = true,
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--threads needs a count".into()))?;
                        threads = Some(parse_threads(v)?);
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Chaos { intensities, seeds, base_seed, only, json, threads })
        }
        Some("checkpoint") => {
            let mut id = None;
            let mut seed = 2002u64;
            let mut every = 500u64;
            let mut dir = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs one id like E9".into()))?;
                        id = Some(parse_single_only(v)?);
                    }
                    "--seed" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seed needs a value".into()))?;
                        seed = v.parse().map_err(|_| UsageError(format!("bad seed '{v}'")))?;
                    }
                    "--every" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--every needs an event count".into()))?;
                        every = parse_every(v)?;
                    }
                    "--dir" => {
                        let v = it.next().ok_or_else(|| UsageError("--dir needs a path".into()))?;
                        dir = Some(v.clone());
                    }
                    "--json" => json = true,
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            let id = id.ok_or_else(|| UsageError("checkpoint needs --only <experiment>".into()))?;
            let dir = dir.ok_or_else(|| UsageError("checkpoint needs --dir <directory>".into()))?;
            Ok(Command::Checkpoint { id, seed, every, dir, json })
        }
        Some("resume") => {
            let mut from = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--from" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--from needs a snapshot file".into()))?;
                        from = Some(v.clone());
                    }
                    "--json" => json = true,
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            let from = from.ok_or_else(|| UsageError("resume needs --from <snapshot>".into()))?;
            Ok(Command::Resume { from, json })
        }
        Some("recovery") => {
            let defaults = experiments::RecoveryConfig::default();
            let mut seeds = defaults.seeds;
            let mut base_seed = defaults.base_seed;
            let mut kills = defaults.kill_points;
            let mut every = defaults.every;
            let mut only = Vec::new();
            let mut json = false;
            let mut threads = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seeds" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seeds needs a count".into()))?;
                        seeds =
                            v.parse().map_err(|_| UsageError(format!("bad seed count '{v}'")))?;
                        if seeds == 0 {
                            return Err(UsageError("--seeds must be at least 1".into()));
                        }
                    }
                    "--base" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--base needs a seed".into()))?;
                        base_seed =
                            v.parse().map_err(|_| UsageError(format!("bad base seed '{v}'")))?;
                    }
                    "--kills" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--kills needs a count".into()))?;
                        kills =
                            v.parse().map_err(|_| UsageError(format!("bad kill count '{v}'")))?;
                        if kills == 0 {
                            return Err(UsageError("--kills must be at least 1".into()));
                        }
                    }
                    "--every" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--every needs an event count".into()))?;
                        every = parse_every(v)?;
                    }
                    "--only" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--only needs ids like E1,E4".into()))?;
                        only = parse_only(v)?;
                    }
                    "--json" => json = true,
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--threads needs a count".into()))?;
                        threads = Some(parse_threads(v)?);
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Recovery { seeds, base_seed, kills, every, only, json, threads })
        }
        Some("fuzz") => {
            let defaults = experiments::FuzzConfig::default();
            let mut budget = defaults.budget;
            let mut seeds = defaults.seeds;
            let mut base_seed = defaults.base_seed;
            let mut corpus = None;
            let mut json = false;
            let mut threads = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--budget" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--budget needs a count".into()))?;
                        budget = v.parse().map_err(|_| UsageError(format!("bad budget '{v}'")))?;
                        if budget == 0 {
                            return Err(UsageError("--budget must be at least 1".into()));
                        }
                    }
                    "--seeds" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--seeds needs a count".into()))?;
                        seeds =
                            v.parse().map_err(|_| UsageError(format!("bad seed count '{v}'")))?;
                        if seeds == 0 {
                            return Err(UsageError("--seeds must be at least 1".into()));
                        }
                    }
                    "--base" => {
                        let v =
                            it.next().ok_or_else(|| UsageError("--base needs a seed".into()))?;
                        base_seed =
                            v.parse().map_err(|_| UsageError(format!("bad base seed '{v}'")))?;
                    }
                    "--corpus" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--corpus needs a directory".into()))?;
                        corpus = Some(v.clone());
                    }
                    "--json" => json = true,
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| UsageError("--threads needs a count".into()))?;
                        threads = Some(parse_threads(v)?);
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Fuzz { budget, seeds, base_seed, corpus, json, threads })
        }
        Some(other) => Err(UsageError(format!("unknown command '{other}'; try `tussle-cli help`"))),
    }
}

/// Every command word, `help` and one unknown word.
const COMMANDS: [&str; 18] = [
    "experiments",
    "profile",
    "trace",
    "explain",
    "diff",
    "sweep",
    "chaos",
    "checkpoint",
    "resume",
    "recovery",
    "fuzz",
    "export",
    "health",
    "list",
    "ladder",
    "mechanisms",
    "help",
    "frobnicate",
];

/// Every flag the parser knows, one it does not, and valid and malformed
/// values: zero, non-numbers, empty and duplicate `--only` ids, an
/// out-of-range and a NaN intensity, the empty string, a u64 overflow and
/// a bad `--format`.
const TOKENS: [&str; 49] = [
    "--seed",
    "--seed-b",
    "--seeds",
    "--base",
    "--only",
    "--json",
    "--threads",
    "--collapsed",
    "--event",
    "--intensity",
    "--intensity-b",
    "--intensities",
    "--grep",
    "--format",
    "--out",
    "--bench",
    "--baseline",
    "--every",
    "--dir",
    "--from",
    "--kills",
    "--budget",
    "--corpus",
    "--bogus",
    "0",
    "1",
    "7",
    "2002",
    "banana",
    "",
    "18446744073709551616",
    "E1,,E4",
    "E1,E1",
    "E9",
    "e1,E4",
    "E99",
    "1.5",
    "NaN",
    "0.5",
    "0,0.2",
    "0,,1",
    "chrome",
    "prom",
    "jsonl",
    "yaml",
    "e7",
    "nat",
    "econ.",
    "/tmp/x",
];

/// What the table-driven parser must return: the reference's answer,
/// except that `list`, `mechanisms` and a well-formed `ladder` now reject
/// their first trailing argument.
fn expected(argv: &[String]) -> Result<Command, UsageError> {
    let old = parse_args(argv);
    let trailing = match argv.first().map(String::as_str) {
        Some("list" | "mechanisms") => argv.get(1),
        Some("ladder") if old.is_ok() => argv.get(2),
        _ => None,
    };
    match trailing {
        Some(arg) => Err(UsageError(format!("unknown flag '{arg}'"))),
        None => old,
    }
}

fn argv(command: &str, tokens: &[&str]) -> Vec<String> {
    std::iter::once(command).chain(tokens.iter().copied()).map(str::to_owned).collect()
}

#[test]
fn every_tail_of_up_to_two_tokens_matches_the_reference() {
    let (mut ok, mut err) = (0, 0);
    for command in COMMANDS {
        let mut tails: Vec<Vec<&str>> = vec![vec![]];
        for a in TOKENS {
            tails.push(vec![a]);
            tails.extend(TOKENS.iter().map(|b| vec![a, *b]));
        }
        for tail in tails {
            let argv = argv(command, &tail);
            let got = tussle_cli::parse_args(&argv);
            assert_eq!(got, expected(&argv), "argv {argv:?}");
            if got.is_ok() {
                ok += 1;
            } else {
                err += 1;
            }
        }
    }
    // Both outcomes are well represented, so the oracle is not vacuous.
    assert!(ok > 1_000 && err > 1_000, "{ok} Ok vs {err} Err");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn random_argv_matches_the_reference(
        command in 0..COMMANDS.len(),
        tokens in prop::collection::vec(0..TOKENS.len(), 0..=6),
    ) {
        let tail: Vec<&str> = tokens.iter().map(|&i| TOKENS[i]).collect();
        let argv = argv(COMMANDS[command], &tail);
        prop_assert_eq!(tussle_cli::parse_args(&argv), expected(&argv), "argv {:?}", argv);
    }
}
