//! Replays every committed fuzz-corpus entry in `tests/corpus/`.
//!
//! The corpus is the fuzzer's long-term memory (see DESIGN.md §8): shrunk
//! violation repros, fixed-bug regression scenarios, and seeded near-miss
//! scenarios all live here as stable-schema JSON. This suite keeps them
//! honest on every CI run:
//!
//! - `violation` entries must still trip their recorded oracle (a repro
//!   that went quiet means the bug moved, not that it is fixed — update
//!   the entry's kind to `regression` once the fix lands),
//! - `regression` and `near-miss` entries must stay green on every oracle,
//! - every entry must round-trip the schema and sit under its own stable
//!   filename, so the corpus can't rot in place.

use std::fs;
use std::path::PathBuf;
use tussle::experiments::fuzz::{check_oracle, run_scenario, CorpusEntry, CORPUS_SCHEMA, ORACLES};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn entries() -> Vec<(String, CorpusEntry)> {
    let mut out = Vec::new();
    for item in fs::read_dir(corpus_dir()).expect("tests/corpus exists") {
        let path = item.expect("corpus entries are readable").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().expect("corpus files are named").to_string_lossy().to_string();
        let body = fs::read_to_string(&path).expect("corpus entries are readable");
        let entry: CorpusEntry =
            serde_json::from_str(&body).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        out.push((name, entry));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn corpus_is_not_empty_and_on_the_current_schema() {
    let all = entries();
    assert!(!all.is_empty(), "tests/corpus must hold at least one committed entry");
    for (name, entry) in &all {
        assert_eq!(entry.schema, CORPUS_SCHEMA, "{name}: stale schema");
        assert!(
            matches!(entry.kind.as_str(), "violation" | "regression" | "near-miss"),
            "{name}: unknown kind {:?}",
            entry.kind
        );
        assert_eq!(name, &entry.filename(), "{name}: filename out of sync with content");
        if let Some(oracle) = &entry.oracle {
            assert!(
                ORACLES.iter().any(|(id, _)| id == oracle),
                "{name}: names unknown oracle {oracle:?}"
            );
        }
    }
}

#[test]
fn violation_entries_still_reproduce_and_green_entries_stay_green() {
    for (name, entry) in entries() {
        match entry.kind.as_str() {
            "violation" => {
                let oracle = entry
                    .oracle
                    .as_deref()
                    .unwrap_or_else(|| panic!("{name}: violation entry without an oracle"));
                assert!(
                    check_oracle(&entry.scenario, oracle).is_some(),
                    "{name}: recorded violation no longer reproduces — if the bug is \
                     fixed, reclassify the entry as a regression"
                );
            }
            "regression" | "near-miss" => {
                let outcome = run_scenario(&entry.scenario);
                assert!(
                    outcome.violations.is_empty(),
                    "{name}: scenario regressed: {:?}",
                    outcome.violations
                );
                for (oracle, _) in ORACLES {
                    assert!(
                        check_oracle(&entry.scenario, oracle).is_none(),
                        "{name}: {oracle} oracle now fires"
                    );
                }
            }
            other => panic!("{name}: unknown kind {other:?}"),
        }
    }
}

#[test]
fn corpus_replay_is_deterministic() {
    for (name, entry) in entries() {
        let a = run_scenario(&entry.scenario);
        let b = run_scenario(&entry.scenario);
        assert_eq!(a.digest, b.digest, "{name}: replay digest drifted");
        assert_eq!(a.coverage, b.coverage, "{name}: replay coverage drifted");
    }
}
