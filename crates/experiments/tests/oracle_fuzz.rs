//! Equivalence oracle for the campaign's sampled re-execution oracles.
//!
//! A campaign checks `rerun-determinism` with one Cost-scope rerun against
//! the digest `run_scenario` already returned, and `cache-equivalence`
//! with one cache-off engine run against the engine digest it returned.
//! `ref_check_rerun_determinism` (two full Profile-mode runs) and
//! `ref_check_cache_equivalence` (a cache-on and a cache-off engine run)
//! are the two-run forms those replaced, kept verbatim apart from
//! building `Violation`s field by field and taking the engine run from
//! `engine_digest`, which holds their old closure body. Over generated and
//! mutated scenarios and every committed corpus entry, the new and the
//! reference oracles must return the same result. Two pins, printed by the
//! two-run build, hold the campaign reports in place.

use std::fs;
use std::path::PathBuf;
use tussle_experiments::fuzz::{
    check_cache_equivalence, check_rerun_determinism, engine_digest, generate, mutate,
    run_scenario, Violation,
};
use tussle_experiments::{run_fuzz, CorpusEntry, FuzzConfig, Scenario};
use tussle_sim::{obs, ObsMode, RunDigest, SimRng};

/// Rerun the scenario and compare digests (`rerun-determinism`).
fn ref_check_rerun_determinism(s: &Scenario) -> Option<Violation> {
    let a = run_scenario(s);
    let b = run_scenario(s);
    (a.digest != b.digest).then(|| Violation {
        oracle: "rerun-determinism".to_owned(),
        detail: format!("digest {} vs {} across identical reruns", a.digest, b.digest),
    })
}

/// Run the engine half with the route cache on and off; digests must
/// agree byte-for-byte (`cache-equivalence`).
fn ref_check_cache_equivalence(s: &Scenario) -> Option<Violation> {
    let run = |cache: bool| engine_digest(s, cache).to_hex();
    let (on, off) = (run(true), run(false));
    (on != off).then(|| Violation {
        oracle: "cache-equivalence".to_owned(),
        detail: format!("route cache on/off digests diverge: {on} vs {off}"),
    })
}

/// 256 scenarios the way a mutation chain draws them (generated, or
/// mutated from an earlier one), then every committed corpus scenario.
fn scenarios() -> Vec<Scenario> {
    let mut rng = SimRng::seed_from_u64(2002).fork("oracle-fuzz");
    let mut out: Vec<Scenario> = Vec::new();
    for i in 0..256u32 {
        let next = if out.is_empty() || rng.chance(0.35) {
            generate(&mut rng.fork(&format!("gen-{i}")))
        } else {
            let pick = rng.range(0..out.len() as u32) as usize;
            mutate(&mut rng.fork(&format!("mut-{i}")), &out[pick])
        };
        out.push(next);
    }
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<PathBuf> = fs::read_dir(&corpus)
        .expect("tests/corpus exists")
        .map(|item| item.expect("corpus entries are readable").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    assert!(!files.is_empty(), "tests/corpus holds at least one entry");
    files.sort();
    for path in files {
        let body = fs::read_to_string(&path).expect("corpus entries are readable");
        let entry: CorpusEntry = serde_json::from_str(&body).expect("corpus entries parse");
        out.push(entry.scenario);
    }
    out
}

/// The engine digest of a cache-on run inside a scope of `mode` (`None`:
/// no scope at all).
fn engine_digest_under(mode: Option<ObsMode>, s: &Scenario) -> RunDigest {
    let guard = mode.map(obs::begin);
    let digest = engine_digest(s, true);
    drop(guard);
    digest
}

#[test]
fn rerun_and_cache_oracles_agree_with_the_two_run_references() {
    for (i, s) in scenarios().iter().enumerate() {
        let rerun = check_rerun_determinism(s);
        assert_eq!(rerun, None, "scenario {i}: the Cost-scope rerun missed run_scenario's digest");
        assert_eq!(rerun, ref_check_rerun_determinism(s), "scenario {i}: rerun oracles disagree");
        let cache = check_cache_equivalence(s);
        assert_eq!(cache, None, "scenario {i}: the cache-off run missed the cache-on digest");
        assert_eq!(cache, ref_check_cache_equivalence(s), "scenario {i}: cache oracles disagree");
    }
}

#[test]
fn scenario_engine_digest_reads_the_same_under_every_scope() {
    for (i, s) in scenarios().iter().enumerate() {
        let held = run_scenario(s).engine_digest;
        for mode in [None, Some(ObsMode::Cost), Some(ObsMode::Profile)] {
            assert_eq!(held, engine_digest_under(mode, s), "scenario {i}: scope {mode:?}");
        }
    }
}

#[test]
fn campaign_reports_match_the_two_run_build() {
    let smoke = FuzzConfig { budget: 200, seeds: 3, base_seed: 1, corpus_dir: None, threads: None };
    let json = run_fuzz(&smoke).expect("campaign runs").to_json();
    assert_eq!(json + "\n", include_str!("fuzz_200x3_base1.json"));

    let campaign =
        FuzzConfig { budget: 600, seeds: 12, base_seed: 1, corpus_dir: None, threads: None };
    assert_eq!(run_fuzz(&campaign).expect("campaign runs").digest, "2d01e9e843cb7f2c");
}
