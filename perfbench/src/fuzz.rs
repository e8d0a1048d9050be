//! `fuzz`: one op is a fixed-budget `run_fuzz` campaign on `nproc` threads.

use crate::spans::{Checks, Spans};
use crate::{Config, Workload};
use std::collections::BTreeSet;
use std::time::Instant;
use tussle_experiments::fuzz::{
    check_cache_equivalence, check_checkpoint_resume, check_rerun_determinism, generate, mutate,
    run_scenario,
};
use tussle_experiments::{run_fuzz, FuzzConfig, FuzzReport};
use tussle_sim::{Fnv1a, RunDigest, SimRng};

/// Mutation chains per campaign; the budget is split evenly across them.
/// Twelve short chains keep both worker threads busy to the end of a
/// campaign; with four, an op waited on whichever thread drew the slower
/// chains, and its run-to-run spread was twice as wide.
const CHAINS: u64 = 12;

/// `run_fuzz`'s sampling strides for its re-execution oracles.
const RERUN_STRIDE: u64 = 5;
const CACHE_STRIDE: u64 = 7;
const CHECKPOINT_STRIDE: u64 = 9;

pub struct Fuzz {
    config: FuzzConfig,
    first_digest: String,
    last: FuzzReport,
}

/// Run the campaign once; its digest is the reference every op must equal.
pub fn setup(config: &Config) -> Fuzz {
    let fuzz = FuzzConfig {
        budget: if config.tiny { 12 } else { 600 },
        seeds: CHAINS,
        base_seed: config.seed,
        corpus_dir: None,
        threads: Some(crate::nproc()),
    };
    let last = campaign(&fuzz);
    Fuzz { config: fuzz, first_digest: last.digest.clone(), last }
}

fn campaign(config: &FuzzConfig) -> FuzzReport {
    run_fuzz(config).expect("budget and seeds are nonzero")
}

impl Workload for Fuzz {
    fn op(&mut self, _index: u64, _spans: &mut Spans) -> u64 {
        self.last = campaign(&self.config);
        self.last.executions
    }

    fn verify(&mut self, checks: &mut Checks) {
        let violations: u64 = self.last.oracles.iter().map(|o| o.violations).sum();
        checks.check(
            "fuzz.no_violations",
            violations == 0 && self.last.findings.is_empty(),
            || format!("{violations} oracle violations: {:?}", self.last.findings),
        );
        checks.check("fuzz.digest_matches_first", self.last.digest == self.first_digest, || {
            format!("digest {} != first campaign's {}", self.last.digest, self.first_digest)
        });
    }

    fn probe(&mut self, _index: u64, op_ns: f64, spans: &mut Spans, checks: &mut Checks) {
        let report = &self.last;
        let violations: u64 = report.oracles.iter().map(|o| o.violations).sum();
        let pool: u64 = report.chains.iter().map(|c| c.pool).sum();
        spans.sample("experiments.oracle_violations", violations as f64);
        spans.sample("experiments.fuzz_pool_ratio", pool as f64 / report.executions as f64);

        let one_thread = FuzzConfig { threads: Some(1), ..self.config.clone() };
        let start = Instant::now();
        campaign(&one_thread);
        spans.sample("experiments.grid_speedup", start.elapsed().as_nanos() as f64 / op_ns);

        // The per-oracle split: replay each chain call by call.
        for chain in &report.chains {
            let digest = replay_chain(chain.seed, chain.executions, spans);
            checks.sanity(
                "fuzz chain replays match run_fuzz's chain digests",
                digest == chain.digest,
                format!("chain {}: replay {digest}, campaign {}", chain.seed, chain.digest),
            );
        }
    }
}

/// `run_fuzz`'s mutation chain, with every scenario run and re-execution
/// oracle timed on its own. Returns the chain digest.
fn replay_chain(seed: u64, budget: u64, spans: &mut Spans) -> String {
    let mut rng = SimRng::seed_from_u64(seed).fork("fuzz-chain");
    let mut coverage: BTreeSet<String> = BTreeSet::new();
    let mut pool = Vec::new();
    let mut digest = Fnv1a::new();
    for i in 0..budget {
        let scenario = if pool.is_empty() || rng.chance(0.35) {
            generate(&mut rng.fork(&format!("gen-{i}")))
        } else {
            let pick = rng.range(0..pool.len() as u32) as usize;
            mutate(&mut rng.fork(&format!("mut-{i}")), &pool[pick])
        };
        let outcome = spans.time("experiments.scenario_ms", || run_scenario(&scenario));
        digest.write_str(&outcome.digest);
        if i % RERUN_STRIDE == 1 {
            spans.time("experiments.rerun_oracle_ms", || check_rerun_determinism(&scenario));
        }
        if i % CACHE_STRIDE == 2 {
            spans.time("net.cache_oracle_ms", || check_cache_equivalence(&scenario));
        }
        if i % CHECKPOINT_STRIDE == 3 {
            spans.time("sim.checkpoint_oracle_ms", || check_checkpoint_resume(&scenario));
        }
        if outcome.coverage.iter().any(|c| !coverage.contains(c)) {
            coverage.extend(outcome.coverage);
            pool.push(scenario);
        }
    }
    RunDigest(digest.finish()).to_hex()
}
