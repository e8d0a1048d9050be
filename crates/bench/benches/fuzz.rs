//! Fuzzer bench: what scenario generation and the oracle registry cost.
//!
//! Three questions, three groups:
//!
//! 1. `fuzz/generate` — how fast the seeded scenario generator runs on its
//!    own (the mutation loop's floor).
//! 2. `fuzz/run-scenario` — one scenario executed end to end with every
//!    always-on oracle (packet conservation, route validity, money
//!    conservation, NAT round-trip, policy determinism) attached.
//! 3. `fuzz/oracles` — the sampled cross-run oracles in their standalone
//!    forms, priced individually: rerun-determinism (a Profile-mode run,
//!    then a Cost-scope rerun) and cache-equivalence (cache-on vs
//!    cache-off engine runs), plus a small end-to-end campaign so oracle
//!    overhead can be read against total campaign cost. Inside a campaign
//!    both skip their reference run: they check the run `run_scenario`
//!    already made.
//!
//! ```sh
//! cargo bench -p tussle-bench --bench fuzz
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tussle_experiments::fuzz::{
    check_cache_equivalence, check_rerun_determinism, generate, mutate, run_scenario,
};
use tussle_experiments::{run_fuzz, FuzzConfig};
use tussle_sim::SimRng;

fn bench_generate(c: &mut Criterion) {
    let mut g = c.benchmark_group("fuzz");
    g.bench_function("generate", |b| {
        let mut rng = SimRng::seed_from_u64(7).fork("bench-generate");
        b.iter(|| black_box(generate(&mut rng)))
    });
    g.bench_function("mutate", |b| {
        let mut rng = SimRng::seed_from_u64(7).fork("bench-mutate");
        let base = generate(&mut rng);
        b.iter(|| black_box(mutate(&mut rng, black_box(&base))))
    });
    g.finish();
}

fn bench_run_scenario(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(11).fork("bench-run");
    let scenario = generate(&mut rng);
    let mut g = c.benchmark_group("fuzz");
    g.sample_size(20);
    g.bench_function("run-scenario", |b| b.iter(|| black_box(run_scenario(black_box(&scenario)))));
    g.finish();
}

fn bench_oracles(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(13).fork("bench-oracle");
    let scenario = generate(&mut rng);
    let mut g = c.benchmark_group("fuzz");
    g.sample_size(10);
    g.bench_function("oracle-rerun-determinism", |b| {
        b.iter(|| black_box(check_rerun_determinism(black_box(&scenario))))
    });
    g.bench_function("oracle-cache-equivalence", |b| {
        b.iter(|| black_box(check_cache_equivalence(black_box(&scenario))))
    });
    g.bench_function("campaign-budget-20", |b| {
        let cfg = FuzzConfig { budget: 20, seeds: 2, base_seed: 1, ..FuzzConfig::default() };
        b.iter(|| black_box(run_fuzz(black_box(&cfg)).expect("campaign runs")))
    });
    g.finish();
}

criterion_group!(benches, bench_generate, bench_run_scenario, bench_oracles);
criterion_main!(benches);
