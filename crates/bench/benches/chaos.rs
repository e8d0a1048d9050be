//! Chaos-campaign bench: what robustness testing costs on top of a sweep.
//!
//! Times the chaos campaign over a small intensity grid against the plain
//! sweep covering the same `experiments × total runs`, and asserts the
//! ambient-fault plumbing is close to free: an intensity-0-only campaign
//! must stay within a small constant factor of the equivalent sweep (an
//! intensity-0 cell runs the sweep's own harness, and the scope's
//! intensity check costs one load per hop, no rng draws).
//!
//! ```sh
//! cargo bench -p tussle-bench --bench chaos
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tussle_experiments::{run_chaos, run_sweep, ChaosConfig, SweepConfig};

const ONLY: [&str; 3] = ["E4", "E6", "E17"];

fn chaos_config(intensities: &[f64]) -> ChaosConfig {
    ChaosConfig {
        intensities: intensities.to_vec(),
        seeds: 4,
        base_seed: 1,
        only: Some(ONLY.iter().map(|s| (*s).to_owned()).collect()),
        threads: None,
    }
}

fn sweep_config(seeds: u64) -> SweepConfig {
    SweepConfig {
        seeds,
        base_seed: 1,
        only: Some(ONLY.iter().map(|s| (*s).to_owned()).collect()),
        threads: None,
    }
}

/// Rounds of the intensity-0 overhead gate; each round times both arms.
const GATE_ROUNDS: usize = 3;

/// Wall-clock of one call, in nanoseconds.
fn time_ns(run: impl FnOnce()) -> u128 {
    let start = Instant::now();
    run();
    start.elapsed().as_nanos()
}

fn bench_chaos(c: &mut Criterion) {
    let mut g = c.benchmark_group("chaos");
    g.sample_size(10);
    g.bench_function("campaign_grid_3_intensities", |b| {
        b.iter(|| black_box(run_chaos(&chaos_config(&[0.0, 0.4, 0.8])).expect("campaign runs")))
    });
    g.bench_function("campaign_intensity_zero_only", |b| {
        b.iter(|| black_box(run_chaos(&chaos_config(&[0.0])).expect("campaign runs")))
    });
    g.bench_function("plain_sweep_same_runs", |b| {
        b.iter(|| black_box(run_sweep(&sweep_config(4)).expect("sweep runs")))
    });
    g.finish();

    // Overhead assertion: an intensity-0 campaign performs exactly the
    // sweep's work (its cells run the sweep's harness, with the same
    // per-hop intensity read) plus its own reduction — each arm's best
    // must stay within 40%. Warm both arms once, then alternate them
    // round by round: a slow host phase then hits both arms instead of
    // only the one timed during it.
    let sweep = || {
        black_box(run_sweep(black_box(&sweep_config(4))).expect("sweep runs"));
    };
    let chaos = || {
        black_box(run_chaos(black_box(&chaos_config(&[0.0]))).expect("campaign runs"));
    };
    sweep();
    chaos();
    let (mut sweep_ns, mut chaos_ns) = (u128::MAX, u128::MAX);
    for _ in 0..GATE_ROUNDS {
        sweep_ns = sweep_ns.min(time_ns(sweep));
        chaos_ns = chaos_ns.min(time_ns(chaos));
    }
    let ratio = chaos_ns as f64 / sweep_ns as f64;
    println!(
        "chaos overhead at intensity 0: sweep {sweep_ns} ns, chaos {chaos_ns} ns, ratio {ratio:.2}"
    );
    assert!(ratio < 1.4, "ambient chaos plumbing too expensive at intensity 0 (ratio {ratio:.2})");
}

criterion_group!(benches, bench_chaos);
criterion_main!(benches);
