//! Observability-overhead bench: what the instrumentation costs when OFF,
//! and what the exporters cost when a run is inspected.
//!
//! The observability layer's contract is zero-cost-when-disabled: with no
//! ambient observation scope active, every hook short-circuits on one
//! thread-local mode read, and a disabled trace rejects entries before
//! building them. This bench pins that down with an event-dispatch
//! workload — the engine loop where the hooks live — comparing handlers
//! that call the (disabled) trace against handlers that do not, and
//! asserts the ratio stays under 1.05. `experiments_profile_scope` runs
//! the registry under one Profile scope, the capture every `trace`,
//! `explain`, `diff` and export pays for, beside the unobserved and Cost
//! runs. `export_chrome_e17` and `export_jsonl_e17` render E17's profiled
//! record (seed 2002), the largest trace log in the registry.
//!
//! ```sh
//! cargo bench -p tussle-bench --bench obs
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tussle_experiments::{registry, run_profiled};
use tussle_sim::{obs, to_chrome, to_jsonl, Engine, SimTime};

const EVENTS: u64 = 200_000;

/// A dispatch-bound workload: one self-rescheduling event chain of
/// `EVENTS` ticks. `traced` handlers go through `Ctx::trace` (which, with
/// the trace disabled and no scope active, must cost one branch).
fn run_chain(traced: bool) -> u64 {
    fn tick(traced: bool) -> impl FnOnce(&mut u64, &mut tussle_sim::Ctx<u64>) + 'static {
        move |world, ctx| {
            if traced {
                ctx.trace("bench.tick", "tick");
            }
            *world = world.wrapping_mul(6364136223846793005).wrapping_add(1);
            if *world != 0 {
                ctx.schedule_in(SimTime::from_micros(1), tick(traced));
            }
        }
    }
    let mut eng: Engine<u64> = Engine::new(1, 42);
    eng.trace_mut().disable();
    eng.schedule_at(SimTime::ZERO, tick(traced));
    eng.run(EVENTS);
    eng.world
}

/// Rounds of the disabled-tracing gate; each round times both arms and
/// yields one paired ratio. An arm runs in about 20 ms on a 2-vCPU host;
/// an odd count makes the median one round's ratio.
const GATE_ROUNDS: usize = 15;

/// Wall-clock of one call, in nanoseconds.
fn time_ns(run: impl FnOnce()) -> u128 {
    let start = Instant::now();
    run();
    start.elapsed().as_nanos()
}

fn bench_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.sample_size(10);
    g.bench_function("dispatch_untraced", |b| b.iter(|| black_box(run_chain(false))));
    g.bench_function("dispatch_traced_disabled", |b| b.iter(|| black_box(run_chain(true))));
    g.bench_function("experiments_no_scope", |b| {
        b.iter(|| {
            for (_, run) in registry() {
                black_box(run(black_box(2002)));
            }
        })
    });
    for (id, mode) in [
        ("experiments_cost_scope", obs::ObsMode::Cost),
        ("experiments_profile_scope", obs::ObsMode::Profile),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| {
                let guard = obs::begin(mode);
                for (_, run) in registry() {
                    black_box(run(black_box(2002)));
                }
                black_box(guard.finish());
            })
        });
    }
    let (name, run) =
        registry().into_iter().find(|(name, _)| *name == "E17").expect("E17 is registered");
    let (_, e17) = run_profiled(name, run, 2002);
    g.bench_function("export_chrome_e17", |b| b.iter(|| black_box(to_chrome(black_box(&e17)))));
    g.bench_function("export_jsonl_e17", |b| b.iter(|| black_box(to_jsonl(black_box(&e17)))));
    g.finish();

    // The acceptance gate: disabled instrumentation inside the dispatch
    // loop must stay within 5% of the same loop with no trace calls at
    // all. Warm both paths once, then time both arms back to back in each
    // round, alternating which goes first, and judge the median of the
    // rounds' traced/untraced ratios: a slow host phase then hits both
    // halves of a pair, and one lucky or unlucky round cannot decide.
    black_box(run_chain(false));
    black_box(run_chain(true));
    let arm_ns = |traced| {
        time_ns(|| {
            black_box(run_chain(traced));
        })
    };
    let mut ratios: Vec<f64> = (0..GATE_ROUNDS)
        .map(|round| {
            let (base_ns, traced_ns) = if round % 2 == 0 {
                let base_ns = arm_ns(false);
                (base_ns, arm_ns(true))
            } else {
                let traced_ns = arm_ns(true);
                (arm_ns(false), traced_ns)
            };
            traced_ns as f64 / base_ns as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[GATE_ROUNDS / 2];
    println!(
        "disabled-tracing overhead: median paired ratio {ratio:.3} over {GATE_ROUNDS} rounds \
         (range {:.3}..{:.3})",
        ratios[0],
        ratios[GATE_ROUNDS - 1]
    );
    assert!(ratio < 1.05, "disabled tracing is not zero-cost (median paired ratio {ratio:.3})");
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
