//! Property tests for the discrete-event engine and its facilities.

use proptest::prelude::*;
use tussle_sim::{obs, Ctx, Engine, Histogram, ObsMode, SimRng, SimTime};

/// The rolls a [`rolls`] workload has drawn, in dispatch order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Rolls(Vec<u64>);

/// A self-rescheduling workload whose every event draws randomness,
/// traces, and bumps a metric, on `chains` interleaved chains.
fn rolls(seed: u64, chains: usize) -> Engine<Rolls> {
    fn link(w: &mut Rolls, ctx: &mut Ctx<Rolls>) {
        let roll = ctx.rng.range(1..64u64);
        w.0.push(roll);
        ctx.trace("prop.link", format!("roll {roll}"));
        ctx.metrics.incr("prop.links");
        if w.0.len() < 60 {
            ctx.schedule_in(SimTime::from_micros(roll), link);
        }
    }
    let mut eng = Engine::new(Rolls::default(), seed);
    for _ in 0..chains {
        eng.schedule_at(SimTime::ZERO, link);
    }
    eng
}

proptest! {
    /// A run split at any event boundary — `run(cut)`, then
    /// `run_to_completion()` — equals one uninterrupted run in digest,
    /// world, clock, events processed and Cost-scope rng draws. Resuming a
    /// run by replaying it from genesis rests on this.
    #[test]
    fn a_split_run_equals_one_uninterrupted_run(
        seed in any::<u64>(),
        chains in 1usize..4,
        cut in 0u64..80,
    ) {
        let mut whole = rolls(seed, chains);
        let scope = obs::begin(ObsMode::Cost);
        whole.run_to_completion();
        let whole_draws = scope.finish().rng_draws;

        let mut split = rolls(seed, chains);
        let scope = obs::begin(ObsMode::Cost);
        let head = split.run(cut);
        let tail = split.run_to_completion();
        let split_draws = scope.finish().rng_draws;

        prop_assert_eq!(head, cut.min(whole.events_processed()));
        prop_assert_eq!(head + tail, whole.events_processed());
        prop_assert_eq!(split.digest(), whole.digest());
        prop_assert_eq!(&split.world, &whole.world);
        prop_assert_eq!(split.now(), whole.now());
        prop_assert_eq!(split_draws, whole_draws);
    }

    /// Whatever order events are scheduled in, they execute in
    /// nondecreasing time order, with ties broken by scheduling order.
    #[test]
    fn events_execute_in_total_order(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut eng: Engine<Vec<(u64, usize)>> = Engine::new(Vec::new(), 1);
        for (idx, t) in times.iter().enumerate() {
            let t = *t;
            eng.schedule_at(SimTime::from_micros(t), move |w: &mut Vec<(u64, usize)>, _| {
                w.push((t, idx));
            });
        }
        eng.run_to_completion();
        prop_assert_eq!(eng.world.len(), times.len());
        for pair in eng.world.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "tie-break order violated");
            }
        }
    }

    /// The engine clock never runs backwards, even with cascading events.
    #[test]
    fn clock_is_monotone(delays in proptest::collection::vec(0u64..1_000, 1..50)) {
        let mut eng: Engine<Vec<u64>> = Engine::new(Vec::new(), 1);
        for d in delays {
            eng.schedule_at(SimTime::from_micros(d), move |w: &mut Vec<u64>, ctx| {
                w.push(ctx.now().as_micros());
                ctx.schedule_in(SimTime::from_micros(d / 2 + 1), move |w2: &mut Vec<u64>, ctx2| {
                    w2.push(ctx2.now().as_micros());
                });
            });
        }
        eng.run_to_completion();
        for pair in eng.world.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
    }

    /// Identical seeds give identical streams; a different seed diverges
    /// within a few draws almost surely.
    #[test]
    fn rng_determinism(seed in 0u64..u64::MAX) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.range(0..u64::MAX), b.range(0..u64::MAX));
        }
    }

    /// Histogram invariants: count equals samples recorded, mean within
    /// [min, max], quantiles monotone.
    #[test]
    fn histogram_invariants(samples in proptest::collection::vec(0.0f64..1e12, 1..500)) {
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let mean = h.mean().unwrap();
        prop_assert!(mean >= h.min().unwrap() - 1e-6);
        prop_assert!(mean <= h.max().unwrap() + 1e-6);
        let q25 = h.quantile(0.25).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q99);
    }

    /// Forked streams with distinct labels are decorrelated; same label,
    /// same stream.
    #[test]
    fn fork_label_semantics(seed in 0u64..u64::MAX, label in "[a-z]{1,12}") {
        let parent = SimRng::seed_from_u64(seed);
        let mut a = parent.fork(&label);
        let mut b = parent.fork(&label);
        prop_assert_eq!(a.range(0..u64::MAX), b.range(0..u64::MAX));
    }
}
