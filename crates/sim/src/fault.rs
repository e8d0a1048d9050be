//! Fault injection.
//!
//! Mirrors the knobs of smoltcp's example harness: random drop, random
//! corruption, and a token-bucket rate limit. Links and middleboxes consult
//! a [`FaultInjector`] on every transmission; experiments use it both to
//! model unreliable infrastructure and as a *tussle mechanism* (an ISP
//! throttling traffic it dislikes is exactly a selective fault injector).

use crate::rng::SimRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Outcome of passing a transmission through a fault injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// Deliver unmodified.
    Pass,
    /// Deliver, but one octet was flipped.
    Corrupt,
    /// Silently dropped.
    Drop,
    /// Dropped by the rate limiter.
    RateLimited,
}

/// Per-run tallies of fault-injector outcomes, so fault activity is
/// observable instead of silent. Accumulated wherever transmissions pass
/// through an injector (per-link injectors via [`crate::Metrics`], the
/// ambient chaos layer on [`crate::RunRecord::ambient_faults`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Transmissions that passed unmodified.
    pub passed: u64,
    /// Transmissions silently dropped.
    pub dropped: u64,
    /// Transmissions delivered with a flipped octet.
    pub corrupted: u64,
    /// Transmissions discarded by a rate limiter.
    pub rate_limited: u64,
}

impl FaultStats {
    /// Tally one outcome.
    pub fn record(&mut self, outcome: FaultOutcome) {
        match outcome {
            FaultOutcome::Pass => self.passed += 1,
            FaultOutcome::Drop => self.dropped += 1,
            FaultOutcome::Corrupt => self.corrupted += 1,
            FaultOutcome::RateLimited => self.rate_limited += 1,
        }
    }

    /// Transmissions that were interfered with (everything but `Pass`).
    pub fn faults(&self) -> u64 {
        self.dropped + self.corrupted + self.rate_limited
    }

    /// All transmissions seen.
    pub fn total(&self) -> u64 {
        self.passed + self.faults()
    }

    /// Add another tally into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.passed += other.passed;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.rate_limited += other.rate_limited;
    }
}

/// Drop and corrupt probabilities per unit of fault intensity. At
/// intensity 1 every fourth transmission drops and every tenth corrupts —
/// strong enough to flip fragile claims, weak enough that robust ones
/// survive the low end of the grid.
const AMBIENT_DROP_WEIGHT: f64 = 0.25;
const AMBIENT_CORRUPT_WEIGHT: f64 = 0.10;

/// The fate of one transmission under a run's ambient fault intensity
/// (see [`crate::obs::ambient_fault`], which skips the call at intensity
/// 0 so such runs draw nothing): a drop, else a corruption, else a pass.
pub(crate) fn ambient_outcome(intensity: f64, rng: &mut SimRng) -> FaultOutcome {
    if rng.chance(AMBIENT_DROP_WEIGHT * intensity) {
        FaultOutcome::Drop
    } else if rng.chance(AMBIENT_CORRUPT_WEIGHT * intensity) {
        FaultOutcome::Corrupt
    } else {
        FaultOutcome::Pass
    }
}

/// Configurable fault injector with drop/corrupt probabilities and a
/// token-bucket rate limiter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    /// Probability in `[0,1]` that a transmission is dropped.
    pub drop_chance: f64,
    /// Probability in `[0,1]` that a transmission is corrupted.
    pub corrupt_chance: f64,
    /// Maximum tokens in the bucket; `None` disables rate limiting.
    pub bucket_capacity: Option<u32>,
    /// Interval at which the bucket refills to capacity.
    pub refill_interval: SimTime,
    tokens: u32,
    last_refill: SimTime,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::none()
    }
}

impl FaultInjector {
    /// An injector that never interferes.
    pub fn none() -> Self {
        FaultInjector {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            bucket_capacity: None,
            refill_interval: SimTime::from_millis(50),
            tokens: 0,
            last_refill: SimTime::ZERO,
        }
    }

    /// An injector with the given drop and corrupt probabilities.
    pub fn lossy(drop_chance: f64, corrupt_chance: f64) -> Self {
        FaultInjector {
            drop_chance: drop_chance.clamp(0.0, 1.0),
            corrupt_chance: corrupt_chance.clamp(0.0, 1.0),
            ..FaultInjector::none()
        }
    }

    /// An injector whose severity scales with one `intensity` knob in
    /// `[0, 1]` — the mapping the chaos campaign and [`crate::FaultPlan`]
    /// use. Intensity 0 is exactly [`FaultInjector::none`]; from 0.5 a
    /// token-bucket rate limit tightens as intensity grows.
    pub fn at_intensity(intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        if i == 0.0 {
            return FaultInjector::none();
        }
        let injector = FaultInjector::lossy(AMBIENT_DROP_WEIGHT * i, AMBIENT_CORRUPT_WEIGHT * i);
        if i >= 0.5 {
            let capacity = 8 + (256.0 * (1.0 - i)) as u32;
            injector.with_rate_limit(capacity, SimTime::from_millis(50))
        } else {
            injector
        }
    }

    /// Add a token-bucket rate limit of `capacity` transmissions per
    /// `refill_interval`.
    pub fn with_rate_limit(mut self, capacity: u32, refill_interval: SimTime) -> Self {
        self.bucket_capacity = Some(capacity);
        self.refill_interval = refill_interval;
        self.tokens = capacity;
        self
    }

    /// Decide the fate of one transmission occurring at `now`.
    pub fn apply(&mut self, now: SimTime, rng: &mut SimRng) -> FaultOutcome {
        if let Some(cap) = self.bucket_capacity {
            if now.since(self.last_refill) >= self.refill_interval {
                self.tokens = cap;
                self.last_refill = now;
            }
            if self.tokens == 0 {
                return FaultOutcome::RateLimited;
            }
            self.tokens -= 1;
        }
        if rng.chance(self.drop_chance) {
            return FaultOutcome::Drop;
        }
        if rng.chance(self.corrupt_chance) {
            return FaultOutcome::Corrupt;
        }
        FaultOutcome::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_always_passes() {
        let mut f = FaultInjector::none();
        let mut rng = SimRng::seed_from_u64(1);
        for i in 0..100 {
            assert_eq!(f.apply(SimTime::from_micros(i), &mut rng), FaultOutcome::Pass);
        }
    }

    #[test]
    fn full_drop_always_drops() {
        let mut f = FaultInjector::lossy(1.0, 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(f.apply(SimTime::ZERO, &mut rng), FaultOutcome::Drop);
    }

    #[test]
    fn full_corrupt_always_corrupts() {
        let mut f = FaultInjector::lossy(0.0, 1.0);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(f.apply(SimTime::ZERO, &mut rng), FaultOutcome::Corrupt);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let mut f = FaultInjector::lossy(0.15, 0.0);
        let mut rng = SimRng::seed_from_u64(5);
        let drops = (0..10_000)
            .filter(|i| f.apply(SimTime::from_micros(*i), &mut rng) == FaultOutcome::Drop)
            .count();
        assert!((1_300..1_700).contains(&drops), "drops={drops}");
    }

    #[test]
    fn rate_limit_exhausts_and_refills() {
        let mut f = FaultInjector::none().with_rate_limit(2, SimTime::from_millis(10));
        let mut rng = SimRng::seed_from_u64(1);
        let t0 = SimTime::ZERO;
        assert_eq!(f.apply(t0, &mut rng), FaultOutcome::Pass);
        assert_eq!(f.apply(t0, &mut rng), FaultOutcome::Pass);
        assert_eq!(f.apply(t0, &mut rng), FaultOutcome::RateLimited);
        // after refill interval the bucket is full again
        let t1 = SimTime::from_millis(10);
        assert_eq!(f.apply(t1, &mut rng), FaultOutcome::Pass);
    }

    #[test]
    fn probabilities_are_clamped() {
        let f = FaultInjector::lossy(7.0, -2.0);
        assert_eq!(f.drop_chance, 1.0);
        assert_eq!(f.corrupt_chance, 0.0);
    }

    #[test]
    fn at_intensity_scales_from_none_to_harsh() {
        let zero = FaultInjector::at_intensity(0.0);
        assert_eq!(zero.drop_chance, 0.0);
        assert_eq!(zero.bucket_capacity, None);

        let mild = FaultInjector::at_intensity(0.2);
        assert!(mild.drop_chance > 0.0 && mild.drop_chance < 0.1);
        assert_eq!(mild.bucket_capacity, None, "no rate limit below 0.5");

        let harsh = FaultInjector::at_intensity(1.0);
        assert_eq!(harsh.drop_chance, AMBIENT_DROP_WEIGHT);
        assert_eq!(harsh.bucket_capacity, Some(8));

        let mid = FaultInjector::at_intensity(0.5);
        assert!(mid.bucket_capacity.unwrap() > harsh.bucket_capacity.unwrap());
    }

    #[test]
    fn fault_stats_tally_and_merge() {
        let mut s = FaultStats::default();
        s.record(FaultOutcome::Pass);
        s.record(FaultOutcome::Drop);
        s.record(FaultOutcome::Corrupt);
        s.record(FaultOutcome::RateLimited);
        assert_eq!((s.passed, s.dropped, s.corrupted, s.rate_limited), (1, 1, 1, 1));
        assert_eq!(s.faults(), 3);
        assert_eq!(s.total(), 4);
        let mut t = FaultStats::default();
        t.record(FaultOutcome::Drop);
        s.merge(&t);
        assert_eq!(s.dropped, 2);
    }

    #[test]
    fn ambient_guard_restores_and_stats_accumulate() {
        use crate::obs::{self, ObsMode, Settings};
        let at = |intensity| Settings { mode: ObsMode::Cost, intensity, route_cache: true };
        assert_eq!(obs::settings().intensity, 0.0);
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(obs::ambient_fault(&mut rng), None, "no scope, no ambient draw");
        let guard = obs::begin(at(1.0));
        assert_eq!(obs::settings().intensity, 1.0);
        for _ in 0..200 {
            assert!(obs::ambient_fault(&mut rng).is_some());
        }
        // nesting restores the outer value, not zero
        {
            let inner = obs::begin(at(0.25));
            assert_eq!(obs::settings().intensity, 0.25);
            obs::ambient_fault(&mut rng);
            assert_eq!(inner.finish().ambient_faults.total(), 1, "the inner scope's own tally");
        }
        assert_eq!(obs::settings().intensity, 1.0);
        let stats = guard.finish().ambient_faults;
        assert_eq!(obs::settings().intensity, 0.0, "the guard restores the default");
        assert_eq!(stats.total(), 200);
        assert!(stats.dropped > 20, "intensity 1 drops ~25%: {stats:?}");
        assert_eq!(
            obs::begin(ObsMode::Cost).finish().ambient_faults.total(),
            0,
            "scopes start at 0"
        );
    }

    #[test]
    fn ambient_intensity_is_clamped() {
        let settings = crate::obs::Settings { intensity: 7.5, ..crate::obs::ObsMode::Cost.into() };
        let _g = crate::obs::begin(settings);
        assert_eq!(crate::obs::settings().intensity, 1.0);
    }
}
