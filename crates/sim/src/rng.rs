//! Reproducible randomness.
//!
//! Determinism is a design requirement: the same seed must produce the same
//! tussle outcome tables on every platform and every run. `StdRng` does not
//! promise a stable stream across `rand` releases, so we pin ChaCha8, which
//! does. Forking lets independent subsystems (market, link faults, attack
//! generator, ...) draw from decorrelated streams without sharing a mutable
//! handle.

use crate::obs;
use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded, forkable random stream for simulations.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng { inner: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Derive an independent stream labelled by `label`.
    ///
    /// Forks of the same parent with different labels are decorrelated;
    /// forks with the same label from the same parent state are identical,
    /// which is what makes subsystem wiring order-insensitive.
    pub fn fork(&self, label: &str) -> SimRng {
        // Mix the label into the parent's seed with FNV-1a; cheap, stable,
        // and good enough to decorrelate ChaCha streams.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.inner.get_seed().iter().chain(label.as_bytes()) {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SimRng::seed_from_u64(h)
    }

    /// Uniform sample from a range.
    pub fn range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        obs::on_rng_draw();
        self.inner.gen_range(range)
    }

    /// A uniform probability draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        obs::on_rng_draw();
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Pick a uniformly random element of a slice. Returns `None` on empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.range(0..items.len());
            items.get(i)
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0..=i);
            items.swap(i, j);
        }
    }

    /// Sample from an exponential distribution with the given mean.
    ///
    /// Used for Poisson arrival processes (new-entrant churn, attack
    /// arrivals). Mean must be positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u: f64 = 1.0 - self.unit(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Sample a normally distributed value via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        obs::on_rng_draw();
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        obs::on_rng_draw();
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        obs::on_rng_draw();
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be decorrelated, {same} collisions");
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let parent = SimRng::seed_from_u64(42);
        let mut f1 = parent.fork("market");
        let mut f1b = parent.fork("market");
        let mut f2 = parent.fork("faults");
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut r = SimRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = total / n as f64;
        assert!((4.7..5.3).contains(&mean), "mean={mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((9.9..10.1).contains(&mean), "mean={mean}");
        assert!((3.6..4.4).contains(&var), "var={var}");
    }

    #[test]
    fn draws_are_counted_under_obs_scope() {
        let g = crate::obs::begin(crate::obs::ObsMode::Cost);
        let mut r = SimRng::seed_from_u64(5);
        r.unit();
        r.range(0..10);
        assert!(!r.chance(0.0), "degenerate chance draws nothing");
        assert!(r.chance(1.0), "degenerate chance draws nothing");
        r.chance(0.5);
        let rec = g.finish();
        assert_eq!(rec.rng_draws, 3);
    }

    #[test]
    fn pick_and_shuffle() {
        let mut r = SimRng::seed_from_u64(17);
        let empty: [u8; 0] = [];
        assert!(r.pick(&empty).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(r.pick(&items).unwrap()));
        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
        assert_ne!(v, orig, "50 elements should not shuffle to identity");
    }
}
