//! Equivalence oracle for the lazy freeze detector.
//!
//! `RefFreezeDetector` is the detector that took every step's energy,
//! kept each observation and replayed them for `frozen_at`, kept
//! verbatim. The lazy detector must answer every query as it did after
//! every step, and must read the energy exactly on the entrant-free steps.

use proptest::prelude::*;
use std::cell::Cell;
use tussle_actors::FreezeDetector;

/// Sliding-window freeze detector.
#[derive(Debug, Clone)]
pub struct RefFreezeDetector {
    /// Tussle energy below this counts as "resolved".
    pub energy_threshold: f64,
    /// Steps both signals must stay low before declaring a freeze.
    pub window: usize,
    quiet_steps: usize,
    history: Vec<(usize, f64)>,
}

impl RefFreezeDetector {
    /// A detector with the given thresholds.
    pub fn new(energy_threshold: f64, window: usize) -> Self {
        RefFreezeDetector {
            energy_threshold,
            window: window.max(1),
            quiet_steps: 0,
            history: Vec::new(),
        }
    }

    /// Record one step's observations: entrants admitted and current
    /// tussle energy. Returns `true` if the network is now frozen.
    pub fn observe(&mut self, entrants: usize, tussle_energy: f64) -> bool {
        self.history.push((entrants, tussle_energy));
        if entrants == 0 && tussle_energy < self.energy_threshold {
            self.quiet_steps += 1;
        } else {
            self.quiet_steps = 0;
        }
        self.is_frozen()
    }

    /// Is the network frozen right now?
    pub fn is_frozen(&self) -> bool {
        self.quiet_steps >= self.window
    }

    /// The step index at which the freeze was first declared, if ever.
    pub fn frozen_at(&self) -> Option<usize> {
        let mut quiet = 0;
        for (i, (entrants, energy)) in self.history.iter().enumerate() {
            if *entrants == 0 && *energy < self.energy_threshold {
                quiet += 1;
                if quiet >= self.window {
                    return Some(i);
                }
            } else {
                quiet = 0;
            }
        }
        None
    }

    /// Observations recorded so far.
    pub fn steps(&self) -> usize {
        self.history.len()
    }
}

/// Energies around E12's threshold, 0.05: zero, the float just below it,
/// the threshold itself, the float just above it, NaN and a huge value.
fn energy(pick: usize) -> f64 {
    const T: f64 = 0.05;
    [0.0, T.next_down(), T, T.next_up(), f64::NAN, 1e9][pick]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// After every step the lazy detector answers as the replaying one, and
    /// it calls the energy closure exactly when no entrant arrived. Steps
    /// come in runs of up to 40 equal observations, so quiet stretches
    /// long enough to fill a window are common.
    #[test]
    fn lazy_detector_matches_the_replaying_reference(
        window in 1usize..=30,
        runs in proptest::collection::vec((0usize..3, 0usize..6, 1usize..=40), 0..20),
    ) {
        let steps = runs.into_iter().flat_map(|(e, pick, n)| std::iter::repeat_n((e, pick), n));
        let mut lazy = FreezeDetector::new(0.05, window);
        let mut reference = RefFreezeDetector::new(0.05, window);
        for (step, (entrants, pick)) in steps.take(200).enumerate() {
            let read = Cell::new(false);
            let frozen = lazy.observe(entrants, || {
                assert!(!read.replace(true), "energy read twice");
                energy(pick)
            });
            prop_assert_eq!(read.get(), entrants == 0, "energy read at step {}", step);
            prop_assert_eq!(frozen, reference.observe(entrants, energy(pick)));
            prop_assert_eq!(lazy.is_frozen(), reference.is_frozen());
            prop_assert_eq!(lazy.frozen_at(), reference.frozen_at());
            prop_assert_eq!(lazy.steps(), reference.steps());
        }
    }
}
