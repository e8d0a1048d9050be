//! Freeze detection.
//!
//! §II.C: "we should look for a time when innovation slows, not just as a
//! signal but also as a pre-condition of a durably formed and unchangeable
//! Internet." The detector watches entrant arrivals and tussle energy; the
//! network is *frozen* when both have been below threshold for a sustained
//! window. A step that admits an entrant is not quiet whatever the energy,
//! so the detector reads the energy only on entrant-free steps: `observe`
//! takes it as a closure and calls it only then.

use serde::{Deserialize, Serialize};

/// Sliding-window freeze detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FreezeDetector {
    /// Tussle energy below this counts as "resolved".
    pub energy_threshold: f64,
    /// Steps both signals must stay low before declaring a freeze.
    pub window: usize,
    quiet_steps: usize,
    steps: usize,
    frozen_at: Option<usize>,
}

impl FreezeDetector {
    /// A detector with the given thresholds.
    pub fn new(energy_threshold: f64, window: usize) -> Self {
        FreezeDetector {
            energy_threshold,
            window: window.max(1),
            quiet_steps: 0,
            steps: 0,
            frozen_at: None,
        }
    }

    /// Record one step's observations: entrants admitted, and the current
    /// tussle energy, which `energy` computes and which is read only when
    /// `entrants == 0`. Returns `true` if the network is now frozen.
    pub fn observe(&mut self, entrants: usize, energy: impl FnOnce() -> f64) -> bool {
        if entrants == 0 && energy() < self.energy_threshold {
            self.quiet_steps += 1;
            if self.quiet_steps >= self.window {
                self.frozen_at.get_or_insert(self.steps);
            }
        } else {
            self.quiet_steps = 0;
        }
        self.steps += 1;
        self.is_frozen()
    }

    /// Is the network frozen right now?
    pub fn is_frozen(&self) -> bool {
        self.quiet_steps >= self.window
    }

    /// The step index at which the freeze was first declared, if ever.
    pub fn frozen_at(&self) -> Option<usize> {
        self.frozen_at
    }

    /// Observations recorded so far.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnProcess;
    use crate::network::{ActorKind, ActorNetwork};
    use tussle_sim::SimRng;

    #[test]
    fn quiet_window_declares_freeze() {
        let mut d = FreezeDetector::new(0.1, 3);
        assert!(!d.observe(0, || 0.01));
        assert!(!d.observe(0, || 0.02));
        assert!(d.observe(0, || 0.0));
        assert!(d.is_frozen());
        assert_eq!(d.frozen_at(), Some(2));
    }

    #[test]
    fn an_entrant_resets_the_clock() {
        let mut d = FreezeDetector::new(0.1, 3);
        d.observe(0, || 0.0);
        d.observe(0, || 0.0);
        d.observe(1, || 0.0); // innovation arrives
        assert!(!d.observe(0, || 0.0));
        assert!(!d.observe(0, || 0.0));
        assert!(d.observe(0, || 0.0));
        assert_eq!(d.frozen_at(), Some(5));
    }

    #[test]
    fn high_energy_prevents_freeze() {
        let mut d = FreezeDetector::new(0.1, 2);
        for _ in 0..10 {
            assert!(!d.observe(0, || 0.5));
        }
    }

    #[test]
    fn closed_network_freezes_open_network_does_not() {
        // The §II.C claim end to end: entrants are the pre-condition of
        // changeability.
        let run = |rate: f64, seed: u64| {
            let mut net = ActorNetwork::new(2);
            let a = net.add_actor(ActorKind::Human, "users", vec![0.9, -0.3]);
            let b = net.add_actor(ActorKind::Technology, "ip", vec![-0.2, 0.4]);
            net.align(a, b, 0.6);
            let mut churn = ChurnProcess::new(rate);
            let mut det = FreezeDetector::new(0.05, 20);
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..500 {
                let admitted = churn.step(&mut net, &mut rng);
                det.observe(admitted, || net.tussle_energy());
            }
            det.frozen_at()
        };
        assert!(run(0.0, 7).is_some(), "closed network must freeze");
        assert!(run(1.0, 7).is_none(), "open network must keep churning");
    }
}
