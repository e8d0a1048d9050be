//! Deterministic, schedulable fault plans.
//!
//! A [`FaultPlan`] is pure data: a time-ordered list of infrastructure
//! fault actions (link flaps, node crash/restore windows, partition
//! windows, intensity-scaled injector swaps). The sim crate knows nothing
//! about networks, so actions name links and nodes by raw index; the
//! substrate that owns the topology (`tussle-net::chaos`) interprets them
//! by scheduling one engine event per action. Because a plan is generated
//! from a seed and applied through the deterministic engine, the same
//! `(plan, seed)` pair always yields the same outcome sequence.

use crate::fault::FaultInjector;
use crate::rng::SimRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// One infrastructure fault, named by raw link/node index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Take a link administratively down.
    LinkDown(u32),
    /// Bring a link back up.
    LinkUp(u32),
    /// Crash a node: every incident link goes down until restore.
    CrashNode(u32),
    /// Restore a crashed node.
    RestoreNode(u32),
    /// Replace a link's fault injector (e.g. with an intensity-scaled one).
    SetLinkFaults {
        /// The link whose injector is replaced.
        link: u32,
        /// The replacement injector.
        injector: FaultInjector,
    },
}

/// A fault action with its scheduled (virtual) time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic schedule of fault actions, kept sorted by time
/// (insertion order breaks ties, matching the engine's event order).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule one action. Keeps the plan time-sorted; equal times keep
    /// insertion order.
    pub fn push(&mut self, at: SimTime, action: FaultAction) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, action });
    }

    /// Builder form of [`FaultPlan::push`].
    pub fn with(mut self, at: SimTime, action: FaultAction) -> Self {
        self.push(at, action);
        self
    }

    /// Builder: flap a link (down at `down_at`, back up at `up_at`).
    pub fn link_flap(self, link: u32, down_at: SimTime, up_at: SimTime) -> Self {
        self.with(down_at, FaultAction::LinkDown(link)).with(up_at, FaultAction::LinkUp(link))
    }

    /// Builder: crash a node for the window `[from, until)`.
    pub fn node_outage(self, node: u32, from: SimTime, until: SimTime) -> Self {
        self.with(from, FaultAction::CrashNode(node)).with(until, FaultAction::RestoreNode(node))
    }

    /// Builder: take a set of links down together for `[from, until)` —
    /// a partition window when the links form a cut.
    pub fn partition(mut self, links: &[u32], from: SimTime, until: SimTime) -> Self {
        for &l in links {
            self.push(from, FaultAction::LinkDown(l));
        }
        for &l in links {
            self.push(until, FaultAction::LinkUp(l));
        }
        self
    }

    /// Generate a plan whose aggression scales with `intensity` in
    /// `[0, 1]` over a topology of `links` links and a run of `horizon`
    /// virtual time: every link gets an intensity-scaled injector at t=0,
    /// plus `⌈2 · intensity · links⌉` randomly placed link flaps whose
    /// outage windows lengthen with intensity. Intensity 0 (or zero
    /// links) is the empty plan. Deterministic in all four arguments.
    pub fn scaled(intensity: f64, links: u32, horizon: SimTime, seed: u64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan::new();
        if i == 0.0 || links == 0 || horizon == SimTime::ZERO {
            return plan;
        }
        let mut rng = SimRng::seed_from_u64(seed).fork("fault-plan");
        for link in 0..links {
            plan.push(
                SimTime::ZERO,
                FaultAction::SetLinkFaults { link, injector: FaultInjector::at_intensity(i) },
            );
        }
        let flaps = (2.0 * i * links as f64).ceil() as u32;
        let h = horizon.as_micros();
        // outage length: 5% of the horizon at intensity→0, 25% at 1
        let outage = ((0.05 + 0.20 * i) * h as f64) as u64;
        for _ in 0..flaps {
            let link = rng.range(0..links);
            let down = rng.range(0..h.saturating_sub(1).max(1));
            let up = down.saturating_add(outage.max(1)).min(h);
            plan = plan.link_flap(link, SimTime::from_micros(down), SimTime::from_micros(up));
        }
        plan
    }

    /// The scheduled events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_time_order_with_stable_ties() {
        let plan = FaultPlan::new()
            .with(SimTime::from_millis(5), FaultAction::LinkDown(1))
            .with(SimTime::from_millis(1), FaultAction::LinkDown(0))
            .with(SimTime::from_millis(5), FaultAction::LinkUp(1));
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(times, [1_000, 5_000, 5_000]);
        // equal times keep insertion order
        assert_eq!(plan.events()[1].action, FaultAction::LinkDown(1));
        assert_eq!(plan.events()[2].action, FaultAction::LinkUp(1));
    }

    #[test]
    fn builders_produce_paired_events() {
        let plan = FaultPlan::new()
            .link_flap(3, SimTime::from_millis(10), SimTime::from_millis(20))
            .node_outage(1, SimTime::from_millis(5), SimTime::from_millis(15))
            .partition(&[0, 1], SimTime::from_millis(1), SimTime::from_millis(2));
        assert_eq!(plan.len(), 8);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].action, FaultAction::LinkDown(0));
        assert_eq!(plan.events()[1].action, FaultAction::LinkDown(1));
    }

    #[test]
    fn scaled_zero_intensity_is_empty() {
        assert!(FaultPlan::scaled(0.0, 8, SimTime::from_secs(1), 1).is_empty());
        assert!(FaultPlan::scaled(0.5, 0, SimTime::from_secs(1), 1).is_empty());
        assert!(FaultPlan::scaled(0.5, 8, SimTime::ZERO, 1).is_empty());
    }

    #[test]
    fn scaled_is_deterministic_and_grows_with_intensity() {
        let a = FaultPlan::scaled(0.5, 6, SimTime::from_secs(2), 7);
        let b = FaultPlan::scaled(0.5, 6, SimTime::from_secs(2), 7);
        assert_eq!(a, b);
        let harsher = FaultPlan::scaled(1.0, 6, SimTime::from_secs(2), 7);
        assert!(harsher.len() > a.len(), "{} vs {}", harsher.len(), a.len());
        let other_seed = FaultPlan::scaled(0.5, 6, SimTime::from_secs(2), 8);
        assert_ne!(a, other_seed, "different seeds place different flaps");
    }

    #[test]
    fn scaled_events_stay_within_horizon() {
        let horizon = SimTime::from_secs(3);
        let plan = FaultPlan::scaled(0.9, 10, horizon, 42);
        for e in plan.events() {
            assert!(e.at <= horizon, "{:?} past the horizon", e);
        }
        // every link got an injector at t=0
        let injector_swaps = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::SetLinkFaults { .. }))
            .count();
        assert_eq!(injector_swaps, 10);
    }

    #[test]
    fn plans_serialize_round_trip() {
        let plan = FaultPlan::scaled(0.7, 4, SimTime::from_secs(1), 3);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
