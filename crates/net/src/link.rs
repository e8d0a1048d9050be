//! Links between nodes.
//!
//! Each link has propagation latency, a bandwidth that converts packet size
//! into serialization delay, an administrative up/down state, and a
//! [`FaultInjector`] for loss, corruption and rate limiting — the same
//! knobs smoltcp's example harness exposes.

use crate::node::NodeId;
use serde::{Deserialize, Serialize};
use tussle_sim::{FaultInjector, SimTime};

/// Index of a link in a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Usable as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Identifier (index into the network's link table).
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation latency.
    pub latency: SimTime,
    /// Bandwidth in bits per second (serialization delay = size/bandwidth).
    pub bandwidth_bps: u64,
    /// Administrative and physical state.
    pub up: bool,
    /// Loss/corruption/rate-limit model.
    pub faults: FaultInjector,
    /// Monetary cost per megabyte carried, in micro-currency. Routing
    /// policies and the economics engine read this.
    pub cost_per_mb: u64,
    /// Opt-in FIFO queue: when set, packets serialize one at a time and a
    /// packet whose queueing delay would exceed the cap is dropped
    /// (congestion loss). `None` models an unloaded link (the default).
    pub queue_delay_cap: Option<SimTime>,
    /// When the transmitter frees up (queue state; meaningful only with
    /// `queue_delay_cap`).
    busy_until: SimTime,
}

/// Outcome of attempting to enqueue a packet on a queued link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueOutcome {
    /// Accepted; carries the total delay (queueing + serialization +
    /// propagation).
    Sent {
        /// Total one-way delay experienced.
        delay: SimTime,
        /// The queueing component alone.
        queued_for: SimTime,
    },
    /// The queue cap would be exceeded: congestion drop.
    Overflow,
}

impl Link {
    /// A healthy link with the given latency and bandwidth.
    pub fn new(id: LinkId, a: NodeId, b: NodeId, latency: SimTime, bandwidth_bps: u64) -> Self {
        assert!(a != b, "self-links are not allowed");
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        Link {
            id,
            a,
            b,
            latency,
            bandwidth_bps,
            up: true,
            faults: FaultInjector::none(),
            cost_per_mb: 0,
            queue_delay_cap: None,
            busy_until: SimTime::ZERO,
        }
    }

    /// The endpoint opposite `from`, or `None` if `from` is not on the link.
    pub fn other_end(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Does the link connect `x` and `y` (in either direction)?
    pub fn connects(&self, x: NodeId, y: NodeId) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }

    /// One-way delay for a packet of `size_bytes`: propagation plus
    /// serialization (unloaded-link model).
    pub fn transit_delay(&self, size_bytes: usize) -> SimTime {
        let ser_us = (size_bytes as u64 * 8).saturating_mul(1_000_000) / self.bandwidth_bps;
        self.latency.saturating_add(SimTime::from_micros(ser_us))
    }

    /// Transmit through the FIFO queue at absolute time `now`. Without a
    /// queue cap this degenerates to [`Link::transit_delay`] with zero
    /// queueing. Mutates the transmitter-busy state on success.
    pub fn enqueue_at(&mut self, now: SimTime, size_bytes: usize) -> QueueOutcome {
        let ser_us = (size_bytes as u64 * 8).saturating_mul(1_000_000) / self.bandwidth_bps;
        let ser = SimTime::from_micros(ser_us);
        match self.queue_delay_cap {
            None => QueueOutcome::Sent {
                delay: self.latency.saturating_add(ser),
                queued_for: SimTime::ZERO,
            },
            Some(cap) => {
                let start = self.busy_until.max(now);
                let queued_for = start.since(now);
                if queued_for > cap {
                    return QueueOutcome::Overflow;
                }
                self.busy_until = start.saturating_add(ser);
                QueueOutcome::Sent {
                    delay: queued_for.saturating_add(ser).saturating_add(self.latency),
                    queued_for,
                }
            }
        }
    }

    /// Reset queue state (e.g. between experiment runs).
    pub fn reset_queue(&mut self) {
        self.busy_until = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(LinkId(0), NodeId(1), NodeId(2), SimTime::from_millis(10), 1_000_000)
    }

    #[test]
    fn endpoints() {
        let l = link();
        assert_eq!(l.other_end(NodeId(1)), Some(NodeId(2)));
        assert_eq!(l.other_end(NodeId(2)), Some(NodeId(1)));
        assert_eq!(l.other_end(NodeId(3)), None);
        assert!(l.connects(NodeId(2), NodeId(1)));
        assert!(!l.connects(NodeId(1), NodeId(3)));
    }

    #[test]
    fn transit_delay_adds_serialization() {
        let l = link(); // 1 Mbps, 10 ms latency
                        // 1250 bytes = 10_000 bits = 10 ms at 1 Mbps
        let d = l.transit_delay(1250);
        assert_eq!(d, SimTime::from_millis(20));
        // zero-size packet: pure propagation
        assert_eq!(l.transit_delay(0), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn no_self_links() {
        Link::new(LinkId(0), NodeId(1), NodeId(1), SimTime::ZERO, 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn no_zero_bandwidth() {
        Link::new(LinkId(0), NodeId(1), NodeId(2), SimTime::ZERO, 0);
    }
}
