//! `forwarding`: one op is one batch of FIB-routed plus one batch of
//! loose-source-routed packets over `Network::scale_topology`, through
//! `ScaleWorkload::run`, with the route cache warm.

use crate::spans::{Checks, Spans};
use crate::{Config, Workload};
use std::time::Instant;
use tussle_experiments::scale::{Routing, ScaleOutcome, ScaleWorkload};

const DEGREE: usize = 3;

pub struct Forwarding {
    fib: ScaleWorkload,
    src: ScaleWorkload,
    packets: usize,
    send_seed: u64,
    first: (ScaleOutcome, ScaleOutcome),
    last: (ScaleOutcome, ScaleOutcome),
}

/// Build both batches on the same topology and send each once: that first
/// batch fills the route cache and is the reference every op must equal.
pub fn setup(config: &Config, spans: &mut Spans) -> Forwarding {
    let (nodes, packets) = if config.tiny { (200, 64) } else { (1_000, 4_096) };
    let mut fib = ScaleWorkload::build(config.seed, nodes, DEGREE, packets, Routing::Fib);
    let mut src = ScaleWorkload::build(config.seed, nodes, DEGREE, packets, Routing::SourceRouted);
    let start = Instant::now();
    let first = (fib.run(config.seed), src.run(config.seed));
    spans.sample("net.cold_batch_us", start.elapsed().as_nanos() as f64 * 1e-3);
    Forwarding { fib, src, packets, send_seed: config.seed, first, last: first }
}

impl Workload for Forwarding {
    fn op(&mut self, _index: u64, spans: &mut Spans) -> u64 {
        let seed = self.send_seed;
        self.last = (
            spans.time("net.fib_batch_us", || self.fib.run(seed)),
            spans.time("net.srcroute_batch_us", || self.src.run(seed)),
        );
        2 * self.packets as u64
    }

    fn verify(&mut self, checks: &mut Checks) {
        let (fib, src) = self.last;
        checks.check(
            "forwarding.all_delivered",
            fib.delivered == self.packets && src.delivered == self.packets,
            || format!("delivered {} + {} of 2 x {}", fib.delivered, src.delivered, self.packets),
        );
        checks.check("forwarding.matches_first_batch", self.last == self.first, || {
            format!("{:?} != first batch {:?}", self.last, self.first)
        });
    }

    fn probe(&mut self, _index: u64, _op_ns: f64, spans: &mut Spans, _checks: &mut Checks) {
        let (fib, src) = self.last;
        let sent = 2.0 * self.packets as f64;
        spans.sample("net.hops_per_packet", (fib.hops + src.hops) as f64 / sent);
        spans.sample("net.delivered_ratio", (fib.delivered + src.delivered) as f64 / sent);
    }
}
