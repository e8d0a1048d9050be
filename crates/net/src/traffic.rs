//! Event-driven traffic: flows scheduled on the simulation engine.
//!
//! The rest of `tussle-net` answers "what happens to one packet"; this
//! module runs *workloads* — periodic flows with jitter, driven by
//! [`tussle_sim::Engine`] events, with delivery and latency statistics
//! accumulated in the engine's metric sink. Experiments that care about
//! time (congestion windows of tussle, detection delays, failover) build
//! on this instead of calling [`Network::send`] in a loop.

use crate::network::Network;
use crate::node::NodeId;
use crate::packet::Packet;
use tussle_sim::{Ctx, Engine, SimTime};

/// Retry-with-backoff policy for transient drops.
///
/// When a flow packet is dropped for a *transient* reason (link down, loss,
/// rate limiting, queue overflow — see
/// [`crate::network::DropReason::is_transient`]), the sender reschedules the
/// same packet after an exponential backoff of
/// `min(max_backoff, base_backoff * 2^attempt)` plus uniform seeded jitter.
/// Permanent drops (no route, firewall, TTL) are never retried — retrying
/// cannot help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry attempts per packet (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimTime,
    /// Cap on the exponential backoff.
    pub max_backoff: SimTime,
    /// Uniform jitter added to each backoff, in microseconds.
    pub jitter_us: u64,
}

impl RetryPolicy {
    /// A conventional policy: `max_retries` attempts starting at 10 ms,
    /// doubling, capped at 500 ms, with 1 ms of jitter.
    pub fn backoff(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: SimTime::from_millis(10),
            max_backoff: SimTime::from_millis(500),
            jitter_us: 1_000,
        }
    }

    /// Backoff delay before retry number `attempt` (0-based), without jitter.
    pub fn delay(&self, attempt: u32) -> SimTime {
        let base = self.base_backoff.as_micros();
        let exp = base.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        SimTime::from_micros(exp.min(self.max_backoff.as_micros()))
    }
}

/// A periodic flow specification.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Sending node.
    pub from: NodeId,
    /// Packet template (cloned per transmission).
    pub template: Packet,
    /// Inter-packet interval.
    pub interval: SimTime,
    /// Uniform jitter added to each interval, in microseconds.
    pub jitter_us: u64,
    /// Packets to send (`None` = until the horizon).
    pub count: Option<u64>,
    /// Metrics label; counters appear as `flow.<label>.delivered` etc.
    pub label: String,
    /// Retry transient drops with exponential backoff (`None` = fire and
    /// forget, the pre-chaos behaviour).
    pub retry: Option<RetryPolicy>,
}

impl Flow {
    /// A flow sending `count` packets at a fixed interval.
    pub fn periodic(
        label: &str,
        from: NodeId,
        template: Packet,
        interval: SimTime,
        count: u64,
    ) -> Self {
        Flow {
            from,
            template,
            interval,
            jitter_us: 0,
            count: Some(count),
            label: label.to_owned(),
            retry: None,
        }
    }

    /// Builder: add jitter.
    pub fn with_jitter(mut self, jitter_us: u64) -> Self {
        self.jitter_us = jitter_us;
        self
    }

    /// Builder: retry transient drops under `policy`.
    pub fn with_retries(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }
}

/// The world type for traffic simulations: a network plus its flows.
#[derive(Debug)]
pub struct TrafficWorld {
    /// The network under load.
    pub network: Network,
}

/// Build an engine over `network` with every flow scheduled, ready to run.
///
/// A run is a pure function of the network, the flows and the seed, so
/// replaying the same three from genesis reproduces it exactly.
pub fn build_engine(network: Network, flows: Vec<Flow>, seed: u64) -> Engine<TrafficWorld> {
    let mut engine = Engine::new(TrafficWorld { network }, seed);
    for flow in flows {
        let start = SimTime::from_micros(0);
        schedule_next(&mut engine, flow, start, 0);
    }
    engine
}

fn schedule_next(engine: &mut Engine<TrafficWorld>, flow: Flow, at: SimTime, sent: u64) {
    engine.schedule_at(at, move |w: &mut TrafficWorld, ctx| {
        send_and_reschedule(w, ctx, flow, sent);
    });
}

fn send_and_reschedule(w: &mut TrafficWorld, ctx: &mut Ctx<TrafficWorld>, flow: Flow, sent: u64) {
    if let Some(max) = flow.count {
        if sent >= max {
            return;
        }
    }
    attempt_send(w, ctx, &flow, 0);
    let jitter = if flow.jitter_us > 0 {
        SimTime::from_micros(ctx.rng.range(0..=flow.jitter_us))
    } else {
        SimTime::ZERO
    };
    let next = ctx.now().saturating_add(flow.interval).saturating_add(jitter);
    let sent = sent + 1;
    if flow.count.map(|max| sent < max).unwrap_or(true) {
        ctx.schedule_at(next, move |w2: &mut TrafficWorld, ctx2| {
            send_and_reschedule(w2, ctx2, flow, sent);
        });
    }
}

/// One transmission attempt, plus retry scheduling on transient drops.
///
/// Retries are independent of the periodic schedule: the flow keeps sending
/// new packets at its interval while a dropped packet backs off on the side.
/// With `flow.retry == None` this draws exactly the same rng sequence as the
/// pre-retry code path, preserving byte-identical runs.
fn attempt_send(w: &mut TrafficWorld, ctx: &mut Ctx<TrafficWorld>, flow: &Flow, attempt: u32) {
    let report = w.network.send_at(flow.from, flow.template.clone(), ctx.now(), ctx.rng);
    let label = &flow.label;
    let hops = report.hops() as u64;
    if hops > 0 {
        ctx.metrics.record_series("net.forwards", ctx.now(), hops);
    }
    if let Some(outcome) = report.fault_outcome() {
        ctx.metrics.record_fault(label, outcome);
        if outcome != tussle_sim::FaultOutcome::Pass {
            ctx.metrics.record_series("net.faults", ctx.now(), 1);
        }
    }
    if report.delivered {
        ctx.metrics.incr(&format!("flow.{label}.delivered"));
        ctx.metrics.observe(&format!("flow.{label}.latency_us"), report.latency.as_micros() as f64);
        return;
    }
    ctx.metrics.incr(&format!("flow.{label}.dropped"));
    let reason = report.drop.map(|(_, r)| r);
    // Every drop carries exactly one reason-labeled counter. A report
    // with no recorded drop point must not vanish into the aggregate
    // only: it gets an explicit Unattributed label so a future drop path
    // that forgets its reason shows up in dashboards instead of hiding.
    match reason {
        Some(r) => ctx.metrics.incr(&format!("flow.{label}.drop.{r:?}")),
        None => ctx.metrics.incr(&format!("flow.{label}.drop.Unattributed")),
    }
    let Some(policy) = flow.retry else {
        return;
    };
    let Some(r) = reason.filter(|r| r.is_transient()) else {
        return;
    };
    if attempt >= policy.max_retries {
        ctx.metrics.incr(&format!("flow.{label}.abandoned"));
        ctx.metrics.incr(&format!("flow.{label}.abandoned.{r:?}"));
        ctx.trace("flow.retry", format_args!("{label}: abandoned after {} attempts", attempt + 1));
        return;
    }
    ctx.metrics.incr(&format!("flow.{label}.retried"));
    ctx.metrics.incr(&format!("flow.{label}.retried.{r:?}"));
    let jitter = if policy.jitter_us > 0 {
        SimTime::from_micros(ctx.rng.range(0..=policy.jitter_us))
    } else {
        SimTime::ZERO
    };
    let at = ctx.now().saturating_add(policy.delay(attempt)).saturating_add(jitter);
    let flow = flow.clone();
    ctx.schedule_at(at, move |w2: &mut TrafficWorld, ctx2| {
        attempt_send(w2, ctx2, &flow, attempt + 1);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, AddressOrigin, Asn, Prefix};
    use crate::packet::{ports, Protocol};
    use tussle_sim::FaultInjector;

    fn world() -> (Network, NodeId, Packet) {
        let mut net = Network::new();
        let h0 = net.add_host(Asn(1));
        let r = net.add_router(Asn(1));
        let h1 = net.add_host(Asn(2));
        net.connect(h0, r, SimTime::from_millis(1), 1_000_000_000);
        net.connect(r, h1, SimTime::from_millis(1), 1_000_000_000);
        let a0 =
            Address::in_prefix(Prefix::new(0x0a000000, 16), 1, AddressOrigin::ProviderIndependent);
        let a1 =
            Address::in_prefix(Prefix::new(0x0b000000, 16), 1, AddressOrigin::ProviderIndependent);
        net.node_mut(h0).bind(a0);
        net.node_mut(h1).bind(a1);
        net.fib_mut(h0).install(Prefix::DEFAULT, r, 0);
        net.fib_mut(r).install(Prefix::new(0x0b000000, 16), h1, 0);
        let pkt = Packet::new(a0, a1, Protocol::Udp, 1, ports::VOIP);
        (net, h0, pkt)
    }

    #[test]
    fn periodic_flow_sends_exactly_count() {
        let (net, h0, pkt) = world();
        let flow = Flow::periodic("voip", h0, pkt, SimTime::from_millis(20), 50);
        let mut eng = build_engine(net, vec![flow], 1);
        eng.run_to_completion();
        assert_eq!(eng.metrics().counter("flow.voip.delivered"), 50);
        assert_eq!(eng.metrics().counter("flow.voip.dropped"), 0);
        // 50 packets, 20ms apart, first at t=0: clock ends at 49*20ms
        assert_eq!(eng.now(), SimTime::from_millis(980));
        let h = eng.metrics().histogram("flow.voip.latency_us").unwrap();
        assert_eq!(h.count(), 50);
        assert_eq!(h.mean().unwrap(), 2000.0);
    }

    #[test]
    fn lossy_links_show_up_in_flow_stats() {
        let (mut net, h0, pkt) = world();
        let lid = net.links()[1].id;
        net.link_mut(lid).faults = FaultInjector::lossy(0.3, 0.0);
        let flow = Flow::periodic("lossy", h0, pkt, SimTime::from_millis(10), 200);
        let mut eng = build_engine(net, vec![flow], 7);
        eng.run_to_completion();
        let delivered = eng.metrics().counter("flow.lossy.delivered");
        let dropped = eng.metrics().counter("flow.lossy.dropped");
        assert_eq!(delivered + dropped, 200);
        assert!((100..180).contains(&delivered), "delivered={delivered}");
        assert_eq!(eng.metrics().counter("flow.lossy.drop.LinkLoss"), dropped);
    }

    #[test]
    fn multiple_flows_interleave_deterministically() {
        let run = |seed| {
            let (net, h0, pkt) = world();
            let f1 = Flow::periodic("a", h0, pkt.clone(), SimTime::from_millis(7), 30)
                .with_jitter(3_000);
            let f2 = Flow::periodic("b", h0, pkt, SimTime::from_millis(11), 30).with_jitter(3_000);
            let mut eng = build_engine(net, vec![f1, f2], seed);
            eng.run_to_completion();
            (
                eng.metrics().counter("flow.a.delivered"),
                eng.metrics().counter("flow.b.delivered"),
                eng.now(),
            )
        };
        assert_eq!(run(5), run(5));
        assert_eq!(run(5).0, 30);
        assert_eq!(run(5).1, 30);
    }

    #[test]
    fn congested_link_queues_and_overflows() {
        // a slow link (100 kbps) with a 20ms queue cap, hammered at 1ms
        // spacing with 1000-byte packets (~80ms serialization each):
        // the first packet sails, the next queue briefly, then overflow.
        let (mut net, h0, pkt) = world();
        let lid = net.links()[1].id;
        net.link_mut(lid).bandwidth_bps = 100_000;
        let cap = SimTime::from_millis(20);
        let l = net.link_mut(lid);
        l.queue_delay_cap = Some(cap);
        let big = pkt.with_payload(bytes::Bytes::from(vec![0u8; 960]));
        let flow = Flow::periodic("burst", h0, big, SimTime::from_millis(1), 30);
        let mut eng = build_engine(net, vec![flow], 1);
        eng.run_to_completion();
        let delivered = eng.metrics().counter("flow.burst.delivered");
        let overflow = eng.metrics().counter("flow.burst.drop.QueueOverflow");
        assert!(delivered >= 1, "the head of the burst gets through");
        assert!(overflow > 20, "most of the burst overflows: {overflow}");
        assert_eq!(delivered + overflow, 30);
    }

    #[test]
    fn uncongested_queue_caps_change_nothing() {
        let (mut net, h0, pkt) = world();
        let lid = net.links()[1].id;
        let l = net.link_mut(lid);
        l.queue_delay_cap = Some(SimTime::from_millis(50));
        // 20ms spacing, tiny packets on a gigabit link: no queueing
        let flow = Flow::periodic("calm", h0, pkt, SimTime::from_millis(20), 20);
        let mut eng = build_engine(net, vec![flow], 1);
        eng.run_to_completion();
        assert_eq!(eng.metrics().counter("flow.calm.delivered"), 20);
        let h = eng.metrics().histogram("flow.calm.latency_us").unwrap();
        assert_eq!(h.mean().unwrap(), 2000.0, "no queueing delay appears");
    }

    #[test]
    fn retries_recover_transient_drops() {
        // 30% loss on the second hop; with 6 retries per packet almost
        // every packet eventually lands, and retry counters show the work.
        let (mut net, h0, pkt) = world();
        let lid = net.links()[1].id;
        net.link_mut(lid).faults = FaultInjector::lossy(0.3, 0.0);
        let flow = Flow::periodic("rt", h0, pkt, SimTime::from_millis(10), 100)
            .with_retries(RetryPolicy::backoff(6));
        let mut eng = build_engine(net, vec![flow], 7);
        eng.run_to_completion();
        let delivered = eng.metrics().counter("flow.rt.delivered");
        let retried = eng.metrics().counter("flow.rt.retried");
        let abandoned = eng.metrics().counter("flow.rt.abandoned");
        assert!(delivered >= 98, "retries recover nearly all: {delivered}");
        assert!(retried > 10, "loss at 30% forces retries: {retried}");
        assert_eq!(delivered + abandoned, 100, "every packet resolves");
        // fault outcomes surfaced as counters per satellite (b)
        let stats = eng.metrics().fault_stats("rt");
        assert_eq!(stats.dropped, eng.metrics().counter("flow.rt.drop.LinkLoss"));
        assert!(stats.passed >= delivered);
    }

    #[test]
    fn permanent_drops_are_never_retried() {
        let (mut net, h0, pkt) = world();
        // break routing at the router: NoRoute is permanent
        let r = net.links()[1].a;
        *net.fib_mut(r) = crate::table::Fib::default();
        let flow = Flow::periodic("perm", h0, pkt, SimTime::from_millis(10), 20)
            .with_retries(RetryPolicy::backoff(5));
        let mut eng = build_engine(net, vec![flow], 1);
        eng.run_to_completion();
        assert_eq!(eng.metrics().counter("flow.perm.drop.NoRoute"), 20);
        assert_eq!(eng.metrics().counter("flow.perm.retried"), 0);
        assert_eq!(eng.metrics().counter("flow.perm.abandoned"), 0);
    }

    #[test]
    fn exhausted_retries_are_abandoned() {
        let (mut net, h0, pkt) = world();
        let lid = net.links()[1].id;
        net.link_mut(lid).faults = FaultInjector::lossy(1.0, 0.0); // always drop
        let flow = Flow::periodic("gone", h0, pkt, SimTime::from_millis(50), 5)
            .with_retries(RetryPolicy::backoff(3));
        let mut eng = build_engine(net, vec![flow], 2);
        eng.run_to_completion();
        assert_eq!(eng.metrics().counter("flow.gone.delivered"), 0);
        assert_eq!(eng.metrics().counter("flow.gone.abandoned"), 5);
        // 5 packets × 3 retries each
        assert_eq!(eng.metrics().counter("flow.gone.retried"), 15);
        assert_eq!(eng.metrics().counter("flow.gone.dropped"), 20);
    }

    #[test]
    fn retry_and_abandon_counters_carry_reason_labels() {
        // Satellite audit: no drop-path counter may be emitted without a
        // reason-labeled companion. Here every transient drop is LinkLoss,
        // so the labeled tallies must equal their aggregates exactly.
        let (mut net, h0, pkt) = world();
        let lid = net.links()[1].id;
        net.link_mut(lid).faults = FaultInjector::lossy(1.0, 0.0);
        let flow = Flow::periodic("lbl", h0, pkt, SimTime::from_millis(50), 4)
            .with_retries(RetryPolicy::backoff(2));
        let mut eng = build_engine(net, vec![flow], 3);
        eng.run_to_completion();
        let m = eng.metrics();
        assert!(m.counter("flow.lbl.retried") > 0);
        assert_eq!(m.counter("flow.lbl.retried.LinkLoss"), m.counter("flow.lbl.retried"));
        assert_eq!(m.counter("flow.lbl.abandoned.LinkLoss"), m.counter("flow.lbl.abandoned"));
        // Every drop got exactly one reason label, and none fell back to
        // the Unattributed lane (this topology always records a reason).
        assert_eq!(m.counter("flow.lbl.drop.LinkLoss"), m.counter("flow.lbl.dropped"));
        assert_eq!(m.counter("flow.lbl.drop.Unattributed"), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: SimTime::from_millis(10),
            max_backoff: SimTime::from_millis(70),
            jitter_us: 0,
        };
        assert_eq!(p.delay(0), SimTime::from_millis(10));
        assert_eq!(p.delay(1), SimTime::from_millis(20));
        assert_eq!(p.delay(2), SimTime::from_millis(40));
        assert_eq!(p.delay(3), SimTime::from_millis(70), "capped");
        assert_eq!(p.delay(63), SimTime::from_millis(70), "shift overflow capped");
    }

    #[test]
    fn without_retry_policy_runs_are_byte_identical_to_before() {
        // Two structurally identical runs — retry=None must not perturb the
        // rng stream relative to a flow that never consults the policy.
        let run = || {
            let (mut net, h0, pkt) = world();
            let lid = net.links()[1].id;
            net.link_mut(lid).faults = FaultInjector::lossy(0.25, 0.05);
            let flow =
                Flow::periodic("base", h0, pkt, SimTime::from_millis(10), 80).with_jitter(2_000);
            let mut eng = build_engine(net, vec![flow], 11);
            eng.run_to_completion();
            format!("{:?}", eng.metrics().counters().collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ambient_intensity_perturbs_and_restores() {
        let baseline = || {
            let (net, h0, pkt) = world();
            let flow = Flow::periodic("amb", h0, pkt, SimTime::from_millis(10), 100);
            let mut eng = build_engine(net, vec![flow], 5);
            eng.run_to_completion();
            eng.metrics().counter("flow.amb.delivered")
        };
        let clean = baseline();
        assert_eq!(clean, 100);
        {
            let _guard = tussle_sim::fault::set_ambient_intensity(0.8);
            let noisy = baseline();
            assert!(noisy < 100, "ambient chaos drops packets: {noisy}");
            let stats = tussle_sim::fault::take_ambient_stats();
            assert!(stats.faults() > 0, "ambient stats tally the damage");
        }
        assert_eq!(baseline(), 100, "guard restores clean behaviour");
        let _ = tussle_sim::fault::take_ambient_stats();
    }

    #[test]
    fn horizon_bounded_flows_stop_at_run_until() {
        let (net, h0, pkt) = world();
        let flow =
            Flow { count: None, ..Flow::periodic("forever", h0, pkt, SimTime::from_millis(10), 0) };
        let mut eng = build_engine(net, vec![flow], 1);
        eng.run_until(SimTime::from_millis(100));
        let sent = eng.metrics().counter("flow.forever.delivered");
        assert_eq!(sent, 11, "t=0..100ms inclusive at 10ms spacing");
        assert!(eng.queued() > 0, "the next transmission stays queued");
    }
}
