//! Interpreting [`FaultPlan`]s against a live network.
//!
//! `tussle-sim` scripts infrastructure faults as raw `u32` indices (it knows
//! nothing about network types); this module is the boundary where those
//! indices become [`LinkId`]s and [`NodeId`]s and land on the engine's event
//! queue. Out-of-range indices are ignored rather than panicking — a plan
//! generated for a larger topology degrades gracefully on a smaller one.

use crate::link::LinkId;
use crate::node::NodeId;
use crate::traffic::TrafficWorld;
use tussle_sim::{Engine, FaultAction, FaultPlan};

/// Apply one scripted action to the network, ignoring out-of-range indices.
pub fn apply_action(net: &mut crate::network::Network, action: &FaultAction) {
    let n_links = net.links().len() as u32;
    let n_nodes = net.nodes().len() as u32;
    match *action {
        FaultAction::LinkDown(l) if l < n_links => net.set_link_up(LinkId(l), false),
        FaultAction::LinkUp(l) if l < n_links => net.set_link_up(LinkId(l), true),
        FaultAction::CrashNode(n) if n < n_nodes => net.crash_node(NodeId(n)),
        FaultAction::RestoreNode(n) if n < n_nodes => net.restore_node(NodeId(n)),
        FaultAction::SetLinkFaults { link, ref injector } if link < n_links => {
            net.link_mut(LinkId(link)).faults = injector.clone();
        }
        _ => {}
    }
}

/// Schedule every event of `plan` onto `engine`'s queue. Each fires at its
/// scripted virtual time, mutating the network in place; forwarding picks up
/// the change on the next packet. Scheduling order follows the plan's
/// (time-sorted, stable) event order, so runs stay deterministic.
pub fn schedule_plan(engine: &mut Engine<TrafficWorld>, plan: &FaultPlan) {
    for ev in plan.events() {
        let action = ev.action.clone();
        engine.schedule_at(ev.at, move |w: &mut TrafficWorld, ctx| {
            ctx.trace("chaos", format_args!("{action:?}"));
            apply_action(&mut w.network, &action);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, AddressOrigin, Asn, Prefix};
    use crate::network::{DropReason, Network};
    use crate::packet::{ports, Packet, Protocol};
    use crate::traffic::{build_engine, Flow};
    use tussle_sim::{FaultInjector, SimTime};

    fn world() -> (Network, NodeId, NodeId, Packet) {
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
        (net, h0, r, pkt)
    }

    #[test]
    fn link_flap_window_drops_mid_run_traffic() {
        let (net, h0, _, pkt) = world();
        // 20 packets at 10ms; link 1 down for t in [50ms, 120ms).
        let plan =
            FaultPlan::new().link_flap(1, SimTime::from_millis(50), SimTime::from_millis(120));
        let flow = Flow::periodic("flap", h0, pkt, SimTime::from_millis(10), 20);
        let mut eng = build_engine(net, vec![flow], 3);
        schedule_plan(&mut eng, &plan);
        eng.run_to_completion();
        let delivered = eng.metrics().counter("flow.flap.delivered");
        let down = eng.metrics().counter("flow.flap.drop.LinkDown");
        // sends at 50..110ms inclusive hit the outage window: 7 packets
        assert_eq!(down, 7, "delivered={delivered} down={down}");
        assert_eq!(delivered, 13);
    }

    #[test]
    fn node_crash_takes_links_down_and_restore_brings_them_back() {
        let (mut net, h0, r, pkt) = world();
        net.crash_node(r);
        assert!(!net.node_is_up(r));
        let mut rng = tussle_sim::SimRng::seed_from_u64(1);
        let rep = net.send(h0, pkt.clone(), &mut rng);
        assert_eq!(rep.drop.unwrap().1, DropReason::LinkDown);
        net.restore_node(r);
        assert!(net.node_is_up(r));
        let rep = net.send(h0, pkt, &mut rng);
        assert!(rep.delivered);
    }

    #[test]
    fn overlapping_crashes_restore_links_only_when_both_endpoints_return() {
        let (mut net, h0, r, _) = world();
        net.crash_node(h0);
        net.crash_node(r); // shared link h0-r already down, owned by h0's crash
        net.restore_node(h0); // r still down: the shared link must stay down
        let shared = net.links()[0].id;
        assert!(!net.links()[shared.index()].up);
        net.restore_node(r);
        assert!(net.links()[shared.index()].up);
    }

    #[test]
    fn flapped_link_does_not_charge_pre_outage_queueing() {
        // 3200 bps => a 40-byte packet serializes in 100ms. Three sends at
        // t=0 leave the transmitter busy until 300ms, near the 250ms cap.
        let mut net = Network::new();
        let h0 = net.add_host(Asn(1));
        let h1 = net.add_host(Asn(2));
        let lid = net.connect(h0, h1, tussle_sim::SimTime::from_millis(1), 3_200);
        net.link_mut(lid).queue_delay_cap = Some(tussle_sim::SimTime::from_millis(250));
        let a0 =
            Address::in_prefix(Prefix::new(0x0a000000, 16), 1, AddressOrigin::ProviderIndependent);
        let a1 =
            Address::in_prefix(Prefix::new(0x0b000000, 16), 1, AddressOrigin::ProviderIndependent);
        net.node_mut(h0).bind(a0);
        net.node_mut(h1).bind(a1);
        net.fib_mut(h0).install(Prefix::DEFAULT, h1, 0);
        let pkt = Packet::new(a0, a1, Protocol::Udp, 1, ports::VOIP);
        let mut rng = tussle_sim::SimRng::seed_from_u64(1);
        for _ in 0..3 {
            assert!(net.send(h0, pkt.clone(), &mut rng).delivered);
        }
        // A chaos flap empties the transmitter along with the outage. The
        // post-restore packet must see a fresh queue, not 300ms of backlog
        // (which would overflow the 250ms cap).
        apply_action(&mut net, &FaultAction::LinkDown(lid.0));
        apply_action(&mut net, &FaultAction::LinkUp(lid.0));
        let rep = net.send(h0, pkt, &mut rng);
        assert!(rep.delivered, "stale busy_until survived the flap: {:?}", rep.drop);
        assert_eq!(rep.latency, tussle_sim::SimTime::from_millis(101));
    }

    #[test]
    fn out_of_range_plan_indices_are_ignored() {
        let (mut net, _, _, _) = world();
        apply_action(&mut net, &FaultAction::LinkDown(99));
        apply_action(&mut net, &FaultAction::CrashNode(99));
        apply_action(&mut net, &FaultAction::RestoreNode(99));
        apply_action(
            &mut net,
            &FaultAction::SetLinkFaults { link: 99, injector: FaultInjector::lossy(1.0, 0.0) },
        );
        assert!(net.links().iter().all(|l| l.up));
    }

    #[test]
    fn scaled_plan_application_is_deterministic() {
        let run = |seed: u64| {
            let (net, h0, _, pkt) = world();
            let plan =
                FaultPlan::scaled(0.6, net.links().len() as u32, SimTime::from_secs(1), seed);
            let flow = Flow::periodic("det", h0, pkt, SimTime::from_millis(5), 150);
            let mut eng = build_engine(net, vec![flow], seed);
            schedule_plan(&mut eng, &plan);
            eng.run_to_completion();
            (
                eng.metrics().counter("flow.det.delivered"),
                eng.metrics().counter("flow.det.dropped"),
                eng.now(),
            )
        };
        assert_eq!(run(9), run(9));
        let (d, x, _) = run(9);
        assert_eq!(d + x, 150);
        assert!(x > 0, "a 0.6-intensity plan disturbs at least one packet");
    }
}
