//! Property tests for addressing, forwarding and packet visibility.

use proptest::prelude::*;
use tussle_net::addr::{Address, AddressOrigin, Prefix};
use tussle_net::packet::{ports, Packet, Protocol};
use tussle_net::table::Fib;
use tussle_net::{build_engine, Flow, Network, NodeId, RetryPolicy, TrafficWorld};
use tussle_sim::{Engine, FaultInjector, SimTime};

/// A lossy two-hop retry workload: 30 packets at 10ms spacing over a 40%
/// lossy second hop, with jittered exponential backoff on every drop.
fn retry_workload(seed: u64) -> Engine<TrafficWorld> {
    let mut net = Network::new();
    let h0 = net.add_host(tussle_net::Asn(1));
    let r = net.add_router(tussle_net::Asn(1));
    let h1 = net.add_host(tussle_net::Asn(2));
    net.connect(h0, r, SimTime::from_millis(1), 1_000_000_000);
    net.connect(r, h1, SimTime::from_millis(1), 1_000_000_000);
    let a0 = Address::in_prefix(Prefix::new(0x0a000000, 16), 1, AddressOrigin::ProviderIndependent);
    let a1 = Address::in_prefix(Prefix::new(0x0b000000, 16), 1, AddressOrigin::ProviderIndependent);
    net.node_mut(h0).bind(a0);
    net.node_mut(h1).bind(a1);
    net.fib_mut(h0).install(Prefix::DEFAULT, r, 0);
    net.fib_mut(r).install(Prefix::new(0x0b000000, 16), h1, 0);
    let lid = net.links()[1].id;
    net.link_mut(lid).faults = FaultInjector::lossy(0.4, 0.0);
    let pkt = Packet::new(a0, a1, Protocol::Udp, 100, ports::VOIP);
    let flow = Flow::periodic("rt", h0, pkt, SimTime::from_millis(10), 30)
        .with_jitter(2_000)
        .with_retries(RetryPolicy::backoff(4));
    build_engine(net, vec![flow], seed)
}

proptest! {
    /// A prefix always contains every address minted inside it.
    #[test]
    fn prefix_contains_its_addresses(bits in any::<u32>(), len in 0u8..=32, host in any::<u32>()) {
        let p = Prefix::new(bits, len);
        let a = Address::in_prefix(p, host, AddressOrigin::ProviderIndependent);
        prop_assert!(p.contains(a.value));
    }

    /// `covers` is a partial order: reflexive and antisymmetric on
    /// distinct prefixes, and consistent with `contains`.
    #[test]
    fn covers_is_consistent(bits in any::<u32>(), len in 0u8..=31) {
        let parent = Prefix::new(bits, len);
        let child = Prefix::new(bits, len + 1);
        prop_assert!(parent.covers(&parent));
        prop_assert!(parent.covers(&child));
        prop_assert!(!child.covers(&parent) || parent == child);
    }

    /// Subprefix allocation stays inside the aggregate and distinct
    /// indices never collide.
    #[test]
    fn subprefixes_partition(bits in any::<u32>(), i in 0u32..16, j in 0u32..16) {
        let agg = Prefix::new(bits, 8);
        let a = agg.subprefix(16, i);
        let b = agg.subprefix(16, j);
        prop_assert!(agg.covers(&a));
        prop_assert!(agg.covers(&b));
        if i != j {
            prop_assert_ne!(a, b);
            prop_assert!(!a.covers(&b));
        }
    }

    /// FIB lookups always return the longest matching prefix.
    #[test]
    fn fib_longest_prefix_wins(
        routes in proptest::collection::vec((any::<u32>(), 1u8..=32, 0u32..64), 1..64),
        probe in any::<u32>(),
    ) {
        let mut fib = Fib::new();
        for (bits, len, hop) in &routes {
            fib.install(Prefix::new(*bits, *len), NodeId(*hop), 0);
        }
        if let Some(entry) = fib.lookup(probe) {
            prop_assert!(entry.prefix.contains(probe));
            // nothing longer also matches
            for e in fib.entries() {
                if e.prefix.contains(probe) {
                    prop_assert!(e.prefix.len() <= entry.prefix.len());
                }
            }
        } else {
            for e in fib.entries() {
                prop_assert!(!e.prefix.contains(probe));
            }
        }
    }

    /// Withdrawing a prefix removes exactly the matching entries.
    #[test]
    fn withdraw_is_exact(
        routes in proptest::collection::vec((any::<u32>(), 1u8..=32), 1..32),
        victim in 0usize..32,
    ) {
        let mut fib = Fib::new();
        for (bits, len) in &routes {
            fib.install(Prefix::new(*bits, *len), NodeId(0), 0);
        }
        let before = fib.len();
        let target = routes[victim % routes.len()];
        let target = Prefix::new(target.0, target.1);
        let removed = fib.withdraw(target);
        prop_assert_eq!(fib.len(), before - removed);
        prop_assert!(fib.entries().all(|e| e.prefix != target));
    }

    /// Retry backoff jitter draws come from the run's own `SimRng` (never
    /// ambient randomness), so a run split at any event boundary draws
    /// *exactly* what the uninterrupted run draws: prefix plus suffix draw
    /// counts equal the whole run's, and digest and clock agree.
    #[test]
    fn retry_jitter_draws_are_pinned_across_a_split_run(
        seed in 0u64..512,
        cut in 1u64..48,
    ) {
        let mut whole = retry_workload(seed);
        let scope = tussle_sim::obs::begin(tussle_sim::ObsMode::Cost);
        whole.run_to_completion();
        let whole_draws = scope.finish().rng_draws;

        let mut split = retry_workload(seed);
        let scope = tussle_sim::obs::begin(tussle_sim::ObsMode::Cost);
        split.run(cut);
        let prefix_draws = scope.finish().rng_draws;
        let scope = tussle_sim::obs::begin(tussle_sim::ObsMode::Cost);
        split.run_to_completion();
        let suffix_draws = scope.finish().rng_draws;

        prop_assert_eq!(prefix_draws + suffix_draws, whole_draws);
        prop_assert_eq!(split.events_processed(), whole.events_processed());
        prop_assert_eq!(split.digest(), whole.digest());
        prop_assert_eq!(split.now(), whole.now());
        let retried = whole.metrics().counter("flow.rt.retried");
        prop_assert!(retried > 0, "40% loss must force jittered retries");
    }

    /// Packet visibility is exhaustive and consistent: a steganographic
    /// packet is encrypted but never *visibly* encrypted; ToS bits survive
    /// every privacy posture.
    #[test]
    fn packet_visibility_invariants(tos in any::<u8>(), port in any::<u16>(), mode in 0u8..3) {
        let src = Address::in_prefix(Prefix::new(1, 8), 1, AddressOrigin::ProviderIndependent);
        let dst = Address::in_prefix(Prefix::new(2, 8), 1, AddressOrigin::ProviderIndependent);
        let mut p = Packet::new(src, dst, Protocol::Tcp, 1, port).with_tos(tos);
        p = match mode {
            0 => p,
            1 => p.encrypt(),
            _ => p.steganographic(),
        };
        prop_assert_eq!(p.visible_tos(), tos);
        match mode {
            0 => {
                prop_assert_eq!(p.visible_dst_port(), Some(port));
                prop_assert!(!p.visibly_encrypted());
            }
            1 => {
                prop_assert_eq!(p.visible_dst_port(), None);
                prop_assert!(p.visibly_encrypted());
            }
            _ => {
                prop_assert!(p.visible_dst_port().is_some());
                prop_assert!(!p.visibly_encrypted());
                prop_assert!(p.encrypted);
            }
        }
    }
}
