//! Equivalence oracle for the indexed forwarding lookups.
//!
//! `RefFib` is the linearly scanned `Fib` the per-length index replaced,
//! and `RefPairLinks` the `BTreeMap` endpoint-pair index the hashed one
//! replaced, both kept verbatim. On random operation sequences the indexed
//! versions must pick the same entries and links, keep the same entry
//! order and serialize to the same bytes. Two pins, computed before the
//! change, hold the 1k-node scale topology's state digest and the
//! `forwarding` benchmark's seed-1 batch outcomes in place.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use tussle_net::addr::{Address, Asn, Prefix};
use tussle_net::packet::{ports, Packet, Protocol};
use tussle_net::table::FibEntry;
use tussle_net::{Fib, Link, LinkId, Network, NodeId};
use tussle_sim::{SimRng, SimTime};

/// The linearly scanned forwarding table, as it was.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RefFib {
    entries: Vec<FibEntry>,
}

fn sort_key(e: &FibEntry) -> (Reverse<u8>, u32) {
    (Reverse(e.prefix.len()), e.metric)
}

impl RefFib {
    /// Install a route, replacing an existing entry for exactly the same
    /// prefix only when the new metric is *strictly* better.
    pub fn install(&mut self, prefix: Prefix, next_hop: NodeId, metric: u32) {
        if let Some(i) = self.entries.iter().position(|e| e.prefix == prefix) {
            if metric >= self.entries[i].metric {
                return; // incumbent wins ties and beats worse routes
            }
            self.entries.remove(i);
        }
        let entry = FibEntry { prefix, next_hop, metric };
        // Insert after all entries with the same key: first-installed stays
        // first in its equivalence class.
        let pos = self.entries.partition_point(|e| sort_key(e) <= sort_key(&entry));
        self.entries.insert(pos, entry);
    }

    /// Remove all routes for a prefix. Returns how many entries were removed.
    pub fn withdraw(&mut self, prefix: Prefix) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.prefix != prefix);
        before - self.entries.len()
    }

    /// Remove every route via a next hop (e.g. a failed neighbor).
    pub fn withdraw_via(&mut self, next_hop: NodeId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.next_hop != next_hop);
        before - self.entries.len()
    }

    /// Longest-prefix-match lookup: the first containing entry.
    pub fn lookup(&self, dst: u32) -> Option<&FibEntry> {
        self.entries.iter().find(|e| e.prefix.contains(dst))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The `BTreeMap` endpoint-pair index, as it was: `(min endpoint, max
/// endpoint)` → incident link ids in creation order.
#[derive(Debug, Default)]
struct RefPairLinks {
    pair_links: BTreeMap<(NodeId, NodeId), Vec<LinkId>>,
}

impl RefPairLinks {
    /// The bookkeeping `Network::connect` did.
    fn connect(&mut self, a: NodeId, b: NodeId, id: LinkId) {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.pair_links.entry(key).or_default().push(id);
    }

    /// `Network::link_between`, as it was.
    fn link_between<'n>(&self, net: &'n Network, a: NodeId, b: NodeId) -> Option<&'n Link> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.pair_links.get(&key)?.iter().map(|l| net.link(*l)).find(|l| l.up)
    }
}

/// Addresses that sit inside one another's prefixes at several lengths,
/// so drawn prefixes repeat, nest and share runs.
const BASES: [u32; 4] = [0x0a01_0203, 0x0a01_8000, 0x0aff_ffff, 0xc0a8_0001];
const LENS: [u8; 8] = [0, 1, 8, 16, 17, 24, 31, 32];

/// One in eight draws is an arbitrary prefix; the rest come from the pool.
fn prefix_of(pick: u32, len: u8) -> Prefix {
    if pick.is_multiple_of(8) {
        Prefix::new(pick, len % 33)
    } else {
        Prefix::new(BASES[(pick % 4) as usize], LENS[usize::from(len % 8)])
    }
}

/// The last address a prefix contains.
fn last_address(p: Prefix) -> u32 {
    p.bits() | !Prefix::new(u32::MAX, p.len()).bits()
}

/// `(op, prefix pick, length pick, next hop, metric)`: ops 0–11 install,
/// 12–15 withdraw, 16–18 withdraw via a next hop, 19 clears.
type FibOp = (u8, u32, u8, u32, u32);

fn fib_ops() -> impl Strategy<Value = Vec<FibOp>> {
    proptest::collection::vec((0u8..20, any::<u32>(), any::<u8>(), 0u32..4, 0u32..4), 1..48)
}

/// Both tables pick the same entry for every probe and for the first and
/// last address of every entry (and the addresses just outside), keep the
/// same order, serialize alike, and still agree after a serde round trip.
fn assert_same(fib: &Fib, reference: &RefFib, probes: &[u32]) {
    let entries: Vec<FibEntry> = fib.entries().copied().collect();
    assert_eq!(entries, reference.entries, "entry order");
    let json = serde_json::to_string(fib).expect("fib serializes");
    assert_eq!(json, serde_json::to_string(reference).expect("reference serializes"));
    let back: Fib = serde_json::from_str(&json).expect("fib deserializes");
    let edges = reference.entries.iter().flat_map(|e| {
        let (first, last) = (e.prefix.bits(), last_address(e.prefix));
        [first, last, first.wrapping_sub(1), last.wrapping_add(1)]
    });
    for dst in probes.iter().copied().chain(BASES).chain(edges) {
        let want = reference.lookup(dst);
        assert_eq!(fib.lookup(dst), want, "lookup {dst:08x}");
        assert_eq!(back.lookup(dst), want, "lookup {dst:08x} after a serde round trip");
    }
}

/// `(op, a, b, up)`: ops 0–1 connect `a`–`b` (parallel links included;
/// a self link is skipped), 2 sets link `a` up or down, 3 crashes node
/// `a`, 4 restores it, 5 flips link `a` through `link_mut`.
type TopoOp = (u8, u8, u8, bool);

fn topo_ops() -> impl Strategy<Value = (usize, Vec<TopoOp>)> {
    (2usize..9, proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>(), any::<bool>()), 1..40))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed FIB is indistinguishable from the linear scan.
    #[test]
    fn indexed_fib_matches_the_linear_scan(
        ops in fib_ops(),
        probes in proptest::collection::vec(any::<u32>(), 8),
    ) {
        let mut fib = Fib::new();
        let mut reference = RefFib::default();
        for (op, pick, len, hop, metric) in ops {
            let prefix = prefix_of(pick, len);
            match op {
                0..=11 => {
                    fib.install(prefix, NodeId(hop), metric);
                    reference.install(prefix, NodeId(hop), metric);
                }
                12..=15 => prop_assert_eq!(fib.withdraw(prefix), reference.withdraw(prefix)),
                16..=18 => {
                    prop_assert_eq!(fib.withdraw_via(NodeId(hop)), reference.withdraw_via(NodeId(hop)))
                }
                _ => {
                    fib.clear();
                    reference.clear();
                }
            }
            assert_same(&fib, &reference, &probes);
        }
    }

    /// The hashed pair index picks the same link as the `BTreeMap` one for
    /// every ordered node pair, through parallel links, flaps, crashes and
    /// restores.
    #[test]
    fn hashed_pair_index_matches_the_btree(topo in topo_ops()) {
        let (nodes, ops) = topo;
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..nodes).map(|_| net.add_router(Asn(1))).collect();
        let mut reference = RefPairLinks::default();
        for (op, a, b, up) in ops {
            let (na, nb) = (ids[usize::from(a) % nodes], ids[usize::from(b) % nodes]);
            let link = (!net.links().is_empty())
                .then(|| LinkId((usize::from(a) % net.links().len()) as u32));
            match (op, link) {
                (0 | 1, _) if na != nb => {
                    let id = net.connect(na, nb, SimTime::from_millis(1), 1_000_000);
                    reference.connect(na, nb, id);
                }
                (2, Some(l)) => net.set_link_up(l, up),
                (3, _) => net.crash_node(na),
                (4, _) => net.restore_node(na),
                (5, Some(l)) => net.link_mut(l).up = up,
                _ => {}
            }
            for &x in &ids {
                for &y in &ids {
                    prop_assert_eq!(
                        net.link_between(x, y).map(|l| l.id),
                        reference.link_between(&net, x, y).map(|l| l.id),
                        "link_between({:?}, {:?})", x, y
                    );
                }
            }
        }
    }
}

#[test]
fn scale_topology_state_digest_is_pinned() {
    let t = Network::scale_topology(2002, 1000, 3);
    assert_eq!(t.net.state_digest().to_string(), "0154e652eb37b53d");
}

/// `(delivered, hops, latency µs)` of one batch of the `forwarding`
/// benchmark: `tussle_experiments::scale::ScaleWorkload` with 4,096
/// packets on the 1,000-node, degree-3 topology, built and sent at `seed`.
/// The packet draws are mirrored here because `tussle-net` sits below the
/// experiments crate. The batch is sent twice, so the second pass runs
/// with the route cache warm.
fn scale_batch(seed: u64, source_routed: bool) -> (usize, usize, u64) {
    let mut topo = Network::scale_topology(seed, 1_000, 3);
    let mut rng = SimRng::seed_from_u64(seed).fork("scale-workload");
    let n_hosts = topo.hosts.len();
    let packets: Vec<(NodeId, Packet)> = (0..4_096)
        .map(|_| {
            let i = rng.range(0..n_hosts as u32) as usize;
            let mut j = rng.range(0..n_hosts as u32) as usize;
            if j == i {
                j = (j + 1) % n_hosts;
            }
            let (src, dst): (Address, Address) = (topo.host_addrs[i], topo.host_addrs[j]);
            let mut pkt = Packet::new(src, dst, Protocol::Tcp, 1, ports::HTTP);
            if source_routed {
                let w1 = rng.range(0..topo.core.len() as u32) as usize;
                let w2 = rng.range(0..topo.core.len() as u32) as usize;
                pkt = pkt.with_source_route(vec![topo.core[w1], topo.core[w2]]);
            }
            (topo.hosts[i], pkt)
        })
        .collect();
    let mut send = || {
        let mut rng = SimRng::seed_from_u64(seed);
        let (mut delivered, mut hops, mut latency) = (0, 0, SimTime::ZERO);
        for (src, pkt) in &packets {
            let rep = topo.net.send(*src, pkt.clone(), &mut rng);
            delivered += usize::from(rep.delivered);
            hops += rep.hops();
            latency = latency.saturating_add(rep.latency);
        }
        (delivered, hops, latency.as_micros())
    };
    let cold = send();
    assert_eq!(send(), cold, "a warm route cache changed the batch");
    cold
}

#[test]
fn forwarding_benchmark_batches_are_pinned() {
    assert_eq!(scale_batch(1, false), (4_096, 36_727, 108_298_369), "FIB-routed");
    assert_eq!(scale_batch(1, true), (4_096, 49_589, 158_816_113), "source-routed");
}
