//! The network: nodes, links, forwarding state and middleboxes.
//!
//! [`Network::send`] performs hop-by-hop forwarding of one packet and
//! returns a [`DeliveryReport`] saying what happened and where — the
//! substrate for both the experiments and the diagnostics tools. The model
//! is flow-level and synchronous (one call = one packet's fate), with
//! latency accumulated from link delays and QoS treatment; event-driven
//! scenarios schedule calls on the `tussle-sim` engine.

use crate::addr::Address;
use crate::firewall::{Firewall, FirewallAction};
use crate::link::{Link, LinkId};
use crate::node::{Node, NodeId, NodeKind};
use crate::packet::Packet;
use crate::qos::QosPolicy;
use crate::table::Fib;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use tussle_sim::{FaultOutcome, Fnv1a, RunDigest, SimRng, SimTime};

/// Why a packet did not arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// A firewall denied it.
    FirewallDenied,
    /// No forwarding entry matched.
    NoRoute,
    /// Hop budget exhausted.
    TtlExpired,
    /// The only link to the next hop is down.
    LinkDown,
    /// Random loss on a link.
    LinkLoss,
    /// A rate limiter discarded it.
    RateLimited,
    /// A router refused to honor the loose source route (§V.A.4: ISPs see
    /// no benefit in carrying source-routed traffic they are not paid for).
    SourceRouteRefused,
    /// Forwarding loop guard tripped.
    MaxHopsExceeded,
    /// A congested link's queue cap was exceeded.
    QueueOverflow,
}

impl DropReason {
    /// Is this the kind of loss a sender can reasonably retry through —
    /// transient infrastructure trouble rather than a standing policy or
    /// routing decision? Retry-with-backoff in [`crate::traffic`] only
    /// re-sends on transient drops.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            DropReason::LinkDown
                | DropReason::LinkLoss
                | DropReason::RateLimited
                | DropReason::QueueOverflow
        )
    }
}

/// The fate of one packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryReport {
    /// Did it arrive at a node holding the destination address?
    pub delivered: bool,
    /// Nodes visited, in order, starting with the source.
    pub path: Vec<NodeId>,
    /// Accumulated one-way latency.
    pub latency: SimTime,
    /// Where and why it died, if it did.
    pub drop: Option<(NodeId, DropReason)>,
    /// Whether a link corrupted it en route (delivered but damaged).
    pub corrupted: bool,
    /// The traceback stamp the packet carried on arrival (or at drop), if
    /// any marking router touched it (§II.B; see `crate::traceback`).
    pub mark: Option<crate::packet::Mark>,
}

impl DeliveryReport {
    /// Number of links traversed.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// The fault-injector outcome this delivery corresponds to, if its
    /// fate was decided by fault injection: `Drop`/`RateLimited` for the
    /// matching loss reasons, `Corrupt` for a damaged delivery, `Pass`
    /// for a clean one, and `None` for non-fault drops (firewall, routing,
    /// TTL, congestion).
    pub fn fault_outcome(&self) -> Option<FaultOutcome> {
        match self.drop {
            Some((_, DropReason::LinkLoss)) => Some(FaultOutcome::Drop),
            Some((_, DropReason::RateLimited)) => Some(FaultOutcome::RateLimited),
            Some(_) => None,
            None if self.corrupted => Some(FaultOutcome::Corrupt),
            None => Some(FaultOutcome::Pass),
        }
    }
}

/// In BFS scratch, the marker for "not yet visited".
const UNVISITED: u32 = u32::MAX;

/// Multiply–xorshift hasher for the fixed-width `(u32, u32)` keys of the
/// route memo and the endpoint-pair index. SipHash's DoS resistance buys
/// nothing against our own node ids and costs real time on every
/// forwarded hop.
#[derive(Debug, Default, Clone)]
struct PairHasher(u64);

impl std::hash::Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

type PairBuild = std::hash::BuildHasherDefault<PairHasher>;

/// The endpoint-pair index key: both orders of a pair share one entry.
fn pair_key(a: NodeId, b: NodeId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// Fast-path state for [`Network::next_hop_toward`]: a generation-stamped
/// memo of first hops plus reusable BFS buffers, so steady-state
/// source-routed forwarding allocates nothing and never repeats a search.
///
/// The memo is only ever read by exact `(from, target)` key and never
/// iterated, so its presence cannot perturb any deterministic order; see
/// DESIGN.md §7 for why that makes it digest-invisible.
#[derive(Debug, Default)]
struct RouteCache {
    /// Topology generation the memo was filled under. A mismatch with
    /// [`Network::generation`] invalidates every memoized hop at once.
    generation: u64,
    /// `(from, target)` → first hop (`None` = unreachable at that
    /// generation). A `HashMap` is safe here precisely because it is only
    /// probed by exact key, never iterated: hash order can't leak into
    /// behavior.
    next_hop: HashMap<(u32, u32), Option<NodeId>, PairBuild>,
    /// BFS predecessor scratch; `UNVISITED` marks untouched slots.
    prev: Vec<u32>,
    /// BFS frontier scratch.
    queue: VecDeque<NodeId>,
}

/// A `u64` rendered in decimal on the stack, so the observed `net.send`
/// span fields cost no heap `String` per packet.
struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    fn new(mut v: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                return Decimal { digits, start };
            }
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[self.start..]).expect("ASCII digits")
    }
}

/// A complete simulated network.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adj: Vec<Vec<LinkId>>,
    fibs: Vec<Fib>,
    firewalls: BTreeMap<NodeId, Firewall>,
    qos: BTreeMap<NodeId, QosPolicy>,
    max_hops: usize,
    /// Crashed nodes → the incident links this crash took down (only
    /// those that were up), so restore puts back exactly that state.
    crashed: BTreeMap<NodeId, Vec<LinkId>>,
    /// Monotone topology generation: bumped by every mutation that can
    /// change reachability or route selection (link state, new links,
    /// crashes/restores, FIB writes, and any `link_mut` borrow, since the
    /// caller may flip `up`). Stamps [`RouteCache`] entries.
    generation: u64,
    /// `(min endpoint, max endpoint)` → the first link created between
    /// them; the index behind [`Network::link_between`]. Like the route
    /// memo it is probed only by exact key, never iterated, and left out
    /// of `state_digest`.
    pair_links: HashMap<(u32, u32), LinkId, PairBuild>,
    /// Next-hop memo + BFS scratch. Interior-mutable because lookups run
    /// behind `&self`; `Network` is not shared across threads (each sweep
    /// worker owns its world), so a `RefCell` suffices.
    route_cache: RefCell<RouteCache>,
    /// Whether [`Network::next_hop_toward`] uses the route cache: the
    /// observation scope's setting at construction, then
    /// [`Network::set_route_caching`].
    route_cache_enabled: bool,
}

impl Default for Network {
    /// The same network as [`Network::new`].
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// An empty network, caching routes unless the active observation
    /// scope turns route caching off (see [`tussle_sim::obs::Settings`]).
    pub fn new() -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            adj: Vec::new(),
            fibs: Vec::new(),
            firewalls: BTreeMap::new(),
            qos: BTreeMap::new(),
            max_hops: 64,
            crashed: BTreeMap::new(),
            generation: 0,
            pair_links: HashMap::default(),
            route_cache: RefCell::default(),
            route_cache_enabled: tussle_sim::obs::settings().route_cache,
        }
    }

    /// The topology generation: a counter that advances on every mutation
    /// that can change routing decisions. Cached routing state stamped with
    /// an older generation is dead on arrival.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Enable or disable the next-hop route cache for this instance
    /// (default: the scope's setting, see [`Network::new`]). Disabling
    /// makes every [`Network::next_hop_toward`] call run a fresh BFS — the
    /// oracle arm of the equivalence tests.
    pub fn set_route_caching(&mut self, enabled: bool) {
        self.route_cache_enabled = enabled;
    }

    fn bump_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Add a host in `asn`; returns its id.
    pub fn add_host(&mut self, asn: crate::addr::Asn) -> NodeId {
        self.push_node(|id| Node::host(id, asn))
    }

    /// Add a router in `asn`; returns its id.
    pub fn add_router(&mut self, asn: crate::addr::Asn) -> NodeId {
        self.push_node(|id| Node::router(id, asn))
    }

    fn push_node(&mut self, make: impl FnOnce(NodeId) -> Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(make(id));
        self.adj.push(Vec::new());
        self.fibs.push(Fib::new());
        id
    }

    /// Connect two nodes; returns the link id.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: SimTime,
        bandwidth_bps: u64,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(id, a, b, latency, bandwidth_bps));
        self.adj[a.index()].push(id);
        self.adj[b.index()].push(id);
        self.pair_links.entry(pair_key(a, b)).or_insert(id);
        self.bump_generation();
        id
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Node accessor (mutable).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Link accessor (mutable) — used to fail links, add faults, set costs.
    ///
    /// Conservatively bumps the topology generation: the borrow may flip
    /// `up` or otherwise change what routing would decide.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        self.bump_generation();
        &mut self.links[id.index()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Link ids incident to a node.
    pub fn links_of(&self, id: NodeId) -> &[LinkId] {
        &self.adj[id.index()]
    }

    /// Set a link's administrative state. Forwarding honors it on the
    /// next packet: down links are invisible to [`Network::link_between`]
    /// and [`Network::neighbors`], so traffic drops with
    /// [`DropReason::LinkDown`] until the link comes back.
    ///
    /// The down→up transition clears the link's queue state: an outage
    /// empties the transmitter, so queueing delay accrued *before* the
    /// flap must not be charged to (or overflow-drop) post-restore
    /// packets.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        let link = &mut self.links[id.index()];
        if up && !link.up {
            link.reset_queue();
        }
        link.up = up;
        self.bump_generation();
    }

    /// Crash a node: every incident link that is currently up goes down.
    /// Crashing an already-crashed node is a no-op.
    pub fn crash_node(&mut self, id: NodeId) {
        if self.crashed.contains_key(&id) {
            return;
        }
        let downed: Vec<LinkId> =
            self.adj[id.index()].iter().copied().filter(|l| self.links[l.index()].up).collect();
        for l in &downed {
            self.links[l.index()].up = false;
        }
        self.crashed.insert(id, downed);
        self.bump_generation();
    }

    /// Restore a crashed node: the links its crash took down come back up,
    /// except those whose other endpoint is still crashed (those transfer
    /// to the surviving crash record and return when *it* restores).
    /// Restored links come back with empty queues, same as
    /// [`Network::set_link_up`].
    pub fn restore_node(&mut self, id: NodeId) {
        let Some(links) = self.crashed.remove(&id) else {
            return;
        };
        for l in links {
            let (a, b) = {
                let link = &self.links[l.index()];
                (link.a, link.b)
            };
            let other = if a == id { b } else { a };
            if let Some(list) = self.crashed.get_mut(&other) {
                if !list.contains(&l) {
                    list.push(l);
                }
            } else {
                let link = &mut self.links[l.index()];
                link.reset_queue();
                link.up = true;
            }
        }
        self.bump_generation();
    }

    /// Is the node currently up (not crashed)?
    pub fn node_is_up(&self, id: NodeId) -> bool {
        !self.crashed.contains_key(&id)
    }

    /// Neighbors of a node over up links, in adjacency (link-creation)
    /// order. Allocation-free: this is the forwarding hot loop's inner
    /// edge scan.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[id.index()].iter().filter_map(move |l| {
            let link = &self.links[l.index()];
            if link.up {
                link.other_end(id)
            } else {
                None
            }
        })
    }

    /// The up link between two nodes, if any — the lowest-id up link when
    /// parallel links exist, matching the adjacency-scan order (links
    /// enter `adj` in increasing id order). Served by one probe of the
    /// endpoint-pair index; only when the pair's first link is down does
    /// it scan `a`'s adjacency for an up parallel link.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        let first = &self.links[self.pair_links.get(&pair_key(a, b))?.index()];
        if first.up {
            return Some(first);
        }
        self.adj[a.index()]
            .iter()
            .map(|l| &self.links[l.index()])
            .find(|l| l.up && l.other_end(a) == Some(b))
    }

    /// Forwarding table of a node.
    pub fn fib(&self, id: NodeId) -> &Fib {
        &self.fibs[id.index()]
    }

    /// Forwarding table of a node (mutable) — routing protocols write here.
    /// Bumps the topology generation: FIB contents are routing state.
    pub fn fib_mut(&mut self, id: NodeId) -> &mut Fib {
        self.bump_generation();
        &mut self.fibs[id.index()]
    }

    /// Install a firewall at a node (replacing any existing one).
    /// Bumps the topology generation: a firewall changes which packets a
    /// node forwards, so routing state cached before the install must not
    /// outlive it.
    pub fn set_firewall(&mut self, id: NodeId, fw: Firewall) {
        self.firewalls.insert(id, fw);
        self.bump_generation();
    }

    /// Remove the firewall at a node. Bumps the topology generation, same
    /// as [`Network::set_firewall`].
    pub fn clear_firewall(&mut self, id: NodeId) {
        self.firewalls.remove(&id);
        self.bump_generation();
    }

    /// The firewall at a node, if any.
    pub fn firewall(&self, id: NodeId) -> Option<&Firewall> {
        self.firewalls.get(&id)
    }

    /// Install a QoS policy at a node. Bumps the topology generation: the
    /// policy changes per-hop treatment, so anything memoized against the
    /// previous configuration is stale.
    pub fn set_qos(&mut self, id: NodeId, policy: QosPolicy) {
        self.qos.insert(id, policy);
        self.bump_generation();
    }

    /// The QoS policy at a node, if any.
    pub fn qos(&self, id: NodeId) -> Option<&QosPolicy> {
        self.qos.get(&id)
    }

    /// Find the node currently bound to an address.
    pub fn node_for_address(&self, addr: Address) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.has_address(addr)).map(|n| n.id)
    }

    /// Total FIB entries across all routers — the core-table-size metric
    /// of experiment E1.
    pub fn total_fib_entries(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Router)
            .map(|n| self.fibs[n.id.index()].len())
            .sum()
    }

    /// First hop on a shortest path from `from` to `target` over up links,
    /// by breadth-first search. Deterministic: ties break in adjacency
    /// (insertion) order. Used for loose-source-route segments, where the
    /// sender's chosen waypoint overrides provider path selection.
    ///
    /// Results are memoized per `(from, target)` pair, stamped with the
    /// topology generation; any mutation invalidates the whole memo. The
    /// cache is a pure lookup table over a deterministic function of the
    /// topology, so enabling it cannot change any answer — the
    /// `prop_fastpath` equivalence oracle holds it to that byte-for-byte.
    pub fn next_hop_toward(&self, from: NodeId, target: NodeId) -> Option<NodeId> {
        if from == target {
            return Some(target);
        }
        if !self.route_cache_enabled {
            let mut prev = Vec::new();
            let mut queue = VecDeque::new();
            return self.bfs_first_hop(from, target, &mut prev, &mut queue);
        }
        let mut guard = self.route_cache.borrow_mut();
        let cache = &mut *guard;
        if cache.generation != self.generation {
            cache.next_hop.clear();
            cache.generation = self.generation;
        }
        if let Some(&hop) = cache.next_hop.get(&(from.0, target.0)) {
            return hop;
        }
        let hop = self.bfs_first_hop(from, target, &mut cache.prev, &mut cache.queue);
        cache.next_hop.insert((from.0, target.0), hop);
        hop
    }

    /// The BFS behind [`Network::next_hop_toward`], over caller-provided
    /// scratch so the steady state allocates nothing. `prev` doubles as the
    /// visited set (`UNVISITED` = untouched).
    fn bfs_first_hop(
        &self,
        from: NodeId,
        target: NodeId,
        prev: &mut Vec<u32>,
        queue: &mut VecDeque<NodeId>,
    ) -> Option<NodeId> {
        prev.clear();
        prev.resize(self.nodes.len(), UNVISITED);
        queue.clear();
        queue.push_back(from);
        prev[from.index()] = from.0;
        while let Some(n) = queue.pop_front() {
            for next in self.neighbors(n) {
                if prev[next.index()] == UNVISITED {
                    prev[next.index()] = n.0;
                    if next == target {
                        // walk back to find the first hop
                        let mut hop = target;
                        while prev[hop.index()] != from.0 {
                            hop = NodeId(prev[hop.index()]);
                        }
                        return Some(hop);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Forward one packet from `from` toward its destination address,
    /// treating all links as unloaded (absolute time 0). For
    /// congestion-aware forwarding use [`Network::send_at`].
    pub fn send(&mut self, from: NodeId, pkt: Packet, rng: &mut SimRng) -> DeliveryReport {
        self.send_at(from, pkt, SimTime::ZERO, rng)
    }

    /// Forward one packet starting at absolute time `now`; links with a
    /// queue cap serialize packets FIFO and drop on overflow.
    pub fn send_at(
        &mut self,
        from: NodeId,
        pkt: Packet,
        now: SimTime,
        rng: &mut SimRng,
    ) -> DeliveryReport {
        // Fast path: no observation scope, no span bookkeeping at all.
        if !tussle_sim::obs::active() {
            return self.send_at_inner(from, pkt, now, rng);
        }
        let src = Decimal::new(from.index() as u64);
        let dst = Decimal::new(pkt.dst.value.into());
        tussle_sim::obs::span_enter(
            now,
            "net.send",
            None,
            &[("src", src.as_str()), ("dst", dst.as_str())],
        );
        let report = self.send_at_inner(from, pkt, now, rng);
        let hops = Decimal::new(report.hops() as u64);
        let reason;
        let outcome = match (&report.drop, report.delivered) {
            (_, true) => "delivered",
            (Some((_, why)), false) => {
                reason = format!("{why:?}");
                reason.as_str()
            }
            (None, false) => "undelivered",
        };
        tussle_sim::obs::span_exit(
            now.saturating_add(report.latency),
            &[("hops", hops.as_str()), ("outcome", outcome)],
        );
        report
    }

    fn send_at_inner(
        &mut self,
        from: NodeId,
        mut pkt: Packet,
        now: SimTime,
        rng: &mut SimRng,
    ) -> DeliveryReport {
        // A packet takes at most `min(ttl, max_hops)` hops, so the path
        // never regrows.
        let mut path = Vec::with_capacity(usize::from(pkt.ttl).min(self.max_hops) + 1);
        path.push(from);
        let mut latency = SimTime::ZERO;
        let mut corrupted = false;
        // Cursor into the borrowed source route: waypoints are consumed by
        // advancing it, never by cloning or shifting the route itself.
        let mut route_at = 0usize;
        let mut current = from;
        let mut mark: Option<crate::packet::Mark> = None;
        const MARK_PROBABILITY: f64 = 0.04;

        loop {
            // Arrived?
            if self.nodes[current.index()].has_address(pkt.dst) {
                return DeliveryReport {
                    delivered: true,
                    path,
                    latency,
                    drop: None,
                    corrupted,
                    mark,
                };
            }

            // Middlebox checks at transit nodes (not at the original sender:
            // you cannot firewall yourself out of sending). The is_empty
            // guard keeps firewall-free topologies off the map probe.
            if current != from && !self.firewalls.is_empty() {
                if let Some(fw) = self.firewalls.get(&current) {
                    if fw.evaluate(&pkt) == FirewallAction::Deny {
                        return DeliveryReport {
                            delivered: false,
                            path,
                            latency,
                            drop: Some((current, DropReason::FirewallDenied)),
                            corrupted,
                            mark,
                        };
                    }
                }
            }

            // Probabilistic traceback marking (§II.B): a marking router
            // either stamps fresh or ages an existing stamp.
            if current != from && self.nodes[current.index()].marks_packets {
                if rng.chance(MARK_PROBABILITY) {
                    mark = Some(crate::packet::Mark { node: current, distance: 0 });
                } else if let Some(m) = &mut mark {
                    m.distance = m.distance.saturating_add(1);
                }
            } else if current != from {
                if let Some(m) = &mut mark {
                    m.distance = m.distance.saturating_add(1);
                }
            }

            // Hop budget.
            if pkt.ttl == 0 {
                return DeliveryReport {
                    delivered: false,
                    path,
                    latency,
                    drop: Some((current, DropReason::TtlExpired)),
                    corrupted,
                    mark,
                };
            }
            pkt.ttl -= 1;
            if path.len() > self.max_hops {
                return DeliveryReport {
                    delivered: false,
                    path,
                    latency,
                    drop: Some((current, DropReason::MaxHopsExceeded)),
                    corrupted,
                    mark,
                };
            }

            // A transit router that refuses loose source routes drops any
            // packet still carrying one — processing the option at all is
            // the service it declines to give away (§V.A.4).
            if route_at < pkt.source_route.len()
                && current != from
                && !self.nodes[current.index()].honors_source_routes
            {
                return DeliveryReport {
                    delivered: false,
                    path,
                    latency,
                    drop: Some((current, DropReason::SourceRouteRefused)),
                    corrupted,
                    mark,
                };
            }

            // Pop a waypoint we are standing on.
            while pkt.source_route.get(route_at) == Some(&current) {
                route_at += 1;
            }

            // Pick the next hop: loose source route first, then the FIB.
            let next = if let Some(&waypoint) = pkt.source_route.get(route_at) {
                // Route toward the waypoint over the underlying topology: a
                // loose source route asks the network to *get to* each
                // waypoint, overriding provider path selection in between.
                match self.next_hop_toward(current, waypoint) {
                    Some(n) => n,
                    None => {
                        return DeliveryReport {
                            delivered: false,
                            path,
                            latency,
                            drop: Some((current, DropReason::NoRoute)),
                            corrupted,
                            mark,
                        }
                    }
                }
            } else {
                match self.fibs[current.index()].lookup(pkt.dst.value) {
                    Some(e) => e.next_hop,
                    None => {
                        return DeliveryReport {
                            delivered: false,
                            path,
                            latency,
                            drop: Some((current, DropReason::NoRoute)),
                            corrupted,
                            mark,
                        }
                    }
                }
            };

            // Traverse the link.
            let Some(link_id) = self.link_between(current, next).map(|l| l.id) else {
                return DeliveryReport {
                    delivered: false,
                    path,
                    latency,
                    drop: Some((current, DropReason::LinkDown)),
                    corrupted,
                    mark,
                };
            };
            let size = pkt.size();
            let qos_factor = if self.qos.is_empty() {
                1.0
            } else {
                self.qos.get(&current).map(|q| q.delay_factor(&pkt)).unwrap_or(1.0)
            };
            let link = &mut self.links[link_id.index()];
            let fault_at = now.saturating_add(latency);
            // The link's own injector decides first; unless it lost the
            // packet, the scope's ambient intensity decides next. That
            // draws nothing at intensity 0, so such runs match plain ones.
            let link_outcome = link.faults.apply(fault_at, rng);
            let ambient = std::iter::once_with(|| tussle_sim::obs::ambient_fault(rng)).flatten();
            for outcome in std::iter::once(link_outcome).chain(ambient) {
                if outcome != FaultOutcome::Pass {
                    tussle_sim::obs::on_fault(fault_at);
                }
                match outcome {
                    FaultOutcome::Pass => {}
                    FaultOutcome::Corrupt => corrupted = true,
                    FaultOutcome::Drop => {
                        return DeliveryReport {
                            delivered: false,
                            path,
                            latency,
                            drop: Some((current, DropReason::LinkLoss)),
                            corrupted,
                            mark,
                        }
                    }
                    FaultOutcome::RateLimited => {
                        return DeliveryReport {
                            delivered: false,
                            path,
                            latency,
                            drop: Some((current, DropReason::RateLimited)),
                            corrupted,
                            mark,
                        }
                    }
                }
            }
            let delay = match link.enqueue_at(now.saturating_add(latency), size) {
                crate::link::QueueOutcome::Sent { delay, .. } => delay,
                crate::link::QueueOutcome::Overflow => {
                    return DeliveryReport {
                        delivered: false,
                        path,
                        latency,
                        drop: Some((current, DropReason::QueueOverflow)),
                        corrupted,
                        mark,
                    }
                }
            };
            let scaled = SimTime::from_micros((delay.as_micros() as f64 * qos_factor) as u64);
            latency = latency.saturating_add(scaled);

            tussle_sim::obs::on_forward(now.saturating_add(latency));
            current = next;
            path.push(current);
        }
    }

    /// Digest of the network's logical state: nodes, links (including
    /// accrued queue and fault-injector state), FIBs, middleboxes, crash
    /// records and the hop budget — everything forwarding consults. Three
    /// things are deliberately absent: the topology `generation` and the
    /// route memo are derived bookkeeping, and the adjacency/endpoint-pair
    /// indexes are pure functions of the links. Including any of them
    /// would make cache warmth observable, breaking the DESIGN.md §7
    /// invariant.
    pub fn state_digest(&self) -> RunDigest {
        let mut h = Fnv1a::new();
        h.write_u8(0xD0);
        h.write_str(&serde_json::to_string(&self.nodes).expect("nodes serialize"));
        h.write_u8(0xD1);
        h.write_str(&serde_json::to_string(&self.links).expect("links serialize"));
        h.write_u8(0xD2);
        h.write_str(&serde_json::to_string(&self.fibs).expect("fibs serialize"));
        h.write_u8(0xD3);
        h.write_u64(self.firewalls.len() as u64);
        for (id, fw) in &self.firewalls {
            h.write_u64(u64::from(id.0));
            h.write_str(&serde_json::to_string(fw).expect("firewall serializes"));
        }
        h.write_u8(0xD4);
        h.write_u64(self.qos.len() as u64);
        for (id, q) in &self.qos {
            h.write_u64(u64::from(id.0));
            h.write_str(&serde_json::to_string(q).expect("qos policy serializes"));
        }
        h.write_u8(0xD5);
        h.write_u64(self.crashed.len() as u64);
        for (id, links) in &self.crashed {
            h.write_u64(u64::from(id.0));
            h.write_u64(links.len() as u64);
            for l in links {
                h.write_u64(u64::from(l.0));
            }
        }
        h.write_u64(self.max_hops as u64);
        RunDigest(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, AddressOrigin, Asn, Prefix};
    use crate::packet::{ports, Protocol};
    use tussle_sim::FaultInjector;

    fn addr(v: u32) -> Address {
        Address::in_prefix(Prefix::new(v, 16), 1, AddressOrigin::ProviderIndependent)
    }

    /// h0 -- r1 -- r2 -- h3, addresses 0x0a.., 0x0d.. on the hosts.
    fn line() -> (Network, NodeId, NodeId, NodeId, NodeId, Address, Address) {
        line_on(Network::new())
    }

    /// [`line`], built on `net`.
    fn line_on(mut net: Network) -> (Network, NodeId, NodeId, NodeId, NodeId, Address, Address) {
        let h0 = net.add_host(Asn(1));
        let r1 = net.add_router(Asn(1));
        let r2 = net.add_router(Asn(2));
        let h3 = net.add_host(Asn(2));
        net.connect(h0, r1, SimTime::from_millis(1), 1_000_000_000);
        net.connect(r1, r2, SimTime::from_millis(10), 1_000_000_000);
        net.connect(r2, h3, SimTime::from_millis(1), 1_000_000_000);
        let a0 = addr(0x0a010000);
        let a3 = addr(0x0d010000);
        net.node_mut(h0).bind(a0);
        net.node_mut(h3).bind(a3);
        // static routes
        net.fib_mut(h0).install(Prefix::DEFAULT, r1, 0);
        net.fib_mut(r1).install(Prefix::new(0x0d010000, 16), r2, 0);
        net.fib_mut(r2).install(Prefix::new(0x0d010000, 16), h3, 0);
        net.fib_mut(r2).install(Prefix::new(0x0a010000, 16), r1, 0);
        net.fib_mut(r1).install(Prefix::new(0x0a010000, 16), h0, 0);
        (net, h0, r1, r2, h3, a0, a3)
    }

    fn pkt(src: Address, dst: Address) -> Packet {
        Packet::new(src, dst, Protocol::Tcp, 1000, ports::HTTP)
    }

    #[test]
    fn delivery_along_static_routes() {
        let (mut net, h0, r1, r2, h3, a0, a3) = line();
        let mut rng = SimRng::seed_from_u64(1);
        let rep = net.send(h0, pkt(a0, a3), &mut rng);
        assert!(rep.delivered);
        assert_eq!(rep.path, vec![h0, r1, r2, h3]);
        assert_eq!(rep.hops(), 3);
        assert!(rep.latency >= SimTime::from_millis(12));
        assert!(!rep.corrupted);
    }

    #[test]
    fn no_route_is_reported_at_the_right_node() {
        let (mut net, h0, _r1, r2, _h3, a0, _a3) = line();
        let mut rng = SimRng::seed_from_u64(1);
        let rep = net.send(h0, pkt(a0, addr(0x0e000000)), &mut rng);
        assert!(!rep.delivered);
        // h0's default route sends it to r1; r1 has no route for 0x0e.
        assert_eq!(rep.drop.unwrap().1, DropReason::NoRoute);
        let _ = r2;
    }

    #[test]
    fn ttl_expiry() {
        let (mut net, h0, _, _, _, a0, a3) = line();
        let mut rng = SimRng::seed_from_u64(1);
        let mut p = pkt(a0, a3);
        p.ttl = 1;
        let rep = net.send(h0, p, &mut rng);
        assert!(!rep.delivered);
        assert_eq!(rep.drop.unwrap().1, DropReason::TtlExpired);
    }

    #[test]
    fn forwarding_loop_is_caught() {
        let mut net = Network::new();
        let a = net.add_router(Asn(1));
        let b = net.add_router(Asn(1));
        net.connect(a, b, SimTime::from_millis(1), 1_000_000);
        let dst = addr(0x0f000000);
        net.fib_mut(a).install(Prefix::DEFAULT, b, 0);
        net.fib_mut(b).install(Prefix::DEFAULT, a, 0);
        let mut rng = SimRng::seed_from_u64(1);
        let mut p = pkt(addr(0x0a000000), dst);
        p.ttl = 255;
        let rep = net.send(a, p, &mut rng);
        assert!(!rep.delivered);
        // TTL (32 default overridden to 255) exceeds max_hops, so the loop
        // guard fires first.
        assert_eq!(rep.drop.unwrap().1, DropReason::MaxHopsExceeded);
    }

    #[test]
    fn firewall_on_path_drops() {
        let (mut net, h0, r1, _r2, _h3, a0, a3) = line();
        net.set_firewall(r1, Firewall::port_allowlist(vec![ports::SMTP], "isp"));
        let mut rng = SimRng::seed_from_u64(1);
        let rep = net.send(h0, pkt(a0, a3), &mut rng);
        assert!(!rep.delivered);
        assert_eq!(rep.drop, Some((r1, DropReason::FirewallDenied)));
    }

    #[test]
    fn sender_own_firewall_does_not_block_egress() {
        let (mut net, h0, _, _, _, a0, a3) = line();
        net.set_firewall(h0, Firewall::port_allowlist(vec![], "self"));
        let mut rng = SimRng::seed_from_u64(1);
        let rep = net.send(h0, pkt(a0, a3), &mut rng);
        assert!(rep.delivered);
    }

    #[test]
    fn link_down_blocks() {
        let (mut net, h0, _r1, _r2, _h3, a0, a3) = line();
        let lid = net.links()[1].id;
        net.link_mut(lid).up = false;
        let mut rng = SimRng::seed_from_u64(1);
        let rep = net.send(h0, pkt(a0, a3), &mut rng);
        assert!(!rep.delivered);
        assert_eq!(rep.drop.unwrap().1, DropReason::LinkDown);
    }

    #[test]
    fn lossy_link_drops_sometimes() {
        let (mut net, h0, _, _, _, a0, a3) = line();
        let lid = net.links()[1].id;
        net.link_mut(lid).faults = FaultInjector::lossy(0.5, 0.0);
        let mut rng = SimRng::seed_from_u64(7);
        let outcomes: Vec<bool> =
            (0..100).map(|_| net.send(h0, pkt(a0, a3), &mut rng).delivered).collect();
        let delivered = outcomes.iter().filter(|d| **d).count();
        assert!(delivered > 20 && delivered < 80, "delivered={delivered}");
    }

    #[test]
    fn corruption_is_flagged_but_delivered() {
        let (mut net, h0, _, _, _, a0, a3) = line();
        let lid = net.links()[0].id;
        net.link_mut(lid).faults = FaultInjector::lossy(0.0, 1.0);
        let mut rng = SimRng::seed_from_u64(7);
        let rep = net.send(h0, pkt(a0, a3), &mut rng);
        assert!(rep.delivered);
        assert!(rep.corrupted);
    }

    #[test]
    fn source_route_takes_the_scenic_path() {
        // diamond: h0 - r1 - r3 - h4 and h0 - r1 - r2 - r3 (waypoint r2)
        let mut net = Network::new();
        let h0 = net.add_host(Asn(1));
        let r1 = net.add_router(Asn(1));
        let r2 = net.add_router(Asn(2));
        let r3 = net.add_router(Asn(3));
        let h4 = net.add_host(Asn(3));
        for (a, b) in [(h0, r1), (r1, r2), (r2, r3), (r1, r3), (r3, h4)] {
            net.connect(a, b, SimTime::from_millis(1), 1_000_000_000);
        }
        let a0 = addr(0x0a010000);
        let a4 = addr(0x0d010000);
        net.node_mut(h0).bind(a0);
        net.node_mut(h4).bind(a4);
        let dstp = Prefix::new(0x0d010000, 16);
        net.fib_mut(h0).install(Prefix::DEFAULT, r1, 0);
        net.fib_mut(r1).install(dstp, r3, 0);
        net.fib_mut(r2).install(dstp, r3, 0);
        net.fib_mut(r3).install(dstp, h4, 0);
        let mut rng = SimRng::seed_from_u64(1);

        let direct = net.send(h0, pkt(a0, a4), &mut rng);
        assert_eq!(direct.path, vec![h0, r1, r3, h4]);

        let via_r2 = net.send(h0, pkt(a0, a4).with_source_route(vec![r2]), &mut rng);
        assert!(via_r2.delivered);
        assert_eq!(via_r2.path, vec![h0, r1, r2, r3, h4]);
    }

    #[test]
    fn unpaid_source_routes_are_refused() {
        let (mut net, h0, r1, r2, _h3, a0, a3) = line();
        net.node_mut(r1).honors_source_routes = false;
        let mut rng = SimRng::seed_from_u64(1);
        let rep = net.send(h0, pkt(a0, a3).with_source_route(vec![r2]), &mut rng);
        assert!(!rep.delivered);
        assert_eq!(rep.drop, Some((r1, DropReason::SourceRouteRefused)));
        // plain traffic still flows
        let rep2 = net.send(h0, pkt(a0, a3), &mut rng);
        assert!(rep2.delivered);
    }

    #[test]
    fn qos_policy_scales_latency() {
        let (mut net, h0, r1, _r2, _h3, a0, a3) = line();
        net.set_qos(r1, QosPolicy::tos_based(4, 0.5));
        let mut rng = SimRng::seed_from_u64(1);
        let slow = net.send(h0, pkt(a0, a3), &mut rng).latency;
        let fast = net.send(h0, pkt(a0, a3).with_tos(5), &mut rng).latency;
        assert!(fast < slow, "premium {fast} should beat best-effort {slow}");
    }

    #[test]
    fn total_fib_entries_counts_routers_only() {
        let (net, _, _, _, _, _, _) = line();
        // r1 has 2 entries, r2 has 2; hosts don't count.
        assert_eq!(net.total_fib_entries(), 4);
    }

    #[test]
    fn node_for_address() {
        let (net, h0, _, _, _, a0, _) = line();
        assert_eq!(net.node_for_address(a0), Some(h0));
        assert_eq!(net.node_for_address(addr(0x77000000)), None);
    }

    #[test]
    fn every_topology_mutation_bumps_the_generation() {
        let mut net = Network::new();
        let g0 = net.generation();
        let a = net.add_router(Asn(1));
        let b = net.add_router(Asn(1));
        let lid = net.connect(a, b, SimTime::from_millis(1), 1_000_000);
        let g1 = net.generation();
        assert_ne!(g0, g1, "connect must bump");
        net.set_link_up(lid, false);
        let g2 = net.generation();
        assert_ne!(g1, g2, "set_link_up must bump");
        net.crash_node(a);
        let g3 = net.generation();
        assert_ne!(g2, g3, "crash_node must bump");
        net.restore_node(a);
        let g4 = net.generation();
        assert_ne!(g3, g4, "restore_node must bump");
        net.link_mut(lid).up = true;
        let g5 = net.generation();
        assert_ne!(g4, g5, "link_mut must bump (caller may flip state)");
        net.fib_mut(a).install(Prefix::DEFAULT, b, 0);
        assert_ne!(g5, net.generation(), "fib_mut must bump");
    }

    #[test]
    fn middlebox_config_mutations_bump_the_generation() {
        // Firewall and QoS installs change what a node does to traffic, so
        // the next-hop cache's generation stamp must advance — a stale
        // cached route could otherwise thread packets through a box whose
        // policy changed underneath it.
        let mut net = Network::new();
        let a = net.add_router(Asn(1));
        let b = net.add_router(Asn(1));
        net.connect(a, b, SimTime::from_millis(1), 1_000_000);
        let g0 = net.generation();
        net.set_firewall(a, Firewall::port_allowlist(vec![ports::HTTP], "op"));
        let g1 = net.generation();
        assert_ne!(g0, g1, "set_firewall must bump");
        net.clear_firewall(a);
        let g2 = net.generation();
        assert_ne!(g1, g2, "clear_firewall must bump");
        net.set_qos(b, QosPolicy::tos_based(4, 0.5));
        let g3 = net.generation();
        assert_ne!(g2, g3, "set_qos must bump");

        // NAT, tunnels and wiretaps are packet-level transforms that hold
        // no state on the Network, so plain packet operations through them
        // must NOT churn the generation (that would thrash the route memo).
        let before = net.generation();
        let mut nat = crate::nat::Nat::new(addr(0x0b000000));
        let inner =
            Packet::new(addr(0x0a010000), addr(0x0d010000), Protocol::Tcp, 40_000, ports::HTTP);
        let out = nat.outbound(inner.clone());
        let _ = nat.inbound(out.clone());
        let outer = crate::tunnel::encapsulate(&inner, addr(0x0a010000), addr(0x0c000000));
        let _ = crate::tunnel::decapsulate(&outer, &inner);
        let mut tap = crate::wiretap::Wiretap::new();
        tap.observe(&inner);
        assert_eq!(net.generation(), before, "packet-level ops must not bump");
    }

    #[test]
    fn cached_route_does_not_survive_a_link_flap() {
        // diamond: a-b-d and a-c-d; b has the lower id so BFS prefers it.
        let mut net = Network::new();
        let a = net.add_router(Asn(1));
        let b = net.add_router(Asn(1));
        let c = net.add_router(Asn(1));
        let d = net.add_router(Asn(1));
        let ab = net.connect(a, b, SimTime::from_millis(1), 1_000_000);
        net.connect(a, c, SimTime::from_millis(1), 1_000_000);
        net.connect(b, d, SimTime::from_millis(1), 1_000_000);
        net.connect(c, d, SimTime::from_millis(1), 1_000_000);
        assert_eq!(net.next_hop_toward(a, d), Some(b));
        // Warm cache points at b; the flap must invalidate it.
        net.set_link_up(ab, false);
        assert_eq!(net.next_hop_toward(a, d), Some(c));
        net.set_link_up(ab, true);
        assert_eq!(net.next_hop_toward(a, d), Some(b));
    }

    #[test]
    fn cached_and_uncached_next_hops_agree() {
        let (net, h0, r1, r2, h3, _, _) = line();
        let mut uncached = line().0;
        uncached.set_route_caching(false);
        for &from in &[h0, r1, r2, h3] {
            for &to in &[h0, r1, r2, h3] {
                // Query twice so the second cached answer is a memo hit.
                assert_eq!(net.next_hop_toward(from, to), uncached.next_hop_toward(from, to));
                assert_eq!(net.next_hop_toward(from, to), uncached.next_hop_toward(from, to));
            }
        }
    }

    #[test]
    fn link_between_prefers_the_first_up_parallel_link() {
        let mut net = Network::new();
        let a = net.add_router(Asn(1));
        let b = net.add_router(Asn(1));
        let l0 = net.connect(a, b, SimTime::from_millis(1), 1_000_000);
        let l1 = net.connect(a, b, SimTime::from_millis(2), 1_000_000);
        assert_eq!(net.link_between(a, b).unwrap().id, l0);
        assert_eq!(net.link_between(b, a).unwrap().id, l0);
        net.set_link_up(l0, false);
        assert_eq!(net.link_between(a, b).unwrap().id, l1);
        net.set_link_up(l1, false);
        assert!(net.link_between(a, b).is_none());
        assert!(net.link_between(a, a).is_none());
    }

    #[test]
    fn default_networks_deliver_like_new_ones() {
        let send = |net: Network| {
            let (mut net, h0, _, _, _, a0, a3) = line_on(net);
            net.send(h0, pkt(a0, a3), &mut SimRng::seed_from_u64(1))
        };
        let rep = send(Network::new());
        assert!(rep.delivered);
        assert_eq!(send(Network::default()), rep);
    }

    #[test]
    fn new_networks_take_route_caching_from_the_scope() {
        assert!(Network::new().route_cache_enabled, "caching is on outside any scope");
        let off =
            tussle_sim::obs::Settings { route_cache: false, ..tussle_sim::ObsMode::Cost.into() };
        let scope = tussle_sim::obs::begin(off);
        assert!(!Network::new().route_cache_enabled);
        drop(scope);
        assert!(Network::new().route_cache_enabled, "the scope's setting ends with it");
    }

    #[test]
    fn link_then_ambient_faults_keep_their_draw_order() {
        // Pinned before the link and ambient fault checks shared one loop:
        // lossy, corrupting links under intensity 0.6, where a link
        // corruption followed by an ambient drop must report both.
        let (mut net, h0, _r1, _r2, _h3, a0, a3) = line();
        for l in 0..net.links().len() {
            let id = net.links()[l].id;
            net.link_mut(id).faults = FaultInjector::lossy(0.1, 0.3);
        }
        let chaos =
            tussle_sim::obs::Settings { intensity: 0.6, ..tussle_sim::ObsMode::Cost.into() };
        let scope = tussle_sim::obs::begin(chaos);
        let mut rng = SimRng::seed_from_u64(7);
        let mut h = Fnv1a::new();
        let mut corrupted_and_lost = 0;
        for _ in 0..400 {
            let rep = net.send(h0, pkt(a0, a3), &mut rng);
            corrupted_and_lost += usize::from(rep.corrupted && rep.drop.is_some());
            h.write_str(&format!("{:?}", (rep.delivered, rep.drop, rep.corrupted, rep.path.len())));
        }
        let stats = scope.finish().ambient_faults;
        assert_eq!(format!("{:016x}", h.finish()), "111a3db1bead6e2b");
        assert_eq!(
            (stats.passed, stats.dropped, stats.corrupted, stats.rate_limited),
            (666, 132, 40, 0)
        );
        assert_eq!(corrupted_and_lost, 93);
        assert_eq!(rng.range(0u64..1_000_000), 955_405, "the rng stream is where it was");
    }

    #[test]
    fn state_digest_ignores_cache_warmth_but_sees_topology() {
        let (mut net, h0, _r1, r2, h3, _, _) = line();
        let d0 = net.state_digest();
        // Warming the route memo and bumping the generation are invisible:
        // both are derived bookkeeping, not logical state.
        assert!(net.next_hop_toward(h0, h3).is_some());
        let (gen, first) = (net.generation(), net.links()[0].id);
        net.link_mut(first);
        assert!(net.generation() > gen);
        assert_eq!(net.state_digest(), d0);
        // A link flap is real state — and flapping back restores the
        // digest exactly (the queue was empty, so the reset is a no-op).
        let lid = net.links()[1].id;
        net.set_link_up(lid, false);
        assert_ne!(net.state_digest(), d0);
        net.set_link_up(lid, true);
        assert_eq!(net.state_digest(), d0);
        // Routing and middlebox state are real too.
        net.fib_mut(r2).install(Prefix::new(0x0c000000, 16), h3, 0);
        let d_fib = net.state_digest();
        assert_ne!(d_fib, d0);
        net.set_firewall(r2, Firewall::port_allowlist(vec![ports::SMTP], "mb"));
        assert_ne!(net.state_digest(), d_fib);
    }

    #[test]
    fn link_flap_clears_accrued_queue_state() {
        // 3200 bps link: a 40-byte packet serializes in 100ms. Four sends
        // at t=0 leave the transmitter busy until 400ms.
        let mut net = Network::new();
        let h0 = net.add_host(Asn(1));
        let h1 = net.add_host(Asn(2));
        let lid = net.connect(h0, h1, SimTime::from_millis(1), 3_200);
        net.link_mut(lid).queue_delay_cap = Some(SimTime::from_millis(350));
        let a0 = addr(0x0a010000);
        let a1 = addr(0x0d010000);
        net.node_mut(h0).bind(a0);
        net.node_mut(h1).bind(a1);
        net.fib_mut(h0).install(Prefix::DEFAULT, h1, 0);
        let mut rng = SimRng::seed_from_u64(1);
        let big = Packet::new(a0, a1, Protocol::Tcp, 1000, ports::HTTP);
        for _ in 0..4 {
            assert!(net.send(h0, big.clone(), &mut rng).delivered);
        }
        // Flap the link. Without the queue reset the next packet would see
        // 400ms of pre-outage queueing and die on the 350ms cap.
        net.set_link_up(lid, false);
        net.set_link_up(lid, true);
        let rep = net.send(h0, big.clone(), &mut rng);
        assert!(rep.delivered, "post-restore packet hit stale queue state: {:?}", rep.drop);
        assert_eq!(rep.latency, SimTime::from_millis(101), "expected an empty queue after flap");
    }

    #[test]
    fn decimal_renders_like_to_string() {
        for v in [0, 7, 10, 99, 100, 184_549_377, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(Decimal::new(v).as_str(), v.to_string());
        }
    }
}
