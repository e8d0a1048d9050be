//! Coverage-guided tussle-space fuzzer with cross-layer invariant oracles.
//!
//! Every other correctness harness in this repo — goldens, the
//! determinism matrix, the recovery oracle, the fast-path equivalence
//! property — checks hand-written scenarios one subsystem at a time. The
//! paper's claim, though, is that tussles play out in the *interactions*:
//! routing meets pricing meets policy meets middleboxes. This module
//! explores that composed space mechanically:
//!
//! * a seeded **scenario generator** composes a random topology
//!   ([`tussle_net::Network::scale_topology`]), a traffic matrix, a
//!   [`FaultPlan`], firewall/QoS/NAT/tunnel/wiretap configuration,
//!   contract and payment setup, and policy snippets into one runnable
//!   [`Scenario`];
//! * a registry of **invariant oracles** ([`ORACLES`]) checks every run:
//!   packet conservation, money conservation, route validity of traversed
//!   paths, plus sampled rerun-determinism, route-cache equivalence and
//!   checkpoint/crash/resume equivalence;
//! * a **coverage map** of `(topic, depth)` cells harvested from the
//!   Profile-mode observation record steers the mutation loop toward
//!   scenarios that light up new cells;
//! * a **delta-debugging shrinker** ([`shrink`]) minimizes any violating
//!   scenario to a smallest repro, serialized as a [`CorpusEntry`] with a
//!   stable schema into `tests/corpus/`.
//!
//! ## Determinism
//!
//! Everything is derived from `SimRng` forks of the chain seed; there is
//! no wall-clock anywhere in a scenario, an outcome, or the report. Chains
//! run as jobs on the job grid ([`crate::grid`], the `sweep` execution
//! model): which thread runs a chain varies, but results come back in job
//! order and the reduction walks chains in seed order, so the rendered
//! report is byte-identical across `--threads 1/2/8` and across repeated
//! runs.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use tussle_econ::{AccountId, Instrument, Ledger, Money, PeeringContract, TransitContract};
use tussle_econ::{Consumer, Market, Provider};
use tussle_net::packet::ports;
use tussle_net::tunnel::{decapsulate, encapsulate, TunnelDetector};
use tussle_net::{build_engine, schedule_plan, Asn, Firewall, Flow, Nat, Network};
use tussle_net::{Cache, Packet, Protocol, QosPolicy, RetryPolicy, ScaleTopology, Wiretap};
use tussle_policy::{parse_expr, Ontology, Request};
use tussle_sim::{obs, Engine, FaultPlan, Fnv1a, RunBudget, RunDigest, SimRng, SimTime};

/// The invariant-oracle registry: `(id, what a pass guarantees)`.
///
/// The first three run on **every** scenario; the last three are expensive
/// (they re-execute the scenario) and run on a seeded sample. All six are
/// active in any campaign whose budget covers the sampling stride.
pub const ORACLES: &[(&str, &str)] = &[
    (
        "packet-conservation",
        "delivered + dropped == injected + retried for every flow; taps and caches account every packet they observe",
    ),
    ("route-validity", "every link on a traversed path was up when the packet crossed it"),
    ("money-conservation", "ledger balances always sum to the minted total"),
    (
        "nat-roundtrip",
        "every NAT binding and tunnel encapsulation translates back to the original inner flow",
    ),
    ("policy-eval", "generated policy snippets parse and evaluate deterministically"),
    ("rerun-determinism", "re-running a scenario reproduces its digest byte-for-byte"),
    ("cache-equivalence", "route cache on/off runs are digest-identical"),
    ("checkpoint-resume", "crash at an event boundary + restore equals the uninterrupted run"),
];

/// Hard ceiling on engine events per scenario run — a runaway-scenario
/// backstop far above anything the generator's clamps can produce.
const MAX_EVENTS: u64 = 250_000;

/// Sampling strides for the expensive re-execution oracles, keyed off the
/// in-chain iteration index so every chain exercises each of them.
const RERUN_STRIDE: u64 = 5;
const CACHE_STRIDE: u64 = 7;
const CHECKPOINT_STRIDE: u64 = 9;

// ---------------------------------------------------------------------------
// Scenario model
// ---------------------------------------------------------------------------

/// One composable ingredient of a scenario. All fields are scalars so the
/// shrinker can drop elements freely and the corpus schema stays stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Element {
    /// A periodic flow between two hosts (indices taken modulo host count).
    Traffic {
        /// Source host index.
        from: u32,
        /// Destination host index.
        to: u32,
        /// Packets to send (clamped to 1..=12).
        packets: u32,
        /// Inter-packet interval in microseconds (clamped to 1ms..=50ms).
        interval_us: u64,
        /// Uniform jitter per interval, microseconds.
        jitter_us: u64,
        /// Transient-drop retries (0 = fire and forget; clamped to 0..=4).
        retries: u32,
        /// Type-of-service byte on every packet.
        tos: u8,
        /// Destination port.
        port: u16,
    },
    /// One link flap (down, then back up) scripted on the fault plan.
    LinkFlap {
        /// Link index (modulo link count).
        link: u32,
        /// When the link goes down, microseconds.
        down_at_us: u64,
        /// Outage length, microseconds.
        down_for_us: u64,
    },
    /// One node crash/restore window scripted on the fault plan.
    NodeOutage {
        /// Node index (modulo node count).
        node: u32,
        /// Crash time, microseconds.
        at_us: u64,
        /// Outage length, microseconds.
        for_us: u64,
    },
    /// Intensity-scaled fault injectors + random flaps on every link.
    LinkFaults {
        /// Intensity in percent (clamped to 0..=60).
        intensity_pct: u8,
    },
    /// A port-allowlist firewall on one edge router.
    Firewall {
        /// Edge router index (modulo edge count).
        edge: u32,
        /// The single port allowed through.
        allow_port: u16,
    },
    /// A ToS-based QoS policy on one edge router.
    Qos {
        /// Edge router index (modulo edge count).
        edge: u32,
        /// ToS value at or above which traffic rides premium.
        tos_threshold: u8,
        /// Premium advantage in tenths: the premium delay factor is
        /// `1.0 - tenths/10` (3 => premium rides at 0.7x the queue delay).
        speedup_tenths: u8,
    },
    /// A NAT multiplexing inner hosts behind one external address.
    Nat {
        /// Inner flows to bind (clamped to 1..=16).
        flows: u32,
    },
    /// A transit contract settled once through the ledger.
    Transit {
        /// Customer edge index (modulo edge count).
        customer: u32,
        /// Provider edge index (modulo edge count).
        provider: u32,
        /// Price per megabyte, cents.
        per_mb_cents: u32,
        /// Fixed monthly commitment, cents.
        monthly_cents: u32,
        /// Megabytes carried this period.
        megabytes: u32,
    },
    /// A peering contract settled once through the ledger.
    Peering {
        /// One peer's edge index.
        a: u32,
        /// The other peer's edge index.
        b: u32,
        /// Ratio cap in tenths (15 => 1.5); clamped to >= 10.
        max_ratio_tenths: u8,
        /// Overage price per megabyte, cents.
        overage_cents: u32,
        /// Traffic a -> b, megabytes.
        a_to_b: u32,
        /// Traffic b -> a, megabytes.
        b_to_a: u32,
    },
    /// One consumer payment routed through a payment instrument.
    Payment {
        /// Amount, cents.
        amount_cents: u32,
        /// Instrument selector (modulo the three instruments).
        instrument: u8,
    },
    /// A retail market simulated for a few months.
    MarketRound {
        /// Consumer count (clamped to 2..=12).
        consumers: u8,
        /// Provider count (clamped to 1..=3).
        providers: u8,
        /// Months to run (clamped to 1..=6).
        months: u8,
    },
    /// Tunneled flows: the §V.A.2 port-disguise counter-mechanism, checked
    /// as encapsulate/decapsulate roundtrips plus a provider-side detector.
    Tunnel {
        /// Inner flows to wrap (clamped to 1..=12).
        flows: u32,
        /// Detector true-positive rate, percent (clamped to 100).
        detect_tp_pct: u8,
        /// Detector false-positive rate, percent (clamped to 100).
        detect_fp_pct: u8,
    },
    /// A wiretap + cache observation point fed a cleartext/encrypted mix.
    Wiretap {
        /// Packets observed (clamped to 1..=24).
        packets: u32,
        /// Share of the stream that is encrypted, percent (clamped to 100).
        encrypted_pct: u8,
    },
    /// A policy snippet parsed and evaluated against a connection request.
    Policy {
        /// Snippet template selector.
        template: u8,
        /// Port literal substituted into the snippet.
        port: u16,
        /// ToS threshold substituted into the snippet.
        threshold: u8,
    },
}

/// One runnable point in tussle space: a topology recipe plus elements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Engine seed (flow jitter, fault draws, probe placement).
    pub seed: u64,
    /// Topology seed for [`Network::scale_topology`].
    pub topo_seed: u64,
    /// Node budget (clamped to 12..=40 when built).
    pub nodes: u32,
    /// Core/edge connectivity degree (clamped to 1..=3 when built).
    pub degree: u32,
    /// The composed ingredients, applied in order.
    pub elements: Vec<Element>,
}

impl Scenario {
    fn nodes_clamped(&self) -> usize {
        self.nodes.clamp(12, 40) as usize
    }

    fn degree_clamped(&self) -> usize {
        self.degree.clamp(1, 3) as usize
    }

    /// A short stable content hash, used for corpus filenames and logs.
    pub fn content_hash(&self) -> String {
        let mut h = Fnv1a::new();
        h.write_str(&serde_json::to_string(self).expect("scenarios serialize"));
        RunDigest(h.finish()).to_hex()
    }
}

/// One oracle violation: which invariant broke and how.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Oracle id from [`ORACLES`].
    pub oracle: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &str, detail: impl Into<String>) -> Self {
        Violation { oracle: oracle.to_owned(), detail: detail.into() }
    }
}

/// What one scenario execution produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Folded digest of the engine run + observation record.
    pub digest: String,
    /// Digest of the engine half alone (route cache on): what
    /// `cache-equivalence` compares against a cache-off run.
    pub engine_digest: RunDigest,
    /// Coverage cells (`topic@depth`) the run lit up.
    pub coverage: BTreeSet<String>,
    /// Oracle violations, if any.
    pub violations: Vec<Violation>,
    /// Packets delivered across all flows.
    pub delivered: u64,
    /// Packets dropped across all flows.
    pub dropped: u64,
    /// Per-stakeholder attribution from the observation record
    /// (digest-excluded, feeds the campaign scoreboard).
    pub stakeholders: BTreeMap<String, tussle_sim::StakeholderCost>,
}

// ---------------------------------------------------------------------------
// Generation and mutation
// ---------------------------------------------------------------------------

fn gen_u64(rng: &mut SimRng) -> u64 {
    rng.range(0..u64::MAX)
}

fn gen_element(rng: &mut SimRng) -> Element {
    let port_pool = [ports::SMTP, ports::HTTP, ports::HTTPS, ports::VOIP, ports::P2P, ports::NOVEL];
    match rng.range(0..12u32) {
        0..=3 => Element::Traffic {
            // Traffic is weighted 4/12: without flows most oracles idle.
            from: rng.range(0..64u32),
            to: rng.range(0..64u32),
            packets: rng.range(1..=12u32),
            interval_us: rng.range(1_000..=50_000u64),
            jitter_us: rng.range(0..=5_000u64),
            retries: rng.range(0..=4u32),
            tos: rng.range(0..=255u32) as u8,
            port: *rng.pick(&port_pool).expect("pool is non-empty"),
        },
        4 => Element::LinkFlap {
            link: rng.range(0..128u32),
            down_at_us: rng.range(0..400_000u64),
            down_for_us: rng.range(10_000..=200_000u64),
        },
        5 => Element::NodeOutage {
            node: rng.range(0..64u32),
            at_us: rng.range(0..400_000u64),
            for_us: rng.range(10_000..=200_000u64),
        },
        6 => Element::LinkFaults { intensity_pct: rng.range(0..=60u32) as u8 },
        7 => Element::Firewall {
            edge: rng.range(0..16u32),
            allow_port: *rng.pick(&port_pool).expect("pool is non-empty"),
        },
        8 => Element::Qos {
            edge: rng.range(0..16u32),
            tos_threshold: rng.range(0..=255u32) as u8,
            speedup_tenths: rng.range(1..=9u32) as u8,
        },
        9 => match rng.range(0..6u32) {
            0 => Element::Nat { flows: rng.range(1..=16u32) },
            1 => Element::Transit {
                customer: rng.range(0..16u32),
                provider: rng.range(0..16u32),
                per_mb_cents: rng.range(0..=50u32),
                monthly_cents: rng.range(0..=20_000u32),
                megabytes: rng.range(0..=5_000u32),
            },
            2 => Element::Peering {
                a: rng.range(0..16u32),
                b: rng.range(0..16u32),
                max_ratio_tenths: rng.range(10..=30u32) as u8,
                overage_cents: rng.range(0..=50u32),
                a_to_b: rng.range(0..=5_000u32),
                b_to_a: rng.range(0..=5_000u32),
            },
            3 => Element::Payment {
                amount_cents: rng.range(1..=100_000u32),
                instrument: rng.range(0..=255u32) as u8,
            },
            4 => Element::Tunnel {
                flows: rng.range(1..=12u32),
                detect_tp_pct: rng.range(0..=100u32) as u8,
                detect_fp_pct: rng.range(0..=100u32) as u8,
            },
            _ => Element::Wiretap {
                packets: rng.range(1..=24u32),
                encrypted_pct: rng.range(0..=100u32) as u8,
            },
        },
        10 => Element::MarketRound {
            consumers: rng.range(2..=12u32) as u8,
            providers: rng.range(1..=3u32) as u8,
            months: rng.range(1..=6u32) as u8,
        },
        _ => Element::Policy {
            template: rng.range(0..=255u32) as u8,
            port: *rng.pick(&port_pool).expect("pool is non-empty"),
            threshold: rng.range(0..=255u32) as u8,
        },
    }
}

/// Generate a fresh scenario from the rng.
pub fn generate(rng: &mut SimRng) -> Scenario {
    let n = rng.range(3..=10usize);
    Scenario {
        seed: gen_u64(rng),
        topo_seed: gen_u64(rng),
        nodes: rng.range(12..=40u32),
        degree: rng.range(1..=3u32),
        elements: (0..n).map(|_| gen_element(rng)).collect(),
    }
}

/// Mutate a scenario: add, remove or replace an element, or reseed one of
/// the two seeds. Always returns a structurally valid scenario.
pub fn mutate(rng: &mut SimRng, base: &Scenario) -> Scenario {
    let mut s = base.clone();
    match rng.range(0..6u32) {
        0 => s.elements.push(gen_element(rng)),
        1 if s.elements.len() > 1 => {
            let i = rng.range(0..s.elements.len() as u32) as usize;
            s.elements.remove(i);
        }
        2 if !s.elements.is_empty() => {
            let i = rng.range(0..s.elements.len() as u32) as usize;
            s.elements[i] = gen_element(rng);
        }
        3 => s.seed = gen_u64(rng),
        4 => s.topo_seed = gen_u64(rng),
        _ => {
            s.nodes = rng.range(12..=40u32);
            s.degree = rng.range(1..=3u32);
        }
    }
    if s.elements.is_empty() {
        s.elements.push(gen_element(rng));
    }
    s
}

// ---------------------------------------------------------------------------
// Scenario execution
// ---------------------------------------------------------------------------

struct FlowSpec {
    label: String,
    count: u64,
}

struct BuiltWorld {
    engine: Engine<tussle_net::TrafficWorld>,
    flows: Vec<FlowSpec>,
    /// Route-validity violations recorded by probe events as they fire.
    probe_violations: Rc<RefCell<Vec<Violation>>>,
}

/// Build the engine half of a scenario: topology, middlebox config,
/// flows, fault plan and route-validity probes — everything that runs
/// under the simulation clock.
fn build_world(s: &Scenario, route_cache: bool) -> BuiltWorld {
    let ScaleTopology { net: mut network, edges, hosts, host_addrs, .. } =
        Network::scale_topology(s.topo_seed, s.nodes_clamped(), s.degree_clamped());
    network.set_route_caching(route_cache);

    let n_links = network.links().len() as u32;
    let n_nodes = network.nodes().len() as u32;
    let horizon = SimTime::from_micros(800_000);

    let mut plan = FaultPlan::new();
    let mut flows = Vec::new();
    let mut specs = Vec::new();

    for (idx, el) in s.elements.iter().enumerate() {
        match *el {
            Element::Traffic { from, to, packets, interval_us, jitter_us, retries, tos, port } => {
                let fi = from as usize % hosts.len();
                let mut ti = to as usize % hosts.len();
                if ti == fi {
                    ti = (ti + 1) % hosts.len();
                }
                let proto = if port == ports::VOIP { Protocol::Udp } else { Protocol::Tcp };
                let template =
                    Packet::new(host_addrs[fi], host_addrs[ti], proto, 1024, port).with_tos(tos);
                let label = format!("f{idx}");
                let count = packets.clamp(1, 12) as u64;
                let mut flow = Flow::periodic(
                    &label,
                    hosts[fi],
                    template,
                    SimTime::from_micros(interval_us.clamp(1_000, 50_000)),
                    count,
                )
                .with_jitter(jitter_us.min(5_000));
                if retries > 0 {
                    flow = flow.with_retries(RetryPolicy::backoff(retries.min(4)));
                }
                flows.push(flow);
                specs.push(FlowSpec { label, count });
            }
            Element::LinkFlap { link, down_at_us, down_for_us } => {
                let down = down_at_us.min(horizon.as_micros().saturating_sub(1));
                let up = down.saturating_add(down_for_us.clamp(1, 200_000));
                plan = plan.link_flap(
                    link % n_links.max(1),
                    SimTime::from_micros(down),
                    SimTime::from_micros(up),
                );
            }
            Element::NodeOutage { node, at_us, for_us } => {
                let at = at_us.min(horizon.as_micros().saturating_sub(1));
                let until = at.saturating_add(for_us.clamp(1, 200_000));
                plan = plan.node_outage(
                    node % n_nodes.max(1),
                    SimTime::from_micros(at),
                    SimTime::from_micros(until),
                );
            }
            Element::LinkFaults { intensity_pct } => {
                let scaled = FaultPlan::scaled(
                    f64::from(intensity_pct.min(60)) / 100.0,
                    n_links,
                    horizon,
                    s.seed ^ idx as u64,
                );
                for ev in scaled.events() {
                    plan.push(ev.at, ev.action.clone());
                }
            }
            Element::Firewall { edge, allow_port } => {
                let node = edges[edge as usize % edges.len()];
                network.set_firewall(node, Firewall::port_allowlist(vec![allow_port], "fuzz"));
            }
            Element::Qos { edge, tos_threshold, speedup_tenths } => {
                let node = edges[edge as usize % edges.len()];
                // `premium_speedup` is a delay factor in (0, 1]: tenths=9
                // means premium rides at 0.1x the best-effort queue delay.
                let speedup = 1.0 - f64::from(speedup_tenths.clamp(1, 9)) / 10.0;
                network.set_qos(node, QosPolicy::tos_based(tos_threshold, speedup));
            }
            // Ledger, market, NAT and policy elements run off-engine;
            // see `run_offline_elements`.
            _ => {}
        }
    }

    let mut engine = build_engine(network, flows, s.seed);
    schedule_plan(&mut engine, &plan);

    // Route-validity probes: engine events that send one packet and check,
    // synchronously within the event (links cannot change mid-event), that
    // every hop the packet traversed crossed an up link. The probe also
    // pins delivery truthfulness: a `delivered` report must end at a node
    // holding the destination address.
    let probe_violations: Rc<RefCell<Vec<Violation>>> = Rc::new(RefCell::new(Vec::new()));
    let mut prng = SimRng::seed_from_u64(s.seed).fork("fuzz-probes");
    for k in 0..6u32 {
        let at = SimTime::from_micros(prng.range(0..horizon.as_micros()));
        let fi = prng.range(0..hosts.len() as u32) as usize;
        let mut ti = prng.range(0..hosts.len() as u32) as usize;
        if ti == fi {
            ti = (ti + 1) % hosts.len();
        }
        let from = hosts[fi];
        let to = hosts[ti];
        let pkt = Packet::new(host_addrs[fi], host_addrs[ti], Protocol::Tcp, 2048, ports::HTTP);
        let sink = Rc::clone(&probe_violations);
        engine.schedule_at(at, move |w, ctx| {
            let rep = w.network.send_at(from, pkt, ctx.now(), ctx.rng);
            for hop in rep.path.windows(2) {
                if w.network.link_between(hop[0], hop[1]).is_none() {
                    sink.borrow_mut().push(Violation::new(
                        "route-validity",
                        format!("probe {k}: traversed a down link {:?}->{:?}", hop[0], hop[1]),
                    ));
                }
            }
            if rep.delivered && rep.path.last() != Some(&to) {
                sink.borrow_mut().push(Violation::new(
                    "route-validity",
                    format!(
                        "probe {k}: delivered but path ends at {:?}, not {to:?}",
                        rep.path.last()
                    ),
                ));
            }
        });
    }

    BuiltWorld { engine, flows: specs, probe_violations }
}

/// Run the off-engine elements: ledger settlements, payments, the retail
/// market, NAT roundtrips and policy snippets. Returns any violations.
fn run_offline_elements(s: &Scenario) -> Vec<Violation> {
    let mut violations = Vec::new();

    // One shared ledger: edge-AS accounts plus payer/payee/processor.
    let n_edges = (s.nodes_clamped() / 10).clamp(4, s.nodes_clamped() - 4);
    let accounts = |asn: Asn| AccountId(u64::from(asn.0));
    let mut ledger = Ledger::new();
    for e in 0..n_edges as u32 {
        let id = accounts(Asn(200 + e));
        ledger.open(id);
        ledger.mint(id, Money::from_dollars(1_000));
    }
    let (payer, payee, processor) = (AccountId(1), AccountId(2), AccountId(3));
    for id in [payer, payee, processor] {
        ledger.open(id);
        ledger.mint(id, Money::from_dollars(1_000));
    }
    let minted = ledger.total_minted();

    let cents = |c: u32| Money(i64::from(c) * 10_000);
    let edge_asn = |i: u32| Asn(200 + i % n_edges as u32);

    for (idx, el) in s.elements.iter().enumerate() {
        match *el {
            Element::Transit { customer, provider, per_mb_cents, monthly_cents, megabytes } => {
                let (c, p) = (edge_asn(customer), edge_asn(provider));
                if c == p {
                    continue;
                }
                let contract = TransitContract {
                    customer: c,
                    provider: p,
                    per_mb: cents(per_mb_cents),
                    monthly: cents(monthly_cents),
                };
                // An overdrawn customer is a legal market outcome, not an
                // invariant breach: the settlement is simply skipped.
                let _ = contract.settle(&mut ledger, accounts, u64::from(megabytes));
            }
            Element::Peering { a, b, max_ratio_tenths, overage_cents, a_to_b, b_to_a } => {
                let (pa, pb) = (edge_asn(a), edge_asn(b));
                if pa == pb {
                    continue;
                }
                let contract = PeeringContract {
                    a: pa,
                    b: pb,
                    max_ratio: f64::from(max_ratio_tenths.max(10)) / 10.0,
                    overage_per_mb: cents(overage_cents),
                };
                let _ =
                    contract.settle(&mut ledger, accounts, u64::from(a_to_b), u64::from(b_to_a));
            }
            Element::Payment { amount_cents, instrument } => {
                let inst =
                    [Instrument::Micropayment, Instrument::CreditCard, Instrument::Aggregator]
                        [instrument as usize % 3];
                let amount = cents(amount_cents.max(1));
                if ledger.transfer(payer, payee, amount, "fuzz payment").is_ok() {
                    let fee = inst.overhead(amount).min(ledger.balance(payee));
                    if fee.is_positive() {
                        let _ = ledger.transfer(payee, processor, fee, "fuzz payment fee");
                    }
                }
            }
            Element::MarketRound { consumers, providers, months } => {
                let mut rng = SimRng::seed_from_u64(s.seed ^ idx as u64).fork("fuzz-market");
                let consumers: Vec<Consumer> = (0..u64::from(consumers.clamp(2, 12)))
                    .map(|id| Consumer {
                        id,
                        value: Money::from_dollars(rng.range(20..=80i64)),
                        usage_mb: rng.range(100..5_000u64),
                        runs_server: rng.chance(0.2),
                        tunnels: rng.chance(0.3),
                        switching_cost: Money::from_dollars(rng.range(0..=40i64)),
                        provider: None,
                    })
                    .collect();
                let n_consumers = consumers.len();
                let providers: Vec<Provider> = (0..providers.clamp(1, 3))
                    .map(|p| {
                        Provider::flat(
                            &format!("isp{p}"),
                            Money::from_dollars(rng.range(20..=60i64)),
                            Money::from_dollars(rng.range(5..=15i64)),
                        )
                    })
                    .collect();
                let report = Market::new(consumers, providers).run(months.clamp(1, 6) as usize);
                if report.served > n_consumers {
                    violations.push(Violation::new(
                        "money-conservation",
                        format!("market served {} of {} consumers", report.served, n_consumers),
                    ));
                }
            }
            Element::Nat { flows } => {
                let external = tussle_net::Address::in_prefix(
                    tussle_net::Prefix::new(0xc0000000, 16),
                    1,
                    tussle_net::addr::AddressOrigin::ProviderAssigned(Asn(999)),
                );
                let remote = tussle_net::Address::in_prefix(
                    tussle_net::Prefix::new(0xd0000000, 16),
                    1,
                    tussle_net::addr::AddressOrigin::ProviderIndependent,
                );
                let mut nat = Nat::new(external);
                for f in 0..flows.clamp(1, 16) {
                    let inner = tussle_net::Address::in_prefix(
                        tussle_net::Prefix::new(0x0a000000, 16),
                        f + 1,
                        tussle_net::addr::AddressOrigin::ProviderIndependent,
                    );
                    let inner_port = 3_000 + f as u16;
                    let out = nat.outbound(Packet::new(
                        inner,
                        remote,
                        Protocol::Tcp,
                        inner_port,
                        ports::HTTP,
                    ));
                    if out.src != external {
                        violations.push(Violation::new(
                            "nat-roundtrip",
                            format!(
                                "flow {f}: outbound source {:?} is not the external addr",
                                out.src
                            ),
                        ));
                        continue;
                    }
                    // The remote's reply comes back to the external port.
                    let reply =
                        Packet::new(remote, external, Protocol::Tcp, ports::HTTP, out.src_port);
                    match nat.inbound(reply) {
                        Some(back) if back.dst == inner && back.dst_port == inner_port => {}
                        Some(back) => violations.push(Violation::new(
                            "nat-roundtrip",
                            format!(
                                "flow {f}: reply translated to {:?}:{} instead of {:?}:{inner_port}",
                                back.dst, back.dst_port, inner
                            ),
                        )),
                        None => violations.push(Violation::new(
                            "nat-roundtrip",
                            format!("flow {f}: reply to a live binding was dropped"),
                        )),
                    }
                }
                if nat.active_bindings() > flows.clamp(1, 16) as usize {
                    violations.push(Violation::new(
                        "nat-roundtrip",
                        format!("{} bindings for {} flows", nat.active_bindings(), flows),
                    ));
                }
            }
            Element::Tunnel { flows, detect_tp_pct, detect_fp_pct } => {
                let addr = |prefix: u32, host: u32| {
                    tussle_net::Address::in_prefix(
                        tussle_net::Prefix::new(prefix, 16),
                        host,
                        tussle_net::addr::AddressOrigin::ProviderIndependent,
                    )
                };
                let endpoint = addr(0xc0000000, 1);
                let mut rng = SimRng::seed_from_u64(s.seed ^ idx as u64).fork("fuzz-tunnel");
                // Perfect detection is deterministic whatever the rng says;
                // the scenario's tuned rates exercise the probabilistic path.
                let sharp = TunnelDetector::new(1.0, 0.0);
                let tuned = TunnelDetector::new(
                    f64::from(detect_tp_pct.min(100)) / 100.0,
                    f64::from(detect_fp_pct.min(100)) / 100.0,
                );
                let n = flows.clamp(1, 12);
                let mut flagged = 0u32;
                for f in 0..n {
                    let src = addr(0x0a000000, f + 2);
                    let inner =
                        Packet::new(src, addr(0x0b000000, 1), Protocol::Tcp, 4_000, ports::P2P);
                    let outer = encapsulate(&inner, src, endpoint);
                    if outer.visible_dst_port() == Some(ports::P2P) {
                        violations.push(Violation::new(
                            "nat-roundtrip",
                            format!("tunnel flow {f}: outer header leaks the inner port"),
                        ));
                    }
                    match decapsulate(&outer, &inner) {
                        Some(back) if back.dst == inner.dst && back.dst_port == inner.dst_port => {}
                        Some(back) => violations.push(Violation::new(
                            "nat-roundtrip",
                            format!(
                                "tunnel flow {f}: decapsulated to {:?}:{} instead of {:?}:{}",
                                back.dst, back.dst_port, inner.dst, inner.dst_port
                            ),
                        )),
                        None => violations.push(Violation::new(
                            "nat-roundtrip",
                            format!("tunnel flow {f}: decapsulation rejected its own wrapper"),
                        )),
                    }
                    if decapsulate(&inner, &inner).is_some() {
                        violations.push(Violation::new(
                            "nat-roundtrip",
                            format!("tunnel flow {f}: a bare packet decapsulated as a tunnel"),
                        ));
                    }
                    if !sharp.flags(&outer, &mut rng) || sharp.flags(&inner, &mut rng) {
                        violations.push(Violation::new(
                            "nat-roundtrip",
                            format!("tunnel flow {f}: the perfect detector misclassified"),
                        ));
                    }
                    if tuned.flags(&outer, &mut rng) {
                        flagged += 1;
                    }
                }
                if flagged > n {
                    violations.push(Violation::new(
                        "nat-roundtrip",
                        format!("{flagged} detector flags for {n} tunneled flows"),
                    ));
                }
            }
            Element::Wiretap { packets, encrypted_pct } => {
                let addr = |prefix: u32, host: u32| {
                    tussle_net::Address::in_prefix(
                        tussle_net::Prefix::new(prefix, 16),
                        host,
                        tussle_net::addr::AddressOrigin::ProviderIndependent,
                    )
                };
                let n = packets.clamp(1, 24);
                let pct = u64::from(encrypted_pct.min(100));
                let mut tap = Wiretap::new();
                let mut cache = Cache::new();
                let mut cleartext = 0u64;
                for i in 0..n {
                    let pkt = Packet::new(
                        addr(0x0a000000, 1 + i % 3),
                        addr(0x0b000000, 1 + i % 4),
                        Protocol::Tcp,
                        5_000 + i as u16,
                        ports::HTTP,
                    );
                    // The first ceil(pct% of n) packets ride encrypted — a
                    // deterministic mix with the requested share.
                    let pkt = if u64::from(i) * 100 < pct * u64::from(n) {
                        pkt.encrypt()
                    } else {
                        cleartext += 1;
                        pkt
                    };
                    tap.observe(&pkt);
                    cache.handle(&pkt);
                }
                if tap.records().len() != n as usize {
                    violations.push(Violation::new(
                        "packet-conservation",
                        format!("tap recorded {} of {n} observed packets", tap.records().len()),
                    ));
                }
                let readable = tap.records().iter().filter(|r| r.content_readable).count() as u64;
                if readable != cleartext {
                    violations.push(Violation::new(
                        "packet-conservation",
                        format!("tap read {readable} of {cleartext} cleartext packets"),
                    ));
                }
                if tap.records().iter().any(|r| {
                    !r.content_readable && (r.content_bytes != 0 || r.visible_port.is_some())
                }) {
                    violations.push(Violation::new(
                        "packet-conservation",
                        "an encrypted capture leaked content bytes or a port",
                    ));
                }
                let yield_expected = cleartext as f64 / f64::from(n);
                if (tap.content_yield() - yield_expected).abs() > 1e-9 {
                    violations.push(Violation::new(
                        "packet-conservation",
                        format!(
                            "content yield {} != readable share {yield_expected}",
                            tap.content_yield()
                        ),
                    ));
                }
                if tap.flow_pairs() == 0 || tap.flow_pairs() > n as usize {
                    violations.push(Violation::new(
                        "packet-conservation",
                        format!("{} flow pairs from {n} captures", tap.flow_pairs()),
                    ));
                }
                if cache.hits + cache.misses + cache.opaque != u64::from(n) {
                    violations.push(Violation::new(
                        "packet-conservation",
                        format!(
                            "cache accounted {} of {n} requests",
                            cache.hits + cache.misses + cache.opaque
                        ),
                    ));
                }
                if cache.opaque != u64::from(n) - cleartext {
                    violations.push(Violation::new(
                        "packet-conservation",
                        format!(
                            "{} opaque requests for {} encrypted packets",
                            cache.opaque,
                            u64::from(n) - cleartext
                        ),
                    ));
                }
                if !(0.0..=1.0).contains(&cache.hit_rate()) {
                    violations.push(Violation::new(
                        "packet-conservation",
                        format!("cache hit rate {} outside [0,1]", cache.hit_rate()),
                    ));
                }
            }
            Element::Policy { template, port, threshold } => {
                let snippet = match template % 4 {
                    0 => format!("dst_port == {port}"),
                    1 => format!("tos >= {threshold}"),
                    2 => format!("dst_port == {port} && tos >= {threshold}"),
                    _ => format!("dst_port in [25, 80, {port}] || tos >= {threshold}"),
                };
                match parse_expr(&snippet) {
                    Err(e) => violations.push(Violation::new(
                        "policy-eval",
                        format!("generated snippet `{snippet}` failed to parse: {e:?}"),
                    )),
                    Ok(expr) => {
                        let ont = Ontology::network();
                        let req = Request::new()
                            .with("dst_port", i64::from(port))
                            .with("tos", i64::from(threshold));
                        let first = expr.matches(&req, &ont);
                        let second = expr.matches(&req, &ont);
                        match (&first, &second) {
                            (Ok(a), Ok(b)) if a == b => {}
                            (Ok(_), Ok(_)) => violations.push(Violation::new(
                                "policy-eval",
                                format!("`{snippet}` evaluated differently twice"),
                            )),
                            _ => violations.push(Violation::new(
                                "policy-eval",
                                format!("`{snippet}` failed to evaluate: {first:?}"),
                            )),
                        }
                    }
                }
            }
            _ => {}
        }
    }

    if !ledger.is_conserving() || ledger.total_minted() != minted {
        violations.push(Violation::new(
            "money-conservation",
            format!(
                "ledger no longer conserves: minted {:?} -> {:?}",
                minted,
                ledger.total_minted()
            ),
        ));
    }
    violations
}

/// Run the engine half (topology, flows, faults and probes) with the route
/// cache on or off and return the engine's digest. Opens no observation
/// scope: the engine digest covers only the engine's own trace and
/// metrics, so it reads the same under any scope the caller holds.
pub fn engine_digest(s: &Scenario, route_cache: bool) -> RunDigest {
    let mut world = build_world(s, route_cache);
    world.engine.run_budgeted(&RunBudget::events(MAX_EVENTS));
    world.engine.digest()
}

/// One execution of a scenario, before any oracle looks at it.
struct Execution {
    world: BuiltWorld,
    completed: bool,
    /// Violations from the off-engine elements.
    offline: Vec<Violation>,
    engine_digest: RunDigest,
    record: obs::RunRecord,
    /// The engine digest folded with the observation record's digest.
    digest: String,
}

/// Run the engine half with the route cache on, then the off-engine
/// elements, inside one observation scope of `mode`, and fold the digest.
/// The digest does not depend on the mode: Profile adds only the ring,
/// topics, provenance and wall time to the record, none of them hashed.
fn execute(s: &Scenario, mode: obs::ObsMode) -> Execution {
    let guard = obs::begin(mode);
    let mut world = build_world(s, true);
    let report = world.engine.run_budgeted(&RunBudget::events(MAX_EVENTS));
    let completed = report.outcome.completed();
    let engine_digest = world.engine.digest();
    let offline = run_offline_elements(s);
    let record = guard.finish();
    let mut h = Fnv1a::new();
    h.write_str(&engine_digest.to_hex());
    h.write_str(&record.digest.to_hex());
    let digest = RunDigest(h.finish()).to_hex();
    Execution { world, completed, offline, engine_digest, record, digest }
}

/// Execute one scenario under a Profile observation scope and check the
/// always-on oracles. Deterministic in the scenario alone.
pub fn run_scenario(s: &Scenario) -> ScenarioOutcome {
    let Execution { world, completed, offline, engine_digest, record, digest } =
        execute(s, obs::ObsMode::Profile);

    let mut violations = world.probe_violations.borrow().clone();
    let mut delivered_total = 0u64;
    let mut dropped_total = 0u64;
    let metrics = world.engine.metrics();
    for spec in &world.flows {
        let delivered = metrics.counter(&format!("flow.{}.delivered", spec.label));
        let dropped = metrics.counter(&format!("flow.{}.dropped", spec.label));
        let retried = metrics.counter(&format!("flow.{}.retried", spec.label));
        delivered_total += delivered;
        dropped_total += dropped;
        let attempts = delivered + dropped;
        let injected = spec.count + retried;
        // Completed runs balance exactly; a budget-halted run may hold
        // packets in flight, so attempts can only fall short, never exceed.
        let conserves = if completed { attempts == injected } else { attempts <= injected };
        if !conserves {
            violations.push(Violation::new(
                "packet-conservation",
                format!(
                    "flow {}: delivered {delivered} + dropped {dropped} != sent {} + retried {retried} (completed: {completed})",
                    spec.label, spec.count
                ),
            ));
        }
    }
    violations.extend(offline);

    // Counter-derived coverage: which delivery outcomes this scenario
    // reached, with flow labels stripped so cells compare across
    // scenarios ("drop@LinkLoss", not "flow.f3.drop.LinkLoss").
    let mut coverage = BTreeSet::new();
    for (key, n) in metrics.counters() {
        if n == 0 {
            continue;
        }
        if let Some(rest) = key.strip_prefix("flow.") {
            if let Some((_, outcome)) = rest.split_once('.') {
                let cell = match outcome.split_once('.') {
                    Some((kind, detail)) => format!("{kind}@{detail}"),
                    None => format!("flow@{outcome}"),
                };
                coverage.insert(cell);
            }
        }
    }

    // Observation-derived coverage: topics seen and (topic, depth) span
    // shapes from the Profile log, each distinct shape formatted once.
    for topic in record.topics.keys() {
        coverage.insert(format!("{topic}@*"));
    }
    let shapes: BTreeSet<(&str, u32)> =
        record.ring.iter().map(|entry| (entry.topic, entry.depth)).collect();
    for (topic, depth) in shapes {
        coverage.insert(format!("{topic}@{depth}"));
    }

    ScenarioOutcome {
        digest,
        engine_digest,
        coverage,
        violations,
        delivered: delivered_total,
        dropped: dropped_total,
        stakeholders: record.stakeholders,
    }
}

// ---------------------------------------------------------------------------
// Sampled re-execution oracles
// ---------------------------------------------------------------------------

/// `rerun-determinism` against a run already made: one Cost-scope rerun
/// must reproduce `digest`, the folded digest of [`run_scenario`].
fn rerun_determinism(s: &Scenario, digest: &str) -> Option<Violation> {
    let rerun = execute(s, obs::ObsMode::Cost).digest;
    (rerun != digest).then(|| {
        Violation::new(
            "rerun-determinism",
            format!("digest {digest} vs {rerun} across identical reruns"),
        )
    })
}

/// `cache-equivalence` against a run already made: one cache-off engine
/// run must reproduce `cache_on`, the engine digest of a cache-on run.
fn cache_equivalence(s: &Scenario, cache_on: RunDigest) -> Option<Violation> {
    let cache_off = engine_digest(s, false);
    (cache_on != cache_off).then(|| {
        Violation::new(
            "cache-equivalence",
            format!("route cache on/off digests diverge: {cache_on} vs {cache_off}"),
        )
    })
}

/// Run the scenario, then rerun it and compare digests
/// (`rerun-determinism`). A campaign checks the run it already holds.
pub fn check_rerun_determinism(s: &Scenario) -> Option<Violation> {
    rerun_determinism(s, &run_scenario(s).digest)
}

/// Run the engine half with the route cache on and off; digests must
/// agree byte-for-byte (`cache-equivalence`). A campaign checks the
/// cache-on run it already holds.
pub fn check_cache_equivalence(s: &Scenario) -> Option<Violation> {
    cache_equivalence(s, engine_digest(s, true))
}

/// Crash the engine run at an event boundary, restore from the checkpoint
/// and finish; the resumed digest must equal the uninterrupted one
/// (`checkpoint-resume`).
pub fn check_checkpoint_resume(s: &Scenario) -> Option<Violation> {
    const CUT: u64 = 40;
    let mut golden = build_world(s, true).engine;
    golden.run(CUT);
    let snapshot = golden.checkpoint();
    let mut resumed = build_world(s, true).engine;
    resumed.run(CUT);
    if let Err(e) = resumed.restore(&snapshot) {
        return Some(Violation::new(
            "checkpoint-resume",
            format!("restore at event {CUT} rejected: {e:?}"),
        ));
    }
    golden.run_budgeted(&RunBudget::events(MAX_EVENTS));
    resumed.run_budgeted(&RunBudget::events(MAX_EVENTS));
    let (g, r) = (golden.digest().to_hex(), resumed.digest().to_hex());
    (g != r).then(|| {
        Violation::new(
            "checkpoint-resume",
            format!("resumed digest {r} != uninterrupted {g} (cut at event {CUT})"),
        )
    })
}

/// Re-check one oracle on a (possibly shrunk) scenario. This is the check
/// function the shrinker drives: it must reproduce the *same* oracle's
/// violation for a candidate to count as still-failing.
pub fn check_oracle(s: &Scenario, oracle: &str) -> Option<Violation> {
    match oracle {
        "rerun-determinism" => check_rerun_determinism(s),
        "cache-equivalence" => check_cache_equivalence(s),
        "checkpoint-resume" => check_checkpoint_resume(s),
        _ => run_scenario(s).violations.into_iter().find(|v| v.oracle == oracle),
    }
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// Delta-debugging (ddmin) over a scenario's element list: find a
/// 1-minimal failing sub-scenario under `check`. `check` returns the
/// violation a candidate still exhibits, or `None` if it passes. The
/// caller must ensure `check(scenario)` is `Some`; the returned scenario
/// still fails and removing any single remaining element makes it pass.
pub fn shrink(
    scenario: &Scenario,
    check: &dyn Fn(&Scenario) -> Option<Violation>,
) -> (Scenario, Violation) {
    let mut current = scenario.clone();
    let mut violation = check(&current).expect("shrink requires a scenario that fails the check");

    let mut granularity = 2usize;
    while current.elements.len() >= 2 {
        let len = current.elements.len();
        let chunk = len.div_ceil(granularity);
        let mut reduced = false;
        for start in (0..len).step_by(chunk) {
            let end = (start + chunk).min(len);
            let mut candidate = current.clone();
            candidate.elements.drain(start..end);
            if candidate.elements.is_empty() {
                continue;
            }
            if let Some(v) = check(&candidate) {
                current = candidate;
                violation = v;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if granularity >= len {
                break;
            }
            granularity = (granularity * 2).min(len);
        }
    }
    (current, violation)
}

// ---------------------------------------------------------------------------
// Corpus entries
// ---------------------------------------------------------------------------

/// Stable on-disk schema for `tests/corpus/` entries (bump [`CORPUS_SCHEMA`]
/// on breaking change).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// Schema version; always [`CORPUS_SCHEMA`].
    pub schema: u32,
    /// `"violation"` (oracle still fires), `"regression"` (used to fire,
    /// fixed, must stay green) or `"near-miss"` (hairy but green).
    pub kind: String,
    /// The oracle involved, if any.
    pub oracle: Option<String>,
    /// Human-readable context.
    pub detail: Option<String>,
    /// The (shrunk) scenario.
    pub scenario: Scenario,
}

/// Current corpus schema version.
pub const CORPUS_SCHEMA: u32 = 1;

impl CorpusEntry {
    /// The stable filename for this entry.
    pub fn filename(&self) -> String {
        let tag = self.oracle.as_deref().unwrap_or("scenario");
        format!("{}-{tag}-{}.json", self.kind, self.scenario.content_hash())
    }
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// What to fuzz.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Total scenario-execution budget across all chains. Must be nonzero.
    pub budget: u64,
    /// Number of independent mutation chains (one per seed). Must be
    /// nonzero.
    pub seeds: u64,
    /// First chain seed.
    pub base_seed: u64,
    /// Directory to serialize findings into (`None` = don't write).
    pub corpus_dir: Option<std::path::PathBuf>,
    /// Worker-thread cap; `None` uses available parallelism.
    pub threads: Option<usize>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { budget: 200, seeds: 3, base_seed: 1, corpus_dir: None, threads: None }
    }
}

/// Why a campaign could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzError {
    /// `budget` was zero.
    NoBudget,
    /// `seeds` was zero.
    NoSeeds,
    /// Writing a corpus entry failed.
    Corpus(String),
}

impl core::fmt::Display for FuzzError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FuzzError::NoBudget => f.write_str("fuzz needs a budget of at least 1"),
            FuzzError::NoSeeds => f.write_str("fuzz needs at least one seed"),
            FuzzError::Corpus(e) => write!(f, "could not write corpus entry: {e}"),
        }
    }
}

impl std::error::Error for FuzzError {}

/// Per-oracle tallies across the campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStat {
    /// Oracle id from [`ORACLES`].
    pub oracle: String,
    /// Times this oracle ran.
    pub checks: u64,
    /// Times it fired.
    pub violations: u64,
}

/// One shrunk failing scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// The oracle that fired.
    pub oracle: String,
    /// Evidence from the shrunk repro.
    pub detail: String,
    /// Elements left after shrinking.
    pub elements: u64,
    /// The minimized scenario.
    pub scenario: Scenario,
}

/// One chain's summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainStat {
    /// Chain seed.
    pub seed: u64,
    /// Scenario executions charged to this chain's budget.
    pub executions: u64,
    /// Scenarios retained for mutation (each added new coverage).
    pub pool: u64,
    /// Coverage cells this chain lit up.
    pub coverage_cells: u64,
    /// Folded digest of every execution, in order.
    pub digest: String,
}

/// The campaign report. Fully deterministic: no wall-clock anywhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Report schema version.
    pub schema: u32,
    /// First chain seed.
    pub base_seed: u64,
    /// Number of chains.
    pub seeds: u64,
    /// Requested budget.
    pub budget: u64,
    /// Scenario executions actually charged (== budget).
    pub executions: u64,
    /// Coverage cells lit across all chains.
    pub coverage_cells: u64,
    /// Per-oracle tallies, registry order.
    pub oracles: Vec<OracleStat>,
    /// Per-chain summaries, seed order.
    pub chains: Vec<ChainStat>,
    /// Shrunk failing scenarios, discovery order.
    pub findings: Vec<Finding>,
    /// Folded digest over every chain digest — the cross-thread
    /// determinism anchor.
    pub digest: String,
    /// Per-stakeholder attribution merged across every budgeted execution
    /// (digest-excluded, like wall time; `None` when nothing was traced).
    pub scoreboard: Option<tussle_core::Scoreboard>,
}

impl FuzzReport {
    /// Render as JSON (byte-stable across runs and thread counts).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fuzz report serializes")
    }

    /// Render as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "# Fuzz campaign — {} executions over {} chains (base seed {})\n\n",
            self.executions, self.seeds, self.base_seed
        );
        out.push_str(&format!(
            "Coverage: {} cells · corpus digest `{}`\n\n",
            self.coverage_cells, self.digest
        ));
        out.push_str("| oracle | checks | violations |\n|---|---|---|\n");
        for o in &self.oracles {
            out.push_str(&format!("| {} | {} | {} |\n", o.oracle, o.checks, o.violations));
        }
        out.push_str(
            "\n| chain seed | executions | pool | coverage | digest |\n|---|---|---|---|---|\n",
        );
        for c in &self.chains {
            out.push_str(&format!(
                "| {} | {} | {} | {} | `{}` |\n",
                c.seed, c.executions, c.pool, c.coverage_cells, c.digest
            ));
        }
        if let Some(board) = &self.scoreboard {
            out.push('\n');
            out.push_str(&board.to_markdown());
            out.push('\n');
        }
        if self.findings.is_empty() {
            out.push_str("\nNo invariant violations found.\n");
        } else {
            out.push_str(&format!("\n{} finding(s):\n", self.findings.len()));
            for f in &self.findings {
                out.push_str(&format!(
                    "- **{}** ({} elements after shrinking): {}\n",
                    f.oracle, f.elements, f.detail
                ));
            }
        }
        out
    }
}

struct ChainResult {
    stat: ChainStat,
    checks: BTreeMap<String, u64>,
    violation_counts: BTreeMap<String, u64>,
    findings: Vec<Finding>,
    coverage: BTreeSet<String>,
    scoreboard: tussle_core::Scoreboard,
}

/// Run one mutation chain: `budget` scenario executions seeded from
/// `chain_seed`, coverage-guided (a scenario joins the mutation pool iff
/// it lit a cell the chain had not seen).
fn run_chain(chain_seed: u64, budget: u64) -> ChainResult {
    let mut rng = SimRng::seed_from_u64(chain_seed).fork("fuzz-chain");
    let mut coverage: BTreeSet<String> = BTreeSet::new();
    let mut pool: Vec<Scenario> = Vec::new();
    let mut checks: BTreeMap<String, u64> = BTreeMap::new();
    let mut violation_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut findings = Vec::new();
    let mut digest = Fnv1a::new();
    let mut scoreboard = tussle_core::Scoreboard::default();

    for i in 0..budget {
        let scenario = if pool.is_empty() || rng.chance(0.35) {
            generate(&mut rng.fork(&format!("gen-{i}")))
        } else {
            let pick = rng.range(0..pool.len() as u32) as usize;
            mutate(&mut rng.fork(&format!("mut-{i}")), &pool[pick])
        };

        let outcome = run_scenario(&scenario);
        for id in [
            "packet-conservation",
            "route-validity",
            "money-conservation",
            "nat-roundtrip",
            "policy-eval",
        ] {
            *checks.entry(id.to_owned()).or_insert(0) += 1;
        }
        digest.write_str(&outcome.digest);
        for (lane, cost) in &outcome.stakeholders {
            scoreboard.stakeholders.entry(lane.clone()).or_default().merge(cost);
        }

        let mut violations = outcome.violations.clone();
        if i % RERUN_STRIDE == 1 {
            *checks.entry("rerun-determinism".into()).or_insert(0) += 1;
            violations.extend(rerun_determinism(&scenario, &outcome.digest));
        }
        if i % CACHE_STRIDE == 2 {
            *checks.entry("cache-equivalence".into()).or_insert(0) += 1;
            violations.extend(cache_equivalence(&scenario, outcome.engine_digest));
        }
        if i % CHECKPOINT_STRIDE == 3 {
            *checks.entry("checkpoint-resume".into()).or_insert(0) += 1;
            violations.extend(check_checkpoint_resume(&scenario));
        }

        // Dedup per oracle: one finding per (oracle, iteration).
        let mut seen_oracles = BTreeSet::new();
        for v in violations {
            *violation_counts.entry(v.oracle.clone()).or_insert(0) += 1;
            if !seen_oracles.insert(v.oracle.clone()) {
                continue;
            }
            let oracle = v.oracle.clone();
            let check = move |s: &Scenario| check_oracle(s, &oracle);
            if check(&scenario).is_some() {
                let (minimized, mv) = shrink(&scenario, &check);
                findings.push(Finding {
                    oracle: mv.oracle.clone(),
                    detail: mv.detail,
                    elements: minimized.elements.len() as u64,
                    scenario: minimized,
                });
            }
        }

        let fresh: Vec<&String> =
            outcome.coverage.iter().filter(|c| !coverage.contains(*c)).collect();
        if !fresh.is_empty() {
            pool.push(scenario);
            coverage.extend(outcome.coverage.iter().cloned());
        }
    }

    let stat = ChainStat {
        seed: chain_seed,
        executions: budget,
        pool: pool.len() as u64,
        coverage_cells: coverage.len() as u64,
        digest: RunDigest(digest.finish()).to_hex(),
    };
    ChainResult { stat, checks, violation_counts, findings, coverage, scoreboard }
}

/// Run the campaign. Chains execute as jobs on the job grid; the
/// reduction walks them in seed order, so the report is byte-identical
/// across thread counts.
pub fn run_fuzz(config: &FuzzConfig) -> Result<FuzzReport, FuzzError> {
    if config.budget == 0 {
        return Err(FuzzError::NoBudget);
    }
    if config.seeds == 0 {
        return Err(FuzzError::NoSeeds);
    }

    // Split the budget across chains; earlier chains absorb the remainder.
    let per_chain = config.budget / config.seeds;
    let remainder = config.budget % config.seeds;
    let jobs: Vec<(u64, u64)> = (0..config.seeds)
        .map(|i| {
            let seed = config.base_seed.wrapping_add(i);
            (seed, per_chain + u64::from(i < remainder))
        })
        .filter(|(_, b)| *b > 0)
        .collect();

    let results =
        crate::grid::par_map(&jobs, config.threads, |&(seed, budget)| run_chain(seed, budget));

    // Sequential reduction in chain-seed order.
    let mut oracle_checks: BTreeMap<String, u64> = BTreeMap::new();
    let mut oracle_violations: BTreeMap<String, u64> = BTreeMap::new();
    let mut coverage: BTreeSet<String> = BTreeSet::new();
    let mut chains = Vec::new();
    let mut findings = Vec::new();
    let mut digest = Fnv1a::new();
    let mut scoreboard = tussle_core::Scoreboard::default();
    for chain in results {
        digest.write_str(&chain.stat.digest);
        chains.push(chain.stat);
        scoreboard.merge(&chain.scoreboard);
        for (k, v) in chain.checks {
            *oracle_checks.entry(k).or_insert(0) += v;
        }
        for (k, v) in chain.violation_counts {
            *oracle_violations.entry(k).or_insert(0) += v;
        }
        coverage.extend(chain.coverage);
        findings.extend(chain.findings);
    }

    let oracles = ORACLES
        .iter()
        .map(|(id, _)| OracleStat {
            oracle: (*id).to_owned(),
            checks: oracle_checks.get(*id).copied().unwrap_or(0),
            violations: oracle_violations.get(*id).copied().unwrap_or(0),
        })
        .collect();

    let report = FuzzReport {
        schema: CORPUS_SCHEMA,
        base_seed: config.base_seed,
        seeds: config.seeds,
        budget: config.budget,
        executions: config.budget,
        coverage_cells: coverage.len() as u64,
        oracles,
        chains,
        findings,
        digest: RunDigest(digest.finish()).to_hex(),
        scoreboard: if scoreboard.is_empty() { None } else { Some(scoreboard) },
    };

    if let Some(dir) = &config.corpus_dir {
        std::fs::create_dir_all(dir).map_err(|e| FuzzError::Corpus(e.to_string()))?;
        for f in &report.findings {
            let entry = CorpusEntry {
                schema: CORPUS_SCHEMA,
                kind: "violation".to_owned(),
                oracle: Some(f.oracle.clone()),
                detail: Some(f.detail.clone()),
                scenario: f.scenario.clone(),
            };
            let path = dir.join(entry.filename());
            let json = serde_json::to_string_pretty(&entry).expect("corpus entries serialize");
            std::fs::write(&path, json + "\n")
                .map_err(|e| FuzzError::Corpus(format!("{}: {e}", path.display())))?;
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SimRng {
        SimRng::seed_from_u64(seed).fork("fuzz-test")
    }

    #[test]
    fn generation_is_deterministic_and_serializable() {
        let a = generate(&mut rng(7));
        let b = generate(&mut rng(7));
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert!(!a.elements.is_empty());
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn mutation_never_empties_a_scenario() {
        let mut r = rng(3);
        let mut s = generate(&mut r);
        for _ in 0..50 {
            s = mutate(&mut r, &s);
            assert!(!s.elements.is_empty());
            assert!((12..=40).contains(&s.nodes_clamped()));
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let s = generate(&mut rng(11));
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.violations, b.violations);
        assert!(!a.coverage.is_empty(), "a run lights up at least one cell");
    }

    #[test]
    fn clean_scenarios_pass_every_oracle() {
        // A hand-built scenario with traffic + econ + policy and no
        // faults: all oracles must hold.
        let s = Scenario {
            seed: 5,
            topo_seed: 9,
            nodes: 20,
            degree: 2,
            elements: vec![
                Element::Traffic {
                    from: 0,
                    to: 7,
                    packets: 8,
                    interval_us: 10_000,
                    jitter_us: 1_000,
                    retries: 2,
                    tos: 64,
                    port: ports::HTTP,
                },
                Element::Transit {
                    customer: 0,
                    provider: 1,
                    per_mb_cents: 3,
                    monthly_cents: 5_000,
                    megabytes: 100,
                },
                Element::Payment { amount_cents: 250, instrument: 1 },
                Element::Policy { template: 2, port: ports::HTTP, threshold: 32 },
                Element::Nat { flows: 4 },
                Element::Tunnel { flows: 3, detect_tp_pct: 80, detect_fp_pct: 5 },
                Element::Wiretap { packets: 10, encrypted_pct: 40 },
            ],
        };
        let outcome = run_scenario(&s);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(outcome.delivered > 0);
        assert_eq!(check_rerun_determinism(&s), None);
        assert_eq!(check_cache_equivalence(&s), None);
        assert_eq!(check_checkpoint_resume(&s), None);
    }

    #[test]
    fn tunnel_and_wiretap_elements_pass_their_oracles_at_the_extremes() {
        // Sweep the knob extremes: fully-encrypted and fully-clear taps,
        // zero-rate and saturating detectors. All offline oracles hold.
        let mut elements = Vec::new();
        for (tp, fp) in [(0, 0), (100, 100), (37, 92)] {
            elements.push(Element::Tunnel { flows: 12, detect_tp_pct: tp, detect_fp_pct: fp });
        }
        for pct in [0, 50, 100] {
            elements.push(Element::Wiretap { packets: 24, encrypted_pct: pct });
        }
        let s = Scenario { seed: 77, topo_seed: 3, nodes: 16, degree: 2, elements };
        let violations = run_offline_elements(&s);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn chaotic_scenarios_still_conserve_packets() {
        // Faults, outages and firewalls: drops happen, conservation holds.
        let s = Scenario {
            seed: 21,
            topo_seed: 4,
            nodes: 24,
            degree: 2,
            elements: vec![
                Element::Traffic {
                    from: 2,
                    to: 9,
                    packets: 12,
                    interval_us: 5_000,
                    jitter_us: 2_000,
                    retries: 3,
                    tos: 10,
                    port: ports::HTTPS,
                },
                Element::LinkFaults { intensity_pct: 40 },
                Element::LinkFlap { link: 3, down_at_us: 10_000, down_for_us: 100_000 },
                Element::NodeOutage { node: 1, at_us: 50_000, for_us: 80_000 },
                Element::Firewall { edge: 0, allow_port: ports::SMTP },
            ],
        };
        let outcome = run_scenario(&s);
        let conservation: Vec<_> =
            outcome.violations.iter().filter(|v| v.oracle == "packet-conservation").collect();
        assert!(conservation.is_empty(), "{conservation:?}");
    }

    #[test]
    fn shrinker_minimizes_a_planted_violation_to_its_core() {
        // Plant a synthetic cross-layer violation: the check fires iff the
        // scenario still contains a Firewall AND a Qos element. Twelve
        // elements of noise around the pair must shrink away.
        let mut r = rng(13);
        let mut elements: Vec<Element> = (0..10).map(|_| gen_element(&mut r)).collect();
        elements.retain(|e| !matches!(e, Element::Firewall { .. } | Element::Qos { .. }));
        elements.insert(3, Element::Firewall { edge: 1, allow_port: 80 });
        elements.push(Element::Qos { edge: 0, tos_threshold: 9, speedup_tenths: 3 });
        let planted = Scenario { seed: 1, topo_seed: 2, nodes: 16, degree: 2, elements };
        let check = |s: &Scenario| {
            let fw = s.elements.iter().any(|e| matches!(e, Element::Firewall { .. }));
            let qos = s.elements.iter().any(|e| matches!(e, Element::Qos { .. }));
            (fw && qos).then(|| Violation::new("planted", "firewall+qos interaction"))
        };
        assert!(check(&planted).is_some());
        let (minimized, violation) = shrink(&planted, &check);
        assert_eq!(violation.oracle, "planted");
        assert!(
            minimized.elements.len() <= 3,
            "shrank to {} elements: {:?}",
            minimized.elements.len(),
            minimized.elements
        );
        assert!(check(&minimized).is_some(), "the shrunk scenario still fails");
        // 1-minimality: removing any one element makes it pass.
        for i in 0..minimized.elements.len() {
            let mut probe = minimized.clone();
            probe.elements.remove(i);
            assert!(
                probe.elements.is_empty() || check(&probe).is_none(),
                "dropping element {i} should clear the violation"
            );
        }
    }

    #[test]
    fn campaign_rejects_zero_budget_and_zero_seeds() {
        let bad = FuzzConfig { budget: 0, ..FuzzConfig::default() };
        assert_eq!(run_fuzz(&bad), Err(FuzzError::NoBudget));
        let bad = FuzzConfig { seeds: 0, ..FuzzConfig::default() };
        assert_eq!(run_fuzz(&bad), Err(FuzzError::NoSeeds));
    }

    #[test]
    fn campaign_digest_is_identical_across_thread_counts() {
        let mut reports = Vec::new();
        for threads in [1, 2, 8] {
            let cfg = FuzzConfig {
                budget: 10,
                seeds: 2,
                base_seed: 42,
                corpus_dir: None,
                threads: Some(threads),
            };
            reports.push(run_fuzz(&cfg).unwrap());
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
        assert_eq!(reports[0].to_json(), reports[2].to_json());
        assert_eq!(reports[0].digest.len(), 16);
    }

    #[test]
    fn campaign_counts_every_oracle_and_finds_no_violations() {
        let cfg =
            FuzzConfig { budget: 12, seeds: 2, base_seed: 7, corpus_dir: None, threads: Some(2) };
        let report = run_fuzz(&cfg).unwrap();
        assert_eq!(report.executions, 12);
        assert_eq!(report.oracles.len(), ORACLES.len());
        let active = report.oracles.iter().filter(|o| o.checks > 0).count();
        assert!(active >= 5, "only {active} oracles ran");
        assert!(report.coverage_cells > 0);
        assert!(
            report.findings.is_empty(),
            "the seed corpus should be green: {:?}",
            report.findings
        );
        assert!(report.to_markdown().contains("packet-conservation"));
    }

    #[test]
    fn corpus_entries_round_trip_with_stable_filenames() {
        let s = generate(&mut rng(23));
        let entry = CorpusEntry {
            schema: CORPUS_SCHEMA,
            kind: "near-miss".to_owned(),
            oracle: None,
            detail: Some("seeded near-miss".to_owned()),
            scenario: s,
        };
        let json = serde_json::to_string_pretty(&entry).unwrap();
        let back: CorpusEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);
        let name = entry.filename();
        assert!(name.starts_with("near-miss-scenario-"), "{name}");
        assert!(name.ends_with(".json"));
        assert_eq!(entry.filename(), back.filename());
    }
}
