//! Microbenchmarks for every substrate the experiments run on: the event
//! engine, forwarding, routing protocols, the policy language, the game
//! solvers, the market, the ledger and the actor network. Bench ids read
//! `layer/<crate>/<name>`; ci.sh records them in `BENCH_sim.json`.
//!
//! ```sh
//! cargo bench -p tussle-bench --bench substrates
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use tussle_actors::{ActorId, ActorKind, ActorNetwork, ChurnProcess};
use tussle_core::{EscalationLadder, Mechanism};
use tussle_econ::{Consumer, Ledger, Market, Money, Provider};
use tussle_game::{FictitiousPlay, Game};
use tussle_net::addr::{Address, AddressOrigin, Asn, Prefix};
use tussle_net::packet::{ports, Packet, Protocol};
use tussle_net::{Fib, Network, NodeId};
use tussle_policy::{parse_expr, Ontology, Request};
use tussle_routing::{AsGraph, LinkStateProtocol};
use tussle_sim::{Engine, SimRng, SimTime};

fn bench_engine(c: &mut Criterion) {
    c.bench_function("layer/sim/engine_10k_events", |b| {
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new(0, 1);
            fn tick(w: &mut u64, ctx: &mut tussle_sim::Ctx<u64>) {
                *w += 1;
                if *w < 10_000 {
                    ctx.schedule_in(SimTime::from_micros(10), tick);
                }
            }
            eng.schedule_at(SimTime::ZERO, tick);
            eng.run_to_completion();
            black_box(eng.world)
        })
    });
    // The same chain with one rendered trace entry per event: the cost of
    // the engine trace path, message rendering and log included.
    c.bench_function("layer/sim/engine_10k_traced", |b| {
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new(0, 1);
            fn tick(w: &mut u64, ctx: &mut tussle_sim::Ctx<u64>) {
                *w += 1;
                ctx.trace("bench.tick", format_args!("tick {w}"));
                if *w < 10_000 {
                    ctx.schedule_in(SimTime::from_micros(10), tick);
                }
            }
            eng.schedule_at(SimTime::ZERO, tick);
            eng.run_to_completion();
            black_box(eng.world)
        })
    });
}

fn bench_fib(c: &mut Criterion) {
    let mut fib = Fib::new();
    for i in 0..1_000u32 {
        fib.install(Prefix::new(i << 12, 24), NodeId(i % 16), i);
    }
    c.bench_function("layer/net/fib_lookup_1k", |b| {
        b.iter(|| {
            let mut hits = 0;
            for i in 0..1_000u32 {
                if fib.lookup(black_box((i << 12) | 7)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn line_network(n: usize) -> (Network, NodeId, Address, Address) {
    let mut net = Network::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| net.add_router(Asn(i as u32))).collect();
    for w in nodes.windows(2) {
        net.connect(w[0], w[1], SimTime::from_millis(1), 1_000_000_000);
    }
    let src =
        Address::in_prefix(Prefix::new(0x0a000000, 16), 1, AddressOrigin::ProviderIndependent);
    let dst =
        Address::in_prefix(Prefix::new(0x0b000000, 16), 1, AddressOrigin::ProviderIndependent);
    net.node_mut(nodes[0]).bind(src);
    net.node_mut(nodes[n - 1]).bind(dst);
    let dp = Prefix::new(0x0b000000, 16);
    for w in nodes.windows(2) {
        net.fib_mut(w[0]).install(dp, w[1], 0);
    }
    (net, nodes[0], src, dst)
}

fn bench_forwarding(c: &mut Criterion) {
    let (mut net, first, src, dst) = line_network(32);
    let mut rng = SimRng::seed_from_u64(1);
    c.bench_function("layer/net/forward_32_hops", |b| {
        b.iter(|| {
            let pkt = Packet::new(src, dst, Protocol::Tcp, 1, ports::HTTP);
            black_box(net.send(first, pkt, &mut rng).delivered)
        })
    });
}

fn bench_spf(c: &mut Criterion) {
    // a 2x50 grid
    let mut net = Network::new();
    let mut grid = Vec::new();
    for i in 0..100 {
        grid.push(net.add_router(Asn(i)));
    }
    for i in 0..50 {
        if i + 1 < 50 {
            net.connect(grid[i], grid[i + 1], SimTime::from_millis(1), 1_000_000_000);
            net.connect(grid[50 + i], grid[51 + i], SimTime::from_millis(1), 1_000_000_000);
        }
        net.connect(grid[i], grid[50 + i], SimTime::from_millis(2), 1_000_000_000);
    }
    let ls = LinkStateProtocol::spanning(&net);
    c.bench_function("layer/routing/spf_100_nodes", |b| {
        b.iter(|| black_box(ls.path(&net, grid[0], grid[99])))
    });
}

fn bench_path_vector(c: &mut Criterion) {
    c.bench_function("layer/routing/path_vector_50_as", |b| {
        b.iter(|| {
            let mut g = AsGraph::new();
            // two tier-1s, ten mid-tier, stubs below
            g.peers(Asn(1), Asn(2));
            for m in 0..10u32 {
                g.customer_of(Asn(100 + m), Asn(1 + (m % 2)));
                for s in 0..4u32 {
                    g.customer_of(Asn(1000 + m * 10 + s), Asn(100 + m));
                }
            }
            g.originate(Asn(1000), Prefix::new(0x0a000000, 16));
            black_box(g.converge(100))
        })
    });
}

fn bench_policy(c: &mut Criterion) {
    let ont = Ontology::network();
    let expr = parse_expr(
        r#"(action == "connect" && dst_port in [80, 443, 8080]) || (encrypted && !anonymous && tos >= 4)"#,
    )
    .unwrap();
    let req = Request::new()
        .with("action", "connect")
        .with("dst_port", 443i64)
        .with("encrypted", true)
        .with("anonymous", false)
        .with("tos", 5i64);
    c.bench_function("layer/policy/eval_compound", |b| {
        b.iter(|| black_box(expr.matches(&req, &ont).unwrap()))
    });
    c.bench_function("layer/policy/parse_compound", |b| {
        b.iter(|| {
            black_box(
                parse_expr(r#"(a == 1 && b in [2, 3]) || !(c != "x")"#)
                    .map(|e| e.attributes().len()),
            )
        })
    });
}

fn bench_games(c: &mut Criterion) {
    c.bench_function("layer/game/fictitious_play_1k", |b| {
        b.iter(|| {
            let g = Game::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]);
            let mut fp = FictitiousPlay::new(g);
            fp.run(1_000);
            black_box(fp.row_empirical())
        })
    });
}

fn bench_market(c: &mut Criterion) {
    c.bench_function("layer/econ/market_20x20", |b| {
        b.iter(|| {
            let consumers: Vec<Consumer> = (0..20)
                .map(|id| Consumer {
                    id,
                    value: Money::from_dollars(100),
                    usage_mb: 1000,
                    runs_server: false,
                    tunnels: false,
                    switching_cost: Money::from_dollars(100),
                    provider: None,
                })
                .collect();
            let providers = vec![
                Provider::flat("a", Money::from_dollars(60), Money::from_dollars(20)),
                Provider::flat("b", Money::from_dollars(60), Money::from_dollars(20)),
            ];
            black_box(Market::new(consumers, providers).run(20).avg_markup)
        })
    });
}

fn bench_ledger(c: &mut Criterion) {
    c.bench_function("layer/econ/ledger_1k_transfers", |b| {
        b.iter(|| {
            let mut l = Ledger::new();
            let accounts: Vec<_> = (0..16).map(tussle_econ::AccountId).collect();
            for a in &accounts {
                l.open(*a);
                l.mint(*a, Money::from_dollars(1_000));
            }
            for i in 0..1_000u64 {
                let from = accounts[(i % 16) as usize];
                let to = accounts[((i + 1) % 16) as usize];
                l.transfer(from, to, Money(100), "bench").unwrap();
            }
            assert!(l.is_conserving());
            black_box(l.total_minted())
        })
    });
}

fn bench_escalation(c: &mut Criterion) {
    c.bench_function("layer/core/escalation_ladder", |b| {
        b.iter(|| black_box(EscalationLadder::play_to_the_end(Mechanism::QosPortBased, 10)))
    });
}

fn bench_sourceroute(c: &mut Criterion) {
    let mut g = AsGraph::new();
    for m in 0..6u32 {
        g.customer_of(Asn(1), Asn(10 + m));
        g.customer_of(Asn(2), Asn(10 + m));
        if m > 0 {
            g.peers(Asn(10 + m), Asn(10 + m - 1));
        }
    }
    let prices: BTreeMap<Asn, u64> = (0..6u32).map(|m| (Asn(10 + m), 100 + m as u64)).collect();
    c.bench_function("layer/routing/enumerate_paths_6", |b| {
        b.iter(|| {
            black_box(
                tussle_routing::sourceroute::enumerate_paths(&g, Asn(1), Asn(2), 5, &prices).len(),
            )
        })
    });
}

/// E12's founding network churned 600 steps at its busiest rate, 2.0
/// (about 1,200 entrants), seed 1.
fn churned_e12() -> ActorNetwork {
    let mut net = ActorNetwork::new(3);
    net.add_actor(ActorKind::Human, "users", vec![0.9, -0.4, 0.1]);
    net.add_actor(ActorKind::Institution, "isp", vec![-0.8, 0.6, 0.0]);
    net.add_actor(ActorKind::Technology, "ip", vec![0.0, 0.0, 0.0]);
    net.add_actor(ActorKind::Institution, "telecom-law", vec![-0.2, 0.8, -0.5]);
    for (a, b, s) in [(0, 2, 0.7), (1, 2, 0.7), (1, 3, 0.5), (0, 1, 0.4)] {
        net.align(ActorId(a), ActorId(b), s);
    }
    let mut churn = ChurnProcess::new(2.0);
    let mut rng = SimRng::seed_from_u64(1).fork("e12");
    for _ in 0..600 {
        churn.step(&mut net, &mut rng);
    }
    net
}

fn bench_actors(c: &mut Criterion) {
    c.bench_function("layer/actors/churn_600_steps", |b| {
        b.iter(|| black_box(churned_e12().active_count()))
    });
    let net = churned_e12();
    c.bench_function("layer/actors/tussle_energy", |b| {
        b.iter(|| black_box(black_box(&net).tussle_energy()))
    });
    // One E12 relaxation at its churn rate. Each pass hardens the ties a
    // little, which does not change the work: the same pairs and lanes.
    let mut relaxed = net.clone();
    c.bench_function("layer/actors/relax", |b| {
        b.iter(|| black_box(&mut relaxed).relax(black_box(0.05)))
    });
}

criterion_group!(
    benches,
    bench_engine,
    bench_fib,
    bench_forwarding,
    bench_spf,
    bench_path_vector,
    bench_policy,
    bench_games,
    bench_market,
    bench_ledger,
    bench_escalation,
    bench_sourceroute,
    bench_actors,
);
criterion_main!(benches);
