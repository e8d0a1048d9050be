//! The design principles applied across crates: tussle spaces, the
//! mechanism catalog, escalation, and the analyzers working against real
//! substrate output.

use std::collections::BTreeMap;
use tussle::actors::{ActorKind, ActorNetwork, ChurnProcess, FreezeDetector};
use tussle::core::space::entangled_functions;
use tussle::core::{
    choice_index, spillover, visibility_index, EscalationLadder, Mechanism, Stakeholder,
    StakeholderKind, TussleSpace, TussleSpaceKind,
};
use tussle::names::namespace::{Name, Registry};
use tussle::names::resolver::Resolver;
use tussle::sim::SimRng;

#[test]
fn the_cast_of_section_one_is_in_tussle() {
    let everyone: Vec<Stakeholder> = [
        StakeholderKind::User,
        StakeholderKind::CommercialIsp,
        StakeholderKind::Government,
        StakeholderKind::RightsHolder,
        StakeholderKind::ContentProvider,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, k)| Stakeholder::typical(i as u64, k))
    .collect();

    // "There is contention among the players": the user conflicts with
    // every commercial/state party in the cast.
    let user = &everyone[0];
    for other in &everyone[1..3] {
        assert!(!user.conflicts_with(other).is_empty(), "user vs {:?}", other.kind);
    }
    // and the canonical spaces catch those conflicts
    let spaces = TussleSpace::canonical();
    for s in &spaces {
        assert!(
            everyone.iter().filter(|p| s.involves(p)).count() >= 2,
            "{:?} needs at least two parties",
            s.kind
        );
    }
}

#[test]
fn every_escalation_ladder_terminates_and_stays_in_catalog() {
    for opening in [
        Mechanism::PortFirewall,
        Mechanism::ValuePricing,
        Mechanism::QosPortBased,
        Mechanism::Encryption,
        Mechanism::ProviderRouting,
        Mechanism::Anonymity,
        Mechanism::DnsPerversion,
    ] {
        let ladder = EscalationLadder::play_to_the_end(opening, 16);
        assert!(ladder.ended_terminal(), "{opening:?} ladder must reach quiescence");
        assert!(ladder.steps.len() <= 5, "{opening:?} ladder suspiciously long");
        // each consecutive move is a legal counter
        for w in ladder.steps.windows(2) {
            assert!(
                w[0].mechanism.countered_by().contains(&w[1].mechanism),
                "{:?} -> {:?} is not a legal counter",
                w[0].mechanism,
                w[1].mechanism
            );
        }
    }
}

#[test]
fn dns_perversion_vs_resolver_choice_measured_by_the_analyzers() {
    let mut reg = Registry::new();
    let name = Name::parse("example.com").unwrap();
    reg.register(name.clone(), 1, 0xAA, false).unwrap();

    let mut isp_resolver =
        Resolver::perverted(BTreeMap::from([(name.clone(), 0xDEAD)]), Some(0xAD));
    let mut honest = Resolver::honest();

    // one resolver: no choice, lies hidden
    let monopoly_choice = choice_index(&[1]);
    assert_eq!(monopoly_choice, 0.0);
    assert!(isp_resolver.lies_about(&name, &reg));

    // two resolvers: choice restores truth
    let with_choice = choice_index(&[2]);
    assert_eq!(with_choice, 1.0);
    assert_eq!(honest.resolve(&name, &reg), Some(0xAA));

    // visibility: the perversion is silent (the user was not told), the
    // honest answer needs no disclosure
    assert_eq!(visibility_index(&[false]), 0.0);

    // spillover of the perversion into reachability: user aimed at 0xAA,
    // got 0xDEAD — complete distortion
    let truth = 0xAA as f64;
    let lie = isp_resolver.resolve(&name, &reg).unwrap() as f64;
    assert!(spillover(truth, lie) > 1.0);
}

#[test]
fn modularity_check_flags_the_dns_and_clears_the_separated_design() {
    let mut naming = TussleSpace::new(TussleSpaceKind::Naming, vec![]);
    let mut economics = TussleSpace::new(TussleSpaceKind::Economics, vec![]);
    // the entangled world: DNS names carry machine naming AND brand value
    naming.assign("dns-names");
    economics.assign("dns-names");
    assert_eq!(entangled_functions(&[naming.clone(), economics.clone()]), vec!["dns-names"]);

    // the separated world
    let mut naming2 = TussleSpace::new(TussleSpaceKind::Naming, vec![]);
    let mut economics2 = TussleSpace::new(TussleSpaceKind::Economics, vec![]);
    naming2.assign("machine-ids");
    economics2.assign("trademark-directory");
    assert!(entangled_functions(&[naming2, economics2]).is_empty());
}

#[test]
fn actor_network_reacts_to_the_experiments_conclusions() {
    // a miniature of E12 wired by hand: the freeze detector and churn agree
    let mut rng = SimRng::seed_from_u64(3);
    let mut net = ActorNetwork::new(2);
    let a = net.add_actor(ActorKind::Human, "users", vec![1.0, 0.0]);
    let b = net.add_actor(ActorKind::Technology, "tcp", vec![0.0, 1.0]);
    net.align(a, b, 0.8);
    let mut churn = ChurnProcess::new(0.0);
    let mut det = FreezeDetector::new(0.05, 10);
    let mut frozen_at = None;
    for step in 0..300 {
        let admitted = churn.step(&mut net, &mut rng);
        if det.observe(admitted, || net.tussle_energy()) && frozen_at.is_none() {
            frozen_at = Some(step);
        }
    }
    let frozen = frozen_at.expect("a closed network freezes");
    assert!(frozen < 200);
    assert!(net.durability() > 0.8, "and what froze is durable");
}
