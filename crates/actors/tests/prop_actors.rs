//! Property tests for actor-network dynamics.

use proptest::prelude::*;
use tussle_actors::{ActorKind, ActorNetwork};

fn arb_kind(i: usize) -> ActorKind {
    match i % 3 {
        0 => ActorKind::Human,
        1 => ActorKind::Technology,
        _ => ActorKind::Institution,
    }
}

proptest! {
    /// Durability and alignment stay in [0, 1]; tussle energy is
    /// nonnegative and bounded by the number of aligned pairs.
    #[test]
    fn metrics_are_bounded(
        n in 2usize..8,
        stances in proptest::collection::vec(-2.0f64..2.0, 8 * 2),
        aligns in proptest::collection::vec((0usize..8, 0usize..8, -0.5f64..1.5), 0..20),
    ) {
        let mut net = ActorNetwork::new(2);
        for i in 0..n {
            net.add_actor(arb_kind(i), &format!("a{i}"), vec![stances[i * 2], stances[i * 2 + 1]]);
        }
        let mut pairs = 0usize;
        for (a, b, w) in &aligns {
            let (a, b) = (a % n, b % n);
            if a != b {
                net.align(
                    tussle_actors::ActorId(a as u32),
                    tussle_actors::ActorId(b as u32),
                    *w,
                );
                pairs += 1;
            }
        }
        let d = net.durability();
        prop_assert!((0.0..=1.0).contains(&d), "durability {d}");
        let e = net.tussle_energy();
        prop_assert!(e >= 0.0);
        prop_assert!(e <= pairs as f64 + 1e-9, "energy {e} over {pairs} pairs");
    }

    /// Relaxation never increases tussle energy and never decreases
    /// durability; stances stay clamped.
    #[test]
    fn relaxation_is_monotone(
        stances in proptest::collection::vec(-1.0f64..1.0, 6),
        steps in 1usize..50,
    ) {
        let mut net = ActorNetwork::new(1);
        for (i, s) in stances.iter().enumerate() {
            net.add_actor(arb_kind(i), &format!("a{i}"), vec![*s]);
        }
        for i in 0..stances.len() {
            for j in (i + 1)..stances.len() {
                net.align(tussle_actors::ActorId(i as u32), tussle_actors::ActorId(j as u32), 0.5);
            }
        }
        let mut prev_e = net.tussle_energy();
        let mut prev_d = net.durability();
        for _ in 0..steps {
            net.relax(0.1);
            let e = net.tussle_energy();
            let d = net.durability();
            prop_assert!(e <= prev_e + 1e-9, "energy rose {prev_e} -> {e}");
            prop_assert!(d >= prev_d - 1e-9, "durability fell {prev_d} -> {d}");
            prev_e = e;
            prev_d = d;
            for a in net.active_actors() {
                for s in net.stances(a.id) {
                    prop_assert!((-1.0..=1.0).contains(s));
                }
            }
        }
    }

    /// Conflict is a symmetric semi-metric over stances.
    #[test]
    fn conflict_is_symmetric(
        sa in proptest::collection::vec(-1.0f64..1.0, 3),
        sb in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let mut net = ActorNetwork::new(3);
        let a = net.add_actor(ActorKind::Human, "a", sa);
        let b = net.add_actor(ActorKind::Human, "b", sb);
        let cab = net.conflict(a, b);
        let cba = net.conflict(b, a);
        prop_assert!((cab - cba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&cab));
        prop_assert_eq!(net.conflict(a, a), 0.0);
    }
}
