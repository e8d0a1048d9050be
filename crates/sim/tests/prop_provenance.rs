//! Property tests for event provenance: the causal DAG the engine builds
//! while dispatching, as a Profile-mode observation scope captures it in
//! `RunRecord::provenance`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tussle_sim::{obs, Ctx, Engine, ProvenanceNode, SimTime};

/// A self-expanding event tree: each event schedules `fan` children until
/// `depth` is exhausted. The world counts dispatches.
fn tick(depth: u8, fan: u8, delay: u64) -> impl FnOnce(&mut u64, &mut Ctx<u64>) + 'static {
    move |w, ctx| {
        *w += 1;
        if depth > 0 {
            for k in 0..fan {
                ctx.schedule_in(
                    SimTime::from_micros(delay + k as u64),
                    tick(depth - 1, fan, delay),
                );
            }
        }
    }
}

/// Build and run a random event forest under a Profile scope, returning
/// the dispatch count and the captured provenance, in dispatch order.
fn run_forest(roots: &[u64], depth: u8, fan: u8, delay: u64) -> (u64, Vec<ProvenanceNode>) {
    let guard = obs::begin(obs::ObsMode::Profile);
    let mut eng: Engine<u64> = Engine::new(0, 7);
    for t in roots {
        eng.schedule_at(SimTime::from_micros(*t), tick(depth, fan, delay));
    }
    eng.run_to_completion();
    let record = guard.finish();
    assert_eq!(record.provenance_dropped, 0, "forests stay far below the capture bound");
    (eng.world, record.provenance)
}

proptest! {
    /// The provenance graph is acyclic by construction: every recorded
    /// parent id is strictly smaller than its child's id (parents are
    /// dispatched — and numbered — before anything they schedule), and
    /// every non-root node's parent is itself recorded.
    #[test]
    fn provenance_is_an_acyclic_dag(
        roots in proptest::collection::vec(0u64..1_000, 1..4),
        depth in 0u8..4,
        fan in 1u8..3,
        delay in 1u64..100,
    ) {
        let (dispatched, nodes) = run_forest(&roots, depth, fan, delay);
        prop_assert_eq!(nodes.len() as u64, dispatched, "one node per dispatch");
        let ids: BTreeSet<u64> = nodes.iter().map(|n| n.id.0).collect();
        for node in &nodes {
            if let Some(parent) = node.parent {
                prop_assert!(parent.0 < node.id.0, "child {} scheduled by later {}", node.id, parent);
                prop_assert!(ids.contains(&parent.0), "parent {parent} recorded");
            }
        }
        // Exactly the externally injected events are roots.
        prop_assert_eq!(nodes.iter().filter(|n| n.parent.is_none()).count(), roots.len());
    }

    /// Ids are schedule-order sequence numbers: every id in 0..n occurs
    /// exactly once, while the recorded (iteration) order is dispatch
    /// order — virtual time never decreases along it.
    #[test]
    fn ids_are_dense_and_dispatch_order_is_time_ordered(
        roots in proptest::collection::vec(0u64..1_000, 1..3),
        depth in 0u8..3,
    ) {
        let (_, nodes) = run_forest(&roots, depth, 2, 10);
        let mut ids: Vec<u64> = nodes.iter().map(|n| n.id.0).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..nodes.len() as u64).collect();
        prop_assert_eq!(ids, expected);
        for pair in nodes.windows(2) {
            prop_assert!(pair[0].time <= pair[1].time, "dispatch order is time order");
        }
    }
}
