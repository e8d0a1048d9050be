//! Property tests for the tussle scoreboard (DESIGN.md §9): the fold from
//! an observed run conserves the trace-entry count, campaign merging is
//! commutative and associative with lane-wise conservation, and the
//! winner verdict respects the ranking contract.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tussle_core::Scoreboard;
use tussle_sim::obs::{self, ObsMode, UNATTRIBUTED};
use tussle_sim::{SimTime, StakeholderCost};

/// One observed action: a point event or a complete span, optionally
/// annotated with a stakeholder lane drawn from a small pool so lanes
/// collide and accumulate.
#[derive(Debug, Clone)]
enum Action {
    Event(u64, String),
    Span(u64, u64, Option<usize>),
}

const LANES: [&str; 4] = ["user", "isp", "gov", "vendor"];

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    let action =
        prop_oneof![
            (0u64..200, "[a-z]{1,6}\\.[a-z]{1,6}").prop_map(|(d, t)| Action::Event(d, t)),
            (0u64..200, 1u64..300, 0usize..2 * LANES.len()).prop_map(
                |(d, len, pick)| Action::Span(d, len, (pick < LANES.len()).then_some(pick))
            ),
        ];
    proptest::collection::vec(action, 1..80)
}

fn observe(actions: &[Action]) -> tussle_sim::RunRecord {
    let g = obs::begin(ObsMode::Cost);
    let mut now = 0u64;
    for a in actions {
        match a {
            Action::Event(d, topic) => {
                now += d;
                obs::event(SimTime::from_micros(now), topic, "m");
            }
            Action::Span(d, len, lane) => {
                now += d;
                let lane = lane.map(|i| LANES[i]);
                obs::span_enter(SimTime::from_micros(now), "prop.span", lane, &[]);
                now += len;
                obs::span_exit(SimTime::from_micros(now), &[]);
            }
        }
    }
    g.finish()
}

fn arb_board() -> impl Strategy<Value = Scoreboard> {
    let cost = (0u64..100, 0u64..50, 0u64..50, 0u64..10_000).prop_map(
        |(entries, spans, events, virtual_micros)| StakeholderCost {
            entries,
            spans,
            events,
            virtual_micros,
        },
    );
    // Keys index a small pool (the last slot is the unattributed lane) so
    // lanes collide across boards; collecting dedups colliding keys.
    let lane = (0usize..=LANES.len(), cost).prop_map(|(i, c)| {
        let name = LANES.get(i).copied().unwrap_or(UNATTRIBUTED);
        (name.to_owned(), c)
    });
    proptest::collection::vec(lane, 0..5)
        .prop_map(|lanes| Scoreboard { stakeholders: lanes.into_iter().collect() })
}

proptest! {
    /// Conservation through the fold: every trace entry a run records
    /// lands in exactly one scoreboard lane — the sum over lanes equals
    /// the run's `trace_entries` counter, and span/event sub-tallies sum
    /// to the same total.
    #[test]
    fn fold_conserves_trace_entries(actions in arb_actions()) {
        let rec = observe(&actions);
        match Scoreboard::from_record(&rec) {
            None => prop_assert_eq!(rec.trace_entries, 0),
            Some(board) => {
                prop_assert_eq!(board.total_entries(), rec.trace_entries);
                let parts: u64 =
                    board.stakeholders.values().map(|c| c.spans * 2 + c.events).sum();
                prop_assert_eq!(parts, rec.trace_entries, "spans count enter+exit");
            }
        }
    }

    /// Campaign aggregation: merge is commutative and associative, and
    /// conserves entries — a merged campaign's total is the sum of its
    /// runs' totals however the workers delivered them.
    #[test]
    fn merge_commutes_associates_and_conserves(
        a in arb_board(),
        b in arb_board(),
        c in arb_board(),
    ) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        prop_assert_eq!(
            ab_c.total_entries(),
            a.total_entries() + b.total_entries() + c.total_entries()
        );
    }

    /// The winner contract: the verdict is never the unattributed lane,
    /// it tops every other named lane under the (virtual time, entries)
    /// order unless contested, and renaming lanes consistently renames
    /// the verdict (the ranking looks at tallies, not names).
    #[test]
    fn winner_respects_ranking(board in arb_board()) {
        let named: BTreeMap<&String, &StakeholderCost> = board
            .stakeholders
            .iter()
            .filter(|(name, _)| name.as_str() != UNATTRIBUTED)
            .collect();
        match board.who_won() {
            None => prop_assert!(named.is_empty()),
            Some(verdict) if verdict == "contested" => {
                prop_assert!(named.len() >= 2);
            }
            Some(verdict) => {
                prop_assert_ne!(&verdict, UNATTRIBUTED);
                let winner = &board.stakeholders[&verdict];
                for (name, cost) in &named {
                    if name.as_str() != verdict {
                        prop_assert!(
                            (winner.virtual_micros, winner.entries)
                                > (cost.virtual_micros, cost.entries),
                            "{name} outranks the declared winner {verdict}"
                        );
                    }
                }
            }
        }
    }
}
