//! Equivalence oracle for the dense actor-network storage.
//!
//! `RefNetwork` is the `BTreeMap`-keyed `ActorNetwork` the dense layout
//! replaced, kept verbatim but for one line: its `relax` clamps the rate
//! into `[0, 1]` on entry, as the dense one does. The dense network, with
//! its stances in lane chunks and no per-lane clamp in `relax`, must
//! compute every float bit for bit as the reference, which keeps its
//! per-lane clamps: on random operation sequences at any rate, at stances
//! already on the bounds, and on E12's churn loop replayed through the
//! real `ChurnProcess` against a mirror of that loop driven by the same
//! random draws.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tussle_actors::{ActorId, ActorKind, ActorNetwork, ChurnProcess};
use tussle_sim::SimRng;

/// An actor with stances on a fixed set of issues (-1.0 .. 1.0 per issue).
#[derive(Debug, Clone)]
pub struct RefActor {
    /// Identifier.
    pub id: ActorId,
    /// Kind.
    pub kind: ActorKind,
    /// Display name.
    pub name: String,
    /// Stances on the network's issue axes.
    pub stances: Vec<f64>,
    /// Whether the actor is still present.
    pub active: bool,
}

/// The actor network: actors plus pairwise alignment in `[0, 1]`.
#[derive(Debug, Clone, Default)]
pub struct RefNetwork {
    actors: Vec<RefActor>,
    /// alignment keyed by (low id, high id)
    alignment: BTreeMap<(ActorId, ActorId), f64>,
    /// Number of issue axes every actor has a stance on.
    pub issue_count: usize,
}

impl RefNetwork {
    /// A network with the given number of issue axes.
    pub fn new(issue_count: usize) -> Self {
        RefNetwork { actors: Vec::new(), alignment: BTreeMap::new(), issue_count }
    }

    /// Add an actor; stances are clamped to `[-1, 1]` and padded/truncated
    /// to the issue count.
    pub fn add_actor(&mut self, kind: ActorKind, name: &str, stances: Vec<f64>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        let mut s: Vec<f64> = stances.into_iter().map(|v| v.clamp(-1.0, 1.0)).collect();
        s.resize(self.issue_count, 0.0);
        self.actors.push(RefActor { id, kind, name: name.to_owned(), stances: s, active: true });
        id
    }

    /// Remove (deactivate) an actor and its alignments.
    pub fn remove_actor(&mut self, id: ActorId) {
        if let Some(a) = self.actors.get_mut(id.index()) {
            a.active = false;
        }
        self.alignment.retain(|(x, y), _| *x != id && *y != id);
    }

    /// Actor accessor.
    pub fn actor(&self, id: ActorId) -> &RefActor {
        &self.actors[id.index()]
    }

    /// Active actors.
    pub fn active_actors(&self) -> impl Iterator<Item = &RefActor> {
        self.actors.iter().filter(|a| a.active)
    }

    /// Number of active actors.
    pub fn active_count(&self) -> usize {
        self.active_actors().count()
    }

    fn key(a: ActorId, b: ActorId) -> (ActorId, ActorId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Set the alignment strength between two actors.
    pub fn align(&mut self, a: ActorId, b: ActorId, strength: f64) {
        if a == b {
            return;
        }
        self.alignment.insert(Self::key(a, b), strength.clamp(0.0, 1.0));
    }

    /// Current alignment between two actors (0 when none recorded).
    pub fn alignment(&self, a: ActorId, b: ActorId) -> f64 {
        self.alignment.get(&Self::key(a, b)).copied().unwrap_or(0.0)
    }

    /// Interest conflict between two actors: half the mean absolute stance
    /// gap, in `[0, 1]`.
    pub fn conflict(&self, a: ActorId, b: ActorId) -> f64 {
        let sa = &self.actors[a.index()].stances;
        let sb = &self.actors[b.index()].stances;
        if sa.is_empty() {
            return 0.0;
        }
        let total: f64 = sa.iter().zip(sb).map(|(x, y)| (x - y).abs()).sum();
        (total / sa.len() as f64) / 2.0
    }

    /// Durability (Latour): mean alignment over aligned pairs, weighted ×2
    /// when either endpoint is Technology — technology anchors the network.
    /// Zero when nothing is aligned.
    pub fn durability(&self) -> f64 {
        let mut weight_sum = 0.0;
        let mut value_sum = 0.0;
        for ((a, b), s) in &self.alignment {
            let aa = &self.actors[a.index()];
            let bb = &self.actors[b.index()];
            if !aa.active || !bb.active {
                continue;
            }
            let w = if aa.kind == ActorKind::Technology || bb.kind == ActorKind::Technology {
                2.0
            } else {
                1.0
            };
            weight_sum += w;
            value_sum += w * s;
        }
        if weight_sum == 0.0 {
            0.0
        } else {
            value_sum / weight_sum
        }
    }

    /// Tussle energy: total unresolved conflict over *aligned* pairs —
    /// actors who must work together but want different things.
    pub fn tussle_energy(&self) -> f64 {
        self.alignment
            .iter()
            .filter(|((a, b), _)| self.actors[a.index()].active && self.actors[b.index()].active)
            .map(|((a, b), s)| s * self.conflict(*a, *b))
            .sum()
    }

    /// One relaxation step: aligned actors pull each other's stances
    /// together at `rate` (tussles get resolved; the network hardens).
    pub fn relax(&mut self, rate: f64) {
        let rate = rate.clamp(0.0, 1.0);
        let pairs: Vec<(ActorId, ActorId, f64)> =
            self.alignment.iter().map(|((a, b), s)| (*a, *b, *s)).collect();
        for (a, b, s) in pairs {
            if !self.actors[a.index()].active || !self.actors[b.index()].active {
                continue;
            }
            for i in 0..self.issue_count {
                let xa = self.actors[a.index()].stances[i];
                let xb = self.actors[b.index()].stances[i];
                let pull = rate * s * (xb - xa) / 2.0;
                self.actors[a.index()].stances[i] = (xa + pull).clamp(-1.0, 1.0);
                self.actors[b.index()].stances[i] = (xb - pull).clamp(-1.0, 1.0);
            }
            // working together also strengthens the tie
            let e = self.alignment.get_mut(&Self::key(a, b)).expect("pair existed");
            *e = (*e + rate * 0.1).min(1.0);
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Assert that the two networks agree bit for bit on everything an active
/// actor can observe.
fn assert_same(real: &ActorNetwork, reference: &RefNetwork) {
    let ids: Vec<ActorId> = reference.active_actors().map(|a| a.id).collect();
    assert_eq!(real.active_actors().map(|a| a.id).collect::<Vec<_>>(), ids);
    assert_eq!(real.active_count(), reference.active_count());
    for &a in &ids {
        assert_eq!(bits(real.stances(a)), bits(&reference.actor(a).stances), "stances of {a:?}");
        for &b in &ids {
            assert_eq!(
                real.alignment(a, b).to_bits(),
                reference.alignment(a, b).to_bits(),
                "alignment {a:?}-{b:?}"
            );
        }
    }
    assert_eq!(real.tussle_energy().to_bits(), reference.tussle_energy().to_bits());
    assert_eq!(real.durability().to_bits(), reference.durability().to_bits());
}

/// One network operation. Actor indices are taken modulo the actors added
/// so far, so they may name removed actors, repeat a pair, reverse it, or
/// name one actor twice.
#[derive(Debug, Clone)]
enum Op {
    Add(ActorKind, Vec<f64>),
    Align(usize, usize, f64),
    Remove(usize),
    Relax(f64),
}

fn kind(i: usize) -> ActorKind {
    [ActorKind::Human, ActorKind::Technology, ActorKind::Institution][i % 3]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // `Align` is listed twice so that ties outnumber removals.
    prop_oneof![
        (0usize..3, proptest::collection::vec(-1.5f64..1.5, 0..11))
            .prop_map(|(k, s)| Op::Add(kind(k), s)),
        (0usize..16, 0usize..16, -0.5f64..1.5).prop_map(|(a, b, s)| Op::Align(a, b, s)),
        (0usize..16, 0usize..16, -0.5f64..1.5).prop_map(|(a, b, s)| Op::Align(a, b, s)),
        (0usize..16).prop_map(Op::Remove),
        arb_rate().prop_map(Op::Relax),
    ]
}

/// Relaxation rates: mostly in `[0, 1)`, and now and then exactly 0, -0 or
/// 1, a negative rate, a rate above 1, an infinity or NaN.
fn arb_rate() -> impl Strategy<Value = f64> {
    (0u32..32, 0.0f64..1.0).prop_map(|(k, r)| match k {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => 1.0,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 | 7 => -2.0 * r,
        8 | 9 => 1.0 + 2.0 * r,
        _ => r,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random operation sequences: after every operation the dense network
    /// and the reference agree bit for bit. Up to nine issues make stance
    /// rows of one to three lane chunks, padding included.
    #[test]
    fn dense_network_matches_the_btreemap_reference(
        issue_count in 0usize..10,
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut real = ActorNetwork::new(issue_count);
        let mut reference = RefNetwork::new(issue_count);
        for op in ops {
            let added = reference.actors.len();
            match op {
                Op::Add(kind, stances) => {
                    let id = real.add_actor(kind, "a", stances.clone());
                    prop_assert_eq!(id, reference.add_actor(kind, "a", stances));
                }
                Op::Align(a, b, s) if added > 0 => {
                    let (a, b) = (ActorId((a % added) as u32), ActorId((b % added) as u32));
                    real.align(a, b, s);
                    reference.align(a, b, s);
                }
                Op::Remove(a) if added > 0 => {
                    let a = ActorId((a % added) as u32);
                    real.remove_actor(a);
                    reference.remove_actor(a);
                }
                Op::Relax(rate) => {
                    real.relax(rate);
                    reference.relax(rate);
                }
                Op::Align(..) | Op::Remove(_) => {}
            }
            assert_same(&real, &reference);
        }
    }
}

/// The one intended divergence: the reference stored an alignment with a
/// removed actor (which no metric counted); the dense network ignores it.
#[test]
fn aligning_a_removed_actor_is_a_no_op() {
    let mut real = ActorNetwork::new(1);
    let mut reference = RefNetwork::new(1);
    for (kind, stance) in [(ActorKind::Human, 1.0), (ActorKind::Technology, -1.0)] {
        real.add_actor(kind, "a", vec![stance]);
        reference.add_actor(kind, "a", vec![stance]);
    }
    let (a, b) = (ActorId(0), ActorId(1));
    real.remove_actor(b);
    reference.remove_actor(b);
    real.align(a, b, 0.5);
    reference.align(a, b, 0.5);
    assert_eq!(reference.alignment(a, b), 0.5);
    assert_eq!(real.alignment(a, b), 0.0);
    real.relax(0.5);
    reference.relax(0.5);
    assert_same(&real, &reference);
}

/// Stances already on the bounds, every pair tied at full strength and
/// relaxed at rate 1: each pull is as large as it can be, and the per-lane
/// clamps the reference keeps still never fire.
#[test]
fn full_pulls_from_the_bounds_need_no_clamp() {
    let rows = [
        [1.0, -1.0, 1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0, 1.0],
        [-1.0, -1.0, -1.0, 1.0, 1.0],
    ];
    let mut real = ActorNetwork::new(5);
    let mut reference = RefNetwork::new(5);
    for (i, row) in rows.iter().enumerate() {
        real.add_actor(kind(i), "a", row.to_vec());
        reference.add_actor(kind(i), "a", row.to_vec());
    }
    for a in 0..rows.len() as u32 {
        for b in a + 1..rows.len() as u32 {
            real.align(ActorId(a), ActorId(b), 1.0);
            reference.align(ActorId(a), ActorId(b), 1.0);
        }
    }
    for _ in 0..6 {
        real.relax(1.0);
        reference.relax(1.0);
        assert_same(&real, &reference);
    }
}

/// E12's founding population and ties
/// (`crates/experiments/src/e12_actor_network.rs`).
const FOUNDERS: [(ActorKind, &str, [f64; 3]); 4] = [
    (ActorKind::Human, "users", [0.9, -0.4, 0.1]),
    (ActorKind::Institution, "isp", [-0.8, 0.6, 0.0]),
    (ActorKind::Technology, "ip", [0.0, 0.0, 0.0]),
    (ActorKind::Institution, "telecom-law", [-0.2, 0.8, -0.5]),
];
const TIES: [(u32, u32, f64); 4] = [(0, 2, 0.7), (1, 2, 0.7), (1, 3, 0.5), (0, 1, 0.4)];

/// `ChurnProcess::step` as it ran on the reference network, draw for draw.
fn reference_step(
    churn: &ChurnProcess,
    entrants: &mut u64,
    net: &mut RefNetwork,
    rng: &mut SimRng,
) -> usize {
    let mut admitted = 0;
    let mut budget = churn.arrival_rate;
    while budget > 0.0 {
        let p = budget.min(1.0);
        if rng.chance(p) {
            *entrants += 1;
            let stances: Vec<f64> = (0..net.issue_count).map(|_| rng.range(-1.0..1.0f64)).collect();
            let kind = if rng.chance(0.5) { ActorKind::Human } else { ActorKind::Technology };
            let name = format!("entrant-{entrants}");
            let id = net.add_actor(kind, &name, stances);
            let incumbents: Vec<_> =
                net.active_actors().map(|a| a.id).filter(|i| *i != id).collect();
            for _ in 0..3 {
                if let Some(other) = rng.pick(&incumbents).copied() {
                    net.align(id, other, churn.entry_alignment);
                }
            }
            admitted += 1;
        }
        budget -= 1.0;
    }
    net.relax(churn.relaxation_rate);
    admitted
}

/// E12's loop at one rate for seeds 1–8, 600 steps each: per-step entrant
/// counts and energy bits, then final stances, durability and the
/// remaining random stream.
fn replay_e12(rate: f64) {
    for seed in 1..=8u64 {
        let mut real = ActorNetwork::new(3);
        let mut reference = RefNetwork::new(3);
        for (kind, name, stances) in FOUNDERS {
            real.add_actor(kind, name, stances.to_vec());
            reference.add_actor(kind, name, stances.to_vec());
        }
        for (a, b, s) in TIES {
            real.align(ActorId(a), ActorId(b), s);
            reference.align(ActorId(a), ActorId(b), s);
        }
        let mut churn = ChurnProcess::new(rate);
        let mut entrants = 0;
        let mut rng = SimRng::seed_from_u64(seed).fork("e12");
        let mut reference_rng = rng.clone();
        for step in 0..600 {
            let admitted = churn.step(&mut real, &mut rng);
            let want = reference_step(&churn, &mut entrants, &mut reference, &mut reference_rng);
            assert_eq!(admitted, want, "rate {rate} seed {seed} step {step}");
            assert_eq!(
                real.tussle_energy().to_bits(),
                reference.tussle_energy().to_bits(),
                "rate {rate} seed {seed} step {step}"
            );
        }
        assert_eq!(churn.entrants(), entrants);
        for a in reference.active_actors() {
            assert_eq!(bits(real.stances(a.id)), bits(&a.stances), "seed {seed}: {:?}", a.id);
        }
        assert_eq!(real.durability().to_bits(), reference.durability().to_bits());
        assert_eq!(rng.unit().to_bits(), reference_rng.unit().to_bits(), "same draws consumed");
    }
}

#[test]
fn e12_replay_matches_at_rate_0() {
    replay_e12(0.0);
}

#[test]
fn e12_replay_matches_at_rate_0_05() {
    replay_e12(0.05);
}

#[test]
fn e12_replay_matches_at_rate_0_5() {
    replay_e12(0.5);
}

#[test]
fn e12_replay_matches_at_rate_2() {
    replay_e12(2.0);
}
