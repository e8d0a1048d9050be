//! Actors, alignment, durability, tussle energy.

use serde::{Deserialize, Serialize};

/// Index of an actor in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Usable as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Stance lanes per chunk. `relax` runs one fixed-width body over whole
/// chunks, whatever the issue count.
const LANES: usize = 4;

/// What kind of actor this is. The actor-network view "gives equal
/// attention" to humans and nonhumans; durability, though, is anchored by
/// technology (§II.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActorKind {
    /// People and groups of people.
    Human,
    /// Protocols, devices, deployed code — the durable anchors.
    Technology,
    /// Firms, regulators, standards bodies.
    Institution,
}

/// An actor. Its stances on the network's issue axes live in the network:
/// [`ActorNetwork::stances`].
#[derive(Debug, Clone, Serialize)]
pub struct Actor {
    /// Identifier.
    pub id: ActorId,
    /// Kind.
    pub kind: ActorKind,
    /// Display name.
    pub name: String,
    /// Whether the actor is still present.
    pub active: bool,
}

/// The actor network: actors with stances on a fixed set of issues
/// (-1.0 .. 1.0 per issue), plus pairwise alignment in `[0, 1]`.
///
/// Every stored alignment joins two active actors: removing an actor drops
/// its alignments, and aligning with a removed actor does nothing. Aligned
/// pairs are always visited in `(low id, high id)` order; that order fixes
/// every float the network computes (DESIGN.md §7).
#[derive(Debug, Clone, Default, Serialize)]
pub struct ActorNetwork {
    actors: Vec<Actor>,
    /// Stances in lane chunks, `issue_count.div_ceil(LANES)` per actor:
    /// actor `i`'s row starts at chunk `i * row_chunks()`. The lanes past
    /// `issue_count` are padding; they start at 0.0 and no accessor shows
    /// them.
    stances: Vec<[f64; LANES]>,
    /// `upper[a]` holds `(b, strength)` for every `b > a` aligned with `a`,
    /// ascending by `b`. Walking `a` upwards, then each list in order,
    /// visits pairs in `(low, high)` order.
    upper: Vec<Vec<(ActorId, f64)>>,
    /// Active ids, ascending.
    active: Vec<ActorId>,
    issue_count: usize,
}

impl ActorNetwork {
    /// A network with the given number of issue axes.
    pub fn new(issue_count: usize) -> Self {
        ActorNetwork { issue_count, ..Self::default() }
    }

    /// Number of issue axes every actor has a stance on.
    pub fn issue_count(&self) -> usize {
        self.issue_count
    }

    /// Lane chunks per stance row.
    fn row_chunks(&self) -> usize {
        self.issue_count.div_ceil(LANES)
    }

    /// Add an actor; stances are clamped to `[-1, 1]` and padded/truncated
    /// to the issue count.
    pub fn add_actor(&mut self, kind: ActorKind, name: &str, stances: Vec<f64>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        let row = self.stances.len();
        self.stances.resize(row + self.row_chunks(), [0.0; LANES]);
        let lanes = self.stances[row..].as_flattened_mut();
        for (lane, v) in lanes.iter_mut().zip(stances.into_iter().take(self.issue_count)) {
            *lane = v.clamp(-1.0, 1.0);
        }
        self.actors.push(Actor { id, kind, name: name.to_owned(), active: true });
        self.upper.push(Vec::new());
        self.active.push(id);
        id
    }

    /// Remove (deactivate) an actor and its alignments.
    pub fn remove_actor(&mut self, id: ActorId) {
        let Some(actor) = self.actors.get_mut(id.index()) else { return };
        if !std::mem::replace(&mut actor.active, false) {
            return;
        }
        self.upper[id.index()] = Vec::new();
        for ties in &mut self.upper[..id.index()] {
            if let Ok(i) = ties.binary_search_by_key(&id, |&(b, _)| b) {
                ties.remove(i);
            }
        }
        let i = self.active.binary_search(&id).expect("an active actor is listed");
        self.active.remove(i);
    }

    /// Actor accessor.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.index()]
    }

    /// An actor's stances, one per issue axis.
    pub fn stances(&self, id: ActorId) -> &[f64] {
        let chunks = self.row_chunks();
        let row = id.index() * chunks;
        &self.stances[row..row + chunks].as_flattened()[..self.issue_count]
    }

    fn is_active(&self, id: ActorId) -> bool {
        self.actors.get(id.index()).is_some_and(|a| a.active)
    }

    /// Ids of the active actors, ascending.
    pub(crate) fn active_ids(&self) -> &[ActorId] {
        &self.active
    }

    /// Active actors, ascending by id.
    pub fn active_actors(&self) -> impl Iterator<Item = &Actor> {
        self.active.iter().map(|id| &self.actors[id.index()])
    }

    /// Number of active actors.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    fn key(a: ActorId, b: ActorId) -> (ActorId, ActorId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Set the alignment strength between two actors. Aligning an actor
    /// with itself, or with a removed actor, does nothing.
    pub fn align(&mut self, a: ActorId, b: ActorId, strength: f64) {
        if a == b || !self.is_active(a) || !self.is_active(b) {
            return;
        }
        let (low, high) = Self::key(a, b);
        let strength = strength.clamp(0.0, 1.0);
        let ties = &mut self.upper[low.index()];
        match ties.binary_search_by_key(&high, |&(b, _)| b) {
            Ok(i) => ties[i].1 = strength,
            Err(i) => ties.insert(i, (high, strength)),
        }
    }

    /// Current alignment between two actors: 0 when none is recorded, which
    /// is always the case once either of them has been removed.
    pub fn alignment(&self, a: ActorId, b: ActorId) -> f64 {
        let (low, high) = Self::key(a, b);
        let Some(ties) = self.upper.get(low.index()) else { return 0.0 };
        ties.binary_search_by_key(&high, |&(b, _)| b).map_or(0.0, |i| ties[i].1)
    }

    /// Aligned pairs `(low, high, strength)` in `(low, high)` order.
    fn pairs(&self) -> impl Iterator<Item = (ActorId, ActorId, f64)> + '_ {
        self.upper
            .iter()
            .enumerate()
            .flat_map(|(a, ties)| ties.iter().map(move |&(b, s)| (ActorId(a as u32), b, s)))
    }

    /// Interest conflict between two actors: half the mean absolute stance
    /// gap, in `[0, 1]`.
    pub fn conflict(&self, a: ActorId, b: ActorId) -> f64 {
        let sa = self.stances(a);
        let sb = self.stances(b);
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
        for (a, b, s) in self.pairs() {
            let technology = |id: ActorId| self.actors[id.index()].kind == ActorKind::Technology;
            let w = if technology(a) || technology(b) { 2.0 } else { 1.0 };
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
        self.pairs().map(|(a, b, s)| s * self.conflict(a, b)).sum()
    }

    /// One relaxation step: aligned actors pull each other's stances
    /// together at `rate`, clamped to `[0, 1]` (tussles get resolved; the
    /// network hardens).
    ///
    /// Pairs run in `(low, high)` order. Lanes never mix, so each low
    /// actor's chunk is held in a local across all its ties, and the ties
    /// strengthen only once its lanes are done: every lane still sees the
    /// same operations in the same order (DESIGN.md §7). With `rate` and
    /// every strength in `[0, 1]`, a pull moves each stance at most half
    /// the rounded gap toward its partner, so both results stay between the
    /// two inputs and inside `[-1, 1]` with no clamp (DESIGN.md, "Actor-network
    /// layout").
    pub fn relax(&mut self, rate: f64) {
        let rate = rate.clamp(0.0, 1.0);
        let chunks = self.row_chunks();
        for (a, ties) in self.upper.iter_mut().enumerate() {
            // every tie's b is above a, so its row lies in `above`
            let (below, above) = self.stances.split_at_mut((a + 1) * chunks);
            for (j, chunk) in below[a * chunks..].iter_mut().enumerate() {
                let mut xa = *chunk;
                for &(b, s) in ties.iter() {
                    let xb = &mut above[(b.index() - a - 1) * chunks + j];
                    for (xa, xb) in xa.iter_mut().zip(xb) {
                        let pull = rate * s * (*xb - *xa) / 2.0;
                        *xa += pull;
                        *xb -= pull;
                    }
                }
                *chunk = xa;
            }
            // working together also strengthens the tie
            for (_, s) in ties.iter_mut() {
                *s = (*s + rate * 0.1).min(1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (ActorNetwork, ActorId, ActorId, ActorId) {
        let mut n = ActorNetwork::new(2);
        let user = n.add_actor(ActorKind::Human, "users", vec![1.0, 0.0]);
        let isp = n.add_actor(ActorKind::Institution, "isp", vec![-1.0, 0.0]);
        let ip = n.add_actor(ActorKind::Technology, "ip-protocol", vec![0.0, 0.0]);
        (n, user, isp, ip)
    }

    #[test]
    fn stances_clamped_and_padded() {
        let mut n = ActorNetwork::new(3);
        let a = n.add_actor(ActorKind::Human, "a", vec![5.0]);
        assert_eq!(n.stances(a), [1.0, 0.0, 0.0]);
    }

    #[test]
    fn conflict_measures_stance_gap() {
        let (n, user, isp, ip) = net();
        assert!((n.conflict(user, isp) - 0.5).abs() < 1e-12);
        assert!((n.conflict(user, ip) - 0.25).abs() < 1e-12);
        assert_eq!(n.conflict(user, user), 0.0);
    }

    #[test]
    fn durability_weights_technology_anchors() {
        let (mut n, user, isp, ip) = net();
        n.align(user, isp, 0.2);
        n.align(user, ip, 0.8);
        // weighted mean: (1*0.2 + 2*0.8) / 3 = 0.6
        assert!((n.durability() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_network_has_zero_metrics() {
        let n = ActorNetwork::new(2);
        assert_eq!(n.durability(), 0.0);
        assert_eq!(n.tussle_energy(), 0.0);
    }

    #[test]
    fn tussle_energy_counts_aligned_conflicts() {
        let (mut n, user, isp, _) = net();
        assert_eq!(n.tussle_energy(), 0.0, "no alignment, no tussle");
        n.align(user, isp, 1.0);
        assert!((n.tussle_energy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relaxation_resolves_tussles_and_hardens_ties() {
        let (mut n, user, isp, _) = net();
        n.align(user, isp, 0.5);
        let e0 = n.tussle_energy();
        let d0 = n.durability();
        for _ in 0..200 {
            n.relax(0.1);
        }
        assert!(n.tussle_energy() < e0 * 0.1, "tussle should drain");
        assert!(n.durability() > d0, "alignment should strengthen");
    }

    #[test]
    fn removed_actors_drop_out() {
        let (mut n, user, isp, ip) = net();
        n.align(user, isp, 0.5);
        n.align(user, ip, 0.5);
        n.remove_actor(isp);
        assert_eq!(n.active_count(), 2);
        assert_eq!(n.alignment(user, isp), 0.0);
        assert!(n.durability() > 0.0, "the tech tie survives");
    }

    #[test]
    fn self_alignment_is_ignored() {
        let (mut n, user, ..) = net();
        n.align(user, user, 1.0);
        assert_eq!(n.alignment(user, user), 0.0);
    }
}
