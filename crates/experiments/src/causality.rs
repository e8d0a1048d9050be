//! Causal diagnosis over observed runs.
//!
//! Two questions an experiment author asks when a run surprises them:
//!
//! 1. **"Why did this event run?"** — [`explain`] replays one experiment
//!    under a Profile-mode observation scope and walks the captured
//!    provenance DAG from a chosen event back to the root injection that
//!    ultimately caused it (`tussle-cli explain`).
//! 2. **"Where did these two runs first part ways?"** — [`diff`] replays
//!    two configurations (seed and/or ambient fault intensity may differ)
//!    and bisects their per-entry prefix-digest streams to the first
//!    diverging trace entry, then prints the aligned context and the
//!    causal ancestry of the divergent event on each side
//!    (`tussle-cli diff`).
//!
//! The bisection leans on an invariant of the rolling digest: once two
//! streams diverge at entry *i*, every later prefix digest differs too
//! (FNV-1a is a rolling fold of everything before it, so re-collision
//! after divergence is as unlikely as a 64-bit hash collision). That makes
//! "is the prefix still equal at index *i*?" a monotone predicate, and the
//! first divergence binary-searchable in `O(log n)` digest probes instead
//! of an `O(n)` entry-by-entry walk.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tussle_sim::{obs, EventId, ProvenanceNode, RunRecord};

/// Why a causal query could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalityError {
    /// The id names no experiment in the registry.
    UnknownExperiment(String),
    /// The run dispatched no engine events, so there is nothing to explain.
    NoEvents(String),
    /// The requested event id was never dispatched in this run.
    UnknownEvent {
        /// Experiment id.
        id: String,
        /// The event that was asked about.
        event: EventId,
        /// How many events the run actually dispatched.
        events: u64,
    },
}

impl core::fmt::Display for CausalityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CausalityError::UnknownExperiment(id) => crate::UnknownExperiment::fmt_id(id, f),
            CausalityError::NoEvents(id) => {
                write!(f, "{id} dispatched no engine events at this seed; nothing to explain")
            }
            CausalityError::UnknownEvent { id, event, events } => {
                write!(
                    f,
                    "{id} never dispatched event {event}: the run has {events} events \
                     (e0..=e{})",
                    events.saturating_sub(1)
                )
            }
        }
    }
}

impl std::error::Error for CausalityError {}

/// Parse an event id as typed on a command line: `e12`, `E12` or `12`.
pub fn parse_event_id(s: &str) -> Result<EventId, String> {
    let digits = s.strip_prefix('e').or_else(|| s.strip_prefix('E')).unwrap_or(s);
    digits
        .parse::<u64>()
        .map(EventId)
        .map_err(|_| format!("bad event id '{s}': expected a number like 7 or e7"))
}

fn resolve(id: &str) -> Result<crate::ExperimentEntry, CausalityError> {
    crate::select(Some(&[id.to_owned()]))
        .map(|entries| entries[0])
        .map_err(|e| CausalityError::UnknownExperiment(e.0))
}

/// Replay one experiment under Profile observation at an ambient fault
/// intensity, through the chaos campaign's harness, returning the full
/// capture.
fn run_side((name, run): crate::ExperimentEntry, seed: u64, intensity: f64) -> RunRecord {
    let settings = obs::Settings { intensity, ..obs::ObsMode::Profile.into() };
    crate::run_scoped(name, run, seed, settings).1
}

/// One rung of a causal ancestry chain, oldest (root) first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AncestryHop {
    /// The event at this rung.
    pub event: EventId,
    /// Who scheduled it (`None` for root injections).
    pub parent: Option<EventId>,
    /// Virtual time at which it dispatched, in microseconds.
    pub time_micros: u64,
    /// The trace span open when it was scheduled, if any.
    pub span: Option<String>,
    /// Topic of the first trace entry the event emitted, if any.
    pub topic: Option<String>,
    /// Message of that entry.
    pub message: Option<String>,
}

impl AncestryHop {
    fn from_node(node: &ProvenanceNode, first_entry: Option<(&str, &str)>) -> Self {
        AncestryHop {
            event: node.id,
            parent: node.parent,
            time_micros: node.time.as_micros(),
            span: node.span.clone(),
            topic: first_entry.map(|(t, _)| t.to_owned()),
            message: first_entry.map(|(_, m)| m.to_owned()),
        }
    }

    fn render(&self) -> String {
        let mut line = format!("{} @{}us", self.event, self.time_micros);
        if let Some(span) = &self.span {
            line.push_str(&format!(" (scheduled inside span `{span}`)"));
        }
        if let Some(topic) = &self.topic {
            line.push_str(&format!(" — {topic}"));
            if let Some(msg) = &self.message {
                if !msg.is_empty() {
                    line.push_str(&format!(": {msg}"));
                }
            }
        }
        line
    }
}

/// The answer to "why did this event run?": the causal chain from the root
/// injection down to the asked-about event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Explanation {
    /// Experiment id.
    pub id: String,
    /// The replayed seed.
    pub seed: u64,
    /// The event that was asked about.
    pub target: EventId,
    /// The chain, root first, ending at `target`.
    pub hops: Vec<AncestryHop>,
    /// Whether the chain reaches an actual root (`parent: None`). `false`
    /// means an ancestor was evicted from the bounded provenance capture.
    pub complete: bool,
    /// Total events the run dispatched.
    pub events: u64,
}

impl Explanation {
    /// Render as a human-readable indented chain.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# {} explain {} (seed {}) — {} hop{} to {}\n",
            self.id,
            self.target,
            self.seed,
            self.hops.len(),
            if self.hops.len() == 1 { "" } else { "s" },
            if self.complete { "root" } else { "ring horizon (ancestors evicted)" },
        );
        for (depth, hop) in self.hops.iter().enumerate() {
            if depth == 0 {
                out.push_str(&format!("  {}\n", hop.render()));
            } else {
                out.push_str(&format!("  {}└─ {}\n", "   ".repeat(depth - 1), hop.render()));
            }
        }
        out
    }
}

/// Provenance nodes keyed by event id.
type NodeIndex<'a> = BTreeMap<u64, &'a ProvenanceNode>;
/// Each event's first emitted `(topic, message)` trace entry.
type FirstEntryIndex<'a> = BTreeMap<u64, (&'a str, &'a str)>;

/// Index the provenance capture by event id, and find each event's first
/// emitted trace entry for labeling.
fn index_run(record: &RunRecord) -> (NodeIndex<'_>, FirstEntryIndex<'_>) {
    let nodes: NodeIndex<'_> = record.provenance.iter().map(|n| (n.id.0, n)).collect();
    let mut first_entry: FirstEntryIndex<'_> = BTreeMap::new();
    for e in record.ring.iter() {
        if let Some(ev) = e.event {
            first_entry.entry(ev.0).or_insert((e.topic, e.message));
        }
    }
    (nodes, first_entry)
}

/// Walk the ancestry of `target` in a captured run, root first. Returns the
/// hops and whether the walk reached a true root. Ancestor ids strictly
/// decrease (`parent.0 < id.0` by construction), so the walk terminates in
/// at most `nodes.len()` steps even on a corrupted capture.
fn ancestry_of(
    nodes: &BTreeMap<u64, &ProvenanceNode>,
    first_entry: &BTreeMap<u64, (&str, &str)>,
    target: EventId,
) -> Option<(Vec<AncestryHop>, bool)> {
    let mut hops = Vec::new();
    let mut cursor = *nodes.get(&target.0)?;
    let mut complete = false;
    for _ in 0..=nodes.len() {
        hops.push(AncestryHop::from_node(cursor, first_entry.get(&cursor.id.0).copied()));
        match cursor.parent {
            None => {
                complete = true;
                break;
            }
            Some(parent) => match nodes.get(&parent.0) {
                Some(node) => cursor = node,
                // Parent evicted from the bounded ring: the chain is cut.
                None => break,
            },
        }
    }
    hops.reverse();
    Some((hops, complete))
}

/// Replay `id` at `seed` and explain why `event` ran: the causal chain of
/// scheduling decisions from a root injection down to it.
pub fn explain(id: &str, seed: u64, event: EventId) -> Result<Explanation, CausalityError> {
    let entry = resolve(id)?;
    let name = entry.0.to_owned();
    let record = run_side(entry, seed, 0.0);
    if record.events == 0 {
        return Err(CausalityError::NoEvents(name));
    }
    let (nodes, first_entry) = index_run(&record);
    let (hops, complete) = ancestry_of(&nodes, &first_entry, event)
        .ok_or(CausalityError::UnknownEvent { id: name.clone(), event, events: record.events })?;
    Ok(Explanation { id: name, seed, target: event, hops, complete, events: record.events })
}

/// Configuration for [`diff`]: one experiment, two run configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffConfig {
    /// Experiment id.
    pub id: String,
    /// Seed of side A.
    pub seed_a: u64,
    /// Seed of side B.
    pub seed_b: u64,
    /// Ambient fault intensity of side A, in `[0, 1]`.
    pub intensity_a: f64,
    /// Ambient fault intensity of side B, in `[0, 1]`.
    pub intensity_b: f64,
    /// Worker-thread cap for the two sides; `None` uses available
    /// parallelism and `Some(1)` runs them in order on the calling thread.
    /// The output is byte-identical either way — each side's observation
    /// mode and ambient intensity live in its own scope.
    pub threads: Option<usize>,
}

/// How many aligned entries of context precede the divergent entry.
const DIFF_CONTEXT: usize = 3;

/// One side of a divergence: the first divergent entry with its preceding
/// context and the causal ancestry of the event that emitted it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffSide {
    /// The first divergent entry, rendered (`None` if this side's stream
    /// ended before the divergence index — the other side has extra
    /// entries).
    pub entry: Option<String>,
    /// Up to [`DIFF_CONTEXT`] entries immediately before the divergence.
    pub context: Vec<String>,
    /// Causal chain (root first) of the event that emitted the divergent
    /// entry; empty when the entry was ambient (no dispatching event).
    pub ancestry: Vec<String>,
}

/// Where two runs' trace streams first part ways.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// Index of the first diverging absorbed trace entry (0-based, in
    /// absorb order).
    pub index: u64,
    /// Digest comparisons the bisection spent finding it.
    pub probes: u64,
    /// Side A at the divergence.
    pub a: DiffSide,
    /// Side B at the divergence.
    pub b: DiffSide,
}

/// The full report of a two-run comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffReport {
    /// Experiment id.
    pub id: String,
    /// Seed of side A.
    pub seed_a: u64,
    /// Seed of side B.
    pub seed_b: u64,
    /// Ambient fault intensity of side A.
    pub intensity_a: f64,
    /// Ambient fault intensity of side B.
    pub intensity_b: f64,
    /// Run digest of side A (hex).
    pub digest_a: String,
    /// Run digest of side B (hex).
    pub digest_b: String,
    /// Trace entries absorbed by side A.
    pub entries_a: u64,
    /// Trace entries absorbed by side B.
    pub entries_b: u64,
    /// `true` when the runs did identical observable work (equal digests).
    pub identical: bool,
    /// The first trace-stream divergence, when there is one.
    pub divergence: Option<Divergence>,
    /// `true` when the trace streams agree entry-for-entry but the digests
    /// still differ — untraced work (e.g. rng draw counts) diverged after
    /// the last common entry.
    pub tail_divergence: bool,
}

impl DiffReport {
    /// Render as a human-readable text block.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# {} diff — seed {} vs {} (intensity {} vs {})\n  a: {} entries, digest {}\n  \
             b: {} entries, digest {}\n",
            self.id,
            self.seed_a,
            self.seed_b,
            self.intensity_a,
            self.intensity_b,
            self.entries_a,
            self.digest_a,
            self.entries_b,
            self.digest_b,
        );
        if self.identical {
            out.push_str("  identical: the runs did the same observable work\n");
            return out;
        }
        match &self.divergence {
            Some(d) => {
                out.push_str(&format!(
                    "  first divergence at entry {} ({} digest probes)\n",
                    d.index, d.probes
                ));
                for (label, side) in [("a", &d.a), ("b", &d.b)] {
                    for c in &side.context {
                        out.push_str(&format!("  {label}| {c}\n"));
                    }
                    match &side.entry {
                        Some(e) => out.push_str(&format!("  {label}> {e}\n")),
                        None => out.push_str(&format!("  {label}> (stream ended here)\n")),
                    }
                    if !side.ancestry.is_empty() {
                        out.push_str(&format!("  {label}  caused by:\n"));
                        for hop in &side.ancestry {
                            out.push_str(&format!("  {label}    {hop}\n"));
                        }
                    }
                }
            }
            None => out.push_str(
                "  trace streams agree entry-for-entry; untraced work (counters) \
                 diverged after the last common entry\n",
            ),
        }
        out
    }
}

/// Find the first index where the two prefix-digest streams differ, by
/// binary search. Returns `None` when they agree over the shorter stream's
/// whole length. The second value counts digest comparisons.
///
/// Correctness rests on divergence being *sticky*: each prefix digest folds
/// the whole stream before it, so once the streams differ every later
/// prefix differs too (up to 64-bit hash collision), making "diverged at
/// index i" monotone in `i`.
fn first_divergence(a: &[u64], b: &[u64]) -> (Option<u64>, u64) {
    let n = a.len().min(b.len());
    if n == 0 {
        return (None, 0);
    }
    let mut probes = 1;
    if a[n - 1] == b[n - 1] {
        return (None, probes);
    }
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if a[mid] == b[mid] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (Some(lo as u64), probes)
}

/// Build one side's view of the divergence at absorbed-entry `index`.
fn side_at(record: &RunRecord, index: u64) -> DiffSide {
    // The capture log is bounded; absorbed-entry index i lives at log
    // slot i - dropped when it is still retained.
    let slot =
        |i: u64| i.checked_sub(record.ring.dropped()).and_then(|s| record.ring.get(s as usize));
    let entry = slot(index);
    let context = (index.saturating_sub(DIFF_CONTEXT as u64)..index)
        .filter_map(slot)
        .map(|e| e.to_line())
        .collect();
    let (nodes, first_entry) = index_run(record);
    let ancestry = entry
        .and_then(|e| e.event)
        .and_then(|ev| ancestry_of(&nodes, &first_entry, ev))
        .map(|(hops, _)| hops.iter().map(AncestryHop::render).collect())
        .unwrap_or_default();
    DiffSide { entry: entry.map(|e| e.to_line()), context, ancestry }
}

/// Run both sides of a [`DiffConfig`] and locate their first divergence.
pub fn diff(config: &DiffConfig) -> Result<DiffReport, CausalityError> {
    let entry = resolve(&config.id)?;
    let name = entry.0.to_owned();
    let sides = [(config.seed_a, config.intensity_a), (config.seed_b, config.intensity_b)];
    let [ra, rb]: [RunRecord; 2] =
        crate::grid::par_map(&sides, config.threads, |&(seed, i)| run_side(entry, seed, i))
            .try_into()
            .expect("two sides in, two records out");

    let identical = ra.digest == rb.digest;
    let (within, probes) = first_divergence(&ra.prefix_digests, &rb.prefix_digests);
    // Agreement over the shared prefix with unequal lengths means one
    // stream simply continued: the divergence is the first extra entry.
    let index = within.or_else(|| {
        (ra.trace_entries != rb.trace_entries).then(|| ra.trace_entries.min(rb.trace_entries))
    });
    let divergence = (!identical)
        .then(|| {
            index.map(|i| Divergence { index: i, probes, a: side_at(&ra, i), b: side_at(&rb, i) })
        })
        .flatten();
    let tail_divergence = !identical && divergence.is_none();

    Ok(DiffReport {
        id: name,
        seed_a: config.seed_a,
        seed_b: config.seed_b,
        intensity_a: config.intensity_a,
        intensity_b: config.intensity_b,
        digest_a: ra.digest.to_hex(),
        digest_b: rb.digest.to_hex(),
        entries_a: ra.trace_entries,
        entries_b: rb.trace_entries,
        identical,
        divergence,
        tail_divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tussle_sim::SimTime;

    #[test]
    fn event_ids_parse_in_both_spellings() {
        assert_eq!(parse_event_id("7").unwrap(), EventId(7));
        assert_eq!(parse_event_id("e7").unwrap(), EventId(7));
        assert_eq!(parse_event_id("E7").unwrap(), EventId(7));
        assert!(parse_event_id("seven").is_err());
        assert!(parse_event_id("e").is_err());
    }

    #[test]
    fn first_divergence_bisects_in_log_probes() {
        let a: Vec<u64> = (0..1000).collect();
        let mut b = a.clone();
        assert_eq!(first_divergence(&a, &b), (None, 1));
        for at in [0usize, 1, 499, 998, 999] {
            let mut c = b.clone();
            for v in c.iter_mut().skip(at) {
                *v ^= 0xDEAD_BEEF; // sticky divergence from `at` on
            }
            let (idx, probes) = first_divergence(&a, &c);
            assert_eq!(idx, Some(at as u64));
            assert!(probes <= 11, "1000 entries need ≤ 1 + ceil(log2 1000) probes, got {probes}");
        }
        b.push(42);
        assert_eq!(first_divergence(&a, &b).0, None, "shared prefix agrees");
        assert_eq!(first_divergence(&[], &[]), (None, 0));
    }

    proptest! {
        /// Ancestry walks terminate. On a forest numbered as the engine
        /// numbers it (a parent precedes its child) whose oldest `evicted`
        /// nodes fell out of the bounded capture, every retained node's
        /// chain is its parent walk, root first, ids strictly increasing,
        /// and complete exactly when it reaches a root. On a corrupted
        /// capture whose parents point anywhere, cycles included, the walk
        /// still stops within one hop per node.
        #[test]
        fn ancestry_terminates_at_a_root(
            parents in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..64),
            evicted in 0usize..16,
            corrupt in any::<bool>(),
        ) {
            let n = parents.len();
            let nodes: Vec<ProvenanceNode> = parents
                .iter()
                .enumerate()
                .map(|(i, &(scheduled, pick))| ProvenanceNode {
                    id: EventId(i as u64),
                    parent: match (scheduled, corrupt) {
                        (true, true) => Some(EventId(pick % n as u64)),
                        (true, false) if i > 0 => Some(EventId(pick % i as u64)),
                        _ => None,
                    },
                    time: SimTime::from_micros(i as u64),
                    span: None,
                })
                .collect();
            let first_kept = evicted.min(n - 1);
            let kept = &nodes[first_kept..];
            let index: NodeIndex<'_> = kept.iter().map(|node| (node.id.0, node)).collect();
            for node in kept {
                let (hops, complete) =
                    ancestry_of(&index, &BTreeMap::new(), node.id).expect("a retained node");
                prop_assert!(!hops.is_empty() && hops.len() <= kept.len() + 1);
                prop_assert_eq!(hops.last().map(|h| h.event), Some(node.id), "ends at the query");
                prop_assert_eq!(complete, hops[0].parent.is_none(), "complete iff at a root");
                for pair in hops.windows(2) {
                    prop_assert_eq!(pair[1].parent, Some(pair[0].event), "linked by parent");
                }
                if corrupt {
                    continue;
                }
                let mut walk = vec![node.id.0];
                let mut cursor = node;
                while let Some(parent) = cursor.parent.filter(|p| p.0 as usize >= first_kept) {
                    walk.push(parent.0);
                    cursor = &nodes[parent.0 as usize];
                }
                walk.reverse();
                prop_assert_eq!(hops.iter().map(|h| h.event.0).collect::<Vec<_>>(), walk);
                prop_assert!(hops.len() <= kept.len());
            }
            prop_assert!(ancestry_of(&index, &BTreeMap::new(), EventId(n as u64)).is_none());
        }
    }

    #[test]
    fn explain_walks_to_a_root_injection() {
        // E9's ladder replay chains rungs causally; the last event of the
        // monopoly ladder must trace back to a root injection.
        let record = run_side(("E9", crate::e09_encryption::run), 2002, 0.0);
        assert!(record.events >= 4, "E9 replays through the engine");
        let last = record.provenance.last().expect("provenance captured").id;
        let exp = explain("E9", 2002, last).unwrap();
        assert!(exp.complete, "chain reaches a root");
        assert_eq!(exp.hops.last().unwrap().event, last);
        assert_eq!(exp.hops[0].parent, None, "root first");
        assert!(exp.hops.len() >= 2, "the ladder escalated at least once");
        let text = exp.to_text();
        assert!(text.contains("hops to root"), "{text}");
        assert!(text.contains("└─"), "{text}");
    }

    #[test]
    fn explain_rejects_unknown_targets() {
        assert!(matches!(explain("E99", 1, EventId(0)), Err(CausalityError::UnknownExperiment(_))));
        let err = explain("E9", 2002, EventId(9_999)).unwrap_err();
        match err {
            CausalityError::UnknownEvent { ref id, event, events } => {
                assert_eq!(id, "E9");
                assert_eq!(event, EventId(9_999));
                assert!(events >= 4);
            }
            other => panic!("expected UnknownEvent, got {other:?}"),
        }
        assert!(err.to_string().contains("e9999"), "{err}");
        // Every registry experiment now schedules engine events, so
        // formerly loop-driven ids are explainable too.
        let exp = explain("E14", 2002, EventId(0)).unwrap();
        assert!(exp.events > 0);
    }

    fn e9_diff(seed_a: u64, seed_b: u64, threads: Option<usize>) -> DiffReport {
        diff(&DiffConfig {
            id: "E9".into(),
            seed_a,
            seed_b,
            intensity_a: 0.0,
            intensity_b: 0.0,
            threads,
        })
        .unwrap()
    }

    #[test]
    fn equal_seeds_diff_identical() {
        let report = e9_diff(2002, 2002, Some(1));
        assert!(report.identical);
        assert_eq!(report.digest_a, report.digest_b);
        assert!(report.divergence.is_none());
        assert!(!report.tail_divergence);
        assert!(report.to_text().contains("identical"), "{}", report.to_text());
    }

    #[test]
    fn seed_change_pinpoints_the_first_diverging_entry() {
        let report = e9_diff(2002, 2003, Some(1));
        assert!(!report.identical);
        let d = report.divergence.as_ref().expect("seeded lags diverge the trace stream");
        // The divergence is localized: everything before `index` is shared.
        assert!(d.index < report.entries_a.min(report.entries_b));
        assert!(d.probes >= 1);
        let (ea, eb) = (d.a.entry.as_ref().unwrap(), d.b.entry.as_ref().unwrap());
        assert_ne!(ea, eb, "the divergent entries differ textually");
        let text = report.to_text();
        assert!(text.contains("first divergence at entry"), "{text}");
    }

    #[test]
    fn diff_is_byte_identical_across_thread_counts() {
        let one = e9_diff(2002, 2003, Some(1));
        let two = e9_diff(2002, 2003, Some(2));
        let eight = e9_diff(2002, 2003, Some(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
        assert_eq!(serde_json::to_string(&one).unwrap(), serde_json::to_string(&eight).unwrap());
    }

    #[test]
    fn intensity_change_diverges_network_experiments() {
        let report = diff(&DiffConfig {
            id: "E4".into(),
            seed_a: 7,
            seed_b: 7,
            intensity_a: 0.0,
            intensity_b: 0.8,
            threads: Some(1),
        })
        .unwrap();
        assert!(!report.identical, "ambient faults change E4's observable work");
    }

    #[test]
    fn divergent_entries_carry_their_causal_ancestry() {
        let report = e9_diff(2002, 2003, Some(1));
        let d = report.divergence.expect("divergence found");
        // E9's trace entries are emitted inside engine events, so at least
        // one side's divergent entry should explain itself causally.
        assert!(
            !d.a.ancestry.is_empty() || !d.b.ancestry.is_empty(),
            "no ancestry on either side: a={:?} b={:?}",
            d.a.ancestry,
            d.b.ancestry
        );
    }
}
