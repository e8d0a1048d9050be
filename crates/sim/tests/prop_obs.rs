//! Property tests for the observability layer: span nesting, digest
//! capacity-invariance, quantile monotonicity, and capture equivalence —
//! Cost mode hashes borrowed entry parts while Profile mode also copies
//! them into its `TraceLog`; both must observe the same stream, and the log
//! must hold what the owned-entry capture it replaced held.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use tussle_sim::obs::{self, ObsMode, RunRecord};
use tussle_sim::{
    EventId, Fnv1a, Histogram, ProvenanceNode, SimTime, SpanKind, StakeholderCost, Trace,
    TraceEntry, TraceLog, UNATTRIBUTED,
};

/// One random action against a trace: a plain event, a span enter, or a
/// span exit (which is a no-op when nothing is open).
#[derive(Debug, Clone)]
enum Action {
    Event(u64, String),
    Enter(u64, String),
    Exit(u64),
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    let action = prop_oneof![
        (0u64..10_000, "[a-z]{1,6}\\.[a-z]{1,6}").prop_map(|(t, topic)| Action::Event(t, topic)),
        (0u64..10_000, "[a-z]{1,6}\\.[a-z]{1,6}").prop_map(|(t, topic)| Action::Enter(t, topic)),
        (0u64..10_000).prop_map(Action::Exit),
    ];
    proptest::collection::vec(action, 0..200)
}

fn apply(trace: &mut Trace, actions: &[Action]) -> (u64, u64) {
    let (mut enters, mut exits) = (0u64, 0u64);
    for a in actions {
        match a {
            Action::Event(t, topic) => {
                trace.record(SimTime::from_micros(*t), topic, "event");
            }
            Action::Enter(t, topic) => {
                trace.span_enter(SimTime::from_micros(*t), topic, None, &[]);
                enters += 1;
            }
            Action::Exit(t) => {
                if trace.span_exit(SimTime::from_micros(*t), &[]).is_some() {
                    exits += 1;
                }
            }
        }
    }
    (enters, exits)
}

/// One step of a capture sequence: an ambient hook, a record on an
/// engine-style [`Trace`] (the owned-entry path into the scope), or an
/// engine event starting (`Some`) or ending (`None`) its dispatch, which
/// stamps the entries recorded meanwhile.
#[derive(Debug, Clone)]
enum Step {
    AmbientEnter(u64, String, Option<String>, Vec<(String, String)>),
    AmbientExit(u64, Vec<(String, String)>),
    AmbientEvent(u64, String, Option<String>, String),
    TraceRecord(u64, String, Option<String>, Vec<(String, String)>),
    TraceEnter(u64, String, Option<String>),
    TraceExit(u64),
    Dispatch(Option<u64>),
}

fn arb_lane() -> impl Strategy<Value = Option<String>> {
    (0u8..4).prop_map(|i| ["isp", "user", "gov"].get(usize::from(i)).map(|l| (*l).to_owned()))
}

fn arb_fields() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(("[a-c]{1,2}", "[a-z0-9]{0,4}"), 0..3)
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let topic = "[a-c]{1,3}\\.[a-c]{1,3}";
    let step = prop_oneof![
        (0u64..1_000, topic, arb_lane(), arb_fields())
            .prop_map(|(t, topic, lane, f)| Step::AmbientEnter(t, topic, lane, f)),
        (0u64..1_000, arb_fields()).prop_map(|(t, f)| Step::AmbientExit(t, f)),
        (0u64..1_000, topic, arb_lane(), "[a-z]{0,5}")
            .prop_map(|(t, topic, lane, m)| Step::AmbientEvent(t, topic, lane, m)),
        (0u64..1_000, topic, arb_lane(), arb_fields())
            .prop_map(|(t, topic, lane, f)| Step::TraceRecord(t, topic, lane, f)),
        (0u64..1_000, topic, arb_lane())
            .prop_map(|(t, topic, lane)| Step::TraceEnter(t, topic, lane)),
        (0u64..1_000).prop_map(Step::TraceExit),
        (0u8..3, 0u64..50).prop_map(|(open, id)| Step::Dispatch((open > 0).then_some(id))),
    ];
    proptest::collection::vec(step, 0..80)
}

fn borrowed(fields: &[(String, String)]) -> Vec<(&str, &str)> {
    fields.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()
}

/// Run `steps` under one observation scope in `mode`.
fn capture(mode: ObsMode, steps: &[Step]) -> RunRecord {
    let guard = obs::begin(mode);
    let mut trace = Trace::with_capacity(4096);
    for step in steps {
        match step {
            Step::AmbientEnter(t, topic, lane, f) => {
                obs::span_enter(SimTime::from_micros(*t), topic, lane.as_deref(), &borrowed(f));
            }
            Step::AmbientExit(t, f) => obs::span_exit(SimTime::from_micros(*t), &borrowed(f)),
            Step::AmbientEvent(t, topic, lane, m) => {
                obs::event_for(SimTime::from_micros(*t), topic, lane.as_deref(), m);
            }
            Step::TraceRecord(t, topic, lane, f) => {
                let at = SimTime::from_micros(*t);
                trace.record_fields(at, topic, lane.as_deref(), &borrowed(f), "rec");
            }
            Step::TraceEnter(t, topic, lane) => {
                trace.span_enter(SimTime::from_micros(*t), topic, lane.as_deref(), &[]);
            }
            Step::TraceExit(t) => {
                trace.span_exit(SimTime::from_micros(*t), &[]);
            }
            Step::Dispatch(Some(id)) => {
                let node = ProvenanceNode {
                    id: EventId(*id),
                    parent: None,
                    time: SimTime::ZERO,
                    span: None,
                };
                obs::on_dispatch(&node);
                trace.set_current_event(Some(EventId(*id)));
            }
            Step::Dispatch(None) => {
                obs::on_dispatch_end();
                trace.set_current_event(None);
            }
        }
    }
    guard.finish()
}

/// The Profile capture the log replaced, kept as its reference: one owned
/// `TraceEntry` per absorbed entry in a bounded `VecDeque`. Ambient entries
/// are built from their parts and stamped with the dispatching event;
/// entries recorded on a [`Trace`] are cloned with their own stamp.
#[derive(Debug, Default)]
struct OwnedRing {
    entries: VecDeque<TraceEntry>,
    dropped: u64,
}

impl OwnedRing {
    fn capture(&mut self, entry: TraceEntry) {
        if self.entries.len() == TraceLog::CAPACITY {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Replay `steps` as the owned-entry capture saw them, with no scope
    /// open: the ambient span stack and the dispatch stamp are kept here.
    fn replay(steps: &[Step]) -> OwnedRing {
        let mut ring = OwnedRing::default();
        let mut trace = Trace::with_capacity(4096);
        let mut open: Vec<String> = Vec::new();
        let mut current: Option<EventId> = None;
        let owned = |fields: &[(String, String)]| fields.to_vec();
        for step in steps {
            let entry =
                |kind, t: u64, topic: &str, message: &str, lane: Option<&String>, fields, depth| {
                    TraceEntry {
                        time: SimTime::from_micros(t),
                        topic: topic.to_owned(),
                        message: message.to_owned(),
                        kind,
                        stakeholder: lane.cloned(),
                        fields,
                        depth,
                        event: current,
                    }
                };
            let recorded = trace.len();
            match step {
                Step::AmbientEnter(t, topic, lane, f) => {
                    let depth = open.len() as u32;
                    ring.capture(entry(
                        SpanKind::Enter,
                        *t,
                        topic,
                        "",
                        lane.as_ref(),
                        owned(f),
                        depth,
                    ));
                    open.push(topic.clone());
                }
                Step::AmbientExit(t, f) => {
                    if let Some(topic) = open.pop() {
                        let depth = open.len() as u32;
                        ring.capture(entry(SpanKind::Exit, *t, &topic, "", None, owned(f), depth));
                    }
                }
                Step::AmbientEvent(t, topic, lane, m) => {
                    let depth = open.len() as u32;
                    ring.capture(entry(
                        SpanKind::Event,
                        *t,
                        topic,
                        m,
                        lane.as_ref(),
                        Vec::new(),
                        depth,
                    ));
                }
                Step::TraceRecord(t, topic, lane, f) => {
                    let at = SimTime::from_micros(*t);
                    trace.record_fields(at, topic, lane.as_deref(), &borrowed(f), "rec");
                }
                Step::TraceEnter(t, topic, lane) => {
                    trace.span_enter(SimTime::from_micros(*t), topic, lane.as_deref(), &[]);
                }
                Step::TraceExit(t) => {
                    trace.span_exit(SimTime::from_micros(*t), &[]);
                }
                Step::Dispatch(id) => {
                    current = id.map(EventId);
                    trace.set_current_event(current);
                }
            }
            // The Trace holds every entry it recorded (no step sequence
            // fills it), so a recorded step's entry is its newest.
            if trace.len() > recorded {
                ring.capture(trace.entries().last().expect("just recorded").clone());
            }
        }
        ring
    }
}

/// The stakeholder fold as `obs` computed it with one owned `String` per
/// lane-stack level, kept as the reference for the interned-lane fold.
fn string_lane_fold(ring: &[TraceEntry]) -> BTreeMap<String, StakeholderCost> {
    let mut stakeholders: BTreeMap<String, StakeholderCost> = BTreeMap::new();
    let mut stake_stack: Vec<(String, u64)> = Vec::new();
    for entry in ring {
        match entry.kind {
            SpanKind::Enter => {
                let lane = entry
                    .stakeholder
                    .clone()
                    .or_else(|| stake_stack.last().map(|(l, _)| l.clone()))
                    .unwrap_or_else(|| UNATTRIBUTED.to_owned());
                let c = stakeholders.entry(lane.clone()).or_default();
                c.entries += 1;
                c.spans += 1;
                stake_stack.push((lane, entry.time.as_micros()));
            }
            SpanKind::Exit => {
                let (lane, entered) = stake_stack
                    .pop()
                    .unwrap_or_else(|| (UNATTRIBUTED.to_owned(), entry.time.as_micros()));
                let c = stakeholders.entry(lane).or_default();
                c.entries += 1;
                c.virtual_micros += entry.time.as_micros().saturating_sub(entered);
            }
            SpanKind::Event => {
                let lane = entry
                    .stakeholder
                    .as_deref()
                    .or_else(|| stake_stack.last().map(|(l, _)| l.as_str()))
                    .unwrap_or(UNATTRIBUTED);
                if !stakeholders.contains_key(lane) {
                    stakeholders.insert(lane.to_owned(), StakeholderCost::default());
                }
                let c = stakeholders.get_mut(lane).expect("lane just ensured");
                c.entries += 1;
                c.events += 1;
            }
        }
    }
    stakeholders
}

proptest! {
    /// Cost mode (borrowed parts, interned lanes) and Profile mode (owned
    /// entries in the ring) observe the same stream: equal digests,
    /// counters and stakeholder folds. Profile's prefix digests are the
    /// ring replayed through `TraceEntry::absorb_into`, and its fold equals
    /// the owned-`String` reference fold over the ring.
    #[test]
    fn cost_and_profile_capture_agree(steps in arb_steps()) {
        let cost = capture(ObsMode::Cost, &steps);
        let profile = capture(ObsMode::Profile, &steps);
        prop_assert_eq!(cost.digest, profile.digest);
        prop_assert_eq!(cost.trace_entries, profile.trace_entries);
        prop_assert_eq!(cost.spans_entered, profile.spans_entered);
        prop_assert_eq!(cost.spans_exited, profile.spans_exited);
        prop_assert_eq!(&cost.stakeholders, &profile.stakeholders);

        prop_assert_eq!(profile.ring.len() as u64, profile.trace_entries);
        prop_assert_eq!(profile.prefix_digests.len(), profile.ring.len());
        let mut h = Fnv1a::new();
        for (i, entry) in profile.ring.iter().enumerate() {
            entry.absorb_into(&mut h);
            prop_assert_eq!(h.finish(), profile.prefix_digests[i], "prefix {}", i);
        }
        let entries: Vec<TraceEntry> = profile.ring.iter().map(|e| e.to_entry()).collect();
        prop_assert_eq!(&profile.stakeholders, &string_lane_fold(&entries));
    }

    /// The log holds exactly what the owned-entry capture held: the same
    /// entries, event stamps included, in the same order.
    #[test]
    fn log_matches_the_owned_entry_capture(steps in arb_steps()) {
        let profile = capture(ObsMode::Profile, &steps);
        let owned = OwnedRing::replay(&steps);
        let logged: Vec<TraceEntry> = profile.ring.iter().map(|e| e.to_entry()).collect();
        prop_assert_eq!(logged, Vec::from(owned.entries));
        prop_assert_eq!(profile.ring.dropped(), owned.dropped);
    }

    /// Span nesting is balanced under any action sequence: exits never
    /// outnumber enters, the open-span count is exactly the difference,
    /// and exiting with nothing open is a no-op rather than a panic.
    #[test]
    fn span_nesting_is_balanced(actions in arb_actions()) {
        let mut trace = Trace::with_capacity(100_000);
        let (enters, exits) = apply(&mut trace, &actions);
        prop_assert!(exits <= enters);
        prop_assert_eq!(trace.open_spans() as u64, enters - exits);
        // Draining every remaining span brings the count to zero, and one
        // more exit is still a no-op.
        let mut drained = 0u64;
        while trace.span_exit(SimTime::from_micros(10_000), &[]).is_some() {
            drained += 1;
        }
        prop_assert_eq!(drained, enters - exits);
        prop_assert_eq!(trace.open_spans(), 0);
        prop_assert!(trace.span_exit(SimTime::from_micros(10_000), &[]).is_none());
    }

    /// The run digest is a function of the *stream*, not the ring: any two
    /// capacities large enough to drop nothing produce the same digest.
    #[test]
    fn digest_is_invariant_under_non_dropping_capacity(
        actions in arb_actions(),
        extra in 0usize..1_000,
    ) {
        let n = actions.len().max(1);
        let mut small = Trace::with_capacity(n);
        let mut large = Trace::with_capacity(n + extra);
        apply(&mut small, &actions);
        apply(&mut large, &actions);
        prop_assert_eq!(small.dropped(), 0);
        prop_assert_eq!(large.dropped(), 0);
        prop_assert_eq!(small.digest(), large.digest());
    }

    /// The *stream-level* digest an observation scope accumulates absorbs
    /// entries as they are recorded, so it survives ring eviction: a
    /// capacity too small for the stream changes what the trace retains
    /// but not the run digest.
    #[test]
    fn obs_run_digest_survives_ring_eviction(
        times in proptest::collection::vec(0u64..1_000, 10..100),
    ) {
        let record_with_capacity = |capacity: usize| {
            let guard = tussle_sim::obs::begin(tussle_sim::obs::ObsMode::Cost);
            let mut trace = Trace::with_capacity(capacity);
            for t in &times {
                trace.record(SimTime::from_micros(*t), "evict.me", "x");
            }
            (trace.dropped(), guard.finish().digest)
        };
        let (dropped_tight, digest_tight) = record_with_capacity(4);
        let (dropped_roomy, digest_roomy) = record_with_capacity(100_000);
        prop_assert!(dropped_tight > 0, "capacity 4 must evict");
        prop_assert_eq!(dropped_roomy, 0);
        prop_assert_eq!(digest_tight, digest_roomy);
    }

    /// Histogram quantiles are monotone (p50 ≤ p95 ≤ max) and bracketed by
    /// min/max for any sample stream.
    #[test]
    fn histogram_quantiles_are_monotone(
        samples in proptest::collection::vec(-1e12f64..1e12, 1..500),
    ) {
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        let s = h.summary();
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert!(s.min <= s.p50, "min {} > p50 {}", s.min, s.p50);
        prop_assert!(s.p50 <= s.p95, "p50 {} > p95 {}", s.p50, s.p95);
        prop_assert!(s.p95 <= s.max, "p95 {} > max {}", s.p95, s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }
}
