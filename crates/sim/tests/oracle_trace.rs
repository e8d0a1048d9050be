//! Reference oracle for the engine trace.
//!
//! `RefTrace` below is the `Trace` that kept one owned `TraceEntry` per
//! record in a `VecDeque`, verbatim but for four things: its name, no
//! serde derives, entries hashed through `TraceEntry::parts` (the owned
//! entry's own `absorb_into` delegated to it and is gone), and the hook
//! into the observation scope, which is gone from the library and becomes
//! `mirror`, the list of every entry the old trace handed the scope.
//! `ref_of_run` is its `RunDigest::of_run`, which hashed a
//! `MetricsSnapshot`.
//!
//! A proptest drives the `TraceLog`-backed `Trace` and the reference with
//! the same random sequence of records, span edges (stray exits
//! included), disables, enables, clears and event stamps, at capacities
//! from 1 to 64 so both eviction and the log's buffer compaction happen,
//! over strings with empty parts, duplicate field keys, JSON escapes and
//! multi-byte UTF-8. After every step the two must hold the same entries,
//! counts, span stack and digests. The same sequences run inside a Cost
//! and a Profile scope, whose records must agree, and the Profile log must
//! hold exactly the reference's mirror. A second proptest pins the live
//! metrics hash to the snapshot hash it replaced.
//!
//! ```sh
//! cargo test -p tussle-sim --test oracle_trace
//! ```

use proptest::prelude::*;
use std::collections::VecDeque;
use tussle_sim::obs::{self, ObsMode, RunRecord};
use tussle_sim::{EventId, Fnv1a, Metrics, RunDigest, SimTime, SpanKind, Trace, TraceEntry};

/// A bounded ring buffer of structured trace entries with a span stack.
#[derive(Debug, Clone)]
pub struct RefTrace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
    /// Topics of currently open spans, innermost last.
    open: Vec<String>,
    /// The event currently being dispatched by the owning engine, if any;
    /// stamped onto every entry recorded while it is set.
    current_event: Option<EventId>,
    /// Every entry handed to the observation scope, in order.
    mirror: Vec<TraceEntry>,
}

impl Default for RefTrace {
    fn default() -> Self {
        RefTrace::with_capacity(4096)
    }
}

impl RefTrace {
    /// A trace ring holding at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        RefTrace {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            enabled: true,
            dropped: 0,
            open: Vec::new(),
            current_event: None,
            mirror: Vec::new(),
        }
    }

    /// Set (or clear) the event stamped onto subsequently recorded entries.
    /// The engine calls this around every handler dispatch.
    pub fn set_current_event(&mut self, event: Option<EventId>) {
        self.current_event = event;
    }

    /// The topic of the innermost open span, if any. The engine captures
    /// this at schedule time so provenance records the span context a
    /// child event was scheduled from.
    pub fn current_span(&self) -> Option<&str> {
        self.open.last().map(String::as_str)
    }

    /// Disable recording (records and span edges are silently discarded).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Re-enable recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    fn push(&mut self, entry: TraceEntry) {
        self.mirror.push(entry.clone());
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Record a point event; evicts the oldest entry when full.
    pub fn record(&mut self, time: SimTime, topic: &str, message: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let depth = self.open.len() as u32;
        self.push(TraceEntry {
            time,
            topic: topic.to_owned(),
            message: message.into(),
            kind: SpanKind::Event,
            stakeholder: None,
            fields: Vec::new(),
            depth,
            event: self.current_event,
        });
    }

    /// Record a point event with a stakeholder and key/value fields.
    pub fn record_fields(
        &mut self,
        time: SimTime,
        topic: &str,
        stakeholder: Option<&str>,
        fields: &[(&str, &str)],
        message: impl Into<String>,
    ) {
        if !self.enabled {
            return;
        }
        let depth = self.open.len() as u32;
        self.push(TraceEntry {
            time,
            topic: topic.to_owned(),
            message: message.into(),
            kind: SpanKind::Event,
            stakeholder: stakeholder.map(str::to_owned),
            fields: fields.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            depth,
            event: self.current_event,
        });
    }

    /// Open a span: records an `Enter` edge and pushes `topic` onto the
    /// span stack. Every `Enter` must be closed by [`RefTrace::span_exit`];
    /// the stack discipline makes emitted traces balanced by construction.
    pub fn span_enter(
        &mut self,
        time: SimTime,
        topic: &str,
        stakeholder: Option<&str>,
        fields: &[(&str, &str)],
    ) {
        if !self.enabled {
            return;
        }
        let depth = self.open.len() as u32;
        self.push(TraceEntry {
            time,
            topic: topic.to_owned(),
            message: String::new(),
            kind: SpanKind::Enter,
            stakeholder: stakeholder.map(str::to_owned),
            fields: fields.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            depth,
            event: self.current_event,
        });
        self.open.push(topic.to_owned());
    }

    /// Close the innermost open span: records an `Exit` edge carrying the
    /// matching topic and returns it. A call with no open span records
    /// nothing and returns `None` — exits can never outnumber enters.
    pub fn span_exit(&mut self, time: SimTime, fields: &[(&str, &str)]) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let topic = self.open.pop()?;
        let depth = self.open.len() as u32;
        self.push(TraceEntry {
            time,
            topic: topic.clone(),
            message: String::new(),
            kind: SpanKind::Exit,
            stakeholder: None,
            fields: fields.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            depth,
            event: self.current_event,
        });
        Some(topic)
    }

    /// Number of currently open spans.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Entries whose topic starts with `prefix`.
    pub fn with_topic<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| e.topic.starts_with(prefix))
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clear all retained entries (the dropped count and span stack
    /// persist).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// FNV-1a digest over the retained structured entries. Invariant under
    /// ring-capacity changes that do not drop entries; see
    /// [`RunDigest::of_run`] for the trace + metrics combination.
    pub fn digest(&self) -> RunDigest {
        let mut h = Fnv1a::new();
        h.write_u64(self.entries.len() as u64);
        for e in &self.entries {
            e.parts().absorb_into(&mut h);
        }
        RunDigest(h.finish())
    }
}

/// Digest of one engine run: the retained structured trace plus the
/// final metrics snapshot. Two runs with equal digests recorded the
/// same traces and ended with the same metrics — the one-line
/// determinism check for code that owns its [`tussle_sim::Engine`].
pub fn ref_of_run(trace: &RefTrace, metrics: &Metrics) -> RunDigest {
    let mut h = Fnv1a::new();
    h.write_u64(trace.entries.len() as u64);
    for e in &trace.entries {
        e.parts().absorb_into(&mut h);
    }
    metrics.snapshot().absorb_into(&mut h);
    RunDigest(h.finish())
}

/// The strings every generated string is built from: empty, plain, JSON
/// escapes and multi-byte UTF-8.
const WORDS: [&str; 12] =
    ["", "k", "net.send", "a", "é", "日本", "🦀", "\"", "\\", "\n\t", "{\"k\":[1]}", "\u{7f}"];

/// Zero to three words back to back.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..WORDS.len(), 0..4)
        .prop_map(|picks| picks.iter().map(|&i| WORDS[i]).collect())
}

/// Field lists whose keys come from four words, so keys repeat.
fn fields() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(((0usize..4).prop_map(|i| WORDS[i].to_owned()), text()), 0..4)
}

fn stakeholder() -> impl Strategy<Value = Option<String>> {
    (0u8..3, text()).prop_map(|(some, s)| (some > 0).then_some(s))
}

/// A message as the caller passes it: an owned string, or `format_args!`
/// on the new trace against the `format!` the old one took.
#[derive(Debug, Clone)]
enum Message {
    Plain(String),
    Formatted(String, u64),
}

fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        text().prop_map(Message::Plain),
        (text(), 0u64..1_000).prop_map(|(s, n)| Message::Formatted(s, n)),
    ]
}

/// One call on a trace.
#[derive(Debug, Clone)]
enum Op {
    Record(u64, String, Message),
    RecordFields(u64, String, Option<String>, Vec<(String, String)>, Message),
    Enter(u64, String, Option<String>, Vec<(String, String)>),
    Exit(u64, Vec<(String, String)>),
    Disable,
    Enable,
    Clear,
    SetEvent(Option<u64>),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u64..1_000, text(), message()).prop_map(|(t, topic, m)| Op::Record(t, topic, m)),
        (0u64..1_000, text(), stakeholder(), fields(), message())
            .prop_map(|(t, topic, s, f, m)| Op::RecordFields(t, topic, s, f, m)),
        (0u64..1_000, text(), stakeholder(), fields())
            .prop_map(|(t, topic, s, f)| Op::Enter(t, topic, s, f)),
        (0u64..1_000, fields()).prop_map(|(t, f)| Op::Exit(t, f)),
        (0u8..4)
            .prop_map(|i| [Op::Disable, Op::Enable, Op::Clear, Op::Enable][usize::from(i)].clone()),
        (0u8..2, 0u64..50).prop_map(|(open, id)| Op::SetEvent((open > 0).then_some(id))),
    ];
    proptest::collection::vec(op, 0..48)
}

/// One metric write.
#[derive(Debug, Clone)]
enum MetricOp {
    Counter(usize, u64),
    Gauge(usize, f64),
    Observe(usize, f64),
}

fn sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e9f64..1e9,
        0.0f64..4.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
    ]
}

fn metric_ops() -> impl Strategy<Value = Vec<MetricOp>> {
    let key = 0usize..6;
    let op = prop_oneof![
        (key.clone(), 0u64..1_000).prop_map(|(k, n)| MetricOp::Counter(k, n)),
        (key.clone(), sample()).prop_map(|(k, v)| MetricOp::Gauge(k, v)),
        (key, sample()).prop_map(|(k, v)| MetricOp::Observe(k, v)),
    ];
    proptest::collection::vec(op, 0..40)
}

/// The sink `ops` write, with keys drawn from [`WORDS`].
fn metrics(ops: &[MetricOp]) -> Metrics {
    let mut m = Metrics::new();
    for op in ops {
        match *op {
            MetricOp::Counter(k, n) => m.add(WORDS[k], n),
            MetricOp::Gauge(k, v) => m.set_gauge(WORDS[k], v),
            MetricOp::Observe(k, v) => m.observe(WORDS[k], v),
        }
    }
    m
}

fn borrowed(fields: &[(String, String)]) -> Vec<(&str, &str)> {
    fields.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()
}

/// Apply `op` to both traces; span exits must return the same topic.
fn apply(op: &Op, new: &mut Trace, old: &mut RefTrace) {
    match op {
        Op::Record(t, topic, m) => {
            let at = SimTime::from_micros(*t);
            match m {
                Message::Plain(s) => {
                    new.record(at, topic, s);
                    old.record(at, topic, s.as_str());
                }
                Message::Formatted(s, n) => {
                    new.record(at, topic, format_args!("{s}#{n}"));
                    old.record(at, topic, format!("{s}#{n}"));
                }
            }
        }
        Op::RecordFields(t, topic, stakeholder, f, m) => {
            let (at, who, f) = (SimTime::from_micros(*t), stakeholder.as_deref(), borrowed(f));
            match m {
                Message::Plain(s) => {
                    new.record_fields(at, topic, who, &f, s.clone());
                    old.record_fields(at, topic, who, &f, s.clone());
                }
                Message::Formatted(s, n) => {
                    new.record_fields(at, topic, who, &f, format_args!("{s}#{n}"));
                    old.record_fields(at, topic, who, &f, format!("{s}#{n}"));
                }
            }
        }
        Op::Enter(t, topic, stakeholder, f) => {
            let (at, who, f) = (SimTime::from_micros(*t), stakeholder.as_deref(), borrowed(f));
            new.span_enter(at, topic, who, &f);
            old.span_enter(at, topic, who, &f);
        }
        Op::Exit(t, f) => {
            let (at, f) = (SimTime::from_micros(*t), borrowed(f));
            assert_eq!(new.span_exit(at, &f), old.span_exit(at, &f), "span_exit returns");
        }
        Op::Disable => {
            new.disable();
            old.disable();
        }
        Op::Enable => {
            new.enable();
            old.enable();
        }
        Op::Clear => {
            new.clear();
            old.clear();
        }
        Op::SetEvent(id) => {
            new.set_current_event(id.map(EventId));
            old.set_current_event(id.map(EventId));
        }
    }
}

/// Everything a reader can observe of the two traces must agree.
fn assert_same(new: &Trace, old: &RefTrace, metrics: &Metrics) {
    let entries: Vec<TraceEntry> = new.entries().map(|e| e.to_entry()).collect();
    let expected: Vec<TraceEntry> = old.entries().cloned().collect();
    assert_eq!(entries, expected);
    for prefix in ["", "net", "é"] {
        let matched: Vec<TraceEntry> = new.with_topic(prefix).map(|e| e.to_entry()).collect();
        let expected: Vec<TraceEntry> = old.with_topic(prefix).cloned().collect();
        assert_eq!(matched, expected, "with_topic({prefix:?})");
    }
    assert_eq!((new.len(), new.is_empty()), (old.len(), old.is_empty()));
    assert_eq!(new.dropped(), old.dropped());
    assert_eq!(new.open_spans(), old.open_spans());
    assert_eq!(new.current_span(), old.current_span());
    assert_eq!(new.digest(), old.digest());
    assert_eq!(RunDigest::of_run(new, metrics), ref_of_run(old, metrics));
}

/// Run `ops` on a fresh trace of `capacity` inside a scope in `mode`.
fn scoped(mode: ObsMode, capacity: usize, ops: &[Op]) -> (RunRecord, Trace) {
    let guard = obs::begin(mode);
    let mut new = Trace::with_capacity(capacity);
    let mut old = RefTrace::with_capacity(capacity);
    for op in ops {
        apply(op, &mut new, &mut old);
    }
    (guard.finish(), new)
}

proptest! {
    /// The log-backed trace holds, counts and digests exactly what the
    /// owned-entry trace did, step by step, and feeds an observation scope
    /// the same stream.
    #[test]
    fn the_trace_log_matches_the_owned_entry_trace(
        capacity in 1usize..65,
        ops in ops(),
        writes in metric_ops(),
    ) {
        let metrics = metrics(&writes);
        let mut new = Trace::with_capacity(capacity);
        let mut old = RefTrace::with_capacity(capacity);
        for op in &ops {
            apply(op, &mut new, &mut old);
            assert_same(&new, &old, &metrics);
        }

        let (cost, cost_trace) = scoped(ObsMode::Cost, capacity, &ops);
        let (profile, profile_trace) = scoped(ObsMode::Profile, capacity, &ops);
        assert_same(&cost_trace, &old, &metrics);
        assert_same(&profile_trace, &old, &metrics);
        prop_assert_eq!(cost.digest, profile.digest);
        prop_assert_eq!(cost.trace_entries, old.mirror.len() as u64);
        prop_assert_eq!(profile.trace_entries, old.mirror.len() as u64);
        prop_assert_eq!(&cost.stakeholders, &profile.stakeholders);
        let logged: Vec<TraceEntry> = profile.ring.iter().map(|e| e.to_entry()).collect();
        prop_assert_eq!(&logged, &old.mirror);
        // The scope absorbed the mirrored stream: its prefix digests replay
        // from the reference's entries.
        let mut h = Fnv1a::new();
        for (i, entry) in old.mirror.iter().enumerate() {
            entry.parts().absorb_into(&mut h);
            prop_assert_eq!(h.finish(), profile.prefix_digests[i], "prefix {}", i);
        }
    }

    /// Hashing the live metrics equals hashing their snapshot.
    #[test]
    fn live_metrics_hash_as_their_snapshot(writes in metric_ops()) {
        let m = metrics(&writes);
        let mut live = Fnv1a::new();
        m.absorb_into(&mut live);
        let mut snapshot = Fnv1a::new();
        m.snapshot().absorb_into(&mut snapshot);
        prop_assert_eq!(live.finish(), snapshot.finish());
    }
}
