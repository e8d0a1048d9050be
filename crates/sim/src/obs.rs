//! Ambient per-run observation: cost counters, rolling digests, profiling.
//!
//! Experiments construct their engines internally, so callers that want to
//! know what a run *cost* (events processed, rng draws, per-hop forwards)
//! or what it *did* (the structured trace stream) cannot reach inside. This
//! module provides a thread-local observation scope: wrap a run in
//! [`begin`], and every instrumented operation on the same thread — trace
//! records, metric writes, rng draws, per-hop forwards, engine events — is
//! counted and folded into a rolling [`RunDigest`]. [`ObsGuard::finish`]
//! returns the [`RunRecord`].
//!
//! Three modes, mirroring the zero-cost-when-disabled contract:
//!
//! * **Off** — every hook is a single thread-local byte load and a branch.
//! * **Cost** — counters + rolling digest. No wall clocks and no
//!   allocation per hook: ambient spans hash their borrowed parts and the
//!   stakeholder fold keeps interned lanes; what sweeps and chaos
//!   campaigns use.
//! * **Profile** — additionally captures a bounded [`TraceLog`] of trace
//!   entries and per-topic virtual-time/wall-time attribution for
//!   `tussle-cli profile` / `tussle-cli trace`.
//!
//! Wall-clock fields are **never** folded into the digest — they are
//! nondeterministic by nature and the digest is the determinism check.

use crate::digest::{Fnv1a, RunDigest};
use crate::event::EventId;
use crate::log::TraceLog;
use crate::metrics::{Histogram, MetricsSnapshot, RunSeries, TimeSeries};
use crate::provenance::ProvenanceNode;
use crate::time::SimTime;
use crate::trace::{EntryParts, Fields, SpanKind};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// How much the ambient scope observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsMode {
    /// No scope active; hooks are a byte-load and a branch.
    Off,
    /// Count operations and fold them into a rolling digest.
    Cost,
    /// `Cost` plus trace-entry capture and per-topic time attribution.
    Profile,
}

const MODE_OFF: u8 = 0;
const MODE_COST: u8 = 1;
const MODE_PROFILE: u8 = 2;

/// How many provenance nodes a Profile scope retains: as many as entries.
const PROVENANCE_CAPACITY: usize = TraceLog::CAPACITY;

/// Per-topic cost attribution (Profile mode only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopicCost {
    /// Engine events (or substrate spans) attributed to this topic.
    pub events: u64,
    /// Virtual time attributed to this topic, in microseconds.
    pub virtual_micros: u64,
    /// Wall time attributed to this topic, in nanoseconds. Nondeterministic;
    /// excluded from digests and from serialized campaign output.
    pub wall_nanos: u64,
}

/// The scoreboard lane for work carrying no stakeholder annotation.
pub const UNATTRIBUTED: &str = "(unattributed)";

/// Per-stakeholder attribution, folded streaming from the trace stream in
/// both Cost and Profile modes. Every field is deterministic (virtual time
/// only), and the fold is purely derived from entries the digest already
/// covers — capturing it can never move a [`RunDigest`], exactly like wall
/// time and series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StakeholderCost {
    /// Trace entries attributed to this stakeholder (span edges + events).
    pub entries: u64,
    /// Spans entered under this stakeholder's lane.
    pub spans: u64,
    /// Point events attributed to this stakeholder.
    pub events: u64,
    /// Virtual time spent inside this stakeholder's spans, in microseconds.
    pub virtual_micros: u64,
}

impl StakeholderCost {
    /// Merge another lane's tallies into this one (all fields add).
    pub fn merge(&mut self, other: &StakeholderCost) {
        self.entries += other.entries;
        self.spans += other.spans;
        self.events += other.events;
        self.virtual_micros += other.virtual_micros;
    }
}

/// Everything one observation scope saw.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Engine events dispatched.
    pub events: u64,
    /// Randomness-consuming rng calls.
    pub rng_draws: u64,
    /// Per-hop packet forwards in `tussle-net`.
    pub forwards: u64,
    /// Span-enter edges recorded.
    pub spans_entered: u64,
    /// Span-exit edges recorded.
    pub spans_exited: u64,
    /// Total structured trace entries recorded (events + span edges).
    pub trace_entries: u64,
    /// Rolling digest over the trace stream, metric writes and the folded
    /// counters above. Equal digests ⇒ the runs did the same work.
    pub digest: RunDigest,
    /// Total wall time of the scope, in nanoseconds. Nondeterministic;
    /// never part of `digest`.
    pub wall_nanos: u64,
    /// Per-topic attribution (empty unless the scope ran in Profile mode).
    pub topics: BTreeMap<String, TopicCost>,
    /// Captured trace entries, oldest first, with the count the bound
    /// evicted (Profile mode only).
    pub ring: TraceLog,
    /// Causal provenance of dispatched events, oldest first (Profile mode
    /// only; bounded). Never digested — ids are positional bookkeeping.
    pub provenance: Vec<ProvenanceNode>,
    /// Provenance nodes evicted due to capacity.
    pub provenance_dropped: u64,
    /// Rolling digest value *after each absorbed trace entry* (Profile
    /// mode only): `prefix_digests[i]` is the digest state once entry `i`
    /// was absorbed. Two runs' streams first diverge at the smallest index
    /// where these differ — the binary-search key for `tussle-cli diff`.
    pub prefix_digests: Vec<u64>,
    /// Windowed virtual-time activity series (events / forwards / faults).
    /// Never digested — a derived projection of already-digested streams.
    pub series: RunSeries,
    /// Per-stakeholder attribution (Cost and Profile modes), keyed by the
    /// stakeholder annotation on trace entries — [`UNATTRIBUTED`] collects
    /// the rest. Deterministic; never digested (derived projection).
    pub stakeholders: BTreeMap<String, StakeholderCost>,
    /// Accumulated metrics written inside the scope (Profile mode only):
    /// counters sum, gauges keep the last write, histograms summarize.
    /// Every underlying write was already folded into the digest by the
    /// metric hooks, so this accumulation adds nothing to the hash.
    pub metrics: MetricsSnapshot,
}

struct ObsState {
    mode: ObsMode,
    events: u64,
    rng_draws: u64,
    forwards: u64,
    spans_entered: u64,
    spans_exited: u64,
    trace_entries: u64,
    hasher: Fnv1a,
    started: Instant,
    topics: BTreeMap<String, TopicCost>,
    ring: TraceLog,
    /// Open ambient spans, innermost last.
    open: Vec<OpenSpan>,
    /// The open spans' topics back to back, one reused buffer.
    open_topics: String,
    /// The event currently being dispatched (stamped onto ambient entries).
    current_event: Option<EventId>,
    provenance: VecDeque<ProvenanceNode>,
    provenance_dropped: u64,
    prefix: Vec<u64>,
    series_events: TimeSeries,
    series_forwards: TimeSeries,
    series_faults: TimeSeries,
    /// Per-stakeholder tallies in first-seen order, folded streaming in
    /// `absorb`; `into_record` sorts them by lane name.
    lanes: Vec<(String, StakeholderCost)>,
    /// Parallel lane stack over the span stream: (index into `lanes`,
    /// enter virtual micros). Nested spans without their own stakeholder
    /// annotation inherit the enclosing lane.
    stake_stack: Vec<(usize, u64)>,
    /// Accumulated metric writes (Profile mode only).
    acc_counters: BTreeMap<String, u64>,
    acc_gauges: BTreeMap<String, f64>,
    acc_hists: BTreeMap<String, Histogram>,
}

/// One open ambient span.
struct OpenSpan {
    /// Where the span's topic starts in `ObsState::open_topics`.
    topic_at: usize,
    entered_micros: u64,
    /// Set in Profile mode only, the one mode that reports wall time.
    entered_at: Option<Instant>,
}

impl ObsState {
    fn new(mode: ObsMode) -> Self {
        ObsState {
            mode,
            events: 0,
            rng_draws: 0,
            forwards: 0,
            spans_entered: 0,
            spans_exited: 0,
            trace_entries: 0,
            hasher: Fnv1a::new(),
            started: Instant::now(),
            topics: BTreeMap::new(),
            ring: TraceLog::default(),
            open: Vec::new(),
            open_topics: String::new(),
            current_event: None,
            provenance: VecDeque::new(),
            provenance_dropped: 0,
            prefix: Vec::new(),
            series_events: TimeSeries::new(),
            series_forwards: TimeSeries::new(),
            series_faults: TimeSeries::new(),
            lanes: Vec::new(),
            stake_stack: Vec::new(),
            acc_counters: BTreeMap::new(),
            acc_gauges: BTreeMap::new(),
            acc_hists: BTreeMap::new(),
        }
    }

    fn into_record(mut self) -> RunRecord {
        // Fold the counters into the digest so "same trace, different
        // amount of untraced work" still distinguishes runs. Wall times
        // stay out: they are nondeterministic.
        self.hasher.write_u8(0xC0);
        self.hasher.write_u64(self.events);
        self.hasher.write_u64(self.rng_draws);
        self.hasher.write_u64(self.forwards);
        self.hasher.write_u64(self.spans_entered);
        self.hasher.write_u64(self.spans_exited);
        self.hasher.write_u64(self.trace_entries);
        RunRecord {
            events: self.events,
            rng_draws: self.rng_draws,
            forwards: self.forwards,
            spans_entered: self.spans_entered,
            spans_exited: self.spans_exited,
            trace_entries: self.trace_entries,
            digest: RunDigest(self.hasher.finish()),
            wall_nanos: self.started.elapsed().as_nanos() as u64,
            topics: self.topics,
            ring: self.ring,
            provenance: self.provenance.into_iter().collect(),
            provenance_dropped: self.provenance_dropped,
            prefix_digests: self.prefix,
            series: RunSeries {
                events: self.series_events.summary(),
                forwards: self.series_forwards.summary(),
                faults: self.series_faults.summary(),
            },
            stakeholders: self.lanes.into_iter().collect(),
            metrics: MetricsSnapshot {
                counters: self.acc_counters,
                gauges: self.acc_gauges,
                histograms: self.acc_hists.into_iter().map(|(k, h)| (k, h.summary())).collect(),
                series: BTreeMap::new(),
            },
        }
    }

    /// Hash one entry's parts and fold it into the counters and the
    /// stakeholder lanes.
    fn absorb<'a, F: Fields<'a>>(&mut self, entry: &EntryParts<'a, F>) {
        entry.absorb_into(&mut self.hasher);
        self.trace_entries += 1;
        // Stakeholder attribution: a parallel lane stack over the span
        // stream. The fold is derived from entries the hasher already
        // absorbed, so none of this touches the digest. Every entry lands
        // in exactly one lane, so per-lane `entries` sum to
        // `trace_entries` — the conservation invariant the scoreboard
        // proptests pin.
        let micros = entry.time.as_micros();
        match entry.kind {
            SpanKind::Enter => {
                self.spans_entered += 1;
                let lane = self.resolve_lane(entry.stakeholder);
                let c = &mut self.lanes[lane].1;
                c.entries += 1;
                c.spans += 1;
                self.stake_stack.push((lane, micros));
            }
            SpanKind::Exit => {
                self.spans_exited += 1;
                // Exit entries never carry a stakeholder (see
                // `trace::Trace::span_exit`); the matching Enter's lane
                // owns the elapsed virtual time. A stray exit (possible in
                // hand-built streams) lands in the unattributed lane with
                // no elapsed time.
                let (lane, entered) = match self.stake_stack.pop() {
                    Some(top) => top,
                    None => (self.lane(UNATTRIBUTED), micros),
                };
                let c = &mut self.lanes[lane].1;
                c.entries += 1;
                c.virtual_micros += micros.saturating_sub(entered);
            }
            SpanKind::Event => {
                let lane = self.resolve_lane(entry.stakeholder);
                let c = &mut self.lanes[lane].1;
                c.entries += 1;
                c.events += 1;
            }
        }
    }

    /// The lane an entry lands in: its own annotation, otherwise the
    /// enclosing span's lane, otherwise [`UNATTRIBUTED`].
    fn resolve_lane(&mut self, stakeholder: Option<&str>) -> usize {
        match (stakeholder, self.stake_stack.last()) {
            (Some(name), _) => self.lane(name),
            (None, Some(&(lane, _))) => lane,
            (None, None) => self.lane(UNATTRIBUTED),
        }
    }

    /// Index of lane `name`, interned on first sight: runs carry a handful
    /// of lanes, so a scan beats cloning a key per entry.
    fn lane(&mut self, name: &str) -> usize {
        match self.lanes.iter().position(|(lane, _)| lane == name) {
            Some(i) => i,
            None => {
                self.lanes.push((name.to_owned(), StakeholderCost::default()));
                self.lanes.len() - 1
            }
        }
    }

    /// Profile mode: add one event or span to `topic`'s attribution. The
    /// key is allocated only the first time a topic is seen.
    fn attribute(&mut self, topic: &str, virtual_micros: u64, wall_nanos: u64) {
        if let Some(t) = self.topics.get_mut(topic) {
            t.events += 1;
            t.virtual_micros += virtual_micros;
            t.wall_nanos += wall_nanos;
        } else {
            self.topics
                .insert(topic.to_owned(), TopicCost { events: 1, virtual_micros, wall_nanos });
        }
    }

    /// Absorb an entry from its borrowed parts. Profile mode also copies
    /// them into the log, with the rolling digest after them —
    /// `Fnv1a::finish` is non-consuming, so the prefix stream costs one
    /// push.
    fn observe<'a, F: Fields<'a>>(&mut self, entry: &EntryParts<'a, F>) {
        self.absorb(entry);
        if self.mode == ObsMode::Profile {
            self.ring.push(entry);
            self.prefix.push(self.hasher.finish());
        }
    }
}

thread_local! {
    static MODE: Cell<u8> = const { Cell::new(MODE_OFF) };
    static STATE: RefCell<Option<ObsState>> = const { RefCell::new(None) };
}

fn mode_byte(mode: ObsMode) -> u8 {
    match mode {
        ObsMode::Off => MODE_OFF,
        ObsMode::Cost => MODE_COST,
        ObsMode::Profile => MODE_PROFILE,
    }
}

/// RAII scope for one observed run. Restores the previously active scope
/// (if any) on drop, including across panics, so nested scopes and
/// panic-isolated workers compose.
#[must_use = "dropping the guard immediately ends the observation scope"]
pub struct ObsGuard {
    prev: Option<ObsState>,
}

impl ObsGuard {
    /// End the scope and return everything it observed.
    pub fn finish(self) -> RunRecord {
        let record =
            STATE.with(|s| s.borrow_mut().take()).map(ObsState::into_record).unwrap_or_default();
        // `self` is dropped here, restoring the previous scope.
        record
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        MODE.with(|m| m.set(prev.as_ref().map_or(MODE_OFF, |s| mode_byte(s.mode))));
        STATE.with(|s| *s.borrow_mut() = prev);
    }
}

/// Open an observation scope on this thread. All instrumented operations
/// until the guard is finished (or dropped) are attributed to it.
pub fn begin(mode: ObsMode) -> ObsGuard {
    let prev = STATE.with(|s| s.borrow_mut().replace(ObsState::new(mode)));
    MODE.with(|m| m.set(mode_byte(mode)));
    ObsGuard { prev }
}

/// Whether any observation scope is active on this thread.
#[inline]
pub fn active() -> bool {
    MODE.with(|m| m.get()) != MODE_OFF
}

/// Whether a Profile-mode scope is active (callers use this to gate
/// wall-clock reads, which are not free).
#[inline]
pub fn profiling() -> bool {
    MODE.with(|m| m.get()) == MODE_PROFILE
}

#[inline]
fn with_state(f: impl FnOnce(&mut ObsState)) {
    if MODE.with(|m| m.get()) == MODE_OFF {
        return;
    }
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            f(st);
        }
    });
}

/// One engine event was dispatched.
#[inline]
pub fn on_event() {
    with_state(|s| s.events += 1);
}

/// One engine event was dispatched, with its provenance. Counts the event,
/// buckets it into the activity series, stamps subsequent ambient entries
/// with its id, and (Profile mode) captures the node in a bounded ring.
/// None of this touches the digest: ids and series are positional.
#[inline]
pub fn on_dispatch(node: &ProvenanceNode) {
    with_state(|s| {
        s.events += 1;
        s.series_events.record(node.time, 1);
        s.current_event = Some(node.id);
        if s.mode == ObsMode::Profile {
            if s.provenance.len() == PROVENANCE_CAPACITY {
                s.provenance.pop_front();
                s.provenance_dropped += 1;
            }
            s.provenance.push_back(node.clone());
        }
    });
}

/// The engine finished dispatching the current event.
#[inline]
pub fn on_dispatch_end() {
    with_state(|s| s.current_event = None);
}

/// One randomness-consuming rng call completed.
#[inline]
pub fn on_rng_draw() {
    with_state(|s| s.rng_draws += 1);
}

/// One packet hop was forwarded at virtual time `at`.
#[inline]
pub fn on_forward(at: SimTime) {
    with_state(|s| {
        s.forwards += 1;
        s.series_forwards.record(at, 1);
    });
}

/// A fault injector produced a non-pass outcome at virtual time `at`.
#[inline]
pub fn on_fault(at: SimTime) {
    with_state(|s| s.series_faults.record(at, 1));
}

/// Absorb a structured trace entry from its borrowed parts (called by
/// [`crate::Trace`] on every record), keeping the entry's own event stamp.
#[inline]
pub(crate) fn absorb<'a, F: Fields<'a>>(entry: &EntryParts<'a, F>) {
    with_state(|s| s.observe(entry));
}

/// A counter was incremented.
#[inline]
pub fn on_metric_counter(key: &str, n: u64) {
    with_state(|s| {
        s.hasher.write_u8(0xA1);
        s.hasher.write_str(key);
        s.hasher.write_u64(n);
        if s.mode == ObsMode::Profile {
            if let Some(v) = s.acc_counters.get_mut(key) {
                *v += n;
            } else {
                s.acc_counters.insert(key.to_owned(), n);
            }
        }
    });
}

/// A gauge was set.
#[inline]
pub fn on_metric_gauge(key: &str, value: f64) {
    with_state(|s| {
        s.hasher.write_u8(0xA2);
        s.hasher.write_str(key);
        s.hasher.write_f64(value);
        if s.mode == ObsMode::Profile {
            if let Some(v) = s.acc_gauges.get_mut(key) {
                *v = value;
            } else {
                s.acc_gauges.insert(key.to_owned(), value);
            }
        }
    });
}

/// A histogram sample was observed.
#[inline]
pub fn on_metric_observe(key: &str, value: f64) {
    with_state(|s| {
        s.hasher.write_u8(0xA3);
        s.hasher.write_str(key);
        s.hasher.write_f64(value);
        if s.mode == ObsMode::Profile {
            if let Some(h) = s.acc_hists.get_mut(key) {
                h.record(value);
            } else {
                let mut h = Histogram::new();
                h.record(value);
                s.acc_hists.insert(key.to_owned(), h);
            }
        }
    });
}

/// Attribute one dispatched engine event to `topic` (Profile mode; the
/// engine gates the wall-clock measurement on [`profiling`]).
#[inline]
pub fn on_handler(topic: &str, virtual_micros: u64, wall_nanos: u64) {
    with_state(|s| {
        if s.mode == ObsMode::Profile {
            s.attribute(topic, virtual_micros, wall_nanos);
        }
    });
}

/// Open an ambient span — for substrates (markets, policy engines, game
/// solvers) that run outside any engine-owned [`crate::Trace`]. The entry
/// is absorbed into the digest; in Profile mode the span also contributes
/// per-topic attribution when closed.
pub fn span_enter(time: SimTime, topic: &str, stakeholder: Option<&str>, fields: &[(&str, &str)]) {
    with_state(|s| {
        s.observe(&EntryParts {
            kind: SpanKind::Enter,
            time,
            topic,
            message: "",
            stakeholder,
            fields: fields.iter().copied(),
            depth: s.open.len() as u32,
            event: s.current_event,
        });
        let entered_at = (s.mode == ObsMode::Profile).then(Instant::now);
        s.open.push(OpenSpan {
            topic_at: s.open_topics.len(),
            entered_micros: time.as_micros(),
            entered_at,
        });
        s.open_topics.push_str(topic);
    });
}

/// Close the innermost ambient span. A call with no open span is a no-op,
/// so exits can never outnumber enters.
pub fn span_exit(time: SimTime, fields: &[(&str, &str)]) {
    with_state(|s| {
        let Some(span) = s.open.pop() else {
            return;
        };
        // Lend the topic buffer out while the state is borrowed mutably.
        let mut open_topics = std::mem::take(&mut s.open_topics);
        let topic = &open_topics[span.topic_at..];
        s.observe(&EntryParts {
            kind: SpanKind::Exit,
            time,
            topic,
            message: "",
            stakeholder: None,
            fields: fields.iter().copied(),
            depth: s.open.len() as u32,
            event: s.current_event,
        });
        if let Some(entered_at) = span.entered_at {
            s.attribute(
                topic,
                time.as_micros().saturating_sub(span.entered_micros),
                entered_at.elapsed().as_nanos() as u64,
            );
        }
        open_topics.truncate(span.topic_at);
        s.open_topics = open_topics;
    });
}

/// Record an ambient point event (digest-covered; captured in Profile mode).
pub fn event(time: SimTime, topic: &str, message: &str) {
    event_for(time, topic, None, message);
}

/// [`event`], attributed to a stakeholder lane: the entry feeds that lane
/// of the scoreboard fold (and its Perfetto pseudo-process) instead of
/// inheriting the enclosing span's lane.
pub fn event_for(time: SimTime, topic: &str, stakeholder: Option<&str>, message: &str) {
    with_state(|s| {
        s.observe(&EntryParts {
            kind: SpanKind::Event,
            time,
            topic,
            message,
            stakeholder,
            fields: std::iter::empty(),
            depth: s.open.len() as u32,
            event: s.current_event,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default() {
        assert!(!active());
        assert!(!profiling());
        // Hooks are no-ops without a scope.
        on_event();
        on_rng_draw();
        event(SimTime::ZERO, "x", "ignored");
    }

    #[test]
    fn cost_scope_counts_and_digests() {
        let g = begin(ObsMode::Cost);
        assert!(active());
        assert!(!profiling());
        on_event();
        on_event();
        on_rng_draw();
        on_forward(SimTime::from_micros(2));
        event(SimTime::from_micros(3), "econ.price", "posted");
        let rec = g.finish();
        assert!(!active());
        assert_eq!(rec.events, 2);
        assert_eq!(rec.rng_draws, 1);
        assert_eq!(rec.forwards, 1);
        assert_eq!(rec.trace_entries, 1);
        assert_ne!(rec.digest, RunDigest::empty());
        assert!(rec.ring.is_empty(), "Cost mode captures no entries");
    }

    #[test]
    fn identical_work_yields_identical_digest() {
        let run = || {
            let g = begin(ObsMode::Cost);
            on_event();
            on_metric_counter("pkts", 3);
            on_metric_gauge("price", 1.5);
            span_enter(SimTime::ZERO, "net.send", Some("isp"), &[("dst", "h2")]);
            span_exit(SimTime::from_micros(10), &[]);
            g.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.digest, b.digest);

        let g = begin(ObsMode::Cost);
        on_event();
        on_metric_counter("pkts", 4); // one byte of difference
        on_metric_gauge("price", 1.5);
        span_enter(SimTime::ZERO, "net.send", Some("isp"), &[("dst", "h2")]);
        span_exit(SimTime::from_micros(10), &[]);
        let c = g.finish();
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn digest_covers_untraced_counters() {
        let g = begin(ObsMode::Cost);
        on_rng_draw();
        let a = g.finish();
        let g = begin(ObsMode::Cost);
        on_rng_draw();
        on_rng_draw();
        let b = g.finish();
        assert_ne!(a.digest, b.digest, "draw counts fold into the digest");
    }

    #[test]
    fn profile_scope_captures_ring_and_topics() {
        let g = begin(ObsMode::Profile);
        assert!(profiling());
        span_enter(SimTime::from_micros(100), "econ.market", Some("provider"), &[]);
        event(SimTime::from_micros(150), "econ.price", "posted");
        span_exit(SimTime::from_micros(400), &[("rounds", "3")]);
        on_handler("net.forward", 25, 1_000);
        on_handler("net.forward", 5, 500);
        let rec = g.finish();
        assert_eq!(rec.ring.len(), 3);
        assert_eq!(rec.spans_entered, 1);
        assert_eq!(rec.spans_exited, 1);
        let market = &rec.topics["econ.market"];
        assert_eq!(market.events, 1);
        assert_eq!(market.virtual_micros, 300);
        let fwd = &rec.topics["net.forward"];
        assert_eq!((fwd.events, fwd.virtual_micros, fwd.wall_nanos), (2, 30, 1_500));
    }

    #[test]
    fn dispatch_hook_counts_series_and_captures_provenance() {
        let mk = |id: u64, parent: Option<u64>, t: u64| ProvenanceNode {
            id: EventId(id),
            parent: parent.map(EventId),
            time: SimTime::from_micros(t),
            span: None,
        };
        let g = begin(ObsMode::Profile);
        on_dispatch(&mk(0, None, 0));
        event(SimTime::ZERO, "t", "stamped");
        on_dispatch(&mk(1, Some(0), 2048));
        on_dispatch_end();
        on_forward(SimTime::from_micros(10));
        on_fault(SimTime::from_micros(10));
        let rec = g.finish();
        assert_eq!(rec.events, 2);
        assert_eq!(rec.provenance.len(), 2);
        assert_eq!(rec.provenance[1].parent, Some(EventId(0)));
        assert_eq!(rec.ring.get(0).unwrap().event, Some(EventId(0)), "ambient entry stamped");
        assert_eq!(rec.series.events.total, 2);
        assert_eq!(rec.series.events.counts, [1, 0, 1], "bucketed by virtual time");
        assert_eq!(rec.series.forwards.total, 1);
        assert_eq!(rec.series.faults.total, 1);
    }

    #[test]
    fn provenance_and_series_stay_out_of_the_digest() {
        let base = || {
            let g = begin(ObsMode::Cost);
            event(SimTime::from_micros(1), "t", "m");
            g.finish()
        };
        let a = base();
        let g = begin(ObsMode::Cost);
        // Same absorbed work plus series/fault activity that must not
        // perturb the digest (events counter folds in, so use on_fault,
        // which only feeds a series).
        on_fault(SimTime::from_micros(5));
        event(SimTime::from_micros(1), "t", "m");
        let b = g.finish();
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn prefix_digests_track_every_absorbed_entry() {
        let g = begin(ObsMode::Profile);
        event(SimTime::from_micros(1), "a", "1");
        event(SimTime::from_micros(2), "b", "2");
        event(SimTime::from_micros(3), "c", "3");
        let rec = g.finish();
        assert_eq!(rec.prefix_digests.len(), rec.ring.len());
        assert_eq!(rec.prefix_digests.len() as u64, rec.trace_entries);
        // Cost mode keeps the stream digest but skips the prefix capture.
        let g = begin(ObsMode::Cost);
        event(SimTime::from_micros(1), "a", "1");
        let rec = g.finish();
        assert!(rec.prefix_digests.is_empty());
    }

    #[test]
    fn equal_runs_share_prefixes_and_diverge_once() {
        let run = |third: &str| {
            let g = begin(ObsMode::Profile);
            event(SimTime::from_micros(1), "a", "1");
            event(SimTime::from_micros(2), "b", "2");
            event(SimTime::from_micros(3), "c", third);
            event(SimTime::from_micros(4), "d", "4");
            g.finish()
        };
        let a = run("same");
        let b = run("same");
        assert_eq!(a.prefix_digests, b.prefix_digests);
        let c = run("DIFFERENT");
        assert_eq!(a.prefix_digests[..2], c.prefix_digests[..2]);
        assert_ne!(a.prefix_digests[2], c.prefix_digests[2]);
        assert_ne!(a.prefix_digests[3], c.prefix_digests[3], "streams stay diverged");
    }

    #[test]
    fn nested_scopes_restore_outer() {
        let outer = begin(ObsMode::Cost);
        on_event();
        {
            let inner = begin(ObsMode::Profile);
            assert!(profiling());
            on_event();
            on_event();
            let rec = inner.finish();
            assert_eq!(rec.events, 2, "inner scope sees only its own work");
        }
        assert!(active());
        assert!(!profiling(), "outer Cost scope restored");
        on_event();
        let rec = outer.finish();
        assert_eq!(rec.events, 2, "outer scope never saw the inner events");
    }

    #[test]
    fn guard_restores_across_panic() {
        let result = std::panic::catch_unwind(|| {
            let _g = begin(ObsMode::Cost);
            panic!("boom");
        });
        assert!(result.is_err());
        assert!(!active(), "scope cleaned up during unwind");
    }

    #[test]
    fn unmatched_ambient_exit_is_noop() {
        let g = begin(ObsMode::Cost);
        span_exit(SimTime::ZERO, &[]);
        let rec = g.finish();
        assert_eq!(rec.spans_exited, 0);
        assert_eq!(rec.trace_entries, 0);
    }

    #[test]
    fn stakeholder_attribution_conserves_entries() {
        let g = begin(ObsMode::Cost);
        span_enter(SimTime::from_micros(0), "econ.market", Some("isp"), &[]);
        // Nested span with no annotation inherits the enclosing lane.
        span_enter(SimTime::from_micros(10), "econ.auction", None, &[]);
        event(SimTime::from_micros(20), "econ.bid", "posted");
        span_exit(SimTime::from_micros(30), &[]);
        span_exit(SimTime::from_micros(100), &[]);
        // Unattributed work outside any span.
        event(SimTime::from_micros(110), "net.tick", "idle");
        let rec = g.finish();
        let isp = &rec.stakeholders["isp"];
        assert_eq!(isp.entries, 5, "both spans, both exits, one event");
        assert_eq!(isp.spans, 2);
        assert_eq!(isp.events, 1);
        // inner span 10→30 plus outer span 0→100
        assert_eq!(isp.virtual_micros, (30 - 10) + 100);
        let other = &rec.stakeholders[UNATTRIBUTED];
        assert_eq!((other.entries, other.events), (1, 1));
        let total: u64 = rec.stakeholders.values().map(|c| c.entries).sum();
        assert_eq!(total, rec.trace_entries, "every entry lands in exactly one lane");
    }

    #[test]
    fn stakeholder_fold_stays_out_of_the_digest() {
        // The digest was already pinned before the scoreboard fold existed;
        // here we only need two identical streams to agree while their
        // lane maps are populated.
        let run = || {
            let g = begin(ObsMode::Cost);
            span_enter(SimTime::ZERO, "t", Some("user"), &[]);
            span_exit(SimTime::from_micros(5), &[]);
            g.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.stakeholders, b.stakeholders);
        assert_eq!(a.stakeholders["user"].virtual_micros, 5);
    }

    #[test]
    fn profile_scope_accumulates_metrics() {
        let g = begin(ObsMode::Profile);
        on_metric_counter("pkts", 3);
        on_metric_counter("pkts", 4);
        on_metric_gauge("price", 1.0);
        on_metric_gauge("price", 2.5);
        on_metric_observe("latency", 10.0);
        on_metric_observe("latency", 30.0);
        let rec = g.finish();
        assert_eq!(rec.metrics.counters["pkts"], 7);
        assert_eq!(rec.metrics.gauges["price"], 2.5, "gauges keep the last write");
        let h = &rec.metrics.histograms["latency"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 40.0);
        // Cost mode folds writes into the digest but does not accumulate.
        let g = begin(ObsMode::Cost);
        on_metric_counter("pkts", 1);
        let rec = g.finish();
        assert!(rec.metrics.is_empty());
    }

    #[test]
    fn wall_time_not_in_digest() {
        // Two runs with deliberately different wall times but identical
        // work must agree on the digest.
        let g = begin(ObsMode::Cost);
        on_event();
        let a = g.finish();
        let g = begin(ObsMode::Cost);
        std::thread::sleep(std::time::Duration::from_millis(2));
        on_event();
        let b = g.finish();
        assert_eq!(a.digest, b.digest);
        assert!(b.wall_nanos >= 2_000_000);
    }
}
