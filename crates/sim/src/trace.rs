//! Bounded in-memory structured trace.
//!
//! The paper's "design what happens when transparency fails" principle
//! demands that the substrate can always explain what it did. The trace is
//! a bounded log of structured entries — plain events plus nested
//! `span_enter`/`span_exit` pairs carrying a topic, an optional stakeholder
//! and key/value fields — that scenario code, diagnostics (traceroute-style
//! blame reports) and the `tussle-cli trace` command read back. Entries
//! live in a [`TraceLog`] arena and are read in place as [`LogEntry`]
//! views; a message is rendered once, into a buffer the trace reuses, so
//! recording allocates nothing per entry.
//!
//! Every entry recorded here is also mirrored into the ambient observation
//! layer ([`crate::obs`]) when a run scope is active, so per-run digests
//! cover the trace stream even when the log later evicts entries.

use crate::digest::{Fnv1a, RunDigest};
use crate::event::EventId;
use crate::export::{push_json_str, push_u64};
use crate::log::{LogEntry, TraceLog};
use crate::obs;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::{Display, Write as _};

/// What kind of record a trace entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// A point event (the pre-span `record` shape).
    Event,
    /// The opening edge of a span.
    Enter,
    /// The closing edge of a span.
    Exit,
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Virtual time at which the entry was recorded.
    pub time: SimTime,
    /// Subsystem topic, e.g. `"net.forward"` or `"econ.market"`.
    pub topic: String,
    /// Human-readable message (empty for pure span edges).
    pub message: String,
    /// Event, span-enter or span-exit.
    pub kind: SpanKind,
    /// The tussle party this record is attributed to, if any.
    pub stakeholder: Option<String>,
    /// Structured key/value payload.
    pub fields: Vec<(String, String)>,
    /// Span nesting depth at which the entry was recorded (0 = top level;
    /// an `Enter` records the depth of the span it opens).
    pub depth: u32,
    /// The engine event whose handler recorded this entry, when known.
    /// Deliberately **not** digested: event ids are positional bookkeeping
    /// derived from the already-digested schedule order, so stamping them
    /// must never change a [`RunDigest`].
    pub event: Option<EventId>,
}

/// The key/value pairs of a borrowed entry: an iterator that knows its
/// length and can be walked more than once. A slice of owned pairs, a slice
/// of borrowed pairs and a [`crate::log::TraceLog`] slot all lend one.
pub trait Fields<'a>: Iterator<Item = (&'a str, &'a str)> + ExactSizeIterator + Clone {}

impl<'a, T: Iterator<Item = (&'a str, &'a str)> + ExactSizeIterator + Clone> Fields<'a> for T {}

/// One trace entry, borrowed. Owned entries ([`TraceEntry::parts`]), the
/// ambient span hooks, which build no entry, and the Profile-mode capture
/// log ([`crate::log::TraceLog::iter`]) all lend this form, so the
/// per-entry hashing recipe and each rendering are written once, here.
#[derive(Debug, Clone, Copy)]
pub struct EntryParts<'a, F> {
    /// Event, span-enter or span-exit.
    pub kind: SpanKind,
    /// Virtual time at which the entry was recorded.
    pub time: SimTime,
    /// Subsystem topic.
    pub topic: &'a str,
    /// Human-readable message (empty for pure span edges).
    pub message: &'a str,
    /// The tussle party this record is attributed to, if any.
    pub stakeholder: Option<&'a str>,
    /// Structured key/value payload.
    pub fields: F,
    /// Span nesting depth at which the entry was recorded.
    pub depth: u32,
    /// The engine event whose handler recorded this entry, when known.
    /// Rendered, never digested (see [`TraceEntry::event`]).
    pub event: Option<EventId>,
}

impl<'a, F: Fields<'a>> EntryParts<'a, F> {
    /// Absorb these parts into a hasher (the per-entry digest
    /// contribution). `event` is excluded by design.
    pub fn absorb_into(&self, h: &mut Fnv1a) {
        h.write_u8(match self.kind {
            SpanKind::Event => 0,
            SpanKind::Enter => 1,
            SpanKind::Exit => 2,
        });
        h.write_u64(self.time.as_micros());
        h.write_str(self.topic);
        h.write_str(self.message);
        match self.stakeholder {
            None => h.write_u8(0),
            Some(s) => {
                h.write_u8(1);
                h.write_str(s);
            }
        }
        h.write_u64(self.fields.len() as u64);
        for (k, v) in self.fields.clone() {
            h.write_str(k);
            h.write_str(v);
        }
        h.write_u64(self.depth as u64);
    }

    /// The owned entry these parts describe.
    pub fn to_entry(&self) -> TraceEntry {
        TraceEntry {
            time: self.time,
            topic: self.topic.to_owned(),
            message: self.message.to_owned(),
            kind: self.kind,
            stakeholder: self.stakeholder.map(str::to_owned),
            fields: self.fields.clone().map(|(k, v)| (k.to_owned(), v.to_owned())).collect(),
            depth: self.depth,
            event: self.event,
        }
    }

    /// Append this entry as one JSON object: exactly the bytes
    /// `serde_json::to_string` renders for the owned [`TraceEntry`] (fields
    /// in declaration order, serde's string escaping), without lowering
    /// through a `Value` tree.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"time\":");
        push_u64(out, self.time.as_micros());
        out.push_str(",\"topic\":");
        push_json_str(out, self.topic, true);
        out.push_str(",\"message\":");
        push_json_str(out, self.message, true);
        out.push_str(match self.kind {
            SpanKind::Event => ",\"kind\":\"Event\",\"stakeholder\":",
            SpanKind::Enter => ",\"kind\":\"Enter\",\"stakeholder\":",
            SpanKind::Exit => ",\"kind\":\"Exit\",\"stakeholder\":",
        });
        match self.stakeholder {
            None => out.push_str("null"),
            Some(s) => push_json_str(out, s, true),
        }
        out.push_str(",\"fields\":[");
        for (i, (k, v)) in self.fields.clone().enumerate() {
            out.push_str(if i == 0 { "[" } else { ",[" });
            push_json_str(out, k, true);
            out.push(',');
            push_json_str(out, v, true);
            out.push(']');
        }
        out.push_str("],\"depth\":");
        push_u64(out, u64::from(self.depth));
        out.push_str(",\"event\":");
        match self.event {
            None => out.push_str("null"),
            Some(e) => push_u64(out, e.0),
        }
        out.push('}');
    }

    /// Render as a single line: `time topic [stakeholder] message {k=v ...}`.
    pub fn to_line(&self) -> String {
        let edge = match self.kind {
            SpanKind::Event => "·",
            SpanKind::Enter => ">",
            SpanKind::Exit => "<",
        };
        let mut out = format!(
            "{:>10} {}{edge} {}",
            format!("{}us", self.time.as_micros()),
            "  ".repeat(self.depth as usize),
            self.topic
        );
        if let Some(s) = self.stakeholder {
            let _ = write!(out, " [{s}]");
        }
        if !self.message.is_empty() {
            let _ = write!(out, " {}", self.message);
        }
        let mut fields = self.fields.clone();
        if let Some((k, v)) = fields.next() {
            let _ = write!(out, " {{{k}={v}");
            for (k, v) in fields {
                let _ = write!(out, " {k}={v}");
            }
            out.push('}');
        }
        if let Some(e) = self.event {
            let _ = write!(out, " @{e}");
        }
        out
    }
}

impl TraceEntry {
    /// This entry, borrowed.
    pub fn parts(&self) -> EntryParts<'_, impl Fields<'_>> {
        EntryParts {
            kind: self.kind,
            time: self.time,
            topic: &self.topic,
            message: &self.message,
            stakeholder: self.stakeholder.as_deref(),
            fields: self.fields.iter().map(|(k, v)| (k.as_str(), v.as_str())),
            depth: self.depth,
            event: self.event,
        }
    }
}

/// A bounded log of structured trace entries with a span stack.
#[derive(Debug, Clone)]
pub struct Trace {
    log: TraceLog,
    enabled: bool,
    /// Topics of currently open spans, innermost last.
    open: Vec<String>,
    /// The event currently being dispatched by the owning engine, if any;
    /// stamped onto every entry recorded while it is set.
    current_event: Option<EventId>,
    /// The latest rendered message, one buffer reused by every record.
    message: String,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::with_capacity(4096)
    }
}

impl Trace {
    /// A trace retaining at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            log: TraceLog::with_capacity(capacity),
            enabled: true,
            open: Vec::new(),
            current_event: None,
            message: String::new(),
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

    /// Keep one entry, mirrored into the ambient scope, evicting the oldest
    /// when full. An event carries the message just rendered; span edges
    /// carry none.
    fn push(
        &mut self,
        kind: SpanKind,
        time: SimTime,
        topic: &str,
        stakeholder: Option<&str>,
        fields: &[(&str, &str)],
    ) {
        let entry = EntryParts {
            kind,
            time,
            topic,
            message: if kind == SpanKind::Event { &self.message } else { "" },
            stakeholder,
            fields: fields.iter().copied(),
            depth: self.open.len() as u32,
            event: self.current_event,
        };
        obs::absorb(&entry);
        self.log.push(&entry);
    }

    /// Record a point event; evicts the oldest entry when full.
    #[inline]
    pub fn record(&mut self, time: SimTime, topic: &str, message: impl Display) {
        self.record_fields(time, topic, None, &[], message);
    }

    /// Record a point event with a stakeholder and key/value fields. The
    /// message is rendered only when the trace is enabled.
    #[inline]
    pub fn record_fields(
        &mut self,
        time: SimTime,
        topic: &str,
        stakeholder: Option<&str>,
        fields: &[(&str, &str)],
        message: impl Display,
    ) {
        if self.enabled {
            self.message.clear();
            let _ = write!(self.message, "{message}");
            self.push(SpanKind::Event, time, topic, stakeholder, fields);
        }
    }

    /// Open a span: records an `Enter` edge and pushes `topic` onto the
    /// span stack. Every `Enter` must be closed by [`Trace::span_exit`];
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
        self.push(SpanKind::Enter, time, topic, stakeholder, fields);
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
        self.push(SpanKind::Exit, time, &topic, None, fields);
        Some(topic)
    }

    /// Number of currently open spans.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl DoubleEndedIterator<Item = LogEntry<'_>> + ExactSizeIterator {
        self.log.iter()
    }

    /// Entries whose topic starts with `prefix`.
    pub fn with_topic<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = LogEntry<'a>> {
        self.log.iter().filter(move |e| e.topic.starts_with(prefix))
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the trace retains nothing.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Entries evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.log.dropped()
    }

    /// Clear all retained entries (the dropped count and span stack
    /// persist).
    pub fn clear(&mut self) {
        self.log.clear();
    }

    /// Absorb the retained entries, count first, into a hasher.
    fn absorb_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.log.len() as u64);
        for e in self.log.iter() {
            e.absorb_into(h);
        }
    }

    /// FNV-1a digest over the retained structured entries. Invariant under
    /// capacity changes that do not drop entries; see
    /// [`RunDigest::of_run`] for the trace + metrics combination.
    pub fn digest(&self) -> RunDigest {
        let mut h = Fnv1a::new();
        self.absorb_into(&mut h);
        RunDigest(h.finish())
    }
}

impl RunDigest {
    /// Digest of one engine run: the retained structured trace plus the
    /// final metrics. Two runs with equal digests recorded the same traces
    /// and ended with the same metrics — the one-line determinism check
    /// for code that owns its [`crate::Engine`].
    pub fn of_run(trace: &Trace, metrics: &crate::metrics::Metrics) -> RunDigest {
        let mut h = Fnv1a::new();
        trace.absorb_into(&mut h);
        metrics.absorb_into(&mut h);
        RunDigest(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::with_capacity(8);
        t.record(SimTime::from_micros(1), "a", "first");
        t.record(SimTime::from_micros(2), "b", "second");
        let msgs: Vec<_> = t.entries().map(|e| e.message).collect();
        assert_eq!(msgs, ["first", "second"]);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::with_capacity(2);
        t.record(SimTime::ZERO, "x", "1");
        t.record(SimTime::ZERO, "x", "2");
        t.record(SimTime::ZERO, "x", "3");
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let msgs: Vec<_> = t.entries().map(|e| e.message).collect();
        assert_eq!(msgs, ["2", "3"]);
    }

    #[test]
    fn topic_filter_uses_prefix() {
        let mut t = Trace::default();
        t.record(SimTime::ZERO, "net.forward", "f");
        t.record(SimTime::ZERO, "net.drop", "d");
        t.record(SimTime::ZERO, "econ.churn", "c");
        assert_eq!(t.with_topic("net.").count(), 2);
        assert_eq!(t.with_topic("econ").count(), 1);
        assert_eq!(t.with_topic("zzz").count(), 0);
    }

    #[test]
    fn disable_discards() {
        let mut t = Trace::default();
        t.disable();
        t.record(SimTime::ZERO, "x", "hidden");
        assert!(t.is_empty());
        t.enable();
        t.record(SimTime::ZERO, "x", "seen");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn messages_render_only_when_enabled() {
        /// A message that counts how often it is rendered.
        struct Counted<'a>(&'a std::cell::Cell<u32>);
        impl Display for Counted<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("rendered")
            }
        }
        let renders = std::cell::Cell::new(0);
        let mut t = Trace::default();
        t.disable();
        t.record(SimTime::ZERO, "x", Counted(&renders));
        t.record_fields(SimTime::ZERO, "x", None, &[], Counted(&renders));
        assert_eq!(renders.get(), 0, "a disabled trace renders nothing");
        t.enable();
        t.record(SimTime::ZERO, "x", format_args!("{} {}", Counted(&renders), 7));
        assert_eq!(renders.get(), 1, "rendered once");
        assert_eq!(t.entries().next().unwrap().message, "rendered 7");
    }

    #[test]
    fn clear_keeps_dropped_count() {
        let mut t = Trace::with_capacity(1);
        t.record(SimTime::ZERO, "x", "1");
        t.record(SimTime::ZERO, "x", "2");
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn spans_nest_and_carry_structure() {
        let mut t = Trace::default();
        t.span_enter(SimTime::ZERO, "econ.market", Some("provider"), &[("months", "12")]);
        t.record(SimTime::from_micros(5), "econ.price", "posted");
        t.span_enter(SimTime::from_micros(6), "econ.switch", None, &[]);
        assert_eq!(t.open_spans(), 2);
        assert_eq!(t.span_exit(SimTime::from_micros(7), &[]).as_deref(), Some("econ.switch"));
        assert_eq!(
            t.span_exit(SimTime::from_micros(9), &[("markup", "0.5")]).as_deref(),
            Some("econ.market")
        );
        assert_eq!(t.open_spans(), 0);

        let entries: Vec<_> = t.entries().collect();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0].kind, SpanKind::Enter);
        assert_eq!(entries[0].depth, 0);
        assert_eq!(entries[0].stakeholder, Some("provider"));
        assert_eq!(entries[1].depth, 1, "event inside a span is nested");
        assert_eq!(entries[2].depth, 1);
        assert_eq!(entries[3].kind, SpanKind::Exit);
        assert_eq!(entries[3].topic, "econ.switch");
        assert_eq!(entries[4].topic, "econ.market");
        assert_eq!(entries[4].fields.collect::<Vec<_>>(), [("markup", "0.5")]);
    }

    #[test]
    fn unmatched_exit_is_a_noop() {
        let mut t = Trace::default();
        assert_eq!(t.span_exit(SimTime::ZERO, &[]), None);
        assert!(t.is_empty());
    }

    #[test]
    fn digest_detects_any_change() {
        let mut a = Trace::default();
        a.span_enter(SimTime::ZERO, "x", None, &[("k", "v")]);
        a.span_exit(SimTime::from_micros(1), &[]);
        let mut b = Trace::default();
        b.span_enter(SimTime::ZERO, "x", None, &[("k", "w")]);
        b.span_exit(SimTime::from_micros(1), &[]);
        assert_ne!(a.digest(), b.digest(), "field value change flips the digest");

        let mut c = Trace::default();
        c.span_enter(SimTime::ZERO, "x", None, &[("k", "v")]);
        c.span_exit(SimTime::from_micros(1), &[]);
        assert_eq!(a.digest(), c.digest(), "identical streams agree");
    }

    #[test]
    fn digest_is_capacity_invariant_when_nothing_drops() {
        let fill = |t: &mut Trace| {
            for i in 0..10 {
                t.record(SimTime::from_micros(i), "t", format!("m{i}"));
            }
        };
        let mut small = Trace::with_capacity(16);
        let mut large = Trace::with_capacity(4096);
        fill(&mut small);
        fill(&mut large);
        assert_eq!(small.digest(), large.digest());
    }

    #[test]
    fn event_stamp_is_rendered_but_never_digested() {
        let mut plain = Trace::default();
        plain.record(SimTime::from_micros(1), "t", "m");
        let mut stamped = Trace::default();
        stamped.set_current_event(Some(EventId(9)));
        stamped.record(SimTime::from_micros(1), "t", "m");
        assert_eq!(stamped.entries().next().unwrap().event, Some(EventId(9)));
        assert!(stamped.entries().next().unwrap().to_line().ends_with("@e9"));
        assert_eq!(plain.digest(), stamped.digest(), "ids are positional, not semantic");
        stamped.set_current_event(None);
        stamped.record(SimTime::from_micros(2), "t", "m2");
        assert_eq!(stamped.entries().nth(1).unwrap().event, None);
    }

    #[test]
    fn current_span_tracks_innermost_open_topic() {
        let mut t = Trace::default();
        assert_eq!(t.current_span(), None);
        t.span_enter(SimTime::ZERO, "outer", None, &[]);
        t.span_enter(SimTime::ZERO, "inner", None, &[]);
        assert_eq!(t.current_span(), Some("inner"));
        t.span_exit(SimTime::ZERO, &[]);
        assert_eq!(t.current_span(), Some("outer"));
    }

    #[test]
    fn entry_lines_render_structure() {
        let mut t = Trace::default();
        t.span_enter(SimTime::from_micros(3), "net.forward", Some("isp"), &[("dst", "h3")]);
        t.record(SimTime::from_micros(4), "net.hop", "r1 -> r2");
        let lines: Vec<String> = t.entries().map(|e| e.to_line()).collect();
        assert!(lines[0].contains("> net.forward"), "{}", lines[0]);
        assert!(lines[0].contains("[isp]"));
        assert!(lines[0].contains("{dst=h3}"));
        assert!(lines[1].contains("· net.hop"));
        assert!(lines[1].starts_with("       4us"), "{}", lines[1]);
    }
}
