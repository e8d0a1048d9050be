//! Bounded in-memory structured trace.
//!
//! The paper's "design what happens when transparency fails" principle
//! demands that the substrate can always explain what it did. The trace is
//! a bounded ring of structured entries — plain events plus nested
//! `span_enter`/`span_exit` pairs carrying a topic, an optional stakeholder
//! and key/value fields — that scenario code, diagnostics (traceroute-style
//! blame reports) and the `tussle-cli trace` command read back.
//!
//! Every entry recorded here is also mirrored into the ambient observation
//! layer ([`crate::obs`]) when a run scope is active, so per-run digests
//! cover the trace stream even when the ring later evicts entries.

use crate::digest::{Fnv1a, RunDigest};
use crate::event::EventId;
use crate::export::push_json_str;
use crate::obs;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;

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

/// A borrowed view of one trace entry's digested parts — everything but
/// the `event` stamp. [`EntryParts::absorb_into`] is the one per-entry
/// hashing recipe: owned entries ([`TraceEntry::absorb_into`]) and the
/// ambient span hooks, which build no entry outside Profile mode, share it.
pub(crate) struct EntryParts<'a, K, V> {
    pub kind: SpanKind,
    pub time: SimTime,
    pub topic: &'a str,
    pub message: &'a str,
    pub stakeholder: Option<&'a str>,
    pub fields: &'a [(K, V)],
    pub depth: u32,
}

impl<K: AsRef<str>, V: AsRef<str>> EntryParts<'_, K, V> {
    /// Absorb these parts into a hasher (the per-entry digest contribution).
    pub(crate) fn absorb_into(&self, h: &mut Fnv1a) {
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
        for (k, v) in self.fields {
            h.write_str(k.as_ref());
            h.write_str(v.as_ref());
        }
        h.write_u64(self.depth as u64);
    }

    /// The owned entry these parts describe, stamped with `event`.
    pub(crate) fn to_entry(&self, event: Option<EventId>) -> TraceEntry {
        TraceEntry {
            time: self.time,
            topic: self.topic.to_owned(),
            message: self.message.to_owned(),
            kind: self.kind,
            stakeholder: self.stakeholder.map(str::to_owned),
            fields: self
                .fields
                .iter()
                .map(|(k, v)| (k.as_ref().to_owned(), v.as_ref().to_owned()))
                .collect(),
            depth: self.depth,
            event,
        }
    }
}

impl TraceEntry {
    /// This entry's digested parts, borrowed.
    pub(crate) fn parts(&self) -> EntryParts<'_, String, String> {
        EntryParts {
            kind: self.kind,
            time: self.time,
            topic: &self.topic,
            message: &self.message,
            stakeholder: self.stakeholder.as_deref(),
            fields: &self.fields,
            depth: self.depth,
        }
    }

    /// Absorb this entry into a hasher (the per-entry digest contribution).
    /// Note `event` is excluded by design — see its field doc.
    pub fn absorb_into(&self, h: &mut Fnv1a) {
        self.parts().absorb_into(h);
    }

    /// Append this entry as one JSON object: exactly the bytes
    /// `serde_json::to_string(self)` renders (fields in declaration order,
    /// serde's string escaping), without lowering through a `Value` tree.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"time\":{},\"topic\":", self.time.as_micros());
        push_json_str(out, &self.topic, true);
        out.push_str(",\"message\":");
        push_json_str(out, &self.message, true);
        out.push_str(match self.kind {
            SpanKind::Event => ",\"kind\":\"Event\",\"stakeholder\":",
            SpanKind::Enter => ",\"kind\":\"Enter\",\"stakeholder\":",
            SpanKind::Exit => ",\"kind\":\"Exit\",\"stakeholder\":",
        });
        match &self.stakeholder {
            None => out.push_str("null"),
            Some(s) => push_json_str(out, s, true),
        }
        out.push_str(",\"fields\":[");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str(if i == 0 { "[" } else { ",[" });
            push_json_str(out, k, true);
            out.push(',');
            push_json_str(out, v, true);
            out.push(']');
        }
        let _ = write!(out, "],\"depth\":{},\"event\":", self.depth);
        match self.event {
            None => out.push_str("null}"),
            Some(e) => {
                let _ = write!(out, "{}}}", e.0);
            }
        }
    }

    /// Render as a single line: `time topic [stakeholder] message {k=v ...}`.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        let indent = "  ".repeat(self.depth as usize);
        let edge = match self.kind {
            SpanKind::Event => "·",
            SpanKind::Enter => ">",
            SpanKind::Exit => "<",
        };
        out.push_str(&format!(
            "{:>10} {indent}{edge} {}",
            format!("{}us", self.time.as_micros()),
            self.topic
        ));
        if let Some(s) = &self.stakeholder {
            out.push_str(&format!(" [{s}]"));
        }
        if !self.message.is_empty() {
            out.push_str(&format!(" {}", self.message));
        }
        if !self.fields.is_empty() {
            let kv: Vec<String> = self.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(" {{{}}}", kv.join(" ")));
        }
        if let Some(e) = self.event {
            out.push_str(&format!(" @{e}"));
        }
        out
    }
}

/// A bounded ring buffer of structured trace entries with a span stack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
    /// Topics of currently open spans, innermost last.
    open: Vec<String>,
    /// The event currently being dispatched by the owning engine, if any;
    /// stamped onto every entry recorded while it is set.
    current_event: Option<EventId>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::with_capacity(4096)
    }
}

impl Trace {
    /// A trace ring holding at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            enabled: true,
            dropped: 0,
            open: Vec::new(),
            current_event: None,
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
        obs::absorb_entry(&entry);
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
            e.absorb_into(&mut h);
        }
        RunDigest(h.finish())
    }
}

impl RunDigest {
    /// Digest of one engine run: the retained structured trace plus the
    /// final metrics snapshot. Two runs with equal digests recorded the
    /// same traces and ended with the same metrics — the one-line
    /// determinism check for code that owns its [`crate::Engine`].
    pub fn of_run(trace: &Trace, metrics: &crate::metrics::Metrics) -> RunDigest {
        let mut h = Fnv1a::new();
        h.write_u64(trace.entries.len() as u64);
        for e in &trace.entries {
            e.absorb_into(&mut h);
        }
        metrics.snapshot().absorb_into(&mut h);
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
        let msgs: Vec<_> = t.entries().map(|e| e.message.as_str()).collect();
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
        let msgs: Vec<_> = t.entries().map(|e| e.message.as_str()).collect();
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
        assert_eq!(entries[0].stakeholder.as_deref(), Some("provider"));
        assert_eq!(entries[1].depth, 1, "event inside a span is nested");
        assert_eq!(entries[2].depth, 1);
        assert_eq!(entries[3].kind, SpanKind::Exit);
        assert_eq!(entries[3].topic, "econ.switch");
        assert_eq!(entries[4].topic, "econ.market");
        assert_eq!(entries[4].fields, vec![("markup".to_owned(), "0.5".to_owned())]);
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
        let lines: Vec<String> = t.entries().map(TraceEntry::to_line).collect();
        assert!(lines[0].contains("> net.forward"), "{}", lines[0]);
        assert!(lines[0].contains("[isp]"));
        assert!(lines[0].contains("{dst=h3}"));
        assert!(lines[1].contains("· net.hop"));
        assert!(lines[1].starts_with("       4us"), "{}", lines[1]);
    }
}
