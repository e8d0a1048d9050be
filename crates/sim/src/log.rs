//! The bounded entry log a Profile-mode observation scope captures.
//!
//! Every reader of a profiled run — `trace`, `explain`, `diff`, collapsed
//! stacks and the Chrome and JSONL exporters — walks this log. It is one
//! arena: fixed-size slots in capture order, each holding an entry's time,
//! kind, depth, event stamp and where its strings sit, and one shared
//! buffer holding every topic, message, stakeholder and field string back
//! to back. Capturing an entry copies its borrowed parts into the buffers,
//! so a run allocates once per buffer growth step, not once per entry.
//! Readers borrow each entry as an [`EntryParts`]; [`EntryParts::to_entry`]
//! gives an owned [`TraceEntry`] to callers that keep one.

use crate::event::EventId;
use crate::time::SimTime;
use crate::trace::{EntryParts, Fields, SpanKind, TraceEntry};
use std::collections::VecDeque;

/// One retained entry: everything but its strings, which sit in the log's
/// `text` from `text_at` on, their lengths in its `lens` from `lens_at` on.
#[derive(Debug, Clone, Copy)]
struct Slot {
    time: SimTime,
    event: Option<EventId>,
    text_at: usize,
    lens_at: usize,
    /// Field pairs, after topic, message and the stakeholder if present.
    fields: usize,
    depth: u32,
    kind: SpanKind,
    has_stakeholder: bool,
}

/// A bounded log of trace entries, oldest first. Holds at most
/// [`TraceLog::CAPACITY`] entries and evicts the oldest first, counting
/// what it evicted in [`TraceLog::dropped`].
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    slots: VecDeque<Slot>,
    /// Each retained entry's strings back to back, in capture order: topic,
    /// message, stakeholder when present, then each field's key and value.
    /// Evicted entries leave a dead prefix until `evict_oldest` drops it.
    text: String,
    /// The byte length of each string in `text`, in the same order.
    lens: Vec<usize>,
    dropped: u64,
}

/// A log entry, borrowed from the log's buffers.
pub type LogEntry<'a> = EntryParts<'a, LogFields<'a>>;

impl TraceLog {
    /// How many entries the log retains.
    pub const CAPACITY: usize = 65_536;

    /// Capture one entry, evicting the oldest when the log is full.
    pub(crate) fn push<'a, F: Fields<'a>>(&mut self, entry: &EntryParts<'a, F>) {
        if self.slots.len() == Self::CAPACITY {
            self.evict_oldest();
        }
        self.slots.push_back(Slot {
            time: entry.time,
            event: entry.event,
            text_at: self.text.len(),
            lens_at: self.lens.len(),
            fields: entry.fields.len(),
            depth: entry.depth,
            kind: entry.kind,
            has_stakeholder: entry.stakeholder.is_some(),
        });
        let strings = [entry.topic, entry.message].into_iter().chain(entry.stakeholder);
        let fields = entry.fields.clone().flat_map(|(k, v)| [k, v]);
        for s in strings.chain(fields) {
            self.text.push_str(s);
            self.lens.push(s.len());
        }
    }

    /// Drop the oldest entry. Its strings stay behind as a dead prefix of
    /// the buffers until that prefix outgrows the live part; then both
    /// buffers drop it at once and every slot shifts down. Each byte moves
    /// at most once per doubling of the log's traffic, so memory tracks the
    /// retained entries at a constant amortized cost.
    fn evict_oldest(&mut self) {
        self.slots.pop_front();
        self.dropped += 1;
        let (dead_text, dead_lens) = self
            .slots
            .front()
            .map_or((self.text.len(), self.lens.len()), |s| (s.text_at, s.lens_at));
        if dead_text > self.text.len() - dead_text || dead_lens > self.lens.len() - dead_lens {
            self.text.drain(..dead_text);
            self.lens.drain(..dead_lens);
            for slot in &mut self.slots {
                slot.text_at -= dead_text;
                slot.lens_at -= dead_lens;
            }
        }
    }

    /// Retained entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the log retains nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Entries evicted because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes the string buffer holds, the evicted prefix not yet dropped
    /// included.
    pub fn text_bytes(&self) -> usize {
        self.text.len()
    }

    /// The retained entry at position `i`, oldest first.
    pub fn get(&self, i: usize) -> Option<LogEntry<'_>> {
        self.slots.get(i).map(|slot| self.view(slot))
    }

    /// Every retained entry, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = LogEntry<'_>> + ExactSizeIterator {
        self.slots.iter().map(|slot| self.view(slot))
    }

    fn view(&self, slot: &Slot) -> LogEntry<'_> {
        let mut strings =
            LogFields { text: &self.text[slot.text_at..], lens: &self.lens[slot.lens_at..] };
        let topic = strings.next_str();
        let message = strings.next_str();
        let stakeholder = slot.has_stakeholder.then(|| strings.next_str());
        strings.lens = &strings.lens[..2 * slot.fields];
        EntryParts {
            kind: slot.kind,
            time: slot.time,
            topic,
            message,
            stakeholder,
            fields: strings,
            depth: slot.depth,
            event: slot.event,
        }
    }
}

/// Build a log from owned entries, as a capture would have recorded them.
impl FromIterator<TraceEntry> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(entries: I) -> Self {
        let mut log = TraceLog::default();
        for entry in entries {
            log.push(&entry.parts());
        }
        log
    }
}

/// The key/value pairs of a [`LogEntry`], read in place from the log's
/// string buffer.
#[derive(Debug, Clone, Copy)]
pub struct LogFields<'a> {
    /// The buffer from the next string on.
    text: &'a str,
    /// The lengths of the strings left to read.
    lens: &'a [usize],
}

impl<'a> LogFields<'a> {
    fn next_str(&mut self) -> &'a str {
        let (s, rest) = self.text.split_at(self.lens[0]);
        self.text = rest;
        self.lens = &self.lens[1..];
        s
    }
}

impl<'a> Iterator for LogFields<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        if self.lens.is_empty() {
            return None;
        }
        Some((self.next_str(), self.next_str()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.lens.len() / 2;
        (n, Some(n))
    }
}

impl ExactSizeIterator for LogFields<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64, fields: usize, stakeholder: bool) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_micros(i),
            topic: format!("t{}", i % 7),
            message: "m".repeat((i % 5) as usize),
            kind: [SpanKind::Event, SpanKind::Enter, SpanKind::Exit][(i % 3) as usize],
            stakeholder: stakeholder.then(|| format!("s{i}")),
            fields: (0..fields).map(|f| (format!("k{f}"), format!("v{i}"))).collect(),
            depth: (i % 4) as u32,
            event: i.is_multiple_of(2).then_some(EventId(i)),
        }
    }

    #[test]
    fn entries_read_back_as_captured() {
        let entries: Vec<TraceEntry> =
            (0..40).map(|i| entry(i, (i % 3) as usize, i % 2 == 1)).collect();
        let log: TraceLog = entries.iter().cloned().collect();
        assert_eq!(log.len(), entries.len());
        assert_eq!(log.dropped(), 0);
        let back: Vec<TraceEntry> = log.iter().map(|e| e.to_entry()).collect();
        assert_eq!(back, entries);
        assert_eq!(log.get(7).map(|e| e.to_entry()), Some(entries[7].clone()));
        assert!(log.get(40).is_none());
        assert_eq!(log.iter().next_back().map(|e| e.time), Some(SimTime::from_micros(39)));
    }

    #[test]
    fn empty_strings_and_fields_read_back() {
        let blank = TraceEntry {
            time: SimTime::ZERO,
            topic: String::new(),
            message: String::new(),
            kind: SpanKind::Event,
            stakeholder: Some(String::new()),
            fields: vec![(String::new(), String::new()), ("é".into(), String::new())],
            depth: 0,
            event: None,
        };
        let log: TraceLog = [blank.clone(), blank.clone()].into_iter().collect();
        assert!(log.iter().all(|e| e.to_entry() == blank));
        assert_eq!(log.iter().next().map(|e| e.fields.len()), Some(2));
    }
}
