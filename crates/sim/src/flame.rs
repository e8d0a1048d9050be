//! Collapsed-stack (flamegraph) rendering of span captures.
//!
//! Folds a structured trace stream — `Enter`/`Exit` span edges with point
//! events in between — into the collapsed-stack format consumed by
//! `inferno` and Brendan Gregg's `flamegraph.pl`: one line per unique
//! frame path, `root;parent;child <value>`, where the value is the frame's
//! *self* time in virtual microseconds. Virtual time is deterministic, so
//! collapsed output is byte-stable across runs and thread counts — unlike
//! wall-clock profiles, it can be snapshot-tested.

use crate::log::TraceLog;
use crate::time::SimTime;
use crate::trace::SpanKind;
use std::collections::BTreeMap;

struct Frame<'a> {
    /// Borrowed from the log.
    topic: &'a str,
    entered: SimTime,
    /// Virtual time already attributed to children of this frame.
    child_micros: u64,
}

/// Fold span edges into `(path, self_micros)` pairs, lexicographically
/// sorted. `root` becomes the first path segment so per-experiment outputs
/// stay distinguishable when concatenated. Unbalanced streams are
/// tolerated: spans still open at the end of the stream are closed at the
/// last entry's timestamp, and stray exits are ignored.
pub fn collapse(entries: &TraceLog, root: &str) -> Vec<(String, u64)> {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut stack: Vec<Frame<'_>> = Vec::new();
    let end = entries.iter().next_back().map_or(SimTime::ZERO, |e| e.time);
    // One path buffer, reused: a key is allocated only for a new path.
    let mut path = String::new();

    let mut close = |stack: &mut Vec<Frame<'_>>, at: SimTime| {
        let Some(frame) = stack.pop() else {
            return;
        };
        let total = at.as_micros().saturating_sub(frame.entered.as_micros());
        let self_micros = total.saturating_sub(frame.child_micros);
        path.clear();
        path.push_str(root);
        for f in stack.iter().chain([&frame]) {
            path.push(';');
            path.push_str(f.topic);
        }
        match totals.get_mut(path.as_str()) {
            Some(t) => *t += self_micros,
            None => {
                totals.insert(path.clone(), self_micros);
            }
        }
        if let Some(parent) = stack.last_mut() {
            parent.child_micros += total;
        }
    };

    for e in entries.iter() {
        match e.kind {
            SpanKind::Enter => {
                stack.push(Frame { topic: e.topic, entered: e.time, child_micros: 0 });
            }
            SpanKind::Exit => close(&mut stack, e.time),
            SpanKind::Event => {}
        }
    }
    while !stack.is_empty() {
        close(&mut stack, end);
    }
    // Paths with zero self time are kept: the frame existed, and dropping
    // it would make output shape depend on timing resolution.
    totals.into_iter().collect()
}

/// Render [`collapse`] as collapsed-stack text: one `path value` line per
/// frame path, trailing newline included (empty string for spanless input).
pub fn to_collapsed(entries: &TraceLog, root: &str) -> String {
    let mut out = String::new();
    for (path, micros) in collapse(entries, root) {
        out.push_str(&format!("{path} {micros}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEntry;

    fn edge(kind: SpanKind, topic: &str, t: u64) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_micros(t),
            topic: topic.to_owned(),
            message: String::new(),
            kind,
            stakeholder: None,
            fields: Vec::new(),
            depth: 0,
            event: None,
        }
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        // outer: 0..100, inner: 20..50 → outer self 70, inner self 30.
        let entries: TraceLog = [
            edge(SpanKind::Enter, "outer", 0),
            edge(SpanKind::Enter, "inner", 20),
            edge(SpanKind::Exit, "inner", 50),
            edge(SpanKind::Exit, "outer", 100),
        ]
        .into_iter()
        .collect();
        let folded = collapse(&entries, "E1");
        assert_eq!(folded, [("E1;outer".to_owned(), 70), ("E1;outer;inner".to_owned(), 30)]);
        let text = to_collapsed(&entries, "E1");
        assert_eq!(text, "E1;outer 70\nE1;outer;inner 30\n");
    }

    #[test]
    fn repeated_paths_accumulate() {
        let entries: TraceLog = [
            edge(SpanKind::Enter, "a", 0),
            edge(SpanKind::Exit, "a", 10),
            edge(SpanKind::Enter, "a", 20),
            edge(SpanKind::Exit, "a", 25),
        ]
        .into_iter()
        .collect();
        assert_eq!(collapse(&entries, "r"), [("r;a".to_owned(), 15)]);
    }

    #[test]
    fn unbalanced_streams_are_tolerated() {
        // A stray exit, then a span left open at the end of the stream.
        let entries: TraceLog = [
            edge(SpanKind::Exit, "ghost", 1),
            edge(SpanKind::Enter, "open", 10),
            edge(SpanKind::Event, "tick", 40),
        ]
        .into_iter()
        .collect();
        assert_eq!(collapse(&entries, "r"), [("r;open".to_owned(), 30)]);
    }

    #[test]
    fn zero_self_time_frames_are_kept() {
        let entries: TraceLog = [
            edge(SpanKind::Enter, "a", 5),
            edge(SpanKind::Enter, "b", 5),
            edge(SpanKind::Exit, "b", 9),
            edge(SpanKind::Exit, "a", 9),
        ]
        .into_iter()
        .collect();
        let folded = collapse(&entries, "r");
        assert_eq!(folded, [("r;a".to_owned(), 0), ("r;a;b".to_owned(), 4)]);
    }

    #[test]
    fn empty_and_spanless_streams_render_empty() {
        assert_eq!(to_collapsed(&TraceLog::default(), "r"), "");
        let only_events: TraceLog = [edge(SpanKind::Event, "tick", 3)].into_iter().collect();
        assert_eq!(to_collapsed(&only_events, "r"), "");
    }
}
