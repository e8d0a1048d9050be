//! What the Profile-mode `TraceLog` guarantees once a run outgrows it: it
//! keeps exactly the newest `TraceLog::CAPACITY` entries, counts the rest
//! as dropped, leaves the digest and prefix stream untouched, and holds
//! its string buffer to a small multiple of what it retains.
//!
//! ```sh
//! cargo test -p tussle-sim --test log_eviction
//! ```

use tussle_sim::obs::{self, ObsMode, RunRecord};
use tussle_sim::{to_jsonl, SimTime, SpanKind, TraceEntry, TraceLog};

/// Four times what the log retains.
const STREAM: usize = 4 * TraceLog::CAPACITY;

const LANES: [&str; 3] = ["isp", "user", "gov"];

fn topic(i: usize) -> String {
    format!("layer{}.op{}", i % 5, i % 11)
}

fn message(i: usize) -> String {
    format!("m{i}-{}", "é".repeat(i % 23))
}

fn lane(i: usize) -> Option<&'static str> {
    LANES.get(i % 4).copied()
}

fn fields(i: usize) -> Vec<(String, String)> {
    (0..i % 3).map(|f| (format!("k{f}"), "v".repeat(i % 17))).collect()
}

/// Entry `i` of the stream. Every fourth entry opens a span that the
/// entry two later closes, so depths and exit topics follow the pattern.
fn expected(i: usize) -> TraceEntry {
    let time = SimTime::from_micros(i as u64);
    let (kind, topic, message, stakeholder, fields, depth) = match i % 4 {
        0 => (SpanKind::Enter, topic(i), String::new(), lane(i), fields(i), 0),
        1 => (SpanKind::Event, topic(i), message(i), lane(i), Vec::new(), 1),
        2 => (SpanKind::Exit, topic(i - 2), String::new(), None, fields(i), 0),
        _ => (SpanKind::Event, topic(i), message(i), None, Vec::new(), 0),
    };
    let stakeholder = stakeholder.map(str::to_owned);
    TraceEntry { time, topic, message, kind, stakeholder, fields, depth, event: None }
}

fn record(mode: ObsMode) -> RunRecord {
    let guard = obs::begin(mode);
    for i in 0..STREAM {
        let at = SimTime::from_micros(i as u64);
        let fields = fields(i);
        let fields: Vec<(&str, &str)> =
            fields.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        match i % 4 {
            0 => obs::span_enter(at, &topic(i), lane(i), &fields),
            1 => obs::event_for(at, &topic(i), lane(i), &message(i)),
            2 => obs::span_exit(at, &fields),
            _ => obs::event(at, &topic(i), &message(i)),
        }
    }
    guard.finish()
}

/// String bytes one entry keeps in the log.
fn text_bytes(e: &TraceEntry) -> usize {
    let fields: usize = e.fields.iter().map(|(k, v)| k.len() + v.len()).sum();
    e.topic.len() + e.message.len() + e.stakeholder.as_ref().map_or(0, String::len) + fields
}

#[test]
fn the_log_keeps_the_newest_entries_and_bounds_its_buffer() {
    let profile = record(ObsMode::Profile);
    let cost = record(ObsMode::Cost);

    let kept: Vec<TraceEntry> = profile.ring.iter().map(|e| e.to_entry()).collect();
    let newest: Vec<TraceEntry> = (STREAM - TraceLog::CAPACITY..STREAM).map(expected).collect();
    assert_eq!(kept.len(), TraceLog::CAPACITY);
    assert!(kept == newest, "the log is not the stream's newest {} entries", TraceLog::CAPACITY);

    assert_eq!(profile.ring.dropped(), (STREAM - TraceLog::CAPACITY) as u64);
    assert_eq!(profile.trace_entries, STREAM as u64);
    assert_eq!(profile.prefix_digests.len(), STREAM, "one prefix digest per absorbed entry");
    assert_eq!(profile.digest, cost.digest, "eviction never reaches the digest");
    assert!(cost.ring.is_empty());

    assert_eq!(to_jsonl(&profile).lines().count(), TraceLog::CAPACITY);

    let live: usize = kept.iter().map(text_bytes).sum();
    let held = profile.ring.text_bytes();
    assert!(held >= live, "the buffer holds {held} bytes but the entries need {live}");
    // A dead prefix is dropped as soon as it outgrows the live part.
    assert!(held <= 2 * live, "the buffer holds {held} bytes for {live} live bytes");
}
