//! Equivalence oracle for the streaming exporters (DESIGN.md §10).
//!
//! `to_chrome` and `to_jsonl` stream every event into one pre-sized
//! buffer, read each entry in place from the record's `TraceLog`, and
//! `EntryParts::write_json` renders an entry by hand instead of through
//! `serde_json`. The `reference` module keeps the exporters they replaced,
//! verbatim but for one line each: they read owned `TraceEntry` values
//! materialized from the log. `to_chrome` built one `String` per event and
//! joined them, and `to_jsonl` rendered each entry with
//! `serde_json::to_string`. Hand-built records (escapes, duplicate field
//! keys, stray exits, spans left open, evicted provenance parents) and
//! every registry experiment's profiled record must render
//! byte-identically through both.
//!
//! ```sh
//! cargo test --test export_oracle
//! ```

use proptest::prelude::*;
use tussle::experiments::{registry, run_profiled};
use tussle::sim::obs::RunRecord;
use tussle::sim::{
    to_chrome, to_jsonl, EventId, ProvenanceNode, SimTime, SpanKind, StakeholderCost, TraceEntry,
};

/// The exporters as they were before streaming, kept only as the oracle.
mod reference {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    use tussle::sim::obs::{RunRecord, UNATTRIBUTED};
    use tussle::sim::trace::{SpanKind, TraceEntry};

    /// The record's captured entries as owned values, oldest first.
    fn materialize(record: &RunRecord) -> Vec<TraceEntry> {
        record.ring.iter().map(|e| e.to_entry()).collect()
    }

    /// Escape a string for embedding in a JSON string literal.
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Resolve the stakeholder lane of one entry against the current lane
    /// stack — the same inheritance rule `obs` uses for the scoreboard fold:
    /// an explicit annotation wins, otherwise the enclosing span's lane,
    /// otherwise [`UNATTRIBUTED`].
    fn resolve_lane<'a>(entry: &'a TraceEntry, stack: &'a [(String, u64)]) -> &'a str {
        entry
            .stakeholder
            .as_deref()
            .or_else(|| stack.last().map(|(l, _)| l.as_str()))
            .unwrap_or(UNATTRIBUTED)
    }

    /// Assign one pseudo-pid per stakeholder lane: pids are 1-based indices
    /// into the sorted lane-name list, so the mapping is stable across runs
    /// and thread counts. The synthetic engine lane (flow events) always gets
    /// the next pid after the last stakeholder.
    fn lane_pids(record: &RunRecord) -> BTreeMap<String, u64> {
        let mut lanes: BTreeMap<String, u64> = BTreeMap::new();
        for name in record.stakeholders.keys() {
            lanes.insert(name.clone(), 0);
        }
        // A ring replay can only surface lanes the scoreboard fold already saw,
        // but hand-built records may carry a ring without a fold — cover both.
        let mut stack: Vec<(String, u64)> = Vec::new();
        for entry in &materialize(record) {
            let lane = resolve_lane(entry, &stack).to_owned();
            lanes.entry(lane.clone()).or_insert(0);
            match entry.kind {
                SpanKind::Enter => stack.push((lane, entry.time.as_micros())),
                SpanKind::Exit => {
                    stack.pop();
                }
                SpanKind::Event => {}
            }
        }
        for (i, (_, pid)) in lanes.iter_mut().enumerate() {
            *pid = i as u64 + 1;
        }
        lanes
    }

    /// The synthetic lane name provenance flow events render under.
    pub const ENGINE_LANE: &str = "engine.schedule";

    /// Render an args object from span fields, keys sorted (last write wins on
    /// duplicates) — jq's `--sort-keys` validation must be a no-op.
    fn args_object(fields: &[(String, String)]) -> String {
        let sorted: BTreeMap<&str, &str> =
            fields.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let inner: Vec<String> =
            sorted.iter().map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v))).collect();
        format!("{{{}}}", inner.join(","))
    }

    /// Export the captured trace ring + provenance DAG as Chrome trace-event
    /// JSON (the format `chrome://tracing` and Perfetto load directly).
    ///
    /// * One pseudo-process per stakeholder lane (named via `M` metadata
    ///   events), `tid` always 1 — the global span nesting projects onto each
    ///   lane.
    /// * `Enter`/`Exit` entries become `B`/`E` pairs carrying the *Enter*'s
    ///   lane pid (exits never carry a stakeholder; the opening edge owns the
    ///   span). Stray exits are skipped and spans still open at the end are
    ///   closed at the last seen timestamp, so output `B`/`E` are always
    ///   balanced.
    /// * `Event` entries become `i` instants on their resolved lane.
    /// * Provenance parent edges become `s`/`f` flow events (id = child event
    ///   id) on a synthetic [`ENGINE_LANE`] process; edges whose parent was
    ///   evicted from the bounded ring are dropped.
    ///
    /// `ts` is virtual microseconds; nothing nondeterministic is rendered.
    pub fn to_chrome(record: &RunRecord) -> String {
        let lanes = lane_pids(record);
        let engine_pid = lanes.values().max().copied().unwrap_or(0) + 1;
        let mut events: Vec<String> = Vec::new();
        for (name, pid) in &lanes {
            events.push(format!(
                "{{\"args\":{{\"name\":\"{}\"}},\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":1,\"ts\":0}}",
                esc(name),
                pid
            ));
        }
        events.push(format!(
            "{{\"args\":{{\"name\":\"{}\"}},\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":1,\"ts\":0}}",
            esc(ENGINE_LANE),
            engine_pid
        ));

        // Replay the ring with a lane stack; (topic, pid, ts) so close edges
        // land on the lane that opened them.
        let mut stack: Vec<(String, u64)> = Vec::new();
        let mut open: Vec<(String, u64)> = Vec::new();
        let mut last_ts = 0u64;
        for entry in &materialize(record) {
            let ts = entry.time.as_micros();
            last_ts = last_ts.max(ts);
            match entry.kind {
                SpanKind::Enter => {
                    let lane = resolve_lane(entry, &stack).to_owned();
                    let pid = lanes[&lane];
                    events.push(format!(
                        "{{\"args\":{},\"name\":\"{}\",\"ph\":\"B\",\"pid\":{},\"tid\":1,\"ts\":{}}}",
                        args_object(&entry.fields),
                        esc(&entry.topic),
                        pid,
                        ts
                    ));
                    stack.push((lane, entry.time.as_micros()));
                    open.push((entry.topic.clone(), pid));
                }
                SpanKind::Exit => {
                    stack.pop();
                    // A stray exit (no matching B in the capture) renders
                    // nothing — output B/E stay balanced.
                    if let Some((topic, pid)) = open.pop() {
                        events.push(format!(
                            "{{\"args\":{},\"name\":\"{}\",\"ph\":\"E\",\"pid\":{},\"tid\":1,\"ts\":{}}}",
                            args_object(&entry.fields),
                            esc(&topic),
                            pid,
                            ts
                        ));
                    }
                }
                SpanKind::Event => {
                    let pid = lanes[resolve_lane(entry, &stack)];
                    events.push(format!(
                        "{{\"args\":{{\"message\":\"{}\"}},\"name\":\"{}\",\"ph\":\"i\",\"pid\":{},\"s\":\"t\",\"tid\":1,\"ts\":{}}}",
                        esc(&entry.message),
                        esc(&entry.topic),
                        pid,
                        ts
                    ));
                }
            }
        }
        // Close spans the capture never saw exit, newest first.
        while let Some((topic, pid)) = open.pop() {
            events.push(format!(
                "{{\"args\":{{}},\"name\":\"{}\",\"ph\":\"E\",\"pid\":{},\"tid\":1,\"ts\":{}}}",
                esc(&topic),
                pid,
                last_ts
            ));
        }

        // Provenance edges as flow events on the synthetic engine lane.
        let by_id: BTreeMap<u64, u64> =
            record.provenance.iter().map(|n| (n.id.0, n.time.as_micros())).collect();
        for node in &record.provenance {
            let Some(parent) = node.parent else { continue };
            let Some(parent_ts) = by_id.get(&parent.0) else { continue };
            events.push(format!(
                "{{\"cat\":\"provenance\",\"id\":{},\"name\":\"sched\",\"ph\":\"s\",\"pid\":{},\"tid\":1,\"ts\":{}}}",
                node.id.0, engine_pid, parent_ts
            ));
            events.push(format!(
                "{{\"bp\":\"e\",\"cat\":\"provenance\",\"id\":{},\"name\":\"sched\",\"ph\":\"f\",\"pid\":{},\"tid\":1,\"ts\":{}}}",
                node.id.0,
                engine_pid,
                node.time.as_micros()
            ));
        }

        let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]\n}\n");
        out
    }

    /// Export the captured trace ring as JSON Lines: one serialized
    /// [`TraceEntry`] per line, oldest first.
    pub fn to_jsonl(record: &RunRecord) -> String {
        let mut out = String::new();
        for entry in &materialize(record) {
            out.push_str(&serde_json::to_string(entry).expect("trace entries serialize"));
            out.push('\n');
        }
        out
    }
}

/// Characters the escapers treat differently: JSON's short escapes,
/// serde's `\b` and `\f`, other control characters, DEL, and multi-byte
/// UTF-8.
const ALPHABET: &[char] = &[
    'a', 'z', '.', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1}',
    '\u{1f}', '\u{7f}', 'é', '漢', '🦀',
];

/// Stakeholder lanes: a small pool, so annotations repeat and nested spans
/// inherit lanes that other entries name explicitly.
const LANES: &[&str] = &["isp", "user", "gov\"t", "a\\b\n", "(unattributed)", "línea"];

/// Field keys: a small pool, so entries carry duplicate keys.
const KEYS: &[&str] = &["k", "dst", "src", "k\"", "é", "\u{8}"];

fn text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..=max)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn lane() -> impl Strategy<Value = Option<String>> {
    (0u8..2, 0..LANES.len()).prop_map(|(some, i)| (some == 1).then(|| LANES[i].to_owned()))
}

fn field() -> impl Strategy<Value = (String, String)> {
    let key = prop_oneof![(0..KEYS.len()).prop_map(|i| KEYS[i].to_owned()), text(4)];
    (key, text(6))
}

fn entry() -> impl Strategy<Value = TraceEntry> {
    (
        (0u8..3, 0u64..1_000_000, 0u32..8),
        (text(10), text(12)),
        lane(),
        prop::collection::vec(field(), 0..5),
        (0u8..2, 0u64..64),
    )
        .prop_map(
            |((kind, time, depth), (topic, message), stakeholder, fields, (stamped, id))| {
                TraceEntry {
                    time: SimTime::from_micros(time),
                    topic,
                    message,
                    kind: [SpanKind::Event, SpanKind::Enter, SpanKind::Exit][usize::from(kind)],
                    stakeholder,
                    fields,
                    depth,
                    event: (stamped == 1).then_some(EventId(id)),
                }
            },
        )
}

/// A record as an exporter sees it: a ring with random span edges (so
/// stray exits and spans left open both occur), a stakeholder fold that
/// may name lanes the ring never uses, and provenance nodes whose parents
/// are often missing, as if evicted (ids repeat, too).
fn record() -> impl Strategy<Value = RunRecord> {
    (
        prop::collection::vec(entry(), 0..40),
        prop::collection::vec(0..LANES.len(), 0..4),
        prop::collection::vec((0u64..24, 0u64..30, 0u64..1_000_000), 0..16),
    )
        .prop_map(|(ring, fold, nodes)| RunRecord {
            ring: ring.into_iter().collect(),
            stakeholders: fold
                .into_iter()
                .map(|i| (LANES[i].to_owned(), StakeholderCost::default()))
                .collect(),
            provenance: nodes
                .into_iter()
                .map(|(id, parent, time)| ProvenanceNode {
                    id: EventId(id),
                    parent: (parent < 29).then_some(EventId(parent)),
                    time: SimTime::from_micros(time),
                    span: None,
                })
                .collect(),
            ..RunRecord::default()
        })
}

/// Compare without dumping megabytes: name the first differing line.
fn assert_same(what: &str, streamed: &str, reference: &str) {
    if streamed != reference {
        let line = streamed.lines().zip(reference.lines()).position(|(s, r)| s != r);
        panic!(
            "{what}: streamed output differs from the reference \
             (first differing line {line:?}, {} vs {} bytes)",
            streamed.len(),
            reference.len()
        );
    }
}

/// Both exports, and every entry's `write_json`, against the references.
fn check(what: &str, rec: &RunRecord) {
    assert_same(&format!("{what} chrome"), &to_chrome(rec), &reference::to_chrome(rec));
    assert_same(&format!("{what} jsonl"), &to_jsonl(rec), &reference::to_jsonl(rec));
    for entry in rec.ring.iter() {
        let mut line = String::new();
        entry.write_json(&mut line);
        let serde = serde_json::to_string(&entry.to_entry()).unwrap();
        assert_eq!(line, serde, "{what}: write_json vs serde");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any hand-built record renders byte-identically through the
    /// streaming exporters and the references.
    #[test]
    fn streamed_exports_match_the_references(rec in record()) {
        check("hand-built record", &rec);
    }
}

/// The edge cases the proptest draws at random, all in one record.
#[test]
fn edge_cases_match_the_references() {
    let e =
        |kind, time, topic: &str, stakeholder: Option<&str>, fields: &[(&str, &str)]| TraceEntry {
            time: SimTime::from_micros(time),
            topic: topic.to_owned(),
            message: "m\"\\\n\r\t\u{8}\u{c}\u{1}é🦀".to_owned(),
            kind,
            stakeholder: stakeholder.map(str::to_owned),
            fields: fields.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            depth: 0,
            event: None,
        };
    let rec = RunRecord {
        ring: vec![
            e(SpanKind::Exit, 1, "stray", None, &[("k", "v")]),
            e(SpanKind::Enter, 2, "outer\u{c}", Some("isp"), &[("b", "1"), ("a", "2"), ("b", "3")]),
            e(SpanKind::Event, 3, "inherits", None, &[]),
            e(SpanKind::Enter, 4, "left open", Some("gov\"t"), &[("\u{8}", "\u{1f}")]),
            e(SpanKind::Event, 5, "own lane", Some("user"), &[]),
        ]
        .into_iter()
        .collect(),
        provenance: vec![
            ProvenanceNode {
                id: EventId(3),
                parent: Some(EventId(1)),
                time: SimTime::ZERO,
                span: None,
            },
            ProvenanceNode {
                id: EventId(4),
                parent: Some(EventId(3)),
                time: SimTime::from_micros(9),
                span: None,
            },
        ],
        ..RunRecord::default()
    };
    check("edge cases", &rec);
}

/// Every registry experiment's profiled record, at three seeds.
#[test]
fn registry_exports_match_the_references() {
    for seed in [1, 2002, 2026] {
        for (name, run) in registry() {
            let (_, rec) = run_profiled(name, run, seed);
            check(&format!("{name} seed {seed}"), &rec);
        }
    }
}
