//! Deterministic exporters over an observed run.
//!
//! Everything here renders from a [`RunRecord`] — the trace ring, the
//! provenance DAG, the accumulated metrics and the stakeholder fold — into
//! interchange formats:
//!
//! * [`to_chrome`] — Chrome/Perfetto trace-event JSON. Spans become `B`/`E`
//!   duration events, point entries become `i` instants, and provenance
//!   parent edges become `s`/`f` flow events. Each stakeholder gets its own
//!   pseudo-pid, so Perfetto's process lanes *are* the tussle: sort the UI
//!   by process and the per-stakeholder timelines read off directly.
//! * [`to_prometheus`] — Prometheus text exposition of the accumulated
//!   [`MetricsSnapshot`](crate::metrics::MetricsSnapshot) plus stakeholder
//!   and topic attribution.
//! * [`to_jsonl`] — one serialized [`TraceEntry`] per line.
//!
//! Every exporter uses only virtual-time fields (`ts` is virtual
//! microseconds; wall clocks never appear), so output for a fixed seed is
//! byte-identical however the run was scheduled — the same bar the golden
//! reports and collapsed stacks already hold.

use crate::obs::{RunRecord, UNATTRIBUTED};
use crate::trace::{SpanKind, TraceEntry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append `s` as a quoted JSON string literal. Runs of plain bytes are
/// copied whole; `"`, `\\`, `\n`, `\r` and `\t` get short escapes and other
/// control characters `\u00XX`. With `serde_bf`, U+0008 and U+000C render
/// as `\b` and `\f`, the way the vendored `serde_json` writes them.
pub(crate) fn push_json_str(out: &mut String, s: &str, serde_bf: bool) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 if serde_bf => "\\b",
            0x0c if serde_bf => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        // `i` indexes an ASCII byte, so both slice ends are char boundaries.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Resolve the stakeholder lane of one entry against the current lane
/// stack — the same inheritance rule `obs` uses for the scoreboard fold:
/// an explicit annotation wins, otherwise the enclosing span's lane,
/// otherwise [`UNATTRIBUTED`].
fn resolve_lane<'a>(entry: &'a TraceEntry, stack: &[&'a str]) -> &'a str {
    entry.stakeholder.as_deref().or_else(|| stack.last().copied()).unwrap_or(UNATTRIBUTED)
}

/// Assign one pseudo-pid per stakeholder lane: pids are 1-based indices
/// into the sorted lane-name list, so the mapping is stable across runs
/// and thread counts. The synthetic engine lane (flow events) always gets
/// the next pid after the last stakeholder.
fn lane_pids(record: &RunRecord) -> BTreeMap<&str, u64> {
    let mut lanes: BTreeMap<&str, u64> =
        record.stakeholders.keys().map(|name| (name.as_str(), 0)).collect();
    // A ring replay can only surface lanes the scoreboard fold already saw,
    // but hand-built records may carry a ring without a fold — cover both.
    let mut stack: Vec<&str> = Vec::new();
    for entry in &record.ring {
        let lane = resolve_lane(entry, &stack);
        lanes.entry(lane).or_insert(0);
        match entry.kind {
            SpanKind::Enter => stack.push(lane),
            SpanKind::Exit => {
                stack.pop();
            }
            SpanKind::Event => {}
        }
    }
    for (i, pid) in lanes.values_mut().enumerate() {
        *pid = i as u64 + 1;
    }
    lanes
}

/// The synthetic lane name provenance flow events render under.
pub const ENGINE_LANE: &str = "engine.schedule";

/// Append an args object from span fields, keys sorted (last write wins on
/// duplicates) — jq's `--sort-keys` validation must be a no-op. `order` is
/// scratch space reused across entries.
fn write_args(out: &mut String, fields: &[(String, String)], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..fields.len());
    // Stable: equal keys keep field order, so the last of each run of equal
    // keys is the last write.
    order.sort_by(|&a, &b| fields[a].0.cmp(&fields[b].0));
    out.push('{');
    let mut sep = "";
    for (n, &i) in order.iter().enumerate() {
        let (k, v) = &fields[i];
        if order.get(n + 1).is_some_and(|&next| fields[next].0 == *k) {
            continue;
        }
        out.push_str(sep);
        push_json_str(out, k, false);
        out.push(':');
        push_json_str(out, v, false);
        sep = ",";
    }
    out.push('}');
}

/// Append one `B`/`E` duration event.
fn write_span_edge(
    out: &mut String,
    ph: &str,
    fields: &[(String, String)],
    order: &mut Vec<usize>,
    topic: &str,
    pid: u64,
    ts: u64,
) {
    out.push_str("{\"args\":");
    write_args(out, fields, order);
    out.push_str(",\"name\":");
    push_json_str(out, topic, false);
    let _ = write!(out, ",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":1,\"ts\":{ts}}}");
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
/// Every event streams into one pre-sized buffer.
pub fn to_chrome(record: &RunRecord) -> String {
    let lanes = lane_pids(record);
    let engine_pid = lanes.values().max().copied().unwrap_or(0) + 1;
    // Registry runs render about 95 bytes per ring entry and 150 per
    // provenance node (its two flow events), so the buffer rarely regrows.
    let mut out = String::with_capacity(
        64 + 96 * (lanes.len() + record.ring.len()) + 160 * record.provenance.len(),
    );
    out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    // Every event after the first opens with the `,\n` separator.
    let body = out.len();
    let sep = |out: &mut String| {
        if out.len() > body {
            out.push_str(",\n");
        }
    };
    let named = lanes.iter().map(|(name, pid)| (*name, *pid));
    for (name, pid) in named.chain([(ENGINE_LANE, engine_pid)]) {
        sep(&mut out);
        out.push_str("{\"args\":{\"name\":");
        push_json_str(&mut out, name, false);
        let _ = write!(
            out,
            "}},\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"ts\":0}}"
        );
    }

    // Replay the ring with a lane stack; (topic, pid) of each open span so
    // close edges land on the lane that opened them.
    let mut order = Vec::new();
    let mut stack: Vec<&str> = Vec::new();
    let mut open: Vec<(&str, u64)> = Vec::new();
    let mut last_ts = 0u64;
    for entry in &record.ring {
        let ts = entry.time.as_micros();
        last_ts = last_ts.max(ts);
        match entry.kind {
            SpanKind::Enter => {
                let lane = resolve_lane(entry, &stack);
                let pid = lanes[lane];
                sep(&mut out);
                write_span_edge(&mut out, "B", &entry.fields, &mut order, &entry.topic, pid, ts);
                stack.push(lane);
                open.push((&entry.topic, pid));
            }
            SpanKind::Exit => {
                stack.pop();
                // A stray exit (no matching B in the capture) renders
                // nothing — output B/E stay balanced.
                if let Some((topic, pid)) = open.pop() {
                    sep(&mut out);
                    write_span_edge(&mut out, "E", &entry.fields, &mut order, topic, pid, ts);
                }
            }
            SpanKind::Event => {
                let pid = lanes[resolve_lane(entry, &stack)];
                sep(&mut out);
                out.push_str("{\"args\":{\"message\":");
                push_json_str(&mut out, &entry.message, false);
                out.push_str("},\"name\":");
                push_json_str(&mut out, &entry.topic, false);
                let _ =
                    write!(out, ",\"ph\":\"i\",\"pid\":{pid},\"s\":\"t\",\"tid\":1,\"ts\":{ts}}}");
            }
        }
    }
    // Close spans the capture never saw exit, newest first.
    while let Some((topic, pid)) = open.pop() {
        sep(&mut out);
        write_span_edge(&mut out, "E", &[], &mut order, topic, pid, last_ts);
    }

    // Provenance edges as flow events on the synthetic engine lane.
    let by_id: BTreeMap<u64, u64> =
        record.provenance.iter().map(|n| (n.id.0, n.time.as_micros())).collect();
    for node in &record.provenance {
        let Some(parent) = node.parent else { continue };
        let Some(parent_ts) = by_id.get(&parent.0) else { continue };
        let (id, ts) = (node.id.0, node.time.as_micros());
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"cat\":\"provenance\",\"id\":{id},\"name\":\"sched\",\"ph\":\"s\",\"pid\":{engine_pid},\"tid\":1,\"ts\":{parent_ts}}}"
        );
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"bp\":\"e\",\"cat\":\"provenance\",\"id\":{id},\"name\":\"sched\",\"ph\":\"f\",\"pid\":{engine_pid},\"tid\":1,\"ts\":{ts}}}"
        );
    }
    out.push_str("\n]\n}\n");
    out
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Export the run's accumulated metrics and attribution as Prometheus text
/// exposition (version 0.0.4). Metric *names* are fixed families and the
/// run's own keys become label values, so arbitrary dotted keys can never
/// collide after sanitization:
///
/// * `tussle_counter{key=...}` / `tussle_gauge{key=...}` — the accumulated
///   snapshot (Profile scopes only; empty otherwise).
/// * `tussle_summary{key=...,quantile=...}` + `_sum`/`_count` — histogram
///   summaries at p50/p95/max.
/// * `tussle_stakeholder_{entries,spans,events,virtual_micros}` — the
///   scoreboard fold, one series per stakeholder lane.
/// * `tussle_topic_virtual_micros{topic=...}` — per-topic virtual-time
///   attribution. Wall-time fields are deliberately not exported: the
///   exposition must stay byte-identical across schedulers.
pub fn to_prometheus(record: &RunRecord) -> String {
    let mut out = String::new();
    let m = &record.metrics;
    if !m.counters.is_empty() {
        out.push_str("# TYPE tussle_counter counter\n");
        for (k, v) in &m.counters {
            let _ = writeln!(out, "tussle_counter{{key=\"{}\"}} {}", prom_escape(k), v);
        }
    }
    if !m.gauges.is_empty() {
        out.push_str("# TYPE tussle_gauge gauge\n");
        for (k, v) in &m.gauges {
            let _ = writeln!(out, "tussle_gauge{{key=\"{}\"}} {}", prom_escape(k), v);
        }
    }
    if !m.histograms.is_empty() {
        out.push_str("# TYPE tussle_summary summary\n");
        for (k, s) in &m.histograms {
            let k = prom_escape(k);
            let _ = writeln!(out, "tussle_summary{{key=\"{k}\",quantile=\"0.5\"}} {}", s.p50);
            let _ = writeln!(out, "tussle_summary{{key=\"{k}\",quantile=\"0.95\"}} {}", s.p95);
            let _ = writeln!(out, "tussle_summary{{key=\"{k}\",quantile=\"1\"}} {}", s.max);
            let _ = writeln!(out, "tussle_summary_sum{{key=\"{k}\"}} {}", s.sum);
            let _ = writeln!(out, "tussle_summary_count{{key=\"{k}\"}} {}", s.count);
        }
    }
    if !record.stakeholders.is_empty() {
        for (field, get) in
            [("entries", 0usize), ("spans", 1), ("events", 2), ("virtual_micros", 3)]
        {
            let _ = writeln!(out, "# TYPE tussle_stakeholder_{field} counter");
            for (lane, c) in &record.stakeholders {
                let v = match get {
                    0 => c.entries,
                    1 => c.spans,
                    2 => c.events,
                    _ => c.virtual_micros,
                };
                let _ = writeln!(
                    out,
                    "tussle_stakeholder_{field}{{stakeholder=\"{}\"}} {v}",
                    prom_escape(lane)
                );
            }
        }
    }
    if !record.topics.is_empty() {
        out.push_str("# TYPE tussle_topic_virtual_micros counter\n");
        for (topic, t) in &record.topics {
            let _ = writeln!(
                out,
                "tussle_topic_virtual_micros{{topic=\"{}\"}} {}",
                prom_escape(topic),
                t.virtual_micros
            );
        }
    }
    out
}

/// Export the captured trace ring as JSON Lines: one serialized
/// [`TraceEntry`] per line, oldest first, streamed into one pre-sized
/// buffer by [`TraceEntry::write_json`].
pub fn to_jsonl(record: &RunRecord) -> String {
    // Registry runs render about 145 bytes per entry.
    let mut out = String::with_capacity(160 * record.ring.len());
    for entry in &record.ring {
        entry.write_json(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{self, ObsMode};
    use crate::time::SimTime;

    fn sample_record() -> RunRecord {
        let g = obs::begin(ObsMode::Profile);
        obs::span_enter(SimTime::from_micros(10), "econ.market", Some("isp"), &[("round", "1")]);
        obs::event(SimTime::from_micros(20), "econ.price", "posted");
        obs::span_enter(SimTime::from_micros(30), "econ.audit", None, &[]);
        obs::span_exit(SimTime::from_micros(40), &[]);
        obs::span_exit(SimTime::from_micros(50), &[("rounds", "3")]);
        obs::event(SimTime::from_micros(60), "net.tick", "idle");
        obs::on_metric_counter("pkts", 7);
        obs::on_metric_gauge("price", 2.5);
        obs::on_metric_observe("latency", 10.0);
        g.finish()
    }

    #[test]
    fn chrome_events_are_balanced_and_lane_mapped() {
        let rec = sample_record();
        let out = to_chrome(&rec);
        let b = out.matches("\"ph\":\"B\"").count();
        let e = out.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "B/E balanced:\n{out}");
        assert_eq!(b, 2);
        assert_eq!(out.matches("\"ph\":\"i\"").count(), 2);
        // Stakeholder lanes named via metadata events.
        assert!(out.contains("\"args\":{\"name\":\"isp\"}"), "{out}");
        assert!(out.contains(&format!("\"args\":{{\"name\":\"{UNATTRIBUTED}\"}}")), "{out}");
        assert!(out.contains("\"args\":{\"name\":\"engine.schedule\"}"), "{out}");
        // Span fields ride along as args.
        assert!(out.contains("\"args\":{\"round\":\"1\"}"), "{out}");
    }

    #[test]
    fn chrome_nested_span_inherits_lane_and_exit_matches_enter_pid() {
        let rec = sample_record();
        let lanes = lane_pids(&rec);
        let isp = lanes["isp"];
        let out = to_chrome(&rec);
        // Both B events and both E events carry the isp pid: the nested
        // unannotated span inherits, and exits close on the opening lane.
        for line in out.lines().filter(|l| l.contains("\"ph\":\"B\"") || l.contains("\"ph\":\"E\""))
        {
            assert!(line.contains(&format!("\"pid\":{isp},")), "{line}");
        }
    }

    #[test]
    fn chrome_closes_still_open_spans() {
        let g = obs::begin(ObsMode::Profile);
        obs::span_enter(SimTime::from_micros(1), "a", Some("user"), &[]);
        obs::event(SimTime::from_micros(9), "b", "last");
        let rec = g.finish();
        let out = to_chrome(&rec);
        assert_eq!(out.matches("\"ph\":\"B\"").count(), out.matches("\"ph\":\"E\"").count());
        assert!(
            out.contains("\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":9"),
            "closed at last ts:\n{out}"
        );
    }

    #[test]
    fn chrome_export_is_deterministic() {
        let a = to_chrome(&sample_record());
        let b = to_chrome(&sample_record());
        assert_eq!(a, b);
    }

    #[test]
    fn prometheus_exposition_has_typed_families() {
        let rec = sample_record();
        let out = to_prometheus(&rec);
        assert!(out.contains("# TYPE tussle_counter counter\n"), "{out}");
        assert!(out.contains("tussle_counter{key=\"pkts\"} 7\n"), "{out}");
        assert!(out.contains("tussle_gauge{key=\"price\"} 2.5\n"), "{out}");
        assert!(out.contains("tussle_summary{key=\"latency\",quantile=\"0.95\"}"), "{out}");
        assert!(out.contains("tussle_summary_count{key=\"latency\"} 1\n"), "{out}");
        assert!(
            out.contains("tussle_stakeholder_virtual_micros{stakeholder=\"isp\"} 50\n"),
            "{out}"
        );
        assert!(out.contains("tussle_topic_virtual_micros{topic=\"econ.market\"}"), "{out}");
        // Wall time must never leak into the exposition.
        assert!(!out.contains("wall"), "{out}");
    }

    #[test]
    fn jsonl_emits_one_entry_per_line() {
        let rec = sample_record();
        let out = to_jsonl(&rec);
        assert_eq!(out.lines().count(), rec.ring.len());
        for (line, entry) in out.lines().zip(&rec.ring) {
            assert_eq!(line, serde_json::to_string(entry).unwrap(), "the bytes serde renders");
            let back: TraceEntry = serde_json::from_str(line).expect("round-trips");
            assert_eq!(&back, entry);
        }
    }

    #[test]
    fn label_escaping_is_applied() {
        assert_eq!(prom_escape("x\"y"), "x\\\"y");
        assert_eq!(prom_escape("x\\y"), "x\\\\y");
        assert_eq!(prom_escape("x\ny"), "x\\ny");
        let esc = |s: &str, serde_bf: bool| {
            let mut out = String::new();
            push_json_str(&mut out, s, serde_bf);
            out
        };
        assert_eq!(esc("a\"b\nc", false), "\"a\\\"b\\nc\"");
        assert_eq!(esc("tab\there", false), "\"tab\\there\"");
        assert_eq!(esc("\u{8}\u{c}\u{1}é", false), "\"\\u0008\\u000c\\u0001é\"");
        assert_eq!(esc("\u{8}\u{c}\u{1f}é", true), "\"\\b\\f\\u001fé\"");
    }
}
