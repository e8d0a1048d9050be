//! Forwarding information base with longest-prefix match.
//!
//! The FIB is where the PA-vs-PI addressing tussle becomes measurable:
//! every provider-independent customer block is one more entry in *every*
//! core FIB ("adds to the size of the forwarding tables in the core",
//! §V.A.1). Experiment E1 reports `Fib::len` across addressing modes.
//!
//! Entries are kept sorted by `(prefix length desc, metric asc, install
//! order)`, at most one per prefix. Sorted storage is what makes the
//! selection rule stable: among equal-length, equal-metric candidates the
//! earliest-installed entry wins, and it keeps winning until it is itself
//! withdrawn — re-adding a competitor never steals the slot (see
//! [`Fib::install`]).
//!
//! [`Fib::lookup`] does not scan the entries. Entries of one prefix length
//! form a contiguous run, and since no two of them share a prefix, at most
//! one can contain a destination: the one whose bits equal the destination
//! masked to that length. An index keeps each run's prefix bits sorted, so
//! a lookup is one binary search per distinct prefix length, longest first,
//! and its first hit is the entry a forward scan would have met first.

use crate::addr::Prefix;
use crate::node::NodeId;
use serde::{DeError, Deserialize, Serialize, Value};
use std::cmp::Reverse;
use std::ops::Range;

/// One forwarding entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FibEntry {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Next hop node.
    pub next_hop: NodeId,
    /// Tie-break metric; lower wins among equal-length prefixes.
    pub metric: u32,
}

impl FibEntry {
    /// Sort key: longer prefixes first, then lower metrics. Insertion
    /// position among equal keys preserves install order.
    fn sort_key(&self) -> (Reverse<u8>, u32) {
        (Reverse(self.prefix.len()), self.metric)
    }
}

/// A forwarding table.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    entries: Vec<FibEntry>,
    /// `(prefix bits, position in entries)` of every entry: run by run in
    /// the same spans as `entries`, sorted by bits within each run.
    index: Vec<(u32, u32)>,
    /// The runs of equal prefix length, longest first.
    runs: Vec<Run>,
}

/// A run of equal-length prefixes. It spans `entries` and `index` from the
/// previous run's `end` (or 0) up to its own.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The run's prefix length as a netmask.
    mask: u32,
    end: u32,
}

impl Fib {
    /// Empty table.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Install a route, replacing an existing entry for exactly the same
    /// prefix only when the new metric is *strictly* better.
    ///
    /// Selection rule (documented contract): **first-installed-wins**. An
    /// equal-cost reinstall keeps the incumbent untouched — the entry that
    /// got there first holds the slot until it is withdrawn, so which route
    /// forwards traffic never depends on a later remove/re-add of some
    /// *other* equal-cost route.
    pub fn install(&mut self, prefix: Prefix, next_hop: NodeId, metric: u32) {
        if let Ok(slot) = self.slot(prefix) {
            let i = self.index[slot].1 as usize;
            if metric >= self.entries[i].metric {
                return; // incumbent wins ties and beats worse routes
            }
            self.remove_at(i);
        }
        let entry = FibEntry { prefix, next_hop, metric };
        // Insert after all entries with the same key: first-installed stays
        // first in its equivalence class.
        let pos = self.entries.partition_point(|e| e.sort_key() <= entry.sort_key());
        let slot = self.slot(prefix).expect_err("no entry holds the prefix by now");
        for (_, at) in &mut self.index {
            if *at >= pos as u32 {
                *at += 1;
            }
        }
        self.index.insert(slot, (prefix.bits(), pos as u32));
        self.entries.insert(pos, entry);
        self.rebuild_runs();
    }

    /// Remove all routes for a prefix. Returns how many entries were removed.
    pub fn withdraw(&mut self, prefix: Prefix) -> usize {
        let Ok(slot) = self.slot(prefix) else {
            return 0;
        };
        self.remove_at(self.index[slot].1 as usize);
        1
    }

    /// Remove every route via a next hop (e.g. a failed neighbor).
    pub fn withdraw_via(&mut self, next_hop: NodeId) -> usize {
        let before = self.entries.len();
        for i in (0..before).rev() {
            if self.entries[i].next_hop == next_hop {
                self.remove_at(i);
            }
        }
        before - self.entries.len()
    }

    /// Longest-prefix-match lookup: the longest match with the best
    /// metric, and among full ties the first-installed route. Probes each
    /// run's index for the destination's masked bits, longest run first.
    pub fn lookup(&self, dst: u32) -> Option<&FibEntry> {
        let mut start = 0;
        for run in &self.runs {
            let end = run.end as usize;
            let bits = &self.index[start..end];
            if let Ok(k) = bits.binary_search_by_key(&(dst & run.mask), |&(b, _)| b) {
                return Some(&self.entries[bits[k].1 as usize]);
            }
            start = end;
        }
        None
    }

    /// Number of entries — the table-size pressure metric.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries.
    pub fn entries(&self) -> impl Iterator<Item = &FibEntry> {
        self.entries.iter()
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.runs.clear();
    }

    /// The span of `entries` (and `index`) holding `len`-bit prefixes:
    /// empty, where such a run would go, if there are none.
    fn run_span(&self, len: u8) -> Range<usize> {
        let start = self.entries.partition_point(|e| e.prefix.len() > len);
        let end = self.entries.partition_point(|e| e.prefix.len() >= len);
        start..end
    }

    /// Where `prefix` sits in `index`: `Ok` if an entry holds it, else
    /// `Err` with the slot it would take.
    fn slot(&self, prefix: Prefix) -> Result<usize, usize> {
        let span = self.run_span(prefix.len());
        self.index[span.clone()]
            .binary_search_by_key(&prefix.bits(), |&(b, _)| b)
            .map(|k| span.start + k)
            .map_err(|k| span.start + k)
    }

    fn remove_at(&mut self, pos: usize) {
        let slot = self.slot(self.entries[pos].prefix).expect("every entry is indexed");
        self.index.remove(slot);
        for (_, at) in &mut self.index {
            if *at > pos as u32 {
                *at -= 1;
            }
        }
        self.entries.remove(pos);
        self.rebuild_runs();
    }

    fn rebuild_runs(&mut self) {
        self.runs.clear();
        let mut end = 0;
        for run in self.entries.chunk_by(|a, b| a.prefix.len() == b.prefix.len()) {
            end += run.len() as u32;
            self.runs.push(Run { mask: Prefix::new(u32::MAX, run[0].prefix.len()).bits(), end });
        }
    }
}

/// The derived form: `{"entries": [...]}`. The index is not serialized.
impl Serialize for Fib {
    fn to_value(&self) -> Value {
        Value::Map(vec![("entries".to_owned(), self.entries.to_value())])
    }
}

/// Rebuilds the table by installing the entries in order, and rejects a
/// list that [`Fib::install`] could not have produced: one out of
/// `(length desc, metric asc)` order or holding a prefix twice.
impl Deserialize for Fib {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries: Vec<FibEntry> = Deserialize::from_value(v.field("entries")?)?;
        let mut fib = Fib::new();
        for e in &entries {
            fib.install(e.prefix, e.next_hop, e.metric);
        }
        if fib.entries != entries {
            return Err(DeError(
                "FIB entries must be sorted by (length desc, metric asc), one per prefix"
                    .to_owned(),
            ));
        }
        Ok(fib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32, len: u8) -> Prefix {
        Prefix::new(bits, len)
    }

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::new();
        fib.install(p(0x0a000000, 8), NodeId(1), 10);
        fib.install(p(0x0a010000, 16), NodeId(2), 10);
        fib.install(Prefix::DEFAULT, NodeId(9), 10);
        assert_eq!(fib.lookup(0x0a010203).unwrap().next_hop, NodeId(2));
        assert_eq!(fib.lookup(0x0a990203).unwrap().next_hop, NodeId(1));
        assert_eq!(fib.lookup(0x42000000).unwrap().next_hop, NodeId(9));
    }

    #[test]
    fn no_default_no_match() {
        let mut fib = Fib::new();
        fib.install(p(0x0a000000, 8), NodeId(1), 0);
        assert!(fib.lookup(0x0b000000).is_none());
    }

    #[test]
    fn equal_length_prefers_lower_metric() {
        let mut fib = Fib::new();
        fib.install(p(0x0a000000, 8), NodeId(1), 20);
        // strictly better metric replaces
        fib.install(p(0x0a000000, 8), NodeId(2), 5);
        assert_eq!(fib.lookup(0x0a000001).unwrap().next_hop, NodeId(2));
        // worse metric does not
        fib.install(p(0x0a000000, 8), NodeId(3), 50);
        assert_eq!(fib.lookup(0x0a000001).unwrap().next_hop, NodeId(2));
        assert_eq!(fib.len(), 1);
    }

    #[test]
    fn equal_cost_tie_break_is_first_installed() {
        // Regression: the old lookup used `max_by`, which returns the *last*
        // maximal entry, and the old install rewrote the next hop on an
        // equal-metric reinstall — so the winner flipped with install order
        // churn. The rule is now first-installed-wins, in both orders.
        let pre = p(0x0a000000, 8);
        let mut ab = Fib::new();
        ab.install(pre, NodeId(1), 7);
        ab.install(pre, NodeId(2), 7);
        assert_eq!(ab.lookup(0x0a000001).unwrap().next_hop, NodeId(1));

        let mut ba = Fib::new();
        ba.install(pre, NodeId(2), 7);
        ba.install(pre, NodeId(1), 7);
        assert_eq!(ba.lookup(0x0a000001).unwrap().next_hop, NodeId(2));

        // The incumbent only loses the slot when it is itself withdrawn.
        assert_eq!(ab.withdraw(pre), 1);
        ab.install(pre, NodeId(2), 7);
        ab.install(pre, NodeId(1), 7);
        assert_eq!(ab.lookup(0x0a000001).unwrap().next_hop, NodeId(2));
        assert_eq!(ab.len(), 1);
    }

    #[test]
    fn entries_stay_sorted_for_first_match_lookup() {
        // Install shortest-first and worst-metric-first: the scan order must
        // still be (len desc, metric asc, install order).
        let mut fib = Fib::new();
        fib.install(Prefix::DEFAULT, NodeId(9), 10);
        fib.install(p(0x0a000000, 8), NodeId(1), 20);
        fib.install(p(0x0b000000, 8), NodeId(2), 5);
        fib.install(p(0x0a010000, 16), NodeId(3), 10);
        let keys: Vec<(Reverse<u8>, u32)> = fib.entries().map(|e| e.sort_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "entries must stay sorted after installs");
        // Replacement re-sorts too.
        fib.install(p(0x0a000000, 8), NodeId(4), 1);
        let keys: Vec<(Reverse<u8>, u32)> = fib.entries().map(|e| e.sort_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(fib.lookup(0x0a990203).unwrap().next_hop, NodeId(4));
    }

    #[test]
    fn withdraw_prefix_and_via() {
        let mut fib = Fib::new();
        fib.install(p(0x0a000000, 8), NodeId(1), 0);
        fib.install(p(0x0b000000, 8), NodeId(1), 0);
        fib.install(p(0x0c000000, 8), NodeId(2), 0);
        assert_eq!(fib.withdraw(p(0x0a000000, 8)), 1);
        assert_eq!(fib.len(), 2);
        assert_eq!(fib.withdraw_via(NodeId(1)), 1);
        assert_eq!(fib.len(), 1);
        assert!(fib.lookup(0x0c000001).is_some());
        assert!(fib.lookup(0x0b000001).is_none(), "the withdrawn route must leave the index");
    }

    #[test]
    fn clear_empties() {
        let mut fib = Fib::new();
        fib.install(Prefix::DEFAULT, NodeId(1), 0);
        assert!(!fib.is_empty());
        fib.clear();
        assert!(fib.is_empty());
        assert!(fib.lookup(0).is_none());
    }

    #[test]
    fn serde_keeps_the_derived_form_and_rejects_unsorted_tables() {
        let mut fib = Fib::new();
        fib.install(Prefix::DEFAULT, NodeId(9), 0);
        fib.install(p(0x0a000000, 8), NodeId(1), 3);
        let json = serde_json::to_string(&fib).unwrap();
        assert!(json.starts_with(r#"{"entries":[{"prefix":{"bits":167772160,"len":8}"#), "{json}");
        let back: Fib = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.lookup(0x0a000001).unwrap().next_hop, NodeId(1));

        let entries: Vec<FibEntry> = fib.entries().copied().collect();
        let reversed = Value::Map(vec![(
            "entries".to_owned(),
            entries.iter().rev().copied().collect::<Vec<_>>().to_value(),
        )]);
        assert!(Fib::from_value(&reversed).is_err(), "shortest-first order is not a FIB");
        let twice = Value::Map(vec![("entries".to_owned(), vec![entries[0]; 2].to_value())]);
        assert!(Fib::from_value(&twice).is_err(), "a prefix may appear once");
    }
}
