//! Causal provenance: which event scheduled which.
//!
//! Every event dispatched by the engine builds a [`ProvenanceNode`]: its
//! own [`EventId`], the id of the event whose handler scheduled it (`None`
//! for *root injections* scheduled from outside the engine), its virtual
//! dispatch time, and the innermost engine-trace span open when it was
//! scheduled. Because ids are the engine's schedule-order sequence numbers,
//! `parent.0 < id.0` holds for every node, so the recorded graph is a DAG
//! (a forest, in fact) by construction and ancestry walks always terminate.
//!
//! The engine hands each node to [`crate::obs::on_dispatch`]; a Profile
//! scope keeps them in [`crate::RunRecord::provenance`], the one capture
//! that `explain`, `diff` and the Chrome export read. Provenance is
//! **never digested** — it is positional bookkeeping derived from the
//! already-digested schedule order, so capturing it cannot change a run's
//! [`crate::RunDigest`].

use crate::event::EventId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// One dispatched event's causal record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceNode {
    /// The event's own id (the engine sequence number it was scheduled with).
    pub id: EventId,
    /// The event whose handler scheduled this one; `None` for root
    /// injections scheduled from outside the engine.
    pub parent: Option<EventId>,
    /// Virtual time at which the event was dispatched.
    pub time: SimTime,
    /// The innermost engine-trace span open when the event was scheduled.
    pub span: Option<String>,
}
