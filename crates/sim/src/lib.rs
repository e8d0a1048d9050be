//! # tussle-sim — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in the workspace runs on. The paper's
//! central observation is that tussle happens *at run time*: mechanisms and
//! counter-mechanisms are deployed while the system operates. To study that
//! we need a clock, an ordered event queue, reproducible randomness, and
//! instrumentation — nothing more. This crate provides exactly that:
//!
//! * [`SimTime`] — virtual time in microseconds.
//! * [`Engine`] — an event queue with a *total* order (ties broken by
//!   insertion sequence) so runs are bit-for-bit reproducible.
//! * [`SimRng`] — a seeded, forkable ChaCha8 random stream.
//! * [`Metrics`] — counters, gauges and log-bucket histograms.
//! * [`Trace`] — a bounded in-memory event log for diagnostics, kept in a
//!   [`TraceLog`] arena.
//! * [`FaultInjector`] — drop/corrupt/rate-limit knobs in the style of
//!   smoltcp's example harness.
//! * [`FaultPlan`] — a deterministic, schedulable script of infrastructure
//!   faults (link flaps, node outages, partition windows) layered on the
//!   injector, plus a thread-local *ambient* intensity (see [`fault`])
//!   that the chaos campaign wraps around whole experiment runs.
//! * [`RunBudget`] — an engine watchdog: runaway runs end with a
//!   structured [`RunOutcome`] instead of hanging.
//! * [`RunDigest`] — an FNV-1a hash of a run's structured trace and final
//!   metrics; determinism claims become one-line equality checks.
//! * [`obs`] — an ambient per-run observation scope: cost counters
//!   (events, rng draws, forwards), a rolling digest, and Profile-mode
//!   per-topic time attribution, all zero-cost when disabled.
//! * [`log`] — the bounded, arena-backed entry log behind every trace and
//!   the Profile capture, read in place by every trace view and exporter.
//! * [`provenance`] — the causal DAG of which event scheduled which:
//!   every dispatch builds a node with its parent event and originating
//!   span, which a Profile scope captures ("why did this event run?").
//! * [`flame`] — deterministic collapsed-stack (flamegraph) rendering of
//!   span captures, attributed by virtual time.
//! * [`export`] — deterministic Chrome/Perfetto trace-event JSON,
//!   Prometheus text exposition and JSONL renderers over a run record,
//!   with one pseudo-pid per stakeholder so trace lanes are the tussle.
//!
//! No async runtime is used: the workload is CPU-bound simulation, and the
//! engine is single-threaded by design (parallelism, where used, is across
//! independent experiment runs, not within one).
//!
//! There is no checkpoint/restore. A run is a pure function of its seed
//! and schedule, and the whole registry dispatches a few hundred events,
//! so resuming a run means replaying it from genesis.
//!
//! ## Example
//!
//! ```
//! use tussle_sim::{Engine, SimTime};
//!
//! let mut engine: Engine<Vec<&str>> = Engine::new(Vec::new(), 42);
//! engine.schedule_at(SimTime::from_millis(10), |log, _| log.push("first"));
//! engine.schedule_in(SimTime::from_millis(20), |log, ctx| {
//!     log.push("second");
//!     ctx.schedule_in(SimTime::from_millis(5), |log, _| log.push("third"));
//! });
//! engine.run_to_completion();
//! assert_eq!(engine.world, ["first", "second", "third"]);
//! assert_eq!(engine.now(), SimTime::from_millis(25));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod engine;
pub mod event;
pub mod export;
pub mod fault;
pub mod flame;
pub mod log;
pub mod metrics;
pub mod obs;
pub mod plan;
pub mod provenance;
pub mod rng;
pub mod time;
pub mod trace;

pub use digest::{Fnv1a, RunDigest};
pub use engine::{Ctx, Engine, RunBudget, RunOutcome, RunReport};
pub use event::{EventFn, EventId};
pub use export::{to_chrome, to_jsonl, to_prometheus};
pub use fault::{FaultInjector, FaultOutcome, FaultStats};
pub use log::TraceLog;
pub use metrics::{
    Histogram, HistogramSummary, Metrics, MetricsSnapshot, RunSeries, TimeSeries, TimeSeriesSummary,
};
pub use obs::{ObsGuard, ObsMode, RunRecord, StakeholderCost, TopicCost, UNATTRIBUTED};
pub use plan::{FaultAction, FaultEvent, FaultPlan};
pub use provenance::ProvenanceNode;
pub use rng::SimRng;
pub use time::SimTime;
pub use trace::{SpanKind, Trace, TraceEntry};
