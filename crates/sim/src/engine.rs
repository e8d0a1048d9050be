//! The discrete-event engine.
//!
//! An [`Engine`] owns a world `W`, a virtual clock, an event queue and the
//! shared facilities (RNG, metrics, trace). Event handlers receive
//! `(&mut W, &mut Ctx<W>)`; the context lets them read the clock, draw
//! randomness, record metrics/trace entries, schedule further events and
//! request a stop. Newly scheduled events are buffered in the context and
//! merged into the queue after the handler returns, preserving the total
//! `(time, sequence)` order.

use crate::digest::RunDigest;
use crate::event::{EventFn, EventId, Scheduled};
use crate::metrics::Metrics;
use crate::obs;
use crate::provenance::ProvenanceNode;
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::Trace;
use std::collections::BinaryHeap;
use std::fmt::Display;
use std::time::Instant;

/// Context handed to every event handler.
pub struct Ctx<'a, W> {
    now: SimTime,
    /// Random stream for the run.
    pub rng: &'a mut SimRng,
    /// Metric sink for the run.
    pub metrics: &'a mut Metrics,
    /// Trace log for the run.
    pub trace: &'a mut Trace,
    /// Buffered child events, in a buffer the engine lends each dispatch.
    pending: Vec<Pending<W>>,
    stop: bool,
    /// First topic traced via the context during this handler — what the
    /// profiler attributes the whole event to. Valid once `topic_noted`;
    /// a buffer the engine lends each dispatch.
    first_topic: String,
    topic_noted: bool,
    /// The id of the event this context is dispatching; children scheduled
    /// through the context record it as their provenance parent.
    event: EventId,
}

impl<'a, W> Ctx<'a, W> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the event currently being dispatched.
    pub fn event_id(&self) -> EventId {
        self.event
    }

    /// Schedule `f` at absolute time `at`. Times earlier than `now` are
    /// clamped to `now` (events cannot run in the past).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Ctx<W>) + 'static) {
        let at = at.max(self.now);
        let span = self.trace.current_span().map(str::to_owned);
        self.pending.push((at, Box::new(f), span));
    }

    /// Schedule `f` after a relative `delay`.
    pub fn schedule_in(&mut self, delay: SimTime, f: impl FnOnce(&mut W, &mut Ctx<W>) + 'static) {
        let at = self.now.saturating_add(delay);
        let span = self.trace.current_span().map(str::to_owned);
        self.pending.push((at, Box::new(f), span));
    }

    /// Record a trace entry stamped with the current time. The message is
    /// rendered in place, and only when the trace is enabled.
    #[inline]
    pub fn trace(&mut self, topic: &str, message: impl Display) {
        self.note_topic(topic);
        self.trace.record(self.now, topic, message);
    }

    /// Record a structured trace event with a stakeholder and fields.
    #[inline]
    pub fn trace_fields(
        &mut self,
        topic: &str,
        stakeholder: Option<&str>,
        fields: &[(&str, &str)],
        message: impl Display,
    ) {
        self.note_topic(topic);
        self.trace.record_fields(self.now, topic, stakeholder, fields, message);
    }

    /// Open a span stamped with the current time. Close it with
    /// [`Ctx::span_exit`] before the handler returns (the trace keeps its
    /// own stack, so spans may also outlive the handler deliberately).
    pub fn span_enter(&mut self, topic: &str, stakeholder: Option<&str>, fields: &[(&str, &str)]) {
        self.note_topic(topic);
        self.trace.span_enter(self.now, topic, stakeholder, fields);
    }

    /// Close the innermost open span, returning its topic.
    pub fn span_exit(&mut self, fields: &[(&str, &str)]) -> Option<String> {
        self.trace.span_exit(self.now, fields)
    }

    #[inline]
    fn note_topic(&mut self, topic: &str) {
        // Only the profiler reads this attribution; skip the copy entirely
        // outside Profile mode so tracing stays free when off.
        if !self.topic_noted && obs::profiling() {
            self.topic_noted = true;
            self.first_topic.clear();
            self.first_topic.push_str(topic);
        }
    }

    /// Ask the engine to stop after this handler returns.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// A watchdog budget for one engine run: hard caps on events executed and
/// virtual time reached. Chaos scenarios (retry storms, flapping links
/// rescheduling each other) can otherwise generate events faster than they
/// drain; a budget turns that runaway into a structured [`RunOutcome`]
/// instead of a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum events to execute in this run.
    pub max_events: u64,
    /// Horizon: events scheduled after this virtual time do not run.
    pub max_time: SimTime,
}

impl RunBudget {
    /// No limits (equivalent to [`Engine::run_to_completion`]).
    pub fn unlimited() -> Self {
        RunBudget { max_events: u64::MAX, max_time: SimTime::MAX }
    }

    /// Cap events only.
    pub fn events(max_events: u64) -> Self {
        RunBudget { max_events, ..RunBudget::unlimited() }
    }

    /// Cap virtual time only.
    pub fn until(max_time: SimTime) -> Self {
        RunBudget { max_time, ..RunBudget::unlimited() }
    }

    /// Cap both.
    pub fn new(max_events: u64, max_time: SimTime) -> Self {
        RunBudget { max_events, max_time }
    }
}

/// Why a budgeted run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RunOutcome {
    /// The queue drained: the scenario ran out of work on its own.
    Drained,
    /// A handler requested a stop.
    Stopped,
    /// The watchdog tripped: the event cap was reached with work queued.
    EventBudgetExhausted,
    /// The watchdog tripped: the next event lies past the time horizon.
    TimeBudgetExhausted,
}

impl RunOutcome {
    /// Did the scenario end by itself (drain or explicit stop) rather than
    /// by the watchdog?
    pub fn completed(self) -> bool {
        matches!(self, RunOutcome::Drained | RunOutcome::Stopped)
    }
}

/// The structured result of [`Engine::run_budgeted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Events executed in this run.
    pub events: u64,
    /// The clock when the run ended.
    pub ended_at: SimTime,
}

/// A child event buffered during its parent's dispatch: (time, handler,
/// innermost open span at schedule time). The span travels into the
/// child's provenance node.
type Pending<W> = (SimTime, EventFn<W>, Option<String>);

/// A deterministic discrete-event simulation engine over a world `W`.
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<W>>,
    /// The simulated world; public so scenario code can inspect and mutate
    /// it between runs.
    pub world: W,
    rng: SimRng,
    metrics: Metrics,
    trace: Trace,
    /// Lent to every dispatch's context and taken back, so each dispatch
    /// reuses their capacity: the children a handler schedules and the
    /// first topic it traces.
    pending: Vec<Pending<W>>,
    first_topic: String,
    stopped: bool,
    events_processed: u64,
}

impl<W> Engine<W> {
    /// New engine over `world`, seeded for reproducibility.
    pub fn new(world: W, seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            world,
            rng: SimRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            trace: Trace::default(),
            pending: Vec::new(),
            first_topic: String::new(),
            stopped: false,
            events_processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Metric sink (read).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Trace log (read).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Trace log (write).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Schedule `f` at absolute time `at` (clamped to `now`). Events
    /// scheduled here — from outside any handler — are *root injections*:
    /// their provenance records no parent.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Ctx<W>) + 'static) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { time: at, seq, f: Box::new(f), parent: None, span: None });
    }

    /// Schedule `f` after a relative `delay`.
    pub fn schedule_in(&mut self, delay: SimTime, f: impl FnOnce(&mut W, &mut Ctx<W>) + 'static) {
        self.schedule_at(self.now.saturating_add(delay), f);
    }

    /// Run the next event. Returns `false` when the queue is empty or a
    /// handler requested a stop.
    pub fn step(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue produced a past event");
        let Scheduled { time, seq, f, parent, span } = ev;
        // Virtual time attributed to this event: how far it advanced the
        // clock. Wall-clock reads are gated on Profile mode so the common
        // Off/Cost paths never touch `Instant`.
        let virtual_micros = time.as_micros().saturating_sub(self.now.as_micros());
        let started = if obs::profiling() { Some(Instant::now()) } else { None };
        self.now = time;
        let id = EventId(seq);
        obs::on_dispatch(&ProvenanceNode { id, parent, time, span });
        self.trace.set_current_event(Some(id));
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            trace: &mut self.trace,
            pending: std::mem::take(&mut self.pending),
            stop: false,
            first_topic: std::mem::take(&mut self.first_topic),
            topic_noted: false,
            event: id,
        };
        f(&mut self.world, &mut ctx);
        let Ctx { mut pending, stop, first_topic, topic_noted, .. } = ctx;
        if let Some(start) = started {
            let topic = if topic_noted { first_topic.as_str() } else { "engine.untraced" };
            obs::on_handler(topic, virtual_micros, start.elapsed().as_nanos() as u64);
        }
        self.trace.set_current_event(None);
        obs::on_dispatch_end();
        for (at, f, span) in pending.drain(..) {
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Scheduled { time: at, seq, f, parent: Some(id), span });
        }
        self.pending = pending;
        self.first_topic = first_topic;
        self.events_processed += 1;
        if stop {
            self.stopped = true;
        }
        !self.stopped
    }

    /// Run until the queue drains, a handler stops the engine, or
    /// `max_events` have executed. Returns the number of events run,
    /// including the event whose handler requested the stop; an engine that
    /// is already stopped (or has an empty queue) runs zero events.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let before = self.events_processed;
        while self.events_processed - before < max_events && self.step() {}
        self.events_processed - before
    }

    /// Run events up to and including time `until`. Events scheduled later
    /// stay queued. Returns the number of events run.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let before = self.events_processed;
        while !self.stopped {
            match self.queue.peek() {
                Some(ev) if ev.time <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        // The clock advances to the horizon even if no event sits exactly on
        // it, so periodic scenario code sees consistent "end of epoch" times.
        // A stop freezes the clock at the stopping event's time instead:
        // time must not appear to pass on a halted engine.
        if !self.stopped && self.now < until {
            self.now = until;
        }
        self.events_processed - before
    }

    /// Drain the queue completely (no event cap). Intended for scenarios
    /// that are known to terminate.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run(u64::MAX)
    }

    /// Run under a watchdog [`RunBudget`]: execute events until the queue
    /// drains, a handler stops the engine, or a budget cap trips. Like
    /// [`Engine::run_until`], the clock advances to the time horizon when
    /// the run ends because the next event lies past it.
    pub fn run_budgeted(&mut self, budget: &RunBudget) -> RunReport {
        let before = self.events_processed;
        let outcome = loop {
            if self.stopped {
                break RunOutcome::Stopped;
            }
            let Some(next) = self.queue.peek() else {
                break RunOutcome::Drained;
            };
            if next.time > budget.max_time {
                if self.now < budget.max_time {
                    self.now = budget.max_time;
                }
                break RunOutcome::TimeBudgetExhausted;
            }
            if self.events_processed - before >= budget.max_events {
                break RunOutcome::EventBudgetExhausted;
            }
            self.step();
        };
        RunReport { outcome, events: self.events_processed - before, ended_at: self.now }
    }

    /// Whether a handler has requested a stop.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Digest of this run so far: the retained structured trace plus the
    /// current metrics snapshot. The one-line determinism check for code
    /// that owns the engine.
    pub fn digest(&self) -> RunDigest {
        RunDigest::of_run(&self.trace, &self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<u32>,
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(30), |w: &mut World, _| w.log.push(3));
        eng.schedule_at(SimTime::from_millis(10), |w: &mut World, _| w.log.push(1));
        eng.schedule_at(SimTime::from_millis(20), |w: &mut World, _| w.log.push(2));
        eng.run_to_completion();
        assert_eq!(eng.world.log, [1, 2, 3]);
        assert_eq!(eng.now(), SimTime::from_millis(30));
    }

    #[test]
    fn simultaneous_events_run_in_schedule_order() {
        let mut eng = Engine::new(World::default(), 1);
        for i in 0..10 {
            eng.schedule_at(SimTime::from_millis(5), move |w: &mut World, _| w.log.push(i));
        }
        eng.run_to_completion();
        assert_eq!(eng.world.log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |w: &mut World, ctx| {
            w.log.push(1);
            ctx.schedule_in(SimTime::from_millis(1), |w: &mut World, ctx| {
                w.log.push(2);
                ctx.schedule_in(SimTime::from_millis(1), |w: &mut World, _| w.log.push(3));
            });
        });
        eng.run_to_completion();
        assert_eq!(eng.world.log, [1, 2, 3]);
        assert_eq!(eng.now(), SimTime::from_millis(3));
        assert_eq!(eng.events_processed(), 3);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(10), |w: &mut World, _| w.log.push(1));
        eng.schedule_at(SimTime::from_millis(50), |w: &mut World, _| w.log.push(5));
        let n = eng.run_until(SimTime::from_millis(20));
        assert_eq!(n, 1);
        assert_eq!(eng.world.log, [1]);
        assert_eq!(eng.now(), SimTime::from_millis(20));
        assert_eq!(eng.queued(), 1);
        eng.run_until(SimTime::from_millis(100));
        assert_eq!(eng.world.log, [1, 5]);
    }

    #[test]
    fn stop_halts_the_run() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |w: &mut World, ctx| {
            w.log.push(1);
            ctx.stop();
        });
        eng.schedule_at(SimTime::from_millis(2), |w: &mut World, _| w.log.push(2));
        eng.run_to_completion();
        assert_eq!(eng.world.log, [1]);
        assert!(eng.is_stopped());
        assert!(!eng.step());
    }

    #[test]
    fn run_on_stopped_engine_counts_zero_events() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |w: &mut World, ctx| {
            w.log.push(1);
            ctx.stop();
        });
        assert_eq!(eng.run(10), 1, "the stopping event itself counts");
        // Subsequent runs on a stopped engine execute nothing at all.
        assert_eq!(eng.run(10), 0);
        assert_eq!(eng.run_to_completion(), 0);
        assert_eq!(eng.events_processed(), 1);
    }

    #[test]
    fn run_until_freezes_clock_on_stop() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(5), |w: &mut World, ctx| {
            w.log.push(1);
            ctx.stop();
        });
        eng.schedule_at(SimTime::from_millis(8), |w: &mut World, _| w.log.push(2));
        let n = eng.run_until(SimTime::from_millis(100));
        assert_eq!(n, 1);
        assert_eq!(eng.world.log, [1]);
        // A stop freezes the clock at the stopping event, not the horizon.
        assert_eq!(eng.now(), SimTime::from_millis(5));
        // And a further run_until on the stopped engine does nothing.
        assert_eq!(eng.run_until(SimTime::from_millis(200)), 0);
        assert_eq!(eng.now(), SimTime::from_millis(5));
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(10), |w: &mut World, ctx| {
            // Deliberately in the past; must run at `now`, not panic.
            ctx.schedule_at(SimTime::from_millis(1), |w: &mut World, _| w.log.push(2));
            w.log.push(1);
        });
        eng.run_to_completion();
        assert_eq!(eng.world.log, [1, 2]);
        assert_eq!(eng.now(), SimTime::from_millis(10));
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        fn run(seed: u64) -> Vec<u32> {
            let mut eng = Engine::new(World::default(), seed);
            for _ in 0..5 {
                eng.schedule_at(SimTime::ZERO, |w: &mut World, ctx| {
                    let delay = SimTime::from_micros(ctx.rng.range(1..1000u64));
                    ctx.schedule_in(delay, move |w2: &mut World, _| {
                        w2.log.push(delay.as_micros() as u32)
                    });
                    let _ = w;
                });
            }
            eng.run_to_completion();
            eng.world.log
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn ctx_trace_and_metrics() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(7), |_, ctx| {
            ctx.trace("test.topic", "hello");
            ctx.metrics.incr("events");
        });
        eng.run_to_completion();
        assert_eq!(eng.metrics().counter("events"), 1);
        let e = eng.trace().entries().next().unwrap();
        assert_eq!(e.time, SimTime::from_millis(7));
        assert_eq!(e.topic, "test.topic");
    }

    /// An event that perpetually reschedules itself: the runaway scenario
    /// the watchdog exists for.
    fn runaway(w: &mut World, ctx: &mut Ctx<World>) {
        w.log.push(0);
        ctx.schedule_in(SimTime::from_millis(1), runaway);
    }

    #[test]
    fn budget_caps_a_runaway_run_by_events() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::ZERO, runaway);
        let report = eng.run_budgeted(&RunBudget::events(50));
        assert_eq!(report.outcome, RunOutcome::EventBudgetExhausted);
        assert!(!report.outcome.completed());
        assert_eq!(report.events, 50);
        assert_eq!(eng.world.log.len(), 50);
        assert!(eng.queued() > 0, "the runaway is still queued, not lost");
    }

    #[test]
    fn budget_caps_a_runaway_run_by_time() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::ZERO, runaway);
        let report = eng.run_budgeted(&RunBudget::until(SimTime::from_millis(10)));
        assert_eq!(report.outcome, RunOutcome::TimeBudgetExhausted);
        assert_eq!(report.events, 11, "t=0..10ms inclusive at 1ms spacing");
        assert_eq!(report.ended_at, SimTime::from_millis(10));
        assert_eq!(eng.now(), SimTime::from_millis(10));
    }

    #[test]
    fn budget_reports_natural_endings() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |w: &mut World, _| w.log.push(1));
        let report = eng.run_budgeted(&RunBudget::unlimited());
        assert_eq!(report.outcome, RunOutcome::Drained);
        assert!(report.outcome.completed());
        assert_eq!(report.events, 1);

        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |_: &mut World, ctx| ctx.stop());
        eng.schedule_at(SimTime::from_millis(2), |w: &mut World, _| w.log.push(2));
        let report = eng.run_budgeted(&RunBudget::unlimited());
        assert_eq!(report.outcome, RunOutcome::Stopped);
        assert_eq!(report.events, 1);
        assert!(eng.world.log.is_empty());
        // a further budgeted run on the stopped engine does nothing
        let again = eng.run_budgeted(&RunBudget::unlimited());
        assert_eq!(again.outcome, RunOutcome::Stopped);
        assert_eq!(again.events, 0);
    }

    #[test]
    fn budgeted_runs_are_deterministic() {
        let run = |budget: RunBudget| {
            let mut eng = Engine::new(World::default(), 9);
            eng.schedule_at(SimTime::ZERO, runaway);
            let r = eng.run_budgeted(&budget);
            (r.events, r.ended_at, eng.world.log.len())
        };
        assert_eq!(run(RunBudget::events(25)), run(RunBudget::events(25)));
        assert_eq!(
            run(RunBudget::new(1000, SimTime::from_millis(7))),
            run(RunBudget::new(1000, SimTime::from_millis(7)))
        );
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        fn run(seed: u64) -> RunDigest {
            let mut eng = Engine::new(World::default(), seed);
            eng.schedule_at(SimTime::from_millis(1), |_, ctx| {
                let roll = ctx.rng.range(0..100u32);
                ctx.trace("test.roll", format!("rolled {roll}"));
                ctx.metrics.incr("rolls");
                ctx.metrics.observe("value", roll as f64);
            });
            eng.run_to_completion();
            eng.digest()
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn obs_scope_counts_engine_events() {
        let g = crate::obs::begin(crate::obs::ObsMode::Cost);
        let mut eng = Engine::new(World::default(), 1);
        for i in 0..4 {
            eng.schedule_at(SimTime::from_millis(i), |w: &mut World, _| w.log.push(0));
        }
        eng.run_to_completion();
        let rec = g.finish();
        assert_eq!(rec.events, 4);
    }

    #[test]
    fn profile_mode_attributes_events_to_first_topic() {
        let g = crate::obs::begin(crate::obs::ObsMode::Profile);
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(2), |_, ctx| {
            ctx.trace("alpha.work", "first");
            ctx.trace("beta.other", "second topic does not win");
        });
        eng.schedule_at(SimTime::from_millis(5), |_, ctx| ctx.trace("alpha.work", "again"));
        eng.schedule_at(SimTime::from_millis(9), |_, _| {});
        eng.run_to_completion();
        let rec = g.finish();
        let alpha = &rec.topics["alpha.work"];
        assert_eq!(alpha.events, 2);
        assert_eq!(alpha.virtual_micros, 2_000 + 3_000, "clock advances attributed");
        assert_eq!(rec.topics["engine.untraced"].events, 1);
        assert!(!rec.topics.contains_key("beta.other"));
    }

    #[test]
    fn ctx_spans_nest_in_engine_trace() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |_, ctx| {
            ctx.span_enter("net.send", Some("user"), &[("dst", "h9")]);
            ctx.trace("net.hop", "r1");
            assert_eq!(ctx.span_exit(&[("hops", "1")]).as_deref(), Some("net.send"));
        });
        eng.run_to_completion();
        assert_eq!(eng.trace().open_spans(), 0);
        assert_eq!(eng.trace().len(), 3);
        let entries: Vec<_> = eng.trace().entries().collect();
        assert_eq!(entries[1].depth, 1);
    }

    #[test]
    fn provenance_links_children_to_their_scheduler() {
        let guard = crate::obs::begin(crate::obs::ObsMode::Profile);
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |w: &mut World, ctx| {
            w.log.push(1);
            ctx.schedule_in(SimTime::from_millis(1), |w: &mut World, ctx| {
                w.log.push(2);
                ctx.schedule_in(SimTime::from_millis(1), |w: &mut World, _| w.log.push(3));
            });
        });
        eng.schedule_at(SimTime::from_millis(9), |w: &mut World, _| w.log.push(9));
        eng.run_to_completion();

        let p = guard.finish().provenance;
        let links: Vec<(u64, Option<u64>)> =
            p.iter().map(|n| (n.id.0, n.parent.map(|e| e.0))).collect();
        // In dispatch order: both external schedules are roots, and the
        // chain 0 -> 2 -> 3 is recorded parent by parent.
        assert_eq!(links, [(0, None), (2, Some(0)), (3, Some(2)), (1, None)]);
        // Dispatch times are recorded.
        assert_eq!(p[2].time, SimTime::from_millis(3));
    }

    #[test]
    fn provenance_captures_the_open_span_at_schedule_time() {
        let guard = crate::obs::begin(crate::obs::ObsMode::Profile);
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |_, ctx| {
            ctx.span_enter("net.send", None, &[]);
            ctx.schedule_in(SimTime::from_millis(1), |_, _| {});
            ctx.span_exit(&[]);
            ctx.schedule_in(SimTime::from_millis(2), |_, _| {});
        });
        eng.run_to_completion();
        let p = guard.finish().provenance;
        let spans: Vec<(u64, Option<&str>)> =
            p.iter().map(|n| (n.id.0, n.span.as_deref())).collect();
        assert_eq!(spans, [(0, None), (1, Some("net.send")), (2, None)]);
    }

    #[test]
    fn trace_entries_are_stamped_with_their_event() {
        let mut eng = Engine::new(World::default(), 1);
        eng.schedule_at(SimTime::from_millis(1), |_, ctx| ctx.trace("t", "first"));
        eng.schedule_at(SimTime::from_millis(2), |_, ctx| {
            assert_eq!(ctx.event_id(), EventId(1));
            ctx.trace("t", "second");
        });
        eng.run_to_completion();
        let stamps: Vec<_> = eng.trace().entries().map(|e| e.event).collect();
        assert_eq!(stamps, [Some(EventId(0)), Some(EventId(1))]);
        // Outside dispatch, entries carry no stamp.
        eng.trace_mut().record(SimTime::from_millis(9), "t", "outside");
        assert_eq!(eng.trace().entries().last().unwrap().event, None);
    }

    #[test]
    fn run_with_event_cap() {
        let mut eng = Engine::new(World::default(), 1);
        fn tick(w: &mut World, ctx: &mut Ctx<World>) {
            w.log.push(0);
            ctx.schedule_in(SimTime::from_millis(1), tick);
        }
        eng.schedule_at(SimTime::ZERO, tick);
        let n = eng.run(100);
        assert_eq!(n, 100);
        assert_eq!(eng.world.log.len(), 100);
    }
}
