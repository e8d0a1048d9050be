//! E12 — Actor-network churn and freezing (§II.C).
//!
//! Paper claim: "When new applications and user groups cease to come to the
//! Internet, and the set of actors in the actor network becomes fixed, then
//! we can assume that the tensions and tussles in the network will begin to
//! be resolved, and this will imply a freezing of the actor network, and a
//! freezing of the Internet. So we should look for a time when innovation
//! slows, not just as a signal but also as a pre-condition of a durably
//! formed and unchangeable Internet."
//!
//! Measured: a seeded actor network run under a sweep of entrant arrival
//! rates; we record whether (and when) the network freezes, final tussle
//! energy, and durability.

use tussle_actors::{ActorKind, ActorNetwork, ChurnProcess, FreezeDetector};
use tussle_core::{ExperimentReport, Table};
use tussle_sim::{Ctx, Engine, SimRng, SimTime};

/// Outcome for one arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// Entrants admitted over the run.
    pub entrants: u64,
    /// Step at which the network froze, if it did.
    pub frozen_at: Option<usize>,
    /// Final tussle energy.
    pub final_energy: f64,
    /// Final durability.
    pub final_durability: f64,
}

/// One rate's evolving network, threaded through its event chain.
struct RateTally {
    net: ActorNetwork,
    churn: ChurnProcess,
    det: FreezeDetector,
    done: usize,
}

impl RateTally {
    fn new(rate: f64) -> Self {
        let mut net = ActorNetwork::new(3);
        // the founding population: users, an ISP, the protocol suite, a law
        let users = net.add_actor(ActorKind::Human, "users", vec![0.9, -0.4, 0.1]);
        let isp = net.add_actor(ActorKind::Institution, "isp", vec![-0.8, 0.6, 0.0]);
        let ip = net.add_actor(ActorKind::Technology, "ip", vec![0.0, 0.0, 0.0]);
        let law = net.add_actor(ActorKind::Institution, "telecom-law", vec![-0.2, 0.8, -0.5]);
        net.align(users, ip, 0.7);
        net.align(isp, ip, 0.7);
        net.align(isp, law, 0.5);
        net.align(users, isp, 0.4);
        RateTally {
            net,
            churn: ChurnProcess::new(rate),
            det: FreezeDetector::new(0.05, 25),
            done: 0,
        }
    }
}

/// Advance the network `n` churn steps, feeding the freeze detector.
fn churn_batch(t: &mut RateTally, n: usize, rng: &mut SimRng) {
    for _ in 0..n {
        let admitted = t.churn.step(&mut t.net, rng);
        t.det.observe(admitted, || t.net.tussle_energy());
    }
    t.done += n;
}

fn outcome_of(t: &RateTally) -> ChurnOutcome {
    ChurnOutcome {
        entrants: t.churn.entrants(),
        frozen_at: t.det.frozen_at(),
        final_energy: t.net.tussle_energy(),
        final_durability: t.net.durability(),
    }
}

/// Run one arrival rate for `steps` (the pure loop the unit tests drive;
/// [`run`] replays it as paced engine-event epochs).
pub fn run_rate(rate: f64, steps: usize, seed: u64) -> ChurnOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e12");
    let mut t = RateTally::new(rate);
    churn_batch(&mut t, steps, &mut rng);
    outcome_of(&t)
}

/// World for the engine-driven replay: settled outcomes per rate. Rates
/// are keyed by their table label to avoid float comparisons.
#[derive(Default)]
struct ChurnWorld {
    outcomes: Vec<(String, ChurnOutcome)>,
}

/// Churn steps per epoch event in the engine replay.
const EPOCH: usize = 150;
/// Total churn steps per rate.
const STEPS: usize = 600;

/// One churn epoch as an engine event, chaining to the next epoch.
fn run_epoch(w: &mut ChurnWorld, ctx: &mut Ctx<ChurnWorld>, rate: f64, mut t: RateTally) {
    let label = format!("rate={rate}");
    ctx.span_enter(
        "e12.epoch",
        Some("society"),
        &[("rate", &rate.to_string()), ("done", &t.done.to_string())],
    );
    let n = EPOCH.min(STEPS - t.done);
    churn_batch(&mut t, n, ctx.rng);
    if t.done < STEPS {
        let lag = SimTime::from_micros(ctx.rng.range(100..5_000u64));
        ctx.trace_fields(
            "e12.pacing",
            Some("society"),
            &[("lag_us", &lag.as_micros().to_string())],
            format!("{} steps churned; next epoch follows", t.done),
        );
        ctx.span_exit(&[("entrants", &t.churn.entrants().to_string())]);
        ctx.schedule_in(lag, move |w2: &mut ChurnWorld, ctx2| {
            run_epoch(w2, ctx2, rate, t);
        });
    } else {
        let o = outcome_of(&t);
        ctx.trace_fields(
            "e12.settled",
            Some("society"),
            &[("frozen", &o.frozen_at.is_some().to_string())],
            format!("{label} evolution settles"),
        );
        ctx.span_exit(&[("entrants", &o.entrants.to_string())]);
        w.outcomes.push((label, o));
    }
}

/// Run E12 and produce the report. Each arrival rate's 600 churn steps run
/// as a causal chain of epoch events on the shared engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let rates = [0.0, 0.05, 0.5, 2.0];
    let mut eng = Engine::new(ChurnWorld::default(), seed);
    for (i, rate) in rates.into_iter().enumerate() {
        // Each arrival rate is a root injection.
        eng.schedule_at(SimTime::from_millis(i as u64), move |w: &mut ChurnWorld, ctx| {
            run_epoch(w, ctx, rate, RateTally::new(rate));
        });
    }
    eng.run_to_completion();

    let mut table = Table::new(
        "Actor-network evolution vs. entrant arrival rate (600 steps)",
        &["entrants", "frozen at step", "final tussle energy", "final durability"],
    );
    let mut outcomes = Vec::new();
    for rate in rates {
        let o = eng
            .world
            .outcomes
            .iter()
            .find(|(l, _)| *l == format!("rate={rate}"))
            .map(|(_, o)| o.clone())
            .expect("every rate settles");
        table.push_row(
            &format!("rate={rate}"),
            &[
                o.entrants.to_string(),
                o.frozen_at.map(|s| s.to_string()).unwrap_or_else(|| "never".into()),
                format!("{:.3}", o.final_energy),
                format!("{:.2}", o.final_durability),
            ],
        );
        outcomes.push(o);
    }
    let closed = &outcomes[0];
    let busy = &outcomes[2];
    let packed = &outcomes[3];
    let shape_holds = closed.frozen_at.is_some()
        && busy.frozen_at.is_none()
        && packed.frozen_at.is_none()
        && packed.final_energy > closed.final_energy
        && closed.final_durability > 0.5; // the frozen network is durable

    ExperimentReport {
        id: "E12".into(),
        section: "II.C".into(),
        paper_claim: "Continuous entry of new actors keeps the actor network (and hence the \
                      Internet) changeable; when entrants stop, tussles resolve, the network \
                      hardens, and the architecture freezes."
            .into(),
        summary: format!(
            "rate 0 freezes at step {} with durability {:.2}; rate 0.5 and 2.0 never freeze \
             (final tussle energy {:.2} and {:.2}).",
            closed.frozen_at.unwrap_or(0),
            closed.final_durability,
            busy.final_energy,
            packed.final_energy,
        ),
        table,
        shape_holds,
        cost: None,
        scoreboard: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_networks_freeze_hard() {
        let o = run_rate(0.0, 600, 1);
        assert!(o.frozen_at.is_some());
        assert!(o.final_energy < 0.05);
        assert!(o.final_durability > 0.5);
        assert_eq!(o.entrants, 0);
    }

    #[test]
    fn open_networks_stay_fluid() {
        let o = run_rate(1.0, 600, 1);
        assert!(o.frozen_at.is_none());
        assert!(o.final_energy > 0.05);
        assert!(o.entrants > 300);
    }

    #[test]
    fn more_churn_more_tussle() {
        let slow = run_rate(0.1, 400, 2);
        let fast = run_rate(2.0, 400, 2);
        assert!(fast.final_energy > slow.final_energy);
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }

    /// `(rate, seed, entrants, frozen_at, final energy bits, final
    /// durability bits)` as `run_rate(rate, 600, seed)` computed them when
    /// the detector read the energy on every step and `relax` walked the
    /// stances pair by pair.
    const PINNED: [(f64, u64, u64, Option<usize>, u64, u64); 32] = [
        (0.0, 1, 0, Some(139), 0x3e8a8cee503b5555, 0x3ff0000000000000),
        (0.0, 2, 0, Some(139), 0x3e8a8cee503b5555, 0x3ff0000000000000),
        (0.0, 3, 0, Some(139), 0x3e8a8cee503b5555, 0x3ff0000000000000),
        (0.0, 4, 0, Some(139), 0x3e8a8cee503b5555, 0x3ff0000000000000),
        (0.0, 5, 0, Some(139), 0x3e8a8cee503b5555, 0x3ff0000000000000),
        (0.0, 6, 0, Some(139), 0x3e8a8cee503b5555, 0x3ff0000000000000),
        (0.0, 7, 0, Some(139), 0x3e8a8cee503b5555, 0x3ff0000000000000),
        (0.0, 8, 0, Some(139), 0x3e8a8cee503b5555, 0x3ff0000000000000),
        (0.05, 1, 39, None, 0x3fe7e87eddacb900, 0x3fee4dfd4f8a7fa4),
        (0.05, 2, 30, None, 0x3fec531740405191, 0x3feeb51fe1c9d28a),
        (0.05, 3, 39, None, 0x3ffcab47feac1a80, 0x3fed9b92f015b6b8),
        (0.05, 4, 29, None, 0x3fe0b36762780299, 0x3fef0de31a830413),
        (0.05, 5, 33, None, 0x3ff0df9918b3ac73, 0x3fedb17e4b17e4b1),
        (0.05, 6, 29, None, 0x3fe5dbc91c9093fd, 0x3fee94b0bec5c94b),
        (0.05, 7, 35, None, 0x3ff58823860f84ee, 0x3fee0b0fb747920c),
        (0.05, 8, 36, None, 0x3fea2f0482f67206, 0x3fee1178bd4b9d30),
        (0.5, 1, 296, None, 0x40238df4fe75e414, 0x3fee0d8c43515a6d),
        (0.5, 2, 305, None, 0x4024281a3242d709, 0x3fee0ab9a5db7bbe),
        (0.5, 3, 294, None, 0x40224ec547aecbb3, 0x3fee07c65232f7ae),
        (0.5, 4, 283, None, 0x4022943a83bd84ba, 0x3fedc844ca3b2814),
        (0.5, 5, 307, None, 0x40228990b670e4b6, 0x3fee599b3bfc042e),
        (0.5, 6, 300, None, 0x402209395259d753, 0x3fee0f8518097345),
        (0.5, 7, 294, None, 0x40206368238b7063, 0x3fee3cf06ada2803),
        (0.5, 8, 295, None, 0x40255ae6b6d0388b, 0x3fede23f402d365e),
        (2.0, 1, 1200, None, 0x40428435878c73b0, 0x3fee192f47cf4e0a),
        (2.0, 2, 1200, None, 0x4042283b3edec90c, 0x3fee0fdb31dd9f4a),
        (2.0, 3, 1200, None, 0x4043e4e236fd3fa4, 0x3fee0fb754d478e0),
        (2.0, 4, 1200, None, 0x40424a4825cb368b, 0x3fee1a7a1ed9912d),
        (2.0, 5, 1200, None, 0x4041e2c5c340459d, 0x3fee201f45b9b8d7),
        (2.0, 6, 1200, None, 0x4042b3743a65e9e1, 0x3fee28322944d4e9),
        (2.0, 7, 1200, None, 0x40433746d88e8dfe, 0x3fee169a66771fa2),
        (2.0, 8, 1200, None, 0x40425db3cf12fd03, 0x3fee185e934b91c6),
    ];

    #[test]
    fn run_rate_keeps_every_bit() {
        for (rate, seed, entrants, frozen_at, energy, durability) in PINNED {
            let o = run_rate(rate, 600, seed);
            let got =
                (o.entrants, o.frozen_at, o.final_energy.to_bits(), o.final_durability.to_bits());
            assert_eq!(got, (entrants, frozen_at, energy, durability), "rate {rate} seed {seed}");
        }
    }
}
