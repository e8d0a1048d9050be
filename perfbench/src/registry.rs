//! `registry`: one op is a full 17-experiment pass at one seed, each entry
//! through `run_captured`, as `tussle-cli sweep --threads 1` runs it.

use crate::spans::{Checks, Spans};
use crate::{Config, Workload};
use std::hint::black_box;
use tussle_actors::{ActorId, ActorKind, ActorNetwork, ChurnProcess};
use tussle_core::ExperimentReport;
use tussle_experiments::{e12_actor_network, registry, run_captured, ExperimentEntry};
use tussle_sim::SimRng;

/// The seed the golden reports under `tests/golden/` were rendered at.
const GOLDEN_SEED: u64 = 2002;

/// E12's arrival rates and steps per rate.
const E12_RATES: [f64; 4] = [0.0, 0.05, 0.5, 2.0];
const E12_STEPS: usize = 600;

/// Span keys of the registry entries, in registry order: the first
/// per-layer metrics.
pub fn experiment_keys() -> impl Iterator<Item = &'static str> {
    crate::PER_LAYER[..EXPERIMENTS].iter().map(|(key, _)| *key)
}

/// Entries in the experiment registry.
const EXPERIMENTS: usize = 17;

/// Ops cycle through experiment seeds `1..=SEEDS`. Every shape holds on
/// all of them (`tussle-cli sweep --seeds 2000`); beyond, a shape fails now
/// and then (E7 near seed 3,500,000), which is the experiment's statistics,
/// not a fault a benchmark op should count.
const SEEDS: u64 = 2_000;

pub struct Registry {
    entries: Vec<ExperimentEntry>,
    workload_seed: u64,
    reports: Vec<ExperimentReport>,
    /// Whether a traced op already ran the one-off probes: the replay's
    /// fidelity check and the quadratic pair count.
    probed: bool,
}

/// Read the goldens, then run the golden pass and compare it byte for byte.
pub fn setup(config: &Config, checks: &mut Checks) -> Result<Registry, String> {
    let entries = registry();
    assert_eq!(entries.len(), EXPERIMENTS, "one span key per registry entry");
    let dir = config.root.join("tests").join("golden");
    for (name, run) in &entries {
        let path = dir.join(format!("{name}.md"));
        let golden = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read golden report {}: {e}", path.display()))?;
        let actual = run_captured(name, *run, GOLDEN_SEED).to_markdown();
        checks.check("registry.golden_2002", actual == golden, || {
            format!("{name} at seed {GOLDEN_SEED} differs from {}", path.display())
        });
    }
    Ok(Registry { entries, workload_seed: config.seed, reports: Vec::new(), probed: false })
}

/// The experiment seed of op `index`: consecutive, wrapping within
/// `1..=SEEDS`. 199 is coprime to `SEEDS`, so nearby workload seeds start
/// far apart.
fn experiment_seed(workload_seed: u64, index: u64) -> u64 {
    1 + (workload_seed % SEEDS * 199 + index % SEEDS) % SEEDS
}

impl Workload for Registry {
    fn op(&mut self, index: u64, spans: &mut Spans) -> u64 {
        let seed = experiment_seed(self.workload_seed, index);
        self.reports = self
            .entries
            .iter()
            .zip(experiment_keys())
            .map(|((name, run), key)| spans.time(key, || run_captured(name, *run, seed)))
            .collect();
        1
    }

    fn verify(&mut self, checks: &mut Checks) {
        for r in &self.reports {
            // A panicked run reduces to a report without a cost appendix.
            checks.check("registry.no_panic", r.cost.is_some(), || r.summary.clone());
            checks.check("registry.shape_holds", r.shape_holds, || {
                format!("{}: {}", r.id, r.summary)
            });
        }
    }

    fn probe(&mut self, index: u64, _op_ns: f64, spans: &mut Spans, checks: &mut Checks) {
        spans.time("core.render_ms", || {
            for r in &self.reports {
                black_box((r.to_markdown(), r.to_json()));
            }
        });
        let cost = |f: fn(&tussle_core::RunCost) -> u64| -> f64 {
            self.reports.iter().filter_map(|r| r.cost.as_ref()).map(|c| f(c) as f64).sum()
        };
        spans.sample("sim.events", cost(|c| c.events));
        spans.sample("sim.rng_draws", cost(|c| c.rng_draws));
        spans.sample("net.forwards", cost(|c| c.forwards));

        let seed = experiment_seed(self.workload_seed, index);
        let first = !std::mem::replace(&mut self.probed, true);
        let (mut actors, mut pairs) = (0, 0);
        for rate in E12_RATES {
            let (net, churn) = replay_e12_rate(rate, seed, spans);
            actors += net.active_count();
            if first {
                // The replay must be E12's own loop: same entrants and the
                // same final energy as the experiment's pure runner.
                let want = e12_actor_network::run_rate(rate, E12_STEPS, seed);
                let same = want.entrants == churn.entrants()
                    && want.final_energy.to_bits() == net.tussle_energy().to_bits();
                checks.sanity(
                    &format!("actors replay of rate {rate} matches e12_actor_network::run_rate"),
                    same,
                    format!("{} entrants, want {}", churn.entrants(), want.entrants),
                );
                pairs += aligned_pairs(&net);
            }
        }
        if first {
            spans.sample("actors.aligned_pairs", pairs as f64);
        }
        spans.sample("actors.active_actors", actors as f64);
    }
}

/// E12's loop for one arrival rate: the founding population, then
/// `ChurnProcess::step` and `ActorNetwork::tussle_energy` every step (the
/// freeze detector only reads the energy).
fn replay_e12_rate(rate: f64, seed: u64, spans: &mut Spans) -> (ActorNetwork, ChurnProcess) {
    let mut rng = SimRng::seed_from_u64(seed).fork("e12");
    let mut net = ActorNetwork::new(3);
    let users = net.add_actor(ActorKind::Human, "users", vec![0.9, -0.4, 0.1]);
    let isp = net.add_actor(ActorKind::Institution, "isp", vec![-0.8, 0.6, 0.0]);
    let ip = net.add_actor(ActorKind::Technology, "ip", vec![0.0, 0.0, 0.0]);
    let law = net.add_actor(ActorKind::Institution, "telecom-law", vec![-0.2, 0.8, -0.5]);
    net.align(users, ip, 0.7);
    net.align(isp, ip, 0.7);
    net.align(isp, law, 0.5);
    net.align(users, isp, 0.4);
    let mut churn = ChurnProcess::new(rate);
    for _ in 0..E12_STEPS {
        spans.time("actors.step_ms", || churn.step(&mut net, &mut rng));
        black_box(spans.time("actors.energy_ms", || net.tussle_energy()));
    }
    (net, churn)
}

/// Distinct aligned pairs among active actors.
fn aligned_pairs(net: &ActorNetwork) -> usize {
    let ids: Vec<ActorId> = net.active_actors().map(|a| a.id).collect();
    ids.iter()
        .enumerate()
        .map(|(i, a)| ids[..i].iter().filter(|b| net.alignment(*a, **b) > 0.0).count())
        .sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn op_seeds_are_consecutive_within_the_checked_range() {
        for workload_seed in [0, 1, 7, 1_999, 2_000, u64::MAX] {
            let seeds: Vec<u64> =
                (0..5_000).map(|i| super::experiment_seed(workload_seed, i)).collect();
            assert!(seeds.iter().all(|s| (1..=super::SEEDS).contains(s)));
            assert!(seeds.windows(2).all(|w| w[1] == w[0] % super::SEEDS + 1));
        }
        assert_ne!(super::experiment_seed(1, 0), super::experiment_seed(2, 0));
    }

    #[test]
    fn experiment_keys_follow_the_registry() {
        let keys: Vec<&str> = super::experiment_keys().collect();
        let ids: Vec<String> = tussle_experiments::registry()
            .iter()
            .map(|(id, _)| format!("experiments.e{:02}_ms", id[1..].parse::<u32>().unwrap()))
            .collect();
        assert_eq!(keys, ids);
    }
}
